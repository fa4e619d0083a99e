//! Domain names: text parsing, wire encoding with compression, decoding with
//! pointer chasing, and the hierarchy operations the resolver and guard need.

use crate::error::{WireError, WireResult};
use std::fmt;
use std::str::FromStr;

/// Maximum length of a single label in bytes (RFC 1035 section 2.3.4).
pub const MAX_LABEL_LEN: usize = 63;

/// Maximum length of a name on the wire, including length octets.
pub const MAX_NAME_LEN: usize = 255;

/// Maximum number of compression-pointer jumps tolerated while decoding one
/// name. Real names never need more than a handful; this bounds malicious
/// pointer chains.
const MAX_POINTER_JUMPS: usize = 64;

/// Splits the leading length-prefixed label off `wire`, returning the label
/// bytes (without the length octet) and what follows.
pub(crate) fn split_label(wire: &[u8]) -> Option<(&[u8], &[u8])> {
    let (&len, rest) = wire.split_first()?;
    rest.split_at_checked(len as usize)
}

/// A fully-qualified domain name, stored as one buffer holding its
/// uncompressed wire form (length-prefixed labels) without the trailing root
/// octet, which is implicit.
///
/// Comparison and hashing are ASCII case-insensitive, per RFC 1035 /
/// RFC 4343, but the original label bytes are preserved: a resolver doing
/// 0x20 case randomization needs its MiXeD-cAsE query name echoed back
/// byte-for-byte, which [`Name::eq_case_sensitive`] checks.
///
/// # Examples
///
/// ```
/// use dnswire::name::Name;
///
/// let name: Name = "www.Foo.COM".parse()?;
/// assert_eq!(name.to_string(), "www.Foo.COM.");
/// assert_eq!(name, "WWW.foo.com".parse()?);
/// assert!(!name.eq_case_sensitive(&"www.foo.com".parse()?));
/// assert_eq!(name.label_count(), 3);
/// assert!(name.is_subdomain_of(&"com".parse()?));
/// # Ok::<(), dnswire::error::WireError>(())
/// ```
#[derive(Clone, Default)]
pub struct Name {
    /// `len label len label …` in query order (leftmost first), case
    /// preserved, at most `MAX_NAME_LEN - 1` bytes. A length octet is at most
    /// 63 and an ASCII letter at least 0x41, so folding the case of the whole
    /// buffer never touches the structure. All comparisons fold ASCII case
    /// except [`Name::eq_case_sensitive`].
    wire: Vec<u8>,
}

// The guard's byte-bounded forward and stash tables charge `size_of::<Name>()`
// per stored name; a fatter `Name` shifts their evictions and with them the
// committed `BENCH_*.json`.
const _: () = assert!(std::mem::size_of::<Name>() == 24);

impl Name {
    /// The root name (zero labels).
    pub fn root() -> Self {
        Name { wire: Vec::new() }
    }

    /// Builds a name from label byte-slices.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::LabelTooLong`] / [`WireError::NameTooLong`] when
    /// RFC 1035 limits are violated, and [`WireError::InvalidText`] for empty
    /// labels.
    pub fn from_labels<I, L>(labels: I) -> WireResult<Self>
    where
        I: IntoIterator<Item = L>,
        L: AsRef<[u8]>,
    {
        let mut name = Name::root();
        for l in labels {
            name.push_label(l.as_ref())?;
        }
        name.checked()
    }

    /// Appends one label, enforcing the per-label limits.
    fn push_label(&mut self, label: &[u8]) -> WireResult<()> {
        if label.is_empty() {
            return Err(WireError::InvalidText("empty label".into()));
        }
        if label.len() > MAX_LABEL_LEN {
            return Err(WireError::LabelTooLong(label.len()));
        }
        self.wire.push(label.len() as u8);
        self.wire.extend_from_slice(label);
        Ok(())
    }

    /// Enforces the whole-name limit once every label is in.
    fn checked(self) -> WireResult<Name> {
        match self.wire_len() {
            wire if wire > MAX_NAME_LEN => Err(WireError::NameTooLong(wire)),
            _ => Ok(self),
        }
    }

    /// `label` followed by the already-valid wire form `rest`.
    fn prepend(label: &[u8], rest: &[u8]) -> WireResult<Name> {
        let mut name = Name {
            wire: Vec::with_capacity(1 + label.len() + rest.len()),
        };
        name.push_label(label)?;
        name.wire.extend_from_slice(rest);
        name.checked()
    }

    /// The wire form after the first `skip` labels (empty past the end).
    fn tail(&self, skip: usize) -> &[u8] {
        let mut rest = self.wire.as_slice();
        for _ in 0..skip {
            rest = split_label(rest).map_or(&[], |(_, tail)| tail);
        }
        rest
    }

    /// The uncompressed wire form without the root octet.
    pub(crate) fn as_wire(&self) -> &[u8] {
        &self.wire
    }

    /// Whether this is the root name.
    pub fn is_root(&self) -> bool {
        self.wire.is_empty()
    }

    /// Number of labels (the root name has zero).
    pub fn label_count(&self) -> usize {
        self.labels().count()
    }

    /// Iterates over the labels, leftmost (most specific) first.
    pub fn labels(&self) -> impl Iterator<Item = &[u8]> {
        let mut rest = self.wire.as_slice();
        std::iter::from_fn(move || {
            let (label, tail) = split_label(rest)?;
            rest = tail;
            Some(label)
        })
    }

    /// The leftmost label, if any.
    pub fn first_label(&self) -> Option<&[u8]> {
        split_label(&self.wire).map(|(label, _)| label)
    }

    /// The leftmost label as UTF-8 text, if it is valid UTF-8.
    pub fn first_label_str(&self) -> Option<&str> {
        self.first_label().and_then(|l| std::str::from_utf8(l).ok())
    }

    /// Length of this name on the wire (length octets + labels + root octet).
    pub fn wire_len(&self) -> usize {
        self.wire.len() + 1
    }

    /// The parent name (this name minus its leftmost label). The parent of
    /// the root is the root.
    pub fn parent(&self) -> Name {
        Name {
            wire: self.tail(1).to_vec(),
        }
    }

    /// Returns the suffix of this name with `count` labels (e.g. for
    /// `www.foo.com`, `suffix(2)` is `foo.com`). `count` larger than the
    /// label count returns the whole name.
    pub fn suffix(&self, count: usize) -> Name {
        Name {
            wire: self.tail(self.label_count().saturating_sub(count)).to_vec(),
        }
    }

    /// True when `self` is `other` or a descendant of `other`, comparing
    /// labels case-insensitively. Every name is a subdomain of the root.
    pub fn is_subdomain_of(&self, other: &Name) -> bool {
        // Walk to the label boundary where a suffix of `other`'s length
        // would start; overshooting it means there is no such boundary.
        let mut rest = self.wire.as_slice();
        while rest.len() > other.wire.len() {
            match split_label(rest) {
                Some((_, tail)) => rest = tail,
                None => return false,
            }
        }
        rest.eq_ignore_ascii_case(&other.wire)
    }

    /// Byte-exact equality, including ASCII case — the check a 0x20
    /// resolver runs on the echoed question name. Regular `==` stays
    /// case-insensitive per RFC 1035.
    pub fn eq_case_sensitive(&self, other: &Name) -> bool {
        self.wire == other.wire
    }

    /// Returns a copy with each ASCII letter's case chosen by `coin`
    /// (`true` = uppercase), called once per letter in wire order — the
    /// 0x20 query-name encoding. Non-letter bytes pass through.
    pub fn with_case<F: FnMut() -> bool>(&self, mut coin: F) -> Name {
        let wire = self
            .wire
            .iter()
            .map(|&b| match b.is_ascii_alphabetic() {
                true if coin() => b.to_ascii_uppercase(),
                true => b.to_ascii_lowercase(),
                false => b,
            })
            .collect();
        Name { wire }
    }

    /// Creates a child name by prepending `label`.
    ///
    /// # Errors
    ///
    /// Fails when the label or the resulting name exceeds RFC limits.
    pub fn child<L: AsRef<[u8]>>(&self, label: L) -> WireResult<Name> {
        Name::prepend(label.as_ref(), &self.wire)
    }

    /// Concatenates `self` with `suffix` (self's labels first).
    ///
    /// # Errors
    ///
    /// Fails when the combined name exceeds the 255-byte wire limit.
    pub fn concat(&self, suffix: &Name) -> WireResult<Name> {
        Name {
            wire: [self.wire.as_slice(), &suffix.wire].concat(),
        }
        .checked()
    }

    /// Replaces the leftmost label with `label` (used by the guard to swap a
    /// real NS label for a fabricated cookie label and back).
    ///
    /// # Errors
    ///
    /// Fails on RFC limit violations; on the root name this is equivalent to
    /// [`Name::child`].
    pub fn with_first_label<L: AsRef<[u8]>>(&self, label: L) -> WireResult<Name> {
        Name::prepend(label.as_ref(), self.tail(1))
    }

    /// Encodes the name without compression, appending to `buf`.
    pub fn encode_uncompressed(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.wire);
        buf.push(0);
    }

    /// Decodes a name starting at `offset` in `msg`, following compression
    /// pointers. Returns the name and the offset just past the name's
    /// in-place encoding (pointers do not advance past their two bytes).
    ///
    /// # Errors
    ///
    /// Rejects forward-pointing or looping pointers, reserved label types,
    /// over-long labels/names and truncated input.
    pub fn decode(msg: &[u8], offset: usize) -> WireResult<(Name, usize)> {
        let (name, seen) = Name::read::<true>(msg, offset)?;
        Ok((name.unwrap_or_default(), seen.end))
    }

    /// The one walk over an encoded name — every rule a name must pass is
    /// here. With `KEEP` the labels are gathered into a [`Name`]; without,
    /// the same checks run and only [`Walked`] comes back.
    #[inline]
    pub(crate) fn read<const KEEP: bool>(
        msg: &[u8],
        offset: usize,
    ) -> WireResult<(Option<Name>, Walked)> {
        // Labels gather on the stack so the name costs one exact-size
        // allocation; running out of room here is the 255-byte limit.
        let mut wire = [0u8; MAX_NAME_LEN - 1];
        let mut seen = Walked {
            end: offset,
            len: 0,
            first_label: offset,
            literal: true,
        };
        let mut pos = offset;
        let mut jumps = 0usize;

        loop {
            let len_octet = *msg.get(pos).ok_or(WireError::UnexpectedEnd { offset: pos })?;
            match len_octet {
                0 => {
                    if seen.literal {
                        seen.end = pos + 1;
                    }
                    let name = KEEP.then(|| Name {
                        wire: wire.get(..seen.len).unwrap_or_default().to_vec(),
                    });
                    return Ok((name, seen));
                }
                l if l & 0xC0 == 0xC0 => {
                    let next = *msg
                        .get(pos + 1)
                        .ok_or(WireError::UnexpectedEnd { offset: pos + 1 })?;
                    let target = (((l & 0x3F) as usize) << 8) | next as usize;
                    if target >= pos {
                        return Err(WireError::BadPointer { target, at: pos });
                    }
                    jumps += 1;
                    if jumps > MAX_POINTER_JUMPS {
                        return Err(WireError::PointerLoop);
                    }
                    if seen.literal {
                        seen.literal = false;
                        seen.end = pos + 2;
                    }
                    pos = target;
                }
                l if l & 0xC0 != 0 => return Err(WireError::BadLabelType(l)),
                l => {
                    // Length octet and label bytes are copied as one piece:
                    // the wire image is the representation.
                    let end = pos + 1 + l as usize;
                    let label = msg
                        .get(pos..end)
                        .ok_or(WireError::UnexpectedEnd { offset: end })?;
                    let grown = seen.len + label.len();
                    if grown >= MAX_NAME_LEN {
                        return Err(WireError::NameTooLong(grown + 1));
                    }
                    if KEEP {
                        if let Some(slot) = wire.get_mut(seen.len..grown) {
                            slot.copy_from_slice(label);
                        }
                    }
                    if seen.len == 0 {
                        seen.first_label = pos;
                    }
                    seen.len = grown;
                    pos = end;
                }
            }
        }
    }
}

/// What [`Name::read`] learns about a name besides its labels.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Walked {
    /// Offset just past the name's in-place encoding.
    pub end: usize,
    /// Length of the labels with their length octets, root octet excluded.
    pub len: usize,
    /// Offset of the first label's length octet (when `len > 0`).
    pub first_label: usize,
    /// No compression pointer: the name is spelled out where it stands.
    pub literal: bool,
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        self.wire.eq_ignore_ascii_case(&other.wire)
    }
}

impl Eq for Name {}

impl std::hash::Hash for Name {
    /// Hashes the case-folded wire form, root octet included (so the hashed
    /// bytes are prefix-free), keeping `Hash` consistent with the
    /// case-insensitive `Eq`. Folds on the stack and writes once.
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        let mut folded = [0u8; MAX_NAME_LEN];
        for (f, b) in folded.iter_mut().zip(&self.wire) {
            *f = b.to_ascii_lowercase();
        }
        state.write(folded.get(..self.wire_len()).unwrap_or(&folded));
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    /// Canonical DNS ordering: compare label sequences right-to-left
    /// (hierarchical order) with ASCII case folded, so a zone sorts before
    /// its children and ordering agrees with the case-insensitive `Eq`.
    /// Only zone building orders names, so this takes the plain route and
    /// allocates its keys.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let key = |name: &Name| {
            let mut labels: Vec<_> = name.labels().map(<[u8]>::to_ascii_lowercase).collect();
            labels.reverse();
            labels
        };
        key(self).cmp(&key(other))
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_root() {
            return f.write_str(".");
        }
        for l in self.labels() {
            for &b in l {
                // Escape dots and non-printables inside labels per RFC 4343.
                match b {
                    b'.' => f.write_str("\\.")?,
                    b'\\' => f.write_str("\\\\")?,
                    0x21..=0x7E => write!(f, "{}", b as char)?,
                    other => write!(f, "\\{:03}", other)?,
                }
            }
            f.write_str(".")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Name({self})")
    }
}

impl FromStr for Name {
    type Err = WireError;

    /// Parses dotted text (`www.foo.com`, trailing dot optional, `.` or empty
    /// string for the root). Supports `\.`/`\\`/`\DDD` escapes.
    fn from_str(s: &str) -> WireResult<Self> {
        if s.is_empty() || s == "." {
            return Ok(Name::root());
        }
        let s = s.strip_suffix('.').unwrap_or(s);
        let mut name = Name::root();
        let mut current: Vec<u8> = Vec::new();
        let mut chars = s.bytes();
        while let Some(b) = chars.next() {
            match b {
                b'\\' => match chars.next() {
                    Some(d @ b'0'..=b'9') => {
                        let d2 = chars
                            .next()
                            .filter(u8::is_ascii_digit)
                            .ok_or_else(|| WireError::InvalidText(s.into()))?;
                        let d3 = chars
                            .next()
                            .filter(u8::is_ascii_digit)
                            .ok_or_else(|| WireError::InvalidText(s.into()))?;
                        let value = (d - b'0') as u16 * 100 + (d2 - b'0') as u16 * 10 + (d3 - b'0') as u16;
                        if value > 255 {
                            return Err(WireError::InvalidText(s.into()));
                        }
                        current.push(value as u8);
                    }
                    Some(escaped) => current.push(escaped),
                    None => return Err(WireError::InvalidText(s.into())),
                },
                // Empty labels (consecutive dots) are rejected by push_label.
                b'.' => {
                    name.push_label(&current)?;
                    current.clear();
                }
                other => current.push(other),
            }
        }
        name.push_label(&current)?;
        name.checked()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display() {
        assert_eq!(n("www.foo.com").to_string(), "www.foo.com.");
        assert_eq!(n("www.foo.com.").to_string(), "www.foo.com.");
        assert_eq!(n(".").to_string(), ".");
        assert_eq!(n("").to_string(), ".");
        assert_eq!(n("COM").to_string(), "COM.", "case is preserved for display");
    }

    #[test]
    fn case_insensitive_equality() {
        assert_eq!(n("WWW.Foo.Com"), n("www.foo.com"));
        let mut set = std::collections::HashSet::new();
        set.insert(n("Example.ORG"));
        assert!(set.contains(&n("example.org")));
    }

    #[test]
    fn case_sensitive_compare_and_0x20() {
        assert!(n("www.foo.com").eq_case_sensitive(&n("www.foo.com")));
        assert!(!n("wWw.foo.com").eq_case_sensitive(&n("www.foo.com")));
        // 0x20: flip every other letter; round-trips through the wire.
        let mut i = 0u32;
        let mixed = n("www.foo.com").with_case(|| {
            i += 1;
            i.is_multiple_of(2)
        });
        assert_eq!(mixed, n("www.foo.com"), "still equal case-insensitively");
        assert!(!mixed.eq_case_sensitive(&n("www.foo.com")));
        let mut buf = Vec::new();
        mixed.encode_uncompressed(&mut buf);
        let (decoded, _) = Name::decode(&buf, 0).unwrap();
        assert!(decoded.eq_case_sensitive(&mixed), "wire preserves case");
        assert!(n("WWW.FOO.COM").is_subdomain_of(&n("foo.com")));
    }

    #[test]
    fn hash_and_ord_fold_case() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |name: &Name| {
            let mut s = DefaultHasher::new();
            name.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&n("WWW.Foo.Com")), h(&n("www.foo.com")));
        assert_eq!(n("A.COM").cmp(&n("a.com")), std::cmp::Ordering::Equal);
        assert!(n("A.com") < n("b.COM"));
    }

    #[test]
    fn length_octets_are_never_letters() {
        // Whole-buffer case folding is sound only because no length octet
        // is an ASCII letter: 0x41–0x5A would need a label over the limit.
        const { assert!(MAX_LABEL_LEN < b'A' as usize) };
        for len in b'A'..=b'Z' {
            assert!(Name::from_labels([vec![b'x'; len as usize]]).is_err());
            assert!(matches!(Name::decode(&[len, 0], 0), Err(WireError::BadLabelType(_))));
        }
        // Same bytes, different label boundaries: "\x01a" vs "a" under "a".
        let one = Name::from_labels([&b"\x01a"[..], b"a"]).unwrap();
        let two = Name::from_labels([&b"a"[..], b"a", b"a"]).unwrap();
        assert_ne!(one, two);
        assert!(!one.is_subdomain_of(&n("a.a")), "suffix must start on a label boundary");
        assert!(two.is_subdomain_of(&n("A.a")));
    }

    #[test]
    fn rejects_empty_label() {
        assert!("a..b".parse::<Name>().is_err());
        assert!(Name::from_labels(["a", "", "b"]).is_err());
    }

    #[test]
    fn rejects_long_label_and_name() {
        let long_label = "x".repeat(64);
        assert!(long_label.parse::<Name>().is_err());
        let ok_label = "x".repeat(63);
        assert!(ok_label.parse::<Name>().is_ok());

        let long_name = (0..32).map(|_| "abcdefg").collect::<Vec<_>>().join(".");
        assert!(long_name.parse::<Name>().is_err());
    }

    #[test]
    fn hierarchy_ops() {
        let name = n("www.foo.com");
        assert_eq!(name.parent(), n("foo.com"));
        assert_eq!(name.parent().parent(), n("com"));
        assert_eq!(name.parent().parent().parent(), Name::root());
        assert_eq!(Name::root().parent(), Name::root());

        assert!(name.is_subdomain_of(&n("foo.com")));
        assert!(name.is_subdomain_of(&n("com")));
        assert!(name.is_subdomain_of(&Name::root()));
        assert!(name.is_subdomain_of(&name));
        assert!(!n("foo.com").is_subdomain_of(&name));
        assert!(!n("barfoo.com").is_subdomain_of(&n("foo.com")));

        assert_eq!(name.suffix(2), n("foo.com"));
        assert_eq!(name.suffix(0), Name::root());
        assert_eq!(name.suffix(99), name);
    }

    #[test]
    fn child_and_concat() {
        assert_eq!(n("foo.com").child("www").unwrap(), n("www.foo.com"));
        assert_eq!(Name::root().child("com").unwrap(), n("com"));
        assert_eq!(n("www").concat(&n("foo.com")).unwrap(), n("www.foo.com"));
        assert_eq!(n("a.b").concat(&Name::root()).unwrap(), n("a.b"));
    }

    #[test]
    fn with_first_label_swaps() {
        let original = n("ns1.foo.com");
        let fabricated = original.with_first_label("PRdeadbeef").unwrap();
        assert_eq!(fabricated, n("PRdeadbeef.foo.com"));
        assert_eq!(fabricated.with_first_label("ns1").unwrap(), original);
        assert_eq!(Name::root().with_first_label("x").unwrap(), n("x"));
    }

    #[test]
    fn wire_round_trip_uncompressed() {
        for s in ["www.foo.com", "a", ".", "x.y.z.w.v.u"] {
            let name = n(s);
            let mut buf = Vec::new();
            name.encode_uncompressed(&mut buf);
            let (decoded, used) = Name::decode(&buf, 0).unwrap();
            assert_eq!(decoded, name);
            assert_eq!(used, buf.len());
        }
    }

    #[test]
    fn wire_len_matches_encoding() {
        for s in ["www.foo.com", "a", "."] {
            let name = n(s);
            let mut buf = Vec::new();
            name.encode_uncompressed(&mut buf);
            assert_eq!(buf.len(), name.wire_len());
        }
    }

    #[test]
    fn decode_follows_pointer() {
        // "foo.com" at offset 0; "www" + pointer to offset 0 at offset 9.
        let mut buf = Vec::new();
        n("foo.com").encode_uncompressed(&mut buf);
        let ptr_at = buf.len();
        buf.push(3);
        buf.extend_from_slice(b"www");
        buf.push(0xC0);
        buf.push(0);
        let (decoded, used) = Name::decode(&buf, ptr_at).unwrap();
        assert_eq!(decoded, n("www.foo.com"));
        assert_eq!(used, buf.len());
    }

    #[test]
    fn decode_rejects_forward_pointer() {
        let buf = [0xC0u8, 0x02, 0x00];
        assert!(matches!(
            Name::decode(&buf, 0),
            Err(WireError::BadPointer { .. })
        ));
    }

    #[test]
    fn decode_rejects_self_pointer() {
        let buf = [0xC0u8, 0x00];
        assert!(matches!(
            Name::decode(&buf, 0),
            Err(WireError::BadPointer { .. })
        ));
    }

    #[test]
    fn decode_rejects_reserved_label_types() {
        assert!(matches!(Name::decode(&[0x40, 0x00], 0), Err(WireError::BadLabelType(_))));
        assert!(matches!(Name::decode(&[0x80, 0x00], 0), Err(WireError::BadLabelType(_))));
    }

    #[test]
    fn decode_rejects_truncation() {
        assert!(matches!(Name::decode(&[], 0), Err(WireError::UnexpectedEnd { .. })));
        assert!(matches!(Name::decode(&[3, b'w'], 0), Err(WireError::UnexpectedEnd { .. })));
        assert!(matches!(Name::decode(&[0xC0], 0), Err(WireError::UnexpectedEnd { .. })));
    }

    #[test]
    fn escapes_in_display_and_parse() {
        let name = Name::from_labels([b"a.b".as_slice(), b"c".as_slice()]).unwrap();
        let text = name.to_string();
        assert_eq!(text, "a\\.b.c.");
        assert_eq!(text.parse::<Name>().unwrap(), name);

        let weird = Name::from_labels([&[0x07u8, b'x'][..]]).unwrap();
        let round = weird.to_string().parse::<Name>().unwrap();
        assert_eq!(round, weird);
    }

    #[test]
    fn canonical_ordering_groups_zones() {
        let mut names = vec![n("b.com"), n("a.com"), n("com"), n("www.a.com"), n("org")];
        names.sort();
        assert_eq!(
            names,
            vec![n("com"), n("a.com"), n("www.a.com"), n("b.com"), n("org")]
        );
    }

    #[test]
    fn max_pointer_jumps_bounded() {
        // Build a chain of pointers each pointing 2 bytes back; 100 jumps.
        let mut buf = vec![0u8]; // root name at offset 0
        for i in 0..100u16 {
            // Each pointer points to the previous pointer (or the root).
            let target = if i == 0 { 0 } else { 1 + (i - 1) * 2 };
            buf.push(0xC0 | ((target >> 8) as u8));
            buf.push((target & 0xFF) as u8);
        }
        let start = buf.len() - 2;
        assert!(matches!(Name::decode(&buf, start), Err(WireError::PointerLoop)));
    }
}
