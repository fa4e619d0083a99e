//! RFC 1035 master-file ("zone file") parsing: the standard text format
//! BIND zones are written in, so guarded deployments can be configured the
//! same way the paper's testbed was.
//!
//! Supported subset: `$ORIGIN` and `$TTL` directives, `@` for the origin,
//! relative and absolute names, per-record TTLs, the `IN` class, `;`
//! comments, parenthesised multi-line RDATA (as customary for SOA), and the
//! record types A, AAAA, NS, CNAME, PTR, MX, TXT and SOA.
//!
//! # Examples
//!
//! ```
//! use server::zonefile::parse_zone;
//!
//! let zone = parse_zone(r#"
//! $ORIGIN foo.com.
//! $TTL 3600
//! @       IN SOA ns1.foo.com. hostmaster.foo.com. (2006010101 7200 3600 1209600 300)
//! @       IN NS  ns1.foo.com.
//! ns1     IN A   192.0.2.53
//! www     IN A   192.0.2.80
//! "#)?;
//! assert_eq!(zone.apex().to_string(), "foo.com.");
//! # Ok::<(), server::zonefile::ZoneParseError>(())
//! ```

use crate::zone::Zone;
use dnswire::name::Name;
use dnswire::rdata::{RData, Soa};
use dnswire::record::Record;
use dnswire::types::RrType;
use std::collections::BTreeMap;
use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};

/// Errors from zone-file parsing, with 1-based line numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZoneParseError {
    /// Line the error was detected on.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ZoneParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "zone file line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ZoneParseError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ZoneParseError> {
    Err(ZoneParseError {
        line,
        message: message.into(),
    })
}

/// One logical entry (after joining parenthesised continuations).
struct Entry {
    line: usize,
    tokens: Vec<String>,
    /// True when the raw line started with whitespace (owner omitted).
    inherits_owner: bool,
}

/// Splits the text into logical entries: strips comments, joins
/// parenthesised groups, tokenises (quoted strings kept intact).
fn tokenize(text: &str) -> Result<Vec<Entry>, ZoneParseError> {
    let mut entries = Vec::new();
    let mut pending: Option<Entry> = None;
    let mut depth = 0usize;

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let inherits_owner = raw.starts_with([' ', '\t']);
        let mut tokens: Vec<String> = Vec::new();
        let mut chars = raw.chars().peekable();
        let mut current = String::new();
        let mut in_quote = false;

        while let Some(c) = chars.next() {
            match c {
                '"' => {
                    if in_quote {
                        tokens.push(std::mem::take(&mut current));
                        in_quote = false;
                    } else {
                        if !current.is_empty() {
                            tokens.push(std::mem::take(&mut current));
                        }
                        in_quote = true;
                        current.push('\u{0}'); // marker: quoted token
                    }
                }
                '\\' if in_quote => {
                    if let Some(escaped) = chars.next() {
                        current.push(escaped);
                    }
                }
                ';' if !in_quote => break, // comment
                '(' if !in_quote => {
                    if !current.is_empty() {
                        tokens.push(std::mem::take(&mut current));
                    }
                    depth += 1;
                }
                ')' if !in_quote => {
                    if !current.is_empty() {
                        tokens.push(std::mem::take(&mut current));
                    }
                    if depth == 0 {
                        return err(line_no, "unbalanced ')'");
                    }
                    depth -= 1;
                }
                c if c.is_whitespace() && !in_quote => {
                    if !current.is_empty() {
                        tokens.push(std::mem::take(&mut current));
                    }
                }
                c => current.push(c),
            }
        }
        if in_quote {
            return err(line_no, "unterminated quoted string");
        }
        if !current.is_empty() {
            tokens.push(current);
        }

        match pending.as_mut() {
            Some(p) => {
                p.tokens.extend(tokens);
                if depth == 0 {
                    entries.push(pending.take().expect("pending set"));
                }
            }
            None => {
                if tokens.is_empty() {
                    continue;
                }
                let entry = Entry {
                    line: line_no,
                    tokens,
                    inherits_owner,
                };
                if depth > 0 {
                    pending = Some(entry);
                } else {
                    entries.push(entry);
                }
            }
        }
    }
    if depth > 0 {
        return err(text.lines().count(), "unbalanced '(' at end of file");
    }
    Ok(entries)
}

/// A name token resolved against the origin: absolute if it ends with `.`,
/// `@` for the origin, otherwise relative.
fn resolve_name(token: &str, origin: &Name, line: usize) -> Result<Name, ZoneParseError> {
    if token == "@" {
        return Ok(origin.clone());
    }
    if let Some(absolute) = token.strip_suffix('.') {
        return absolute
            .parse()
            .or_else(|_| if absolute.is_empty() { Ok(Name::root()) } else { Err(()) })
            .or_else(|_| err(line, format!("bad name {token:?}")));
    }
    let relative: Name = token
        .parse()
        .map_err(|_| ZoneParseError {
            line,
            message: format!("bad name {token:?}"),
        })?;
    relative.concat(origin).map_err(|_| ZoneParseError {
        line,
        message: format!("name {token:?} too long under origin {origin}"),
    })
}

fn parse_u32(token: &str, line: usize, what: &str) -> Result<u32, ZoneParseError> {
    token
        .parse()
        .map_err(|_| ZoneParseError {
            line,
            message: format!("bad {what} {token:?}"),
        })
}

/// Parses a complete zone from master-file text.
///
/// The zone apex is the `$ORIGIN` (required, either as a directive or
/// implied by the SOA owner). Exactly one SOA must be present. NS records
/// for names *below* the apex become delegations.
///
/// # Errors
///
/// Returns a [`ZoneParseError`] with the offending line on any syntax or
/// semantic problem.
pub fn parse_zone(text: &str) -> Result<Zone, ZoneParseError> {
    let entries = tokenize(text)?;
    let mut origin: Option<Name> = None;
    let mut default_ttl: u32 = 3600;
    let mut last_owner: Option<Name> = None;
    let mut records: Vec<Record> = Vec::new();
    let mut soa: Option<Record> = None;

    for entry in &entries {
        let line = entry.line;
        let toks: Vec<&str> = entry.tokens.iter().map(|s| s.as_str()).collect();
        match toks[0] {
            "$ORIGIN" => {
                let [_, name] = toks.as_slice() else {
                    return err(line, "$ORIGIN needs exactly one argument");
                };
                if !name.ends_with('.') {
                    return err(line, "$ORIGIN must be absolute (end with '.')");
                }
                origin = Some(resolve_name(name, &Name::root(), line)?);
                continue;
            }
            "$TTL" => {
                let [_, ttl] = toks.as_slice() else {
                    return err(line, "$TTL needs exactly one argument");
                };
                default_ttl = parse_u32(ttl, line, "TTL")?;
                continue;
            }
            d if d.starts_with('$') => return err(line, format!("unsupported directive {d}")),
            _ => {}
        }

        let Some(origin_name) = origin.clone() else {
            return err(line, "record before $ORIGIN");
        };

        // Owner: explicit unless the line started with whitespace.
        let mut rest = &toks[..];
        let owner = if entry.inherits_owner {
            last_owner
                .clone()
                .ok_or_else(|| ZoneParseError {
                    line,
                    message: "owner omitted with no previous owner".into(),
                })?
        } else {
            let owner = resolve_name(toks[0], &origin_name, line)?;
            rest = &rest[1..];
            owner
        };
        last_owner = Some(owner.clone());

        // Optional TTL and/or class, in either order.
        let mut ttl = default_ttl;
        let mut i = 0;
        while i < rest.len() {
            let t = rest[i];
            if t.eq_ignore_ascii_case("IN") {
                i += 1;
            } else if t.chars().all(|c| c.is_ascii_digit()) && i + 1 < rest.len() {
                ttl = parse_u32(t, line, "TTL")?;
                i += 1;
            } else {
                break;
            }
        }
        let rest = &rest[i..];
        let [rtype_tok, rdata @ ..] = rest else {
            return err(line, "missing record type");
        };

        let unquote = |s: &str| s.strip_prefix('\u{0}').map(str::to_owned);
        let rdata_owned: Vec<String> = rdata
            .iter()
            .map(|s| unquote(s).unwrap_or_else(|| s.to_string()))
            .collect();
        let rd: Vec<&str> = rdata_owned.iter().map(|s| s.as_str()).collect();

        let record = match rtype_tok.to_ascii_uppercase().as_str() {
            "A" => {
                let [addr] = rd.as_slice() else {
                    return err(line, "A needs one address");
                };
                let ip: Ipv4Addr = addr
                    .parse()
                    .map_err(|_| ZoneParseError {
                        line,
                        message: format!("bad IPv4 address {addr:?}"),
                    })?;
                Record::a(owner, ip, ttl)
            }
            "AAAA" => {
                let [addr] = rd.as_slice() else {
                    return err(line, "AAAA needs one address");
                };
                let ip: Ipv6Addr = addr
                    .parse()
                    .map_err(|_| ZoneParseError {
                        line,
                        message: format!("bad IPv6 address {addr:?}"),
                    })?;
                Record::new(owner, ttl, RData::Aaaa(ip))
            }
            "NS" => {
                let [target] = rd.as_slice() else {
                    return err(line, "NS needs one name");
                };
                Record::ns(owner, resolve_name(target, &origin_name, line)?, ttl)
            }
            "CNAME" => {
                let [target] = rd.as_slice() else {
                    return err(line, "CNAME needs one name");
                };
                Record::new(
                    owner,
                    ttl,
                    RData::Cname(resolve_name(target, &origin_name, line)?),
                )
            }
            "PTR" => {
                let [target] = rd.as_slice() else {
                    return err(line, "PTR needs one name");
                };
                Record::new(owner, ttl, RData::Ptr(resolve_name(target, &origin_name, line)?))
            }
            "MX" => {
                let [pref, exchange] = rd.as_slice() else {
                    return err(line, "MX needs preference and exchange");
                };
                Record::new(
                    owner,
                    ttl,
                    RData::Mx {
                        preference: parse_u32(pref, line, "MX preference")? as u16,
                        exchange: resolve_name(exchange, &origin_name, line)?,
                    },
                )
            }
            "TXT" => {
                if rd.is_empty() {
                    return err(line, "TXT needs at least one string");
                }
                Record::new(
                    owner,
                    ttl,
                    RData::Txt(rd.iter().map(|s| s.as_bytes().to_vec()).collect()),
                )
            }
            "SOA" => {
                let [mname, rname, serial, refresh, retry, expire, minimum] = rd.as_slice() else {
                    return err(line, "SOA needs 7 fields");
                };
                let record = Record::new(
                    owner.clone(),
                    ttl,
                    RData::Soa(Soa {
                        mname: resolve_name(mname, &origin_name, line)?,
                        rname: resolve_name(rname, &origin_name, line)?,
                        serial: parse_u32(serial, line, "serial")?,
                        refresh: parse_u32(refresh, line, "refresh")?,
                        retry: parse_u32(retry, line, "retry")?,
                        expire: parse_u32(expire, line, "expire")?,
                        minimum: parse_u32(minimum, line, "minimum")?,
                    }),
                );
                if soa.is_some() {
                    return err(line, "duplicate SOA");
                }
                if owner != origin_name {
                    return err(line, "SOA owner must be the zone origin");
                }
                soa = Some(record);
                continue;
            }
            other => return err(line, format!("unsupported record type {other}")),
        };
        records.push(record);
    }

    let Some(origin) = origin else {
        return err(1, "no $ORIGIN in zone file");
    };
    let Some(soa) = soa else {
        return err(1, "zone has no SOA record");
    };
    Ok(assemble(origin, soa, records))
}

/// Builds the [`Zone`], classifying NS records below the apex as
/// delegations.
fn assemble(apex: Name, soa: Record, records: Vec<Record>) -> Zone {
    let mut delegations: BTreeMap<Name, Vec<Record>> = BTreeMap::new();
    let (cuts, plain): (Vec<Record>, Vec<Record>) =
        records.into_iter().partition(|r| r.rtype == RrType::Ns && r.name != apex);
    for r in cuts {
        delegations.entry(r.name.clone()).or_default().push(r);
    }
    Zone::from_parts(apex, soa, plain, delegations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authoritative::{AnswerKind, Authority};
    use dnswire::message::Message;

    const FOO_ZONE: &str = r#"
; the foo.com zone, as the paper's testbed would configure it
$ORIGIN foo.com.
$TTL 3600
@        IN SOA ns1.foo.com. hostmaster.foo.com. (
             2006010101 ; serial
             7200       ; refresh
             3600       ; retry
             1209600    ; expire
             300 )      ; minimum
@        IN NS   ns1
ns1      IN A    192.0.2.53
www      600 IN A 192.0.2.80
         IN A    192.0.2.81
alias    IN CNAME www
mail     IN MX   10 mx1.foo.com.
mx1      IN A    192.0.2.25
text     IN TXT  "hello world" "second string"
v6       IN AAAA 2001:db8::1
child    IN NS   ns.child.foo.com.
ns.child IN A    192.0.2.99
"#;

    #[test]
    fn parses_full_zone() {
        let zone = parse_zone(FOO_ZONE).unwrap();
        assert_eq!(zone.apex().to_string(), "foo.com.");
        let www: Name = "www.foo.com".parse().unwrap();
        let a = zone.lookup(&www, RrType::A).unwrap();
        assert_eq!(a.len(), 2, "owner-inherited record joins the RRset");
        assert_eq!(a[0].ttl, 600, "explicit TTL honoured");
        assert!(zone.lookup(&"v6.foo.com".parse().unwrap(), RrType::Aaaa).is_some());
        let txt = zone.lookup(&"text.foo.com".parse().unwrap(), RrType::Txt).unwrap();
        assert_eq!(
            txt[0].rdata,
            RData::Txt(vec![b"hello world".to_vec(), b"second string".to_vec()])
        );
    }

    #[test]
    fn child_ns_becomes_delegation() {
        let zone = parse_zone(FOO_ZONE).unwrap();
        let (cut, ns) = zone.delegation_for(&"x.child.foo.com".parse().unwrap()).unwrap();
        assert_eq!(cut.to_string(), "child.foo.com.");
        assert_eq!(ns.len(), 1);
        // Apex NS is not a delegation.
        assert!(zone.delegation_for(&"www.foo.com".parse().unwrap()).is_none());
    }

    #[test]
    fn parsed_zone_answers_queries() {
        let zone = parse_zone(FOO_ZONE).unwrap();
        let authority = Authority::new(vec![zone]);
        let q = Message::iterative_query(1, "alias.foo.com".parse().unwrap(), RrType::A);
        let (resp, kind) = authority.answer(&q);
        assert_eq!(kind, AnswerKind::Authoritative);
        assert!(matches!(resp.answers[0].rdata, RData::Cname(_)));
        let q = Message::iterative_query(2, "deep.child.foo.com".parse().unwrap(), RrType::A);
        let (_, kind) = authority.answer(&q);
        assert_eq!(kind, AnswerKind::Referral);
    }

    #[test]
    fn soa_multiline_parentheses() {
        let zone = parse_zone(FOO_ZONE).unwrap();
        let RData::Soa(soa) = &zone.soa().rdata else {
            panic!("not a SOA");
        };
        assert_eq!(soa.serial, 2006010101);
        assert_eq!(soa.minimum, 300);
    }

    #[test]
    fn error_line_numbers() {
        let e = parse_zone("$ORIGIN foo.com.\nbad IN A not-an-ip\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("IPv4"));

        let e = parse_zone("www IN A 1.2.3.4\n").unwrap_err();
        assert!(e.message.contains("$ORIGIN"));

        let e = parse_zone("$ORIGIN foo.com.\n@ IN SOA a. b. (1 2 3 4 5)\n@ IN SOA a. b. (1 2 3 4 5)\n").unwrap_err();
        assert!(e.message.contains("duplicate SOA"));
    }

    #[test]
    fn missing_soa_rejected() {
        let e = parse_zone("$ORIGIN foo.com.\nwww IN A 1.2.3.4\n").unwrap_err();
        assert!(e.message.contains("no SOA"));
    }

    #[test]
    fn relative_origin_rejected() {
        let e = parse_zone("$ORIGIN foo.com\n").unwrap_err();
        assert!(e.message.contains("absolute"));
    }

    #[test]
    fn unbalanced_parens_rejected() {
        let e = parse_zone("$ORIGIN f.\n@ IN SOA a. b. (1 2 3 4 5\n").unwrap_err();
        assert!(e.message.contains("unbalanced"));
        let e = parse_zone("$ORIGIN f.\n@ IN A ) 1.2.3.4\n").unwrap_err();
        assert!(e.message.contains("unbalanced"));
    }

    #[test]
    fn quoted_txt_with_semicolon_and_escape() {
        let text = "$ORIGIN f.\n@ IN SOA a. b. (1 2 3 4 5)\nt IN TXT \"semi;colon \\\"q\\\"\"\n";
        let zone = parse_zone(text).unwrap();
        let txt = zone.lookup(&"t.f".parse().unwrap(), RrType::Txt).unwrap();
        assert_eq!(txt[0].rdata, RData::Txt(vec![b"semi;colon \"q\"".to_vec()]));
    }

    #[test]
    fn round_trips_through_authority_with_guard_hierarchy_style() {
        // A root zone written as a file, delegating com — the setup the
        // guard classifier consumes.
        let root = parse_zone(
            "$ORIGIN .\n\
             @ IN SOA a.root-servers.net. nstld.verisign-grs.com. (1 2 3 4 5)\n\
             @ IN NS a.root-servers.net.\n\
             a.root-servers.net. IN A 198.41.0.4\n\
             com. IN NS a.gtld-servers.net.\n\
             a.gtld-servers.net. IN A 192.5.6.30\n",
        )
        .unwrap();
        assert!(root.delegation_for(&"www.foo.com".parse().unwrap()).is_some());
    }
}
