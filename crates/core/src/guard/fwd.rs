//! The forward table: what the guard keeps about each query it has sent to
//! the ANS, under the guard's sequential 16-bit key for it — and
//! [`WireIds`], the keyed permutation of that key the query leaves with.
//!
//! The key *is* the index: a 65 536-entry array maps it to a slot of a slab
//! that holds the live entries, and the slab's slots are threaded oldest
//! first. Look-up, insertion and removal hash nothing, allocate nothing
//! once the slab has grown to the most entries ever live at once, and work
//! for any key allocator. Invariants:
//!
//! * `index[id]` is `slot + 1` of the one live entry under `id`, or 0;
//! * every live slot is on the list exactly once, every other slot is on
//!   the free chain, and `bytes` is the sum of the live entries'
//!   [`Forwarded::approx_bytes`];
//! * along the list `created` never decreases (an insertion walks back from
//!   the tail past younger entries — none, while the driver's clock runs
//!   forward), so the head is both the entry to evict first and the first
//!   to pass any age.
//!
//! An `index` subscript is a `u16` into 65 536 entries, a `slab` subscript
//! a slot the index, the list or the free chain holds — by the invariants
//! above, inside the slab — and a round-table subscript a `u8` into 256
//! entries. That is what each `lint: L1` means.

use crate::checkpoint::RewriteState;
use dnswire::name::Name;
use dnswire::question;
use dnswire::types::{RrClass, RrType};
use guardhash::cookie::SecretKey;
use guardhash::siphash::siphash24;
use netsim::packet::Endpoint;
use netsim::time::SimTime;

#[derive(Debug)]
pub(super) enum Rewrite {
    /// One of the rewrites that outlive a restart and are replicated to a
    /// standby, kept as their serializable image.
    Durable(RewriteState),
    /// A health probe: the response only proves liveness, nothing is
    /// relayed.
    Probe { question: u64 },
    /// TCP proxy relay (token routes back to the connection).
    TcpRelay { token: u64, question: u64 },
}

#[derive(Debug)]
pub(super) struct Forwarded {
    pub(super) requester: Endpoint,
    pub(super) reply_from: Endpoint,
    pub(super) orig_txid: u16,
    pub(super) rewrite: Rewrite,
    pub(super) created: SimTime,
    /// Journey correlation id: the relay of the ANS reply inherits the
    /// qid of the verify/forward that caused it, which is what lets the
    /// assembler stitch across the txid rewrite.
    pub(super) qid: u64,
}

// The byte-bounded forward table charges `size_of::<Forwarded>()` per entry,
// so a fatter entry shifts its evictions and the `guard.table_bytes` of the
// committed `BENCH_obs.json`. The `question` digests ride in the room the
// smaller `Rewrite` variants leave under `Fabricated`.
const _: () = assert!(std::mem::size_of::<Forwarded>() == 88);

impl Forwarded {
    /// Approximate heap footprint, for the forward-table byte bound.
    pub(super) fn approx_bytes(&self) -> usize {
        let heap = match &self.rewrite {
            Rewrite::Durable(RewriteState::ReferralCookie { cookie_question, .. }) => {
                cookie_question.name.wire_len()
            }
            Rewrite::Durable(RewriteState::Fabricated {
                cookie_question,
                original,
            }) => cookie_question.name.wire_len() + original.wire_len(),
            _ => 0,
        };
        std::mem::size_of::<Self>() + heap
    }

    /// The [`question::digest`] of what was forwarded: an ANS response is
    /// this entry's answer only if it asks the same.
    pub(super) fn question(&self) -> u64 {
        match &self.rewrite {
            Rewrite::Durable(RewriteState::Passthrough { question })
            | Rewrite::Durable(RewriteState::ReferralCookie { question, .. })
            | Rewrite::Probe { question }
            | Rewrite::TcpRelay { question, .. } => *question,
            Rewrite::Durable(RewriteState::Fabricated { original, .. }) => {
                restored_question(original)
            }
        }
    }
}

/// The digest of the question the DNS-based scheme forwards for a restored
/// name: its address.
pub(super) fn restored_question(original: &Name) -> u64 {
    question::digest(original, RrType::A, RrClass::In)
}

/// No slot: the end of a chain.
const NIL: u32 = u32::MAX;

#[derive(Debug)]
struct Slot {
    /// `None` on the free chain.
    entry: Option<Forwarded>,
    txid: u16,
    /// Towards the head (older); unused on the free chain.
    prev: u32,
    /// Towards the tail (younger), or down the free chain.
    next: u32,
}

#[derive(Debug)]
pub(super) struct FwdTable {
    index: Vec<u32>,
    slab: Vec<Slot>,
    free: u32,
    head: u32,
    tail: u32,
    bytes: usize,
}

impl FwdTable {
    /// An empty table. The index is allocated zeroed, so a page of it costs
    /// nothing until an id on it is used.
    pub(super) fn new() -> FwdTable {
        FwdTable {
            index: vec![0; 1 << 16],
            slab: Vec::new(),
            free: NIL,
            head: NIL,
            tail: NIL,
            bytes: 0,
        }
    }

    /// The sum of the live entries' [`Forwarded::approx_bytes`].
    pub(super) fn bytes(&self) -> usize {
        self.bytes
    }

    /// The entry in `slot` with its id; `None` for [`NIL`].
    fn live(&self, slot: u32) -> Option<(u16, &Forwarded)> {
        let slot = self.slab.get(slot as usize)?;
        Some((slot.txid, slot.entry.as_ref()?))
    }

    /// The entry under `txid`.
    pub(super) fn get(&self, txid: u16) -> Option<&Forwarded> {
        let slot = self.index[txid as usize].checked_sub(1)?; // lint: L1 — a u16
        Some(self.live(slot)?.1)
    }

    /// The entry created first, with its id.
    pub(super) fn oldest(&self) -> Option<(u16, &Forwarded)> {
        self.live(self.head)
    }

    /// The live entries with their ids, oldest first.
    pub(super) fn iter(&self) -> impl Iterator<Item = (u16, &Forwarded)> {
        let mut at = self.head;
        std::iter::from_fn(move || {
            let item = self.live(at)?;
            at = self.slab.get(at as usize)?.next;
            Some(item)
        })
    }

    /// Files `entry` under `txid` and returns the entry it replaced there.
    pub(super) fn insert(&mut self, txid: u16, entry: Forwarded) -> Option<Forwarded> {
        let replaced = self.remove(txid);
        self.bytes += entry.approx_bytes();
        let mut prev = self.tail;
        while self.live(prev).is_some_and(|(_, held)| held.created > entry.created) {
            prev = self.slab[prev as usize].prev; // lint: L1 — a listed slot
        }
        let next = match prev {
            NIL => self.head,
            _ => self.slab[prev as usize].next, // lint: L1 — a listed slot
        };
        let filled = Slot {
            entry: Some(entry),
            txid,
            prev,
            next,
        };
        let slot = match self.free {
            NIL => {
                self.slab.push(filled);
                self.slab.len() as u32 - 1
            }
            slot => {
                self.free = self.slab[slot as usize].next; // lint: L1 — a free slot
                self.slab[slot as usize] = filled; // lint: L1 — a free slot
                slot
            }
        };
        match prev {
            NIL => self.head = slot,
            _ => self.slab[prev as usize].next = slot, // lint: L1 — a listed slot
        }
        match next {
            NIL => self.tail = slot,
            _ => self.slab[next as usize].prev = slot, // lint: L1 — a listed slot
        }
        self.index[txid as usize] = slot + 1; // lint: L1 — a u16
        replaced
    }

    /// Removes and returns the entry under `txid`.
    pub(super) fn remove(&mut self, txid: u16) -> Option<Forwarded> {
        let slot = self.index[txid as usize].checked_sub(1)?; // lint: L1 — a u16
        let freed = self.slab.get_mut(slot as usize)?;
        let entry = freed.entry.take()?;
        self.index[txid as usize] = 0; // lint: L1 — a u16
        let (prev, next) = (freed.prev, freed.next);
        freed.next = self.free;
        self.free = slot;
        match prev {
            NIL => self.head = next,
            _ => self.slab[prev as usize].next = next, // lint: L1 — a listed slot
        }
        match next {
            NIL => self.tail = prev,
            _ => self.slab[next as usize].prev = prev, // lint: L1 — a listed slot
        }
        self.bytes -= entry.approx_bytes();
        Some(entry)
    }

    /// Removes every entry; the slab keeps its room.
    pub(super) fn clear(&mut self) {
        while let Some((txid, _)) = self.oldest() {
            self.remove(txid);
        }
    }
}

/// The ids the ANS sees: a keyed permutation `P` of `1..=65535` over the
/// table's keys. A forward filed under `txid` leaves as `P(txid)` and an
/// answer under `id` is looked up at `P⁻¹(id)`, so the table keeps its
/// sequential keys while an off-path forger who has seen one id cannot name
/// the next.
///
/// `P` is a four-round Feistel network over the id's two bytes, whose round
/// functions are 256-entry tables filled from SipHash-2-4 under a key
/// derived from the guard's `key_seed`; it permutes all of `0..=65535`, and
/// applying it again whenever it yields 0 (cycle-walking) keeps 0 off the
/// wire. An HA pair shares its seed, so a standby that takes over inverts
/// the primary's in-flight ids.
#[derive(Debug)]
pub(super) struct WireIds {
    rounds: [[u8; 256]; 4],
}

impl WireIds {
    /// The permutation of `key_seed`.
    pub(super) fn new(key_seed: u64) -> WireIds {
        // Salted, so the key shares no bytes with the cookie, limiter or
        // replication keys derived from the same seed.
        let material = SecretKey::from_seed(key_seed ^ 0x7C1D_5EED);
        let key = material.as_bytes().first_chunk::<16>().copied().unwrap_or_default();
        let mut rounds = [[0u8; 256]; 4];
        for (round, table) in (0u8..).zip(&mut rounds) {
            for (chunk, bytes) in (0u8..).zip(table.chunks_exact_mut(8)) {
                bytes.copy_from_slice(&siphash24(&key, &[round, chunk]).to_le_bytes());
            }
        }
        WireIds { rounds }
    }

    /// One pass of the network.
    fn encrypt(&self, id: u16) -> u16 {
        let [mut l, mut r] = id.to_be_bytes();
        for table in &self.rounds {
            (l, r) = (r, l ^ table[usize::from(r)]); // lint: L1 — a u8 into 256 entries
        }
        u16::from_be_bytes([l, r])
    }

    /// One pass of the network, backwards.
    fn decrypt(&self, id: u16) -> u16 {
        let [mut l, mut r] = id.to_be_bytes();
        for table in self.rounds.iter().rev() {
            (l, r) = (r ^ table[usize::from(l)], l); // lint: L1 — a u8 into 256 entries
        }
        u16::from_be_bytes([l, r])
    }

    /// `P(txid)`: the id the forward filed under `txid` leaves with.
    pub(super) fn wire(&self, txid: u16) -> u16 {
        let mut id = self.encrypt(txid);
        // From a key other than 0 the walk passes 0 at most once on its way
        // round the key's cycle; no forward is filed under 0.
        while id == 0 && txid != 0 {
            id = self.encrypt(id);
        }
        id
    }

    /// `P⁻¹(id)`: the key an answer under `id` is looked up at; `None` for
    /// 0, which no forward leaves with.
    pub(super) fn key(&self, id: u16) -> Option<u16> {
        if id == 0 {
            return None;
        }
        let mut txid = self.decrypt(id);
        while txid == 0 {
            txid = self.decrypt(txid);
        }
        Some(txid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnswire::question::Question;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::net::Ipv4Addr;

    /// What the guard's policies allow the table to hold, in the test.
    const BYTES_MAX: usize = 1_500;
    const HORIZON: SimTime = SimTime::from_millis(50);

    /// An entry whose `qid` tells it from every other; a `heavy` one carries
    /// names, so entries differ in what they cost the byte bound.
    fn entry(created: SimTime, qid: u64, question: u64, heavy: bool) -> Forwarded {
        let requester = Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), 1_053);
        let rewrite = if heavy {
            let cookie_name: Name = "PR0a1b2c3dcom.example".parse().unwrap();
            RewriteState::ReferralCookie {
                cookie_question: Question::new(cookie_name, RrType::A),
                question,
            }
        } else {
            RewriteState::Passthrough { question }
        };
        Forwarded {
            requester,
            reply_from: requester,
            orig_txid: qid as u16,
            rewrite: Rewrite::Durable(rewrite),
            created,
            qid,
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// Forward under `txid` (whatever is there is overwritten), created
        /// `age_ms` ago as a restored entry would be, then evict past the
        /// byte bound.
        Forward { txid: u16, age_ms: u64, heavy: bool },
        /// An answer under `txid`, to the question that was forwarded or to
        /// another.
        Answer { txid: u16, right_question: bool },
        /// Let `ms` pass, then expire what is older than the horizon.
        Sweep { ms: u64 },
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        // A few ids, so that reuse, hits and misses all happen.
        let txid = || prop_oneof![0u16..12, Just(u16::MAX), any::<u16>()];
        prop_oneof![
            (txid(), any::<bool>())
                .prop_map(|(txid, heavy)| Op::Forward { txid, age_ms: 0, heavy }),
            (txid(), 0u64..60, any::<bool>())
                .prop_map(|(txid, age_ms, heavy)| Op::Forward { txid, age_ms, heavy }),
            (txid(), any::<bool>())
                .prop_map(|(txid, right_question)| Op::Answer { txid, right_question }),
            (0u64..40).prop_map(|ms| Op::Sweep { ms }),
        ]
    }

    /// The model: `txid → (created, insertion number, bytes, question)`.
    type Model = BTreeMap<u16, (SimTime, u64, usize, u64)>;

    /// The model's entries as the table must list them: by creation time,
    /// insertion order among equals.
    fn listed(model: &Model) -> Vec<(u16, u64)> {
        let mut entries: Vec<_> = model.iter().map(|(&txid, &(at, n, ..))| (at, n, txid)).collect();
        entries.sort();
        entries.into_iter().map(|(_, n, txid)| (txid, n)).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn table_agrees_with_a_map_model(ops in proptest::collection::vec(arb_op(), 1..200)) {
            let mut table = FwdTable::new();
            let mut model = Model::new();
            let mut now = SimTime::from_secs(1);
            for (n, op) in ops.into_iter().enumerate() {
                let n = n as u64;
                match op {
                    Op::Forward { txid, age_ms, heavy } => {
                        let created = now - SimTime::from_millis(age_ms);
                        let fresh = entry(created, n, n ^ 0xABCD, heavy);
                        let bytes = fresh.approx_bytes();
                        let replaced = table.insert(txid, fresh).map(|old| old.qid);
                        let expected = model.insert(txid, (created, n, bytes, n ^ 0xABCD));
                        prop_assert_eq!(replaced, expected.map(|(_, n, ..)| n));
                        while table.bytes() > BYTES_MAX {
                            let (oldest, _) = table.oldest().expect("bytes without entries");
                            prop_assert_eq!(Some(&(oldest, table.get(oldest).unwrap().qid)), listed(&model).first());
                            table.remove(oldest);
                            model.remove(&oldest);
                        }
                    }
                    Op::Answer { txid, right_question } => {
                        let asking = match (model.get(&txid), right_question) {
                            (Some(&(.., question)), true) => question,
                            _ => 0x5EED,
                        };
                        let held = table.get(txid).is_some_and(|f| f.question() == asking);
                        let removed = if held { table.remove(txid) } else { None };
                        let expected = model.get(&txid).is_some_and(|&(.., q)| q == asking);
                        prop_assert_eq!(removed.is_some(), expected);
                        if expected {
                            prop_assert_eq!(removed.map(|f| f.qid), model.remove(&txid).map(|(_, n, ..)| n));
                        }
                    }
                    Op::Sweep { ms } => {
                        now += SimTime::from_millis(ms);
                        while let Some((txid, oldest)) = table.oldest() {
                            if now.saturating_sub(oldest.created) < HORIZON {
                                break;
                            }
                            table.remove(txid);
                        }
                        model.retain(|_, (created, ..)| now.saturating_sub(*created) < HORIZON);
                    }
                }
                let live: Vec<(u16, u64)> = table.iter().map(|(txid, f)| (txid, f.qid)).collect();
                prop_assert_eq!(&live, &listed(&model));
                prop_assert_eq!(table.bytes(), model.values().map(|&(_, _, bytes, _)| bytes).sum::<usize>());
                prop_assert!(table.bytes() <= BYTES_MAX);
                prop_assert!(table.slab.len() <= 1 + BYTES_MAX / std::mem::size_of::<Forwarded>());
                for txid in [0, 5, 11, u16::MAX] {
                    prop_assert_eq!(table.get(txid).map(|f| f.qid), model.get(&txid).map(|&(_, n, ..)| n));
                }
            }
            table.clear();
            prop_assert_eq!((table.bytes(), table.iter().count(), table.oldest().is_none()), (0, 0, true));
        }
    }

    #[test]
    fn wire_ids_permute_every_key_and_invert() {
        let ids = WireIds::new(2006);
        let mut taken = vec![false; 1 << 16];
        for txid in 1..=u16::MAX {
            let wire = ids.wire(txid);
            assert_ne!(wire, 0, "key {txid} left as id 0");
            assert!(!std::mem::replace(&mut taken[usize::from(wire)], true), "id {wire} twice");
            assert_eq!(ids.key(wire), Some(txid), "P⁻¹(P({txid}))");
        }
        assert_eq!(ids.key(0), None);
    }

    #[test]
    fn wire_ids_are_a_function_of_the_seed() {
        let first = |seed| {
            let ids = WireIds::new(seed);
            (1..=64).map(|txid| ids.wire(txid)).collect::<Vec<u16>>()
        };
        assert_eq!(first(7), first(7), "deterministic per seed");
        assert_ne!(first(7), first(8), "keyed by the seed");
        let successors = first(7).windows(2).filter(|w| w[1] == w[0].wrapping_add(1)).count();
        assert!(successors <= 1, "sequential keys leave in sequence: {:?}", first(7));
    }
}
