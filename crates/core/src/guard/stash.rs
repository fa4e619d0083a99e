//! The NS stash: the real answer the DNS-based scheme holds for a source it
//! has just sent to its `COOKIE2` address (messages 4/5), served once when
//! the source asks there.
//!
//! A map under `(source, name)` beside a queue of `(key, created)` in
//! insertion order. Every live entry has exactly one queue element naming
//! its creation time; elements whose entry is gone or was replaced are
//! skipped on eviction and dropped by [`Stash::expire`], so the queue
//! outgrows the map only between two housekeeping windows. `bytes` is the
//! sum of the live entries' [`entry_bytes`]. An entry is the
//! [`StashState`] a checkpoint carries, so snapshot and restore copy it.

use crate::checkpoint::{StashState, STASH_TTL};
use dnswire::name::Name;
use dnswire::record::Record;
use netsim::time::SimTime;
use std::collections::{HashMap, VecDeque};
use std::net::Ipv4Addr;

/// The verified source an answer is held for, and the name it asked.
pub(super) type StashKey = (Ipv4Addr, Name);

/// Approximate heap footprint of an entry, for the stash byte bound.
fn entry_bytes(entry: &StashState) -> usize {
    // Per entry: the record vector's header and the creation time.
    std::mem::size_of::<Vec<Record>>()
        + std::mem::size_of::<u64>()
        + entry.name.wire_len()
        + entry
            .answers
            .iter()
            .map(|r| std::mem::size_of::<Record>() + r.name.wire_len() + 16)
            .sum::<usize>()
}

#[derive(Debug, Default)]
pub(super) struct Stash {
    map: HashMap<StashKey, StashState>,
    order: VecDeque<(StashKey, u64)>,
    bytes: usize,
}

impl Stash {
    pub(super) fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The sum of the live entries' approximate footprints.
    pub(super) fn bytes(&self) -> usize {
        self.bytes
    }

    /// The live entries, in no particular order.
    pub(super) fn iter(&self) -> impl Iterator<Item = &StashState> {
        self.map.values()
    }

    /// Files `entry` under its source and name, replacing what was there,
    /// then evicts oldest first until at most `bytes_max` are held. Returns
    /// the keys evicted, in order.
    pub(super) fn insert(&mut self, entry: StashState, bytes_max: usize) -> Vec<StashKey> {
        let key = (entry.src, entry.name.clone());
        let created = entry.created_nanos;
        self.bytes += entry_bytes(&entry);
        let replaced = self.map.insert(key.clone(), entry);
        self.bytes -= replaced.as_ref().map_or(0, entry_bytes);
        // An entry replaced at its own creation time keeps its queue element.
        if replaced.map(|old| old.created_nanos) != Some(created) {
            self.order.push_back((key, created));
        }
        let mut evicted = Vec::new();
        while self.bytes > bytes_max {
            let Some((oldest, created)) = self.order.pop_front() else {
                break;
            };
            if self.map.get(&oldest).is_some_and(|s| s.created_nanos == created) {
                self.remove(&oldest);
                evicted.push(oldest);
            }
        }
        evicted
    }

    pub(super) fn remove(&mut self, key: &StashKey) -> Option<StashState> {
        let entry = self.map.remove(key)?;
        self.bytes -= entry_bytes(&entry);
        Some(entry)
    }

    /// Removes the entries that are [`STASH_TTL`] old at `now`; compacts
    /// the queue on the way.
    pub(super) fn expire(&mut self, now: SimTime) {
        let Stash { map, order, bytes } = self;
        order.retain(|(key, created)| {
            let Some(held) = map.get(key).filter(|s| s.created_nanos == *created) else {
                return false;
            };
            let live = now.as_nanos().saturating_sub(*created) < STASH_TTL.as_nanos();
            if !live {
                *bytes -= entry_bytes(held);
                map.remove(key);
            }
            live
        });
    }

    pub(super) fn clear(&mut self) {
        *self = Stash::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(src: u8, created_ms: u64) -> StashState {
        let name: Name = "www.foo.com".parse().unwrap();
        StashState {
            src: Ipv4Addr::new(10, 0, 0, src),
            name: name.clone(),
            answers: vec![Record::a(name, Ipv4Addr::new(192, 0, 2, src), 60)],
            created_nanos: SimTime::from_millis(created_ms).as_nanos(),
        }
    }

    fn key(src: u8) -> StashKey {
        let e = entry(src, 0);
        (e.src, e.name)
    }

    fn sources(keys: &[StashKey]) -> Vec<u8> {
        keys.iter().map(|(src, _)| src.octets()[3]).collect()
    }

    #[test]
    fn evicts_oldest_first_at_the_byte_bound() {
        let one = entry_bytes(&entry(1, 0));
        let mut stash = Stash::default();
        for src in 1..=3 {
            assert!(stash.insert(entry(src, src as u64), 3 * one).is_empty());
        }
        assert_eq!(stash.bytes(), 3 * one);
        assert_eq!(sources(&stash.insert(entry(4, 4), 3 * one)), [1]);
        assert_eq!(sources(&stash.insert(entry(5, 5), 2 * one)), [2, 3]);
        assert_eq!((stash.bytes(), stash.iter().count()), (2 * one, 2));
        assert!(stash.map.contains_key(&key(4)) && stash.map.contains_key(&key(5)));
        // An entry too big for the bound evicts everything, itself included.
        assert_eq!(sources(&stash.insert(entry(6, 6), one - 1)), [4, 5, 6]);
        assert!(stash.is_empty() && stash.bytes() == 0);
        assert_eq!(stash.remove(&key(6)), None);
    }

    #[test]
    fn a_stale_queue_element_does_not_evict_the_fresh_entry() {
        let one = entry_bytes(&entry(1, 0));
        let mut stash = Stash::default();
        stash.insert(entry(1, 1), 2 * one);
        stash.insert(entry(2, 2), 2 * one);
        // Source 1 again: its first queue element now names a replaced entry.
        assert!(stash.insert(entry(1, 3), 2 * one).is_empty());
        assert_eq!(stash.bytes(), 2 * one);
        // Over the bound, the stale element is skipped and 2 goes, not 1.
        assert_eq!(sources(&stash.insert(entry(3, 4), 2 * one)), [2]);
        assert_eq!(stash.map.get(&key(1)).map(|s| s.created_nanos), Some(3_000_000));
        // Served (removed) and re-inserted: the same, through `remove`.
        assert!(stash.remove(&key(1)).is_some());
        stash.insert(entry(1, 5), 2 * one);
        assert_eq!(sources(&stash.insert(entry(4, 6), 2 * one)), [3]);
        assert!(stash.map.contains_key(&key(1)));
    }

    #[test]
    fn expiry_compacts_the_queue_to_the_table() {
        let mut stash = Stash::default();
        for round in 0..5u64 {
            for src in 1..=4 {
                stash.insert(entry(src, round * 100 + src as u64), usize::MAX);
            }
            stash.remove(&key(4));
        }
        assert_eq!(stash.iter().count(), 3);
        assert!(stash.order.len() > 3, "replaced and removed entries linger in the queue");
        let held = |stash: &Stash| {
            let mut held: Vec<u8> = stash.iter().map(|s| s.src.octets()[3]).collect();
            held.sort_unstable();
            held
        };
        // Nothing is old enough yet: the pass only compacts.
        stash.expire(SimTime::from_millis(500));
        assert_eq!((held(&stash), stash.order.len()), (vec![1, 2, 3], 3));
        // A restored entry is older than what was queued before it.
        stash.insert(entry(9, 10), usize::MAX);
        let ttl_ms = STASH_TTL.as_nanos() / 1_000_000;
        stash.expire(SimTime::from_millis(ttl_ms + 10));
        assert_eq!(held(&stash), [1, 2, 3]);
        stash.expire(SimTime::from_millis(ttl_ms + 402));
        assert_eq!((held(&stash), stash.order.len()), (vec![3], 1));
        assert_eq!(stash.bytes(), entry_bytes(&entry(3, 0)));
        stash.clear();
        assert_eq!((stash.bytes(), stash.order.len(), stash.is_empty()), (0, 0, true));
    }
}
