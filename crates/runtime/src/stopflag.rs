//! Shared shutdown signal for runtime worker threads.
//!
//! Every runtime component (guard server, TCP front, toy ANS,
//! telemetry endpoint) used to hand-roll the same `Arc<AtomicBool>`
//! Release/Acquire pair; [`StopFlag`] centralizes it so the ordering
//! discipline lives in exactly one place — and, because it is built on
//! `guardcheck::sync`, the pair is model-checked: the guardcheck
//! `stop_flag` harness proves that work published before [`StopFlag::stop`]
//! is visible to a worker that observed [`StopFlag::should_stop`], and
//! the seeded mutation test proves the checker would catch a demotion
//! of the Release store.

use guardcheck::sync::{AtomicBool, Ordering};
use std::sync::Arc;

/// Cloneable one-way shutdown latch. Clones share the flag: the owner
/// calls [`StopFlag::stop`], worker loops poll [`StopFlag::should_stop`].
#[derive(Clone, Debug, Default)]
pub struct StopFlag(Arc<AtomicBool>);

impl StopFlag {
    /// A fresh, unset flag.
    pub fn new() -> StopFlag {
        StopFlag::default()
    }

    /// Signals shutdown. Release ordering: every write the stopping
    /// thread made before this call is visible to a worker that sees
    /// `should_stop() == true` (the worker's final drain reads
    /// consistent state).
    pub fn stop(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether shutdown has been requested. Acquire ordering pairs
    /// with the Release store in [`StopFlag::stop`].
    pub fn should_stop(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }

    /// Seeded mutation for the model checker's own self-test: stores
    /// the flag with `Relaxed`, severing the happens-before edge that
    /// [`StopFlag::stop`] provides. The guardcheck harness asserts the
    /// checker reports this as a data race with a replayable trace —
    /// proving the checker would catch the same regression in real
    /// code. Only exists under `cfg(guardcheck)`; production builds
    /// cannot call it.
    #[cfg(guardcheck)]
    pub fn stop_relaxed_for_mutation_test(&self) {
        // lint: L3 — the broken ordering IS the point: the model
        // checker must detect this demotion (see the guardcheck harness).
        self.0.store(true, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_unset_and_latches() {
        let f = StopFlag::new();
        assert!(!f.should_stop());
        f.stop();
        assert!(f.should_stop());
        f.stop(); // idempotent
        assert!(f.should_stop());
    }

    #[test]
    fn clones_share_the_flag() {
        let f = StopFlag::new();
        let worker_view = f.clone();
        assert!(!worker_view.should_stop());
        f.stop();
        assert!(worker_view.should_stop());
    }

    #[test]
    fn stop_is_visible_across_threads() {
        let f = StopFlag::new();
        let w = f.clone();
        let h = std::thread::spawn(move || {
            while !w.should_stop() {
                std::thread::yield_now();
            }
        });
        f.stop();
        h.join().expect("worker observes stop and exits");
    }
}
