//! Shared shutdown signal for runtime worker threads.
//!
//! Every runtime thread (guard server, toy ANS, telemetry endpoint)
//! polls one of these, so the `Arc<AtomicBool>` Release/Acquire
//! pair is written in exactly one place: work the stopping thread did
//! before [`StopFlag::stop`] is visible to a worker that observed
//! [`StopFlag::should_stop`]. guardlint's L3 row fails on a `Relaxed`
//! store or load here, so the pair cannot be demoted silently.

use std::sync::atomic::{AtomicBool, Ordering};
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
