//! cfg-swappable concurrency facade.
//!
//! Data-plane crates import their atomics and mutexes from here
//! instead of `std::sync` / `parking_lot`:
//!
//! ```ignore
//! use guardcheck::sync::{AtomicU64, Mutex, Ordering};
//! ```
//!
//! In a normal build (`cfg(not(guardcheck))`) these are the real
//! `std::sync::atomic` types plus a thin poison-recovering mutex
//! wrapper — zero overhead, zero behavior change. Under
//! `RUSTFLAGS="--cfg guardcheck"` they swap to the modeled primitives,
//! so the *production types themselves* (`Counter`, `Histogram`,
//! `Tracer`'s ring, `StopFlag`) run under the interleaving checker with
//! no test doubles.

pub use std::sync::atomic::Ordering;

#[cfg(not(guardcheck))]
mod real {
    /// Poison-recovering mutex with the `parking_lot`-style `lock()`
    /// API the workspace already uses (a panicked holder does not
    /// wedge the lock — same recovery the vendored shim performs).
    pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

    pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

    impl<T> Mutex<T> {
        pub fn new(value: T) -> Self {
            Mutex(std::sync::Mutex::new(value))
        }
    }

    impl<T: ?Sized> Mutex<T> {
        pub fn lock(&self) -> MutexGuard<'_, T> {
            self.0.lock().unwrap_or_else(|e| e.into_inner())
        }
    }

    impl<T: Default> Default for Mutex<T> {
        fn default() -> Self {
            Mutex::new(T::default())
        }
    }

    impl<T: ?Sized> std::fmt::Debug for Mutex<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "Mutex(..)")
        }
    }
}

#[cfg(not(guardcheck))]
pub use real::{Mutex, MutexGuard};

#[cfg(not(guardcheck))]
pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize};

#[cfg(guardcheck)]
pub use crate::primitives::{
    ModelAtomicBool as AtomicBool, ModelAtomicU64 as AtomicU64, ModelAtomicU8 as AtomicU8,
    ModelAtomicUsize as AtomicUsize, ModelMutex as Mutex, ModelMutexGuard as MutexGuard,
};
