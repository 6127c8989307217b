//! The synchronization facade [`crate::par`] is written against.
//!
//! `par.rs` — the workspace's hand-rolled concurrency exception — performs
//! every synchronization operation (mutexes, condvars, atomics, once-caches,
//! thread spawning) through this module instead of naming `std::sync` or
//! `std::thread` directly; the `sync-facade` rule in `gnmr-analyze` makes
//! that mechanical. In this crate the facade is a zero-cost veneer over
//! `std`: type re-exports plus `#[inline]` wrappers that compile to the
//! exact code `par.rs` used to contain (the dispatch-overhead regression
//! gate in CI pins this).
//!
//! The point of the indirection is **model checking**: `crates/check`
//! compiles the *same* `par.rs` source file (via `#[path]`) against its own
//! `sync` module — a cooperative virtual-thread scheduler that turns every
//! facade call into a preemption point and explores thread interleavings
//! under bounded-exhaustive + seeded-random schedule search. New pool code
//! that named `std::sync` directly would silently dodge that model, which
//! is why the analyzer rule exists.
//!
//! Two deliberate API deviations from `std`, shared by both backends so the
//! protocol source stays identical:
//!
//! * [`OnceLock`] returns **owned** values (`T: Clone`) from `get` /
//!   `get_or_init` — the model backend resets once-caches between explored
//!   schedules and therefore cannot hand out `'static` borrows;
//! * [`spawn_named`] spawns a *detached* thread (pool workers live for the
//!   process, so nothing joins them) and reports failure as [`SpawnFailed`].
//!
//! [`fault`] is the mutation hook for the checker's mutant corpus: sites in
//! `par.rs` ask `fault("site-name")` before a protocol-critical step. Here
//! it is `const false`, so the branch folds away entirely in release
//! builds; the model backend switches one named site on per mutant run to
//! prove the checker catches the seeded bug.

use std::sync::OnceLock as StdOnceLock;

pub use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Atomic types and memory orderings, re-exported from `std`.
pub mod atomic {
    pub use std::sync::atomic::{AtomicUsize, Ordering};
}

/// Thread-spawn failure (thread limit, OOM). Callers degrade gracefully —
/// the pool's dispatching caller always drains its own job.
#[derive(Debug)]
pub struct SpawnFailed;

/// Spawns a detached named thread running `f`.
#[inline]
pub fn spawn_named(name: String, f: impl FnOnce() + Send + 'static) -> Result<(), SpawnFailed> {
    std::thread::Builder::new().name(name).spawn(f).map(|_| ()).map_err(|_| SpawnFailed)
}

/// The machine's available parallelism (1 if it cannot be determined).
/// Facaded because it is a `std::thread` call: the model backend pins it
/// to a fixed value so explored schedules never depend on the host CPU
/// count.
#[inline]
pub fn available_parallelism_raw() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Fault-injection hook for the model checker's mutant corpus. Always
/// `false` in this backend; the call is `const` and `#[inline(always)]`,
/// so every `if sync::fault("...")` site in `par.rs` constant-folds to the
/// unmutated code path — zero cost by construction.
#[inline(always)]
pub const fn fault(_site: &str) -> bool {
    false
}

/// A once-initialized cache with an owned-value API (see the module docs
/// for why `get`/`get_or_init` clone instead of borrowing). The values
/// cached by `par.rs` are a `usize`, an `Option<usize>`, and an `Arc` —
/// all trivially cloneable.
pub struct OnceLock<T> {
    inner: StdOnceLock<T>,
}

impl<T: Clone> OnceLock<T> {
    /// An empty cache; usable in `static` position.
    #[must_use]
    pub const fn new() -> Self {
        OnceLock { inner: StdOnceLock::new() }
    }

    /// The cached value, if initialized.
    #[inline]
    pub fn get(&self) -> Option<T> {
        self.inner.get().cloned()
    }

    /// The cached value, initializing it with `f` on first call.
    #[inline]
    pub fn get_or_init(&self, f: impl FnOnce() -> T) -> T {
        self.inner.get_or_init(f).clone()
    }
}

impl<T: Clone> Default for OnceLock<T> {
    fn default() -> Self {
        Self::new()
    }
}
