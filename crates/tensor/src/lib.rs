//! Dense and sparse matrix substrate for the GNMR reproduction.
//!
//! This crate is the numeric foundation of the workspace: a row-major
//! `f32` [`Matrix`], a compressed-sparse-row matrix ([`Csr`]) with the
//! SpMM kernels used by graph message passing, weight initializers, and
//! deterministic RNG plumbing.
//!
//! # Conventions
//!
//! * All shapes are `(rows, cols)`; storage is row-major.
//! * Shape mismatches are **programmer errors** and panic with a
//!   descriptive message (the same contract as `ndarray`). Fallible
//!   *data-dependent* operations return `Result`.
//! * Every randomized routine takes an explicit RNG; the workspace-wide
//!   determinism contract is "same seed, same bytes".
//! * Every kernel runs on the calling thread; the serving batch and
//!   evaluation split their rows over the shared **persistent worker
//!   pool** in [`par`] (long-lived workers parked on a condvar, spawned
//!   lazily and reused across calls). The thread count is governed by
//!   one knob (`GNMR_THREADS` / [`par::set_threads`]) and parallel
//!   results are bitwise identical to the serial reference (see
//!   [`par::for_each_row_chunk`]).

pub mod arena;
pub mod dense;
pub mod fio;
pub mod init;
pub mod kernels;
pub mod par;
pub mod rng;
pub mod sparse;
pub mod stats;
pub mod sync;
pub mod wire;

pub use arena::Arena;
pub use dense::Matrix;
pub use sparse::Csr;
