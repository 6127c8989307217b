//! `gnmr-check`: a deterministic schedule explorer (model checker) for
//! the worker pool's claim/quiesce protocol.
//!
//! The crate compiles the **real** protocol source —
//! `crates/tensor/src/par.rs`, included below via `#[path]` — against a
//! model `sync` backend instead of `std`: with this crate as the
//! compilation root, the `crate::sync` paths inside `par.rs` resolve to
//! [`sync`] here, whose every operation is a preemption point on a
//! cooperative virtual-thread scheduler ([`sched`]). Same bytes as
//! production, no cargo features, no dependency cycle: this crate
//! depends on nothing.
//!
//! [`scenario`] holds the named protocol workouts; `tests/model.rs`
//! explores the pristine protocol, `tests/mutants.rs` proves the
//! explorer catches each seeded bug in the `sync::fault` mutant corpus.
//! The pool's workers never exit, so a scenario settles before its
//! final checks ([`sched::settle`]) and a schedule ends cleanly with
//! the workers parked.

pub mod sched;
pub mod scenario;
pub mod sync;

// The pool protocol, verbatim from crates/tensor. `cfg(gnmr_model)` —
// emitted by build.rs — gates out its real-thread unit tests.
#[path = "../../tensor/src/par.rs"]
pub mod par;
