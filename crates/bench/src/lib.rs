//! The reproduction harness: trains every model on every dataset and
//! regenerates each table and figure of the paper's evaluation section.
//!
//! The `repro` binary is a thin wrapper over the functions in
//! [`experiments`]: `repro table1` … `repro table4`, `repro fig2` and
//! `repro fig3` regenerate one artifact each, and `repro` alone (or
//! `repro all`) runs the full suite, writing results under `results/`.
//!
//! Scale: by default the harness runs the `*_small` dataset presets with
//! a reduced (but converged-enough) training budget so the full suite
//! finishes in minutes. Set `GNMR_FULL=1` for the heavier budget.
//!
//! The custom bench families under `benches/` share [`harness`].

pub mod alloc;
pub mod experiments;
pub mod harness;
pub mod output;
pub mod registry;
