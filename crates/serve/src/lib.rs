//! gnmr-serve — frozen-model inference for the GNMR reproduction.
//!
//! Training produces fused multi-order representations; this crate
//! freezes them into a versioned binary [`ModelSnapshot`] (magic,
//! version, shape table, FNV-1a checksum — see [`snapshot`]) and serves
//! top-k queries from a [`ServeIndex`] at catalog scale: the catalog
//! kept as 8-row strips whose floats are split into high and low 16
//! bits ([`gnmr_tensor::kernels::RowStrips`]), so a sweep reads the
//! high halves and rescores exactly only where a proven bound says a
//! strip may enter a top-k list, bounded partial selection instead of
//! full-catalog sorts, and batched multi-user scoring
//! dispatched on the shared worker pool with per-thread reusable
//! scratch (steady-state allocation-free after warmup). Every scoring
//! surface routes through the same canonical fixed-lane kernels as
//! training, so served lists are byte-identical to `Gnmr::recommend` on
//! the same snapshot — "same seed, same bytes" extended to deployment.
//!
//! Throughput is tracked by the `serve` bench family
//! (`results/bench_serve.json`): users/sec at catalog sizes 10^5–10^7,
//! with a CI regression gate on the steady-state allocation count and
//! on the strips one pass rescores exactly.
//!
//! Deployment is fault-tolerant: snapshot writes are atomic and all
//! snapshot I/O routes through the fault-injectable layer
//! ([`gnmr_tensor::fio`]), and a [`ServeHandle`] hot-reloads new
//! snapshots with full off-to-the-side validation, an atomic
//! generation swap, typed errors ([`ReloadError`], [`ModelNotReady`])
//! instead of panics, and one level of rollback.

pub mod error;
pub mod index;
pub mod reload;
pub mod snapshot;

pub use error::ModelNotReady;
pub use index::{ExcludeLists, ServeIndex};
pub use reload::{ReloadError, ServeHandle};
pub use snapshot::ModelSnapshot;
