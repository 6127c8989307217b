//! Crash-safe training checkpoints.
//!
//! A [`TrainCheckpoint`] freezes everything `Gnmr::fit` needs to resume
//! a run **bit-for-bit**: the full parameter store, the Adam moment
//! maps with the step count and the *decayed* learning rate (stored as
//! exact f32 bits — recomputing the decay chain as a power would not be
//! bitwise-identical), the sampler RNG state, the completed-epoch
//! counter, and the per-epoch loss history. Everything else the loop
//! touches is either pure configuration (rebuilt from `TrainConfig` /
//! `GnmrConfig`) or bitwise-neutral (the buffer arena: warm-vs-fresh
//! arenas are pinned byte-identical by the autograd suite).
//!
//! The binary layout reuses the snapshot machinery
//! ([`gnmr_tensor::wire`]): magic, version, fixed header, named-matrix
//! shape tables (strictly ascending, bounds-checked before any
//! allocation), LE f32 bit patterns, FNV-1a 64 checksum over every
//! preceding byte:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"GNMRCKPT"
//! 8       4     format version (u32 LE, currently 1)
//! 12      4     epochs completed (u32 LE)
//! 16      8     optimizer steps taken (u64 LE)
//! 24      8     Adam step count t (u64 LE)
//! 32      4     Adam learning rate (f32 bits LE, post-decay)
//! 36      8     sampler RNG state (u64 LE)
//! 44      4     n_losses (u32 LE), then n_losses f32 bit patterns
//! …       4     n_params, then param shape table, then param payloads
//! …       4     n_moments, then moment shape table, then per moment
//!               the first- then second-moment payload
//! end-8   8     FNV-1a 64 checksum (u64 LE) over every preceding byte
//! ```
//!
//! All file I/O goes through the fault-injectable layer
//! ([`gnmr_tensor::fio`]): writes are atomic (temp → fsync → rename),
//! so a crash at any byte leaves either the previous checkpoint or the
//! new one intact — the crash-drill suite sweeps a torn write across
//! every byte offset and asserts exactly that.

use std::io;
use std::path::{Path, PathBuf};

use gnmr_autograd::{Adam, AdamState, ParamStore};
use gnmr_tensor::fio::{self, FaultPlan};
use gnmr_tensor::rng::StateRng;
use gnmr_tensor::wire::{self, Reader};
use gnmr_tensor::Matrix;

use crate::trainer::TrainReport;

/// First 8 checkpoint bytes; anything else is not a checkpoint.
pub const MAGIC: [u8; 8] = *b"GNMRCKPT";

/// Current checkpoint format version. Bump on any layout change; load
/// refuses other versions rather than guessing.
pub const VERSION: u32 = 1;

/// A frozen mid-training state; see the module docs for the exact
/// resume-equivalence argument and the binary layout.
#[derive(Clone, Debug)]
pub struct TrainCheckpoint {
    /// Fully completed epochs (resume starts at this epoch index).
    pub epochs_done: u32,
    /// Total optimizer steps taken (the `TrainReport` counter).
    pub steps: u64,
    /// Mean hinge loss of each completed epoch.
    pub epoch_losses: Vec<f32>,
    /// Sampler RNG state at the epoch boundary.
    pub rng_state: u64,
    /// Adam state: step count, decayed lr, moment maps.
    pub opt: AdamState,
    /// `(name, value)` in strictly ascending name order (the
    /// [`ParamStore`] iteration order — canonical bytes).
    pub params: Vec<(String, Matrix)>,
}

impl TrainCheckpoint {
    /// Freezes the training state at an epoch boundary.
    pub fn capture(
        store: &ParamStore,
        opt: &Adam,
        rng: &StateRng,
        epochs_done: usize,
        report: &TrainReport,
    ) -> Self {
        TrainCheckpoint {
            epochs_done: epochs_done as u32,
            steps: report.steps as u64,
            epoch_losses: report.epoch_losses.clone(),
            rng_state: rng.state(),
            opt: opt.export_state(),
            params: store.iter().map(|(n, m)| (n.to_string(), m.clone())).collect(),
        }
    }

    /// Serializes to the versioned binary layout (see module docs).
    /// Canonical: the same training state always produces the same
    /// bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        wire::push_u32(&mut out, VERSION);
        wire::push_u32(&mut out, self.epochs_done);
        wire::push_u64(&mut out, self.steps);
        wire::push_u64(&mut out, self.opt.t);
        wire::push_u32(&mut out, self.opt.lr.to_bits());
        wire::push_u64(&mut out, self.rng_state);
        wire::push_u32(&mut out, self.epoch_losses.len() as u32);
        for &loss in &self.epoch_losses {
            wire::push_u32(&mut out, loss.to_bits());
        }
        wire::push_u32(&mut out, self.params.len() as u32);
        wire::push_shape_table(&mut out, &self.params);
        for (_, m) in &self.params {
            wire::push_matrix(&mut out, m);
        }
        wire::push_u32(&mut out, self.opt.moments.len() as u32);
        for (name, m, _) in &self.opt.moments {
            wire::push_u32(&mut out, name.len() as u32);
            out.extend_from_slice(name.as_bytes());
            wire::push_u32(&mut out, m.rows() as u32);
            wire::push_u32(&mut out, m.cols() as u32);
        }
        for (_, m, v) in &self.opt.moments {
            wire::push_matrix(&mut out, m);
            wire::push_matrix(&mut out, v);
        }
        wire::seal(&mut out);
        out
    }

    /// Parses and validates a checkpoint. Integrity first: the
    /// checksum is verified before a single byte is interpreted, so
    /// torn writes, short reads, and byte flips are all rejected here.
    /// Structural rejections — bad magic, unsupported version,
    /// oversized declared tables, non-ascending names, shape/payload
    /// mismatches, trailing bytes — return
    /// [`io::ErrorKind::InvalidData`] with a message naming the defect.
    pub fn from_bytes(bytes: &[u8]) -> io::Result<Self> {
        let body = wire::open(bytes, "checkpoint")?;
        let mut r = Reader::new(body, "checkpoint");
        let magic = r.take(MAGIC.len(), "magic")?;
        if magic != MAGIC {
            return Err(wire::bad("checkpoint: bad magic (not a GNMR checkpoint)"));
        }
        let version = r.u32("version")?;
        if version != VERSION {
            return Err(wire::bad(format!(
                "checkpoint: unsupported format version {version} (expected {VERSION})"
            )));
        }
        let epochs_done = r.u32("epochs completed")?;
        let steps = r.u64("step count")?;
        let opt_t = r.u64("Adam step count")?;
        let opt_lr = f32::from_bits(r.u32("learning rate")?);
        let rng_state = r.u64("rng state")?;
        let n_losses = r.u32("loss count")? as usize;
        if n_losses != epochs_done as usize {
            return Err(wire::bad(format!(
                "checkpoint: {n_losses} epoch losses for {epochs_done} completed epochs"
            )));
        }
        if n_losses > r.remaining() / 4 {
            return Err(wire::bad(format!(
                "checkpoint: declared {n_losses} losses cannot fit in {} remaining bytes",
                r.remaining()
            )));
        }
        let mut epoch_losses = Vec::with_capacity(n_losses);
        for _ in 0..n_losses {
            epoch_losses.push(f32::from_bits(r.u32("epoch loss")?));
        }
        let n_params = r.u32("param count")? as usize;
        let table = wire::read_shape_table(&mut r, n_params, "checkpoint param")?;
        let mut params = Vec::with_capacity(table.len());
        for (name, rows, cols) in table {
            let m = r.matrix(rows, cols, &format!("param {name:?} payload"))?;
            params.push((name, m));
        }
        let n_moments = r.u32("moment count")? as usize;
        let table = wire::read_shape_table(&mut r, n_moments, "checkpoint moment")?;
        let mut moments = Vec::with_capacity(table.len());
        for (name, rows, cols) in table {
            let m = r.matrix(rows, cols, &format!("moment {name:?} m payload"))?;
            let v = r.matrix(rows, cols, &format!("moment {name:?} v payload"))?;
            moments.push((name, m, v));
        }
        r.finish()?;
        Ok(TrainCheckpoint {
            epochs_done,
            steps,
            epoch_losses,
            rng_state,
            opt: AdamState { t: opt_t, lr: opt_lr, moments },
            params,
        })
    }

    /// Atomically writes the checkpoint to `path` under a fault plan
    /// (temp → fsync → rename; see [`fio::atomic_write`]).
    pub fn save_with(&self, path: impl AsRef<Path>, plan: &mut FaultPlan) -> io::Result<()> {
        fio::atomic_write(path, &self.to_bytes(), plan)
    }

    /// [`TrainCheckpoint::save_with`] without fault injection.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        self.save_with(path, &mut FaultPlan::none())
    }

    /// Reads and validates a checkpoint from `path` under a fault plan.
    pub fn load_with(path: impl AsRef<Path>, plan: &mut FaultPlan) -> io::Result<Self> {
        Self::from_bytes(&fio::read_bytes(path, plan)?)
    }

    /// [`TrainCheckpoint::load_with`] without fault injection.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        Self::load_with(path, &mut FaultPlan::none())
    }
}

/// Checkpointing policy for [`crate::Gnmr::fit_checkpointed`]: where to
/// write, how often, and the fault plan every I/O operation is routed
/// through (production: [`FaultPlan::none`]). A fit resumes from `path`
/// whenever a checkpoint is there when it starts.
#[derive(Debug)]
pub struct Checkpointing {
    /// Checkpoint file path; each write atomically replaces it.
    pub path: PathBuf,
    /// Checkpoint after every `every` completed epochs. Must be at
    /// least 1; `fit_checkpointed` rejects 0 with
    /// [`io::ErrorKind::InvalidInput`].
    pub every: usize,
    /// Fault plan for crash drills; all checkpoint I/O flows through it.
    pub plan: FaultPlan,
}

impl Checkpointing {
    /// Checkpoints to `path` every `every` epochs with no fault
    /// injection.
    pub fn every(path: impl Into<PathBuf>, every: usize) -> Self {
        Checkpointing { path: path.into(), every, plan: FaultPlan::none() }
    }

    /// Replaces the fault plan, builder-style (crash drills).
    pub fn with_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }
}
