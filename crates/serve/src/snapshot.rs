//! Versioned binary model snapshots.
//!
//! A snapshot freezes everything inference needs: the full [`ParamStore`]
//! (so a model can be rehydrated for fine-tuning or audit) plus the fused
//! multi-order user/item representation matrices (so serving never has to
//! re-run the propagation forward pass). No serde exists in this
//! workspace, so the layout is hand-rolled little-endian, built on the
//! shared artifact codec in [`gnmr_tensor::wire`]:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"GNMRSNAP"
//! 8       4     format version (u32 LE, currently 2)
//! 12      4     n_params (u32 LE)
//! 16      16    user_repr rows, cols; item_repr rows, cols (4 × u32 LE)
//! 32      …     param table: per param, name_len (u32 LE), name bytes
//!               (UTF-8, strictly ascending across entries), rows, cols
//! …       …     payload: every matrix as raw f32 bit patterns (LE),
//!               params in table order, then user_repr, then item_repr
//! end-8   8     XXH64 checksum (u64 LE, seed 0) over every preceding byte
//! ```
//!
//! Floats travel as bit patterns ([`f32::to_bits`]/[`f32::from_bits`]),
//! so a round trip is bitwise-exact — including negative zero and NaN
//! payloads — which is what lets the serve path promise byte-identical
//! recommendation lists to the training-side model. [`ModelSnapshot::from_bytes`]
//! rejects corrupt or foreign input up front: bad magic, unsupported
//! version, checksum mismatch, truncation, trailing bytes, non-UTF-8 or
//! out-of-order names, and representation-width mismatches all fail with
//! [`std::io::ErrorKind::InvalidData`] before any value is trusted. The
//! header is hardened against allocation bombs: the declared shape-table
//! count, every `rows × cols` product, and the total declared payload
//! are all bounded against the bytes actually present **before** any
//! allocation happens, so even a corrupt header restamped with a valid
//! checksum cannot reserve more memory than the file's own size.
//!
//! File I/O goes through the fault-injectable layer
//! ([`gnmr_tensor::fio`]): [`ModelSnapshot::save`] is atomic
//! (temp → fsync → rename), and the `_with` variants accept a
//! [`FaultPlan`] so crash drills can tear the write at any byte and
//! assert the previous generation survives.

use std::io;
use std::path::Path;

use gnmr_autograd::ParamStore;
use gnmr_core::Gnmr;
use gnmr_tensor::fio::{self, FaultPlan};
use gnmr_tensor::wire;
use gnmr_tensor::Matrix;

use crate::error::ModelNotReady;

/// First 8 snapshot bytes; anything else is not a snapshot.
pub const MAGIC: [u8; 8] = *b"GNMRSNAP";

/// Current snapshot format version. Bump on any layout change; load
/// refuses other versions rather than guessing.
///
/// Version 2 seals the file with XXH64 ([`gnmr_tensor::wire::xxh64`]);
/// version 1 was the same layout sealed with FNV-1a-64. A version-1
/// file is rejected with [`io::ErrorKind::InvalidData`] naming its
/// version: re-save it from the model to deploy it.
pub const VERSION: u32 = 2;

/// A frozen model: parameters plus the fused representation matrices.
pub struct ModelSnapshot {
    /// `(name, value)` in strictly ascending name order — the
    /// [`ParamStore`] iteration order, preserved so serialization is
    /// canonical (same model ⇒ same bytes).
    params: Vec<(String, Matrix)>,
    user_repr: Matrix,
    item_repr: Matrix,
}

impl ModelSnapshot {
    /// Builds a snapshot from explicit parts. `params` must be strictly
    /// ascending by name; the representation widths must agree (one row
    /// dot realizes the multi-order matching sum).
    pub fn new(params: Vec<(String, Matrix)>, user_repr: Matrix, item_repr: Matrix) -> Self {
        assert!(
            params.windows(2).all(|w| w[0].0 < w[1].0),
            "ModelSnapshot: params must be strictly ascending by name"
        );
        assert_eq!(
            user_repr.cols(),
            item_repr.cols(),
            "ModelSnapshot: representation width mismatch ({} vs {})",
            user_repr.cols(),
            item_repr.cols()
        );
        ModelSnapshot { params, user_repr, item_repr }
    }

    /// Freezes a trained [`Gnmr`]. Errors with [`ModelNotReady`] if the
    /// model has no cached representations yet (call `fit` or
    /// `refresh_representations` first) — a snapshot without a scoring
    /// surface serves nothing.
    pub fn from_model(model: &Gnmr) -> Result<Self, ModelNotReady> {
        let (u, v) = model.representations().ok_or(ModelNotReady)?;
        let params = model.params().iter().map(|(n, m)| (n.to_string(), m.clone())).collect();
        Ok(Self::new(params, u.clone(), v.clone()))
    }

    /// The frozen user representations (one row per user).
    pub fn user_repr(&self) -> &Matrix {
        &self.user_repr
    }

    /// The frozen item representations (one row per item).
    pub fn item_repr(&self) -> &Matrix {
        &self.item_repr
    }

    /// The representations, moved out (parameters dropped).
    pub(crate) fn into_reprs(self) -> (Matrix, Matrix) {
        (self.user_repr, self.item_repr)
    }

    /// The frozen parameters, ascending by name.
    pub fn params(&self) -> &[(String, Matrix)] {
        &self.params
    }

    /// Rehydrates the parameters into a fresh [`ParamStore`].
    pub fn param_store(&self) -> ParamStore {
        let mut store = ParamStore::new();
        for (name, m) in &self.params {
            store.insert(name.clone(), m.clone());
        }
        store
    }

    /// Serializes to the versioned binary layout (see module docs).
    pub fn to_bytes(&self) -> Vec<u8> {
        let payload: usize = self
            .params
            .iter()
            .map(|(n, m)| 12 + n.len() + 4 * m.data().len())
            .sum::<usize>()
            + 4 * (self.user_repr.data().len() + self.item_repr.data().len());
        let mut out = Vec::with_capacity(32 + payload + 8);
        out.extend_from_slice(&MAGIC);
        wire::push_u32(&mut out, VERSION);
        wire::push_u32(&mut out, self.params.len() as u32);
        wire::push_u32(&mut out, self.user_repr.rows() as u32);
        wire::push_u32(&mut out, self.user_repr.cols() as u32);
        wire::push_u32(&mut out, self.item_repr.rows() as u32);
        wire::push_u32(&mut out, self.item_repr.cols() as u32);
        wire::push_shape_table(&mut out, self.params.iter().map(|(n, m)| (n.as_str(), m)));
        for (_, m) in &self.params {
            wire::push_matrix(&mut out, m);
        }
        wire::push_matrix(&mut out, &self.user_repr);
        wire::push_matrix(&mut out, &self.item_repr);
        wire::seal(&mut out);
        out
    }

    /// Parses and validates a snapshot. Every rejection path —
    /// truncation, bad magic, unsupported version, checksum mismatch,
    /// malformed or oversized table, trailing bytes — returns
    /// [`io::ErrorKind::InvalidData`] with a message naming the defect.
    pub fn from_bytes(bytes: &[u8]) -> io::Result<Self> {
        // Integrity first: nothing after this point trusts a byte the
        // checksum has not covered (`open_artifact` reads the version
        // field ahead of it only to name another version).
        let mut r = wire::open_artifact(bytes, &MAGIC, VERSION, "snapshot")?;
        let n_params = r.u32("param count")? as usize;
        let u_rows = r.u32("user_repr rows")?;
        let u_cols = r.u32("user_repr cols")?;
        let v_rows = r.u32("item_repr rows")?;
        let v_cols = r.u32("item_repr cols")?;
        if u_cols != v_cols {
            return Err(wire::bad(format!(
                "snapshot: representation width mismatch ({u_cols} vs {v_cols})"
            )));
        }
        // Item ids are u32 and a serving index holds fewer than
        // `u32::MAX` items, so the one header value past that is a
        // corrupt file, not a catalog (a width-0 one would pass every
        // byte-count bound below).
        if v_rows == u32::MAX {
            return Err(wire::bad(format!("snapshot: catalog of {v_rows} items exceeds the u32 index space")));
        }
        // Bound the representation payload the header promises against
        // the bytes actually present, before any table or matrix work.
        let repr_bytes = (u_rows as usize)
            .checked_mul(u_cols as usize)
            .and_then(|u| {
                (v_rows as usize)
                    .checked_mul(v_cols as usize)
                    .and_then(|v| u.checked_add(v))
            })
            .and_then(|n| n.checked_mul(4))
            .ok_or_else(|| wire::bad("snapshot: representation shape overflows"))?;
        if repr_bytes > r.remaining() {
            return Err(wire::bad(format!(
                "snapshot: header declares {repr_bytes} representation bytes but only {} remain",
                r.remaining()
            )));
        }
        let table = wire::read_shape_table(&mut r, n_params, "snapshot param")?;
        let mut params = Vec::with_capacity(table.len());
        for (name, rows, cols) in table {
            let m = r.matrix(rows, cols, &format!("param {name:?} payload"))?;
            params.push((name, m));
        }
        let user_repr = r.matrix(u_rows, u_cols, "user_repr payload")?;
        let item_repr = r.matrix(v_rows, v_cols, "item_repr payload")?;
        r.finish()?;
        Ok(ModelSnapshot { params, user_repr, item_repr })
    }

    /// Atomically writes the snapshot to `path` under a fault plan
    /// (temp → fsync → rename; see [`fio::atomic_write`]): a crash at
    /// any byte leaves either the previous snapshot or this one.
    pub fn save_with(&self, path: impl AsRef<Path>, plan: &mut FaultPlan) -> io::Result<()> {
        fio::atomic_write(path, &self.to_bytes(), plan)
    }

    /// [`ModelSnapshot::save_with`] without fault injection.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        self.save_with(path, &mut FaultPlan::none())
    }

    /// Reads and validates a snapshot from `path` under a fault plan.
    pub fn load_with(path: impl AsRef<Path>, plan: &mut FaultPlan) -> io::Result<Self> {
        Self::from_bytes(&fio::read_bytes(path, plan)?)
    }

    /// [`ModelSnapshot::load_with`] without fault injection.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        Self::load_with(path, &mut FaultPlan::none())
    }
}
