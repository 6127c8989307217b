//! Serving hot-reload with rollback.
//!
//! A [`ServeHandle`] wraps the current [`ServeIndex`] behind an
//! `RwLock<Arc<...>>` so a long-running server can swap in a freshly
//! trained snapshot **without dropping a request**:
//!
//! * **Validate off to the side.** A reload reads the snapshot file,
//!   runs the full `ModelSnapshot` validation (checksum, layout,
//!   hardened header bounds), builds the candidate [`ServeIndex`], and
//!   checks it is shape-compatible with what is currently being served
//!   — all *before* touching the lock. In-flight `recommend_batch`
//!   calls never wait on I/O or parsing.
//! * **Atomic epoch swap.** Only the pointer swap takes the write
//!   lock, for nanoseconds. Requests that grabbed the old `Arc` finish
//!   on the old generation; new requests see the new one. There is no
//!   state in between.
//! * **Failure keeps the old index.** Any load or validation failure
//!   returns a typed [`ReloadError`] and changes nothing: the old
//!   index keeps serving. No panic, no partial state — the reload
//!   suite exercises this concurrently with in-flight batch queries.
//! * **Rollback.** The previous generation is retained, so an
//!   operator can [`ServeHandle::rollback`] a bad-but-valid deploy
//!   (wrong model, not corrupt bytes) with the same atomic swap.
//!
//! Snapshot reads go through the fault-injectable I/O layer
//! ([`gnmr_tensor::fio`]), so the crash drills can corrupt or truncate
//! a reload mid-flight and assert the old generation keeps serving.

use std::fmt;
use std::io;
use std::path::Path;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use gnmr_tensor::fio::FaultPlan;

use crate::index::ServeIndex;
use crate::snapshot::ModelSnapshot;

/// Why a reload (or rollback) left the serving state untouched.
#[derive(Debug)]
pub enum ReloadError {
    /// Reading or validating the snapshot bytes failed (I/O error,
    /// checksum mismatch, malformed layout, injected fault).
    Load(io::Error),
    /// The candidate index parsed cleanly but does not match the
    /// serving shape — a snapshot from a different catalog or model
    /// configuration.
    Incompatible {
        /// `(n_users, n_items, dim)` currently being served.
        current: (usize, usize, usize),
        /// `(n_users, n_items, dim)` of the rejected candidate.
        candidate: (usize, usize, usize),
    },
    /// `rollback` with no previous generation to roll back to.
    NoPrevious,
}

impl fmt::Display for ReloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReloadError::Load(e) => write!(f, "reload: snapshot rejected: {e}"),
            ReloadError::Incompatible { current, candidate } => write!(
                f,
                "reload: candidate shape {candidate:?} incompatible with serving shape {current:?} (users, items, dim)"
            ),
            ReloadError::NoPrevious => f.write_str("rollback: no previous generation retained"),
        }
    }
}

impl std::error::Error for ReloadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReloadError::Load(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ReloadError {
    fn from(e: io::Error) -> Self {
        ReloadError::Load(e)
    }
}

/// The swappable serving state: one pointer indirection per request.
struct Slots {
    current: Arc<ServeIndex>,
    previous: Option<Arc<ServeIndex>>,
    generation: u64,
}

/// A hot-reloadable serving surface over [`ServeIndex`]; see the
/// module docs for the swap protocol.
pub struct ServeHandle {
    slots: RwLock<Slots>,
}

impl ServeHandle {
    /// Starts serving `index` as generation 0.
    pub fn new(index: ServeIndex) -> Self {
        ServeHandle {
            slots: RwLock::new(Slots { current: Arc::new(index), previous: None, generation: 0 }),
        }
    }

    /// A lock is poisoned only if a writer panicked, and the writers
    /// here are pointer swaps that cannot unwind mid-invariant — the
    /// slot data is always whole, so recovering the guard is sound.
    fn read_slots(&self) -> RwLockReadGuard<'_, Slots> {
        self.slots.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write_slots(&self) -> RwLockWriteGuard<'_, Slots> {
        self.slots.write().unwrap_or_else(|e| e.into_inner())
    }

    /// The index to serve this request from. The `Arc` keeps the
    /// generation alive for the request's whole lifetime even if a
    /// swap lands mid-query; callers should clone once per request,
    /// not hold across requests.
    pub fn index(&self) -> Arc<ServeIndex> {
        self.read_slots().current.clone()
    }

    /// Monotone generation counter: bumped by every successful reload
    /// or rollback, untouched by failures.
    pub fn generation(&self) -> u64 {
        self.read_slots().generation
    }

    /// Swaps `candidate` in as the new serving generation after a
    /// shape-compatibility check, returning the new generation number.
    /// On [`ReloadError::Incompatible`] the old index keeps serving.
    pub fn reload(&self, candidate: ServeIndex) -> Result<u64, ReloadError> {
        // The shape check happens under the write lock so it is
        // race-free against a concurrent reload; it is a handful of
        // integer compares, so readers are still only blocked for the
        // duration of a pointer swap.
        let candidate = Arc::new(candidate);
        let mut slots = self.write_slots();
        let current = (slots.current.n_users(), slots.current.n_items(), slots.current.dim());
        let cand = (candidate.n_users(), candidate.n_items(), candidate.dim());
        if current != cand {
            return Err(ReloadError::Incompatible { current, candidate: cand });
        }
        slots.previous = Some(std::mem::replace(&mut slots.current, candidate));
        slots.generation += 1;
        Ok(slots.generation)
    }

    /// Builds an index from an already-validated snapshot and swaps it
    /// in (shape check as in [`ServeHandle::reload`]).
    pub fn reload_snapshot(&self, snapshot: &ModelSnapshot) -> Result<u64, ReloadError> {
        self.reload(ServeIndex::from_snapshot(snapshot))
    }

    /// Reads, validates, and swaps in a snapshot file under a fault
    /// plan. All I/O, parsing, and index construction happen before the
    /// lock is touched; any failure leaves the old index serving. The
    /// decoded representations move into the index, whose strips are
    /// split in the decoded item buffer, so a reload copies neither.
    pub fn reload_from_path_with(
        &self,
        path: impl AsRef<Path>,
        plan: &mut FaultPlan,
    ) -> Result<u64, ReloadError> {
        let snapshot = ModelSnapshot::load_with(path, plan)?;
        self.reload(ServeIndex::from(snapshot))
    }

    /// [`ServeHandle::reload_from_path_with`] without fault injection.
    pub fn reload_from_path(&self, path: impl AsRef<Path>) -> Result<u64, ReloadError> {
        self.reload_from_path_with(path, &mut FaultPlan::none())
    }

    /// Atomically swaps back to the previous generation (one level of
    /// history), returning the new generation number. The rolled-back
    /// index is retained as the new "previous", so two rollbacks swap
    /// forth and back.
    pub fn rollback(&self) -> Result<u64, ReloadError> {
        let mut slots = self.write_slots();
        let Some(previous) = slots.previous.take() else {
            return Err(ReloadError::NoPrevious);
        };
        slots.previous = Some(std::mem::replace(&mut slots.current, previous));
        slots.generation += 1;
        Ok(slots.generation)
    }
}
