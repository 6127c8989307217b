//! A width-keyed buffer arena for allocation-free steady-state loops.
//!
//! The training hot path issues thousands of small-to-medium kernel
//! calls per epoch through the autodiff tape, and — before this module
//! existed — every backward op allocated fresh [`Matrix`] storage. Once
//! the persistent worker pool drove dispatch overhead to microseconds,
//! the allocator became the dominant per-step cost. An [`Arena`] breaks
//! that: callers *check out* matrix storage by shape and *check it back
//! in* when done, so after a warm-up pass (the first training steps of
//! a run) the steady state recycles the same buffers forever and the
//! backward + optimizer path performs **zero heap allocations** at any
//! pool thread count (the contract the `train_step` bench's allocation
//! gate pins in CI, at one thread and at two): the kernels it calls run
//! on the calling thread, so none of them pays a dispatch's chunk plan
//! or the pool's shared job.
//!
//! # Design
//!
//! * **Width-keyed shelves, best fit.** Returned buffers are binned by
//!   `(cols, row capacity)`: the width, and how many rows of that width
//!   the buffer's allocation holds. A checkout is served by the
//!   smallest shelved buffer of its width that holds its rows, and the
//!   buffer's length is set within its capacity. A training step's
//!   tape need not have a fixed shape population: `Gnmr::fit`'s step
//!   propagates the last layer only for the batch's distinct users and
//!   items, so its row counts change from step to step. Its checkouts
//!   fit buffers that earlier, larger steps left, so minting stops
//!   after a fit's first steps instead of growing with every new row
//!   count. A checkout whose exact shape is shelved takes that buffer,
//!   since it is the smallest fit.
//! * **Dirty checkouts.** [`Arena::checkout`] hands back storage with
//!   *unspecified contents* — the caller must overwrite every element
//!   (assign-style kernels do). Accumulation-style kernels, which
//!   stream partial sums, use [`Arena::checkout_zeroed`]; zeroing a
//!   recycled buffer writes the same `+0.0` bytes `Matrix::zeros`
//!   allocates, so results stay bitwise identical to the
//!   allocate-fresh path.
//! * **Thread safety.** Shelves sit behind a [`Mutex`], same primitive
//!   family as the worker pool in [`crate::par`]; checkout/checkin are
//!   a lock, a walk over one width's shelves, a `Vec` pop/push, and
//!   nothing else. The tape is a serial orchestrator, so the lock is
//!   uncontended in practice.
//!
//! Buffers are plain [`Matrix`] values once checked out: forgetting to
//! check one back in is a lost *reuse*, never a leak or a soundness
//! issue (the matrix frees normally on drop).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::dense::Matrix;

/// Spare buffers of one width and row capacity, newest first.
type Shelf = Vec<Vec<f32>>;

/// A thread-safe pool of reusable `Matrix` storage, binned by width
/// and row capacity.
///
/// See the [module docs](self) for the design and the bitwise contract.
#[derive(Default)]
pub struct Arena {
    /// `(cols, row capacity) -> stack of spare buffers` of that width
    /// whose allocations hold exactly that many rows. A shelf stays in
    /// the map once emptied, so refilling it allocates nothing.
    shelves: Mutex<BTreeMap<(usize, usize), Shelf>>,
    /// Checkouts served by a fresh heap allocation (no shelved buffer
    /// of the width held the rows).
    minted: AtomicUsize,
    /// Checkouts served from a shelf without touching the allocator.
    reused: AtomicUsize,
}

impl Arena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks out a `rows x cols` matrix whose contents are
    /// **unspecified** (whatever the previous user left in the buffer).
    /// Use this for assign-style consumers that overwrite every
    /// element; use [`Arena::checkout_zeroed`] for accumulators.
    ///
    /// Served by the smallest shelved buffer of width `cols` that holds
    /// `rows` rows, resized within its capacity; minted only when no
    /// shelved buffer of that width is large enough.
    pub fn checkout(&self, rows: usize, cols: usize) -> Matrix {
        let recycled = self
            .shelves
            .lock()
            .expect("arena poisoned")
            .range_mut((cols, rows)..=(cols, usize::MAX))
            .find_map(|(_, shelf)| shelf.pop());
        match recycled {
            Some(mut data) => {
                self.reused.fetch_add(1, Ordering::Relaxed);
                // Within capacity: truncates, or fills the grown tail.
                data.resize(rows * cols, 0.0);
                Matrix::from_vec(rows, cols, data)
            }
            None => {
                self.minted.fetch_add(1, Ordering::Relaxed);
                Matrix::zeros(rows, cols)
            }
        }
    }

    /// Checks out a `rows x cols` matrix with every element `+0.0` —
    /// byte-for-byte what `Matrix::zeros` allocates, so accumulation
    /// kernels streaming into it produce bitwise-identical results to
    /// the allocate-fresh path.
    pub fn checkout_zeroed(&self, rows: usize, cols: usize) -> Matrix {
        let mut m = self.checkout(rows, cols);
        m.fill(0.0);
        m
    }

    /// Returns a matrix's storage to the shelf for its width and row
    /// capacity, making it available to any later [`Arena::checkout`]
    /// of that width and at most that many rows.
    pub fn checkin(&self, m: Matrix) {
        let cols = m.cols();
        let data = m.into_data();
        // A zero-width buffer holds any number of rows.
        let key = (cols, data.capacity().checked_div(cols).unwrap_or(usize::MAX));
        self.shelves.lock().expect("arena poisoned").entry(key).or_default().push(data);
    }

    /// Number of checkouts that had to allocate because no shelved
    /// buffer of the width was large enough. Flat across steady-state
    /// iterations ⇔ the loop is allocation-free in its arena traffic.
    pub fn minted(&self) -> usize {
        self.minted.load(Ordering::Relaxed)
    }

    /// Number of checkouts served from a shelf (no allocation).
    pub fn reused(&self) -> usize {
        self.reused.load(Ordering::Relaxed)
    }

    /// Number of buffers currently shelved across all shapes.
    pub fn pooled(&self) -> usize {
        self.shelves.lock().expect("arena poisoned").values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_reuses_checked_in_storage() {
        let arena = Arena::new();
        let a = arena.checkout(3, 4);
        assert_eq!(a.shape(), (3, 4));
        assert_eq!(arena.minted(), 1);
        arena.checkin(a);
        assert_eq!(arena.pooled(), 1);
        let b = arena.checkout(3, 4);
        assert_eq!(b.shape(), (3, 4));
        assert_eq!(arena.minted(), 1, "same-shape checkout must not allocate");
        assert_eq!(arena.reused(), 1);
        assert_eq!(arena.pooled(), 0);
    }

    #[test]
    fn shapes_are_distinct_shelves() {
        let arena = Arena::new();
        arena.checkin(Matrix::ones(2, 3));
        // 3x2 has the same element count but is a different shelf.
        let m = arena.checkout(3, 2);
        assert_eq!(m.shape(), (3, 2));
        assert_eq!(arena.minted(), 1);
        assert_eq!(arena.pooled(), 1);
    }

    #[test]
    fn a_smaller_checkout_reuses_a_same_width_buffer() {
        let arena = Arena::new();
        arena.checkin(Matrix::ones(10, 4));
        let m = arena.checkout(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!((arena.minted(), arena.reused(), arena.pooled()), (0, 1, 0));
        // Checked back in, it still holds 10 rows.
        arena.checkin(m);
        let m = arena.checkout(10, 4);
        assert_eq!(m.shape(), (10, 4));
        assert_eq!((arena.minted(), arena.reused()), (0, 2));
    }

    #[test]
    fn checkouts_take_the_smallest_buffer_that_fits() {
        let arena = Arena::new();
        for rows in [8, 2, 5] {
            arena.checkin(Matrix::zeros(rows, 3));
        }
        // 4 rows: the 5-row buffer; then 2 rows: the 2-row buffer; then
        // 5 rows: only the 8-row buffer is left that holds them.
        let a = arena.checkout(4, 3);
        let b = arena.checkout(2, 3);
        let c = arena.checkout(5, 3);
        assert_eq!(arena.minted(), 0);
        assert_eq!([a, b, c].map(|m| m.into_data().capacity()), [15, 6, 24]);
        assert_eq!(arena.checkout(1, 3).shape(), (1, 3));
        assert_eq!(arena.minted(), 1, "every buffer of the width is out");
    }

    #[test]
    fn varying_row_counts_stop_minting_once_the_largest_has_run() {
        let arena = Arena::new();
        let rows = [5, 3, 9, 1, 7, 9, 2, 8, 4, 6, 9, 3];
        let largest = rows.iter().position(|&r| r == 9).unwrap();
        let mut minted = Vec::new();
        for &r in &rows {
            // Two buffers of the step's row count live at once, beside
            // one of a fixed shape.
            let a = arena.checkout(r, 16);
            let b = arena.checkout_zeroed(r, 16);
            let c = arena.checkout(1, 16);
            for m in [a, b, c] {
                arena.checkin(m);
            }
            minted.push(arena.minted());
        }
        assert!(minted[largest..].iter().all(|&m| m == minted[largest]), "{minted:?}");
    }

    #[test]
    fn zeroed_checkout_from_a_larger_buffer_is_exact_zeros() {
        let arena = Arena::new();
        arena.checkin(Matrix::filled(6, 3, -0.0));
        let z = arena.checkout_zeroed(4, 3);
        assert_eq!(arena.minted(), 0);
        assert_eq!(z.shape(), (4, 3));
        assert_eq!(z.data().len(), 12);
        assert!(z.data().iter().all(|v| v.to_bits() == 0), "{:?}", z.data());
    }

    #[test]
    fn zeroed_checkout_matches_fresh_zeros_bitwise() {
        let arena = Arena::new();
        arena.checkin(Matrix::filled(2, 2, -3.5));
        let z = arena.checkout_zeroed(2, 2);
        let fresh = Matrix::zeros(2, 2);
        for (a, b) in z.data().iter().zip(fresh.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn zero_sized_shapes_are_fine() {
        let arena = Arena::new();
        let m = arena.checkout_zeroed(0, 5);
        assert_eq!(m.shape(), (0, 5));
        arena.checkin(m);
        let again = arena.checkout(0, 5);
        assert!(again.is_empty());
    }

    #[test]
    fn steady_state_mints_nothing() {
        let arena = Arena::new();
        for _ in 0..4 {
            let a = arena.checkout_zeroed(5, 7);
            let b = arena.checkout(5, 7);
            arena.checkin(a);
            arena.checkin(b);
        }
        // Two live at once => two minted total, ever.
        assert_eq!(arena.minted(), 2);
        assert_eq!(arena.reused(), 6);
    }
}
