//! The shared parallel execution substrate: a lazily-initialized
//! **persistent worker pool** with row-range partitioning, plus the
//! workspace-wide thread-count config.
//!
//! The workspace's parallel loops — the ranking sweeps
//! (`kernels::row_dots`, `kernels::rank_rows`), the serving batch, the
//! evaluation protocol and the repro harness — route through this
//! module, so a single knob governs the whole binary. Training (the
//! forward's products, the backward and the optimizer) runs on the
//! calling thread and never dispatches here. The thread count
//! resolves, in order:
//!
//! 1. a programmatic override set with [`set_threads`];
//! 2. the `GNMR_THREADS` environment variable (positive integer, **read
//!    once per process** and cached — see [`ENV_VAR`]);
//! 3. [`std::thread::available_parallelism`].
//!
//! # Pool lifecycle
//!
//! Workers are long-lived `std` threads parked on a condvar, spawned
//! lazily by the first parallel dispatch and reused by every subsequent
//! one, so sub-millisecond kernels no longer pay per-call thread-spawn
//! overhead. The pool grows on demand (a dispatch that wants more
//! workers than exist spawns the difference) and shrinks gracefully
//! when [`set_threads`] lowers the configured count (surplus workers
//! are retired and joined). Callers are still expected to gate small
//! workloads to a serial path so even the (much smaller) dispatch
//! overhead never dominates (see the `kernels` module).
//!
//! Dispatch can never deadlock on pool capacity: the dispatching thread
//! participates in its own job and drains any chunks the workers have
//! not claimed, so every call completes even with zero live workers.
//! Nested parallel calls (a chunk closure that itself invokes
//! [`for_each_row_chunk`]) are detected via a thread-local and run
//! inline on the worker in serial chunk order — safe, deterministic,
//! and never queue-blocking.
//!
//! # Determinism
//!
//! [`for_each_row_chunk`] hands each worker a *disjoint, row-aligned*
//! slice of the output, so there are no write races and no reduction
//! step: any partition of the rows yields the same result as the serial
//! loop, bit for bit, as long as the per-row computation is itself
//! deterministic. All kernels in this crate are written that way, which
//! preserves the workspace "same seed, same bytes" contract at every
//! thread count. Which thread executes a chunk (a pool worker, the
//! caller, or — for nested calls — the enclosing worker) never affects
//! the bytes produced.

// The workspace denies `unsafe_code`; this module is the single,
// deliberate exception. Persistent workers outlive any one call, so
// handing them borrowed chunk slices cannot be expressed in safe Rust
// (scoped threads can — but die with the call, which is exactly the
// spawn overhead this pool removes). Every unsafe operation here is
// guarded by the claim/quiesce protocol documented on `Job`: a chunk
// pointer is dereferenced only after a successful claim, and the
// dispatching caller blocks until every chunk has quiesced, so the
// borrows it holds strictly outlive all worker accesses.
//
// Because the protocol is hand-rolled, it is *model checked*: every
// synchronization operation below goes through `crate::sync` (never
// `std::sync`/`std::thread` directly — the `sync-facade` analyzer rule
// enforces this), and `crates/check` compiles this same source file
// against a virtual-thread scheduler that explores interleavings of
// those operations. The `sync::fault("...")` sites are mutation hooks
// for the checker's mutant corpus; in this crate they are `const false`
// and fold away.
#![allow(unsafe_code)]

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::AssertUnwindSafe;

use crate::sync::atomic::{AtomicUsize, Ordering};
use crate::sync::{available_parallelism_raw, spawn_named, Arc, Condvar, Mutex, OnceLock};

// ----- thread-count config --------------------------------------------

/// Programmatic thread-count override; 0 means "unset".
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Name of the environment variable consulted by [`num_threads`].
///
/// The variable is read **once per process** (on the first call that
/// needs it) and cached: re-pointing `GNMR_THREADS` mid-process has no
/// effect, which keeps the hottest dispatch path free of environment
/// lookups and immune to races with code mutating the environment. Use
/// [`set_threads`] for dynamic reconfiguration.
pub const ENV_VAR: &str = "GNMR_THREADS";

/// Cached once-per-process resolution of [`ENV_VAR`].
static ENV_THREADS: OnceLock<Option<usize>> = OnceLock::new();

/// Cached hardware parallelism.
static HW_THREADS: OnceLock<usize> = OnceLock::new();

/// Sets (or with `None` clears) the programmatic thread-count override.
///
/// Takes precedence over `GNMR_THREADS` and the hardware default.
/// `Some(0)` is treated as `None`. If the worker pool is already
/// running, it is resized to match the new configuration: surplus
/// workers are retired and joined immediately; growth happens eagerly
/// too, so the next dispatch finds the pool ready.
pub fn set_threads(n: Option<usize>) {
    // ORDERING: Relaxed — the override is a standalone flag; no other
    // memory is published through it, and `resize_pool` below reads the
    // new value through `num_threads` on this same thread.
    OVERRIDE.store(n.unwrap_or(0), Ordering::Relaxed);
    resize_pool(num_threads().saturating_sub(1));
}

/// Whether a programmatic [`set_threads`] override is active. An
/// explicit override is an exact contract: dispatch honors it without
/// the hardware-parallelism caps applied to implicit configuration
/// (`GNMR_THREADS` / the default), both because the caller may know
/// better than `available_parallelism` (cgroup misdetection) and so
/// the cross-thread test suites exercise the full pool machinery on
/// any machine.
fn explicit_override() -> bool {
    // ORDERING: Relaxed — standalone flag, no dependent data (see the
    // store in `set_threads`).
    OVERRIDE.load(Ordering::Relaxed) > 0
}

fn env_threads() -> Option<usize> {
    ENV_THREADS.get_or_init(|| {
        std::env::var(ENV_VAR).ok().and_then(|s| s.trim().parse::<usize>().ok()).filter(|&n| n > 0)
    })
}

/// The number of worker threads parallel kernels should use.
///
/// Resolution order: [`set_threads`] override, then `GNMR_THREADS`
/// (ignored unless it parses to a positive integer; read once per
/// process, see [`ENV_VAR`]), then
/// [`std::thread::available_parallelism`]. Always at least 1.
pub fn num_threads() -> usize {
    // ORDERING: Relaxed — standalone flag, no dependent data (see the
    // store in `set_threads`).
    let o = OVERRIDE.load(Ordering::Relaxed);
    if o > 0 {
        return o;
    }
    env_threads().unwrap_or_else(hardware_threads)
}

/// The machine's available parallelism (1 if it cannot be determined).
pub fn hardware_threads() -> usize {
    HW_THREADS.get_or_init(available_parallelism_raw)
}

// ----- partitioning ---------------------------------------------------

/// Splits `0..rows` into at most `parts` contiguous, balanced ranges.
///
/// Earlier ranges are at most one row longer than later ones; fewer
/// ranges are returned when `rows < parts`, and an **empty `Vec`** when
/// `rows == 0` (no spurious `0..0` chunk). `parts` is clamped to at
/// least 1.
pub fn partition(rows: usize, parts: usize) -> Vec<Range<usize>> {
    if rows == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, rows);
    let base = rows / parts;
    let extra = rows % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for t in 0..parts {
        let len = base + usize::from(t < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

// ----- the persistent worker pool -------------------------------------

/// One in-flight parallel call: a set of `total` chunks claimed
/// competitively by pool workers and the dispatching caller.
///
/// Chunks are handed out one way: a shared counter, claimed one index
/// at a time. That is already dynamic scheduling — a thread held up on
/// a heavy chunk simply claims fewer of the rest — so uneven chunk
/// weights need a finer plan (more, smaller ranges through
/// `for_each_row_chunk_ranges`), not a second hand-out discipline.
///
/// The queue holds `Arc<Job>` *notifications*; they are advisory — the
/// caller always drains its own job to completion, so a notification
/// popped after the job finished claims nothing and is a no-op. `ctx`
/// points into the dispatching caller's stack and is only dereferenced
/// by a thread that successfully claimed a chunk (`next < total`),
/// which the caller outlives by construction (it blocks until
/// `done == total`).
struct Job {
    /// The next unclaimed chunk index: chunk `i` goes to whoever
    /// increments past it first.
    next: AtomicUsize,
    /// Total number of chunks.
    total: usize,
    /// Completed chunks; the caller sleeps on `cv` until it hits
    /// `total`.
    done: Mutex<usize>,
    cv: Condvar,
    /// First panic payload raised by a chunk closure, rethrown on the
    /// calling thread once the job has fully quiesced.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Monomorphized trampoline running chunk `i` of the call context.
    // SAFETY: callers must pass the `ctx` this fn pointer was
    // monomorphized for; enforced by construction in `run_chunks`.
    run: unsafe fn(*const (), usize),
    /// Type-erased pointer to the caller-stack closure.
    ctx: *const (),
}

// SAFETY: `ctx` crosses threads, but is only dereferenced under the
// claim protocol described on the struct; everything else is Sync.
unsafe impl Send for Job {}
// SAFETY: same argument as `Send` above — shared access is mediated
// by the chunk-claim protocol and the interior mutexes.
unsafe impl Sync for Job {}

impl Job {
    /// Claims and runs chunks until none remain. Called by workers and
    /// by the dispatching caller alike.
    fn work(&self) {
        loop {
            let i = self.claim();
            if i >= self.total {
                return;
            }
            self.run_chunk(i);
        }
    }

    /// Claims the next chunk index (`>= total` once none remain).
    fn claim(&self) -> usize {
        if crate::sync::fault("racy-claim") {
            // Seeded bug: the claim split into a load and a store, so
            // two threads can read the same index and both run that
            // chunk (mutant corpus only; `fault` is const false in
            // normal builds).
            // ORDERING: Relaxed — same argument as the real claim
            // below; the bug is the lost atomicity, not the ordering.
            let i = self.next.load(Ordering::Relaxed);
            // ORDERING: Relaxed — see the load above.
            self.next.store(i + 1, Ordering::Relaxed);
            return i;
        }
        // ORDERING: Relaxed — the counter only partitions chunk indices
        // (fetch_add atomicity alone guarantees each index is claimed
        // once); it publishes no data. Chunk *outputs* reach the caller
        // through the `done` mutex (unlock in `run_chunk` happens-before
        // the caller's lock in `wait`), and the Job itself reached this
        // thread through the pool's state mutex.
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Runs one claimed chunk and ticks the completion protocol.
    fn run_chunk(&self, i: usize) {
        // Chunks are independent; a panic in one must not abandon
        // the completion protocol (the caller would deadlock and
        // the borrow it holds would outlive the unwinding), so the
        // payload is parked and rethrown by the caller.
        //
        // SAFETY: `ctx` points at the caller's closure, alive until
        // `wait` returns, and `run` is the trampoline monomorphized
        // for exactly that closure type.
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| unsafe {
            (self.run)(self.ctx, i)
        }));
        if let Err(payload) = result {
            self.panic.lock().unwrap().get_or_insert(payload);
        }
        let mut done = self.done.lock().unwrap();
        *done += 1;
        if *done == self.total && !crate::sync::fault("drop-done-notify") {
            self.cv.notify_all();
        }
    }

    /// Blocks until every chunk has completed.
    fn wait(&self) {
        let mut done = self.done.lock().unwrap();
        while *done < self.total {
            done = self.cv.wait(done).unwrap();
        }
    }
}

struct PoolState {
    queue: VecDeque<Arc<Job>>,
    /// Number of workers currently alive (spawned, retirement not yet
    /// acknowledged). The pool's *effective* size is `live - retiring`.
    live: usize,
    /// Pending retirement tokens. Any worker that wakes while one is
    /// outstanding consumes it and exits — retirement is by count, not
    /// by identity, so a concurrent grow can never resurrect a worker
    /// another thread is waiting on.
    retiring: usize,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Parks idle workers; notified on job arrival and on shrink (so
    /// workers observe retirement tokens). Only workers wait here —
    /// dispatch's targeted `notify_one` wakeups must never be absorbed
    /// by a blocked resizer.
    cv: Condvar,
    /// Parks `resize_pool` shrink-waiters; notified when a worker
    /// acknowledges a retirement token and when a grow cancels pending
    /// tokens. Shares the `state` mutex with `cv`.
    resize_cv: Condvar,
}

static POOL: OnceLock<Arc<PoolShared>> = OnceLock::new();

thread_local! {
    /// Set for the lifetime of every pool worker thread; nested
    /// parallel calls detect it and run inline instead of re-entering
    /// the queue (which could otherwise stall behind their own caller).
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

fn pool() -> Arc<PoolShared> {
    POOL.get_or_init(|| {
        Arc::new(PoolShared {
            state: Mutex::new(PoolState { queue: VecDeque::new(), live: 0, retiring: 0 }),
            cv: Condvar::new(),
            resize_cv: Condvar::new(),
        })
    })
}

/// Monotonic counter naming worker threads (names are purely cosmetic;
/// retirement is by token, not identity).
static WORKER_SEQ: AtomicUsize = AtomicUsize::new(0);

fn worker_loop(shared: Arc<PoolShared>) {
    IN_WORKER.with(|w| w.set(true));
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap();
            loop {
                // Retirement first, so shrinks complete promptly even
                // under a steady stream of dispatches (callers drain
                // their own jobs regardless).
                if st.retiring > 0 {
                    if crate::sync::fault("reorder-retire-decrement") {
                        // Seeded bug: acknowledge the wrong counter —
                        // `retiring` never drains, so a blocked shrinker
                        // waits forever (mutant corpus only).
                        st.live -= 1;
                    } else {
                        st.retiring -= 1;
                        st.live -= 1;
                    }
                    shared.resize_cv.notify_all();
                    return;
                }
                if let Some(job) = st.queue.pop_front() {
                    break job;
                }
                st = shared.cv.wait(st).unwrap();
            }
        };
        job.work();
    }
}

/// Grows the pool (under its already-held state lock) so its effective
/// size (`live - retiring`) reaches `want`, first cancelling pending
/// retirements, then spawning. Never shrinks (see [`resize_pool`]).
fn grow_locked(shared: &Arc<PoolShared>, st: &mut PoolState, want: usize) {
    let mut cancelled = false;
    while st.live - st.retiring < want && st.retiring > 0 {
        st.retiring -= 1;
        cancelled = true;
    }
    if cancelled {
        // A shrinker may be blocked waiting for `retiring` to drain;
        // cancellation is also progress it must observe.
        shared.resize_cv.notify_all();
    }
    while st.live - st.retiring < want {
        let sh = Arc::clone(shared);
        // ORDERING: Relaxed — monotonic name counter, purely cosmetic.
        let id = WORKER_SEQ.fetch_add(1, Ordering::Relaxed);
        match spawn_named(format!("gnmr-par-{id}"), move || worker_loop(sh)) {
            Ok(()) => st.live += 1, // detached; exits via a retire token
            Err(_) => break,        // degrade gracefully; callers self-drain
        }
    }
}

/// Resizes the pool to exactly `workers` effective workers — but only
/// if the pool has already been started (a process that never
/// dispatched in parallel never spawns threads). Shrinking issues
/// retirement tokens and blocks until surplus workers acknowledge them.
/// A worker busy on a job acknowledges only after draining that whole
/// job (it claims chunks until none remain before re-checking pool
/// state), so a shrink can block for the worker's full current job —
/// not merely its current chunk. Chunks retirees never claimed are
/// drained by their dispatching callers, so no work is lost. Called
/// from inside a pool worker, the shrink is requested but not awaited
/// (a worker cannot wait for its own retirement).
fn resize_pool(workers: usize) {
    let Some(shared) = POOL.get() else { return };
    let mut st = shared.state.lock().unwrap();
    let effective = st.live - st.retiring;
    if effective < workers {
        grow_locked(&shared, &mut st, workers);
        return;
    }
    st.retiring += effective - workers;
    drop(st);
    shared.cv.notify_all();
    if IN_WORKER.with(|w| w.get()) {
        return;
    }
    let mut st = shared.state.lock().unwrap();
    while st.retiring > 0 {
        st = shared.resize_cv.wait(st).unwrap();
    }
}

/// Number of currently live pool workers, net of pending retirements
/// (0 before the first parallel dispatch, and after a resize to a
/// single thread). Exposed for the pool-lifecycle tests; kernels
/// should not branch on it.
pub fn pool_workers() -> usize {
    POOL.get().map_or(0, |shared| {
        let st = shared.state.lock().unwrap();
        st.live - st.retiring
    })
}

// SAFETY: caller must pass a `ctx` obtained by erasing a live `&F`;
// `run_chunks` pairs each trampoline with its own closure's pointer.
unsafe fn trampoline<F: Fn(usize) + Sync>(ctx: *const (), i: usize) {
    // SAFETY: per the fn contract, `ctx` is a valid `*const F` whose
    // referent outlives the dispatch (the caller blocks in `wait`).
    unsafe { (*ctx.cast::<F>())(i) }
}

/// Runs `f(0)..f(chunks-1)` across the pool and the calling thread,
/// returning when all chunks completed. `f` must tolerate concurrent
/// invocation for distinct indices; each index is invoked exactly once.
///
/// `participants` caps how many threads (pool workers + the caller)
/// share the job; the plan may cut more chunks than that, and each
/// participant claims chunks until none remain.
fn run_chunks<F: Fn(usize) + Sync>(chunks: usize, participants: usize, f: &F) {
    let participants = participants.clamp(1, chunks.max(1));
    // The oversubscription guard: under *implicit* configuration
    // (GNMR_THREADS or the hardware default), dispatch never spawns or
    // wakes more workers than the machine can co-schedule with the
    // caller. A programmatic `set_threads` override lifts the cap —
    // an explicit contract, honored exactly (see [`explicit_override`]).
    let hw_cap = if explicit_override() { usize::MAX } else { hardware_threads() };
    // Single-core hardware under implicit config is the degenerate
    // case: no worker could ever be woken (the notification cap below
    // would be zero), so the job/queue machinery would only add
    // allocation and lock traffic around a caller that drains every
    // chunk anyway. Run inline instead — chunk order 0..n, the serial
    // reference order, identical bytes.
    if chunks <= 1 || participants <= 1 || hw_cap <= 1 || IN_WORKER.with(|w| w.get()) {
        // Serial / nested path: same chunks, same order as the serial
        // reference — identical bytes, no queue involvement.
        for i in 0..chunks {
            f(i);
        }
        return;
    }
    let job = Arc::new(Job {
        next: AtomicUsize::new(0),
        total: chunks,
        done: Mutex::new(0),
        cv: Condvar::new(),
        panic: Mutex::new(None),
        run: trampoline::<F>,
        ctx: (f as *const F).cast(),
    });
    let shared = pool();
    let notifications = {
        let mut st = shared.state.lock().unwrap();
        // Dispatch-driven growth obeys the same cap as the
        // notifications below: a dispatch only spawns workers it will
        // also notify, so an oversubscribed implicit thread count
        // never accumulates permanently parked threads.
        grow_locked(&shared, &mut st, (participants - 1).min(hw_cap - 1));
        // Bounded three ways. (1) By the workers actually alive: with
        // zero live workers (a pool shrunk to one thread, or thread
        // spawning failing) nothing is queued at all — the
        // caller-drains-own-job rule means the dispatch below
        // completes regardless, and the pool queue can never
        // accumulate notifications no worker will pop. (2) By the
        // requested participants. (3) By the hardware cap (implicit
        // config only): waking a worker the machine cannot co-schedule
        // with the caller buys zero concurrency and costs context
        // switches and cache mixing mid-kernel, so GNMR_THREADS above
        // the core count degenerates to the caller draining its own
        // job — same bytes, none of the thrash. Un-woken notifications
        // are never enqueued, keeping the queue bounded by what will
        // actually be popped.
        let notifications =
            (participants - 1).min(st.live - st.retiring).min(hw_cap - 1);
        for _ in 0..notifications {
            st.queue.push_back(Arc::clone(&job));
        }
        notifications
    };
    // One targeted wakeup per queued notification: `notify_all` would
    // stampede every parked worker on each sub-millisecond dispatch. A
    // wakeup landing on a busy worker is harmless — workers re-check
    // the queue before parking, so advisory entries are never stranded.
    for _ in 0..notifications {
        shared.cv.notify_one();
    }
    if !crate::sync::fault("skip-caller-drain") {
        job.work(); // participate; drains every chunk no worker claimed
    }
    job.wait();
    let payload = job.panic.lock().unwrap().take();
    if let Some(payload) = payload {
        std::panic::resume_unwind(payload);
    }
}

/// A raw pointer that may cross threads; used to hand each claimed
/// chunk a disjoint `&mut` slice of the caller's buffer.
struct SendPtr<T>(*mut T);
// SAFETY: the pointer is only turned into `&mut` slices over disjoint
// chunk ranges (asserted to tile by the dispatchers), so moving it
// across threads cannot alias.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: shared access hands out only disjoint ranges — same
// tiling argument as `Send` above.
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor rather than field read so closures capture the whole
    /// (`Sync`) wrapper, not the raw (`!Sync`) pointer field.
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Runs `f(row_range, out_chunk)` over a row-partitioned `data` buffer,
/// on the persistent worker pool plus the calling thread.
///
/// `data` must be row-aligned: `data.len()` must be a multiple of
/// `rows` (the common case is a row-major matrix buffer, where the
/// implied row width is `data.len() / rows`). Each claimed chunk is a
/// disjoint `&mut` slice covering exactly the rows in its range, so the
/// closure needs no synchronization. With `threads <= 1` (or a single
/// row) the closure runs inline on the calling thread — the serial path
/// and the parallel path execute identical per-row code. Nested calls
/// from inside a chunk closure also run inline (serially, in chunk
/// order) rather than re-entering the pool.
///
/// The call blocks until every chunk has completed; a panic inside the
/// closure is rethrown on the calling thread after the job quiesces.
///
/// # Panics
/// If `rows > 0` and `data.len()` is not a multiple of `rows`.
pub fn for_each_row_chunk<T, F>(data: &mut [T], rows: usize, threads: usize, f: F)
where
    T: Send,
    F: Fn(Range<usize>, &mut [T]) + Sync,
{
    assert_row_aligned(data.len(), rows, "for_each_row_chunk");
    let threads = threads.clamp(1, rows.max(1));
    if threads <= 1 {
        f(0..rows, data);
        return;
    }
    let ranges = partition(rows, threads);
    row_chunk_dispatch(data, rows, &ranges, threads, &f);
}

/// Like [`for_each_row_chunk`], but over an explicit, caller-supplied
/// chunk plan: a caller can cut `ranges` finer than the thread count
/// (e.g. [`partition`] into several chunks per thread), and the
/// participants claim them one at a time. `threads` caps how many
/// threads share the job (the plan may hold many more chunks than
/// that).
///
/// `ranges` must be contiguous, in order, and cover `0..rows` exactly —
/// the shape [`partition`] produces.
/// Bytes written are independent of the plan and the thread count,
/// because each row still belongs to exactly one chunk.
///
/// # Panics
/// If `data` is not row-aligned or `ranges` does not tile `0..rows`;
/// either way before `f` runs on any chunk.
pub fn for_each_row_chunk_ranges<T, F>(data: &mut [T], rows: usize, ranges: &[Range<usize>], threads: usize, f: F)
where
    T: Send,
    F: Fn(Range<usize>, &mut [T]) + Sync,
{
    assert_row_aligned(data.len(), rows, "for_each_row_chunk_ranges");
    assert_ranges_tile(ranges, rows, "for_each_row_chunk_ranges");
    if rows == 0 {
        f(0..0, data);
        return;
    }
    row_chunk_dispatch(data, rows, ranges, threads, &f);
}

/// Shared dispatch body of the row-chunk entry points; `data` is
/// already validated to be row-aligned and `ranges` to tile `0..rows`.
fn row_chunk_dispatch<T, F>(data: &mut [T], rows: usize, ranges: &[Range<usize>], threads: usize, f: &F)
where
    T: Send,
    F: Fn(Range<usize>, &mut [T]) + Sync,
{
    let width = data.len() / rows;
    let base = SendPtr(data.as_mut_ptr());
    run_chunks(ranges.len(), threads, &|i: usize| {
        let range = ranges[i].clone();
        // SAFETY: the ranges tile 0..rows (validated by the caller), so
        // each chunk is an exclusive slice of `data`, which the caller
        // borrows mutably for the whole (blocking) call.
        let chunk = unsafe {
            std::slice::from_raw_parts_mut(base.get().add(range.start * width), range.len() * width)
        };
        f(range, chunk);
    });
}

/// Asserts that a buffer of `len` elements splits into `rows` rows of
/// equal width (and is empty when `rows == 0`).
fn assert_row_aligned(len: usize, rows: usize, who: &str) {
    assert!(
        if rows == 0 { len == 0 } else { len.is_multiple_of(rows) },
        "{who}: buffer length {len} is not row-aligned for {rows} rows"
    );
}

/// Asserts that `ranges` is a contiguous, in-order tiling of `0..rows`.
/// Memory safety of the chunk slices rests on this, so it runs in
/// release builds too — O(chunks), off the per-row path.
fn assert_ranges_tile(ranges: &[Range<usize>], rows: usize, who: &str) {
    let mut next = 0usize;
    for r in ranges {
        assert!(r.start == next && r.end >= r.start, "{who}: ranges must tile 0..{rows} in order (got {r:?} at offset {next})");
        next = r.end;
    }
    assert!(next == rows, "{who}: ranges cover 0..{next}, expected 0..{rows}");
}

// Unit tests run in `gnmr-tensor` only: `gnmr-check` includes this file
// under `cfg(gnmr_model)` and drives the pool through its own scenario
// suite instead (these tests assume real, free-running threads).
#[cfg(all(test, not(gnmr_model)))]
mod tests {
    use super::*;

    #[test]
    fn partition_is_balanced_and_covers() {
        for rows in [0usize, 1, 2, 7, 64, 1000] {
            for parts in [1usize, 2, 3, 4, 8] {
                let ranges = partition(rows, parts);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "gap at {r:?}");
                    next = r.end;
                }
                assert_eq!(next, rows, "rows={rows} parts={parts}");
                if let (Some(first), Some(last)) = (ranges.first(), ranges.last()) {
                    assert!(first.len() <= last.len() + 1);
                }
            }
        }
    }

    #[test]
    fn partition_never_exceeds_rows() {
        assert_eq!(partition(2, 8).len(), 2);
        assert_eq!(partition(0, 4), vec![]);
        assert_eq!(partition(0, 1), vec![]);
    }

    #[test]
    fn for_each_row_chunk_touches_every_row_once() {
        for threads in [1usize, 2, 3, 4, 9] {
            let rows = 13;
            let width = 3;
            let mut data = vec![0u32; rows * width];
            for_each_row_chunk(&mut data, rows, threads, |range, chunk| {
                for (local, row) in range.enumerate() {
                    for v in &mut chunk[local * width..(local + 1) * width] {
                        *v += row as u32 + 1;
                    }
                }
            });
            for r in 0..rows {
                assert!(data[r * width..(r + 1) * width].iter().all(|&v| v == r as u32 + 1));
            }
        }
    }

    #[test]
    fn for_each_row_chunk_zero_rows_is_noop() {
        let mut data: Vec<f32> = Vec::new();
        for_each_row_chunk(&mut data, 0, 4, |range, chunk| {
            assert!(range.is_empty());
            assert!(chunk.is_empty());
        });
    }

    #[test]
    fn for_each_row_chunk_zero_width_rows() {
        // cols == 0: every chunk is empty but every row range is visited.
        let mut data: Vec<f32> = Vec::new();
        let seen = crate::sync::Mutex::new(vec![false; 5]);
        for_each_row_chunk(&mut data, 5, 2, |range, _chunk| {
            let mut seen = seen.lock().unwrap();
            for r in range {
                seen[r] = true;
            }
        });
        assert!(seen.into_inner().unwrap().iter().all(|&b| b));
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let rows = 64;
        let mut data = vec![0u8; rows];
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            for_each_row_chunk(&mut data, rows, 4, |range, _chunk| {
                if range.contains(&17) {
                    panic!("boom in chunk");
                }
            });
        }));
        assert!(result.is_err(), "panic must cross the pool back to the caller");
        // The pool must stay usable after a propagated panic.
        let mut after = vec![0u32; rows];
        for_each_row_chunk(&mut after, rows, 4, |range, chunk| {
            for (local, r) in range.enumerate() {
                chunk[local] = r as u32;
            }
        });
        assert!(after.iter().enumerate().all(|(r, &v)| v == r as u32));
    }

    #[test]
    fn fine_row_plan_matches_serial_bitwise() {
        let rows = 41;
        let width = 5;
        let mut reference = vec![0u64; rows * width];
        for_each_row_chunk(&mut reference, rows, 1, |range, chunk| {
            for (local, r) in range.enumerate() {
                for (c, v) in chunk[local * width..(local + 1) * width].iter_mut().enumerate() {
                    *v = (r * 31 + c) as u64;
                }
            }
        });
        for threads in [2usize, 3, 4] {
            // A deliberately fine plan: many more chunks than threads,
            // so every participant claims several of them.
            let ranges = partition(rows, threads * 5);
            let mut out = vec![0u64; rows * width];
            for_each_row_chunk_ranges(&mut out, rows, &ranges, threads, |range, chunk| {
                for (local, r) in range.enumerate() {
                    for (c, v) in chunk[local * width..(local + 1) * width].iter_mut().enumerate() {
                        *v = (r * 31 + c) as u64;
                    }
                }
            });
            assert_eq!(out, reference, "threads={threads}");
        }
    }

    #[test]
    fn fine_plan_panic_propagates_and_pool_survives() {
        let rows = 48;
        let mut data = vec![0u8; rows];
        let ranges = partition(rows, 12);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            for_each_row_chunk_ranges(&mut data, rows, &ranges, 4, |range, _chunk| {
                if range.contains(&33) {
                    panic!("boom in a late chunk");
                }
            });
        }));
        assert!(result.is_err(), "panic must cross a fine plan back to the caller");
        let mut after = vec![0u32; rows];
        for_each_row_chunk(&mut after, rows, 4, |range, chunk| {
            for (local, r) in range.enumerate() {
                chunk[local] = r as u32;
            }
        });
        assert!(after.iter().enumerate().all(|(r, &v)| v == r as u32));
    }

    // The checks every `from_raw_parts_mut` above relies on. Each case
    // hands the dispatcher an invalid buffer or plan and a closure that
    // panics with a different message if it ever runs, so a case passes
    // only when the named check fires before any chunk does.

    fn never_called<T>(_: Range<usize>, _: &mut [T]) {
        panic!("closure ran on an invalid plan");
    }

    #[test]
    #[should_panic(expected = "for_each_row_chunk_ranges: ranges must tile 0..4 in order (got 2..4 at offset 1)")]
    fn row_plan_with_a_gap_panics_before_any_chunk() {
        for_each_row_chunk_ranges(&mut [0u32; 8], 4, &[0..1, 2..4], 2, never_called);
    }

    #[test]
    #[should_panic(expected = "for_each_row_chunk_ranges: ranges cover 0..3, expected 0..4")]
    fn row_plan_stopping_short_panics_before_any_chunk() {
        for_each_row_chunk_ranges(&mut [0u32; 8], 4, &[0..1, 1..3], 2, never_called);
    }

    #[test]
    #[should_panic(expected = "for_each_row_chunk_ranges: buffer length 7 is not row-aligned for 2 rows")]
    fn unaligned_buffer_panics_before_any_chunk() {
        for_each_row_chunk_ranges(&mut [0u32; 7], 2, &[0..1, 1..2], 2, never_called);
    }

    #[test]
    fn override_wins_and_clears() {
        // Serialized within this one test to avoid racing the global.
        set_threads(Some(3));
        assert_eq!(num_threads(), 3);
        set_threads(Some(0));
        assert!(num_threads() >= 1);
        set_threads(None);
        assert!(num_threads() >= 1);
    }
}
