//! Two copies of a piece of work side by side, one per core.
//!
//! Each of the measuring host's two cores is shared with other tenants
//! and slows down by up to 1.6x, independently of the other, for seconds
//! to minutes at a time. Contention only ever adds time, so the faster
//! of two copies run side by side is the work's time on a quiet core.

use std::thread;
use std::time::Instant;

/// Runs `a` on this thread and `b` on another, side by side.
pub fn side_by_side<A: Send, B: Send>(a: impl FnOnce() -> A + Send, b: impl FnOnce() -> B + Send) -> (A, B) {
    thread::scope(|s| {
        let b = s.spawn(b);
        let a = a();
        (a, b.join().expect("benchmark thread panicked"))
    })
}

/// Set-up timing: `pairs` pairs of `make` run side by side. Returns the
/// faster time of each pair, in seconds, and the last `keep` values
/// made; the others are dropped as soon as they are made.
pub fn setups<T: Send>(pairs: usize, keep: usize, make: impl Fn() -> T + Sync) -> (Vec<f64>, Vec<T>) {
    let timed = || {
        let t = Instant::now();
        let value = make();
        (t.elapsed().as_secs_f64(), value)
    };
    let mut times = Vec::with_capacity(pairs);
    let mut kept = Vec::with_capacity(keep + 2);
    for _ in 0..pairs {
        let ((ta, a), (tb, b)) = side_by_side(timed, timed);
        times.push(ta.min(tb));
        kept.extend([a, b]);
        let extra = kept.len().saturating_sub(keep);
        kept.drain(..extra);
    }
    (times, kept)
}
