//! The scenario corpus: small, named protocol workouts the explorer
//! drives through every interleaving it can afford.
//!
//! Each scenario is a plain `fn()` executed on vthread 0 ("main") once
//! per explored schedule. Scenarios call the *real* pool entry points
//! (`crate::par` is `crates/tensor/src/par.rs` compiled against the
//! model `sync` backend) and assert the protocol invariants inline:
//!
//! * **exactly-once** — every chunk index runs once (counted via plain
//!   `std` mutexes, which are not schedule points and so do not
//!   perturb the explored interleavings);
//! * **quiesce** — when a dispatch returns, every chunk's effect is
//!   visible to the caller;
//! * **panics reach the caller** — a chunk panic rethrows from the
//!   dispatch call, and the pool survives;
//! * **the hardware cap** — under implicit configuration (no
//!   `set_threads`) a dispatch grows the pool to at most
//!   `available_parallelism - 1` workers (the model pins the hardware
//!   at 4 threads).
//!
//! Lost wakeups and deadlocks need no assertion: the scheduler detects
//! them when no thread can run (see [`crate::sched`] for when such a
//! stop is a clean end instead).
//!
//! Pool workers never exit, so a scenario ends by settling
//! ([`sched::settle`]): main waits until every other vthread has
//! finished or parked, and only then recounts its chunks. Model statics
//! reset between schedules by epoch stamping, so each schedule starts
//! with no override and an empty pool.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex as StdMutex;

use crate::par;
use crate::sched::{self, ExploreCfg, ExploreStats, ModelFailure, RunCfg, Token};
use crate::sync::{Arc, Condvar, Mutex};

/// A named protocol workout.
#[derive(Clone, Copy, Debug)]
pub struct Scenario {
    pub name: &'static str,
    /// Run with thread spawning forced to fail (exercises the
    /// zero-worker caller-drains guarantee).
    pub fail_spawns: bool,
    pub body: fn(),
}

/// Every scenario, in documentation order.
pub fn all() -> &'static [Scenario] {
    &[
        Scenario { name: "dispatch-drain", fail_spawns: false, body: dispatch_drain },
        Scenario { name: "zero-workers", fail_spawns: true, body: zero_workers },
        Scenario { name: "nested-dispatch", fail_spawns: false, body: nested_dispatch },
        Scenario { name: "panic-propagation", fail_spawns: false, body: panic_propagation },
        Scenario { name: "implicit-cap", fail_spawns: false, body: implicit_cap },
        Scenario { name: "concurrent-dispatchers", fail_spawns: false, body: concurrent_dispatchers },
    ]
}

pub fn find(name: &str) -> Option<&'static Scenario> {
    all().iter().find(|s| s.name == name)
}

fn cfg_for(s: &Scenario, fault: Option<&str>) -> ExploreCfg {
    ExploreCfg {
        run: RunCfg {
            fail_spawns: s.fail_spawns,
            fault: fault.map(str::to_string),
            ..RunCfg::default()
        },
        ..ExploreCfg::default()
    }
}

/// Explores the pristine protocol through `s` under the default
/// (env-tunable) budget.
pub fn explore_pristine(s: &Scenario) -> Result<ExploreStats, ModelFailure> {
    sched::explore(s.name, &cfg_for(s, None), s.body)
}

/// Explores `s` with one fault site switched on — the mutant corpus
/// entry point. A `Err` here means the checker *caught* the seeded bug.
pub fn explore_with_fault(s: &Scenario, site: &str) -> Result<ExploreStats, ModelFailure> {
    sched::explore(s.name, &cfg_for(s, Some(site)), s.body)
}

/// Re-executes the single schedule a token describes, printing the
/// readable trace (the `GNMR_MODEL_REPLAY` entry point).
pub fn replay_token(token_str: &str) -> Result<(), String> {
    let token = Token::parse(token_str)?;
    let s = find(&token.scenario)
        .ok_or_else(|| format!("token names unknown scenario {:?}", token.scenario))?;
    match sched::replay(&token, s.fail_spawns, s.body) {
        Ok(()) => Ok(()),
        Err(f) => Err(f.to_string()),
    }
}

// ----- invariant helpers -----------------------------------------------

/// Per-row execution counter; `std` mutex on purpose (not a schedule
/// point — bookkeeping must not perturb the schedule space).
fn assert_exactly_once(counts: &StdMutex<Vec<usize>>, what: &str) {
    let c = counts.lock().unwrap_or_else(|e| e.into_inner());
    assert!(c.iter().all(|&n| n == 1), "{what}: rows not executed exactly once: {c:?}");
}

/// One dispatch of `data`'s rows at `threads` participants whose
/// chunks each add 1 to their rows and tick `counts`; checks every row
/// at quiesce. Both buffers belong to the scenario body, so a chunk a
/// racy claim duplicated after the dispatch returned still writes into
/// live memory, and the body's recount after settling sees it.
fn counted_dispatch(data: &mut [u32], threads: usize, counts: &StdMutex<Vec<usize>>, what: &str) {
    let rows = data.len();
    par::for_each_row_chunk(data, rows, threads, |range, chunk| {
        for v in chunk.iter_mut() {
            *v += 1;
        }
        let mut c = counts.lock().unwrap_or_else(|e| e.into_inner());
        for r in range {
            c[r] += 1;
        }
    });
    assert!(data.iter().all(|&v| v == 1), "{what}: chunk effects not exactly once at quiesce: {data:?}");
}

// ----- scenarios -------------------------------------------------------

/// One static-schedule dispatch: 2 chunks, caller + 1 worker racing
/// the claim counter, then quiesce. The data check at quiesce sees a
/// chunk that ran twice as well as one that never ran; the recount
/// after settling catches a duplicate that ran after the dispatch
/// returned.
fn dispatch_drain() {
    par::set_threads(Some(2));
    let mut data = vec![0u32; 2];
    let counts = StdMutex::new(vec![0usize; 2]);
    counted_dispatch(&mut data, 2, &counts, "dispatch-drain");
    sched::settle();
    assert_exactly_once(&counts, "dispatch-drain");
}

/// Spawning fails: the dispatch must still complete, with the caller
/// draining every chunk itself.
fn zero_workers() {
    par::set_threads(Some(3));
    let mut data = vec![0u32; 3];
    let counts = StdMutex::new(vec![0usize; 3]);
    counted_dispatch(&mut data, 3, &counts, "zero-workers");
    assert_eq!(par::pool_workers(), 0, "no workers can exist when spawning fails");
    sched::settle();
    assert_exactly_once(&counts, "zero-workers");
}

/// A chunk closure that itself dispatches. From the worker, the nested
/// call queues its notification while the pool's one worker (itself)
/// is busy, so it completes only by draining its own job; from the
/// caller it is a plain re-entrant dispatch. Both must complete and be
/// exactly-once.
fn nested_dispatch() {
    par::set_threads(Some(2));
    let rows = 2;
    let mut data = vec![0u32; rows];
    let counts = StdMutex::new(vec![0usize; rows]);
    par::for_each_row_chunk(&mut data, rows, 2, |range, chunk| {
        let mut inner = vec![0u32; 2];
        par::for_each_row_chunk(&mut inner, 2, 2, |_, c| {
            for v in c.iter_mut() {
                *v += 1;
            }
        });
        assert!(inner.iter().all(|&v| v == 1), "nested dispatch lost chunks: {inner:?}");
        for v in chunk.iter_mut() {
            *v += 1;
        }
        let mut c = counts.lock().unwrap_or_else(|e| e.into_inner());
        for r in range {
            c[r] += 1;
        }
    });
    assert!(data.iter().all(|&v| v == 1), "outer dispatch lost chunks: {data:?}");
    sched::settle();
    assert_exactly_once(&counts, "nested-dispatch");
}

/// A chunk panic must rethrow from the dispatch on the caller, and the
/// pool must remain usable afterwards.
fn panic_propagation() {
    par::set_threads(Some(2));
    let caught = catch_unwind(AssertUnwindSafe(|| {
        let mut data = vec![0u32; 2];
        par::for_each_row_chunk(&mut data, 2, 2, |range, _chunk| {
            if range.contains(&1) {
                panic!("chunk-boom");
            }
        });
    }));
    match caught {
        Err(payload) => {
            let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
            assert_eq!(msg, "chunk-boom", "wrong panic payload reached the caller");
        }
        Ok(()) => panic!("chunk panic must reach the caller"),
    }
    let mut after = vec![0u32; 2];
    par::for_each_row_chunk(&mut after, 2, 2, |_, chunk| {
        for v in chunk.iter_mut() {
            *v += 1;
        }
    });
    assert!(after.iter().all(|&v| v == 1), "pool unusable after a propagated panic");
    sched::settle();
}

/// Implicit configuration: no `set_threads`, so a dispatch at 5
/// participants joins at most 3 workers to its caller (the model's
/// hardware has 4 threads), and grows the pool no further.
fn implicit_cap() {
    let mut data = vec![0u32; 5];
    let counts = StdMutex::new(vec![0usize; 5]);
    counted_dispatch(&mut data, 5, &counts, "implicit-cap");
    sched::settle();
    assert_exactly_once(&counts, "implicit-cap");
    let workers = par::pool_workers();
    assert!(workers <= 3, "implicit-cap: {workers} workers exceed the hardware cap of 3");
}

/// Two dispatching threads sharing one pool: main races a spawned
/// rival, each with its own job; both must quiesce exactly-once.
fn concurrent_dispatchers() {
    par::set_threads(Some(2));
    let flag = Arc::new((Mutex::new(false), Condvar::new()));
    let rival_flag = Arc::clone(&flag);
    crate::sync::spawn_named("rival".to_string(), move || {
        let mut data = vec![0u32; 2];
        par::for_each_row_chunk(&mut data, 2, 2, |_, chunk| {
            for v in chunk.iter_mut() {
                *v += 1;
            }
        });
        assert!(data.iter().all(|&v| v == 1), "rival dispatch lost chunks: {data:?}");
        let (m, cv) = &*rival_flag;
        *m.lock().unwrap() = true;
        cv.notify_all();
    })
    .expect("rival spawn must succeed");
    let mut data = vec![0u32; 2];
    par::for_each_row_chunk(&mut data, 2, 2, |_, chunk| {
        for v in chunk.iter_mut() {
            *v += 1;
        }
    });
    assert!(data.iter().all(|&v| v == 1), "main dispatch lost chunks: {data:?}");
    let (m, cv) = &*flag;
    let mut done = m.lock().unwrap();
    while !*done {
        done = cv.wait(done).unwrap();
    }
    drop(done);
    sched::settle();
}
