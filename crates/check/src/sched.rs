//! The cooperative virtual-thread scheduler and schedule explorer.
//!
//! One virtual thread (vthread) runs at a time. Every operation on the
//! model `sync` facade is a **schedule point**: the running thread
//! announces what it is about to do, the scheduler picks which runnable
//! thread goes next (a recorded choice), and the thread blocks on a
//! global condvar until it is picked again. Re-executing the same
//! choice sequence replays the same interleaving exactly — the basis
//! for both DFS exploration (backtrack by re-running a longer/changed
//! choice prefix) and failure replay tokens.
//!
//! Exploration runs in two phases: bounded-exhaustive DFS with
//! sleep-set pruning (classic DPOR-lite: after exploring action `a` at
//! a node, `a` sleeps in sibling subtrees until a dependent action
//! wakes it — pruning schedules that only commute independent ops),
//! then a seeded-random sampling tail over the remaining budget. Both
//! are deterministic: the RNG is SplitMix64 from a fixed seed, never
//! ambient entropy.
//!
//! Deadlock (no runnable thread while some are blocked), step-budget
//! overruns (livelock), and unexpected panics on a vthread are detected
//! here; protocol invariants (exactly-once chunks, quiesce counts) are
//! asserted by the scenarios in [`crate::scenario`] and surface as
//! panics on vthread 0, which this module converts into a
//! [`ModelFailure`] carrying a replay token and a readable trace.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize as StdAtomicUsize, Ordering as StdOrdering};
use std::sync::{Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard, OnceLock as StdOnceLock};

/// Panic payload used to unwind virtual threads when a schedule ends
/// early (failure detected, or a sleep-set-pruned branch). Never
/// reported as a bug by itself.
pub struct ModelAbort;

/// What a vthread is about to do at a schedule point. Object ids make
/// ops comparable for the independence relation driving sleep sets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    AtomicLoad(usize),
    AtomicStore(usize),
    AtomicRmw(usize),
    MutexLock(usize),
    MutexUnlock(usize),
    /// Condvar wait touches both the condvar and its mutex.
    CondWait(usize, usize),
    CondNotifyOne(usize),
    CondNotifyAll(usize),
    OnceGet(usize),
    OnceInit(usize),
    Spawn,
}

impl Op {
    /// The sync objects this op touches; `None` means "global effect,
    /// conservatively dependent on everything" (spawn).
    fn objects(&self) -> Option<(usize, Option<usize>)> {
        match *self {
            Op::AtomicLoad(o) | Op::AtomicStore(o) | Op::AtomicRmw(o) => Some((o, None)),
            Op::MutexLock(o) | Op::MutexUnlock(o) => Some((o, None)),
            Op::CondWait(cv, m) => Some((cv, Some(m))),
            Op::CondNotifyOne(cv) | Op::CondNotifyAll(cv) => Some((cv, None)),
            Op::OnceGet(o) | Op::OnceInit(o) => Some((o, None)),
            Op::Spawn => None,
        }
    }
}

/// Two ops are independent iff they touch disjoint sync objects (and
/// neither has global effect). Two loads of the same atomic commute
/// too, but the coarser relation is sound — it only prunes less.
fn independent(a: &Op, b: &Op) -> bool {
    let (Some((a1, a2)), Some((b1, b2))) = (a.objects(), b.objects()) else {
        return false;
    };
    let hits = |x: usize| x == b1 || Some(x) == b2;
    !hits(a1) && !a2.is_some_and(hits)
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Status {
    Runnable,
    /// Blocked acquiring a mutex (object id).
    BlockedMutex(usize),
    /// Parked in a condvar wait (object id) until notified.
    BlockedCond(usize),
    Finished,
}

struct Thread {
    name: String,
    status: Status,
    /// The op announced at this thread's most recent schedule point;
    /// stays current while the thread is descheduled (it resumes into
    /// exactly this op), which is what sleep sets compare.
    pending: Option<Op>,
}

/// One node of the DFS tree: the runnable set seen there, each
/// thread's pending op, which options were fully explored, and the
/// sleep set inherited down the current path.
struct Frame {
    options: Vec<usize>,
    ops: Vec<Op>,
    /// Index into `options` taken on the pass currently executing.
    cur: usize,
    /// Option indices whose subtrees are fully explored.
    tried: Vec<usize>,
    /// Thread ids asleep at this node (sleep-set pruning).
    sleep: Vec<usize>,
}

enum Mode {
    Dfs,
    Random(u64),
    Replay(Vec<usize>),
}

struct Chooser {
    mode: Mode,
    frames: Vec<Frame>,
    depth: usize,
    /// Choice indices taken at multi-option points this schedule — the
    /// replay token payload.
    record: Vec<usize>,
    /// Position in the replay vector (Replay mode).
    replay_pos: usize,
}

enum Pick {
    Chosen(usize),
    /// Every enabled option is asleep: this interleaving is redundant.
    Pruned,
}

impl Chooser {
    fn begin_schedule(&mut self) {
        self.depth = 0;
        self.record.clear();
        self.replay_pos = 0;
    }

    fn pick(&mut self, options: &[usize], ops: &[Op]) -> Pick {
        let d = self.depth;
        self.depth += 1;
        let idx = match &mut self.mode {
            Mode::Dfs => {
                if d < self.frames.len() {
                    // Replaying the committed prefix of the current path.
                    debug_assert_eq!(self.frames[d].options, options, "nondeterministic replay");
                    self.frames[d].cur
                } else {
                    let sleep = match self.frames.last() {
                        None => Vec::new(),
                        Some(p) => {
                            let chosen_op = &p.ops[p.cur];
                            let mut s: Vec<usize> = Vec::new();
                            // Sleepers and fully-explored siblings stay
                            // asleep below iff independent of the op
                            // taken here.
                            for &t in p.sleep.iter().chain(p.tried.iter().map(|i| &p.options[*i])) {
                                let Some(pos) = p.options.iter().position(|&o| o == t) else { continue };
                                if independent(&p.ops[pos], chosen_op) && !s.contains(&t) {
                                    s.push(t);
                                }
                            }
                            s
                        }
                    };
                    let Some(cur) = (0..options.len()).find(|&i| !sleep.contains(&options[i])) else {
                        self.depth -= 1;
                        return Pick::Pruned;
                    };
                    self.frames.push(Frame {
                        options: options.to_vec(),
                        ops: ops.to_vec(),
                        cur,
                        tried: Vec::new(),
                        sleep,
                    });
                    cur
                }
            }
            Mode::Random(state) => (splitmix(state) as usize) % options.len(),
            Mode::Replay(choices) => {
                if options.len() > 1 {
                    let c = choices.get(self.replay_pos).copied().unwrap_or(0);
                    self.replay_pos += 1;
                    c.min(options.len() - 1)
                } else {
                    0
                }
            }
        };
        if options.len() > 1 {
            self.record.push(idx);
        }
        Pick::Chosen(idx)
    }

    /// Advances the DFS to the next unexplored path. Returns `false`
    /// when the tree is exhausted.
    fn backtrack(&mut self) -> bool {
        loop {
            let Some(f) = self.frames.last_mut() else { return false };
            f.tried.push(f.cur);
            let next = (0..f.options.len())
                .find(|i| !f.tried.contains(i) && !f.sleep.contains(&f.options[*i]));
            match next {
                Some(i) => {
                    f.cur = i;
                    return true;
                }
                None => {
                    self.frames.pop();
                }
            }
        }
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Why a schedule stopped early.
#[derive(Clone, Debug)]
enum Abort {
    /// Sleep-set pruning: branch redundant, not a bug.
    Pruned,
    Failure(String),
}

struct State {
    threads: Vec<Thread>,
    current: usize,
    abort: Option<Abort>,
    /// All threads finished (normal schedule end).
    done: bool,
    steps: usize,
    trace: Vec<(usize, Op)>,
    chooser: Chooser,
    mutex_owner: HashMap<usize, usize>,
    cond_waiters: HashMap<usize, Vec<usize>>,
    cfg: RunCfg,
    /// The active fault site already tripped this schedule (faults are
    /// one-shot; see [`fault_active`]).
    fault_fired: bool,
    handles: Vec<std::thread::JoinHandle<()>>,
}

#[derive(Clone, Debug)]
pub struct RunCfg {
    pub max_steps: usize,
    /// `spawn_named` reports failure without spawning (zero-worker
    /// scenarios exercise the caller-drains guarantee).
    pub fail_spawns: bool,
    /// Active fault-injection site, if any (mutant corpus).
    pub fault: Option<String>,
}

impl Default for RunCfg {
    fn default() -> Self {
        RunCfg { max_steps: env_usize("GNMR_MODEL_STEPS", 20_000), fail_spawns: false, fault: None }
    }
}

fn env_usize(var: &str, default: usize) -> usize {
    std::env::var(var).ok().and_then(|s| s.trim().parse().ok()).filter(|&n| n > 0).unwrap_or(default)
}

struct Shared {
    m: StdMutex<State>,
    cv: StdCondvar,
}

fn shared() -> &'static Shared {
    static SHARED: StdOnceLock<Shared> = StdOnceLock::new();
    SHARED.get_or_init(|| Shared {
        m: StdMutex::new(State {
            threads: Vec::new(),
            current: 0,
            abort: None,
            done: true,
            steps: 0,
            trace: Vec::new(),
            chooser: Chooser {
                mode: Mode::Dfs,
                frames: Vec::new(),
                depth: 0,
                record: Vec::new(),
                replay_pos: 0,
            },
            mutex_owner: HashMap::new(),
            cond_waiters: HashMap::new(),
            cfg: RunCfg::default(),
            fault_fired: false,
            handles: Vec::new(),
        }),
        cv: StdCondvar::new(),
    })
}

fn lock() -> StdMutexGuard<'static, State> {
    shared().m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Epoch stamp for model-object storage: bumping it between schedules
/// invalidates every model atomic / once-cache in place, so `static`
/// protocol state resets without unsafe.
static EPOCH: AtomicU64 = AtomicU64::new(1);

pub fn current_epoch() -> u64 {
    EPOCH.load(StdOrdering::Relaxed)
}

/// Fresh object id for a model sync object. Monotonic process-wide;
/// ids only feed the independence relation and trace labels.
pub fn next_object_id() -> usize {
    static NEXT: StdAtomicUsize = StdAtomicUsize::new(0);
    NEXT.fetch_add(1, StdOrdering::Relaxed)
}

/// Whether the mutant corpus switched `site` on. One-shot per
/// schedule: a seeded bug models a single protocol misstep, and
/// re-firing would turn a site on a loop path (e.g. the racy claim,
/// reached once per chunk) into a cascade of missteps whose
/// counterexample hides which one broke the invariant.
pub fn fault_active(site: &str) -> bool {
    let mut st = lock();
    if st.fault_fired || st.cfg.fault.as_deref() != Some(site) {
        return false;
    }
    st.fault_fired = true;
    true
}

/// Install the silent panic hook once per process: model teardown
/// unwinds vthreads with [`ModelAbort`] and scenarios raise deliberate
/// chunk panics, both of which would otherwise spam stderr. Real
/// failures are reported through [`ModelFailure`], never the hook.
fn install_hook() {
    static ONCE: StdOnceLock<()> = StdOnceLock::new();
    ONCE.get_or_init(|| {
        std::panic::set_hook(Box::new(|_| {}));
    });
}

// ----- schedule points -------------------------------------------------

fn abort_unwind() -> ! {
    std::panic::panic_any(ModelAbort)
}

/// Picks who runs next. Called with the state lock held, by whichever
/// thread just announced an op, blocked, or finished.
fn choose_next(st: &mut State) {
    if st.abort.is_some() || st.done {
        shared().cv.notify_all();
        return;
    }
    let options: Vec<usize> = st
        .threads
        .iter()
        .enumerate()
        .filter(|(_, t)| t.status == Status::Runnable)
        .map(|(i, _)| i)
        .collect();
    if options.is_empty() {
        if st.threads.iter().all(|t| t.status == Status::Finished) {
            st.done = true;
        } else {
            let blocked: Vec<String> = st
                .threads
                .iter()
                .filter(|t| t.status != Status::Finished)
                .map(|t| format!("{} ({:?} at {:?})", t.name, t.status, t.pending))
                .collect();
            st.abort =
                Some(Abort::Failure(format!("deadlock: no runnable thread; blocked: {}", blocked.join(", "))));
        }
        shared().cv.notify_all();
        return;
    }
    let ops: Vec<Op> = options
        .iter()
        .map(|&t| st.threads[t].pending.clone().expect("runnable thread with no pending op"))
        .collect();
    match st.chooser.pick(&options, &ops) {
        Pick::Pruned => st.abort = Some(Abort::Pruned),
        Pick::Chosen(i) => {
            st.current = options[i];
            st.steps += 1;
            if st.steps > st.cfg.max_steps {
                st.abort = Some(Abort::Failure(format!(
                    "step budget exceeded ({} schedule points): livelock or runaway schedule",
                    st.cfg.max_steps
                )));
            }
        }
    }
    shared().cv.notify_all();
}

/// Blocks until this thread is scheduled (or the schedule aborts, in
/// which case the caller must unwind).
fn wait_turn(mut st: StdMutexGuard<'static, State>, me: usize) -> StdMutexGuard<'static, State> {
    while st.abort.is_none() && st.current != me {
        st = shared().cv.wait(st).unwrap_or_else(|e| e.into_inner());
    }
    st
}

/// The uniform pre-op schedule point: announce `op`, let the scheduler
/// pick, wait for our turn, and return with the lock held so the
/// caller can apply the op's effect atomically. Unwinds on abort.
///
/// During panic unwinding (guard drops on an aborting thread) the
/// scheduling dance is skipped — panicking inside `Drop` would abort
/// the process — and the caller applies its effect immediately.
fn pre_yield(op: Op) -> Option<StdMutexGuard<'static, State>> {
    let mut st = lock();
    if st.abort.is_some() {
        if std::thread::panicking() {
            return Some(st);
        }
        drop(st);
        abort_unwind();
    }
    if std::thread::panicking() {
        return Some(st);
    }
    let me = st.current;
    st.threads[me].pending = Some(op.clone());
    choose_next(&mut st);
    st = wait_turn(st, me);
    if st.abort.is_some() {
        drop(st);
        abort_unwind();
    }
    st.trace.push((me, op));
    Some(st)
}

// ----- facade entry points (called by the model sync types) ------------

pub fn atomic_op(id: usize, kind: &'static str) {
    let op = match kind {
        "load" => Op::AtomicLoad(id),
        "store" => Op::AtomicStore(id),
        _ => Op::AtomicRmw(id),
    };
    drop(pre_yield(op));
}

pub fn once_op(id: usize, init: bool) {
    drop(pre_yield(if init { Op::OnceInit(id) } else { Op::OnceGet(id) }));
}

/// Acquire the model mutex `id`, blocking (virtually) while owned.
pub fn mutex_acquire(id: usize) {
    let Some(mut st) = pre_yield(Op::MutexLock(id)) else { return };
    let me = st.current;
    loop {
        if let Entry::Vacant(slot) = st.mutex_owner.entry(id) {
            slot.insert(me);
            return;
        }
        st.threads[me].status = Status::BlockedMutex(id);
        choose_next(&mut st);
        st = wait_turn(st, me);
        if st.abort.is_some() {
            drop(st);
            abort_unwind();
        }
    }
}

/// Release the model mutex `id`, waking threads blocked on it.
pub fn mutex_release(id: usize) {
    let Some(mut st) = pre_yield(Op::MutexUnlock(id)) else { return };
    release_locked(&mut st, id);
}

fn release_locked(st: &mut State, id: usize) {
    st.mutex_owner.remove(&id);
    for t in st.threads.iter_mut() {
        if t.status == Status::BlockedMutex(id) {
            t.status = Status::Runnable;
        }
    }
}

/// Condvar wait: atomically release `mutex`, park on `cv` until
/// notified, then re-acquire `mutex` before returning.
pub fn cond_wait(cv: usize, mutex: usize) {
    let Some(mut st) = pre_yield(Op::CondWait(cv, mutex)) else { return };
    let me = st.current;
    release_locked(&mut st, mutex);
    st.cond_waiters.entry(cv).or_default().push(me);
    st.threads[me].status = Status::BlockedCond(cv);
    choose_next(&mut st);
    st = wait_turn(st, me);
    if st.abort.is_some() {
        drop(st);
        abort_unwind();
    }
    // Notified: re-acquire the mutex, competing with everyone else.
    loop {
        if let Entry::Vacant(slot) = st.mutex_owner.entry(mutex) {
            slot.insert(me);
            return;
        }
        st.threads[me].status = Status::BlockedMutex(mutex);
        choose_next(&mut st);
        st = wait_turn(st, me);
        if st.abort.is_some() {
            drop(st);
            abort_unwind();
        }
    }
}

/// Notify waiters on model condvar `cv`. Wakes in FIFO order — a
/// deliberate determinism choice (std makes no ordering promise; the
/// protocol must not rely on one, and any schedule-dependent bug FIFO
/// could mask is still reachable through claim/queue interleavings).
pub fn cond_notify(cv: usize, all: bool) {
    let op = if all { Op::CondNotifyAll(cv) } else { Op::CondNotifyOne(cv) };
    let Some(mut st) = pre_yield(op) else { return };
    let waiters = st.cond_waiters.entry(cv).or_default();
    let k = if all { waiters.len() } else { waiters.len().min(1) };
    let woken: Vec<usize> = waiters.drain(..k).collect();
    for t in woken {
        st.threads[t].status = Status::Runnable;
        // The waiter resumes into its mutex re-acquisition.
        if let Some(Op::CondWait(_, m)) = st.threads[t].pending {
            st.threads[t].pending = Some(Op::MutexLock(m));
        }
    }
}

/// Spawn refused: the scenario models spawn failure (`fail_spawns`),
/// the schedule is aborting, or the OS itself declined the thread.
#[derive(Debug)]
pub struct SpawnDenied;

/// Spawn a vthread on a real (but scheduler-gated) OS thread.
pub fn spawn(name: String, f: impl FnOnce() + Send + 'static) -> Result<(), SpawnDenied> {
    let Some(mut st) = pre_yield(Op::Spawn) else { return Err(SpawnDenied) };
    if st.cfg.fail_spawns {
        return Err(SpawnDenied);
    }
    let tid = st.threads.len();
    let handle = std::thread::Builder::new()
        .name(name.clone())
        .spawn(move || {
            let proceed = first_wait(tid);
            let err = if proceed { catch_unwind(AssertUnwindSafe(f)).err() } else { None };
            finish_thread(tid, err);
        })
        .map_err(|_| SpawnDenied)?;
    st.threads.push(Thread { name, status: Status::Runnable, pending: Some(Op::Spawn) });
    st.handles.push(handle);
    Ok(())
}

/// A fresh vthread's first block: wait to be scheduled at all.
fn first_wait(me: usize) -> bool {
    let st = lock();
    let st = wait_turn(st, me);
    st.abort.is_none()
}

fn finish_thread(me: usize, err: Option<Box<dyn std::any::Any + Send>>) {
    let mut st = lock();
    st.threads[me].status = Status::Finished;
    st.threads[me].pending = None;
    if let Some(payload) = err {
        if !payload.is::<ModelAbort>() && st.abort.is_none() {
            st.abort = Some(Abort::Failure(format!(
                "unexpected panic on vthread {}: {}",
                st.threads[me].name,
                payload_str(&*payload)
            )));
        }
    }
    choose_next(&mut st);
}

fn payload_str(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string payload>".to_string()
    }
}

// ----- schedule runner -------------------------------------------------

/// Outcome of one executed schedule.
enum ScheduleOutcome {
    Ok,
    Pruned,
    Failed { reason: String, token: String, trace: Vec<String> },
}

/// Serializes model runs: the scheduler state is process-global, so
/// concurrently-running `#[test]`s must take turns.
fn explore_lock() -> StdMutexGuard<'static, ()> {
    static LOCK: StdMutex<()> = StdMutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Executes one schedule of `body` on vthread 0 under the configured
/// chooser, tears every vthread down, and classifies the result.
fn run_schedule(name: &str, body: fn()) -> ScheduleOutcome {
    install_hook();
    {
        let mut st = lock();
        EPOCH.fetch_add(1, StdOrdering::Relaxed);
        st.threads.clear();
        st.threads.push(Thread {
            name: "main".to_string(),
            status: Status::Runnable,
            pending: Some(Op::Spawn),
        });
        st.current = 0;
        st.abort = None;
        st.done = false;
        st.steps = 0;
        st.trace.clear();
        st.mutex_owner.clear();
        st.cond_waiters.clear();
        st.fault_fired = false;
        st.chooser.begin_schedule();
    }
    let result = catch_unwind(AssertUnwindSafe(body));
    // Tear down: mark vthread 0 finished, schedule the stragglers
    // (retiring workers draining their exit paths), and wait for the
    // world to go quiet.
    let mut failure: Option<String> = None;
    {
        let mut st = lock();
        if let Err(payload) = result {
            if !payload.is::<ModelAbort>() && st.abort.is_none() {
                failure = Some(format!("invariant violated on main: {}", payload_str(&*payload)));
                st.abort = Some(Abort::Failure(failure.clone().unwrap()));
            }
        }
        st.threads[0].status = Status::Finished;
        st.threads[0].pending = None;
        choose_next(&mut st);
        while st.abort.is_none() && !st.done {
            st = shared().cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        // On abort, blocked vthreads have been released (the wait
        // predicate includes `abort`); give them a beat to unwind out
        // of their current facade op before joining below.
    }
    let handles: Vec<_> = {
        let mut st = lock();
        st.handles.drain(..).collect()
    };
    for h in handles {
        let _ = h.join();
    }
    let mut st = lock();
    match st.abort.take() {
        None => ScheduleOutcome::Ok,
        Some(Abort::Pruned) => ScheduleOutcome::Pruned,
        Some(Abort::Failure(reason)) => {
            let reason = failure.unwrap_or(reason);
            let token = render_token(name, st.cfg.fault.as_deref(), &st.chooser.record);
            let trace = st
                .trace
                .iter()
                .enumerate()
                .map(|(i, (t, op))| format!("  step {i:4}: [{}] {:?}", st.threads[*t].name, op))
                .collect();
            ScheduleOutcome::Failed { reason, token, trace }
        }
    }
}

// ----- replay tokens ---------------------------------------------------

/// `v1:<scenario>:<fault-or-empty>:<dot-separated choice indices>` —
/// everything needed to re-execute one interleaving from scratch.
fn render_token(scenario: &str, fault: Option<&str>, choices: &[usize]) -> String {
    let cs: Vec<String> = choices.iter().map(|c| c.to_string()).collect();
    format!("v1:{scenario}:{}:{}", fault.unwrap_or(""), cs.join("."))
}

/// Parsed form of a replay token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Token {
    pub scenario: String,
    pub fault: Option<String>,
    pub choices: Vec<usize>,
}

impl Token {
    pub fn parse(s: &str) -> Result<Token, String> {
        let mut it = s.splitn(4, ':');
        let (v, scen, fault, choices) =
            (it.next().unwrap_or(""), it.next(), it.next(), it.next());
        if v != "v1" {
            return Err(format!("unsupported token version {v:?} (expected v1)"));
        }
        let (Some(scen), Some(fault), Some(choices)) = (scen, fault, choices) else {
            return Err("malformed token: expected v1:<scenario>:<fault>:<choices>".to_string());
        };
        let parsed: Result<Vec<usize>, _> = if choices.is_empty() {
            Ok(Vec::new())
        } else {
            choices.split('.').map(|c| c.parse::<usize>().map_err(|e| e.to_string())).collect()
        };
        Ok(Token {
            scenario: scen.to_string(),
            fault: (!fault.is_empty()).then(|| fault.to_string()),
            choices: parsed.map_err(|e| format!("bad choice index: {e}"))?,
        })
    }
}

// ----- exploration -----------------------------------------------------

/// Exploration budget and fault configuration for one scenario.
#[derive(Clone, Debug)]
pub struct ExploreCfg {
    /// DFS schedule budget (bounded-exhaustive phase).
    pub dfs_schedules: usize,
    /// Seeded-random sampling budget, used only when DFS did not
    /// exhaust the tree within its budget.
    pub random_schedules: usize,
    pub seed: u64,
    pub run: RunCfg,
}

impl Default for ExploreCfg {
    fn default() -> Self {
        ExploreCfg {
            dfs_schedules: env_usize("GNMR_MODEL_SCHEDULES", 1200),
            random_schedules: env_usize("GNMR_MODEL_RANDOM", 200),
            seed: 0x6e6d_7231,
            run: RunCfg::default(),
        }
    }
}

/// What an exploration covered.
#[derive(Clone, Debug)]
pub struct ExploreStats {
    pub scenario: String,
    /// Schedules actually executed (DFS + random), excluding pruned.
    pub explored: usize,
    /// Branches cut by sleep-set pruning.
    pub pruned: usize,
    /// Random-phase schedules included in `explored`.
    pub random: usize,
    /// The DFS tree was fully explored within budget.
    pub exhaustive: bool,
}

/// A schedule that violated an invariant, with everything needed to
/// reproduce it.
#[derive(Clone, Debug)]
pub struct ModelFailure {
    pub scenario: String,
    pub reason: String,
    pub token: String,
    pub trace: Vec<String>,
}

impl std::fmt::Display for ModelFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "model failure in scenario `{}`: {}", self.scenario, self.reason)?;
        writeln!(f, "replay: GNMR_MODEL_REPLAY={}", self.token)?;
        let skip = self.trace.len().saturating_sub(40);
        if skip > 0 {
            writeln!(f, "  ... {skip} earlier steps elided (replay for the full trace)")?;
        }
        for line in &self.trace[skip..] {
            writeln!(f, "{line}")?;
        }
        Ok(())
    }
}

/// Explores `body` under `cfg`: bounded-exhaustive DFS first, then a
/// seeded-random tail if the DFS budget ran out. Returns coverage
/// stats, or the first failing schedule.
pub fn explore(name: &str, cfg: &ExploreCfg, body: fn()) -> Result<ExploreStats, ModelFailure> {
    let _guard = explore_lock();
    let mut stats = ExploreStats {
        scenario: name.to_string(),
        explored: 0,
        pruned: 0,
        random: 0,
        exhaustive: false,
    };
    {
        let mut st = lock();
        st.cfg = cfg.run.clone();
        st.chooser.mode = Mode::Dfs;
        st.chooser.frames.clear();
    }
    // Phase 1: DFS with sleep sets.
    loop {
        if stats.explored + stats.pruned >= cfg.dfs_schedules {
            break;
        }
        match run_schedule(name, body) {
            ScheduleOutcome::Ok => stats.explored += 1,
            ScheduleOutcome::Pruned => stats.pruned += 1,
            ScheduleOutcome::Failed { reason, token, trace } => {
                return Err(ModelFailure { scenario: name.to_string(), reason, token, trace });
            }
        }
        if !lock().chooser.backtrack() {
            stats.exhaustive = true;
            return Ok(stats);
        }
    }
    // Phase 2: seeded-random sampling of the uncovered remainder.
    for i in 0..cfg.random_schedules {
        {
            let mut st = lock();
            st.chooser.mode = Mode::Random(cfg.seed.wrapping_add(i as u64));
        }
        match run_schedule(name, body) {
            ScheduleOutcome::Ok | ScheduleOutcome::Pruned => {
                stats.explored += 1;
                stats.random += 1;
            }
            ScheduleOutcome::Failed { reason, token, trace } => {
                return Err(ModelFailure { scenario: name.to_string(), reason, token, trace });
            }
        }
    }
    Ok(stats)
}

/// Re-executes exactly one schedule from a replay token, printing the
/// full readable trace. `body` must be the scenario the token names;
/// `fault` likewise. Returns `Ok` if the schedule passes (i.e. the
/// token no longer reproduces), or the failure.
pub fn replay(token: &Token, fail_spawns: bool, body: fn()) -> Result<(), ModelFailure> {
    let _guard = explore_lock();
    {
        let mut st = lock();
        st.cfg = RunCfg { fault: token.fault.clone(), fail_spawns, ..RunCfg::default() };
        st.chooser.mode = Mode::Replay(token.choices.clone());
        st.chooser.frames.clear();
    }
    let outcome = run_schedule(&token.scenario, body);
    let trace: Vec<String> = {
        let st = lock();
        st.trace
            .iter()
            .enumerate()
            .map(|(i, (t, op))| format!("  step {i:4}: [{}] {:?}", st.threads[*t].name, op))
            .collect()
    };
    println!("replaying {} ({} choices):", token.scenario, token.choices.len());
    for line in &trace {
        println!("{line}");
    }
    match outcome {
        ScheduleOutcome::Ok | ScheduleOutcome::Pruned => {
            println!("replay: schedule completed without violation");
            Ok(())
        }
        ScheduleOutcome::Failed { reason, token: tok, trace } => {
            println!("replay: FAILED — {reason}");
            Err(ModelFailure { scenario: token.scenario.clone(), reason, token: tok, trace })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn independence_is_object_disjointness() {
        assert!(independent(&Op::AtomicRmw(1), &Op::MutexLock(2)));
        assert!(!independent(&Op::AtomicRmw(1), &Op::AtomicLoad(1)));
        assert!(!independent(&Op::CondWait(3, 4), &Op::MutexUnlock(4)));
        assert!(independent(&Op::CondWait(3, 4), &Op::MutexUnlock(5)));
        assert!(!independent(&Op::Spawn, &Op::AtomicLoad(9)));
    }

    #[test]
    fn token_round_trips() {
        let t = Token::parse("v1:dispatch-drain::0.1.2").unwrap();
        assert_eq!(t.scenario, "dispatch-drain");
        assert_eq!(t.fault, None);
        assert_eq!(t.choices, vec![0, 1, 2]);
        let t = Token::parse("v1:fine-chunks:racy-claim:").unwrap();
        assert_eq!(t.fault.as_deref(), Some("racy-claim"));
        assert!(t.choices.is_empty());
        assert!(Token::parse("v0:x::1").is_err());
        assert!(Token::parse("v1:x").is_err());
    }

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = 42u64;
        let mut b = 42u64;
        let xs: Vec<u64> = (0..8).map(|_| splitmix(&mut a)).collect();
        let ys: Vec<u64> = (0..8).map(|_| splitmix(&mut b)).collect();
        assert_eq!(xs, ys);
        assert!(xs.windows(2).any(|w| w[0] != w[1]));
    }
}
