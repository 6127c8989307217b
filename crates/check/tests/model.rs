//! Pristine-protocol exploration: every scenario must survive every
//! schedule the budget affords. Explored/pruned counts are printed so
//! CI (which runs with `--nocapture`) records coverage.
//!
//! Set `GNMR_MODEL_REPLAY=<token>` (a token printed by a failure) to
//! re-execute exactly one interleaving with a readable trace — see
//! `replay_env_token`.

use gnmr_check::scenario;

fn explore(name: &str) {
    let s = scenario::find(name).expect("scenario registered");
    match scenario::explore_pristine(s) {
        Ok(stats) => {
            println!(
                "model: {name}: {} schedules explored ({} random), {} pruned, exhaustive={}",
                stats.explored, stats.random, stats.pruned, stats.exhaustive
            );
        }
        Err(failure) => panic!("{failure}"),
    }
}

#[test]
fn dispatch_drain_is_sound() {
    explore("dispatch-drain");
}

#[test]
fn zero_workers_caller_drains() {
    explore("zero-workers");
}

#[test]
fn nested_dispatch_is_sound() {
    explore("nested-dispatch");
}

#[test]
fn panic_propagation_is_sound() {
    explore("panic-propagation");
}

#[test]
fn implicit_cap_is_sound() {
    explore("implicit-cap");
}

#[test]
fn concurrent_dispatchers_are_sound() {
    explore("concurrent-dispatchers");
}

/// Manual replay hook: no-op unless `GNMR_MODEL_REPLAY` carries a
/// token (as printed in a `ModelFailure`). The replayed schedule's
/// full trace goes to stdout; the test fails iff the token still
/// reproduces a violation, so a fixed bug turns this green again.
#[test]
fn replay_env_token() {
    let Ok(token) = std::env::var("GNMR_MODEL_REPLAY") else { return };
    if let Err(report) = scenario::replay_token(token.trim()) {
        panic!("{report}");
    }
}
