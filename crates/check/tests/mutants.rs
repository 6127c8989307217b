//! The mutant corpus: each test switches on one `sync::fault` site in
//! `par.rs` — a seeded protocol bug — and proves the explorer finds a
//! schedule that exposes it. A mutant the model cannot kill means the
//! scenarios (or the scheduler) lost discriminating power, which is
//! exactly what this suite is a tripwire for.
//!
//! The last test also replays one counterexample from its compact
//! token and checks the same violation reproduces — the deterministic
//! replay contract (`GNMR_MODEL_REPLAY`) stays honest.

use gnmr_check::scenario;

/// Explores `scenario_name` with `site` switched on and returns the
/// failure the model is required to find.
fn must_catch(scenario_name: &str, site: &str) -> gnmr_check::sched::ModelFailure {
    let s = scenario::find(scenario_name).expect("scenario registered");
    match scenario::explore_with_fault(s, site) {
        Err(failure) => {
            println!("mutant {site}: caught by {scenario_name}: {}", failure.reason);
            println!("  token: {}", failure.token);
            failure
        }
        Ok(stats) => panic!(
            "mutant {site} survived {} schedules of {scenario_name} ({} pruned, exhaustive={})",
            stats.explored, stats.pruned, stats.exhaustive
        ),
    }
}

/// The last chunk's completion no longer signals the caller: some
/// schedule must leave the dispatcher asleep forever (deadlock).
#[test]
fn drop_done_notify_is_caught() {
    let failure = must_catch("dispatch-drain", "drop-done-notify");
    assert!(failure.reason.contains("deadlock"), "expected a deadlock, got: {}", failure.reason);
}

/// The dispatching caller no longer drains its own job: with zero
/// workers nothing ever runs the chunks and the wait never returns.
#[test]
fn skip_caller_drain_is_caught() {
    let failure = must_catch("zero-workers", "skip-caller-drain");
    assert!(failure.reason.contains("deadlock"), "expected a deadlock, got: {}", failure.reason);
}

/// The claim is split into a load and a store, so two threads can
/// claim the same chunk and it executes twice — the exactly-once
/// checks must object.
#[test]
fn racy_claim_is_caught() {
    let failure = must_catch("fine-chunks", "racy-claim");
    assert!(
        failure.reason.contains("exactly once"),
        "expected an exactly-once violation, got: {}",
        failure.reason
    );
}

/// A retiring worker decrements the wrong counter: `retiring` never
/// drains and the blocked shrinker waits forever.
#[test]
fn reorder_retire_decrement_is_caught() {
    let failure = must_catch("dispatch-drain", "reorder-retire-decrement");
    assert!(failure.reason.contains("deadlock"), "expected a deadlock, got: {}", failure.reason);
}

/// Deterministic replay: the token of a caught mutant re-executes to
/// the same violation, and clearing the fault (pristine replay of the
/// same choices) does not spuriously fail.
#[test]
fn counterexample_token_replays() {
    let failure = must_catch("dispatch-drain", "drop-done-notify");
    let err = scenario::replay_token(&failure.token)
        .expect_err("replaying the counterexample token must reproduce the violation");
    assert!(err.contains("deadlock"), "replay reproduced a different failure: {err}");
}
