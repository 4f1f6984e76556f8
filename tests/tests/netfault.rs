//! Focused lossy-link regressions that the broad `repro sweep --axis
//! netfault` grid only covers incidentally:
//!
//! - duplicate-intake guards: at-least-once delivery replays `Idle`
//!   heartbeats and `Reject` answers, and the master must treat the
//!   replay as old news (no double idle-pool insert, no double
//!   re-offer advance);
//! - determinism: a sim run under a lossy plan must replay
//!   byte-identically from its `(run seed, net seed)` pair, because
//!   that pair is the replay recipe every failure report prints.

use crossbid_checker::{Family, Outcome, Replay, Runtime, Scenario};
use crossbid_crossflow::{LinkFault, NetFaultPlan};

/// Every protocol builtin with `links` as its lossy-link shape.
fn builtins_with(links: NetFaultPlan) -> Vec<Scenario> {
    Scenario::builtins(Family::Protocol)
        .into_iter()
        .map(|sc| Scenario {
            links: links.clone(),
            ..sc
        })
        .collect()
}

/// One run of `sc` with its links armed from `net_seed`.
fn run(sc: &Scenario, runtime: Runtime, run_seed: u64, net_seed: u64) -> Outcome {
    let replay = Replay {
        net: Some(net_seed),
        ..Replay::new(run_seed)
    };
    sc.run(runtime, &replay)
}

/// Every job completed exactly once and the oracle is clean.
fn assert_exactly_once(sc: &Scenario, out: &Outcome, what: &str) {
    assert_eq!(
        out.jobs_completed(),
        sc.expected_completions(),
        "{} {what}: {}/{} jobs completed",
        sc.name,
        out.jobs_completed(),
        sc.expected_completions()
    );
    let (violations, _) = sc.violations(out, false);
    assert!(violations.is_empty(), "{} {what}: {violations:?}", sc.name);
}

/// A plan that barely drops but duplicates aggressively in both
/// directions: the worst case for intake-side dedup (replayed `Idle`,
/// `Reject`, bids and `Done`) while keeping delivery near-certain so
/// every scenario still has to complete.
fn dup_heavy_links() -> NetFaultPlan {
    let link = LinkFault {
        drop_prob: 0.05,
        dup_prob: 0.9,
        delay_min_secs: 0.0,
        delay_max_secs: 0.02,
    };
    NetFaultPlan {
        to_worker: link,
        to_master: link,
        ..NetFaultPlan::none()
    }
}

/// Duplicated worker→master traffic (Idle beats, Reject answers,
/// Done reports) must leave every builtin scenario with exactly-once
/// effects on the sim engine. A double idle-pool insert or a double
/// re-offer advance surfaces as an oracle violation or a wrong
/// completion count.
#[test]
fn dup_heavy_links_keep_sim_exactly_once() {
    for sc in builtins_with(dup_heavy_links()) {
        for seed in [11u64, 12, 13] {
            let out = run(&sc, Runtime::Sim, seed, seed ^ 0xD0D0);
            assert_exactly_once(&sc, &out, &format!("seed {seed} under dup-heavy links"));
            assert!(
                out.counter("net/duplicated") > 0,
                "{} seed {seed}: the dup axis never fired, test proves nothing",
                sc.name
            );
        }
    }
}

/// Same property on the threaded runtime, where replays arrive over
/// real channels and the intake guards (not the sim's event order) do
/// the work.
#[test]
fn dup_heavy_links_keep_threaded_exactly_once() {
    for sc in builtins_with(dup_heavy_links()) {
        let run_seed = 0x1D1E;
        let out = run(&sc, Runtime::Threaded, run_seed, run_seed ^ 0x4E37);
        assert_exactly_once(&sc, &out, "under dup-heavy links");
    }
}

/// Constant-delay links (no drops, no duplicates): every message
/// survives but sits in a delayed buffer first, so the run leans
/// entirely on the drain loops that release matured traffic.
/// Regression for an order-stability bug: those loops used
/// `swap_remove`, which let equally-due messages overtake each other
/// in the buffer — out-of-order offers and acks that made recorded
/// (run seed, net seed) pairs unreplayable. Every builtin scenario
/// must stay exactly-once and oracle-clean on both runtimes.
#[test]
fn constant_delay_links_stay_exactly_once() {
    let link = LinkFault {
        drop_prob: 0.0,
        dup_prob: 0.0,
        delay_min_secs: 0.01,
        delay_max_secs: 0.01,
    };
    let links = NetFaultPlan {
        to_worker: link,
        to_master: link,
        ..NetFaultPlan::none()
    };
    for sc in builtins_with(links) {
        let sim = run(&sc, Runtime::Sim, 9, 0xDE1A);
        assert_exactly_once(&sc, &sim, "sim under constant-delay links");
        // And the replay contract holds: the identical run again.
        let again = run(&sc, Runtime::Sim, 9, 0xDE1A);
        assert_eq!(
            format!("{:?}", sim.log().events()),
            format!("{:?}", again.log().events()),
            "{}: constant-delay sim run did not replay",
            sc.name
        );
        let thr = run(&sc, Runtime::Threaded, 9, 0xDE1A);
        assert_exactly_once(&sc, &thr, "threaded under constant-delay links");
    }
}

/// A lossy sim run is part of the replay contract: same run seed +
/// same net plan must reproduce the identical control-plane log and
/// reliability counters, or the seeds printed in failure reports are
/// worthless.
#[test]
fn lossy_sim_runs_replay_byte_identically() {
    let links = NetFaultPlan::lossy(0, 0.3, 0.15).with_partition(
        None,
        crossbid_simcore::SimTime::from_secs(2),
        crossbid_simcore::SimTime::from_secs(4),
    );
    for sc in builtins_with(links) {
        let a = run(&sc, Runtime::Sim, 42, 0xACE);
        let b = run(&sc, Runtime::Sim, 42, 0xACE);
        assert_eq!(
            format!("{:?}", a.log().events()),
            format!("{:?}", b.log().events()),
            "{}: two identical lossy runs diverged",
            sc.name
        );
        assert_eq!(
            a.runs()[0].metrics.counters,
            b.runs()[0].metrics.counters,
            "{}: reliability counters diverged between identical runs",
            sc.name
        );
    }
}
