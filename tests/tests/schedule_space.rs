//! The checker's tier-1 suite: sweep message-delivery interleavings
//! of the threaded runtime through the protocol invariant oracle, and
//! prove the oracle actually catches bugs by reintroducing each PR 1
//! protocol fix (via `crossbid-crossflow`'s test-only
//! `protocol-mutation` feature) and asserting the explorer finds a
//! violation, shrinks it, and prints a replayable repro (seed +
//! delivery schedule).
//!
//! Seeds are fixed so CI runs are reproducible; the scheduled
//! extended-exploration workflow sweeps fresh seeds.

use std::collections::{BTreeSet, HashSet};
use std::mem::{discriminant, Discriminant};

use crossbid_checker::{explore, ExploreConfig, Failure, Family, Report, Runtime, Scenario};
use crossbid_checker::{JobDef, Load, Mutation, Protocol, Replay, Violation};
use crossbid_crossflow::{FederationMutation, ProtocolMutation};

/// Chaos sweep over every built-in scenario. `CHECKER_ITERS` lets the
/// scheduled CI job deepen the exploration without a code change.
fn sweep_iters(default: u32) -> u32 {
    std::env::var("CHECKER_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Explore every builtin of `family` under `cfg`.
fn explore_family(family: Family, cfg: &ExploreConfig) -> Vec<Report> {
    Scenario::builtins(family)
        .iter()
        .map(|sc| explore(sc, cfg))
        .collect()
}

#[test]
fn correct_protocol_survives_chaos_on_every_builtin_scenario() {
    let cfg = ExploreConfig::quick(sweep_iters(4), 0xC0FFEE);
    for report in explore_family(Family::Protocol, &cfg) {
        assert!(report.passed(), "{}", report.render());
    }
}

#[test]
fn correct_protocol_survives_lossy_links_on_every_builtin_scenario() {
    // Chaos *and* net faults together: messages are held, reordered,
    // corrupted, dropped, duplicated, delayed, and a 2-virtual-second
    // full partition cuts both directions mid-run. The reliability
    // layer (acks + seeded retries + leases + dedup) must still land
    // every scenario with exactly-once effects and sim parity.
    let cfg = ExploreConfig::netfault(sweep_iters(3), 0xFEED5EED);
    for report in explore_family(Family::Protocol, &cfg) {
        assert!(report.passed(), "{}", report.render());
    }
}

fn builtin(name: &str) -> Scenario {
    Scenario::builtin(name).expect("known scenario")
}

fn mutated(mutation: ProtocolMutation, iters: u32, seed: u64) -> ExploreConfig {
    ExploreConfig {
        mutation: mutation.into(),
        repro_attempts: 2,
        ..ExploreConfig::quick(iters, seed)
    }
}

/// Like [`mutated`], but with lossy links + a partition window armed:
/// the environment whose countermeasure the mutation removes.
fn mutated_lossy(mutation: ProtocolMutation, iters: u32, seed: u64) -> ExploreConfig {
    ExploreConfig {
        netfault: true,
        // Chaos off: the net-fault layer supplies the adversity, and
        // keeping delivery otherwise faithful makes the causal chain
        // from lost/duplicated messages to the violation crisp.
        chaos: false,
        ..mutated(mutation, iters, seed)
    }
}

/// The failure report must be a complete repro recipe.
fn assert_replayable(report_text: &str, f: &Failure, expect_schedule: bool) {
    assert!(report_text.contains("VIOLATION"), "{report_text}");
    assert!(report_text.contains("minimal repro"), "{report_text}");
    assert!(
        report_text.contains(&format!("run seed {}", f.replay.run)),
        "{report_text}"
    );
    assert!(f.replay.keep_jobs.as_ref().is_some_and(|k| !k.is_empty()));
    if expect_schedule {
        assert!(
            !f.schedule.is_empty() && report_text.contains("delivery schedule"),
            "chaos failures must print the recorded interleaving: {report_text}"
        );
    }
}

#[test]
fn explorer_catches_reintroduced_nonfinite_bid_acceptance() {
    // PR 1 fix: the master drops NaN/∞ bid estimates at intake. The
    // chaos layer corrupts a seeded fraction of bids to NaN, so the
    // mutated master records them — a NonFiniteBid oracle violation.
    let sc = builtin("hot_repo_bidding");
    let report = explore(&sc, &mutated(ProtocolMutation::AcceptNonFiniteBids, 20, 11));
    let text = report.render();
    let f = report.failure.as_ref().unwrap_or_else(|| {
        panic!("mutated scheduler must be caught: {text}");
    });
    assert!(
        f.violations
            .iter()
            .any(|v| matches!(v, Violation::NonFiniteBid { .. })),
        "{text}"
    );
    assert!(
        f.replay.keep_jobs.as_ref().expect("shrunk").len() < sc.job_count(),
        "shrinking must drop at least one job: {text}"
    );
    assert_replayable(&text, f, true);
}

#[test]
fn explorer_catches_reintroduced_duplicate_bid_acceptance() {
    // PR 1 fix: a second bid from the same worker is ignored. Chaos
    // duplicates messages, so the mutated master records the copy —
    // a DuplicateBid oracle violation.
    let sc = builtin("hot_repo_bidding");
    let report = explore(&sc, &mutated(ProtocolMutation::AcceptDuplicateBids, 40, 13));
    let text = report.render();
    let f = report
        .failure
        .as_ref()
        .unwrap_or_else(|| panic!("mutated scheduler must be caught: {text}"));
    assert!(
        f.violations
            .iter()
            .any(|v| matches!(v, Violation::DuplicateBid { .. })),
        "{text}"
    );
    assert_replayable(&text, f, true);
}

#[test]
fn explorer_catches_reintroduced_late_bid_acceptance() {
    // PR 1 fix: bids arriving after their contest closed are ignored.
    // The mutated master lets the late bidder steal the job — visible
    // to the oracle as a bid outside an open contest and/or a second
    // assignment without a contest close.
    let sc = builtin("hot_repo_bidding");
    let report = explore(&sc, &mutated(ProtocolMutation::AcceptLateBids, 40, 17));
    let text = report.render();
    let f = report
        .failure
        .as_ref()
        .unwrap_or_else(|| panic!("mutated scheduler must be caught: {text}"));
    assert!(
        f.violations.iter().any(|v| matches!(
            v,
            Violation::BidAfterClose { .. }
                | Violation::AssignmentWithoutBid { .. }
                | Violation::AssignedWhilePlaced { .. }
        )),
        "{text}"
    );
    assert_replayable(&text, f, true);
}

/// One non-local job on a three-worker cluster: the correct Baseline
/// walks the offer through w0 → w1 → w2 and only then returns to w0
/// (reject-once), so a *direct* bounce back to the last rejector is
/// unambiguous — no chaos, no racing jobs.
fn lone_job_baseline() -> Scenario {
    Scenario::new(
        "lone_job_baseline",
        Protocol::Baseline,
        3,
        Load::stream(1, 1, 0.0, 50_000_000),
    )
}

#[test]
fn explorer_catches_removed_done_dedup() {
    // Net-fault countermeasure: the master dedups `Done` by job id,
    // because a lost `AckDone` makes the worker retransmit and a lossy
    // link duplicates outright. With the dedup removed, the duplicate
    // delivery double-counts — a CompletedTwice oracle violation.
    let sc = builtin("hot_repo_bidding");
    let report = explore(&sc, &mutated_lossy(ProtocolMutation::DropDedup, 30, 23));
    let text = report.render();
    let f = report
        .failure
        .as_ref()
        .unwrap_or_else(|| panic!("mutated scheduler must be caught: {text}"));
    assert!(
        f.violations
            .iter()
            .any(|v| matches!(v, Violation::CompletedTwice { .. })),
        "{text}"
    );
    assert!(
        text.contains(&format!("net seed {}", f.replay.net.expect("netfault run"))),
        "net-fault failures must print the replay triple: {text}"
    );
    assert_replayable(&text, f, false);
}

#[test]
fn explorer_catches_ignored_assign_acks() {
    // Net-fault countermeasure: an `AckAssign` cancels the placement's
    // retransmission and lease timers. With acks ignored, the lease on
    // a *confirmed* placement expires while the job executes — a
    // LeaseExpiredAfterAck oracle violation (and typically bounces the
    // job into a double execution the Done dedup then has to absorb).
    let sc = builtin("hot_repo_bidding");
    let report = explore(&sc, &mutated_lossy(ProtocolMutation::IgnoreAcks, 10, 29));
    let text = report.render();
    let f = report
        .failure
        .as_ref()
        .unwrap_or_else(|| panic!("mutated scheduler must be caught: {text}"));
    assert!(
        f.violations
            .iter()
            .any(|v| matches!(v, Violation::LeaseExpiredAfterAck { .. })),
        "{text}"
    );
    assert_replayable(&text, f, false);
}

#[test]
fn missing_leases_lose_jobs_behind_a_partition() {
    // Net-fault countermeasure: the placement lease. A partition that
    // outlives the retransmission budget swallows an assignment and
    // every retry of it; only the lease notices the silence and
    // bounces the job back to the scheduler. Remove the lease
    // (`NoLeases`) and the job is simply gone — a JobLost violation.
    //
    // Deterministic recipe, no random loss: both directions fully
    // partitioned for the run's first 30 virtual seconds, two jobs
    // arriving near t=0. Contest requests and the fallback
    // assignments vanish into the partition, as do all retries (the
    // budget is cut to 2 attempts, ~0.75 s, so even heavy wall-clock
    // scheduling slip — virtual time is wall-clock scaled — cannot
    // push a retransmission past the heal). With leases on, the
    // bounce/re-dispatch loop keeps the job alive until the partition
    // heals and the next dispatch lands it; with leases off, nothing
    // ever does.
    use crossbid_crossflow::{NetFaultPlan, RetryPolicy};
    use crossbid_simcore::SimTime;
    let sc = Scenario {
        links: NetFaultPlan::lossy(0, 0.0, 0.0)
            .with_partition(None, SimTime::ZERO, SimTime::from_secs_f64(30.0))
            .with_retry(RetryPolicy {
                max_attempts: 2,
                ..RetryPolicy::default()
            }),
        ..Scenario::new(
            "partitioned_assign_bidding",
            Protocol::Bidding,
            2,
            Load::Jobs(
                [0.0, 0.2]
                    .map(|at_secs| JobDef {
                        at_secs,
                        object: 1,
                        bytes: 50_000_000,
                    })
                    .to_vec(),
            ),
        )
    };
    let run = |mutation: ProtocolMutation, seed| {
        let replay = Replay {
            net: Some(seed),
            mutation: mutation.into(),
            ..Replay::new(seed)
        };
        let out = sc.run(Runtime::Threaded, &replay);
        sc.violations(&out, false).0
    };
    // Contrast: with leases armed the same partition is survivable.
    let clean = run(ProtocolMutation::None, 31);
    assert!(
        clean.is_empty(),
        "leases must ride out the partition: {clean:?}"
    );
    // The threaded runtime is nondeterministic; a lucky interleaving
    // could sneak a message around the partition edge, so probe a few
    // seeds and require the loss to show somewhere.
    let caught = (0..5).any(|i| {
        run(ProtocolMutation::NoLeases, 37 + i)
            .iter()
            .any(|v| matches!(v, Violation::JobLost { .. }))
    });
    assert!(caught, "removing leases must lose a partitioned job");
}

#[test]
fn explorer_catches_reintroduced_reoffer_to_rejector() {
    // PR 1 fix: a rejected job is re-offered to a *different* idle
    // worker. Strict mode is only sound without chaos, so this probe
    // runs deterministic delivery.
    let strict = |mutation: ProtocolMutation| ExploreConfig {
        mutation: mutation.into(),
        repro_attempts: 2,
        ..ExploreConfig::strict(5, 19)
    };
    let sc = lone_job_baseline();
    // Contrast: the correct protocol passes the same strict probe.
    let clean = explore(&sc, &strict(ProtocolMutation::None));
    assert!(clean.passed(), "{}", clean.render());
    let report = explore(&sc, &strict(ProtocolMutation::ReofferToRejector));
    let text = report.render();
    let f = report
        .failure
        .as_ref()
        .unwrap_or_else(|| panic!("mutated scheduler must be caught: {text}"));
    assert!(
        f.violations
            .iter()
            .any(|v| matches!(v, Violation::ReofferToRejector { .. })),
        "{text}"
    );
    assert_replayable(&text, f, false);
}

// ---------------------------------------------------------------------------
// Federation self-validation: each canonical way to break the
// exactly-once cross-shard hand-off must be caught by the federated
// oracle, with the failing (run, chaos, net, membership) replay value
// printed as the repro.
// ---------------------------------------------------------------------------

/// A sim sweep of one builtin with a mutation armed.
fn mutated_sim(
    name: &str,
    mutation: impl Into<Mutation>,
    iters: u32,
    seed: u64,
) -> (Scenario, Report) {
    let sc = builtin(name);
    let cfg = ExploreConfig {
        mutation: mutation.into(),
        ..ExploreConfig::new(Runtime::Sim, iters, seed)
    };
    let report = explore(&sc, &cfg);
    (sc, report)
}

fn assert_fed_replay_tuple(text: &str) {
    assert!(
        text.contains("run seed") && text.contains("net seed") && text.contains("membership seed"),
        "failure must print the replay tuple: {text}"
    );
}

#[test]
fn oracle_catches_a_lost_spill() {
    // Contrast: the correct hand-off passes the same sweep and spills.
    let (_, clean) = mutated_sim("fed_2shard_spill", FederationMutation::None, 2, 0xFED5EED);
    assert!(clean.passed(), "{}", clean.render());
    assert!(clean.activity.spills > 0, "{}", clean.render());

    let (_, report) = mutated_sim(
        "fed_2shard_spill",
        FederationMutation::LostSpill,
        2,
        0xFED5EED,
    );
    let text = report.render();
    let f = report
        .failure
        .as_ref()
        .unwrap_or_else(|| panic!("a dropped hand-off must be caught: {text}"));
    assert!(
        f.violations.iter().any(|v| matches!(
            v,
            Violation::SpillOutWithoutSpillIn { .. } | Violation::JobLost { .. }
        )),
        "{text}"
    );
    assert_fed_replay_tuple(&text);
}

#[test]
fn oracle_catches_a_double_spill() {
    let (_, report) = mutated_sim(
        "fed_2shard_spill",
        FederationMutation::DoubleSpill,
        2,
        0xFED5EED,
    );
    let text = report.render();
    let f = report
        .failure
        .as_ref()
        .unwrap_or_else(|| panic!("a duplicated hand-off must be caught: {text}"));
    assert!(
        f.violations.iter().any(|v| matches!(
            v,
            Violation::CompletedTwice { .. } | Violation::CompletedAfterSpillOut { .. }
        )),
        "{text}"
    );
    assert_fed_replay_tuple(&text);
}

#[test]
fn correct_atomizer_survives_both_runtimes_on_every_dag_builtin() {
    for runtime in [Runtime::Sim, Runtime::Threaded] {
        let cfg = ExploreConfig::new(runtime, sweep_iters(2), 0xDA61);
        for report in explore_family(Family::Dag, &cfg) {
            assert!(report.passed(), "{}", report.render());
        }
    }
}

/// A threaded sweep of one builtin with a protocol mutation armed,
/// deterministic delivery.
fn mutated_threaded(name: &str, mutation: ProtocolMutation, iters: u32, seed: u64) -> Report {
    let cfg = ExploreConfig {
        mutation: mutation.into(),
        ..ExploreConfig::new(Runtime::Threaded, iters, seed)
    };
    explore(&builtin(name), &cfg)
}

#[test]
fn explorer_catches_reintroduced_dag_gate_removal() {
    // The skewed-reduce DAG has wide fan-in: with the release gate
    // removed every reducer is offered at registration, long before
    // its maps complete — an OfferBeforePredecessor violation on the
    // very first seed.
    let report = mutated_threaded(
        "dag_skewed_reduce",
        ProtocolMutation::OfferBeforePredecessor,
        4,
        0xDA62,
    );
    let text = report.render();
    let f = report
        .failure
        .as_ref()
        .unwrap_or_else(|| panic!("an ungated offer must be caught: {text}"));
    assert!(
        f.violations
            .iter()
            .any(|v| matches!(v, Violation::OfferBeforePredecessor { .. })),
        "{text}"
    );
    assert!(text.contains("run seed"), "replay tuple missing: {text}");
}

#[test]
fn explorer_catches_reintroduced_double_speculation() {
    // With the launched-once guard bypassed, every straggler sweep
    // re-replicates the same slow task — the second committed
    // SpecLaunch is a DuplicateSpeculation violation.
    let report = mutated_threaded(
        "dag_straggler",
        ProtocolMutation::DoubleSpeculate,
        4,
        0xDA63,
    );
    let text = report.render();
    let f = report
        .failure
        .as_ref()
        .unwrap_or_else(|| panic!("a double speculation must be caught: {text}"));
    assert!(
        f.violations
            .iter()
            .any(|v| matches!(v, Violation::DuplicateSpeculation { .. })),
        "{text}"
    );
    assert!(text.contains("run seed"), "replay tuple missing: {text}");
}

// ---------------------------------------------------------------------------
// Replicated-data-plane self-validation: the canonical ways to break
// the self-healing promise (committing a repair and never copying;
// evicting a sole surviving replica) must be caught on both runtimes,
// with the failing (run, net) replay value printed as the repro.
// ---------------------------------------------------------------------------

#[test]
fn correct_replication_survives_both_runtimes_on_every_repl_builtin() {
    let iters = sweep_iters(2);
    for cfg in [
        ExploreConfig::new(Runtime::Sim, iters, 0x9E97),
        ExploreConfig {
            netfault: true,
            ..ExploreConfig::new(Runtime::Sim, iters, 0x9E97)
        },
        ExploreConfig::new(Runtime::Threaded, iters, 0x9E97),
    ] {
        for report in explore_family(Family::Replication, &cfg) {
            assert!(report.passed(), "{}", report.render());
        }
    }
}

/// Sweep `name` with `mutation` on both runtimes; each must catch a
/// violation matching `caught` and print the replay value.
fn assert_caught_on_both_runtimes(
    name: &str,
    mutation: ProtocolMutation,
    seed: u64,
    caught: fn(&Violation) -> bool,
) {
    for runtime in [Runtime::Sim, Runtime::Threaded] {
        let cfg = ExploreConfig {
            mutation: mutation.into(),
            ..ExploreConfig::new(runtime, 2, seed)
        };
        let report = explore(&builtin(name), &cfg);
        let text = report.render();
        let f = report
            .failure
            .as_ref()
            .unwrap_or_else(|| panic!("{}: {mutation:?} must be caught: {text}", runtime.name()));
        assert!(f.violations.iter().any(caught), "{text}");
        assert!(
            text.contains("run seed") && text.contains("net seed"),
            "replay tuple missing: {text}"
        );
    }
}

#[test]
fn explorer_catches_reintroduced_skipped_repair() {
    // The crash scenario loses worker 0's replicas mid-run, so the
    // master must commit `repair_start` entries. With the copy step
    // sabotaged every committed repair dangles — the oracle's
    // end-of-log RepairNeverCompleted catcher.
    assert_caught_on_both_runtimes("repl_f2_crash", ProtocolMutation::SkipRepair, 0x9E98, |v| {
        matches!(v, Violation::RepairNeverCompleted { .. })
    });
}

#[test]
fn explorer_catches_reintroduced_last_copy_eviction() {
    // The eviction-pressure scenario's third insert must pass through
    // (both resident objects are pinned sole copies). With the pin
    // discipline sabotaged the store evicts a last copy instead — an
    // EvictedLastCopy violation at the drop event.
    assert_caught_on_both_runtimes(
        "repl_f1_evict_pressure",
        ProtocolMutation::EvictLastCopy,
        0x9E99,
        |v| matches!(v, Violation::EvictedLastCopy { .. }),
    );
}

// ---------------------------------------------------------------------------
// The replay contract: a failure's replay value, fed back through
// `Scenario::run` on the same runtime, reproduces the same violations.
// The sim engine is deterministic, so a caught sim-side mutation must
// replay exactly.
// ---------------------------------------------------------------------------

/// The violation kinds of a merged and per-shard set.
fn kinds(
    violations: &[Violation],
    shard_violations: &[(usize, Violation)],
) -> HashSet<Discriminant<Violation>> {
    violations
        .iter()
        .chain(shard_violations.iter().map(|(_, v)| v))
        .map(discriminant)
        .collect()
}

#[test]
fn replay_value_reproduces_a_caught_sim_mutation_on_every_axis() {
    let cases: [(&str, Mutation, u64); 6] = [
        (
            "fed_2shard_spill",
            FederationMutation::LostSpill.into(),
            0xFED5EED,
        ),
        (
            "fed_2shard_spill",
            FederationMutation::DoubleSpill.into(),
            0xFED5EED,
        ),
        (
            "dag_skewed_reduce",
            ProtocolMutation::OfferBeforePredecessor.into(),
            0xDA62,
        ),
        (
            "dag_straggler",
            ProtocolMutation::DoubleSpeculate.into(),
            0xDA63,
        ),
        ("repl_f2_crash", ProtocolMutation::SkipRepair.into(), 0x9E98),
        (
            "repl_f1_evict_pressure",
            ProtocolMutation::EvictLastCopy.into(),
            0x9E99,
        ),
    ];
    let mut families = BTreeSet::new();
    for (name, mutation, seed) in cases {
        let (sc, report) = mutated_sim(name, mutation, 4, seed);
        families.insert(format!("{:?}", sc.family()));
        let f: &Failure = report
            .failure
            .as_ref()
            .unwrap_or_else(|| panic!("{name}: {mutation:?} must be caught on the sim"));
        assert_eq!(
            f.replay.mutation, mutation,
            "the replay carries the mutation"
        );
        let out = sc.run(Runtime::Sim, &f.replay);
        let (v, shard_v) = sc.violations(&out, false);
        assert_eq!(
            kinds(&v, &shard_v),
            kinds(&f.violations, &f.shard_violations),
            "{name}: replaying {} must reproduce {:?}, got {v:?} {shard_v:?}",
            f.replay,
            f.violations
        );
    }
    assert_eq!(families.len(), 3, "federation, DAG and replication axes");
}
