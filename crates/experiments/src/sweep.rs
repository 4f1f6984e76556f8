//! The `repro sweep` artifact: the checker's built-in scenarios on
//! both runtimes, one axis at a time, every run checked by the
//! protocol invariant oracle.
//!
//! | Axis | What it sweeps | Extra gates |
//! |---|---|---|
//! | `chaos` | protocol builtins: one sim run each, then chaos-perturbed threaded interleavings with sim parity | — |
//! | `netfault` | loss rate × partition grid over the protocol builtins, both runtimes | — |
//! | `failover` | seeded master-crash indices: deterministic on the sim, × lossy links × chaos on threads | ≥1 failover per scenario |
//! | `federation` | shard count × spill threshold × churn, both runtimes, then the multi-master headline | spill/churn activity; spillover beats the saturated master |
//! | `dag` | DAG shape × speculation, both runtimes, then task-level vs whole-job vs Spark-static | ≥1 speculative re-bid; task-level beats whole-job on the straggler |
//! | `replication` | factor × crash × peer loss × eviction pressure, clean, lossy and threaded, then the factor {1,2,3} × crash × loss headline | ≥1 repair on the crash scenario; ≥1 peer-fetch retry per runtime |
//!
//! Every run must complete all of its work exactly once with zero
//! violations, and a failing line carries the checker's replay value
//! (see CONTRIBUTING.md "Reproducing a checker failure").

use crossbid_baselines::SparkStaticAllocator;
use crossbid_checker::{
    check_log, explore, ExploreConfig, Family, FaultDef, Load, OracleOptions, Outcome, Protocol,
    Replay, Replication, Report, Runtime, Scenario,
};
use crossbid_core::BiddingAllocator;
use crossbid_crossflow::prelude::*;
use crossbid_simcore::{SeedSequence, SimTime};

/// The sweep axes, one `repro sweep --axis` value each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    Chaos,
    Netfault,
    Failover,
    Federation,
    Dag,
    Replication,
}

impl Axis {
    /// Every axis, in the order a bare `repro sweep` runs them.
    pub const ALL: [Axis; 6] = [
        Axis::Chaos,
        Axis::Netfault,
        Axis::Failover,
        Axis::Federation,
        Axis::Dag,
        Axis::Replication,
    ];

    /// The `--axis` value.
    pub fn name(self) -> &'static str {
        match self {
            Axis::Chaos => "chaos",
            Axis::Netfault => "netfault",
            Axis::Failover => "failover",
            Axis::Federation => "federation",
            Axis::Dag => "dag",
            Axis::Replication => "replication",
        }
    }

    /// Parse an `--axis` value.
    pub fn from_name(s: &str) -> Option<Axis> {
        Axis::ALL.into_iter().find(|a| a.name() == s)
    }
}

/// Parameters for one axis of `repro sweep`.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    pub axis: Axis,
    /// Runs per scenario (per runtime; the threaded explorer sections
    /// of the federation, DAG and replication axes cap it at 2).
    pub iters: u32,
    /// Root seed; every replay value and headline seed derives from it.
    pub seed: u64,
    /// Scale the federation and DAG headlines down for CI.
    pub smoke: bool,
}

impl SweepConfig {
    /// The axis's default iterations and seed (`smoke`: the reduced
    /// sweep CI runs).
    pub fn new(axis: Axis, smoke: bool) -> Self {
        let (iters, smoke_iters, seed) = match axis {
            Axis::Chaos | Axis::Failover => (8, 2, 0xC0FFEE),
            Axis::Netfault => (4, 1, 0xC0FFEE),
            Axis::Federation => (4, 1, 0xC0FFEE),
            Axis::Dag => (4, 2, 0xA70),
            Axis::Replication => (4, 2, 0x9E11),
        };
        SweepConfig {
            axis,
            iters: if smoke { smoke_iters } else { iters },
            seed,
            smoke,
        }
    }
}

/// Outcome of one axis.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Rendered report (one section per runtime, plus the headline).
    pub body: String,
    /// `true` iff every run passed every gate of the axis.
    pub ok: bool,
}

/// Run one axis.
pub fn run(cfg: &SweepConfig) -> SweepReport {
    let title = match cfg.axis {
        Axis::Chaos => "Protocol invariant check",
        Axis::Netfault => "Lossy-network survival sweep",
        Axis::Failover => "Master failover check",
        Axis::Federation => "Federation sweep",
        Axis::Dag => "Atomizer sweep",
        Axis::Replication => "Replication sweep",
    };
    let mut body = format!("# {title} (iters={}, seed={})\n\n", cfg.iters, cfg.seed);
    let ok = match cfg.axis {
        Axis::Chaos => chaos(&mut body, cfg),
        Axis::Netfault => netfault(&mut body, cfg),
        Axis::Failover => failover(&mut body, cfg),
        Axis::Federation => federation(&mut body, cfg),
        Axis::Dag => dag(&mut body, cfg),
        Axis::Replication => replication(&mut body, cfg),
    };
    body.push_str(&format!("\nresult: {}\n", if ok { "PASS" } else { "FAIL" }));
    SweepReport { body, ok }
}

/// Explore every builtin of `family` under `cfg`; `demands` names the
/// activity a report failed to show (a sweep whose axis never fired
/// proves nothing).
fn explorer_section(
    body: &mut String,
    family: Family,
    cfg: &ExploreConfig,
    demands: impl Fn(&Report) -> Vec<&'static str>,
) -> bool {
    let mut ok = true;
    for sc in Scenario::builtins(family) {
        let report = explore(&sc, cfg);
        let unmet = demands(&report);
        ok &= report.passed() && unmet.is_empty();
        body.push_str(&report.render());
        for d in unmet {
            body.push_str(&format!("  FAIL: {d}\n"));
        }
    }
    ok
}

fn no_demands(_: &Report) -> Vec<&'static str> {
    Vec::new()
}

/// Oracle-check one run and render it as one line; `label` names the
/// runtime and replay value so a failure line is a replay recipe.
fn check_run(body: &mut String, sc: &Scenario, out: &Outcome, label: &str, extra: &str) -> bool {
    let (violations, shard_violations) = sc.violations(out, false);
    let (done, expected) = (sc.completions(out), sc.expected_completions());
    let ok = violations.is_empty() && shard_violations.is_empty() && done == expected;
    body.push_str(&format!(
        "{} [{}] {label}: {} — {done}/{expected} completed{extra}, {} violation(s)\n",
        sc.name,
        sc.protocol.name(),
        if ok { "ok" } else { "FAIL" },
        violations.len() + shard_violations.len(),
    ));
    for v in &violations {
        body.push_str(&format!("  {v}\n"));
    }
    for (s, v) in &shard_violations {
        body.push_str(&format!("  shard {s}: {v}\n"));
    }
    ok
}

fn chaos(body: &mut String, cfg: &SweepConfig) -> bool {
    let mut ok = true;
    body.push_str("## Simulation engine — one deterministic run per scenario\n\n");
    for sc in Scenario::builtins(Family::Protocol) {
        let out = sc.run(Runtime::Sim, &Replay::new(cfg.seed));
        ok &= check_run(
            body,
            &sc,
            &out,
            &format!("on sim ({})", Replay::new(cfg.seed)),
            "",
        );
    }
    body.push_str("\n## Threaded runtime — chaos-perturbed interleavings + sim parity\n\n");
    ok &= explorer_section(
        body,
        Family::Protocol,
        &ExploreConfig::quick(cfg.iters, cfg.seed),
        no_demands,
    );
    ok
}

/// The reliability counters worth showing per netfault cell.
const NET_COUNTERS: [&str; 6] = [
    "net/dropped",
    "net/duplicated",
    "net/retries",
    "net/dedup_hits",
    "acks/received",
    "lease/expired",
];

/// The loss rate × partition grid. Duplication rides along at half the
/// loss rate; both windows are shorter than the lease + retry horizon,
/// so survival is the requirement, not a lucky draw. Every cell runs
/// each protocol builtin once on the sim and `iters` times on threads.
fn netfault(body: &mut String, cfg: &SweepConfig) -> bool {
    body.push_str(
        "Every cell must complete all jobs with exactly-once effects\n\
         and zero oracle violations on both runtimes.\n",
    );
    let seeds = SeedSequence::new(cfg.seed);
    let mut ok = true;
    let mut cell = 0u64;
    for loss in [0.1, 0.3] {
        for (pname, window) in [("none", None), ("2s", Some((2.0, 4.0)))] {
            body.push_str(&format!(
                "\n## loss={:.0}% dup={:.0}% partition={pname}\n\n",
                loss * 100.0,
                loss * 50.0,
            ));
            let mut links = NetFaultPlan::lossy(0, loss, loss / 2.0);
            if let Some((from, until)) = window {
                links = links.with_partition(
                    None,
                    SimTime::from_secs_f64(from),
                    SimTime::from_secs_f64(until),
                );
            }
            let mut counters = [0u64; NET_COUNTERS.len()];
            let mut runs = 0u64;
            let mut failures = String::new();
            for (si, sc) in Scenario::builtins(Family::Protocol).into_iter().enumerate() {
                let sc = Scenario {
                    links: links.clone(),
                    ..sc
                };
                let sim = Replay {
                    net: Some(seeds.seed_for(cell * 1000 + si as u64)),
                    ..Replay::new(cfg.seed)
                };
                let threaded = (0..cfg.iters).map(|i| {
                    let run = seeds.seed_for(cell * 1000 + si as u64 * 10 + i as u64 + 100);
                    Replay {
                        net: Some(run ^ 0x4E37),
                        ..Replay::new(run)
                    }
                });
                let replays = std::iter::once((Runtime::Sim, sim))
                    .chain(threaded.map(|r| (Runtime::Threaded, r)));
                for (runtime, replay) in replays {
                    let out = sc.run(runtime, &replay);
                    for (total, name) in counters.iter_mut().zip(NET_COUNTERS) {
                        *total += out.counter(name);
                    }
                    let mut line = String::new();
                    let label = format!("on {} ({replay})", runtime.name());
                    if !check_run(&mut line, &sc, &out, &label, "") {
                        failures.push_str(&format!("FAIL {line}"));
                    }
                    runs += 1;
                }
            }
            body.push_str(&format!("runs: {runs}\n"));
            for (name, v) in NET_COUNTERS.iter().zip(counters) {
                body.push_str(&format!("{name}: {v}\n"));
            }
            if failures.is_empty() {
                body.push_str("cell: ok\n");
            } else {
                ok = false;
                body.push_str(&failures);
            }
            cell += 1;
        }
    }
    ok
}

/// The sim section is fully deterministic: each iteration derives a
/// crash index from the seed (bounded by a fault-free reference run's
/// log length, so the leader dies mid-protocol), kills the master at
/// that append, and requires the elected standby to finish every job
/// exactly once. The threaded section runs the explorer's failover
/// axis: seeded crash indices × lossy links × chaos.
fn failover(body: &mut String, cfg: &SweepConfig) -> bool {
    let mut ok = true;
    body.push_str("## Simulation engine — seeded crash indices, deterministic replay\n\n");
    let seeds = SeedSequence::new(cfg.seed);
    for sc in Scenario::builtins(Family::Protocol) {
        // An index drawn from the first half of the reference log
        // reliably lands mid-protocol even though the crashed run
        // re-offers (and so appends) more.
        let reference = sc.run(Runtime::Sim, &Replay::new(cfg.seed));
        let bound = (reference.log().len() as u64 / 2).max(2);
        let mut failovers = 0;
        let mut lines = String::new();
        for i in 0..cfg.iters {
            let replay = Replay {
                crash_index: Some(1 + seeds.seed_for(0xFA11_0000 + i as u64) % bound),
                ..Replay::new(cfg.seed)
            };
            let out = sc.run(Runtime::Sim, &replay);
            let fired = out.log().failovers();
            failovers += fired;
            let mut line = String::new();
            let extra = format!(", {fired} failover(s)");
            if !check_run(&mut line, &sc, &out, &format!("on sim ({replay})"), &extra) || fired == 0
            {
                lines.push_str(&format!("FAIL {line}"));
            }
        }
        if lines.is_empty() {
            body.push_str(&format!(
                "{} [{}]: ok ({} run(s), {failovers} failover(s) survived)\n",
                sc.name,
                sc.protocol.name(),
                cfg.iters,
            ));
        } else {
            ok = false;
            body.push_str(&lines);
        }
    }
    body.push_str("\n## Threaded runtime — crash indices × lossy links × chaos\n\n");
    ok &= explorer_section(
        body,
        Family::Protocol,
        &ExploreConfig::failover(cfg.iters, cfg.seed),
        |r| {
            demand(
                r.activity.failovers == 0,
                "no master crash fired across the sweep",
            )
        },
    );
    ok
}

fn demand(unmet: bool, what: &'static str) -> Vec<&'static str> {
    if unmet {
        vec![what]
    } else {
        Vec::new()
    }
}

/// The federation axis on both runtimes, then the headline multi-master
/// scenario and its single-master control.
fn federation(body: &mut String, cfg: &SweepConfig) -> bool {
    // Spill scenarios must spill, churn scenarios must churn, and the
    // ∞-threshold control must never spill.
    let demands = |r: &Report| {
        let name = &r.scenario;
        let spills = ["fed_2shard_spill", "fed_4shard_spill", "fed_4shard_churn"];
        let churns = ["fed_4shard_churn", "fed_2shard_lossy_gossip_churn"];
        let mut unmet = demand(
            spills.contains(name) && r.activity.spills == 0,
            "no spill fired across the sweep",
        );
        unmet.extend(demand(
            churns.contains(name) && r.activity.churn == 0,
            "no churn event fired across the sweep",
        ));
        unmet.extend(demand(
            *name == "fed_2shard_nospill" && r.activity.spills > 0,
            "the ∞-threshold baseline spilled",
        ));
        unmet
    };
    let mut ok = true;
    body.push_str("## Simulation engine — shard count × spill threshold × churn\n\n");
    ok &= explorer_section(
        body,
        Family::Federation,
        &ExploreConfig::new(Runtime::Sim, cfg.iters, cfg.seed),
        demands,
    );
    body.push_str("\n## Threaded runtime — the same axis under intake chaos\n\n");
    ok &= explorer_section(
        body,
        Family::Federation,
        &ExploreConfig::quick(cfg.iters.clamp(1, 2), cfg.seed),
        demands,
    );
    let shape = if cfg.smoke {
        HeadlineShape::smoke()
    } else {
        HeadlineShape::full()
    };
    ok &= federation_headline(body, &shape, cfg.seed);
    ok
}

/// Shape of the headline multi-master scenario: `shards` masters, each
/// over `workers_per_shard` listed workers (the last one is a deferred
/// join), and a shard-0 burst of `jobs` CPU jobs.
#[derive(Debug, Clone)]
pub struct HeadlineShape {
    pub shards: usize,
    pub workers_per_shard: usize,
    pub jobs: usize,
    /// CPU seconds per burst job.
    pub cpu_secs: f64,
    /// Burst inter-arrival gap in virtual seconds.
    pub arrival_gap_secs: f64,
    /// Spill threshold of the federated run (the solo run uses ∞).
    pub spill_threshold_secs: f64,
    /// Churn instants `(join, drain, remove)`, applied on every shard.
    pub churn_at: (f64, f64, f64),
}

impl HeadlineShape {
    /// The acceptance-bar shape: 4 masters × 250 workers = 1000
    /// workers, overloaded roughly 2.4× past shard 0's capacity.
    pub fn full() -> Self {
        HeadlineShape {
            shards: 4,
            workers_per_shard: 250,
            jobs: 400,
            cpu_secs: 300.0,
            arrival_gap_secs: 0.5,
            spill_threshold_secs: 2.0,
            churn_at: (5.0, 60.0, 120.0),
        }
    }

    /// A scaled-down copy of the same overload for CI smoke.
    pub fn smoke() -> Self {
        HeadlineShape {
            shards: 4,
            workers_per_shard: 10,
            jobs: 60,
            cpu_secs: 30.0,
            arrival_gap_secs: 0.5,
            spill_threshold_secs: 4.0,
            churn_at: (5.0, 20.0, 40.0),
        }
    }

    /// One federation run; `spill` off replays the identical overload
    /// as one saturated master that never forwards. Each shard's churn:
    /// the spare (last listed) worker joins, then worker 0 drains, then
    /// worker 1 is removed.
    fn run(&self, runtime: Runtime, spill: bool, replay: &Replay) -> FederationOutput {
        let (join, drain, remove) = self.churn_at;
        let membership = MembershipPlan::new()
            .join_at(
                SimTime::from_secs_f64(join),
                WorkerId((self.workers_per_shard - 1) as u32),
            )
            .drain_at(SimTime::from_secs_f64(drain), WorkerId(0))
            .remove_at(SimTime::from_secs_f64(remove), WorkerId(1));
        let shards = (0..self.shards)
            .map(|s| {
                ShardSpec::new(
                    (0..self.workers_per_shard)
                        .map(|i| WorkerSpec::builder(format!("s{s}w{i}")).build())
                        .collect(),
                )
                .faults(Faults::new().membership(membership.clone()))
            })
            .collect();
        let mut spec = FederationSpec::new(shards);
        spec.spill_threshold_secs = if spill {
            self.spill_threshold_secs
        } else {
            f64::INFINITY
        };
        spec.gossip_period_secs = 2.0;
        spec.spill_latency_secs = 0.5;
        spec.seed = replay.run;
        spec.net_seed = replay.net.unwrap_or(replay.run);
        spec.runtime = runtime.into();
        spec.chaos = replay.chaos.map(ChaosConfig::aggressive);
        let mut engine = EngineConfig::ideal();
        engine.max_events =
            (self.jobs as u64) * (self.workers_per_shard as u64 * 8 + 64) + 1_000_000;
        spec.engine = engine;
        let arrivals = (0..self.jobs)
            .map(|i| FedArrival {
                at: SimTime::from_secs_f64(i as f64 * self.arrival_gap_secs),
                home: ShardId(0),
                spec: JobSpec::compute(TaskId(0), self.cpu_secs, Payload::Index(i as u64)),
            })
            .collect();
        run_federation(&spec, arrivals, &BiddingAllocator::new(), |_| {
            let mut wf = Workflow::new();
            wf.add_sink("burst");
            wf
        })
    }
}

/// The headline: 1000 workers under four masters with elastic churn on
/// every shard and a CPU burst aimed at shard 0, on both runtimes —
/// and the same overload with spilling disabled, which must be
/// measurably slower. Every run must pass the federated oracle on the
/// merged log and the per-shard oracle on every shard log.
fn federation_headline(body: &mut String, shape: &HeadlineShape, seed: u64) -> bool {
    body.push_str(&format!(
        "\n## Headline — {} workers, {} masters, elastic churn on every shard\n\n",
        shape.shards * shape.workers_per_shard,
        shape.shards,
    ));
    let check = |body: &mut String, label: &str, out: &FederationOutput, spill: bool| {
        let merged = check_log(
            &out.merged,
            OracleOptions {
                expect_all_complete: true,
                strict_reoffer: false,
                workers: None,
                federated: true,
            },
        );
        let shard_violations: usize = out
            .shards
            .iter()
            .map(|o| {
                check_log(
                    &o.sched_log,
                    OracleOptions {
                        expect_all_complete: true,
                        strict_reoffer: false,
                        workers: Some(shape.workers_per_shard as u32),
                        federated: false,
                    },
                )
                .len()
            })
            .sum();
        let churn =
            out.merged.worker_joins() + out.merged.worker_drains() + out.merged.worker_removals();
        let conserved = out.jobs_completed == shape.jobs as u64;
        let active = !spill || (!out.spills.is_empty() && churn > 0);
        let ok = merged.is_empty() && shard_violations == 0 && conserved && active;
        body.push_str(&format!(
            "{label}: {} — {}/{} jobs completed, {} spill(s), {churn} churn event(s), {} merged + {shard_violations} shard violation(s), makespan {:.1}s\n",
            if ok { "ok" } else { "FAIL" },
            out.jobs_completed,
            shape.jobs,
            out.spills.len(),
            merged.len(),
            out.makespan_secs,
        ));
        for v in &merged {
            body.push_str(&format!("  merged: {v}\n"));
        }
        ok
    };
    let roots = SeedSequence::new(seed);
    let sim = Replay {
        net: Some(roots.seed_for(0xFED1)),
        ..Replay::new(roots.seed_for(0xFED0))
    };
    let fed = shape.run(Runtime::Sim, true, &sim);
    let mut ok = check(body, "sim, federated", &fed, true);
    let threaded = Replay {
        chaos: Some(roots.seed_for(0xFED3)),
        ..sim.clone()
    };
    let out = shape.run(Runtime::Threaded, true, &threaded);
    ok &= check(body, "threaded, federated + chaos", &out, true);
    let solo = shape.run(Runtime::Sim, false, &sim);
    ok &= check(body, "sim, spilling disabled", &solo, false);

    let beat = fed.makespan_secs < solo.makespan_secs;
    body.push_str(&format!(
        "\nspillover vs saturated single master: {:.1}s vs {:.1}s ({:.2}x) — {}\n",
        fed.makespan_secs,
        solo.makespan_secs,
        solo.makespan_secs / fed.makespan_secs.max(f64::MIN_POSITIVE),
        if beat {
            "cross-shard spillover wins"
        } else {
            "FAIL: spilling did not beat the overloaded master"
        },
    ));
    ok && beat
}

/// The DAG axis on both runtimes, then the headline comparison.
fn dag(body: &mut String, cfg: &SweepConfig) -> bool {
    let demands = |r: &Report| {
        demand(
            r.scenario == "dag_straggler" && r.activity.speculative_launches == 0,
            "no speculative re-bid fired across the sweep",
        )
    };
    let mut ok = true;
    body.push_str("## Simulation engine — DAG shape × speculation knobs\n\n");
    ok &= explorer_section(
        body,
        Family::Dag,
        &ExploreConfig::new(Runtime::Sim, cfg.iters, cfg.seed),
        demands,
    );
    body.push_str("\n## Threaded runtime — the same axis\n\n");
    ok &= explorer_section(
        body,
        Family::Dag,
        &ExploreConfig::new(Runtime::Threaded, cfg.iters.clamp(1, 2), cfg.seed),
        demands,
    );
    // Kept above the straggler scenario's cluster size so the
    // collapsed whole-job baseline cannot dodge the slow worker by
    // round-robin luck.
    let dags = if cfg.smoke { 4 } else { 6 };
    body.push_str(&format!(
        "\n## Headline — task-level vs whole-job vs Spark-static ({dags} DAGs)\n\n"
    ));
    for sc in Scenario::builtins(Family::Dag) {
        let Load::Dags { config, .. } = sc.load else {
            unreachable!("DAG builtins carry a DAG load")
        };
        let sc = Scenario {
            load: Load::Dags {
                config,
                count: dags,
            },
            ..sc
        };
        ok &= dag_headline(body, &sc, cfg.seed ^ 0xDA6);
    }
    ok
}

/// Run a scenario's arrival stream with every DAG collapsed into one
/// whole job (`TaskDag::collapsed_spec`), on an identical cluster —
/// the allocation baseline the atomized run is compared against.
fn collapsed_run(sc: &Scenario, seed: u64, allocator: &dyn Allocator) -> RunOutput {
    let replay = Replay::new(seed);
    let mut wf = Workflow::new();
    let task = wf.add_sink("scan");
    let arrivals: Vec<Arrival> = sc
        .arrivals(task, &replay)
        .into_iter()
        .map(|a| Arrival {
            at: a.at,
            spec: match &a.spec.dag {
                Some(dag) => dag.collapsed_spec(a.spec.task),
                None => a.spec.clone(),
            },
        })
        .collect();
    sc.spec(Runtime::Sim, &replay)
        .sim()
        .run_iteration(&mut wf, allocator, arrivals)
}

/// One headline comparison: **task-level** (atomized, tasks priced
/// against their own input locality, stragglers re-bid speculatively)
/// vs **whole-job** (each DAG collapsed into one job carrying the
/// summed work, placed by the same protocol) vs **Spark-static** (the
/// collapsed jobs under the centralized stage-synchronous baseline).
/// The straggler scenario is the acceptance bar: speculation must fire
/// and task-level must beat whole-job on makespan. The skewed-reduce
/// scenario's gating pressure is covered by the oracle; its makespan
/// rows are informational.
fn dag_headline(body: &mut String, sc: &Scenario, seed: u64) -> bool {
    let atomized = sc.run(Runtime::Sim, &Replay::new(seed));
    let speculations = atomized.log().spec_launches();
    let whole = collapsed_run(sc, seed, sc.protocol.allocator().as_ref());
    let spark = collapsed_run(sc, seed, &SparkStaticAllocator::with_stage_barrier());
    let dags = sc.job_count() as u64;
    let baselines_done = whole.record.jobs_completed == dags && spark.record.jobs_completed == dags;
    let demand_win = sc.slow_worker.is_some();
    let speculated = !demand_win || speculations > 0;
    let beat = !demand_win || atomized.makespan_secs() < whole.record.makespan_secs;

    let extra = format!(", {speculations} speculative re-bid(s)");
    let ok = check_run(body, sc, &atomized, "task-level", &extra)
        && baselines_done
        && speculated
        && beat;
    body.push_str(&format!(
        "  task-level {:.1}s vs whole-job {:.1}s vs spark-static {:.1}s{}\n",
        atomized.makespan_secs(),
        whole.record.makespan_secs,
        spark.record.makespan_secs,
        match (demand_win, beat) {
            (false, _) => String::new(),
            (true, true) => format!(
                " ({:.2}x) — atomization wins",
                whole.record.makespan_secs / atomized.makespan_secs().max(f64::MIN_POSITIVE)
            ),
            (true, false) => " — FAIL: task-level did not beat whole-job".to_string(),
        },
    ));
    if !speculated {
        body.push_str("  FAIL: no speculative re-bid in the headline run\n");
    }
    if !baselines_done {
        body.push_str("  FAIL: a collapsed baseline lost jobs\n");
    }
    ok
}

/// The replication axis clean, under lossy links and on threads, then
/// the factor × crash × loss headline.
fn replication(body: &mut String, cfg: &SweepConfig) -> bool {
    // The crash scenario must repair and the lossy scenario must retry.
    // Under the lossy-link plan the partition windows legitimately
    // suppress peer traffic, so that sweep's job is survival, not
    // activity.
    let demands = |r: &Report| {
        let mut unmet = demand(
            r.scenario == "repl_f2_crash" && r.activity.repairs == 0,
            "no committed re-replication completed across the sweep",
        );
        unmet.extend(demand(
            r.scenario == "repl_f3_lossy" && r.activity.fetch_retries == 0,
            "no lost peer transfer was retried across the sweep",
        ));
        unmet
    };
    let mut ok = true;
    body.push_str("## Simulation engine — factor × crash × peer loss × eviction pressure\n\n");
    ok &= explorer_section(
        body,
        Family::Replication,
        &ExploreConfig::new(Runtime::Sim, cfg.iters, cfg.seed),
        demands,
    );
    body.push_str("\n## Simulation engine — the same axis under lossy links\n\n");
    ok &= explorer_section(
        body,
        Family::Replication,
        &ExploreConfig {
            netfault: true,
            ..ExploreConfig::new(Runtime::Sim, cfg.iters, cfg.seed)
        },
        no_demands,
    );
    body.push_str("\n## Threaded runtime — the same axis\n\n");
    ok &= explorer_section(
        body,
        Family::Replication,
        &ExploreConfig::new(Runtime::Threaded, cfg.iters.clamp(1, 2), cfg.seed),
        demands,
    );
    body.push_str("\n## Headline — replication factor {1,2,3} × holder crash × peer loss\n\n");
    for runtime in [Runtime::Sim, Runtime::Threaded] {
        ok &= replication_headline(body, runtime, cfg.seed ^ 0x9E1);
    }
    ok
}

/// The factor {1,2,3} × holder crash × peer loss product on one
/// runtime, four workers over two hot artifacts. Fails on any
/// violation, lost/duplicated job, missing repair (factor ≥ 2), or if
/// the whole row saw no peer fetch retry.
fn replication_headline(body: &mut String, runtime: Runtime, seed: u64) -> bool {
    let mut ok = true;
    let mut retries = 0;
    for (factor, name) in [
        (1, "repl_headline_f1"),
        (2, "repl_headline_f2"),
        (3, "repl_headline_f3"),
    ] {
        let sc = Scenario {
            replication: Some(Replication {
                factor,
                peer_drop_prob: 0.5,
            }),
            faults: vec![
                FaultDef {
                    at_secs: 21.0,
                    worker: 0,
                    recovers: false,
                },
                FaultDef {
                    at_secs: 40.0,
                    worker: 0,
                    recovers: true,
                },
            ],
            ..Scenario::new(
                name,
                Protocol::Bidding,
                4,
                Load::stream(12, 2, 2.0, 100_000_000),
            )
        };
        let out = sc.run(runtime, &Replay::new(seed));
        let log = out.log();
        let repaired = factor < 2 || log.repair_dones() >= 1;
        retries += log.fetch_fails();
        let extra = format!(
            ", {} peer fetch(es), {} retry(ies), {} repair(s), makespan {:.1}s",
            log.fetch_oks(),
            log.fetch_fails(),
            log.repair_dones(),
            out.makespan_secs(),
        );
        let label = format!("factor {factor} × crash × loss on {}", runtime.name());
        ok &= check_run(body, &sc, &out, &label, &extra) && repaired;
        if !repaired {
            body.push_str("  FAIL: no committed re-replication completed\n");
        }
    }
    if retries == 0 {
        body.push_str(&format!(
            "  FAIL: no peer fetch retry observed across the {} headline\n",
            runtime.name()
        ));
    }
    ok && retries > 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(axis: Axis, iters: u32) -> SweepReport {
        let report = run(&SweepConfig {
            iters,
            ..SweepConfig::new(axis, true)
        });
        assert!(report.ok, "{}", report.body);
        assert!(report.body.contains("result: PASS"));
        report
    }

    #[test]
    fn smoke_chaos_passes() {
        smoke(Axis::Chaos, 1);
    }

    #[test]
    fn smoke_netfault_passes() {
        // The sweep is only evidence if the faults actually fired.
        let report = smoke(Axis::Netfault, 1);
        assert!(!report.body.contains("net/dropped: 0\n"), "{}", report.body);
    }

    #[test]
    fn smoke_failover_passes() {
        smoke(Axis::Failover, 1);
    }

    #[test]
    fn smoke_federation_passes() {
        let report = smoke(Axis::Federation, 1);
        assert!(report.body.contains("spillover wins"));
    }

    #[test]
    fn smoke_dag_passes() {
        let report = smoke(Axis::Dag, 2);
        assert!(report.body.contains("atomization wins"));
    }

    #[test]
    fn smoke_replication_passes() {
        let report = smoke(Axis::Replication, 2);
        assert!(report.body.contains("repair(s)"));
    }

    #[test]
    fn a_rigged_headline_control_cannot_spill() {
        // The ∞-threshold control of the smoke shape: everything stays
        // on shard 0 and still completes (exactly-once without ever
        // handing off).
        let shape = HeadlineShape::smoke();
        let out = shape.run(Runtime::Sim, false, &Replay::new(9));
        assert!(out.spills.is_empty());
        assert_eq!(out.jobs_completed, shape.jobs as u64);
    }

    #[test]
    fn every_axis_name_round_trips() {
        for axis in Axis::ALL {
            assert_eq!(Axis::from_name(axis.name()), Some(axis));
        }
        assert_eq!(Axis::from_name("check"), None);
    }
}
