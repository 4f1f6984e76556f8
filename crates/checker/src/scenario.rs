//! Checker scenarios: small, fully-specified workloads runnable on
//! either runtime.
//!
//! A [`Scenario`] is data, not code — a cluster shape, a load and a
//! set of optional axes (worker faults, a slow worker, store size,
//! link-fault shape, replication, atomize knobs, federation) — and
//! [`Scenario::run`] executes any of them on either [`Runtime`] from
//! one [`Replay`] value: the seeds of every random axis plus the
//! shrinker's job and fault subsets. The same value printed in a
//! failure report replays the failing run. The built-in set covers
//! four families ([`Family`]): the single-master protocol (a hot
//! contested repository, the Baseline's reject-once routing, crash +
//! recovery redistribution, a multi-repository spread), sharded
//! federation, task-level DAGs, and the replicated data plane.

use std::fmt;

use crossbid_core::BiddingAllocator;
use crossbid_crossflow::{
    run_federation, Allocator, Arrival, AtomizeConfig, BaselineAllocator, ChaosConfig,
    EngineConfig, FaultPlan, Faults, FedArrival, FedRuntimeKind, FederationMutation,
    FederationOutput, FederationSpec, JobSpec, MasterFaultPlan, MembershipPlan, NetFaultPlan,
    Payload, ProtocolMutation, ReplicationConfig, ResourceRef, RunOutput, RunSpec, SchedLog,
    ShardId, ShardSpec, TaskId, WorkerId, WorkerSpec, Workflow,
};
use crossbid_net::{ControlPlane, NoiseModel};
use crossbid_simcore::{SeedSequence, SimDuration, SimTime};
use crossbid_storage::ObjectId;
use crossbid_workload::DagConfig;

use crate::oracle::{check_log, OracleOptions, Violation};

/// Which allocation protocol the scenario runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// The paper's Bidding Scheduler (contests + estimates).
    Bidding,
    /// The Crossflow Baseline (pull + reject-once).
    Baseline,
}

impl Protocol {
    /// The matching allocator.
    pub fn allocator(self) -> Box<dyn Allocator> {
        match self {
            Protocol::Bidding => Box::new(BiddingAllocator::new()),
            Protocol::Baseline => Box::new(BaselineAllocator),
        }
    }

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Bidding => "bidding",
            Protocol::Baseline => "baseline",
        }
    }
}

/// Which runtime executes a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Runtime {
    /// The deterministic discrete-event engine.
    Sim,
    /// Real threads with scaled virtual time.
    Threaded,
}

impl Runtime {
    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Runtime::Sim => "sim",
            Runtime::Threaded => "threaded",
        }
    }
}

impl From<Runtime> for FedRuntimeKind {
    fn from(r: Runtime) -> Self {
        match r {
            Runtime::Sim => FedRuntimeKind::Sim,
            Runtime::Threaded => FedRuntimeKind::Threaded,
        }
    }
}

/// One job in a scenario's workload.
#[derive(Debug, Clone, Copy)]
pub struct JobDef {
    /// Virtual arrival second.
    pub at_secs: f64,
    /// Which repository the job scans.
    pub object: u64,
    /// Repository size in bytes.
    pub bytes: u64,
}

/// One scheduled fault in a scenario.
#[derive(Debug, Clone, Copy)]
pub struct FaultDef {
    /// Virtual second of the event.
    pub at_secs: f64,
    /// Affected worker.
    pub worker: u32,
    /// `false` = crash, `true` = recovery.
    pub recovers: bool,
}

/// What arrives during a run.
#[derive(Debug, Clone)]
pub enum Load {
    /// Single-task scan jobs (in a federation: the burst aimed at
    /// shard 0). Job *indices* are stable identities: shrinking passes
    /// a subset of indices, and each job keeps its payload.
    Jobs(Vec<JobDef>),
    /// `count` structured DAG jobs from a generator, drawn from the
    /// run seed and atomized into tasks.
    Dags {
        /// DAG shape generator.
        config: DagConfig,
        /// Number of DAG arrivals.
        count: usize,
    },
}

impl Load {
    /// `n` jobs `spacing_secs` apart, cycling over repositories
    /// `1..=objects` of `bytes` each.
    pub fn stream(n: usize, objects: u64, spacing_secs: f64, bytes: u64) -> Load {
        Load::Jobs(
            (0..n)
                .map(|i| JobDef {
                    at_secs: i as f64 * spacing_secs,
                    object: 1 + i as u64 % objects,
                    bytes,
                })
                .collect(),
        )
    }
}

/// The replicated data plane's knobs.
#[derive(Debug, Clone, Copy)]
pub struct Replication {
    /// Replication target factor.
    pub factor: u32,
    /// Seeded peer data-transfer loss probability (drives the
    /// retry → degraded-master-fallback path).
    pub peer_drop_prob: f64,
}

/// The sharded multi-master axis: `shards` masters over disjoint
/// worker shards, the load aimed at shard 0 (the overload the spill
/// protocol exists for) plus one warm-up job per peer shard.
#[derive(Debug, Clone, Copy)]
pub struct Federation {
    /// Number of shards (masters).
    pub shards: usize,
    /// Spill threshold in virtual seconds (`f64::INFINITY` = the
    /// single-master baseline).
    pub spill_threshold_secs: f64,
    /// Seeded pairwise gossip-exchange loss probability.
    pub gossip_loss: f64,
    /// Seeded elastic-membership churn (join + drain, and with enough
    /// workers a removal) on every shard. Each shard gets one extra
    /// deferred worker that joins mid-run.
    pub churn: bool,
}

/// The groups of built-in scenarios, one per protocol layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Single-master job-list scenarios: contests, reject-once,
    /// crash redistribution.
    Protocol,
    /// Sharded multi-master federation.
    Federation,
    /// Task-level DAGs with speculation.
    Dag,
    /// The replicated data plane.
    Replication,
}

/// A reintroduced bug (checker self-validation; the threaded runtime
/// needs the `protocol-mutation` cargo feature, the sim engine arms
/// the equivalent atomize/replication flags directly).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mutation {
    /// The correct protocol.
    #[default]
    None,
    /// A single-master protocol bug.
    Protocol(ProtocolMutation),
    /// A broken cross-shard hand-off.
    Federation(FederationMutation),
}

impl Mutation {
    /// True iff no bug is armed.
    pub(crate) fn is_none(self) -> bool {
        matches!(
            self,
            Mutation::None
                | Mutation::Protocol(ProtocolMutation::None)
                | Mutation::Federation(FederationMutation::None)
        )
    }

    fn protocol(self) -> ProtocolMutation {
        match self {
            Mutation::Protocol(m) => m,
            _ => ProtocolMutation::None,
        }
    }

    fn federation(self) -> FederationMutation {
        match self {
            Mutation::Federation(m) => m,
            _ => FederationMutation::None,
        }
    }
}

impl From<ProtocolMutation> for Mutation {
    fn from(m: ProtocolMutation) -> Self {
        Mutation::Protocol(m)
    }
}

impl From<FederationMutation> for Mutation {
    fn from(m: FederationMutation) -> Self {
        Mutation::Federation(m)
    }
}

/// Everything that replays one run of a scenario: the seed of every
/// random axis, the shrinker's subsets and the armed mutation. Fields
/// an axis does not use are `None`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Replay {
    /// Run seed: worker noise streams, bid-delay jitter, the DAG
    /// generator, and (in a federation) every shard's runtime seed.
    pub run: u64,
    /// Threaded intake chaos ([`ChaosConfig::aggressive`]); the sim
    /// ignores it.
    pub chaos: Option<u64>,
    /// Net seed: arms the scenario's lossy-link plan on a single
    /// master; in a federation it drives gossip loss (`None` = the run
    /// seed).
    pub net: Option<u64>,
    /// Crash the (single) master at this log append index; a standby
    /// takes over by log replay.
    pub crash_index: Option<u64>,
    /// Federation churn schedule (`None` = the run seed).
    pub membership: Option<u64>,
    /// `None` = all jobs; otherwise the job indices to keep.
    pub keep_jobs: Option<Vec<usize>>,
    /// `None` = all faults; otherwise keep only these workers' faults.
    pub keep_fault_workers: Option<Vec<u32>>,
    /// Reintroduced bug, if any.
    pub mutation: Mutation,
}

impl Replay {
    /// An unperturbed run of the correct protocol.
    pub fn new(run: u64) -> Self {
        Replay {
            run,
            ..Replay::default()
        }
    }
}

impl fmt::Display for Replay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let opt = |v: Option<u64>| v.map_or("-".to_string(), |s| s.to_string());
        write!(
            f,
            "run seed {}, chaos seed {}, net seed {}, crash index {}, membership seed {}",
            self.run,
            opt(self.chaos),
            opt(self.net),
            opt(self.crash_index),
            opt(self.membership),
        )?;
        if !self.mutation.is_none() {
            write!(f, ", mutation {:?}", self.mutation)?;
        }
        Ok(())
    }
}

/// What one run produced.
#[derive(Debug)]
pub enum Outcome {
    /// A single-master run.
    Single(Box<RunOutput>),
    /// A federation: every shard's run plus the merged log.
    Federated(FederationOutput),
}

impl Outcome {
    /// The run's scheduler log (a federation's merged union log).
    pub fn log(&self) -> &SchedLog {
        match self {
            Outcome::Single(o) => &o.sched_log,
            Outcome::Federated(f) => &f.merged,
        }
    }

    /// Every master's run output (one per shard in a federation).
    pub fn runs(&self) -> &[RunOutput] {
        match self {
            Outcome::Single(o) => std::slice::from_ref(&**o),
            Outcome::Federated(f) => &f.shards,
        }
    }

    /// The federation output, if this was a federation run.
    pub fn federation(&self) -> Option<&FederationOutput> {
        match self {
            Outcome::Single(_) => None,
            Outcome::Federated(f) => Some(f),
        }
    }

    /// Jobs completed, summed over shards.
    pub fn jobs_completed(&self) -> u64 {
        match self {
            Outcome::Single(o) => o.record.jobs_completed,
            Outcome::Federated(f) => f.jobs_completed,
        }
    }

    /// Virtual makespan.
    pub fn makespan_secs(&self) -> f64 {
        match self {
            Outcome::Single(o) => o.record.makespan_secs,
            Outcome::Federated(f) => f.makespan_secs,
        }
    }

    /// One counter summed over every master's metrics.
    pub fn counter(&self, name: &str) -> u64 {
        self.runs()
            .iter()
            .flat_map(|o| &o.metrics.counters)
            .filter(|(n, _)| n == name)
            .map(|(_, v)| v)
            .sum()
    }
}

/// A fully-specified checker workload.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Stable name for reports and `repro sweep` output.
    pub name: &'static str,
    /// Which protocol runs it (every shard master, in a federation).
    pub protocol: Protocol,
    /// Cluster size (per shard in a federation, excluding the churn
    /// spare).
    pub workers: usize,
    /// The arrivals.
    pub load: Load,
    /// Crash/recovery schedule.
    pub faults: Vec<FaultDef>,
    /// `(index, cpu multiple)` — a deliberate straggler, if any.
    pub slow_worker: Option<(usize, f64)>,
    /// Per-worker store capacity in GB. Small values create the
    /// eviction pressure the pin discipline exists to survive.
    pub storage_gb: f64,
    /// Shape of the lossy-link plan armed when a [`Replay`] carries a
    /// net seed (the seed field is replaced by the replay's).
    pub links: NetFaultPlan,
    /// The replicated data plane, if armed.
    pub replication: Option<Replication>,
    /// Speculation knobs for DAG loads.
    pub atomize: AtomizeConfig,
    /// The sharded multi-master axis, if armed.
    pub federation: Option<Federation>,
    /// Whether every job is expected to complete by end of run (false
    /// only for scenarios that legitimately end partial).
    pub expect_all_complete: bool,
}

fn crash_recover(crash_secs: f64, recover_secs: f64) -> Vec<FaultDef> {
    [(crash_secs, false), (recover_secs, true)]
        .into_iter()
        .map(|(at_secs, recovers)| FaultDef {
            at_secs,
            worker: 0,
            recovers,
        })
        .collect()
}

impl Scenario {
    /// A fault-free single-master scenario on 10 GB workers with every
    /// optional axis off; builtins override fields from here.
    pub fn new(name: &'static str, protocol: Protocol, workers: usize, load: Load) -> Scenario {
        Scenario {
            name,
            protocol,
            workers,
            load,
            faults: Vec::new(),
            slow_worker: None,
            storage_gb: 10.0,
            // Moderate symmetric loss and duplication with small
            // delays, plus one full partition window shorter than the
            // placement-lease horizon, so every scenario must still
            // complete with exactly-once effects.
            links: NetFaultPlan::lossy(0, 0.15, 0.05).with_partition(
                None::<WorkerId>,
                SimTime::from_secs_f64(2.0),
                SimTime::from_secs_f64(4.0),
            ),
            replication: None,
            atomize: AtomizeConfig::default(),
            federation: None,
            expect_all_complete: true,
        }
    }

    /// The built-in scenarios of one family.
    pub fn builtins(family: Family) -> Vec<Scenario> {
        use Protocol::{Baseline, Bidding};
        let hot = || Load::stream(12, 1, 0.5, 100_000_000);
        match family {
            Family::Protocol => vec![
                Scenario::new("hot_repo_bidding", Bidding, 3, hot()),
                Scenario::new("reject_once_baseline", Baseline, 3, hot()),
                Scenario {
                    faults: crash_recover(6.0, 12.0),
                    ..Scenario::new("crash_recovery_bidding", Bidding, 3, hot())
                },
                Scenario {
                    faults: crash_recover(6.0, 12.0),
                    ..Scenario::new("crash_recovery_baseline", Baseline, 3, hot())
                },
                Scenario::new(
                    "two_repos_bidding",
                    Bidding,
                    4,
                    Load::stream(12, 2, 0.4, 60_000_000),
                ),
            ],
            // Shard count × spill threshold × membership churn.
            Family::Federation => {
                let fed =
                    |name, protocol, shards, workers, spill, gossip_loss, jobs, churn| Scenario {
                        federation: Some(Federation {
                            shards,
                            spill_threshold_secs: spill,
                            gossip_loss,
                            churn,
                        }),
                        ..Scenario::new(
                            name,
                            protocol,
                            workers,
                            Load::stream(jobs, 3, 0.5, 100_000_000),
                        )
                    };
                vec![
                    fed("fed_2shard_spill", Bidding, 2, 2, 10.0, 0.0, 16, false),
                    fed(
                        "fed_2shard_nospill",
                        Baseline,
                        2,
                        2,
                        f64::INFINITY,
                        0.0,
                        16,
                        false,
                    ),
                    fed("fed_4shard_spill", Bidding, 4, 2, 8.0, 0.0, 20, false),
                    fed("fed_4shard_churn", Bidding, 4, 3, 8.0, 0.0, 20, true),
                    fed(
                        "fed_2shard_lossy_gossip_churn",
                        Baseline,
                        2,
                        3,
                        10.0,
                        0.3,
                        16,
                        true,
                    ),
                ]
            }
            // A straggler-rescue scenario (push scheduling onto a slow
            // worker, speculation must fire) and a skewed-reducer
            // scenario (bidding over map outputs, gating under wide
            // fan-in).
            Family::Dag => vec![
                Scenario {
                    slow_worker: Some((2, 40.0)),
                    atomize: AtomizeConfig {
                        spec_factor: 2.0,
                        spec_check_secs: 2.0,
                        min_completed_for_spec: 3,
                        ..AtomizeConfig::default()
                    },
                    ..Scenario::new(
                        "dag_straggler",
                        Baseline,
                        3,
                        Load::Dags {
                            config: DagConfig::RepoSplit {
                                shards: 8,
                                repo_mb: 100,
                                tail_alpha: 1.5,
                            },
                            count: 2,
                        },
                    )
                },
                Scenario::new(
                    "dag_skewed_reduce",
                    Bidding,
                    4,
                    Load::Dags {
                        config: DagConfig::MapReduceSkew {
                            maps: 6,
                            reduces: 3,
                            skew_factor: 8.0,
                        },
                        count: 2,
                    },
                ),
            ],
            // Factor × holder crash × peer loss × eviction pressure.
            Family::Replication => {
                let repl =
                    |name, protocol, workers, load, factor, peer_drop_prob, storage_gb| Scenario {
                        replication: Some(Replication {
                            factor,
                            peer_drop_prob,
                        }),
                        storage_gb,
                        ..Scenario::new(name, protocol, workers, load)
                    };
                let spaced = || Load::stream(12, 2, 2.0, 100_000_000);
                vec![
                    Scenario {
                        faults: crash_recover(21.0, 40.0),
                        ..repl("repl_f2_crash", Bidding, 4, spaced(), 2, 0.0, 10.0)
                    },
                    repl("repl_f3_lossy", Bidding, 4, spaced(), 3, 0.5, 10.0),
                    Scenario {
                        faults: crash_recover(21.0, 40.0),
                        ..repl(
                            "repl_f2_lossy_crash_baseline",
                            Baseline,
                            4,
                            spaced(),
                            2,
                            0.3,
                            10.0,
                        )
                    },
                    // One worker, factor 1, three 100 MB artifacts
                    // against a two-slot store: the third insert *must*
                    // pass through because both residents are pinned
                    // sole copies. With the pin discipline sabotaged
                    // (`EvictLastCopy`) the insert evicts a last copy
                    // instead — the oracle's `EvictedLastCopy` catcher.
                    repl(
                        "repl_f1_evict_pressure",
                        Bidding,
                        1,
                        Load::stream(3, 3, 2.0, 100_000_000),
                        1,
                        0.0,
                        0.21,
                    ),
                    // Three two-slot stores, factor 2, six artifacts:
                    // the stores fill with pinned sole copies, so no
                    // store can retain a top-up copy, and repair copies
                    // can only evict each other. Repairs must stop
                    // rather than re-aim a pass-through or eviction
                    // copy forever (both runtimes must terminate).
                    repl(
                        "repl_f2_pinned_topup",
                        Bidding,
                        3,
                        Load::stream(12, 6, 1.0, 100_000_000),
                        2,
                        0.0,
                        0.21,
                    ),
                ]
            }
        }
    }

    /// The built-in scenario called `name`, in any family.
    pub fn builtin(name: &str) -> Option<Scenario> {
        [
            Family::Protocol,
            Family::Federation,
            Family::Dag,
            Family::Replication,
        ]
        .into_iter()
        .flat_map(Scenario::builtins)
        .find(|s| s.name == name)
    }

    /// The family this scenario belongs to.
    pub fn family(&self) -> Family {
        if self.federation.is_some() {
            Family::Federation
        } else if matches!(self.load, Load::Dags { .. }) {
            Family::Dag
        } else if self.replication.is_some() {
            Family::Replication
        } else {
            Family::Protocol
        }
    }

    /// Workers listed per shard: the churn spare is deferred but
    /// listed.
    pub fn shard_width(&self) -> usize {
        self.workers + usize::from(self.federation.is_some_and(|f| f.churn))
    }

    /// Jobs in the load (DAG arrivals for a DAG load).
    pub fn job_count(&self) -> usize {
        match &self.load {
            Load::Jobs(jobs) => jobs.len(),
            Load::Dags { count, .. } => *count,
        }
    }

    /// Completions a clean run must produce: effective task
    /// completions for a DAG load, jobs otherwise (plus one warm-up
    /// job per peer shard in a federation).
    pub fn expected_completions(&self) -> u64 {
        match (&self.load, self.federation) {
            (Load::Dags { config, count }, _) => (config.tasks_per_dag() * count) as u64,
            (Load::Jobs(jobs), Some(f)) => (jobs.len() + f.shards - 1) as u64,
            (Load::Jobs(jobs), None) => jobs.len() as u64,
        }
    }

    /// Completions `out` actually produced, counted like
    /// [`expected_completions`](Self::expected_completions).
    pub fn completions(&self, out: &Outcome) -> u64 {
        match self.load {
            Load::Dags { .. } => out.log().task_dones() as u64,
            Load::Jobs(_) => out.jobs_completed(),
        }
    }

    /// Oracle options for this scenario's own log (one shard's log in
    /// a federation; worker ids are shard-local there).
    pub fn oracle_options(&self, strict_reoffer: bool) -> OracleOptions {
        OracleOptions {
            expect_all_complete: self.expect_all_complete,
            strict_reoffer,
            workers: Some(self.shard_width() as u32),
            federated: false,
        }
    }

    /// Oracle options for a federation's merged log (worker ids are
    /// shard-qualified, so the per-shard bound does not apply).
    pub fn merged_oracle_options(&self) -> OracleOptions {
        OracleOptions {
            expect_all_complete: self.expect_all_complete,
            strict_reoffer: false,
            workers: None,
            federated: true,
        }
    }

    /// Check a run with the oracle: violations in the run's log (a
    /// federation's merged log), plus each shard's own violations as
    /// `(shard, violation)` pairs.
    pub fn violations(
        &self,
        out: &Outcome,
        strict_reoffer: bool,
    ) -> (Vec<Violation>, Vec<(usize, Violation)>) {
        match out {
            Outcome::Single(o) => (
                check_log(&o.sched_log, self.oracle_options(strict_reoffer)),
                Vec::new(),
            ),
            Outcome::Federated(f) => (
                check_log(&f.merged, self.merged_oracle_options()),
                f.shards
                    .iter()
                    .enumerate()
                    .flat_map(|(s, o)| {
                        check_log(&o.sched_log, self.oracle_options(false))
                            .into_iter()
                            .map(move |v| (s, v))
                    })
                    .collect(),
            ),
        }
    }

    /// The fault plan, optionally restricted to the listed workers
    /// (shrinking drops a worker's crash *and* recovery together, so
    /// the schedule stays well-formed).
    pub fn fault_plan(&self, keep_workers: Option<&[u32]>) -> FaultPlan {
        let mut plan = FaultPlan::new();
        for f in &self.faults {
            if keep_workers.is_some_and(|ws| !ws.contains(&f.worker)) {
                continue;
            }
            let at = SimTime::from_secs_f64(f.at_secs);
            plan = if f.recovers {
                plan.recover_at(at, WorkerId(f.worker))
            } else {
                plan.crash_at(at, WorkerId(f.worker))
            };
        }
        plan.with_detection_delay(SimDuration::from_secs(2))
    }

    /// Workers that have at least one scheduled fault.
    pub fn faulted_workers(&self) -> Vec<u32> {
        let mut ws: Vec<u32> = self.faults.iter().map(|f| f.worker).collect();
        ws.sort_unstable();
        ws.dedup();
        ws
    }

    /// The seeded churn schedule of one federation shard: the spare
    /// (last) worker joins early, worker 0 drains mid-run, and with at
    /// least three base workers, worker 1 is administratively removed
    /// late. Event times derive from `membership_seed` and the shard
    /// index, so one seed replays the whole federation's churn.
    fn membership_plan(&self, shard: usize, membership_seed: u64) -> MembershipPlan {
        if !self.federation.is_some_and(|f| f.churn) {
            return MembershipPlan::none();
        }
        let mut rng = SeedSequence::new(membership_seed).stream(shard as u64);
        let spare = WorkerId((self.shard_width() - 1) as u32);
        let mut plan = MembershipPlan::new()
            .join_at(SimTime::from_secs_f64(rng.uniform(2.0, 6.0)), spare)
            .drain_at(SimTime::from_secs_f64(rng.uniform(6.0, 10.0)), WorkerId(0));
        if self.workers >= 3 {
            plan = plan.remove_at(SimTime::from_secs_f64(rng.uniform(10.0, 14.0)), WorkerId(1));
        }
        plan
    }

    /// The single-master arrival stream. A job list keeps only the
    /// replay's `keep_jobs` (payloads carry the original index, so a
    /// shrunk run's jobs remain identifiable); a DAG load is generated
    /// from the run seed.
    pub fn arrivals(&self, task: TaskId, replay: &Replay) -> Vec<Arrival> {
        match &self.load {
            Load::Jobs(jobs) => jobs
                .iter()
                .enumerate()
                .filter(|(i, _)| replay.keep_jobs.as_ref().is_none_or(|ks| ks.contains(i)))
                .map(|(i, j)| Arrival {
                    at: SimTime::from_secs_f64(j.at_secs),
                    spec: scan(task, j.object, j.bytes, i as u64),
                })
                .collect(),
            Load::Dags { config, count } => config.generate(replay.run, *count, task, 5.0),
        }
    }

    /// The federation arrival stream: the job list aimed at shard 0,
    /// plus one warm-up job per peer shard so every master has local
    /// activity to interleave with spill-ins.
    fn fed_arrivals(&self, replay: &Replay, shards: usize) -> Vec<FedArrival> {
        let mut arrivals: Vec<FedArrival> = self
            .arrivals(TaskId(0), replay)
            .into_iter()
            .map(|a| FedArrival {
                at: a.at,
                home: ShardId(0),
                spec: a.spec,
            })
            .collect();
        arrivals.extend((1..shards).map(|s| FedArrival {
            at: SimTime::from_secs(1),
            home: ShardId(s as u16),
            spec: scan(TaskId(0), 100 + s as u64, 50_000_000, 1000 + s as u64),
        }));
        arrivals
    }

    fn worker_specs(&self, prefix: &str) -> Vec<WorkerSpec> {
        (0..self.shard_width())
            .map(|i| {
                let mut b = WorkerSpec::builder(format!("{prefix}w{i}"))
                    .net_mbps(10.0)
                    .rw_mbps(100.0)
                    .storage_gb(self.storage_gb);
                if let Some((slow, factor)) = self.slow_worker {
                    if slow == i {
                        b = b.cpu_factor(factor);
                    }
                }
                b.build()
            })
            .collect()
    }

    /// Ideal control plane, no noise, no speed learning — protocol
    /// behavior only, so a sim run is exactly reproducible and a
    /// threaded run's variability comes from thread scheduling (plus
    /// any chaos) alone.
    fn engine(&self, atomize: AtomizeConfig) -> EngineConfig {
        EngineConfig {
            control: ControlPlane::instant(),
            data_latency: SimDuration::ZERO,
            noise: NoiseModel::None,
            atomize,
            ..EngineConfig::default()
        }
    }

    /// The single-master [`RunSpec`] for one replay. The sim engine is
    /// mutation-agnostic, so on the sim the mutation's sabotage is
    /// armed as the equivalent atomize/replication flags; the threaded
    /// runtime maps the mutation itself (feature permitting).
    pub fn spec(&self, runtime: Runtime, replay: &Replay) -> RunSpec {
        let mutation = replay.mutation.protocol();
        let sim = runtime == Runtime::Sim;
        let mut atomize = self.atomize;
        atomize.release_all |= sim && mutation == ProtocolMutation::OfferBeforePredecessor;
        atomize.double_speculate |= sim && mutation == ProtocolMutation::DoubleSpeculate;
        let net = replay
            .net
            .map_or_else(NetFaultPlan::none, |seed| NetFaultPlan {
                seed,
                ..self.links.clone()
            });
        let master = replay.crash_index.map_or_else(MasterFaultPlan::none, |ix| {
            MasterFaultPlan::new().crash_at(ix)
        });
        let mut b = RunSpec::builder()
            .workers(self.worker_specs(""))
            .engine(self.engine(atomize))
            .speed_learning(false);
        if let Some(r) = self.replication {
            let mut cfg = ReplicationConfig::with_factor(r.factor);
            cfg.peer_drop_prob = r.peer_drop_prob;
            cfg.skip_repair |= sim && mutation == ProtocolMutation::SkipRepair;
            cfg.evict_last_copy |= sim && mutation == ProtocolMutation::EvictLastCopy;
            b = b.replication(cfg);
        }
        let mut spec = b
            .faults(
                Faults::new()
                    .workers(self.fault_plan(replay.keep_fault_workers.as_deref()))
                    .net(net)
                    .master(master),
            )
            .trace(true)
            .names("checker", self.name)
            .seed(replay.run)
            .time_scale(1e-3)
            .build();
        if !sim {
            spec.chaos = replay.chaos.map(ChaosConfig::aggressive);
            spec.mutation = mutation;
        }
        spec
    }

    /// One run on `runtime`, replaying `replay`.
    pub fn run(&self, runtime: Runtime, replay: &Replay) -> Outcome {
        self.run_with_chaos(runtime, replay, replay.chaos.map(ChaosConfig::aggressive))
    }

    /// [`run`](Self::run) with an explicit chaos configuration (the
    /// explorer attaches a delivery log to record the schedule).
    pub(crate) fn run_with_chaos(
        &self,
        runtime: Runtime,
        replay: &Replay,
        chaos: Option<ChaosConfig>,
    ) -> Outcome {
        let chaos = chaos.filter(|_| runtime == Runtime::Threaded);
        let Some(fed) = self.federation else {
            let mut spec = self.spec(runtime, replay);
            spec.chaos = chaos;
            let mut wf = Workflow::new();
            let task = wf.add_sink("scan");
            let arrivals = self.arrivals(task, replay);
            let allocator = self.protocol.allocator();
            return Outcome::Single(Box::new(match runtime {
                Runtime::Sim => spec
                    .sim()
                    .run_iteration(&mut wf, allocator.as_ref(), arrivals),
                Runtime::Threaded => {
                    spec.threaded()
                        .run_iteration(&mut wf, allocator.as_ref(), arrivals)
                }
            }));
        };
        let membership = replay.membership.unwrap_or(replay.run);
        let shards = (0..fed.shards)
            .map(|s| {
                ShardSpec::new(self.worker_specs(&format!("s{s}")))
                    .faults(Faults::new().membership(self.membership_plan(s, membership)))
            })
            .collect();
        let mut spec = FederationSpec::new(shards);
        spec.spill_threshold_secs = fed.spill_threshold_secs;
        spec.gossip_period_secs = 2.0;
        spec.gossip_loss = fed.gossip_loss;
        spec.spill_latency_secs = 0.5;
        spec.seed = replay.run;
        spec.net_seed = replay.net.unwrap_or(replay.run);
        spec.runtime = runtime.into();
        spec.chaos = chaos;
        spec.mutation = replay.mutation.federation();
        spec.engine = self.engine(self.atomize);
        Outcome::Federated(run_federation(
            &spec,
            self.fed_arrivals(replay, fed.shards),
            self.protocol.allocator().as_ref(),
            |_| {
                let mut wf = Workflow::new();
                wf.add_sink("scan");
                wf
            },
        ))
    }
}

fn scan(task: TaskId, object: u64, bytes: u64, index: u64) -> JobSpec {
    JobSpec::scanning(
        task,
        ResourceRef {
            id: ObjectId(object),
            bytes,
        },
        Payload::Index(index),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_unique(all: &[Scenario]) {
        let names: std::collections::HashSet<_> = all.iter().map(|s| s.name).collect();
        assert_eq!(names.len(), all.len(), "scenario names are unique");
    }

    /// Every builtin of `family` completes every job with a clean
    /// oracle on the sim engine.
    fn assert_clean_on_sim(family: Family) {
        for sc in Scenario::builtins(family) {
            assert_eq!(sc.family(), family, "{}", sc.name);
            let out = sc.run(Runtime::Sim, &Replay::new(7));
            assert_eq!(
                sc.completions(&out),
                sc.expected_completions(),
                "{}: everything completes exactly once",
                sc.name
            );
            let (v, shard_v) = sc.violations(&out, false);
            assert!(v.is_empty(), "{}: sim violations {v:?}", sc.name);
            assert!(
                shard_v.is_empty(),
                "{}: shard violations {shard_v:?}",
                sc.name
            );
        }
    }

    #[test]
    fn builtins_cover_both_protocols_and_faults() {
        let all = Scenario::builtins(Family::Protocol);
        assert!(all.iter().any(|s| s.protocol == Protocol::Bidding));
        assert!(all.iter().any(|s| s.protocol == Protocol::Baseline));
        assert!(all.iter().any(|s| !s.faults.is_empty()));
        assert_unique(&all);
    }

    #[test]
    fn shrink_subsets_restrict_jobs_and_faults() {
        let sc = Scenario::builtin("crash_recovery_bidding").expect("known scenario");
        let mut wf = Workflow::new();
        let task = wf.add_sink("scan");
        assert_eq!(sc.arrivals(task, &Replay::new(0)).len(), 12);
        let shrunk = Replay {
            keep_jobs: Some(vec![0, 5, 11]),
            ..Replay::new(0)
        };
        assert_eq!(sc.arrivals(task, &shrunk).len(), 3);
        assert_eq!(sc.fault_plan(None).events().len(), 2);
        assert!(sc.fault_plan(Some(&[])).is_empty());
        assert_eq!(sc.faulted_workers(), vec![0]);
    }

    #[test]
    fn fed_builtins_cover_the_axis() {
        let all = Scenario::builtins(Family::Federation);
        let fed = |s: &Scenario| s.federation.expect("federation builtin");
        assert!(all.iter().any(|s| fed(s).shards == 2));
        assert!(all.iter().any(|s| fed(s).shards >= 4));
        assert!(all
            .iter()
            .any(|s| fed(s).spill_threshold_secs.is_infinite()));
        assert!(all.iter().any(|s| fed(s).churn));
        assert!(all.iter().any(|s| fed(s).gossip_loss > 0.0));
        assert!(all.iter().any(|s| s.protocol == Protocol::Bidding));
        assert!(all.iter().any(|s| s.protocol == Protocol::Baseline));
        assert_unique(&all);
    }

    #[test]
    fn every_fed_builtin_passes_both_oracles_on_the_sim_engine() {
        assert_clean_on_sim(Family::Federation);
    }

    #[test]
    fn dag_builtins_pass_the_oracle_and_conserve_tasks_on_the_sim_engine() {
        assert_clean_on_sim(Family::Dag);
    }

    #[test]
    fn dag_straggler_builtin_actually_speculates() {
        let sc = Scenario::builtin("dag_straggler").expect("known scenario");
        let out = sc.run(Runtime::Sim, &Replay::new(7));
        assert!(
            out.log().spec_launches() >= 1,
            "the straggler scenario must exercise speculation"
        );
    }

    #[test]
    fn repl_builtins_cover_the_axis() {
        let all = Scenario::builtins(Family::Replication);
        let repl = |s: &Scenario| s.replication.expect("replication builtin");
        assert!(all.iter().any(|s| !s.faults.is_empty()));
        assert!(all.iter().any(|s| repl(s).peer_drop_prob > 0.0));
        assert!(all.iter().any(|s| repl(s).factor >= 3));
        assert!(all
            .iter()
            .any(|s| repl(s).factor == 1 && s.storage_gb < 1.0));
        assert!(all
            .iter()
            .any(|s| repl(s).factor == 2 && s.storage_gb < 1.0));
        assert!(all.iter().any(|s| s.protocol == Protocol::Bidding));
        assert!(all.iter().any(|s| s.protocol == Protocol::Baseline));
        assert_unique(&all);
    }

    #[test]
    fn every_repl_builtin_passes_the_oracle_on_the_sim_engine() {
        assert_clean_on_sim(Family::Replication);
    }

    #[test]
    fn every_builtin_passes_the_oracle_on_the_sim_engine() {
        assert_clean_on_sim(Family::Protocol);
    }
}
