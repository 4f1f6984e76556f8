//! The three workloads: cluster, engine configuration and input
//! stream, all generated from the workload seed.

use crossbid_crossflow::{
    Arrival, EngineConfig, FaultPlan, JobSpec, Payload, ReplicationConfig, ResourceRef, RunSpec,
    TaskId, WorkerId,
};
use crossbid_simcore::{SeedSequence, SimTime};
use crossbid_storage::ObjectId;
use crossbid_workload::{ArrivalProcess, JobConfig, WorkerConfig};

/// One benchmark workload. Every one runs the `BiddingAllocator`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Sim engine, 256 equal workers: per-job cost is contest fan-out.
    Wide256,
    /// Sim engine, 32 small-store workers at replication factor 2 with
    /// holder crashes: the storage layer writes as well as reads.
    ReplChurn,
    /// Threaded runtime, the paper's 5-worker fast/slow cluster, open
    /// loop at a fixed rate.
    Threaded5,
}

/// Replicated-object size in `repl-churn`.
const REPL_OBJECT_BYTES: u64 = 100_000_000;
/// Distinct objects in `repl-churn`'s popularity-skewed set.
const REPL_OBJECTS: u64 = 512;
/// Per-worker store in `repl-churn`: 20 objects, so 640 slots across
/// the cluster against the 1,024 copies factor 2 asks for.
const REPL_STORE_BYTES: u64 = 2_000_000_000;
/// Holder crashes injected into each `repl-churn` run.
const REPL_CRASHES: u64 = 4;

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Wide256, Workload::ReplChurn, Workload::Threaded5];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Wide256 => "wide-256",
            Workload::ReplChurn => "repl-churn",
            Workload::Threaded5 => "threaded-5",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_sim(self) -> bool {
        self != Workload::Threaded5
    }

    pub fn workers(self) -> usize {
        match self {
            Workload::Wide256 => 256,
            Workload::ReplChurn => 32,
            Workload::Threaded5 => WorkerConfig::PAPER_WORKER_COUNT,
        }
    }

    /// Jobs in the measured stream.
    pub fn jobs(self) -> usize {
        match self {
            Workload::Wide256 => 10_000,
            Workload::ReplChurn => 40_000,
            Workload::Threaded5 => 10_000,
        }
    }

    /// Jobs in the warm-up prefix that set-up runs before measuring.
    pub fn warmup_jobs(self) -> usize {
        match self {
            Workload::Wide256 => 1_500,
            Workload::ReplChurn => 8_000,
            Workload::Threaded5 => 1_000,
        }
    }

    /// Real seconds per virtual second (threaded runtime only): with
    /// `threaded-5`'s 2 s mean gap, an open loop at 2,500 jobs/s.
    const TIME_SCALE: f64 = 2e-4;

    /// The run specification. `trace` switches the program's own
    /// per-job trace and scheduler log; the threaded runtime keeps its
    /// scheduler log either way.
    pub fn spec(self, seed: u64, trace: bool) -> RunSpec {
        let n = self.workers();
        let mut engine = EngineConfig::default();
        let workers = match self {
            Workload::Wide256 => WorkerConfig::AllEqual.specs(n),
            Workload::Threaded5 => WorkerConfig::FastSlow.specs(n),
            Workload::ReplChurn => {
                engine.replication = ReplicationConfig::with_factor(2);
                engine.faults = self.crashes(seed);
                let mut specs = WorkerConfig::AllEqual.specs(n);
                for s in &mut specs {
                    s.storage_bytes = REPL_STORE_BYTES;
                }
                specs
            }
        };
        engine.trace = trace;
        RunSpec::builder()
            .workers(workers)
            .names(
                if self == Workload::Threaded5 {
                    WorkerConfig::FastSlow.name()
                } else {
                    WorkerConfig::AllEqual.name()
                },
                self.name(),
            )
            .seed(seed)
            .engine(engine)
            .time_scale(Self::TIME_SCALE)
            .build()
    }

    /// `repl-churn`'s holder crashes: four distinct seeded workers, one
    /// at each fifth of the arrival span, none recovering. Every worker
    /// holds data by then (the stores fill within the warm-up), so each
    /// crash drops replicas and starts repairs.
    fn crashes(self, seed: u64) -> FaultPlan {
        let span = self.jobs() as f64 * self.interval_secs();
        let mut rng = SeedSequence::new(seed).stream(7);
        let mut picked: Vec<u32> = Vec::new();
        while (picked.len() as u64) < REPL_CRASHES {
            let w = rng.below(self.workers() as u64) as u32;
            if !picked.contains(&w) {
                picked.push(w);
            }
        }
        picked
            .iter()
            .enumerate()
            .fold(FaultPlan::new(), |plan, (k, &w)| {
                let at = span * (k + 1) as f64 / (REPL_CRASHES + 1) as f64;
                plan.crash_at(SimTime::from_secs_f64(at), WorkerId(w))
            })
    }

    /// Mean (Poisson) or fixed (`repl-churn`) virtual inter-arrival gap.
    fn interval_secs(self) -> f64 {
        match self {
            Workload::Wide256 => 0.3,
            Workload::ReplChurn => 0.1,
            Workload::Threaded5 => 2.0,
        }
    }

    /// The full input stream, ordered by due time. Job ids are
    /// allocated in arrival order, so `JobId(k)` is `arrivals[k]`.
    pub fn arrivals(self, seed: u64, task: TaskId) -> Vec<Arrival> {
        match self {
            Workload::Wide256 | Workload::Threaded5 => {
                JobConfig::Pct80Small
                    .generate(
                        seed,
                        self.jobs(),
                        task,
                        &ArrivalProcess::Poisson {
                            mean_interval_secs: self.interval_secs(),
                        },
                    )
                    .arrivals
            }
            Workload::ReplChurn => {
                // Skewed popularity: rank = floor(u² · 512), so low
                // ranks are hot and the tail is cold.
                let mut rng = SeedSequence::new(seed).stream(3);
                (0..self.jobs())
                    .map(|i| {
                        let u = rng.unit();
                        let rank = ((u * u * REPL_OBJECTS as f64) as u64).min(REPL_OBJECTS - 1);
                        Arrival {
                            at: SimTime::from_secs_f64(i as f64 * self.interval_secs()),
                            spec: JobSpec::scanning(
                                task,
                                ResourceRef {
                                    id: ObjectId(1 + rank),
                                    bytes: REPL_OBJECT_BYTES,
                                },
                                Payload::Index(i as u64),
                            ),
                        }
                    })
                    .collect()
            }
        }
    }
}
