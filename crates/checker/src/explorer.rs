//! The explorer: sweep seeded runs of one scenario through the oracle.
//!
//! Each iteration derives a fresh [`Replay`] from the root seed — run
//! seed, plus chaos, net, crash-index and membership seeds for the
//! axes the configuration and the scenario arm — runs the scenario on
//! the chosen runtime, feeds the log to the invariant
//! [`oracle`](crate::oracle), and checks completion conservation. A
//! single-master job-list scenario on the threaded runtime is also
//! cross-checked against one deterministic simulation run, and on a
//! violation it is *shrunk*: greedily drop jobs, then whole workers'
//! fault schedules, keeping each removal only if the violation still
//! reproduces, and report the minimal replay together with the
//! recorded delivery schedule. Other scenarios replay as-is — DAG
//! tasks are entangled through their precedence edges, replica state
//! through the pin/repair protocol, and a federation's routing through
//! its seeds — so their failing replay value *is* the repro.
//!
//! The threaded runtime is genuinely nondeterministic, so
//! "reproduces" means "within a few attempts under the same seeds";
//! the shrinker is conservative and keeps anything it cannot confirm
//! removable.

use std::ops::AddAssign;

use crossbid_crossflow::{ChaosConfig, SchedLog};
use crossbid_simcore::SeedSequence;

use crate::oracle::Violation;
use crate::scenario::{Family, Mutation, Outcome, Replay, Runtime, Scenario};

/// Exploration parameters.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Runs to explore per scenario.
    pub iters: u32,
    /// Root seed; per-iteration replay seeds derive from it.
    pub base_seed: u64,
    /// Which runtime executes the sweep.
    pub runtime: Runtime,
    /// Reintroduced bug, if any (checker self-validation). A mutated
    /// sweep skips the conservation checks: it exists to be caught by
    /// the oracle.
    pub mutation: Mutation,
    /// Perturb threaded message delivery (hold/reorder/duplicate/
    /// corrupt).
    pub chaos: bool,
    /// Arm the scenario's lossy-link plan (drop/duplicate/delay plus a
    /// timed partition window) with the reliability countermeasures.
    pub netfault: bool,
    /// Crash the master at a seeded log append index each iteration
    /// (bounded by a reference sim run's log length, so the crash
    /// lands mid-protocol); the elected standby must finish the
    /// scenario with exactly-once effects. Single-master scenarios
    /// only.
    pub master_crash: bool,
    /// Enforce the Baseline's reject-once re-offer routing. Only sound
    /// without chaos (reordering legitimizes re-offers), so the
    /// explorer ignores it whenever `chaos` is on.
    pub strict_reoffer: bool,
    /// Shrink attempts per removal candidate (the threaded runtime is
    /// nondeterministic; a violation counts as reproduced if any
    /// attempt shows one).
    pub repro_attempts: u32,
}

impl ExploreConfig {
    /// Deterministic delivery of the correct protocol on `runtime`,
    /// every perturbation off.
    pub fn new(runtime: Runtime, iters: u32, base_seed: u64) -> Self {
        ExploreConfig {
            iters,
            base_seed,
            runtime,
            mutation: Mutation::None,
            chaos: false,
            netfault: false,
            master_crash: false,
            strict_reoffer: false,
            repro_attempts: 3,
        }
    }

    /// A quick threaded sweep of the correct protocol under chaos.
    pub fn quick(iters: u32, base_seed: u64) -> Self {
        ExploreConfig {
            chaos: true,
            ..ExploreConfig::new(Runtime::Threaded, iters, base_seed)
        }
    }

    /// Strict-mode threaded sweep without chaos: deterministic
    /// delivery, plus the Baseline re-offer routing invariant.
    pub fn strict(iters: u32, base_seed: u64) -> Self {
        ExploreConfig {
            strict_reoffer: true,
            ..ExploreConfig::new(Runtime::Threaded, iters, base_seed)
        }
    }

    /// A lossy-network sweep: chaos *and* link faults together, the
    /// harshest delivery environment the reliability layer must
    /// survive with exactly-once effects.
    pub fn netfault(iters: u32, base_seed: u64) -> Self {
        ExploreConfig {
            netfault: true,
            ..ExploreConfig::quick(iters, base_seed)
        }
    }

    /// The master-crash sweep: each iteration kills the leader at a
    /// seeded decision-log index, crossed with lossy links, so the
    /// elected standby inherits in-flight contests, unacked
    /// assignments and pending retries — and must still finish every
    /// job exactly once.
    pub fn failover(iters: u32, base_seed: u64) -> Self {
        ExploreConfig {
            master_crash: true,
            netfault: true,
            ..ExploreConfig::quick(iters, base_seed)
        }
    }
}

/// Protocol activity observed across a sweep, read from the logs. A
/// sweep whose axis never fired proves nothing about it, so the
/// sweeps demand these counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Activity {
    /// Master failovers.
    pub failovers: u64,
    /// Cross-shard hand-offs (`SpillOut`s).
    pub spills: u64,
    /// Elastic-membership events (joins + drains + removals).
    pub churn: u64,
    /// Speculative task launches.
    pub speculative_launches: u64,
    /// Successful peer fetches.
    pub peer_fetches: u64,
    /// Fetch retries (lost peer transfers).
    pub fetch_retries: u64,
    /// Committed re-replications that completed.
    pub repairs: u64,
}

impl Activity {
    /// The activity recorded in one log.
    pub(crate) fn of(log: &SchedLog) -> Self {
        Activity {
            failovers: log.failovers() as u64,
            spills: log.spills_out() as u64,
            churn: (log.worker_joins() + log.worker_drains() + log.worker_removals()) as u64,
            speculative_launches: log.spec_launches() as u64,
            peer_fetches: log.fetch_oks() as u64,
            fetch_retries: log.fetch_fails() as u64,
            repairs: log.repair_dones() as u64,
        }
    }

    /// The counts a report of `family` shows (failovers whenever any
    /// fired).
    fn render(&self, family: Family) -> String {
        let mut parts = Vec::new();
        match family {
            Family::Federation => {
                parts.push(format!("{} spill(s)", self.spills));
                parts.push(format!("{} churn event(s)", self.churn));
            }
            Family::Dag => {
                parts.push(format!(
                    "{} speculative launch(es)",
                    self.speculative_launches
                ));
            }
            Family::Replication => {
                parts.push(format!("{} peer fetch(es)", self.peer_fetches));
                parts.push(format!("{} retry(ies)", self.fetch_retries));
                parts.push(format!("{} repair(s)", self.repairs));
            }
            Family::Protocol => {}
        }
        if self.failovers > 0 {
            parts.push(format!("{} failover(s) survived", self.failovers));
        }
        parts.iter().map(|p| format!(", {p}")).collect()
    }
}

impl AddAssign for Activity {
    fn add_assign(&mut self, o: Activity) {
        self.failovers += o.failovers;
        self.spills += o.spills;
        self.churn += o.churn;
        self.speculative_launches += o.speculative_launches;
        self.peer_fetches += o.peer_fetches;
        self.fetch_retries += o.fetch_retries;
        self.repairs += o.repairs;
    }
}

/// A (minimized) failing run.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Iteration index at which the violation first appeared.
    pub iteration: u32,
    /// The replay value of the minimal repro: feed it to
    /// [`Scenario::run`] on the report's runtime.
    pub replay: Replay,
    /// Violations in the run's log (a federation's merged log).
    pub violations: Vec<Violation>,
    /// Per-shard violations of a federation, as `(shard, violation)`.
    pub shard_violations: Vec<(usize, Violation)>,
    /// The recorded delivery schedule of the minimal failing run
    /// (empty when chaos was off).
    pub schedule: String,
}

/// Result of exploring one scenario.
#[derive(Debug, Clone)]
pub struct Report {
    /// Scenario name.
    pub scenario: &'static str,
    /// Scenario family (selects the activity counts shown).
    pub family: Family,
    /// Protocol name.
    pub protocol: &'static str,
    /// Which runtime ran the sweep.
    pub runtime: Runtime,
    /// Runs actually made (stops early on failure).
    pub iterations_run: u32,
    /// Activity observed across the sweep.
    pub activity: Activity,
    /// Conservation mismatches (expected completions, and sim parity
    /// of threaded job-list runs).
    pub parity_mismatches: Vec<String>,
    /// The first failure, if any iteration violated an invariant.
    pub failure: Option<Failure>,
}

impl Report {
    /// No violations and no conservation mismatches.
    pub fn passed(&self) -> bool {
        self.failure.is_none() && self.parity_mismatches.is_empty()
    }

    /// Human-readable report; on failure this is the full repro
    /// recipe (replay value, minimal job subset, delivery schedule).
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} [{} on {}]: {} run(s){}",
            self.scenario,
            self.protocol,
            self.runtime.name(),
            self.iterations_run,
            self.activity.render(self.family),
        );
        if self.passed() {
            out.push_str(" — ok\n");
            return out;
        }
        out.push('\n');
        for m in &self.parity_mismatches {
            out.push_str(&format!("  parity: {m}\n"));
        }
        if let Some(f) = &self.failure {
            out.push_str(&format!(
                "  VIOLATION at iteration {} ({})\n",
                f.iteration, f.replay
            ));
            for v in &f.violations {
                out.push_str(&format!("    {v}\n"));
            }
            for (s, v) in &f.shard_violations {
                out.push_str(&format!("    shard {s}: {v}\n"));
            }
            if let Some(jobs) = &f.replay.keep_jobs {
                out.push_str(&format!(
                    "  minimal repro: jobs {jobs:?}, faulted workers {:?}\n",
                    f.replay.keep_fault_workers.as_deref().unwrap_or_default()
                ));
            }
            if !f.schedule.is_empty() {
                out.push_str("  delivery schedule of the minimal failing run:\n");
                for line in f.schedule.lines() {
                    out.push_str(&format!("    {line}\n"));
                }
            }
        }
        out
    }
}

/// One run with the delivery schedule recorded when chaos is armed.
fn attempt(sc: &Scenario, runtime: Runtime, replay: &Replay) -> (Outcome, String) {
    let (chaos, log) = match replay.chaos {
        Some(seed) => {
            let (c, h) = ChaosConfig::aggressive(seed).with_delivery_log();
            (Some(c), Some(h))
        }
        None => (None, None),
    };
    let out = sc.run_with_chaos(runtime, replay, chaos);
    let schedule = log.map(|h| h.lock().render()).unwrap_or_default();
    (out, schedule)
}

/// Greedy delta-debugging of a single-master job-list failure: drop
/// jobs one at a time, then whole workers' fault schedules, keeping
/// each removal only if the violation still reproduces; then re-run
/// the minimal replay to capture its schedule and violations (keeping
/// the original capture if the nondeterminism refuses to cooperate one
/// more time).
fn shrink(sc: &Scenario, cfg: &ExploreConfig, strict: bool, failure: &mut Failure) {
    let attempts = cfg.repro_attempts.max(1);
    let violations = |replay: &Replay| {
        let (out, schedule) = attempt(sc, cfg.runtime, replay);
        (sc.violations(&out, strict).0, schedule)
    };
    let reproduces = |replay: &Replay| (0..attempts).any(|_| !violations(replay).0.is_empty());
    let mut replay = failure.replay.clone();
    let mut jobs: Vec<usize> = (0..sc.job_count()).collect();
    for candidate in (0..sc.job_count()).rev() {
        if jobs.len() == 1 {
            break;
        }
        let trial: Vec<usize> = jobs.iter().copied().filter(|j| *j != candidate).collect();
        if reproduces(&Replay {
            keep_jobs: Some(trial.clone()),
            ..replay.clone()
        }) {
            jobs = trial;
        }
    }
    replay.keep_jobs = Some(jobs);
    let mut fault_workers = sc.faulted_workers();
    for candidate in sc.faulted_workers() {
        let trial: Vec<u32> = fault_workers
            .iter()
            .copied()
            .filter(|w| *w != candidate)
            .collect();
        if reproduces(&Replay {
            keep_fault_workers: Some(trial.clone()),
            ..replay.clone()
        }) {
            fault_workers = trial;
        }
    }
    replay.keep_fault_workers = Some(fault_workers);
    for _ in 0..attempts {
        let (v, schedule) = violations(&replay);
        if !v.is_empty() {
            (failure.violations, failure.schedule) = (v, schedule);
            break;
        }
    }
    failure.replay = replay;
}

/// Sweep `cfg.iters` seeded runs of `sc`. Stops at (and, for a
/// threaded job-list scenario, shrinks) the first violation.
pub fn explore(sc: &Scenario, cfg: &ExploreConfig) -> Report {
    let mut report = Report {
        scenario: sc.name,
        family: sc.family(),
        protocol: sc.protocol.name(),
        runtime: cfg.runtime,
        iterations_run: 0,
        activity: Activity::default(),
        parity_mismatches: Vec::new(),
        failure: None,
    };
    let threaded = cfg.runtime == Runtime::Threaded;
    let federated = sc.federation.is_some();
    let shrinkable = threaded && sc.family() == Family::Protocol;
    let clean = cfg.mutation.is_none();
    let strict = cfg.strict_reoffer && !cfg.chaos;
    // One deterministic reference run for conservation parity; the
    // master-crash axis also uses its log length to bound the seeded
    // crash indices (the threaded log has the same order of magnitude,
    // so an index drawn from the first half reliably fires mid-run).
    let master_crash = cfg.master_crash && !federated;
    let reference = ((shrinkable && clean) || master_crash)
        .then(|| sc.run(Runtime::Sim, &Replay::new(cfg.base_seed)));
    let crash_bound =
        master_crash.then(|| (reference.as_ref().map_or(0, |r| r.log().len() as u64) / 2).max(2));
    let seeds = SeedSequence::new(cfg.base_seed);
    for i in 0..cfg.iters {
        let run = seeds.seed_for(i as u64);
        let replay = Replay {
            run,
            chaos: (cfg.chaos && threaded).then_some(run),
            net: (cfg.netfault || federated).then(|| seeds.seed_for(0x4E37_0000 + i as u64)),
            crash_index: crash_bound.map(|b| 1 + seeds.seed_for(0xFA11_0000 + i as u64) % b),
            membership: federated.then(|| seeds.seed_for(0x4D42_0000 + i as u64)),
            mutation: cfg.mutation,
            ..Replay::default()
        };
        let (out, schedule) = attempt(sc, cfg.runtime, &replay);
        report.iterations_run = i + 1;
        report.activity += Activity::of(out.log());
        if clean {
            let (expected, observed) = (sc.expected_completions(), sc.completions(&out));
            if sc.expect_all_complete && expected != observed {
                report.parity_mismatches.push(format!(
                    "iteration {i}: expected {expected} completions, observed {observed}"
                ));
            }
        }
        if let Some(sim) = reference.as_ref().filter(|_| shrinkable && clean) {
            for (what, simv, thrv) in [
                ("jobs_completed", sim.jobs_completed(), out.jobs_completed()),
                (
                    "submissions",
                    sim.log().submissions() as u64,
                    out.log().submissions() as u64,
                ),
                (
                    "completions",
                    sim.log().completions() as u64,
                    out.log().completions() as u64,
                ),
            ] {
                if simv != thrv {
                    report
                        .parity_mismatches
                        .push(format!("iteration {i}: {what} sim={simv} threaded={thrv}"));
                }
            }
        }
        let (violations, shard_violations) = sc.violations(&out, strict);
        if violations.is_empty() && shard_violations.is_empty() {
            continue;
        }
        let mut failure = Failure {
            iteration: i,
            replay,
            violations,
            shard_violations,
            schedule,
        };
        if shrinkable {
            shrink(sc, cfg, strict, &mut failure);
        }
        report.failure = Some(failure);
        break;
    }
    report
}
