//! Driving the program: set-up, measured iterations, the traced
//! iteration, and the correctness gates on their outputs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crossbid_checker::{Oracle, OracleOptions};
use crossbid_core::BiddingAllocator;
use crossbid_crossflow::{
    Arrival, RunOutput, Runtime, SchedEvent, SchedEventKind, SchedLog, TaskId, WorkerId, Workflow,
};
use crossbid_simcore::SimTime;
use crossbid_storage::ReplicaMap;

use crate::workload::Workload;

/// Set-up is repeated at least this often per run, so `setup_s` has
/// several samples even when only one measured iteration fits the
/// budget.
const MIN_SETUPS: usize = 5;

/// A fresh single-sink workflow and its sink's task id, which the
/// generated arrivals name.
pub fn workflow() -> (Workflow, TaskId) {
    let mut wf = Workflow::new();
    let task = wf.add_sink("bench");
    (wf, task)
}

/// One iteration of the program, with a panic caught and reported
/// instead of ending the benchmark (see the livelock note in the
/// README).
pub fn iterate(
    rt: &mut dyn Runtime,
    arrivals: Vec<Arrival>,
    failures: &mut Vec<String>,
) -> Option<(RunOutput, f64)> {
    let (mut wf, _) = workflow();
    let t0 = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| {
        rt.run_iteration(&mut wf, &BiddingAllocator::new(), arrivals)
    }));
    let wall = t0.elapsed().as_secs_f64();
    match out {
        Ok(out) => Some((out, wall)),
        Err(panic) => {
            let msg = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic");
            failures.push(format!("run_iteration panicked: {msg}"));
            None
        }
    }
}

/// A session after set-up.
pub struct Warm {
    pub rt: Box<dyn Runtime>,
    /// Set-up wall time.
    pub secs: f64,
    /// Replica holders at the end of the warm-up, which the sim engine
    /// seeds into the next iteration without logging them.
    pub replicas: Option<ReplicaMap>,
    /// Oracle violations in the warm-up's log.
    pub violations: usize,
}

/// Build the spec and a session on the sim (`sim`) or on threads, then
/// run the warm-up prefix: caches fill, and the threaded runtime spawns
/// and joins its threads once. The warm-up is gated like any iteration,
/// after the set-up time is taken.
pub fn setup(
    w: Workload,
    seed: u64,
    trace: bool,
    sim: bool,
    arrivals: &[Arrival],
    failures: &mut Vec<String>,
) -> Option<Warm> {
    let prefix = &arrivals[..w.warmup_jobs()];
    let t0 = Instant::now();
    let spec = w.spec(seed, trace);
    let mut rt: Box<dyn Runtime> = if sim {
        Box::new(spec.sim())
    } else {
        Box::new(spec.threaded())
    };
    let (warm, _) = iterate(rt.as_mut(), prefix.to_vec(), failures)?;
    let secs = t0.elapsed().as_secs_f64();
    let mut violations = 0;
    if !warm.sched_log.is_empty() {
        violations = oracle(w, &warm.sched_log, None, failures);
        log_stats(&warm.sched_log, prefix, failures);
    }
    anomalies(&warm, failures);
    Some(Warm {
        rt,
        secs,
        replicas: warm.replicas,
        violations,
    })
}

/// What the untraced phase measured.
pub struct Untraced {
    pub setup_secs: Vec<f64>,
    pub walls: Vec<f64>,
    /// `Debug` renderings of every measured iteration's record (the
    /// sim's must all be equal: same seed, fresh session).
    pub records: Vec<String>,
    /// Figures from each measured iteration that logged (the threaded
    /// runtime always does; the untraced sim does not).
    pub logged: Vec<LogStats>,
    /// Oracle violations over those logs.
    pub violations: usize,
    /// The last measured iteration's output.
    pub last: Option<RunOutput>,
}

/// Set up and measure the full stream untraced, repeating while the
/// budget allows another iteration, and setting up at least
/// [`MIN_SETUPS`] times. Every iteration's log, when it has one, is
/// gated.
pub fn untraced(
    w: Workload,
    seed: u64,
    budget: Duration,
    arrivals: &[Arrival],
    failures: &mut Vec<String>,
) -> Untraced {
    let t_start = Instant::now();
    let mut u = Untraced {
        setup_secs: Vec::new(),
        walls: Vec::new(),
        records: Vec::new(),
        logged: Vec::new(),
        violations: 0,
        last: None,
    };
    loop {
        let next = median(&u.walls).unwrap_or(0.0) + median(&u.setup_secs).unwrap_or(0.0);
        let measure =
            u.walls.is_empty() || t_start.elapsed().as_secs_f64() + next <= budget.as_secs_f64();
        if !measure && u.setup_secs.len() >= MIN_SETUPS {
            return u;
        }
        let Some(mut warm) = setup(w, seed, false, w.is_sim(), arrivals, failures) else {
            return u;
        };
        u.setup_secs.push(warm.secs);
        u.violations += warm.violations;
        if !measure {
            continue;
        }
        let stream = arrivals.to_vec();
        let Some((out, wall)) = iterate(warm.rt.as_mut(), stream, failures) else {
            return u;
        };
        anomalies(&out, failures);
        let mut line = format!("iteration {}: {wall:.4} s", u.walls.len());
        if !out.sched_log.is_empty() {
            u.violations += oracle(w, &out.sched_log, warm.replicas.as_ref(), failures);
            let stats = log_stats(&out.sched_log, arrivals, failures);
            line += &format!(
                ", latency p50 {:.4} p99 {:.4} virtual s",
                quantile(&stats.latency, 0.50),
                quantile(&stats.latency, 0.99)
            );
            u.logged.push(stats);
        }
        eprintln!("{line}");
        u.walls.push(wall);
        u.records.push(format!("{:?}", out.record));
        u.last = Some(out);
    }
}

/// Per-job figures read from one scheduler log, in virtual seconds.
#[derive(Default)]
pub struct LogStats {
    /// Due time (`Arrival.at`) → `Completed`.
    pub latency: Vec<f64>,
    /// `Submitted` → first `Assigned`.
    pub placement: Vec<f64>,
    /// Due time → `Submitted`: how late the job was released.
    pub release_late: Vec<f64>,
    /// Jobs submitted once and completed exactly once.
    pub completed_once: usize,
}

/// Read [`LogStats`] from `log`, adding a failure for every job that
/// was not submitted once and completed exactly once.
pub fn log_stats(log: &SchedLog, arrivals: &[Arrival], failures: &mut Vec<String>) -> LogStats {
    let n = arrivals.len();
    let mut submitted: Vec<Option<f64>> = vec![None; n];
    let mut submissions = vec![0u32; n];
    let mut completions = vec![0u32; n];
    let mut stats = LogStats::default();
    let mut assigned = vec![false; n];
    for ev in log.events() {
        let Some(job) = ev.job else { continue };
        let Some(k) = usize::try_from(job.0).ok().filter(|&k| k < n) else {
            failures.push(format!("log names job {} outside the input", job.0));
            continue;
        };
        let at = ev.at.as_secs_f64();
        match ev.kind {
            SchedEventKind::Submitted => {
                submissions[k] += 1;
                submitted[k].get_or_insert(at);
                stats.release_late.push(at - arrivals[k].at.as_secs_f64());
            }
            SchedEventKind::Assigned if !assigned[k] => {
                assigned[k] = true;
                if let Some(s) = submitted[k] {
                    stats.placement.push(at - s);
                }
            }
            SchedEventKind::Completed => {
                completions[k] += 1;
                if completions[k] == 1 {
                    stats.latency.push(at - arrivals[k].at.as_secs_f64());
                }
            }
            _ => {}
        }
    }
    let bad: Vec<usize> = (0..n)
        .filter(|&k| submissions[k] != 1 || completions[k] != 1)
        .collect();
    stats.completed_once = n - bad.len();
    if let Some(&k) = bad.first() {
        failures.push(format!(
            "{} jobs not submitted once and completed exactly once (first: job {k}, {} submissions, {} completions)",
            bad.len(),
            submissions[k],
            completions[k]
        ));
    }
    stats
}

/// Run the protocol oracle over `log`; returns the violation count and
/// records the first violations as failures.
///
/// A warm iteration starts from replica holders its log never
/// mentions: the sim engine seeds them from the caches earlier
/// iterations left behind. Those holders (`seeded`) are replayed as
/// `ReplicaAdd` entries first, so that evicting a copy whose twin
/// predates the log is not judged an eviction of the last copy.
pub fn oracle(
    w: Workload,
    log: &SchedLog,
    seeded: Option<&ReplicaMap>,
    failures: &mut Vec<String>,
) -> usize {
    let mut o = Oracle::new(OracleOptions {
        workers: Some(w.workers() as u32),
        ..OracleOptions::default()
    });
    if let Some(map) = seeded {
        let mut objects: Vec<_> = map.objects().collect();
        objects.sort_unstable();
        for object in objects {
            let mut holders: Vec<u32> = map.replicas(object).collect();
            holders.sort_unstable();
            for node in holders {
                o.observe(&SchedEvent {
                    at: SimTime::ZERO,
                    worker: Some(WorkerId(node)),
                    job: None,
                    kind: SchedEventKind::ReplicaAdd { object: object.0 },
                });
            }
        }
    }
    for ev in log.events() {
        o.observe(ev);
    }
    let violations = o.finish();
    for v in violations.iter().take(3) {
        failures.push(format!("oracle: {v:?}"));
    }
    violations.len()
}

/// Anomalies the program itself reports make a run suspect.
pub fn anomalies(out: &RunOutput, failures: &mut Vec<String>) {
    for a in &out.anomalies {
        failures.push(format!("anomaly: {a}"));
    }
}

/// Median (mean of the middle pair for an even count).
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    })
}

/// Smallest value.
pub fn fastest(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().reduce(f64::min)
}

/// Nearest-rank quantile of `xs` (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}
