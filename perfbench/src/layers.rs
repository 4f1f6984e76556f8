//! The traced run and the per-layer metrics read from it.
//!
//! Layer costs are measured by replaying each layer's public functions
//! over the traced run's own log, at the run's size; counts come from
//! `RunOutput` and the metrics registry. A `*.share` is count × replayed
//! cost ÷ traced wall time: an estimate, not self time measured inside
//! the program.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use crossbid_core::BiddingAllocator;
use crossbid_crossflow::scheduler::WorkerHandle;
use crossbid_crossflow::{
    Allocator, Arrival, Job, JobId, ReplicatedLog, RunOutput, SchedAction, SchedCtx, SchedEvent,
    SchedEventKind, WorkerId, WorkerToMaster,
};
use crossbid_simcore::{EventQueue, RngStream, SimDuration, SimTime};
use crossbid_storage::{LocalStore, ObjectId};

use crate::probe::{self, Spans, ThreadSampler, SAMPLER_COMM};
use crate::run::{self, quantile, LogStats};
use crate::workload::Workload;
use crate::Metric;

/// CPU seconds of the threaded runtime over the traced iteration.
pub struct Cpu {
    process: f64,
    master: f64,
    bidder: f64,
    exec: f64,
}

/// The traced iteration: program trace on, and in `--trace 1` mode
/// the benchmark's own spans, allocation count and CPU sampling too.
pub struct Traced {
    pub out: RunOutput,
    /// Figures read from its log, which has been gated.
    pub stats: LogStats,
    /// Oracle violations in its log.
    pub violations: usize,
    wall: f64,
    allocs: u64,
    spans: Spans,
    root: usize,
    cpu: Option<Cpu>,
}

pub fn traced(
    w: Workload,
    seed: u64,
    instrument: bool,
    arrivals: &[Arrival],
    failures: &mut Vec<String>,
) -> Option<Traced> {
    let spans = Spans::new(format!("{}-{seed}-{}", w.name(), std::process::id()));
    let root = spans.enter("run", None);
    let mut warm = spans.time("program.setup", Some(root), || {
        run::setup(w, seed, true, w.is_sim(), arrivals, failures)
    })?;
    let stream = arrivals.to_vec();
    let sampler = (instrument && !w.is_sim()).then(ThreadSampler::start);
    let (cpu0, master0) = (probe::process_cpu_secs(), probe::thread_cpu_secs());
    let allocs0 = probe::count_allocs(instrument);
    let span = spans.enter("program.run_iteration", Some(root));
    let res = run::iterate(warm.rt.as_mut(), stream, failures);
    spans.exit(span);
    let allocs = probe::count_allocs(false) - allocs0;
    let (cpu1, master1) = (probe::process_cpu_secs(), probe::thread_cpu_secs());
    let cpu = sampler.map(|s| {
        let per = s.finish(&["bidder-", "exec-", SAMPLER_COMM]);
        Cpu {
            process: cpu1 - cpu0 - per[2],
            master: master1 - master0,
            bidder: per[0],
            exec: per[1],
        }
    });
    let (out, wall) = res?;
    let violations = warm.violations
        + spans.time("checker.check_log", Some(root), || {
            run::oracle(w, &out.sched_log, warm.replicas.as_ref(), failures)
        });
    run::anomalies(&out, failures);
    let stats = run::log_stats(&out.sched_log, arrivals, failures);
    Some(Traced {
        out,
        stats,
        violations,
        wall,
        allocs,
        spans,
        root,
        cpu,
    })
}

/// Every per-layer metric. `stats` comes from the run whose latencies
/// are the end-to-end ones (the traced run on the sim, an untraced run
/// on threads); `untraced_wall` is the untraced median; `violations`
/// counts every log checked so far.
#[allow(clippy::too_many_arguments)]
pub fn metrics(
    w: Workload,
    seed: u64,
    arrivals: &[Arrival],
    t: &Traced,
    stats: &LogStats,
    untraced_wall: f64,
    violations: &mut usize,
    failures: &mut Vec<String>,
) -> Vec<Metric> {
    let jobs = arrivals.len() as f64;
    let snap = &t.out.metrics;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let events = t.out.sched_log.events();
    let root = Some(t.root);

    let queue_ns = if w.is_sim() {
        let depth = pending_depth(w.workers(), events);
        t.spans.time("simcore.replay", root, || {
            queue_ns_per_event(t.out.events, depth, seed)
        })
    } else {
        0.0
    };
    let contest_us = contest_us(w, seed, arrivals, events, &t.spans, root);
    let append_ns = append_ns(events, &t.spans, root);
    let (store_ns, store_ops) = store_ns_per_op(w, seed, arrivals, events, &t.spans, root);

    let wall = t.wall;
    let contests = snap.counter("contests/closed");
    let simcore_share = t.out.events as f64 * queue_ns * 1e-9 / wall;
    let scheduler_share = contests as f64 * contest_us * 1e-6 / wall;
    let replog_share = events.len() as f64 * append_ns * 1e-9 / wall;
    let storage_share = store_ops as f64 * store_ns * 1e-9 / wall;

    // Threaded latency overhead: the same generated input on the sim.
    let overhead_p50 = if w.is_sim() {
        0.0
    } else {
        let sim_p50 = t.spans.time("program.sim_reference", root, || {
            sim_reference_p50(w, seed, arrivals, violations, failures)
        });
        quantile(&stats.latency, 0.50) - sim_p50
    };
    let per_job_us = |secs: f64| secs * 1e6 / jobs;
    let cpu = t.cpu.as_ref();

    t.spans.exit(t.root);
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-{seed}.jsonl", w.name()));
    if let Err(e) = t.spans.write(&path) {
        failures.push(format!("writing spans to {}: {e}", path.display()));
    }

    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m(
            "simcore.events_per_job",
            t.out.events as f64 / jobs,
            "count",
        ),
        m("simcore.queue_ns_per_event", queue_ns, "ns"),
        m("simcore.share", simcore_share, "ratio"),
        m(
            "scheduler.bids_per_job",
            snap.counter("bids/received") as f64 / jobs,
            "count",
        ),
        m(
            "scheduler.msgs_per_job",
            snap.counter("control/messages") as f64 / jobs,
            "count",
        ),
        m("scheduler.contest_us", contest_us, "us"),
        m(
            "scheduler.timeout_ratio",
            ratio(snap.counter("contests/timed_out"), contests),
            "ratio",
        ),
        m(
            "scheduler.placement_p50_s",
            quantile(&stats.placement, 0.50),
            "virtual_s",
        ),
        m(
            "scheduler.placement_p99_s",
            quantile(&stats.placement, 0.99),
            "virtual_s",
        ),
        m("scheduler.share", scheduler_share, "ratio"),
        m(
            "replog.entries_per_job",
            events.len() as f64 / jobs,
            "count",
        ),
        m(
            "replog.bytes_per_job",
            std::mem::size_of_val(events) as f64 / jobs,
            "B",
        ),
        m("replog.append_ns", append_ns, "ns"),
        m("replog.share", replog_share, "ratio"),
        m(
            "storage.evictions_per_job",
            snap.counter("cache/evictions") as f64 / jobs,
            "count",
        ),
        m(
            "storage.peer_fetch_ratio",
            ratio(
                snap.counter("cache/peer_fetches"),
                snap.counter("cache/misses"),
            ),
            "ratio",
        ),
        m(
            "storage.repair_done_ratio",
            ratio(
                snap.counter("data/repairs_completed"),
                snap.counter("data/repairs_started"),
            ),
            "ratio",
        ),
        m("storage.store_ns_per_op", store_ns, "ns"),
        m("storage.share", storage_share, "ratio"),
        m(
            "threaded.cpu_us_per_job",
            cpu.map_or(0.0, |c| per_job_us(c.process)),
            "us",
        ),
        m(
            "threaded.master_cpu_us_per_job",
            cpu.map_or(0.0, |c| per_job_us(c.master)),
            "us",
        ),
        m(
            "threaded.bidder_cpu_us_per_job",
            cpu.map_or(0.0, |c| per_job_us(c.bidder)),
            "us",
        ),
        m(
            "threaded.exec_cpu_us_per_job",
            cpu.map_or(0.0, |c| per_job_us(c.exec)),
            "us",
        ),
        m(
            "threaded.release_late_p50_s",
            quantile(&stats.release_late, 0.50),
            "virtual_s",
        ),
        m(
            "threaded.release_late_p99_s",
            quantile(&stats.release_late, 0.99),
            "virtual_s",
        ),
        m("threaded.latency_overhead_p50_s", overhead_p50, "virtual_s"),
        m("alloc.allocs_per_job", t.allocs as f64 / jobs, "count"),
        m("checker.violations", *violations as f64, "count"),
        m("trace.overhead_ratio", wall / untraced_wall, "ratio"),
        m(
            "engine.unattributed_share",
            1.0 - simcore_share - scheduler_share - replog_share - storage_share,
            "ratio",
        ),
    ]
}

/// Mean number of pending sim events, estimated from the log: every
/// open contest holds about one request or bid per worker, and every
/// job in flight at least one event of its own.
fn pending_depth(workers: usize, events: &[SchedEvent]) -> usize {
    let (Some(first), Some(last)) = (events.first(), events.last()) else {
        return 1;
    };
    let span = (last.at - first.at).as_secs_f64();
    let mut opened = HashMap::new();
    let mut submitted = HashMap::new();
    let (mut contest_secs, mut job_secs) = (0.0, 0.0);
    for ev in events {
        let (Some(job), at) = (ev.job, ev.at.as_secs_f64()) else {
            continue;
        };
        match ev.kind {
            SchedEventKind::ContestOpened => {
                opened.insert(job, at);
            }
            SchedEventKind::ContestClosed { .. } => {
                contest_secs += opened.remove(&job).map_or(0.0, |o| at - o);
            }
            SchedEventKind::Submitted => {
                submitted.insert(job, at);
            }
            SchedEventKind::Completed => {
                job_secs += submitted.remove(&job).map_or(0.0, |s| at - s);
            }
            _ => {}
        }
    }
    if span <= 0.0 {
        return 1;
    }
    ((workers as f64 * contest_secs + job_secs) / span)
        .ceil()
        .max(1.0) as usize
}

/// `EventQueue::schedule_at` + `pop` per event, driven in hold mode
/// (pop one, schedule one) at the run's event count and pending depth.
fn queue_ns_per_event(events: u64, depth: usize, seed: u64) -> f64 {
    const GAPS: usize = 4096;
    let mut rng = RngStream::from_seed(seed);
    let gaps: Vec<SimDuration> = (0..GAPS)
        .map(|_| SimDuration::from_secs_f64(rng.uniform(0.0, 2.0)))
        .collect();
    let mut q = EventQueue::with_capacity(depth + 1);
    for i in 0..depth {
        q.schedule_at(SimTime::ZERO + gaps[i % GAPS], i as u64);
    }
    let events = events.max(1);
    let t0 = Instant::now();
    for i in 0..events {
        let (now, e) = q.pop().expect("the queue holds `depth` events");
        q.schedule_at(now + gaps[i as usize % GAPS], black_box(e));
    }
    t0.elapsed().as_nanos() as f64 / events as f64
}

/// One contest's logged bids, in arrival order.
type Bids = Vec<(WorkerId, f64)>;

/// Microseconds per contest of `BiddingAllocator::master()`: `on_job`
/// plus every logged bid through `on_worker_message` at the
/// workload's worker count, and the window timer when the logged
/// contest was short of bids. One span per contest.
fn contest_us(
    w: Workload,
    seed: u64,
    arrivals: &[Arrival],
    events: &[SchedEvent],
    spans: &Spans,
    root: Option<usize>,
) -> f64 {
    let n = w.workers();
    let mut bids: HashMap<JobId, Bids> = HashMap::new();
    let mut order = Vec::new();
    for ev in events {
        let Some(job) = ev.job.filter(|j| (j.0 as usize) < arrivals.len()) else {
            continue;
        };
        match (ev.kind, ev.worker) {
            (SchedEventKind::ContestOpened, _) => {
                if let Entry::Vacant(e) = bids.entry(job) {
                    e.insert(Vec::new());
                    order.push((job, ev.at));
                }
            }
            (SchedEventKind::BidReceived { estimate_secs }, Some(from)) => {
                bids.entry(job).or_default().push((from, estimate_secs));
            }
            _ => {}
        }
    }
    let contests: Vec<(Job, SimTime, Bids)> = order
        .into_iter()
        .map(|(id, at)| {
            let job = arrivals[id.0 as usize].spec.clone().into_job(id);
            (job, at, bids.remove(&id).unwrap_or_default())
        })
        .collect();
    if contests.is_empty() {
        return 0.0;
    }
    let roster: Vec<WorkerHandle> = (0..n as u32)
        .map(|i| WorkerHandle {
            id: WorkerId(i),
            name: format!("w{i}"),
        })
        .collect();
    let mut rng = RngStream::from_seed(seed);
    let mut token = 0u64;
    let mut master = BiddingAllocator::new().master();
    let count = contests.len();
    let replay = spans.enter("scheduler.replay", root);
    let mut busy = 0.0;
    for (job, at, bids) in contests {
        let span = spans.enter("scheduler.contest", Some(replay));
        let t0 = Instant::now();
        let id = job.id;
        let mut ctx = SchedCtx::new(at, &roster, &mut rng, &mut token);
        master.on_job(job, &mut ctx);
        let timer = ctx.take_actions().into_iter().find_map(|a| match a {
            SchedAction::Timer { token, .. } => Some(token),
            _ => None,
        });
        let short = bids.len() < n;
        for (from, estimate_secs) in bids {
            let mut ctx = SchedCtx::new(at, &roster, &mut rng, &mut token);
            let bid = WorkerToMaster::Bid {
                job: id,
                estimate_secs,
            };
            master.on_worker_message(from, bid, &mut ctx);
            black_box(ctx.take_actions());
        }
        if let (true, Some(timer)) = (short, timer) {
            let mut ctx = SchedCtx::new(at, &roster, &mut rng, &mut token);
            master.on_timer(timer, &mut ctx);
            black_box(ctx.take_actions());
        }
        busy += t0.elapsed().as_secs_f64();
        spans.exit(span);
    }
    spans.exit(replay);
    busy * 1e6 / count as f64
}

/// Entries replayed through `ReplicatedLog::append`, at most.
const APPEND_REPLAY_MAX: usize = 1 << 20;

/// Nanoseconds per `ReplicatedLog::plain().append` over (a prefix of)
/// the run's log, one span per batch of appends.
fn append_ns(events: &[SchedEvent], spans: &Spans, root: Option<usize>) -> f64 {
    const BATCH: usize = 4096;
    let copies: Vec<SchedEvent> = events[..events.len().min(APPEND_REPLAY_MAX)].to_vec();
    if copies.is_empty() {
        return 0.0;
    }
    let n = copies.len();
    let mut log = ReplicatedLog::plain();
    let replay = spans.enter("replog.replay", root);
    let mut batch = spans.enter("replog.append_batch", Some(replay));
    let t0 = Instant::now();
    for (i, ev) in copies.into_iter().enumerate() {
        if i > 0 && i % BATCH == 0 {
            spans.exit(batch);
            batch = spans.enter("replog.append_batch", Some(replay));
        }
        black_box(log.append(ev));
    }
    let ns = t0.elapsed().as_nanos() as f64 / n as f64;
    spans.exit(batch);
    spans.exit(replay);
    black_box(log.appends());
    ns
}

/// Nanoseconds per `LocalStore::lookup` / `insert`, replayed over each
/// worker's logged placements (resource looked up, inserted on a miss)
/// into a store of that worker's capacity and policy, one span per
/// worker. Returns the cost and the number of operations replayed.
fn store_ns_per_op(
    w: Workload,
    seed: u64,
    arrivals: &[Arrival],
    events: &[SchedEvent],
    spans: &Spans,
    root: Option<usize>,
) -> (f64, u64) {
    let specs = w.spec(seed, false).workers;
    let mut per_worker: Vec<Vec<(ObjectId, u64, SimTime)>> = vec![Vec::new(); specs.len()];
    for ev in events {
        let (SchedEventKind::Assigned, Some(worker), Some(job)) = (ev.kind, ev.worker, ev.job)
        else {
            continue;
        };
        let (Some(acc), Some(a)) = (
            per_worker.get_mut(worker.0 as usize),
            arrivals.get(job.0 as usize),
        ) else {
            continue;
        };
        if let Some(r) = a.spec.resource {
            acc.push((r.id, r.bytes, ev.at));
        }
    }
    let replay = spans.enter("storage.replay", root);
    let mut ops = 0u64;
    let mut busy = 0.0;
    for (spec, accesses) in specs.iter().zip(per_worker) {
        let span = spans.enter("storage.worker", Some(replay));
        let t0 = Instant::now();
        let mut store = LocalStore::new(spec.storage_bytes, spec.eviction);
        for (id, bytes, at) in accesses {
            ops += 1;
            if !store.lookup(id, at) {
                ops += 1;
                black_box(store.insert(id, bytes, at));
            }
        }
        busy += t0.elapsed().as_secs_f64();
        spans.exit(span);
    }
    spans.exit(replay);
    if ops == 0 {
        return (0.0, 0);
    }
    (busy * 1e9 / ops as f64, ops)
}

/// p50 job latency of the sim engine on the threaded workload's own
/// generated input and spec (set-up included), gated like every run.
fn sim_reference_p50(
    w: Workload,
    seed: u64,
    arrivals: &[Arrival],
    violations: &mut usize,
    failures: &mut Vec<String>,
) -> f64 {
    let Some(mut warm) = run::setup(w, seed, true, true, arrivals, failures) else {
        return 0.0;
    };
    *violations += warm.violations;
    let Some((out, _)) = run::iterate(warm.rt.as_mut(), arrivals.to_vec(), failures) else {
        return 0.0;
    };
    *violations += run::oracle(w, &out.sched_log, warm.replicas.as_ref(), failures);
    run::anomalies(&out, failures);
    quantile(
        &run::log_stats(&out.sched_log, arrivals, failures).latency,
        0.50,
    )
}
