//! Benchmark of the bidding scheduler: end-to-end metrics per workload
//! (`--trace 0`) and per-layer metrics from a traced run (`--trace 1`).
//! See `README.md` in this directory for the workloads, the metrics,
//! their units and what each layer metric should move.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <wide-256|repl-churn|threaded-5|all> --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! `--workload all` runs every workload on `--seed` and on a second
//! seed, each in a process of its own, and prints them side by side.

mod layers;
mod probe;
mod run;
mod workload;

use std::process::ExitCode;
use std::time::Duration;

use crossbid_metrics::Json;

use run::{fastest, median, quantile};
use workload::Workload;

#[global_allocator]
static ALLOC: probe::CountingAlloc = probe::CountingAlloc;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && Workload::parse(&args.workload).is_none() {
        return Err(format!(
            "--workload must be one of wide-256, repl-churn, threaded-5, all (got {:?})",
            args.workload
        ));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// One named metric with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result line of one run.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Report {
    fn json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.name,
                        Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                    )
                })),
            ),
        ])
    }
}

/// Run one workload in this process.
fn bench(w: Workload, seed: u64, seconds: u64, trace: bool) -> Report {
    let arrivals = w.arrivals(seed, run::workflow().1);
    let jobs = arrivals.len() as u64;
    let mut failures = Vec::new();

    // End-to-end figures are measured untraced.
    let u = run::untraced(
        w,
        seed,
        Duration::from_secs(seconds),
        &arrivals,
        &mut failures,
    );
    let peak_rss_mb = probe::peak_rss_mb();
    let mut violations = 0;
    if u.records.windows(2).any(|p| p[0] != p[1]) && w.is_sim() {
        failures.push("sim records differ between iterations of one seed".into());
    }

    // The sim writes its scheduler log only when traced, so its
    // latencies come from a traced iteration whose record must equal
    // the untraced one; the threaded runtime always logs.
    let traced = if w.is_sim() || trace {
        layers::traced(w, seed, trace, &arrivals, &mut failures)
    } else {
        None
    };
    if let (true, Some(t), Some(r)) = (w.is_sim(), &traced, u.records.first()) {
        if &format!("{:?}", t.out.record) != r {
            failures.push("traced and untraced sim records differ".into());
        }
    }
    violations += u.violations + traced.as_ref().map_or(0, |t| t.violations);
    let stats = if w.is_sim() {
        traced.as_ref().map(|t| &t.stats)
    } else {
        // The least-disturbed iteration (see README, Steadiness).
        u.logged
            .iter()
            .min_by(|a, b| quantile(&a.latency, 0.5).total_cmp(&quantile(&b.latency, 0.5)))
    };

    let mut layer_metrics = Vec::new();
    if trace {
        if let (Some(t), Some(s)) = (&traced, stats) {
            layer_metrics = layers::metrics(
                w,
                seed,
                &arrivals,
                t,
                s,
                median(&u.walls).unwrap_or(f64::NAN),
                &mut violations,
                &mut failures,
            );
        }
    }

    let ran = u.last.is_some() && stats.is_some();
    let correct = ran && failures.is_empty();
    for f in &failures {
        eprintln!("perfbench: FAILED workload={} seed={seed}: {f}", w.name());
    }
    let ok_jobs = if correct {
        stats.map_or(0, |s| s.completed_once as u64)
    } else {
        0
    };
    let runs = u.walls.len() as u64 + u64::from(traced.is_some());
    let attempted = jobs * runs.max(1);
    let failed = if correct { 0 } else { attempted };

    let metrics = if trace {
        layer_metrics
    } else {
        let rec = u.last.as_ref().map(|o| &o.record);
        let lat = stats.map_or(&[][..], |s| &s.latency[..]);
        vec![
            // Wall times are the fastest of the run's repeats: on a
            // shared host the others carry other tenants' interference
            // (see README, Steadiness).
            Metric {
                name: "jobs_per_s",
                value: fastest(&u.walls).map_or(0.0, |wall| jobs as f64 / wall),
                unit: "1/s",
            },
            Metric {
                name: "setup_s",
                value: fastest(&u.setup_secs).unwrap_or(0.0),
                unit: "s",
            },
            Metric {
                name: "peak_rss_mb",
                value: peak_rss_mb,
                unit: "MiB",
            },
            Metric {
                name: "job_latency_p50_s",
                value: quantile(lat, 0.50),
                unit: "virtual_s",
            },
            Metric {
                name: "job_latency_p99_s",
                value: quantile(lat, 0.99),
                unit: "virtual_s",
            },
            Metric {
                name: "makespan_s",
                value: rec.map_or(0.0, |r| r.makespan_secs),
                unit: "virtual_s",
            },
            Metric {
                name: "data_load_mb",
                value: rec.map_or(0.0, |r| r.data_load_mb),
                unit: "MB",
            },
            Metric {
                name: "cache_hit_ratio",
                value: rec.map_or(0.0, |r| r.hit_ratio()),
                unit: "ratio",
            },
            Metric {
                name: "job_ok_ratio",
                value: ok_jobs as f64 / jobs as f64,
                unit: "ratio",
            },
        ]
    };
    Report {
        correct,
        attempted,
        failed,
        metrics,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = Workload::parse(&args.workload) else {
        return all(&args);
    };
    let report = bench(w, args.seed, args.seconds, args.trace);
    for m in &report.metrics {
        eprintln!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    // A run that printed its result exits 0; `correct` carries the
    // verdict.
    println!("{}", report.json().render());
    ExitCode::SUCCESS
}

/// `--workload all`: every workload on the given seed and on a second
/// seed, each run in a child process of its own so `peak_rss_mb` is
/// that workload's alone.
fn all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("path of this executable");
    let seeds = [args.seed, args.seed.wrapping_add(1)];
    let mut ok = true;
    let mut lines = Vec::new();
    for w in Workload::ALL {
        let mut cols = Vec::new();
        for seed in seeds {
            let out = std::process::Command::new(&exe)
                .args(["--workload", w.name(), "--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .stderr(std::process::Stdio::inherit())
                .output()
                .expect("run a workload in a child process");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let last = stdout.lines().last().unwrap_or_default().to_string();
            match Json::parse(&last) {
                Ok(j) => {
                    ok &= out.status.success() && j.get("correct") == Some(&Json::Bool(true));
                    cols.push(j);
                }
                Err(e) => {
                    eprintln!(
                        "perfbench: {} seed {seed}: no result line ({e:?})",
                        w.name()
                    );
                    ok = false;
                }
            }
        }
        if cols.len() != seeds.len() {
            continue;
        }
        println!("\n{} (seed {} | seed {})", w.name(), seeds[0], seeds[1]);
        let Some(Json::Obj(names)) = cols[0].get("metrics") else {
            continue;
        };
        for (name, m) in names {
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            let vals: Vec<String> = cols
                .iter()
                .map(|c| {
                    c.get("metrics")
                        .and_then(|ms| ms.get(name))
                        .and_then(|m| m.get("value"))
                        .and_then(Json::as_f64)
                        .map_or("-".into(), |v| format!("{v:.6}"))
                })
                .collect();
            println!("  {name:<34} {:>16} | {:>16}  {unit}", vals[0], vals[1]);
        }
        lines.push((w.name(), cols));
    }
    let summary = Json::obj(
        lines
            .into_iter()
            .map(|(name, cols)| (name, Json::Arr(cols))),
    );
    println!("{}", summary.render());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
