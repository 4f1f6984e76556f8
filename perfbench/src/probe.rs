//! The benchmark's own instruments: a counting allocator, `/proc`
//! readers, a per-thread CPU sampler and an in-memory span recorder.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Forwards to the system allocator and, while [`count_allocs`] is on,
/// counts every allocation and reallocation from any thread.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the benchmark's own sampler thread, whose allocations
    /// are not the program's.
    static UNCOUNTED: Cell<bool> = const { Cell::new(false) };
}

fn counting() -> bool {
    COUNTING.load(Ordering::Relaxed) && !UNCOUNTED.try_with(Cell::get).unwrap_or(true)
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// statistics and publish no other data, so `Relaxed` suffices.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Start or stop counting allocations; returns the count so far.
pub fn count_allocs(on: bool) -> u64 {
    COUNTING.store(on, Ordering::Relaxed);
    ALLOCS.load(Ordering::Relaxed)
}

/// `VmHWM` of this process in MB: its peak resident set so far.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// User + system CPU seconds of the whole process, including threads
/// that have already exited (`/proc/self/stat`, in 1/100 s ticks).
pub fn process_cpu_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')').expect("comm in stat") + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = f[11].parse::<u64>().expect("utime") + f[12].parse::<u64>().expect("stime");
    ticks as f64 / 100.0
}

/// On-CPU nanoseconds of one task, from its `schedstat`.
fn task_cpu_ns(dir: &str) -> Option<u64> {
    std::fs::read_to_string(format!("{dir}/schedstat"))
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// On-CPU seconds of the calling thread.
pub fn thread_cpu_secs() -> f64 {
    task_cpu_ns("/proc/thread-self").expect("read /proc/thread-self/schedstat") as f64 / 1e9
}

/// The sampler thread's name (at most the 15 bytes `comm` keeps).
pub const SAMPLER_COMM: &str = "perfbench-cpu";

/// Samples every thread's name and CPU time until stopped, so threads
/// that exit before the end are still accounted up to their last
/// sample (at most one period short).
pub struct ThreadSampler {
    stop: mpsc::Sender<()>,
    handle: JoinHandle<HashMap<u64, (String, u64)>>,
}

impl ThreadSampler {
    const PERIOD: Duration = Duration::from_millis(10);

    pub fn start() -> Self {
        let (stop, rx) = mpsc::channel::<()>();
        let handle = std::thread::Builder::new()
            .name(SAMPLER_COMM.into())
            .spawn(move || {
                UNCOUNTED.with(|u| u.set(true));
                let mut seen: HashMap<u64, (String, u64)> = HashMap::new();
                loop {
                    if let Ok(dir) = std::fs::read_dir("/proc/self/task") {
                        for entry in dir.flatten() {
                            let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok())
                            else {
                                continue;
                            };
                            let path = entry.path();
                            let path = path.to_string_lossy();
                            let (Some(ns), Ok(comm)) = (
                                task_cpu_ns(&path),
                                std::fs::read_to_string(format!("{path}/comm")),
                            ) else {
                                continue;
                            };
                            seen.insert(tid, (comm.trim().to_string(), ns));
                        }
                    }
                    if rx.recv_timeout(Self::PERIOD).is_ok() {
                        return seen;
                    }
                }
            })
            .expect("spawn sampler thread");
        ThreadSampler { stop, handle }
    }

    /// Stop sampling; returns CPU seconds summed per thread-name prefix
    /// over every thread seen.
    pub fn finish(self, prefixes: &[&str]) -> Vec<f64> {
        self.stop.send(()).expect("sampler is running");
        let seen = self.handle.join().expect("sampler thread panicked");
        prefixes
            .iter()
            .map(|p| {
                seen.values()
                    .filter(|(name, _)| name.starts_with(p))
                    .map(|(_, ns)| *ns as f64 / 1e9)
                    .sum()
            })
            .collect()
    }
}

/// One timed call into a layer.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// In-memory span recorder for the traced run: every span carries the
/// run id; spans are written out once, when the run ends.
pub struct Spans {
    run_id: String,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
}

impl Spans {
    pub fn new(run_id: String) -> Self {
        Spans {
            run_id,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Spans::exit`].
    pub fn enter(&self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        spans.len() - 1
    }

    pub fn exit(&self, id: usize) {
        self.spans.borrow_mut()[id].end_ns = self.now_ns();
    }

    /// Time `f` as one span named `name` under `parent`.
    pub fn time<T>(&self, name: &'static str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, parent);
        let out = f();
        self.exit(id);
        out
    }

    /// Write every span as one JSON line to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"run\":\"{}\",\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                self.run_id, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
