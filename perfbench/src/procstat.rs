//! Per-thread accounting read from `/proc/self/task`, so layer time is
//! measured from outside the program.
//!
//! Every engine, server and replicator thread carries a name; the kernel
//! keeps the first 15 bytes as `comm`, and [`layer_of`] maps that prefix
//! to the crate the thread belongs to. `schedstat` gives run time and
//! run-queue wait in nanoseconds, `status` the context-switch counts.

use std::collections::BTreeMap;
use std::fs;

/// Name of the benchmark's load thread (its `comm`).
pub const LOAD_THREAD: &str = "perfbench-load";

/// Counters of one thread at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaskTimes {
    /// CPU time on-CPU, ns (`schedstat` field 1).
    pub run_ns: u64,
    /// Time runnable but waiting for a CPU, ns (`schedstat` field 2).
    pub wait_ns: u64,
    /// Voluntary context switches: the thread blocked (a wake-up follows).
    pub voluntary: u64,
    /// Involuntary context switches: the thread was preempted.
    pub involuntary: u64,
}

impl TaskTimes {
    fn minus(self, base: TaskTimes) -> TaskTimes {
        TaskTimes {
            run_ns: self.run_ns.saturating_sub(base.run_ns),
            wait_ns: self.wait_ns.saturating_sub(base.wait_ns),
            voluntary: self.voluntary.saturating_sub(base.voluntary),
            involuntary: self.involuntary.saturating_sub(base.involuntary),
        }
    }

    fn plus(self, other: TaskTimes) -> TaskTimes {
        TaskTimes {
            run_ns: self.run_ns + other.run_ns,
            wait_ns: self.wait_ns + other.wait_ns,
            voluntary: self.voluntary + other.voluntary,
            involuntary: self.involuntary + other.involuntary,
        }
    }
}

/// The layer a thread belongs to, from its (15-byte) `comm`.
pub fn layer_of(comm: &str) -> &'static str {
    const MAP: [(&str, &str); 5] = [
        ("awsad-worker", "runtime"),
        ("awsad-net-shard", "net"),
        ("awsad-serve-con", "serve"),
        ("awsad-replicato", "cluster"),
        (LOAD_THREAD, "bench"),
    ];
    MAP.iter()
        .find(|(prefix, _)| comm.starts_with(prefix))
        .map_or("other", |(_, layer)| layer)
}

/// Reads every live thread of this process: `(tid, comm) → counters`.
/// A thread that exits between listing and reading is skipped.
pub fn sample_tasks() -> BTreeMap<(u32, String), TaskTimes> {
    let mut out = BTreeMap::new();
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u32>().ok())
        else {
            continue;
        };
        let path = entry.path();
        let (Ok(comm), Ok(sched), Ok(status)) = (
            fs::read_to_string(path.join("comm")),
            fs::read_to_string(path.join("schedstat")),
            fs::read_to_string(path.join("status")),
        ) else {
            continue;
        };
        let mut fields = sched
            .split_whitespace()
            .map(|f| f.parse::<u64>().unwrap_or(0));
        let run_ns = fields.next().unwrap_or(0);
        let wait_ns = fields.next().unwrap_or(0);
        let count = |key: &str| {
            status
                .lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.trim().parse::<u64>().ok())
                .unwrap_or(0)
        };
        out.insert(
            (tid, comm.trim_end().to_string()),
            TaskTimes {
                run_ns,
                wait_ns,
                voluntary: count("voluntary_ctxt_switches:"),
                involuntary: count("nonvoluntary_ctxt_switches:"),
            },
        );
    }
    out
}

/// Tracks threads across a measured phase. Threads alive at
/// [`TaskLedger::start`] are counted from their start-of-phase values;
/// threads born later are counted from zero; threads that exit keep the
/// values of the last [`TaskLedger::sample`] that saw them, so call
/// `sample` at regular points inside the phase.
pub struct TaskLedger {
    base: BTreeMap<(u32, String), TaskTimes>,
    last: BTreeMap<(u32, String), TaskTimes>,
}

impl TaskLedger {
    /// Snapshots every live thread.
    pub fn start() -> Self {
        let base = sample_tasks();
        TaskLedger {
            last: base.clone(),
            base,
        }
    }

    /// Refreshes the last-seen values of every live thread.
    pub fn sample(&mut self) {
        self.last.extend(sample_tasks());
    }

    /// Takes the closing sample and sums the deltas per layer.
    pub fn finish(mut self) -> LayerTimes {
        self.sample();
        let mut layers: BTreeMap<&'static str, TaskTimes> = BTreeMap::new();
        let mut threads = 0;
        for (key, last) in &self.last {
            let base = self.base.get(key).copied().unwrap_or_default();
            let delta = last.minus(base);
            let slot = layers.entry(layer_of(&key.1)).or_default();
            *slot = slot.plus(delta);
            threads += 1;
        }
        LayerTimes { layers, threads }
    }
}

/// Per-layer thread counters accumulated over a phase.
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    /// Summed deltas per layer name (see [`layer_of`]).
    pub layers: BTreeMap<&'static str, TaskTimes>,
    /// Threads seen during the phase.
    pub threads: usize,
}

impl LayerTimes {
    /// The summed counters of `layer` (zero when no thread of it ran).
    pub fn layer(&self, layer: &str) -> TaskTimes {
        self.layers.get(layer).copied().unwrap_or_default()
    }

    /// All threads of the process together.
    pub fn total(&self) -> TaskTimes {
        self.layers
            .values()
            .fold(TaskTimes::default(), |acc, t| acc.plus(*t))
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words in glibc's `cpu_set_t` (1024 CPUs).
const MASK_WORDS: usize = 16;

/// CPUs the calling thread may run on, ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread, which is alive for the call.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Restricts thread `tid` of this process (0 = the calling thread) to
/// `cpus`. Threads it spawns afterwards inherit the restriction. Returns
/// whether the kernel accepted it.
pub fn pin(tid: u32, cpus: &[usize]) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus.iter().filter(|&&c| c < MASK_WORDS * 64) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    if mask == [0; MASK_WORDS] {
        return false;
    }
    // SAFETY: `mask` is a readable buffer of exactly the size passed; the
    // kernel validates `tid` and returns an error for a thread that is
    // gone, which is reported, not relied upon.
    unsafe { sched_setaffinity(tid as i32, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Pins every live thread whose `comm` starts with `prefix` to `cpus`;
/// returns how many were pinned.
pub fn pin_threads(prefix: &str, cpus: &[usize]) -> usize {
    sample_tasks()
        .keys()
        .filter(|(_, comm)| comm.starts_with(prefix))
        .filter(|(tid, _)| pin(*tid, cpus))
        .count()
}
