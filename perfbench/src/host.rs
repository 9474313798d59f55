//! Host noise diagnostics recorded beside every untraced round.
//!
//! On a virtual machine the host's speed drifts while CPU time, run-queue
//! wait and steal all look clean; only a fixed probe loop timed next to the
//! workload shows the drift. These readings explain spread; they are never
//! used to correct a measurement.

use std::hint::black_box;
use std::time::Instant;

/// Per-thread scheduler times from `/proc/thread-self/schedstat`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStat {
    /// Nanoseconds on a CPU.
    pub cpu_ns: u64,
    /// Nanoseconds runnable but waiting on a run queue.
    pub wait_ns: u64,
}

impl SchedStat {
    /// The calling thread's cumulative times (zeros where unsupported).
    pub fn thread() -> SchedStat {
        let text = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
        let mut fields = text.split_whitespace().map(|f| f.parse().unwrap_or(0));
        SchedStat {
            cpu_ns: fields.next().unwrap_or(0),
            wait_ns: fields.next().unwrap_or(0),
        }
    }

    /// Elapsed times since `earlier`.
    pub fn since(self, earlier: SchedStat) -> SchedStat {
        SchedStat {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            wait_ns: self.wait_ns.saturating_sub(earlier.wait_ns),
        }
    }
}

/// Cumulative steal time of all CPUs from `/proc/stat`, in clock ticks
/// of 10 ms (`USER_HZ` is 100 on every Linux ABI in use).
pub fn steal_ticks() -> u64 {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(cpu) = text.lines().find(|l| l.starts_with("cpu ")) else {
        return 0;
    };
    // Fields: cpu user nice system idle iowait irq softirq steal ...
    cpu.split_whitespace()
        .nth(8)
        .and_then(|f| f.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Entries in the probe's chase buffer: 8 MiB of `u32`, larger than a
/// core's private caches, so the probe feels the shared cache and memory
/// contention that slows the workload, not only the clock.
const PROBE_ENTRIES: usize = 1 << 21;

/// Dependent loads per probe.
const PROBE_STEPS: usize = 1 << 17;

/// A fixed CPU loop that touches none of the program: a dependent chase
/// through one random cycle over a private buffer.
pub struct Probe {
    next: Vec<u32>,
}

impl Probe {
    /// Builds the cycle (Sattolo's shuffle under a fixed xorshift stream)
    /// and touches every page of it.
    pub fn new() -> Probe {
        let mut next: Vec<u32> = (0..PROBE_ENTRIES as u32).collect();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..PROBE_ENTRIES).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            next.swap(i, (x % i as u64) as usize);
        }
        Probe { next }
    }

    /// Resident MiB the probe adds to the process.
    pub fn mib(&self) -> f64 {
        (self.next.len() * std::mem::size_of::<u32>()) as f64 / (1024.0 * 1024.0)
    }

    /// Times one chase, in milliseconds.
    pub fn run_ms(&self) -> f64 {
        let start = Instant::now();
        let mut at = black_box(0u32);
        for _ in 0..PROBE_STEPS {
            at = self.next[at as usize];
        }
        black_box(at);
        start.elapsed().as_secs_f64() * 1e3
    }
}

impl Default for Probe {
    fn default() -> Self {
        Self::new()
    }
}
