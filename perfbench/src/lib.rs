//! # perfbench — the repository's end-to-end benchmark
//!
//! Three workloads, one per computation the paper's provisioning answer
//! rests on, each driven through the program's public entry points:
//!
//! - [`main_trace`]: a multi-hour single-server trace and Tables I–III;
//! - [`nat_device`]: the Section IV NAT experiment and Table IV;
//! - [`fleet_resume`]: a checkpointed, half-resumed fleet and its
//!   provisioning report (Section IV-B).
//!
//! An untraced run times whole rounds of a workload and reports the
//! end-to-end metrics. A traced run rebuilds the same computation from the
//! same public calls with the benchmark's own timers at the program's seams
//! ([`trace`]) and reports the per-layer split. Every round's outputs are
//! checked; a failed check counts its operation as failed.

pub mod fleet_resume;
pub mod host;
pub mod main_trace;
pub mod metrics;
pub mod nat_device;
pub mod trace;

use host::SchedStat;
use metrics::Metrics;
use std::time::Instant;

/// Operations attempted and failed, with the first few failure reasons.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored, were lost, or broke an output check.
    pub failed: u64,
    /// Reasons of the first failures, for the log.
    pub reasons: Vec<String>,
}

impl Checks {
    /// Counts one operation; `problems` lists every check it broke.
    pub fn op(&mut self, problems: Vec<String>) {
        self.ops(1, problems);
    }

    /// Counts `n` operations that pass or fail together.
    pub fn ops(&mut self, n: u64, problems: Vec<String>) {
        self.attempted += n;
        if !problems.is_empty() {
            self.failed += n;
            if self.reasons.len() < 8 {
                self.reasons.push(problems.join("; "));
            }
        }
    }
}

/// Pushes a problem onto `problems` unless `ok`.
pub fn expect(problems: &mut Vec<String>, ok: bool, what: impl FnOnce() -> String) {
    if !ok {
        problems.push(what());
    }
}

/// One untraced round of a workload.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Wall seconds from the first call into the program until the result.
    pub wall_s: f64,
    /// Simulated packets the round processed (the workload defines which).
    pub packets: u64,
    /// Set-up time samples taken with the round, outside its wall time.
    pub setup_s: Vec<f64>,
    /// Scheduler times of threads the program spawned during the round.
    pub spawned: SchedStat,
}

/// One traced round: its wall time and its per-layer metrics.
#[derive(Debug, Clone, Default)]
pub struct TracedRound {
    /// Wall seconds of the traced round.
    pub wall_s: f64,
    /// Wall seconds the layers could have been busy: the round's wall time
    /// times the threads that ran spans. Self times sum to at most this.
    pub busy_capacity_s: f64,
    /// Self seconds summed over every layer.
    pub self_s_sum: f64,
    /// Per-layer metric values of this round.
    pub metrics: Metrics,
}

/// A benchmark workload.
pub trait Workload {
    /// Layer prefixes (`"router."`) this workload never runs; their
    /// per-layer metrics read zero.
    fn absent_layers(&self) -> &'static [&'static str];

    /// An untimed first round: warms caches and thread pools and pins the
    /// reference outputs every later round must reproduce.
    fn warm_up(&mut self, checks: &mut Checks);

    /// One untraced round, checked against the reference.
    fn round(&mut self, checks: &mut Checks) -> Round;

    /// One traced round, checked against the reference.
    fn traced_round(&mut self, checks: &mut Checks) -> TracedRound;
}

/// Rounds every run makes at least, whatever its time budget.
pub const MIN_ROUNDS: usize = 3;

/// Whether to start another round: always until `MIN_ROUNDS` are done,
/// then while a round as long as the last would end nearer the budget than
/// stopping now.
fn another_round(done: usize, start: Instant, last_s: f64, seconds: f64) -> bool {
    done < MIN_ROUNDS || start.elapsed().as_secs_f64() + last_s / 2.0 < seconds
}

/// The result of one benchmark invocation.
#[derive(Debug)]
pub struct Outcome {
    /// Operation checks.
    pub checks: Checks,
    /// The reported metrics.
    pub metrics: Metrics,
    /// Noise diagnostics of the untraced rounds (`host.*`, `error_rate`).
    pub diagnostics: Metrics,
    /// Traced rounds (empty for an untraced run).
    pub traced: Vec<TracedRound>,
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Untraced rounds for `seconds`, with host diagnostics beside each.
fn untraced_rounds(
    w: &mut dyn Workload,
    probe: &host::Probe,
    checks: &mut Checks,
    seconds: f64,
) -> (Vec<Round>, Metrics) {
    let mut rounds = Vec::new();
    let (mut cpu, mut wait, mut steal, mut probe_ms) = (vec![], vec![], vec![], vec![]);
    let start = Instant::now();
    let mut last_s = 0.0;
    while another_round(rounds.len(), start, last_s, seconds) {
        let round_start = Instant::now();
        probe_ms.push(probe.run_ms());
        let (sched0, steal0) = (SchedStat::thread(), host::steal_ticks());
        let round = w.round(checks);
        let sched = SchedStat::thread().since(sched0);
        steal.push(host::steal_ticks().saturating_sub(steal0) as f64 / 100.0);
        cpu.push((sched.cpu_ns + round.spawned.cpu_ns) as f64 * 1e-9);
        wait.push((sched.wait_ns + round.spawned.wait_ns) as f64 * 1e-9);
        rounds.push(round);
        last_s = round_start.elapsed().as_secs_f64();
    }
    let mut host = Metrics::default();
    host.set("host.cpu_s", median(&cpu));
    host.set("host.runqueue_wait_s", median(&wait));
    host.set("host.steal_s", median(&steal));
    host.set("host.probe_ms", median(&probe_ms));
    (rounds, host)
}

/// Runs `w` for about `seconds` after its warm-up round.
///
/// Untraced, the metrics are the end-to-end set: medians over rounds of
/// the wall time and packet rate, the median set-up sample, and the peak
/// resident set less the probe's buffer. Traced, the first half of the
/// budget runs untraced rounds (the host diagnostics and the overhead
/// baseline) and the second half traced ones, whose per-layer medians are
/// reported.
pub fn run(w: &mut dyn Workload, seconds: f64, traced: bool) -> Outcome {
    // Built first, so its pages are resident through every peak below.
    let probe = host::Probe::new();
    let mut checks = Checks::default();
    w.warm_up(&mut checks);
    if !traced {
        let (rounds, mut diagnostics) = untraced_rounds(w, &probe, &mut checks, seconds);
        let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
        let rates: Vec<f64> = rounds
            .iter()
            .map(|r| ratio(r.packets as f64, r.wall_s))
            .collect();
        let setups: Vec<f64> = rounds.iter().flat_map(|r| r.setup_s.clone()).collect();
        let mut m = Metrics::default();
        m.set("wall_s", median(&walls));
        m.set("packets_per_s", median(&rates));
        m.set("setup_s", median(&setups));
        m.set("peak_rss_mib", host::peak_rss_mib() - probe.mib());
        diagnostics.set(
            "error_rate",
            ratio(checks.failed as f64, checks.attempted as f64),
        );
        return Outcome {
            checks,
            metrics: m,
            diagnostics,
            traced: Vec::new(),
        };
    }
    let (rounds, diagnostics) = untraced_rounds(w, &probe, &mut checks, seconds / 2.0);
    let untraced_wall = median(&rounds.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let mut traced_rounds = Vec::new();
    let start = Instant::now();
    let mut last_s = 0.0;
    while another_round(traced_rounds.len(), start, last_s, seconds / 2.0) {
        let round_start = Instant::now();
        traced_rounds.push(w.traced_round(&mut checks));
        last_s = round_start.elapsed().as_secs_f64();
    }
    let mut m = Metrics::median_of(traced_rounds.iter().map(|r| &r.metrics));
    let traced_wall = median(&traced_rounds.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    m.set("trace.overhead", ratio(traced_wall, untraced_wall) - 1.0);
    m.absorb(&diagnostics);
    m.zero_fill(w.absent_layers());
    Outcome {
        checks,
        metrics: m,
        diagnostics,
        traced: traced_rounds,
    }
}
