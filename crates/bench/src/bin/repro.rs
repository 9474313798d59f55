//! Regenerates every table and figure of "Provisioning On-line Games".
//!
//! ```text
//! repro [OPTIONS] <ARTIFACT|all|main|nat>...
//! repro fleet merge OUT_REPORT STATE_FILE...
//! repro fleet work --shards LO:HI --fleet N --fleet-state-dir DIR [OPTIONS]
//! repro fleet coordinate --fleet N --fleet-state-dir DIR [OPTIONS]
//! ```
//!
//! `repro --help`, `repro fleet work --help` and `repro fleet coordinate
//! --help` list that command's options on stdout and exit 0 (the first
//! also lists the artifacts and chaos profiles); `repro fleet merge
//! --help` prints its synopsis. The first three parse against one flag
//! table, [`FLAGS`]; a command given a flag it does not take exits 1
//! naming it, with the usage on stderr.
//!
//! `fleet work` runs one shard range against a shared state directory;
//! `fleet coordinate` spawns `fleet work` children over that directory,
//! re-dispatches the ranges of workers that die, and folds each shard
//! checkpoint as it lands; `fleet merge` folds checkpoint files by hand.
//! All three print the same report block as `--fleet`.
//!
//! Instrumentation is observe-only: a seeded run's artifact output is
//! byte-identical with and without `--progress`/`--metrics-out`/
//! `--trace-out`/`--series-out`/`--serve`/`--speed`. Chaos campaigns are
//! replayable: the same `--chaos`/`--chaos-seed` pair impairs the same
//! packets, and `--chaos none` is byte-identical to no `--chaos` at all.

use csprov::chaos::{self, ChaosReport, ChaosSpec};
use csprov::experiments::{ablations, aggregate, figures, nat, tables, web, ExperimentId};
use csprov::fleet::coord::ShardRange;
use csprov::fleet::ShardState;
use csprov::fleet::{self, FleetConfig};
use csprov::pipeline::MainRun;
use csprov_analysis::report::to_csv;
use csprov_bench::harness::{render_bench_json, BenchResult};
use csprov_game::{GameMetrics, ScenarioConfig, WorldInstruments, PAPER_TRACE_SECS};
use csprov_obs::{
    BroadcastBus, BusEvent, Journal, MetricsRegistry, Profile, ProfileSnapshot, ProgressReporter,
    SeriesSampler, ShardHealthBoard, TraceEvent, SHARD_RUNNING,
};
use csprov_router::EngineConfig;
use csprov_serve::{ServeHandle, ServeShared};
use csprov_sim::{Pacer, PacerStats, SimDuration, Simulator, Speed};
use std::cell::{Cell, RefCell};
use std::process::ExitCode;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How many kernel events pass between progress-observer callbacks.
const OBSERVER_STRIDE: u64 = 8192;

/// Wall interval between snapshot refreshes pushed to the serving plane.
const SERVE_REFRESH: Duration = Duration::from_millis(200);

/// Rendering for `--metrics-out`. The default keeps the legacy combined
/// dump (per-artifact commented text + JSON lines).
#[derive(Clone, Copy, PartialEq)]
enum MetricsFormat {
    Combined,
    Text,
    Json,
    Prom,
}

/// The commands that take flags, each one bit of a [`FLAGS`] row's mask.
/// `fleet merge` takes positional arguments only.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Cmd {
    Run = 1,
    Work = 2,
    Coordinate = 4,
}

const RUN: u8 = Cmd::Run as u8;
const WORK: u8 = Cmd::Work as u8;
const COORD: u8 = Cmd::Coordinate as u8;

impl Cmd {
    /// The command's name and its argument synopsis.
    fn synopsis(self) -> (&'static str, &'static str) {
        match self {
            Cmd::Run => ("repro", "[OPTIONS] <ARTIFACT|all|main|nat>..."),
            Cmd::Work => (
                "repro fleet work",
                "--shards LO:HI --fleet N --fleet-state-dir DIR [OPTIONS]",
            ),
            Cmd::Coordinate => (
                "repro fleet coordinate",
                "--fleet N --fleet-state-dir DIR [OPTIONS]",
            ),
        }
    }
}

const MERGE_SYNOPSIS: &str = "repro fleet merge OUT_REPORT STATE_FILE...";

/// Every flag of the three commands: its name, its value placeholder
/// (empty for a switch), the mask of commands that take it, and its help
/// line. [`parse`] accepts a command's rows and no others, [`set_flag`]
/// applies one, and [`usage`] lists them.
#[rustfmt::skip]
const FLAGS: &[(&str, &str, u8, &str)] = &[
    ("--seed", "N", RUN | WORK | COORD, "RNG seed (default 2002)"),
    ("--hours", "H", RUN, "main-trace length in hours (default 24)"),
    ("--full-week", "", RUN, "use the paper's full 626,477 s trace (~7.25 days)"),
    ("--csv", "DIR", RUN, "also write key figures' data series as CSV into DIR"),
    ("--progress", "", RUN, "heartbeat on stderr (sim/wall ratio, ev/s, ETA)"),
    ("--metrics-out", "FILE", RUN, "metrics snapshot per artifact (text + JSON lines)"),
    ("--metrics-format", "F", RUN, "--metrics-out as text, json or prom (default: text + JSON lines)"),
    ("--trace-out", "FILE", RUN, "per-run event journal <stem>.<run>.<ext>; .json = Chrome trace, else JSONL"),
    ("--series-out", "DIR", RUN, "sim-time metric series per world run (DIR/main.csv, DIR/nat.csv)"),
    ("--series-interval", "MS", RUN, "series sampling period in sim-ms (default 1000)"),
    ("--profile-out", "DIR", RUN, "per-run wall profile (DIR/<run>.folded, .trace.json; table on stderr)"),
    ("--chaos", "PROFILE", RUN, "run under a fault-injection campaign (profiles below)"),
    ("--chaos-seed", "N", RUN, "impairment seed (default: same as --seed)"),
    ("--fleet", "N", RUN | WORK | COORD, "servers in the fleet; repro prints their provisioning report (artifacts optional)"),
    ("--fleet-minutes", "M", RUN | WORK | COORD, "simulated minutes per fleet server (default 30)"),
    ("--fleet-state-dir", "DIR", RUN | WORK | COORD, "shard checkpoint directory (fleet work and coordinate share it)"),
    ("--resume", "", RUN, "restore finished shards from --fleet-state-dir"),
    ("--fleet-fail", "SPEC", RUN | WORK | COORD, "inject shard faults: SHARD:forever|SHARD:stall=MS,..."),
    ("--shards", "LO:HI", WORK, "the half-open shard range this worker runs"),
    ("--workers", "W", COORD, "worker processes to spawn (default 2)"),
    ("--serve", "ADDR", RUN | COORD, "live HTTP: /metrics /events /series /status /report /healthz /shards /profile"),
    ("--serve-linger", "S", RUN | COORD, "keep serving S seconds after the run finishes (requires --serve)"),
    ("--speed", "N|max", RUN, "replay speed: a multiplier (1 = wall clock, 8 = 8x) or max (default: unpaced)"),
];

struct Options {
    seed: u64,
    hours: f64,
    full_week: bool,
    csv_dir: Option<String>,
    progress: bool,
    metrics_out: Option<String>,
    metrics_format: MetricsFormat,
    trace_out: Option<String>,
    series_out: Option<String>,
    series_interval_ms: u64,
    profile_out: Option<String>,
    chaos: Option<ChaosSpec>,
    chaos_seed: Option<u64>,
    fleet: Option<usize>,
    fleet_minutes: u64,
    fleet_state_dir: Option<String>,
    fleet_resume: bool,
    fleet_fail: Vec<fleet::FailSpec>,
    shards: Option<ShardRange>,
    workers: usize,
    serve: Option<String>,
    serve_linger_secs: u64,
    speed: Speed,
    artifacts: Vec<ExperimentId>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            seed: 2002,
            hours: 24.0,
            full_week: false,
            csv_dir: None,
            progress: false,
            metrics_out: None,
            metrics_format: MetricsFormat::Combined,
            trace_out: None,
            series_out: None,
            series_interval_ms: 1000,
            profile_out: None,
            chaos: None,
            chaos_seed: None,
            fleet: None,
            fleet_minutes: 30,
            fleet_state_dir: None,
            fleet_resume: false,
            fleet_fail: Vec::new(),
            shards: None,
            workers: 2,
            serve: None,
            serve_linger_secs: 0,
            speed: Speed::Max,
            artifacts: Vec::new(),
        }
    }
}

/// Parses `cmd`'s arguments against [`FLAGS`], then checks the rules that
/// span flags. `Err("")` asks for the usage alone (`--help`), which `main`
/// prints to stdout with exit 0.
fn parse(cmd: Cmd, args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let arg = arg.as_str();
        if arg == "-h" || arg == "--help" {
            return Err(String::new());
        }
        if !arg.starts_with('-') {
            if cmd != Cmd::Run {
                return Err(format!("unexpected argument '{arg}'"));
            }
            match arg {
                "all" => opts.artifacts = ExperimentId::all(),
                "main" => {
                    opts.artifacts.extend([
                        ExperimentId::Table1,
                        ExperimentId::Table2,
                        ExperimentId::Table3,
                    ]);
                    opts.artifacts.extend((1..=13).map(ExperimentId::Fig));
                }
                "nat" => {
                    opts.artifacts.extend([
                        ExperimentId::Table4,
                        ExperimentId::Fig14,
                        ExperimentId::Fig15,
                    ]);
                }
                other => opts.artifacts.push(other.parse()?),
            }
            continue;
        }
        let &(name, value, cmds, _) = FLAGS
            .iter()
            .find(|f| f.0 == arg)
            .ok_or_else(|| format!("unknown option: {arg}"))?;
        if cmds & cmd as u8 == 0 {
            return Err(format!("{} does not take {name}", cmd.synopsis().0));
        }
        let value = match value {
            "" => "",
            _ => args.next().ok_or_else(|| format!("{name} needs {value}"))?,
        };
        set_flag(&mut opts, name, value)?;
    }
    if cmd == Cmd::Run && opts.artifacts.is_empty() && opts.fleet.is_none() {
        return Err("no artifacts requested".into());
    }
    if opts.metrics_format != MetricsFormat::Combined && opts.metrics_out.is_none() {
        return Err("--metrics-format requires --metrics-out".into());
    }
    if opts.serve_linger_secs > 0 && opts.serve.is_none() {
        return Err("--serve-linger requires --serve".into());
    }
    if cmd == Cmd::Run
        && opts.fleet.is_none()
        && (opts.fleet_state_dir.is_some() || opts.fleet_resume || !opts.fleet_fail.is_empty())
    {
        return Err("--fleet-state-dir/--resume/--fleet-fail require --fleet".into());
    }
    if opts.fleet_resume && opts.fleet_state_dir.is_none() {
        return Err("--resume requires --fleet-state-dir".into());
    }
    if cmd != Cmd::Run {
        if opts.fleet.is_none() {
            return Err("--fleet N is required".into());
        }
        if opts.fleet_state_dir.is_none() {
            return Err("--fleet-state-dir DIR is required".into());
        }
    }
    if cmd == Cmd::Work && opts.shards.is_none() {
        return Err("fleet work requires --shards LO:HI".into());
    }
    Ok(opts)
}

/// Applies one [`FLAGS`] row: sets the field flag `name` controls from
/// its `value` (empty for a switch).
fn set_flag(opts: &mut Options, name: &str, value: &str) -> Result<(), String> {
    fn num<T: std::str::FromStr>(name: &str, value: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        value
            .parse()
            .map_err(|e| format!("bad {name} '{value}': {e}"))
    }
    fn positive<T: std::str::FromStr + Default + PartialEq>(
        name: &str,
        value: &str,
    ) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        let n = num(name, value)?;
        if n == T::default() {
            return Err(format!("{name} must be > 0"));
        }
        Ok(n)
    }
    match name {
        "--seed" => opts.seed = num(name, value)?,
        "--hours" => opts.hours = num(name, value)?,
        "--full-week" => opts.full_week = true,
        "--csv" => opts.csv_dir = Some(value.into()),
        "--progress" => opts.progress = true,
        "--metrics-out" => opts.metrics_out = Some(value.into()),
        "--metrics-format" => {
            opts.metrics_format = match value {
                "text" => MetricsFormat::Text,
                "json" => MetricsFormat::Json,
                "prom" => MetricsFormat::Prom,
                other => {
                    return Err(format!(
                        "unknown metrics format '{other}' (known: text, json, prom)"
                    ))
                }
            };
        }
        "--trace-out" => opts.trace_out = Some(value.into()),
        "--series-out" => opts.series_out = Some(value.into()),
        "--series-interval" => opts.series_interval_ms = positive(name, value)?,
        "--profile-out" => opts.profile_out = Some(value.into()),
        "--chaos" => {
            opts.chaos = Some(chaos::by_name(value).ok_or_else(|| {
                format!(
                    "unknown chaos profile '{value}' (known: {})",
                    chaos::names().join(", ")
                )
            })?);
        }
        "--chaos-seed" => opts.chaos_seed = Some(num(name, value)?),
        "--fleet" => opts.fleet = Some(positive(name, value)?),
        "--fleet-minutes" => opts.fleet_minutes = positive(name, value)?,
        "--fleet-state-dir" => opts.fleet_state_dir = Some(value.into()),
        "--resume" => opts.fleet_resume = true,
        "--fleet-fail" => opts.fleet_fail = parse_fail_plan(value)?,
        "--shards" => {
            opts.shards = Some(
                ShardRange::parse(value)
                    .ok_or_else(|| format!("bad --shards '{value}' (want LO:HI, HI > LO)"))?,
            );
        }
        "--workers" => opts.workers = positive(name, value)?,
        "--serve" => opts.serve = Some(value.into()),
        "--serve-linger" => opts.serve_linger_secs = num(name, value)?,
        "--speed" => opts.speed = value.parse()?,
        _ => return Err(format!("unknown option: {name}")),
    }
    Ok(())
}

/// Parses `--fleet-fail SHARD:forever,...` — the deterministic fault plan
/// used by the crash-resume CI smoke and local resilience testing.
/// `SHARD:forever` makes the shard fail and be lost; `SHARD:stall=MS`
/// instead makes the shard sleep MS wall-milliseconds before it runs (sim
/// results unchanged), which is how the health watchdog is exercised end
/// to end.
fn parse_fail_plan(spec: &str) -> Result<Vec<fleet::FailSpec>, String> {
    let bad = |part: &str| {
        format!("bad --fleet-fail entry '{part}' (want SHARD:forever or SHARD:stall=MS)")
    };
    let mut plan = Vec::new();
    for part in spec.split(',') {
        let (shard, action) = part.split_once(':').ok_or_else(|| bad(part))?;
        let shard: usize = shard
            .parse()
            .map_err(|e| format!("bad --fleet-fail shard '{shard}': {e}"))?;
        plan.push(match action.strip_prefix("stall=") {
            Some(ms) => fleet::FailSpec::Stall {
                shard,
                stall_ms: ms
                    .parse()
                    .map_err(|e| format!("bad --fleet-fail stall '{ms}': {e}"))?,
            },
            None if action == "forever" => fleet::FailSpec::Forever { shard },
            None => return Err(bad(part)),
        });
    }
    Ok(plan)
}

/// `cmd`'s help, rendered from [`FLAGS`]: its synopsis and options, and
/// for the main run the fleet synopses, artifacts and chaos profiles.
fn usage(cmd: Cmd) -> String {
    let (name, args) = cmd.synopsis();
    let mut out = format!("usage: {name} {args}\n");
    if cmd == Cmd::Run {
        out.push_str(&format!("       {MERGE_SYNOPSIS}\n"));
        for fleet_cmd in [Cmd::Work, Cmd::Coordinate] {
            let (name, args) = fleet_cmd.synopsis();
            out.push_str(&format!("       {name} {args}\n"));
        }
        out.push_str("       (--help after a fleet command lists its options)\n");
    }
    out.push_str("options:\n");
    for &(flag, value, _, help) in FLAGS.iter().filter(|f| f.2 & cmd as u8 != 0) {
        let flag = format!("{flag} {value}");
        out.push_str(&format!("  {:<23} {help}\n", flag.trim_end()));
    }
    if cmd == Cmd::Run {
        let mut line = String::from("artifacts:");
        for id in ExperimentId::all() {
            let id = id.to_string();
            if line.len() + 1 + id.len() > 78 {
                out.push_str(&line);
                out.push('\n');
                line = " ".repeat(10);
            }
            line.push(' ');
            line.push_str(&id);
        }
        out.push_str(&line);
        out.push_str(
            "\n           all (every artifact), main (tables I-III, figures 1-13),\n           \
             nat (table IV, figures 14-15)\n",
        );
        out.push_str(&format!("chaos profiles: {}\n", chaos::names().join(", ")));
    }
    out
}

/// A wall-clock phase for the exit-time `[time]` report and
/// BENCH_repro.json (single runs: median == min).
fn phase(name: &str, secs: f64, rate_per_sec: Option<f64>) -> BenchResult {
    BenchResult {
        name: name.to_string(),
        median_ns: secs * 1e9,
        min_ns: secs * 1e9,
        rate_per_sec,
    }
}

/// What every run of one `repro` invocation shares: the metrics registry,
/// the serving plane, the cross-run profile cumulative and the wall-clock
/// phases. [`RunDriver::world_run`] runs the main and NAT worlds; the
/// `--fleet` block borrows its journal, profile fold and side-file writer.
struct RunDriver<'a> {
    opts: &'a Options,
    registry: Option<MetricsRegistry>,
    serve: Option<Arc<ServeShared>>,
    profile_total: Option<ProfileSnapshot>,
    timings: Vec<BenchResult>,
}

impl RunDriver<'_> {
    /// A run's event journal (when `--trace-out` or `--serve` is on),
    /// tapped into the serving plane's bus.
    fn journal(&self) -> Option<Journal> {
        let journal = (self.opts.trace_out.is_some() || self.serve.is_some()).then(Journal::new);
        if let (Some(journal), Some(shared)) = (&journal, &self.serve) {
            journal.set_tap(shared.bus().clone());
        }
        journal
    }

    /// Profiling is on for `--profile-out` (files + table) and for
    /// `--serve` (the /profile endpoint); both are wall-domain-only
    /// consumers.
    fn profiling(&self) -> bool {
        self.opts.profile_out.is_some() || self.serve.is_some()
    }

    /// Builds one world run's observe-only hooks: metric handles against
    /// the registry, the journal and profile, and two kernel observers: one
    /// driving the progress reporter, the series sampler and the live
    /// snapshot refresh (`--serve`) at one stride, then a wall-clock pacer
    /// (`--speed`).
    fn instruments(
        &self,
        journal: Option<&Journal>,
        profile: Option<&Profile>,
        reporter: Option<&Rc<ProgressReporter>>,
        sampler: Option<&Rc<RefCell<SeriesSampler>>>,
    ) -> WorldInstruments {
        let mut instruments = WorldInstruments::default();
        if let Some(registry) = &self.registry {
            instruments.metrics = Some(GameMetrics::register(registry));
            instruments.registry = Some(registry.clone());
        }
        instruments.journal = journal.cloned();
        instruments.profile = profile.cloned();
        let speed = self.opts.speed;
        let pacer = speed.is_paced().then(|| Pacer::new(speed));
        let pacer_stats: Option<Arc<PacerStats>> = pacer.as_ref().map(Pacer::stats);
        if reporter.is_some() || sampler.is_some() || self.serve.is_some() {
            let reporter_cb = reporter.cloned();
            let sampler_cb = sampler.cloned();
            let registry_cb = self.registry.clone();
            let serve = self.serve.clone();
            let journal = journal.cloned();
            let last_refresh = Cell::new(Instant::now());
            // The sampler needs to see the sim clock often enough to hit its
            // interval boundaries; the progress reporter rate-limits itself on
            // wall time, so the finer stride costs only the callback dispatch.
            let stride = if sampler.is_some() {
                OBSERVER_STRIDE / 8
            } else {
                OBSERVER_STRIDE
            };
            instruments.observers.push((
                stride,
                Box::new(move |sim: &Simulator| {
                    if let Some(reporter) = &reporter_cb {
                        reporter.maybe_report(
                            sim.now().as_nanos(),
                            sim.events_executed(),
                            sim.pending_events(),
                        );
                    }
                    if let Some(sampler) = &sampler_cb {
                        sampler.borrow_mut().observe(sim.now().as_nanos());
                    }
                    // Live snapshot refresh: render the (single-threaded)
                    // registry and sampler here on the sim thread and swap the
                    // strings into the shared state. Wall-rate-limited so a
                    // max-speed run spends its time simulating, not rendering.
                    if let Some(serve) = &serve {
                        let now = Instant::now();
                        if now.duration_since(last_refresh.get()) >= SERVE_REFRESH {
                            last_refresh.set(now);
                            let sim_ns = sim.now().as_nanos();
                            let events = sim.events_executed();
                            let lag_ns = pacer_stats.as_ref().map_or(0, |s| s.lag_ns());
                            let journal_dropped = journal.as_ref().map_or(0, Journal::dropped);
                            serve.update_status(|s| {
                                s.sim_ns = sim_ns;
                                s.events = events;
                                s.lag_ns = lag_ns;
                                s.journal_dropped = journal_dropped;
                            });
                            if let Some(registry) = &registry_cb {
                                serve.export_metrics(registry);
                                serve.set_metrics(registry.render_prometheus());
                            }
                            if let Some(sampler) = &sampler_cb {
                                serve.set_series(sampler.borrow().to_csv());
                            }
                        }
                    }
                }),
            ));
        }
        instruments
            .observers
            .extend(pacer.map(Pacer::into_observer));
        instruments
    }

    /// Runs one labelled world run with every side channel the options
    /// ask for, and records its `<label>_run` phase. `run` receives the
    /// instruments, runs the world (chaos or plain) and returns its result
    /// with its kernel event count. Returns the result and the run's wall
    /// seconds.
    fn world_run<R>(
        &mut self,
        label: &'static str,
        horizon_ns: u64,
        run: impl FnOnce(WorldInstruments) -> (R, u64),
    ) -> (R, f64) {
        let opts = self.opts;
        let t0 = Instant::now();
        let journal = self.journal();
        // A fresh profile per run: frame trees are per-run.
        let profile = self.profiling().then(Profile::new);
        let reporter = opts
            .progress
            .then(|| Rc::new(ProgressReporter::new(label, Some(horizon_ns))));
        let sampler = match &self.registry {
            Some(registry) if opts.series_out.is_some() || self.serve.is_some() => {
                Some(Rc::new(RefCell::new(SeriesSampler::new(
                    registry.clone(),
                    opts.series_interval_ms * 1_000_000,
                ))))
            }
            _ => None,
        };
        let instruments = self.instruments(
            journal.as_ref(),
            profile.as_ref(),
            reporter.as_ref(),
            sampler.as_ref(),
        );
        if let Some(shared) = &self.serve {
            shared.update_status(|s| {
                s.state = "running";
                s.horizon_ns = horizon_ns;
                s.sim_ns = 0;
            });
            shared.bus().publish(BusEvent::RunStarted {
                label: label.into(),
                horizon_ns,
            });
        }
        let (result, events) = run(instruments);
        if let Some(reporter) = reporter {
            reporter.finish(horizon_ns, events);
        }
        if let (Some(journal), Some(base)) = (&journal, &opts.trace_out) {
            write_journal(journal, base, label);
        }
        if let (Some(sampler), Some(dir)) = (&sampler, &opts.series_out) {
            let mut sampler = sampler.borrow_mut();
            sampler.finish(horizon_ns);
            let detail = format!("{} samples", sampler.len());
            write_side(
                "[series]",
                &format!("{dir}/{label}.csv"),
                sampler.to_csv(),
                &detail,
            );
        }
        // The profile is wall-domain: it reaches only stderr, side files
        // and wall instruments, never stdout or the determinism artifacts.
        if let Some(profile) = &profile {
            if let Some(registry) = &self.registry {
                export_profile_metrics(registry, profile);
            }
            if let Some(dir) = &opts.profile_out {
                let detail = format!("{} frames, {} enters", profile.frames(), profile.enters());
                let folded = format!("{dir}/{label}.folded");
                write_side("[profile]", &folded, profile.render_folded(), &detail);
                if let Some(journal) = &journal {
                    let data = journal.export_chrome_trace_with(&profile.chrome_rows(2));
                    let path = format!("{dir}/{label}.trace.json");
                    write_side("[profile]", &path, data, "journal + profile spans");
                }
            }
            self.absorb_profile(&profile.snapshot());
        }
        // End-of-run refresh for the serving plane: final status, a closing
        // series row (unless `--series-out` already flushed one), fresh
        // `/metrics` + `/series` snapshots, and the run-finished bus event.
        if let Some(shared) = &self.serve {
            shared.update_status(|s| {
                s.sim_ns = horizon_ns;
                s.events = events;
                s.lag_ns = 0;
            });
            if let Some(sampler) = &sampler {
                if opts.series_out.is_none() {
                    sampler.borrow_mut().finish(horizon_ns);
                }
                shared.set_series(sampler.borrow().to_csv());
            }
            if let Some(registry) = &self.registry {
                shared.export_metrics(registry);
                shared.set_metrics(registry.render_prometheus());
            }
            shared.bus().publish(BusEvent::RunFinished {
                label: label.into(),
                sim_ns: horizon_ns,
                events,
            });
        }
        let secs = t0.elapsed().as_secs_f64();
        let rate = events as f64 / secs.max(1e-9);
        self.timings
            .push(phase(&format!("{label}_run"), secs, Some(rate)));
        (result, secs)
    }

    /// Folds a run's profile snapshot into the cross-run cumulative behind
    /// the ranked table and `/profile`.
    fn absorb_profile(&mut self, snap: &ProfileSnapshot) {
        if let Some(total) = &mut self.profile_total {
            total.absorb(snap);
        } else {
            self.profile_total = Some(snap.clone());
        }
        if let (Some(shared), Some(total)) = (&self.serve, &self.profile_total) {
            shared.set_profile(total.render_table());
        }
    }
}

/// `base` with the run label spliced in before the extension:
/// `trace.json` + `main` -> `trace.main.json`.
fn per_run_path(base: &str, label: &str) -> String {
    let p = std::path::Path::new(base);
    match (
        p.file_stem().and_then(|s| s.to_str()),
        p.extension().and_then(|s| s.to_str()),
    ) {
        (Some(stem), Some(ext)) => p
            .with_file_name(format!("{stem}.{label}.{ext}"))
            .display()
            .to_string(),
        _ => format!("{base}.{label}"),
    }
}

/// Writes one run's journal: Chrome trace-event JSON when the requested
/// file has a `.json` extension (open in Perfetto), JSONL otherwise.
fn write_journal(journal: &Journal, base: &str, label: &str) {
    let path = per_run_path(base, label);
    let data = if path.ends_with(".json") {
        journal.export_chrome_trace()
    } else {
        journal.export_jsonl()
    };
    let detail = format!("{} events, {} dropped", journal.len(), journal.dropped());
    write_side("[trace]", &path, data, &detail);
}

/// Writes one side file of a run, creating its directory, and narrates it
/// on stderr as `<tag> wrote <path> (<detail>)`. A failed write is a
/// warning, not a failed run.
fn write_side(tag: &str, path: &str, data: String, detail: &str) {
    let dir = std::path::Path::new(path).parent();
    let write = dir
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, data));
    match write {
        Ok(()) => eprintln!("{tag} wrote {path} ({detail})"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
}

/// Exports one run's profiler self-observability as wall-flagged
/// `profile.*` instruments with HELP text. Counters accumulate across
/// runs (each run brings a fresh profile, so per-run totals add).
fn export_profile_metrics(registry: &MetricsRegistry, profile: &Profile) {
    let frames = registry.wall_gauge("profile.frames");
    frames.set(profile.frames() as i64);
    registry.describe("profile.frames", "distinct frames in the profile call tree");
    registry
        .wall_counter("profile.enters")
        .add(profile.enters());
    registry.describe("profile.enters", "profiled span entries (wall domain)");
    registry
        .wall_counter("profile.wall_ns")
        .add(profile.total_wall_ns());
    registry.describe(
        "profile.wall_ns",
        "wall time attributed to root profile frames",
    );
    registry
        .wall_counter("profile.dropped")
        .add(profile.events_dropped());
    registry.describe(
        "profile.dropped",
        "profile events dropped at the bounded ring capacity",
    );
}

/// Binds the live serving plane on `addr` (nothing without `--serve`).
/// HTTP threads only ever read rendered snapshots, so nothing a
/// subscriber does can perturb the simulation.
fn bind_serve(addr: Option<&str>) -> Result<Option<(Arc<ServeShared>, ServeHandle)>, ExitCode> {
    let Some(addr) = addr else {
        return Ok(None);
    };
    let shared = Arc::new(ServeShared::new(BroadcastBus::new()));
    match csprov_serve::serve(addr, shared.clone()) {
        Ok(handle) => {
            eprintln!(
                "[serve] listening on http://{} (/metrics /events /series /status /report \
                 /healthz /shards /profile)",
                handle.addr()
            );
            Ok(Some((shared, handle)))
        }
        Err(e) => {
            eprintln!("error: could not bind --serve {addr}: {e}");
            Err(ExitCode::FAILURE)
        }
    }
}

/// Winds the serving plane down: the terminal status, an optional linger
/// window for late scrapers, then a clean shutdown that closes the bus so
/// SSE streams end instead of hanging.
fn close_serve(shared: Option<&ServeShared>, handle: Option<ServeHandle>, linger_secs: u64) {
    if let Some(shared) = shared {
        shared.update_status(|s| s.state = "finished");
        if linger_secs > 0 {
            eprintln!("[serve] lingering {linger_secs} s before shutdown");
            std::thread::sleep(Duration::from_secs(linger_secs));
        }
    }
    if let Some(mut handle) = handle {
        handle.shutdown();
    }
}

/// The fleet health board behind `/shards`. Its watchdog deadline is
/// wall-domain and tunable (`CSPROV_WATCHDOG_MS`, default 3000) because
/// "stalled" is a property of the host, not the simulation.
fn health_board(servers: usize) -> Arc<ShardHealthBoard> {
    let watchdog_ms: u64 = std::env::var("CSPROV_WATCHDOG_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&ms| ms > 0)
        .unwrap_or(3000);
    Arc::new(ShardHealthBoard::new(
        servers,
        Duration::from_millis(watchdog_ms),
    ))
}

/// A fleet report under its `================ {title} ================`
/// banner, as stdout, `fleet merge`'s file and `/report` carry it.
fn fleet_block(title: &str, report: &fleet::ProvisioningReport) -> String {
    format!(
        "================ {title} ================\n{}\n{}\n",
        report.render().render(),
        report.sizing_line()
    )
}

/// Narrates a fleet's execution-plane events to stderr under `prefix`:
/// `[fleet]` for an in-process `--fleet`, `[worker]` in `fleet work`.
fn narrate(prefix: &str, ev: &fleet::FleetEvent<'_>) {
    match ev {
        fleet::FleetEvent::ShardDone {
            state,
            from_checkpoint: false,
            ..
        } => eprintln!("{prefix} shard {} done", state.shard),
        fleet::FleetEvent::ShardDone { .. } | fleet::FleetEvent::CheckpointWritten { .. } => {}
        fleet::FleetEvent::ShardLost { shard, message } => {
            eprintln!("{prefix} shard {shard} LOST ({message}); report degrades to a lower bound")
        }
        fleet::FleetEvent::CheckpointFailed { shard, message } => {
            eprintln!("{prefix} shard {shard} checkpoint write failed: {message}");
        }
        fleet::FleetEvent::ResumeLoaded { shard } => {
            eprintln!("{prefix} shard {shard} restored from checkpoint");
        }
        fleet::FleetEvent::ResumeInvalid { message } => {
            eprintln!("{prefix} ignoring invalid checkpoint: {message}");
        }
    }
}

/// What `--fleet` and `fleet coordinate` share around their engine: the
/// serving plane's view of one fleet run, and its final report.
struct FleetDriver<'a> {
    config: &'a FleetConfig,
    serve: Option<&'a ServeShared>,
    horizon_ns: u64,
    /// Shard states finished so far, behind the interim `/report`.
    done: Mutex<Vec<ShardState>>,
}

impl<'a> FleetDriver<'a> {
    /// Announces the run on the serving plane: the health board behind
    /// `/shards`, a running status and the run-started bus event.
    fn start(config: &'a FleetConfig, serve: Option<&'a ServeShared>) -> Self {
        let horizon_ns = SimDuration::from_mins(config.minutes).as_nanos();
        if let Some(shared) = serve {
            if let Some(board) = &config.health {
                shared.set_board(board.clone());
            }
            shared.update_status(|s| {
                s.state = "running";
                s.horizon_ns = horizon_ns;
                s.sim_ns = 0;
                s.shards_total = config.servers as u64;
                s.shards_done = 0;
            });
            shared.bus().publish(BusEvent::RunStarted {
                label: "fleet".into(),
                horizon_ns,
            });
        }
        FleetDriver {
            config,
            serve,
            horizon_ns,
            done: Mutex::new(Vec::new()),
        }
    }

    /// A shard finished (run, restored from a checkpoint, or collected by
    /// the coordinator): live status, the `fleet.shard.done` bus event,
    /// and an interim `/report` over the shards finished so far.
    fn shard_done(&self, state: &ShardState) {
        let Some(shared) = self.serve else { return };
        let mut done = self.done.lock().unwrap_or_else(|e| e.into_inner());
        done.push(state.clone());
        let n = done.len() as u64;
        let servers = self.config.servers;
        let sim_ns = self.horizon_ns * n / servers as u64;
        shared.update_status(|s| {
            s.shards_done = n;
            s.sim_ns = sim_ns;
        });
        shared.bus().publish(BusEvent::Trace(TraceEvent {
            sim_ns,
            kind: "fleet.shard.done",
            key: state.shard as u64,
            value: n,
        }));
        if let Ok(report) = fleet::interim_report(self.config, &done) {
            let title = format!("fleet (interim, {n}/{servers} shards)");
            shared.set_report(fleet_block(&title, &report));
        }
    }

    /// The run finished: the report on stdout and `/report`, the final
    /// status and run-finished bus event, and a warning on stderr when
    /// coverage degraded.
    fn finish(&self, run: &fleet::FleetRun) {
        let text = fleet_block("fleet", &run.report);
        print!("\n{text}");
        if let Some(shared) = self.serve {
            let events = run.facility.counts.total_packets();
            shared.set_report(text);
            shared.update_status(|s| {
                s.sim_ns = self.horizon_ns;
                s.shards_done = run.facility.shards as u64;
                s.events = events;
            });
            shared.bus().publish(BusEvent::RunFinished {
                label: "fleet".into(),
                sim_ns: self.horizon_ns,
                events,
            });
        }
        let cov = &run.report.coverage;
        if cov.is_degraded() {
            eprintln!(
                "[fleet] DEGRADED: {}/{} shards merged; lost {:?}; \
                 headline numbers are lower bounds",
                cov.merged, cov.configured, cov.lost
            );
        }
    }
}

fn write_csv(dir: &str, name: &str, headers: &[&str], cols: &[&[f64]]) {
    let path = format!("{dir}/{name}.csv");
    if let Err(e) =
        std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, to_csv(headers, cols)))
    {
        eprintln!("warning: could not write {path}: {e}");
    } else {
        println!("[csv] wrote {path}");
    }
}

/// `repro fleet merge OUT_REPORT STATE_FILE...` — the multi-process
/// provisioning path: folds shard checkpoint files (written by
/// independent `--fleet-state-dir` runs or machines) through the same
/// typed merge layer the in-process fleet uses, and writes the rendered
/// provisioning report. Files stream through one accumulator in shard
/// order, so merging 10k+ states never holds more than one decoded
/// state at a time.
fn fleet_merge_command(args: &[String]) -> ExitCode {
    if args.iter().any(|a| a == "-h" || a == "--help") {
        println!("usage: {MERGE_SYNOPSIS}");
        return ExitCode::SUCCESS;
    }
    let out = match args {
        [out, ..] if out.starts_with('-') => {
            eprintln!("error: fleet merge takes no options; output path '{out}' starts with '-'");
            eprintln!("usage: {MERGE_SYNOPSIS}");
            return ExitCode::FAILURE;
        }
        [out, _, ..] => out,
        _ => {
            eprintln!("usage: {MERGE_SYNOPSIS}");
            return ExitCode::FAILURE;
        }
    };
    let paths: Vec<std::path::PathBuf> = args[1..].iter().map(std::path::PathBuf::from).collect();
    // The report header's run length comes from the first shard's recorded
    // duration (every shard of one fleet runs the same horizon).
    let minutes = match std::fs::read(&paths[0]) {
        Ok(bytes) => match fleet::persist::decode_shard_state(&bytes) {
            Ok(state) => (state.duration.as_secs() / 60).max(1),
            Err(e) => {
                eprintln!("error: {}: {e}", paths[0].display());
                return ExitCode::FAILURE;
            }
        },
        Err(e) => {
            eprintln!("error: {}: {e}", paths[0].display());
            return ExitCode::FAILURE;
        }
    };
    let (facility, shards) = match fleet::persist::merge_state_files(&paths) {
        Ok(merged) => merged,
        Err(e) => {
            eprintln!("error: fleet merge failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let config = FleetConfig::new("fleet", 0, facility.shards, minutes);
    let coverage = fleet::FleetCoverage::full(facility.shards);
    let report = match fleet::ProvisioningReport::build(&config, &facility, &shards, coverage) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: fleet merge report failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let text = fleet_block("fleet", &report);
    if let Err(e) = std::fs::write(out, &text) {
        eprintln!("error: could not write {out}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "[merge] folded {} state files into {out} ({} packets)",
        paths.len(),
        facility.counts.total_packets()
    );
    print!("{text}");
    ExitCode::SUCCESS
}

/// The fleet `--fleet`, `fleet work` and `fleet coordinate` run. Shard
/// traffic is a pure function of (seed, shard index), so a worker and the
/// coordinator building this independently stay byte-compatible.
fn fleet_config(opts: &Options, servers: usize) -> FleetConfig {
    let mut config = FleetConfig::new("fleet", opts.seed, servers, opts.fleet_minutes);
    config.speed = opts.speed;
    config.fail_plan = opts.fleet_fail.clone();
    config
}

/// The `repro fleet work` argv the coordinator launches for `range`: the
/// same fleet as `opts`, over the same state directory. The subcommand and
/// its `--shards` lead, so a worker is findable as `fleet work --shards
/// LO:HI` in a process list.
fn worker_args(opts: &Options, servers: usize, state_dir: &str, range: ShardRange) -> Vec<String> {
    let mut args: Vec<String> = ["fleet", "work", "--shards"].map(String::from).to_vec();
    args.push(range.to_string());
    for (flag, value) in [
        ("--seed", opts.seed.to_string()),
        ("--fleet", servers.to_string()),
        ("--fleet-minutes", opts.fleet_minutes.to_string()),
        ("--fleet-state-dir", state_dir.to_string()),
    ] {
        args.extend([flag.to_string(), value]);
    }
    if !opts.fleet_fail.is_empty() {
        let spec: Vec<String> = opts
            .fleet_fail
            .iter()
            .map(|f| match f {
                fleet::FailSpec::Forever { shard } => format!("{shard}:forever"),
                fleet::FailSpec::Stall { shard, stall_ms } => format!("{shard}:stall={stall_ms}"),
            })
            .collect();
        args.extend(["--fleet-fail".to_string(), spec.join(",")]);
    }
    args
}

/// `repro fleet work --shards LO:HI ...` — the worker half of the
/// coordinator/worker protocol: executes one assigned shard range against
/// the shared state directory, writing checkpoints and heartbeat sidecars
/// the coordinator watches. Narrates to stderr only (stdout belongs to
/// the coordinator's report). Exits 0 even when shards were lost — loss is
/// coverage accounting, not a worker crash.
fn fleet_work_command(opts: &Options) -> ExitCode {
    let (Some(servers), Some(state_dir), Some(range)) =
        (opts.fleet, &opts.fleet_state_dir, opts.shards)
    else {
        unreachable!("parse requires --fleet, --fleet-state-dir and --shards of fleet work");
    };
    let config = fleet_config(opts, servers);
    let state_dir = std::path::Path::new(state_dir);
    eprintln!(
        "[worker] shards {range} of a {}-shard fleet (seed {}, state dir {})",
        config.servers,
        config.seed,
        state_dir.display()
    );
    let t0 = Instant::now();
    let on_event = |ev: &fleet::FleetEvent<'_>| narrate("[worker]", ev);
    match fleet::coord::run_worker_range(&config, range, state_dir, Some(&on_event)) {
        Ok(summary) => {
            eprintln!(
                "[worker] range {range} finished in {:.1} s wall: {} done, {} resumed, {} lost",
                t0.elapsed().as_secs_f64(),
                summary.done.len(),
                summary.resumed.len(),
                summary.lost.len()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: fleet work failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A spawned `repro fleet work` child as a pollable coordinator handle.
struct ProcessWorker {
    child: std::process::Child,
}

impl fleet::coord::WorkerHandle for ProcessWorker {
    fn try_status(&mut self) -> Option<Result<(), String>> {
        match self.child.try_wait() {
            Ok(None) => None,
            Ok(Some(status)) if status.success() => Some(Ok(())),
            Ok(Some(status)) => Some(Err(status.to_string())),
            Err(e) => Some(Err(e.to_string())),
        }
    }
}

/// `repro fleet coordinate ...` — plans shard ranges, spawns `repro fleet
/// work` children against the shared state directory, watches their
/// heartbeat sidecars and exits, re-dispatches ranges of killed workers,
/// folds each checkpoint as it is collected, and prints the same
/// byte-identical report as an in-process `--fleet` run. With `--serve`,
/// `/shards` and `/report` watch a fleet this process never executes —
/// the board is fed purely from sidecars.
fn fleet_coordinate_command(opts: &Options) -> ExitCode {
    let (Some(servers), Some(state_dir)) = (opts.fleet, opts.fleet_state_dir.as_deref()) else {
        unreachable!("parse requires --fleet and --fleet-state-dir of fleet coordinate");
    };
    let mut config = fleet_config(opts, servers);
    config.health = Some(health_board(servers));

    // The optional serving plane: this process executes nothing, so every
    // document it serves is assembled from observation — `/shards` from
    // sidecar records aged by mtime, `/report` from checkpoints collected
    // so far.
    let (serve_state, serve_handle) = match bind_serve(opts.serve.as_deref()) {
        Ok(serve) => serve.unzip(),
        Err(code) => return code,
    };
    if let Some(shared) = &serve_state {
        shared.update_status(|s| {
            s.mode = "coordinate";
            s.label = "fleet".to_string();
            s.seed = opts.seed;
        });
    }
    let driver = FleetDriver::start(&config, serve_state.as_deref());

    eprintln!(
        "[coord] fleet: {servers} servers x {} simulated min (seed {}), {} workers, \
         state dir {}",
        opts.fleet_minutes, opts.seed, opts.workers, state_dir
    );
    let t0 = Instant::now();
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: cannot locate own executable to spawn workers: {e}");
            return ExitCode::FAILURE;
        }
    };
    let launch = |worker: usize, range: ShardRange| {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(worker_args(opts, servers, state_dir, range));
        // Worker stdout is the coordinator's: only the coordinator may
        // print to it (the report must stay byte-identical to --fleet).
        cmd.stdout(std::process::Stdio::null());
        cmd.spawn()
            .map(|child| ProcessWorker { child })
            .map_err(|e| format!("spawn worker {worker}: {e}"))
    };
    let on_event = |ev: &fleet::coord::CoordEvent<'_>| match ev {
        fleet::coord::CoordEvent::WorkerLaunched {
            worker,
            range,
            attempt,
        } => {
            eprintln!("[coord] worker {worker} launched for shards {range} (attempt {attempt})");
        }
        fleet::coord::CoordEvent::WorkerExited {
            worker,
            range,
            clean,
            detail,
        } => {
            if *clean {
                eprintln!("[coord] worker {worker} finished shards {range}");
            } else {
                eprintln!("[coord] worker {worker} died on shards {range} ({detail})");
            }
        }
        fleet::coord::CoordEvent::RangeRedispatched {
            worker,
            range,
            attempt,
        } => {
            eprintln!(
                "[coord] re-dispatching shards {range} of worker {worker} (attempt {attempt})"
            );
        }
        fleet::coord::CoordEvent::RangeLost {
            worker,
            range,
            shards,
            message,
        } => {
            eprintln!(
                "[coord] shards {shards:?} of worker {worker} (range {range}) LOST ({message}); \
                 report degrades to a lower bound"
            );
        }
        fleet::coord::CoordEvent::ShardCollected { shard, state } => {
            eprintln!("[coord] shard {shard} collected");
            driver.shard_done(state);
        }
    };
    let coord_opts = fleet::coord::CoordOptions {
        workers: opts.workers,
        ..fleet::coord::CoordOptions::default()
    };
    let result = fleet::coord::coordinate(
        &config,
        state_dir.as_ref(),
        &coord_opts,
        launch,
        Some(&on_event),
    );
    let run = match result {
        Ok(run) => run,
        Err(e) => {
            eprintln!("error: fleet coordinate failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let secs = t0.elapsed().as_secs_f64();
    driver.finish(&run);
    eprintln!(
        "[coord] fleet done: {} packets across {} shards in {:.1} s wall",
        run.facility.counts.total_packets(),
        run.facility.shards,
        secs
    );
    close_serve(serve_state.as_deref(), serve_handle, opts.serve_linger_secs);
    ExitCode::SUCCESS
}

/// Narrates on stderr the chaos campaign a world run is about to run.
fn announce_chaos(spec: &ChaosSpec, chaos_seed: u64) {
    eprintln!(
        "[run] chaos profile '{}' (chaos-seed {chaos_seed})",
        spec.name
    );
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, args) = match (argv.first().map(String::as_str), argv.get(1)) {
        (Some("fleet"), sub) => match sub.map(String::as_str) {
            Some("merge") => return fleet_merge_command(&argv[2..]),
            Some("work") => (Cmd::Work, &argv[2..]),
            Some("coordinate") => (Cmd::Coordinate, &argv[2..]),
            other => {
                eprintln!(
                    "error: unknown fleet subcommand '{}' (known: merge, work, coordinate)",
                    other.unwrap_or_default()
                );
                return ExitCode::FAILURE;
            }
        },
        _ => (Cmd::Run, &argv[..]),
    };
    let opts = match parse(cmd, args) {
        Ok(o) => o,
        Err(e) if e.is_empty() => {
            print!("{}", usage(cmd));
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}");
            eprint!("{}", usage(cmd));
            return ExitCode::FAILURE;
        }
    };
    match cmd {
        Cmd::Work => return fleet_work_command(&opts),
        Cmd::Coordinate => return fleet_coordinate_command(&opts),
        Cmd::Run => {}
    }

    let duration = if opts.full_week {
        SimDuration::from_secs(PAPER_TRACE_SECS)
    } else {
        SimDuration::from_secs_f64(opts.hours * 3600.0)
    };

    let needs_main = opts.artifacts.iter().any(|a| a.needs_main_run());
    let needs_nat = opts.artifacts.iter().any(|a| a.needs_nat_run());
    let mut labels: Vec<String> = opts.artifacts.iter().map(|id| id.to_string()).collect();
    if opts.fleet.is_some() {
        labels.push("fleet".to_string());
    }

    // The live serving plane: shared snapshot state plus the broadcast bus
    // every run's journal taps into.
    let (serve_state, serve_handle) = match bind_serve(opts.serve.as_deref()) {
        Ok(serve) => serve.unzip(),
        Err(code) => return code,
    };
    if let Some(shared) = &serve_state {
        shared.update_status(|s| {
            s.seed = opts.seed;
            s.speed = opts.speed.to_string();
            s.label = labels.join(",");
        });
    }

    // Wall-clock phases, reported at exit in the same `[time]` format the
    // per-artifact lines use and exported as BENCH_repro.json when
    // CSPROV_BENCH_OUT is set.
    let total_t0 = Instant::now();
    let mut driver = RunDriver {
        opts: &opts,
        // The registry backs the snapshot dump (--metrics-out), the
        // sim-time series (--series-out) and the live /metrics + /series
        // endpoints.
        registry: (opts.metrics_out.is_some() || opts.series_out.is_some() || opts.serve.is_some())
            .then(MetricsRegistry::new),
        serve: serve_state,
        profile_total: None,
        timings: Vec::new(),
    };

    let chaos_seed = opts.chaos_seed.unwrap_or(opts.seed);
    let mut chaos_reports: Vec<ChaosReport> = Vec::new();

    let main_run = needs_main.then(|| {
        eprintln!(
            "[run] simulating {:.1} h of server traffic (seed {})...",
            duration.as_secs_f64() / 3600.0,
            opts.seed
        );
        let (run, secs) = driver.world_run("main", duration.as_nanos(), |instruments| {
            let scenario = ScenarioConfig::scaled(opts.seed, duration);
            let run = match &opts.chaos {
                Some(spec) => {
                    announce_chaos(spec, chaos_seed);
                    let (run, report) =
                        chaos::run_chaos_main(spec, scenario, chaos_seed, instruments);
                    chaos_reports.push(report);
                    run
                }
                None => MainRun::execute_instrumented(scenario, instruments),
            };
            let events = run.outcome.events_executed;
            (run, events)
        });
        eprintln!(
            "[run] done: {} packets in {:.1} s wall ({} events)",
            run.analysis.counts.total_packets(),
            secs,
            run.outcome.events_executed
        );
        run
    });
    let nat_run = needs_nat.then(|| {
        eprintln!("[run] NAT experiment: one 30-minute map through the device...");
        let nat_horizon = SimDuration::from_mins(30).as_nanos();
        let (run, _) = driver.world_run("nat", nat_horizon, |instruments| {
            let chaos = opts.chaos.as_ref().map(|spec| (spec, chaos_seed));
            if let Some((spec, chaos_seed)) = chaos {
                announce_chaos(spec, chaos_seed);
            }
            let (run, report) = nat::run_nat(
                nat::paper_config(opts.seed),
                EngineConfig::default(),
                chaos,
                instruments,
            );
            chaos_reports.extend(report);
            let events = run.outcome.events_executed;
            (run, events)
        });
        run
    });

    for id in &opts.artifacts {
        let artifact_t0 = Instant::now();
        println!("\n================ {id} ================");
        let main = main_run.as_ref();
        let natr = nat_run.as_ref();
        let out = match id {
            ExperimentId::Table1 => tables::table1(main.unwrap()).render(),
            ExperimentId::Table2 => tables::table2(main.unwrap()).render(),
            ExperimentId::Table3 => tables::table3(main.unwrap()).render(),
            ExperimentId::Table4 => tables::table4(natr.unwrap()).render(),
            ExperimentId::Fig(n) => {
                let r = main.unwrap();
                match n {
                    1 => figures::fig1(r),
                    2 => figures::fig2(r),
                    3 => figures::fig3(r),
                    4 => figures::fig4(r),
                    5 => figures::fig5(r),
                    6 => figures::fig6(r),
                    7 => figures::fig7(r),
                    8 => figures::fig8(r),
                    9 => figures::fig9(r),
                    10 => figures::fig10(r),
                    11 => figures::fig11(r),
                    12 => figures::fig12(r),
                    13 => figures::fig13(r),
                    _ => unreachable!("validated at parse"),
                }
            }
            ExperimentId::Fig14 => figures::fig14(natr.unwrap()),
            ExperimentId::Fig15 => figures::fig15(natr.unwrap()),
            ExperimentId::AblateTick => ablations::ablate_tick(opts.seed, 20).render(),
            ExperimentId::AblatePopulation => ablations::ablate_population(opts.seed, 240).render(),
            ExperimentId::AblateNatCapacity => ablations::ablate_nat_capacity(opts.seed).render(),
            ExperimentId::AblateNatBuffer => ablations::ablate_nat_buffer(opts.seed).render(),
            ExperimentId::RouteCache => ablations::route_cache_experiment(opts.seed).render(),
            ExperimentId::SourceModel => ablations::source_model_experiment(opts.seed, 30).render(),
            ExperimentId::WebVsGame => web::web_vs_game(opts.seed).render(),
            ExperimentId::AblateLinkMix => ablations::ablate_link_mix(opts.seed, 20).render(),
            ExperimentId::AggregateServers => aggregate::aggregate_servers(opts.seed, 120).render(),
        };
        println!("{out}");
        if let Some(shared) = &driver.serve {
            shared.append_report(&format!(
                "\n================ {id} ================\n{out}\n"
            ));
        }

        if let Some(dir) = &opts.csv_dir {
            match id {
                ExperimentId::Fig(1) | ExperimentId::Fig(2) => {
                    let r = main.unwrap();
                    let minutes: Vec<f64> = (0..r.analysis.per_minute.bins().len())
                        .map(|i| i as f64)
                        .collect();
                    write_csv(
                        dir,
                        &id.to_string(),
                        &["minute", "kbps", "pps"],
                        &[
                            &minutes,
                            &r.analysis.per_minute.kbps(),
                            &r.analysis.per_minute.pps(),
                        ],
                    );
                }
                ExperimentId::Fig(5) => {
                    let r = main.unwrap();
                    let pts = r.analysis.variance_time.points();
                    let xs: Vec<f64> = pts.iter().map(|p| p.log_block()).collect();
                    let ys: Vec<f64> = pts.iter().map(|p| p.log_variance()).collect();
                    write_csv(dir, "fig5", &["log10_block", "log10_norm_var"], &[&xs, &ys]);
                }
                ExperimentId::Fig(6) => {
                    let r = main.unwrap();
                    write_csv(dir, "fig6", &["pps"], &[&r.analysis.ms10_total.pps()]);
                }
                ExperimentId::Fig(9) => {
                    let r = main.unwrap();
                    write_csv(dir, "fig9", &["pps"], &[&r.analysis.sec1_total.pps()]);
                }
                ExperimentId::Fig14 => {
                    let r = natr.unwrap();
                    write_csv(
                        dir,
                        "fig14",
                        &["clients_to_nat_pps", "nat_to_server_pps"],
                        &[&r.clients_to_nat.pps(), &r.nat_to_server.pps()],
                    );
                }
                ExperimentId::Fig15 => {
                    let r = natr.unwrap();
                    write_csv(
                        dir,
                        "fig15",
                        &["server_to_nat_pps", "nat_to_clients_pps"],
                        &[&r.server_to_nat.pps(), &r.nat_to_clients.pps()],
                    );
                }
                _ => {}
            }
        }
        let secs = artifact_t0.elapsed().as_secs_f64();
        eprintln!("[time] {id}: {secs:.3} s wall");
        driver.timings.push(phase(&id.to_string(), secs, None));
    }

    if let Some(servers) = opts.fleet {
        eprintln!(
            "[run] fleet: {servers} servers x {} simulated min (seed {})...",
            opts.fleet_minutes, opts.seed
        );
        let t0 = Instant::now();
        let mut config = fleet_config(&opts, servers);
        config.profile = driver.profiling();
        // The health board behind /shards: workers beat it in-process;
        // a scanner thread folds in .hb sidecars so externally-written
        // heartbeats (other processes sharing the state dir) are seen
        // too.
        config.health = driver.serve.as_ref().map(|_| health_board(servers));
        let persistence = match (&opts.fleet_state_dir, opts.fleet_resume) {
            (Some(dir), true) => fleet::FleetPersistence::resume_from(dir),
            (Some(dir), false) => fleet::FleetPersistence::checkpoint_to(dir),
            (None, _) => fleet::FleetPersistence::none(),
        };
        let serve = driver.serve.clone();
        let fleet_driver = FleetDriver::start(&config, serve.as_deref());
        // Execution-plane event hook: shard completions feed the serving
        // plane and every event narrates to stderr. The canonical merge
        // happens inside the engine, so none of this affects the answer.
        let on_event = |ev: &fleet::FleetEvent<'_>| {
            narrate("[fleet]", ev);
            if let fleet::FleetEvent::ShardDone { state, .. } = ev {
                fleet_driver.shard_done(state);
            }
        };
        // Heartbeat sidecar scanner: while the fleet runs, fold any .hb
        // files in the state dir into the board and narrate fresh beats
        // onto the bus. Reads only; undecodable files are skipped.
        let scan_stop = Arc::new(AtomicBool::new(false));
        let scanner = match (&config.health, &opts.fleet_state_dir, &serve) {
            (Some(board), Some(dir), Some(shared)) => {
                let board = board.clone();
                let shared = shared.clone();
                let dir = std::path::PathBuf::from(dir);
                let stop = scan_stop.clone();
                std::thread::Builder::new()
                    .name("csprov-hb-scan".to_string())
                    .spawn(move || {
                        while !stop.load(Ordering::Relaxed) {
                            // Freshness comes from the sidecar's observed
                            // mtime age on this clock, never the record's
                            // embedded wall time: re-scanning an unchanged
                            // file must not refresh it (that would mask a
                            // stall), and a skewed writer clock must not
                            // forge one.
                            for o in fleet::persist::scan_heartbeats_observed(&dir) {
                                board.apply_observed(&o.rec, o.age_ms);
                                if o.rec.state == SHARD_RUNNING {
                                    shared.bus().publish(BusEvent::Trace(TraceEvent {
                                        sim_ns: o.rec.sim_ns,
                                        kind: "fleet.shard.beat",
                                        key: o.rec.shard,
                                        value: o.rec.retries,
                                    }));
                                }
                            }
                            std::thread::sleep(Duration::from_millis(300));
                        }
                    })
                    .ok()
            }
            _ => None,
        };
        let fleet_result = fleet::run_fleet_full(&config, &persistence, Some(&on_event));
        scan_stop.store(true, Ordering::Relaxed);
        if let Some(handle) = scanner {
            let _ = handle.join();
        }
        match fleet_result {
            Ok(run) => {
                let secs = t0.elapsed().as_secs_f64();
                if let Some(registry) = &driver.registry {
                    run.export_metrics(registry);
                    if let Some(board) = &config.health {
                        board.export_metrics(registry);
                    }
                }
                if let Some(snap) = &run.profile {
                    if let Some(dir) = &opts.profile_out {
                        let detail = format!("{} frames", snap.entries().len());
                        let folded = format!("{dir}/fleet.folded");
                        write_side("[profile]", &folded, snap.render_folded(), &detail);
                    }
                    driver.absorb_profile(snap);
                }
                if let Some(journal) = driver.journal() {
                    run.emit_journal(&journal);
                    if let Some(base) = &opts.trace_out {
                        write_journal(&journal, base, "fleet");
                    }
                }
                fleet_driver.finish(&run);
                eprintln!(
                    "[run] fleet done: {} packets across {} shards in {:.1} s wall",
                    run.facility.counts.total_packets(),
                    run.facility.shards,
                    secs
                );
                let p = &run.persist;
                if p.checkpoints_written + p.resumed + p.invalid_checkpoints > 0 {
                    eprintln!(
                        "[fleet] persistence: {} checkpoints written, {} shards resumed, \
                         {} invalid checkpoints recomputed",
                        p.checkpoints_written, p.resumed, p.invalid_checkpoints
                    );
                }
                eprintln!("[time] fleet: {secs:.3} s wall");
                driver.timings.push(phase(
                    "fleet",
                    secs,
                    Some(run.facility.counts.total_packets() as f64 / secs.max(1e-9)),
                ));
            }
            Err(e) => {
                eprintln!("error: fleet run failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    for report in &chaos_reports {
        println!("\n================ chaos ================");
        println!("{}", report.render());
    }

    // The cumulative wall-time attribution across every run this
    // invocation performed, ranked by self time. Stderr, not stdout —
    // wall timings must never contaminate the determinism artifacts.
    if let Some(total) = &driver.profile_total {
        eprintln!("[profile] wall-time attribution (self-time ranked):");
        for line in total.render_table().lines() {
            eprintln!("  {line}");
        }
    }

    let total_secs = total_t0.elapsed().as_secs_f64();
    eprintln!("[time] total: {total_secs:.3} s wall");
    driver.timings.push(phase("total", total_secs, None));
    if let Ok(dir) = std::env::var("CSPROV_BENCH_OUT") {
        if !dir.is_empty() {
            let path = std::path::Path::new(&dir).join("BENCH_repro.json");
            let json = render_bench_json("repro", &driver.timings);
            match std::fs::write(&path, json) {
                Ok(()) => eprintln!("[bench] wrote {}", path.display()),
                Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
            }
        }
    }

    if let (Some(path), Some(registry)) = (&opts.metrics_out, &driver.registry) {
        let out = match opts.metrics_format {
            MetricsFormat::Combined => {
                let mut out = String::new();
                for label in &labels {
                    out.push_str(&format!("# ==== {label} ====\n"));
                    for line in registry.render_deterministic().lines() {
                        out.push_str("# ");
                        out.push_str(line);
                        out.push('\n');
                    }
                    out.push_str(&registry.render_jsonl(label));
                }
                out
            }
            MetricsFormat::Text => {
                // Deterministic section first (byte-stable per seed),
                // then the wall section (span wall histograms with
                // p50/p95/p99, profile.*, shard.*, serve.*) under a
                // comment fence so consumers can split them apart.
                let mut out = registry.render_deterministic();
                let wall = registry.render_wall();
                if !wall.is_empty() {
                    out.push_str("# ---- wall (host-dependent) ----\n");
                    out.push_str(&wall);
                }
                out
            }
            MetricsFormat::Json => {
                let mut out = String::new();
                for label in &labels {
                    out.push_str(&registry.render_jsonl(label));
                }
                out
            }
            MetricsFormat::Prom => registry.render_prometheus(),
        };
        match std::fs::write(path, out) {
            Ok(()) => eprintln!("[metrics] wrote {path} ({} instruments)", registry.len()),
            Err(e) => {
                eprintln!("error: could not write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    // Wind the serving plane down after one last metrics snapshot.
    if let (Some(shared), Some(registry)) = (&driver.serve, &driver.registry) {
        shared.export_metrics(registry);
        shared.set_metrics(registry.render_prometheus());
    }
    close_serve(
        driver.serve.as_deref(),
        serve_handle,
        opts.serve_linger_secs,
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    fn parse_err(cmd: Cmd, line: &str) -> String {
        match parse(cmd, &argv(line)) {
            Ok(_) => panic!("{cmd:?} {line} must be rejected"),
            Err(e) => e,
        }
    }

    #[test]
    fn every_flag_row_has_a_setter() {
        for &(name, value, _, _) in FLAGS {
            let sample = match value {
                "" => "",
                "DIR" | "FILE" | "ADDR" => "x",
                "F" => "text",
                "PROFILE" => "none",
                "SPEC" => "1:forever",
                "LO:HI" => "0:1",
                "N|max" => "max",
                _ => "1",
            };
            let mut opts = Options::default();
            assert_eq!(set_flag(&mut opts, name, sample), Ok(()), "{name} {sample}");
        }
    }

    #[test]
    fn usage_lists_every_artifact_and_exactly_each_commands_flags() {
        let run = usage(Cmd::Run);
        for id in ExperimentId::all() {
            let id = id.to_string();
            assert!(run.split_whitespace().any(|w| w == id), "{id} missing");
        }
        for cmd in [Cmd::Run, Cmd::Work, Cmd::Coordinate] {
            let text = usage(cmd);
            let listed: Vec<&str> = text
                .lines()
                .filter(|l| l.starts_with("  --"))
                .filter_map(|l| l.split_whitespace().next())
                .collect();
            let taken: Vec<&str> = FLAGS
                .iter()
                .filter(|f| f.2 & cmd as u8 != 0)
                .map(|f| f.0)
                .collect();
            assert_eq!(listed, taken, "{cmd:?}");
        }
    }

    #[test]
    fn coordinator_worker_argv_parses_back_to_the_same_fleet() {
        for extra in ["", "--fleet-fail 3:stall=50,5:forever"] {
            let line =
                format!("--seed 7 --fleet 16 --fleet-minutes 10 --fleet-state-dir st {extra}");
            let coord = parse(Cmd::Coordinate, &argv(&line)).unwrap();
            let range = ShardRange { start: 6, end: 11 };
            let args = worker_args(&coord, 16, "st", range);
            assert_eq!(args[..4], ["fleet", "work", "--shards", "6:11"]);
            let work = parse(Cmd::Work, &args[2..]).unwrap();
            assert_eq!(work.shards, Some(range));
            assert_eq!(work.fleet_state_dir.as_deref(), Some("st"));
            let c = fleet_config(&coord, 16);
            let w = fleet_config(&work, work.fleet.unwrap());
            assert_eq!(
                (w.seed, w.servers, w.minutes, &w.fail_plan),
                (c.seed, c.servers, c.minutes, &c.fail_plan),
                "{line}"
            );
        }
    }

    #[test]
    fn validation_rules_reject_each_bad_invocation() {
        #[rustfmt::skip]
        let cases = [
            (Cmd::Run, "--fleet 0", "--fleet must be > 0"),
            (Cmd::Run, "--fleet 2 --fleet-minutes 0", "--fleet-minutes must be > 0"),
            (Cmd::Coordinate, "--fleet 2 --fleet-state-dir d --workers 0", "--workers must be > 0"),
            (Cmd::Run, "--series-interval 0 table1", "--series-interval must be > 0"),
            (Cmd::Work, "--fleet 2 --fleet-state-dir d --shards 0:1 --fleet-fail 1:1", "bad --fleet-fail entry '1:1'"),
            (Cmd::Coordinate, "--fleet 2 --fleet-state-dir d --fleet-retries 3", "unknown option: --fleet-retries"),
            (Cmd::Run, "--fleet 2 --resume", "--resume requires --fleet-state-dir"),
            (Cmd::Run, "--metrics-format prom table1", "--metrics-format requires --metrics-out"),
            (Cmd::Work, "--fleet 2 --fleet-state-dir d", "fleet work requires --shards"),
            (Cmd::Coordinate, "--fleet 2 --fleet-state-dir d --serve-linger 2", "--serve-linger requires --serve"),
            (Cmd::Work, "--fleet 2 --fleet-state-dir d --shards 0:1 --workers 9", "repro fleet work does not take --workers"),
            (Cmd::Coordinate, "--fleet 2 --fleet-state-dir d --shards 0:1", "repro fleet coordinate does not take --shards"),
            (Cmd::Run, "table1 --fleet-fail 1:forever", "require --fleet"),
            (Cmd::Run, "", "no artifacts requested"),
        ];
        for (cmd, line, needle) in cases {
            let e = parse_err(cmd, line);
            assert!(e.contains(needle), "{cmd:?} {line}: {e}");
        }
        assert_eq!(parse_err(Cmd::Work, "--help"), "");
    }
}
