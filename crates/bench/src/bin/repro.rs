//! Regenerates every table and figure of "Provisioning On-line Games".
//!
//! ```text
//! repro [OPTIONS] <ARTIFACT>...
//!
//! ARTIFACT:  table1 table2 table3 table4 fig1..fig15
//!            ablate-tick ablate-population ablate-nat-capacity
//!            ablate-nat-buffer route-cache source-model web-vs-game
//!            all        every artifact above
//!            main       tables I-III and figures 1-13
//!            nat        table IV and figures 14-15
//!
//! OPTIONS:
//!   --seed N           RNG seed (default 2002)
//!   --hours H          main-trace length in hours (default 24)
//!   --full-week        use the paper's full 626,477 s trace (~7.25 days)
//!   --csv DIR          also write key figures' data series as CSV into DIR
//!   --progress         heartbeat on stderr (sim/wall ratio, ev/s, ETA)
//!   --metrics-out FILE metrics snapshot per artifact (text + JSON lines)
//!   --metrics-format F metrics-out format: text, json, or prom
//!                      (default: commented text + JSON lines combined)
//!   --trace-out FILE   event journal per world run, written as
//!                      FILE -> <stem>.<run>.<ext>; a .json extension
//!                      selects Chrome trace-event format (open in
//!                      Perfetto / chrome://tracing), anything else JSONL
//!   --series-out DIR   sim-time metric series per world run (DIR/main.csv,
//!                      DIR/nat.csv), sampled on the sim clock
//!   --series-interval MS  series sampling period in sim-ms (default 1000)
//!   --profile-out DIR  hierarchical wall-time profile per world run:
//!                      DIR/<run>.folded (collapsed stacks, flamegraph-
//!                      ready) and DIR/<run>.trace.json (journal merged
//!                      with profile spans, Perfetto-openable), plus a
//!                      ranked self-time table on stderr
//!   --chaos PROFILE    run under a fault-injection campaign:
//!                      none modem-burst reorder-dup last-mile-loss nat-exhaust
//!   --chaos-seed N     impairment seed (default: same as --seed)
//!   --fleet N          simulate a facility of N independent servers on the
//!                      work-stealing pool, merge their analysis state, and
//!                      print the provisioning report (pps/bandwidth mean
//!                      and p95/p99, per-player slope, aggregate Hurst,
//!                      uplink sizing); may be used without artifacts
//!   --fleet-minutes M  simulated minutes per fleet server (default 30)
//!   --serve ADDR       stream the run live over HTTP (GET /metrics,
//!                      /events (SSE), /series, /status, /report,
//!                      /healthz, /shards, /profile); the server runs
//!                      for the duration of the repro
//!   --serve-linger S   keep serving S seconds after the run finishes
//!                      (requires --serve)
//!   --speed S          replay speed: a multiplier (1 = wall clock,
//!                      8 = 8x fast-forward) or "max" (default: unpaced)
//!
//! repro fleet merge OUT_REPORT STATE_FILE...
//! repro fleet work --shards LO:HI --fleet N --fleet-state-dir DIR [...]
//! repro fleet coordinate --fleet N --fleet-state-dir DIR [--workers W] [...]
//! ```
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
    fleet_retries: Option<u32>,
    fleet_fail: Vec<fleet::FailSpec>,
    serve: Option<String>,
    serve_linger_secs: u64,
    speed: Speed,
    artifacts: Vec<ExperimentId>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
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
        fleet_retries: None,
        fleet_fail: Vec::new(),
        serve: None,
        serve_linger_secs: 0,
        speed: Speed::Max,
        artifacts: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                opts.seed = args
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?;
            }
            "--hours" => {
                opts.hours = args
                    .next()
                    .ok_or("--hours needs a value")?
                    .parse()
                    .map_err(|e| format!("bad hours: {e}"))?;
            }
            "--full-week" => opts.full_week = true,
            "--csv" => opts.csv_dir = Some(args.next().ok_or("--csv needs a directory")?),
            "--progress" => opts.progress = true,
            "--metrics-out" => {
                opts.metrics_out = Some(args.next().ok_or("--metrics-out needs a file")?)
            }
            "--metrics-format" => {
                let f = args.next().ok_or("--metrics-format needs a value")?;
                opts.metrics_format = match f.as_str() {
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
            "--trace-out" => opts.trace_out = Some(args.next().ok_or("--trace-out needs a file")?),
            "--series-out" => {
                opts.series_out = Some(args.next().ok_or("--series-out needs a directory")?)
            }
            "--series-interval" => {
                opts.series_interval_ms = args
                    .next()
                    .ok_or("--series-interval needs a value in ms")?
                    .parse()
                    .map_err(|e| format!("bad series interval: {e}"))?;
                if opts.series_interval_ms == 0 {
                    return Err("--series-interval must be > 0".into());
                }
            }
            "--profile-out" => {
                opts.profile_out = Some(args.next().ok_or("--profile-out needs a directory")?)
            }
            "--chaos" => {
                let name = args.next().ok_or("--chaos needs a profile name")?;
                opts.chaos = Some(chaos::by_name(&name).ok_or_else(|| {
                    format!(
                        "unknown chaos profile '{name}' (known: {})",
                        chaos::names().join(", ")
                    )
                })?);
            }
            "--chaos-seed" => {
                opts.chaos_seed = Some(
                    args.next()
                        .ok_or("--chaos-seed needs a value")?
                        .parse()
                        .map_err(|e| format!("bad chaos seed: {e}"))?,
                );
            }
            "--fleet" => {
                let n: usize = args
                    .next()
                    .ok_or("--fleet needs a server count")?
                    .parse()
                    .map_err(|e| format!("bad fleet size: {e}"))?;
                if n == 0 {
                    return Err("--fleet must be > 0".into());
                }
                opts.fleet = Some(n);
            }
            "--fleet-minutes" => {
                opts.fleet_minutes = args
                    .next()
                    .ok_or("--fleet-minutes needs a value")?
                    .parse()
                    .map_err(|e| format!("bad fleet minutes: {e}"))?;
                if opts.fleet_minutes == 0 {
                    return Err("--fleet-minutes must be > 0".into());
                }
            }
            "--fleet-state-dir" => {
                opts.fleet_state_dir =
                    Some(args.next().ok_or("--fleet-state-dir needs a directory")?)
            }
            "--resume" => opts.fleet_resume = true,
            "--fleet-retries" => {
                let n: u32 = args
                    .next()
                    .ok_or("--fleet-retries needs a value")?
                    .parse()
                    .map_err(|e| format!("bad fleet retries: {e}"))?;
                if n == 0 {
                    return Err("--fleet-retries must be > 0".into());
                }
                opts.fleet_retries = Some(n);
            }
            "--fleet-fail" => {
                let spec = args.next().ok_or("--fleet-fail needs SHARD:COUNT,...")?;
                opts.fleet_fail = parse_fail_plan(&spec)?;
            }
            "--serve" => {
                opts.serve = Some(args.next().ok_or("--serve needs an address (host:port)")?)
            }
            "--serve-linger" => {
                opts.serve_linger_secs = args
                    .next()
                    .ok_or("--serve-linger needs seconds")?
                    .parse()
                    .map_err(|e| format!("bad linger seconds: {e}"))?;
            }
            "--speed" => {
                opts.speed = args.next().ok_or("--speed needs a value")?.parse()?;
            }
            "-h" | "--help" => return Err(String::new()),
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
            other if other.starts_with('-') => {
                return Err(format!("unknown option: {other}"));
            }
            other => {
                let id: ExperimentId = other.parse()?;
                opts.artifacts.push(id);
            }
        }
    }
    if opts.artifacts.is_empty() && opts.fleet.is_none() {
        return Err("no artifacts requested".into());
    }
    if opts.metrics_format != MetricsFormat::Combined && opts.metrics_out.is_none() {
        return Err("--metrics-format requires --metrics-out".into());
    }
    if opts.serve_linger_secs > 0 && opts.serve.is_none() {
        return Err("--serve-linger requires --serve".into());
    }
    if opts.fleet.is_none()
        && (opts.fleet_state_dir.is_some()
            || opts.fleet_resume
            || opts.fleet_retries.is_some()
            || !opts.fleet_fail.is_empty())
    {
        return Err(
            "--fleet-state-dir/--resume/--fleet-retries/--fleet-fail require --fleet".into(),
        );
    }
    if opts.fleet_resume && opts.fleet_state_dir.is_none() {
        return Err("--resume requires --fleet-state-dir".into());
    }
    Ok(opts)
}

/// Parses `--fleet-fail SHARD:COUNT,...` — the deterministic fault plan
/// used by the crash-resume CI smoke and local resilience testing. A
/// COUNT of `forever` (or `u32::MAX`) makes the shard fail permanently;
/// `SHARD:stall=MS` instead makes the shard sleep MS wall-milliseconds
/// before each attempt (sim results unchanged), which is how the health
/// watchdog is exercised end to end.
fn parse_fail_plan(spec: &str) -> Result<Vec<fleet::FailSpec>, String> {
    let mut plan = Vec::new();
    for part in spec.split(',') {
        let (shard, action) = part.split_once(':').ok_or_else(|| {
            format!("bad --fleet-fail entry '{part}' (want SHARD:COUNT or SHARD:stall=MS)")
        })?;
        let shard: usize = shard
            .parse()
            .map_err(|e| format!("bad --fleet-fail shard '{shard}': {e}"))?;
        if let Some(ms) = action.strip_prefix("stall=") {
            let stall_ms: u64 = ms
                .parse()
                .map_err(|e| format!("bad --fleet-fail stall '{ms}': {e}"))?;
            plan.push(fleet::FailSpec {
                shard,
                failures: 0,
                stall_ms,
            });
            continue;
        }
        let failures: u32 = if action == "forever" {
            u32::MAX
        } else {
            action
                .parse()
                .map_err(|e| format!("bad --fleet-fail count '{action}': {e}"))?
        };
        plan.push(fleet::FailSpec {
            shard,
            failures,
            stall_ms: 0,
        });
    }
    Ok(plan)
}

fn usage() {
    eprintln!(
        "usage: repro [--seed N] [--hours H] [--full-week] [--csv DIR] [--progress] \
         [--metrics-out FILE] [--metrics-format text|json|prom] [--trace-out FILE] \
         [--series-out DIR] [--series-interval MS] [--profile-out DIR] \
         [--chaos PROFILE] [--chaos-seed N] \
         [--fleet N [--fleet-minutes M] [--fleet-state-dir DIR] [--resume] \
         [--fleet-retries N] [--fleet-fail SHARD:COUNT|SHARD:stall=MS,...]] \
         [--serve ADDR [--serve-linger S]] \
         [--speed N|max] <artifact|all|main|nat>..."
    );
    eprintln!("       repro fleet merge OUT_REPORT STATE_FILE...");
    eprintln!(
        "       repro fleet work --shards LO:HI --fleet N --fleet-state-dir DIR \
         [--seed S] [--fleet-minutes M] [--fleet-retries N] [--fleet-fail SPEC]"
    );
    eprintln!(
        "       repro fleet coordinate --fleet N --fleet-state-dir DIR [--seed S] \
         [--fleet-minutes M] [--workers W] [--fleet-retries N] \
         [--fleet-fail SPEC] [--serve ADDR [--serve-linger S]]"
    );
    eprintln!("artifacts: table1..table4, fig1..fig15, ablate-tick, ablate-population,");
    eprintln!("           ablate-nat-capacity, ablate-nat-buffer, route-cache, source-model,");
    eprintln!("           web-vs-game");
    eprintln!("chaos profiles: {}", chaos::names().join(", "));
}

/// Builds the observe-only side channels for one world run: metric handles
/// registered against `registry` (when a metrics file was requested), an
/// event journal (when `--trace-out` or `--serve` is on), a wall-clock
/// pacer (`--speed`), and a kernel observer driving a [`ProgressReporter`]
/// (`--progress`), a [`SeriesSampler`] (`--series-out`/`--serve`) and the
/// live snapshot refresh (`--serve`) — all sharing the one observer slot
/// and stride.
///
/// The reporter and sampler are also returned so the caller can emit the
/// final summary line / flush the series after the run.
type RunTelemetry = (
    WorldInstruments,
    Option<Rc<ProgressReporter>>,
    Option<Rc<RefCell<SeriesSampler>>>,
);

/// Everything one world run's telemetry needs, bundled so each run site
/// states only what differs (label, horizon, journal).
struct TelemetrySpec<'a> {
    label: &'static str,
    horizon_ns: u64,
    registry: Option<&'a MetricsRegistry>,
    progress: bool,
    journal: Option<Journal>,
    series_interval_ns: Option<u64>,
    speed: Speed,
    serve: Option<Arc<ServeShared>>,
}

fn instruments_for(spec: TelemetrySpec<'_>) -> RunTelemetry {
    let TelemetrySpec {
        label,
        horizon_ns,
        registry,
        progress,
        journal,
        series_interval_ns,
        speed,
        serve,
    } = spec;
    let mut instruments = WorldInstruments::default();
    if let Some(registry) = registry {
        instruments.metrics = Some(GameMetrics::register(registry));
        instruments.registry = Some(registry.clone());
    }
    instruments.journal = journal.clone();
    let pacer_stats: Option<Arc<PacerStats>> = speed.is_paced().then(|| {
        let pacer = Pacer::new(speed);
        let stats = pacer.stats();
        instruments.pacer = Some(pacer);
        stats
    });
    let reporter = progress.then(|| Rc::new(ProgressReporter::new(label, Some(horizon_ns))));
    let sampler = match (series_interval_ns, registry) {
        (Some(interval_ns), Some(registry)) => Some(Rc::new(RefCell::new(SeriesSampler::new(
            registry.clone(),
            interval_ns,
        )))),
        _ => None,
    };
    if reporter.is_some() || sampler.is_some() || serve.is_some() {
        let reporter_cb = reporter.clone();
        let sampler_cb = sampler.clone();
        let registry_cb = registry.cloned();
        let last_refresh = Cell::new(Instant::now());
        // The sampler needs to see the sim clock often enough to hit its
        // interval boundaries; the progress reporter rate-limits itself on
        // wall time, so the finer stride costs only the callback dispatch.
        let stride = if sampler.is_some() {
            OBSERVER_STRIDE / 8
        } else {
            OBSERVER_STRIDE
        };
        instruments.observer = Some((
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
    (instruments, reporter, sampler)
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
    match std::fs::write(&path, data) {
        Ok(()) => eprintln!(
            "[trace] wrote {path} ({} events, {} dropped)",
            journal.len(),
            journal.dropped()
        ),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
}

/// Flushes one run's series (adding the horizon row) and writes its CSV.
fn write_series(sampler: &RefCell<SeriesSampler>, dir: &str, label: &str, horizon_ns: u64) {
    let mut sampler = sampler.borrow_mut();
    sampler.finish(horizon_ns);
    let path = format!("{dir}/{label}.csv");
    match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, sampler.to_csv())) {
        Ok(()) => eprintln!("[series] wrote {path} ({} samples)", sampler.len()),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
}

/// Starts wall-time profiling for one world run: a fresh [`Profile`]
/// (frame trees are per-run), attached to the registry so spans created
/// for this run frame themselves. Must run before the run's instruments
/// are built — spans capture the profile at creation time.
fn start_profile(enabled: bool, registry: Option<&MetricsRegistry>) -> Option<Profile> {
    if !enabled {
        return None;
    }
    let profile = Profile::new();
    if let Some(registry) = registry {
        registry.attach_profile(Some(profile.clone()));
    }
    Some(profile)
}

/// Finishes one run's profile: detaches it from the registry, exports
/// the `profile.*` wall counters, writes the collapsed-stack and merged
/// Chrome-trace views (`--profile-out`), and folds the run's snapshot
/// into the cross-run cumulative behind the ranked table / `/profile`.
/// Everything here is wall-domain — stderr and side files only, so the
/// byte-identity of stdout and determinism artifacts is untouched.
fn finish_profile(
    profile: &Profile,
    label: &str,
    out_dir: Option<&str>,
    journal: Option<&Journal>,
    registry: Option<&MetricsRegistry>,
    total: &mut Option<ProfileSnapshot>,
) {
    if let Some(registry) = registry {
        registry.attach_profile(None);
        export_profile_metrics(registry, profile);
    }
    if let Some(dir) = out_dir {
        let folded_path = format!("{dir}/{label}.folded");
        let write = std::fs::create_dir_all(dir)
            .and_then(|_| std::fs::write(&folded_path, profile.render_folded()));
        match write {
            Ok(()) => eprintln!(
                "[profile] wrote {folded_path} ({} frames, {} enters)",
                profile.frames(),
                profile.enters()
            ),
            Err(e) => eprintln!("warning: could not write {folded_path}: {e}"),
        }
        if let Some(journal) = journal {
            let trace_path = format!("{dir}/{label}.trace.json");
            let data = journal.export_chrome_trace_with(&profile.chrome_rows(2));
            match std::fs::write(&trace_path, data) {
                Ok(()) => eprintln!("[profile] wrote {trace_path} (journal + profile spans)"),
                Err(e) => eprintln!("warning: could not write {trace_path}: {e}"),
            }
        }
    }
    absorb_profile(total, &profile.snapshot());
}

/// Folds a run's profile snapshot into the cross-run cumulative.
fn absorb_profile(total: &mut Option<ProfileSnapshot>, snap: &ProfileSnapshot) {
    match total {
        Some(total) => total.absorb(snap),
        None => *total = Some(snap.clone()),
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

/// End-of-run refresh for the serving plane: final status, a closing
/// series row (unless `--series-out` already flushed one), fresh
/// `/metrics` + `/series` snapshots, and the run-finished bus event.
fn finish_serve_run(
    shared: &Arc<ServeShared>,
    registry: &Option<MetricsRegistry>,
    sampler: &Option<Rc<RefCell<SeriesSampler>>>,
    finish_series: bool,
    horizon_ns: u64,
    events: u64,
    label: &str,
) {
    shared.update_status(|s| {
        s.sim_ns = horizon_ns;
        s.events = events;
        s.lag_ns = 0;
    });
    if let Some(sampler) = sampler {
        if finish_series {
            sampler.borrow_mut().finish(horizon_ns);
        }
        shared.set_series(sampler.borrow().to_csv());
    }
    if let Some(registry) = registry {
        shared.export_metrics(registry);
        shared.set_metrics(registry.render_prometheus());
    }
    shared.bus().publish(BusEvent::RunFinished {
        label: label.into(),
        sim_ns: horizon_ns,
        events,
    });
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
        fleet::FleetEvent::ShardRetry {
            shard,
            attempt,
            backoff_ns,
            message,
        } => eprintln!(
            "{prefix} shard {shard} attempt {attempt} failed ({message}); \
             retrying after {} ms simulated backoff",
            backoff_ns / 1_000_000
        ),
        fleet::FleetEvent::ShardLost {
            shard,
            attempts,
            message,
        } => eprintln!(
            "{prefix} shard {shard} LOST after {attempts} attempts ({message}); \
             report degrades to a lower bound"
        ),
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
    if args.len() < 2 {
        eprintln!("usage: repro fleet merge OUT_REPORT STATE_FILE...");
        return ExitCode::FAILURE;
    }
    let out = &args[0];
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

/// Flags shared by `repro fleet work` and `repro fleet coordinate`.
/// Both subcommands describe the *same* fleet (`--seed`, `--fleet`,
/// `--fleet-minutes`, `--fleet-retries`, `--fleet-fail`) so shard seeds
/// derive identically no matter which process runs a shard; the rest is
/// role-specific (an assigned `--shards` range for a worker, a worker
/// count plus an optional serving plane for the coordinator).
struct CoordCli {
    seed: u64,
    servers: Option<usize>,
    minutes: u64,
    state_dir: Option<String>,
    retries: Option<u32>,
    fail_spec: Option<String>,
    shards: Option<fleet::coord::ShardRange>,
    workers: usize,
    serve: Option<String>,
    serve_linger_secs: u64,
}

fn parse_coord_cli(args: &[String]) -> Result<CoordCli, String> {
    let mut o = CoordCli {
        seed: 2002,
        servers: None,
        minutes: 30,
        state_dir: None,
        retries: None,
        fail_spec: None,
        shards: None,
        workers: 2,
        serve: None,
        serve_linger_secs: 0,
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                o.seed = args
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?;
            }
            "--fleet" => {
                let n: usize = args
                    .next()
                    .ok_or("--fleet needs a server count")?
                    .parse()
                    .map_err(|e| format!("bad fleet size: {e}"))?;
                if n == 0 {
                    return Err("--fleet must be > 0".into());
                }
                o.servers = Some(n);
            }
            "--fleet-minutes" => {
                o.minutes = args
                    .next()
                    .ok_or("--fleet-minutes needs a value")?
                    .parse()
                    .map_err(|e| format!("bad fleet minutes: {e}"))?;
                if o.minutes == 0 {
                    return Err("--fleet-minutes must be > 0".into());
                }
            }
            "--fleet-state-dir" => {
                o.state_dir = Some(
                    args.next()
                        .ok_or("--fleet-state-dir needs a directory")?
                        .clone(),
                );
            }
            "--fleet-retries" => {
                let n: u32 = args
                    .next()
                    .ok_or("--fleet-retries needs a value")?
                    .parse()
                    .map_err(|e| format!("bad fleet retries: {e}"))?;
                if n == 0 {
                    return Err("--fleet-retries must be > 0".into());
                }
                o.retries = Some(n);
            }
            "--fleet-fail" => {
                let spec = args.next().ok_or("--fleet-fail needs SHARD:COUNT,...")?;
                parse_fail_plan(spec)?;
                o.fail_spec = Some(spec.clone());
            }
            "--shards" => {
                let spec = args.next().ok_or("--shards needs LO:HI")?;
                o.shards = Some(
                    fleet::coord::ShardRange::parse(spec)
                        .ok_or_else(|| format!("bad --shards '{spec}' (want LO:HI, HI > LO)"))?,
                );
            }
            "--workers" => {
                let n: usize = args
                    .next()
                    .ok_or("--workers needs a count")?
                    .parse()
                    .map_err(|e| format!("bad worker count: {e}"))?;
                if n == 0 {
                    return Err("--workers must be > 0".into());
                }
                o.workers = n;
            }
            "--serve" => o.serve = Some(args.next().ok_or("--serve needs HOST:PORT")?.clone()),
            "--serve-linger" => {
                o.serve_linger_secs = args
                    .next()
                    .ok_or("--serve-linger needs seconds")?
                    .parse()
                    .map_err(|e| format!("bad linger: {e}"))?;
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if o.servers.is_none() {
        return Err("--fleet N is required".into());
    }
    if o.state_dir.is_none() {
        return Err("--fleet-state-dir DIR is required".into());
    }
    Ok(o)
}

/// Builds the fleet config both subcommands agree on. Shard traffic is a
/// pure function of (seed, shard index), so a worker and the coordinator
/// constructing this independently stay byte-compatible.
fn coord_fleet_config(o: &CoordCli) -> Result<FleetConfig, String> {
    let mut config = FleetConfig::new("fleet", o.seed, o.servers.unwrap(), o.minutes);
    if let Some(attempts) = o.retries {
        config.retry.attempts = attempts;
    }
    if let Some(spec) = &o.fail_spec {
        config.fail_plan = parse_fail_plan(spec)?;
    }
    Ok(config)
}

/// `repro fleet work --shards LO:HI ...` — the worker half of the
/// coordinator/worker protocol: executes one assigned shard range against
/// the shared state directory, writing checkpoints and heartbeat sidecars
/// the coordinator watches. Narrates to stderr only (stdout belongs to
/// the coordinator's report). Exits 0 even when shards were lost after
/// exhausting retries — loss is coverage accounting, not a worker crash.
fn fleet_work_command(args: &[String]) -> ExitCode {
    let opts = match parse_coord_cli(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: repro fleet work --shards LO:HI --fleet N --fleet-state-dir DIR \
                 [--seed S] [--fleet-minutes M] [--fleet-retries N] [--fleet-fail SPEC]"
            );
            return ExitCode::FAILURE;
        }
    };
    let Some(range) = opts.shards else {
        eprintln!("error: fleet work requires --shards LO:HI");
        return ExitCode::FAILURE;
    };
    let config = match coord_fleet_config(&opts) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let state_dir = std::path::PathBuf::from(opts.state_dir.as_deref().unwrap());
    eprintln!(
        "[worker] shards {range} of a {}-shard fleet (seed {}, state dir {})",
        config.servers,
        config.seed,
        state_dir.display()
    );
    let t0 = Instant::now();
    let on_event = |ev: &fleet::FleetEvent<'_>| narrate("[worker]", ev);
    match fleet::coord::run_worker_range(&config, range, &state_dir, Some(&on_event)) {
        Ok(summary) => {
            eprintln!(
                "[worker] range {range} finished in {:.1} s wall: {} done, {} resumed, \
                 {} lost, {} retries",
                t0.elapsed().as_secs_f64(),
                summary.done.len(),
                summary.resumed.len(),
                summary.lost.len(),
                summary.retries
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
fn fleet_coordinate_command(args: &[String]) -> ExitCode {
    let opts = match parse_coord_cli(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: repro fleet coordinate --fleet N --fleet-state-dir DIR [--seed S] \
                 [--fleet-minutes M] [--workers W] [--fleet-retries N] \
                 [--fleet-fail SPEC] [--serve HOST:PORT [--serve-linger S]]"
            );
            return ExitCode::FAILURE;
        }
    };
    if opts.shards.is_some() {
        eprintln!("error: --shards belongs to fleet work (the coordinator plans ranges)");
        return ExitCode::FAILURE;
    }
    let mut config = match coord_fleet_config(&opts) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let servers = config.servers;
    let state_dir = std::path::PathBuf::from(opts.state_dir.as_deref().unwrap());
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
        opts.minutes,
        opts.seed,
        opts.workers,
        state_dir.display()
    );
    let t0 = Instant::now();
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: cannot locate own executable to spawn workers: {e}");
            return ExitCode::FAILURE;
        }
    };
    let launch = |worker: usize, range: fleet::coord::ShardRange| {
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("fleet")
            .arg("work")
            .arg("--shards")
            .arg(range.to_string())
            .arg("--seed")
            .arg(opts.seed.to_string())
            .arg("--fleet")
            .arg(servers.to_string())
            .arg("--fleet-minutes")
            .arg(opts.minutes.to_string())
            .arg("--fleet-state-dir")
            .arg(&state_dir);
        if let Some(attempts) = opts.retries {
            cmd.arg("--fleet-retries").arg(attempts.to_string());
        }
        if let Some(spec) = &opts.fail_spec {
            cmd.arg("--fleet-fail").arg(spec);
        }
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
    let result =
        fleet::coord::coordinate(&config, &state_dir, &coord_opts, launch, Some(&on_event));
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

fn main() -> ExitCode {
    {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        if argv.len() >= 2 && argv[0] == "fleet" {
            match argv[1].as_str() {
                "merge" => return fleet_merge_command(&argv[2..]),
                "work" => return fleet_work_command(&argv[2..]),
                "coordinate" => return fleet_coordinate_command(&argv[2..]),
                _ => {}
            }
        }
    }
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}");
            }
            usage();
            return ExitCode::FAILURE;
        }
    };

    let duration = if opts.full_week {
        SimDuration::from_secs(PAPER_TRACE_SECS)
    } else {
        SimDuration::from_secs_f64(opts.hours * 3600.0)
    };

    let needs_main = opts.artifacts.iter().any(|a| a.needs_main_run());
    let needs_nat = opts.artifacts.iter().any(|a| a.needs_nat_run());

    // The registry backs the snapshot dump (--metrics-out), the sim-time
    // series (--series-out), the live /metrics + /series endpoints, and
    // span->profile framing (--profile-out needs spans to attribute
    // tick/flush time, so it implies a registry).
    let registry = (opts.metrics_out.is_some()
        || opts.series_out.is_some()
        || opts.serve.is_some()
        || opts.profile_out.is_some())
    .then(MetricsRegistry::new);
    // Profiling is on for --profile-out (files + table) and for --serve
    // (the /profile endpoint); both are wall-domain-only consumers.
    let profile_enabled = opts.profile_out.is_some() || opts.serve.is_some();
    let mut profile_total: Option<ProfileSnapshot> = None;
    let series_interval_ns = (opts.series_out.is_some() || opts.serve.is_some())
        .then(|| opts.series_interval_ms * 1_000_000);

    // The live serving plane: shared snapshot state plus the broadcast bus
    // every run's journal taps into.
    let (serve_state, serve_handle) = match bind_serve(opts.serve.as_deref()) {
        Ok(serve) => serve.unzip(),
        Err(code) => return code,
    };
    if let Some(shared) = &serve_state {
        let mut labels: Vec<String> = opts.artifacts.iter().map(|id| id.to_string()).collect();
        if opts.fleet.is_some() {
            labels.push("fleet".to_string());
        }
        shared.update_status(|s| {
            s.seed = opts.seed;
            s.speed = opts.speed.to_string();
            s.label = labels.join(",");
        });
    }

    // Wall-clock phases, reported at exit in the same `[time]` format the
    // per-artifact lines use and exported as BENCH_repro.json when
    // CSPROV_BENCH_OUT is set (single runs: median == min).
    let total_t0 = Instant::now();
    let mut timings: Vec<BenchResult> = Vec::new();
    fn phase(name: &str, secs: f64, rate_per_sec: Option<f64>) -> BenchResult {
        BenchResult {
            name: name.to_string(),
            median_ns: secs * 1e9,
            min_ns: secs * 1e9,
            rate_per_sec,
        }
    }

    let chaos_seed = opts.chaos_seed.unwrap_or(opts.seed);
    let mut chaos_reports: Vec<ChaosReport> = Vec::new();

    let main_run = needs_main.then(|| {
        eprintln!(
            "[run] simulating {:.1} h of server traffic (seed {})...",
            duration.as_secs_f64() / 3600.0,
            opts.seed
        );
        let t0 = Instant::now();
        let journal = (opts.trace_out.is_some() || serve_state.is_some()).then(Journal::new);
        if let (Some(journal), Some(shared)) = (&journal, &serve_state) {
            journal.set_tap(shared.bus().clone());
        }
        let profile = start_profile(profile_enabled, registry.as_ref());
        let (mut instruments, reporter, sampler) = instruments_for(TelemetrySpec {
            label: "main",
            horizon_ns: duration.as_nanos(),
            registry: registry.as_ref(),
            progress: opts.progress,
            journal: journal.clone(),
            series_interval_ns,
            speed: opts.speed,
            serve: serve_state.clone(),
        });
        instruments.profile = profile.clone();
        if let Some(shared) = &serve_state {
            shared.update_status(|s| {
                s.state = "running";
                s.horizon_ns = duration.as_nanos();
                s.sim_ns = 0;
            });
            shared.bus().publish(BusEvent::RunStarted {
                label: "main".into(),
                horizon_ns: duration.as_nanos(),
            });
        }
        let scenario = ScenarioConfig::scaled(opts.seed, duration);
        let run = match &opts.chaos {
            Some(spec) => {
                eprintln!(
                    "[run] chaos profile '{}' (chaos-seed {chaos_seed})",
                    spec.name
                );
                let (run, report) = chaos::run_chaos_main(
                    spec,
                    scenario,
                    chaos_seed,
                    instruments,
                    registry.as_ref(),
                );
                chaos_reports.push(report);
                run
            }
            None => MainRun::execute_instrumented(scenario, instruments, registry.as_ref()),
        };
        if let Some(reporter) = reporter {
            reporter.finish(duration.as_nanos(), run.outcome.events_executed);
        }
        if let (Some(journal), Some(base)) = (&journal, &opts.trace_out) {
            write_journal(journal, base, "main");
        }
        if let (Some(sampler), Some(dir)) = (&sampler, &opts.series_out) {
            write_series(sampler, dir, "main", duration.as_nanos());
        }
        if let Some(profile) = &profile {
            finish_profile(
                profile,
                "main",
                opts.profile_out.as_deref(),
                journal.as_ref(),
                registry.as_ref(),
                &mut profile_total,
            );
            if let (Some(shared), Some(total)) = (&serve_state, &profile_total) {
                shared.set_profile(total.render_table());
            }
        }
        if let Some(shared) = &serve_state {
            finish_serve_run(
                shared,
                &registry,
                &sampler,
                opts.series_out.is_none(),
                duration.as_nanos(),
                run.outcome.events_executed,
                "main",
            );
        }
        let secs = t0.elapsed().as_secs_f64();
        eprintln!(
            "[run] done: {} packets in {:.1} s wall ({} events)",
            run.analysis.counts.total_packets(),
            secs,
            run.outcome.events_executed
        );
        timings.push(phase(
            "main_run",
            secs,
            Some(run.outcome.events_executed as f64 / secs.max(1e-9)),
        ));
        run
    });
    let nat_run = needs_nat.then(|| {
        eprintln!("[run] NAT experiment: one 30-minute map through the device...");
        let t0 = Instant::now();
        let nat_horizon = SimDuration::from_mins(30).as_nanos();
        let journal = (opts.trace_out.is_some() || serve_state.is_some()).then(Journal::new);
        if let (Some(journal), Some(shared)) = (&journal, &serve_state) {
            journal.set_tap(shared.bus().clone());
        }
        let profile = start_profile(profile_enabled, registry.as_ref());
        let (mut instruments, reporter, sampler) = instruments_for(TelemetrySpec {
            label: "nat",
            horizon_ns: nat_horizon,
            registry: registry.as_ref(),
            progress: opts.progress,
            journal: journal.clone(),
            series_interval_ns,
            speed: opts.speed,
            serve: serve_state.clone(),
        });
        instruments.profile = profile.clone();
        if let Some(shared) = &serve_state {
            shared.update_status(|s| {
                s.state = "running";
                s.horizon_ns = nat_horizon;
                s.sim_ns = 0;
            });
            shared.bus().publish(BusEvent::RunStarted {
                label: "nat".into(),
                horizon_ns: nat_horizon,
            });
        }
        let run = match &opts.chaos {
            Some(spec) => {
                eprintln!(
                    "[run] chaos profile '{}' (chaos-seed {chaos_seed})",
                    spec.name
                );
                let (run, report) = nat::run_nat_experiment_chaos(
                    opts.seed,
                    EngineConfig::default(),
                    spec,
                    chaos_seed,
                    instruments,
                    registry.as_ref(),
                );
                chaos_reports.push(report);
                run
            }
            None => nat::run_nat_experiment_instrumented(
                opts.seed,
                EngineConfig::default(),
                instruments,
                registry.as_ref(),
            ),
        };
        if let Some(reporter) = reporter {
            reporter.finish(nat_horizon, run.outcome.events_executed);
        }
        if let (Some(journal), Some(base)) = (&journal, &opts.trace_out) {
            write_journal(journal, base, "nat");
        }
        if let (Some(sampler), Some(dir)) = (&sampler, &opts.series_out) {
            write_series(sampler, dir, "nat", nat_horizon);
        }
        if let Some(profile) = &profile {
            finish_profile(
                profile,
                "nat",
                opts.profile_out.as_deref(),
                journal.as_ref(),
                registry.as_ref(),
                &mut profile_total,
            );
            if let (Some(shared), Some(total)) = (&serve_state, &profile_total) {
                shared.set_profile(total.render_table());
            }
        }
        if let Some(shared) = &serve_state {
            finish_serve_run(
                shared,
                &registry,
                &sampler,
                opts.series_out.is_none(),
                nat_horizon,
                run.outcome.events_executed,
                "nat",
            );
        }
        let secs = t0.elapsed().as_secs_f64();
        timings.push(phase(
            "nat_run",
            secs,
            Some(run.outcome.events_executed as f64 / secs.max(1e-9)),
        ));
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
        if let Some(shared) = &serve_state {
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
        timings.push(phase(&id.to_string(), secs, None));
    }

    if let Some(servers) = opts.fleet {
        eprintln!(
            "[run] fleet: {servers} servers x {} simulated min (seed {})...",
            opts.fleet_minutes, opts.seed
        );
        let t0 = Instant::now();
        let mut config = FleetConfig::new("fleet", opts.seed, servers, opts.fleet_minutes);
        config.speed = opts.speed;
        if let Some(attempts) = opts.fleet_retries {
            config.retry.attempts = attempts;
        }
        config.fail_plan = opts.fleet_fail.clone();
        config.profile = profile_enabled;
        // The health board behind /shards: workers beat it in-process;
        // a scanner thread folds in .hb sidecars so externally-written
        // heartbeats (other processes sharing the state dir) are seen
        // too.
        config.health = serve_state.as_ref().map(|_| health_board(servers));
        let persistence = match (&opts.fleet_state_dir, opts.fleet_resume) {
            (Some(dir), true) => fleet::FleetPersistence::resume_from(dir),
            (Some(dir), false) => fleet::FleetPersistence::checkpoint_to(dir),
            (None, _) => fleet::FleetPersistence::none(),
        };
        let driver = FleetDriver::start(&config, serve_state.as_deref());
        // Execution-plane event hook: shard completions feed the serving
        // plane and every event narrates to stderr. The canonical merge
        // happens inside the engine, so none of this affects the answer.
        let on_event = |ev: &fleet::FleetEvent<'_>| {
            narrate("[fleet]", ev);
            if let fleet::FleetEvent::ShardDone { state, .. } = ev {
                driver.shard_done(state);
            }
        };
        // Heartbeat sidecar scanner: while the fleet runs, fold any .hb
        // files in the state dir into the board and narrate fresh beats
        // onto the bus. Reads only; undecodable files are skipped.
        let scan_stop = Arc::new(AtomicBool::new(false));
        let scanner = match (&config.health, &opts.fleet_state_dir, &serve_state) {
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
                if let Some(registry) = &registry {
                    run.export_metrics(registry);
                    if let Some(board) = &config.health {
                        board.export_metrics(registry);
                    }
                }
                if let Some(snap) = &run.profile {
                    if let Some(dir) = &opts.profile_out {
                        let folded_path = format!("{dir}/fleet.folded");
                        let write = std::fs::create_dir_all(dir)
                            .and_then(|_| std::fs::write(&folded_path, snap.render_folded()));
                        match write {
                            Ok(()) => eprintln!(
                                "[profile] wrote {folded_path} ({} frames)",
                                snap.entries().len()
                            ),
                            Err(e) => eprintln!("warning: could not write {folded_path}: {e}"),
                        }
                    }
                    absorb_profile(&mut profile_total, snap);
                    if let (Some(shared), Some(total)) = (&serve_state, &profile_total) {
                        shared.set_profile(total.render_table());
                    }
                }
                let journal =
                    (opts.trace_out.is_some() || serve_state.is_some()).then(Journal::new);
                if let Some(journal) = &journal {
                    if let Some(shared) = &serve_state {
                        journal.set_tap(shared.bus().clone());
                    }
                    run.emit_journal(journal);
                    if let Some(base) = &opts.trace_out {
                        write_journal(journal, base, "fleet");
                    }
                }
                driver.finish(&run);
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
                timings.push(phase(
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
    if let Some(total) = &profile_total {
        eprintln!("[profile] wall-time attribution (self-time ranked):");
        for line in total.render_table().lines() {
            eprintln!("  {line}");
        }
    }

    let total_secs = total_t0.elapsed().as_secs_f64();
    eprintln!("[time] total: {total_secs:.3} s wall");
    timings.push(phase("total", total_secs, None));
    if let Ok(dir) = std::env::var("CSPROV_BENCH_OUT") {
        if !dir.is_empty() {
            let path = std::path::Path::new(&dir).join("BENCH_repro.json");
            let json = render_bench_json("repro", &timings);
            match std::fs::write(&path, json) {
                Ok(()) => eprintln!("[bench] wrote {}", path.display()),
                Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
            }
        }
    }

    if let (Some(path), Some(registry)) = (&opts.metrics_out, &registry) {
        let mut labels: Vec<String> = opts.artifacts.iter().map(|id| id.to_string()).collect();
        if opts.fleet.is_some() {
            labels.push("fleet".to_string());
        }
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
    if let (Some(shared), Some(registry)) = (&serve_state, &registry) {
        shared.export_metrics(registry);
        shared.set_metrics(registry.render_prometheus());
    }
    close_serve(serve_state.as_deref(), serve_handle, opts.serve_linger_secs);
    ExitCode::SUCCESS
}
