//! `fleet-resume`: a checkpointed fleet resumed from a directory that
//! already holds half of its shards, then the provisioning report.
//!
//! The only parallel workload and the only one that touches disk: the
//! resume scan decodes the checkpointed half, the work-stealing pool
//! simulates and atomically checkpoints the other half, and the merged
//! facility is sized. Per-shard set-up and the slowest shard set its time.

use crate::host::SchedStat;
use crate::main_trace;
use crate::metrics::Metrics;
use crate::trace::{Layer, Totals, Tracer, WorldCounts};
use crate::{expect, median, ratio, Checks, Round, TracedRound, Workload};
use csprov::fleet::{
    persist, run_fleet_full, FleetConfig, FleetCoverage, FleetEvent, FleetMerger, FleetPersistence,
    FleetRun, ProvisioningReport, ShardState,
};
use csprov::work_steal;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// Shards in the fleet.
pub const SERVERS: usize = 64;

/// Simulated minutes per shard.
pub const MINUTES: u64 = 4;

/// The report as `repro --fleet` prints it.
pub fn render(report: &ProvisioningReport) -> String {
    format!("{}\n{}", report.render().render(), report.sizing_line())
}

/// The shards whose checkpoints seed the directory before every round:
/// the even half.
pub fn seeded(shard: usize) -> bool {
    shard % 2 == 0
}

/// Scheduler times of the pool's threads and the resume-scan end, gathered
/// from `FleetEvent`s as they fire.
#[derive(Default)]
struct Observed {
    /// Latest schedstat reading per worker thread.
    threads: HashMap<ThreadId, SchedStat>,
    /// When the last checkpoint-loaded shard was handed over.
    resume_done: Option<Instant>,
    /// Tap packets of the shards simulated in this round.
    simulated_packets: u64,
}

/// The `fleet-resume` workload.
pub struct FleetResume {
    config: FleetConfig,
    dir: PathBuf,
    checkpoints: Vec<(PathBuf, Vec<u8>)>,
    reference: Option<String>,
    coverage: Option<FleetCoverage>,
    /// Tap packets of the simulated half, as the first round counted them.
    simulated_packets: Option<u64>,
    /// The world counters of the first traced round.
    traced_world: Option<WorldCounts>,
}

impl FleetResume {
    /// A fleet of `servers` × `minutes` seeded by `seed`, run in `dir`.
    pub fn new(seed: u64, servers: usize, minutes: u64, dir: &Path) -> Self {
        FleetResume {
            config: FleetConfig::new("bench", seed, servers, minutes),
            dir: dir.to_path_buf(),
            checkpoints: Vec::new(),
            reference: None,
            coverage: None,
            simulated_packets: None,
            traced_world: None,
        }
    }

    fn round_dir(&self) -> PathBuf {
        self.dir.join("state")
    }

    /// Empties the round directory and writes the seeded half back.
    fn reseed(&self) -> std::io::Result<PathBuf> {
        let dir = self.round_dir();
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        for (name, bytes) in &self.checkpoints {
            std::fs::write(dir.join(name), bytes)?;
        }
        Ok(dir)
    }

    fn seeded_count(&self) -> usize {
        (0..self.config.servers).filter(|&s| seeded(s)).count()
    }

    /// Checks a finished run against the fresh reference; every shard of a
    /// broken run counts as failed.
    fn check_run(&mut self, checks: &mut Checks, run: &FleetRun, report: String, packets: u64) {
        let c = &self.config;
        let p = &run.persist;
        let cov = &run.report.coverage;
        let resumed = self.seeded_count() as u64;
        let mut problems = Vec::new();
        let first = *self.simulated_packets.get_or_insert(packets);
        expect(&mut problems, packets == first, || {
            format!("the simulated half passed {packets} tap packets, not {first}")
        });
        expect(
            &mut problems,
            self.reference.as_deref() == Some(report.as_str()),
            || "the resumed report differs from a fresh run of the same fleet".to_string(),
        );
        expect(
            &mut problems,
            cov.merged == c.servers && cov.lost.is_empty(),
            || {
                format!(
                    "coverage {}/{} with lost {:?}",
                    cov.merged, c.servers, cov.lost
                )
            },
        );
        expect(
            &mut problems,
            p.resumed == resumed
                && p.checkpoints_written == c.servers as u64 - resumed
                && p.checkpoint_failures == 0
                && p.invalid_checkpoints == 0,
            || format!("persistence {p:?}"),
        );
        self.coverage = Some(cov.clone());
        // The report, coverage and persistence counters are fleet-wide, so
        // a broken check fails every shard of the round.
        checks.ops(c.servers as u64, problems);
    }
}

impl Workload for FleetResume {
    fn absent_layers(&self) -> &'static [&'static str] {
        &["router."]
    }

    /// A fresh, fully checkpointed run: its report is the reference every
    /// resumed round must reproduce byte for byte, and its checkpoints of
    /// the seeded half are kept to seed each round's directory.
    fn warm_up(&mut self, checks: &mut Checks) {
        let fresh = self.dir.join("fresh");
        let _ = std::fs::remove_dir_all(&fresh);
        match run_fleet_full(&self.config, &FleetPersistence::checkpoint_to(&fresh), None) {
            Ok(run) => {
                self.reference = Some(render(&run.report));
                self.checkpoints = (0..self.config.servers)
                    .filter(|&s| seeded(s))
                    .filter_map(|s| {
                        let name = persist::shard_file_name(s);
                        std::fs::read(fresh.join(&name))
                            .ok()
                            .map(|b| (name.into(), b))
                    })
                    .collect();
                if self.checkpoints.len() != self.seeded_count() {
                    checks.ops(1, vec!["the fresh run left too few checkpoints".into()]);
                }
            }
            Err(e) => checks.ops(
                self.config.servers as u64,
                vec![format!("fresh fleet: {e}")],
            ),
        }
        let _ = std::fs::remove_dir_all(&fresh);
        self.round(checks);
    }

    fn round(&mut self, checks: &mut Checks) -> Round {
        let dir = match self.reseed() {
            Ok(dir) => dir,
            Err(e) => {
                checks.ops(self.config.servers as u64, vec![format!("seeding {e}")]);
                return Round::default();
            }
        };
        let observed = Mutex::new(Observed::default());
        let on_event = |ev: &FleetEvent<'_>| {
            let mut o = observed.lock().expect("observer lock");
            match ev {
                FleetEvent::ShardDone {
                    from_checkpoint: true,
                    ..
                } => o.resume_done = Some(Instant::now()),
                FleetEvent::ShardDone { state, .. } => {
                    o.simulated_packets += state.counts.total_packets();
                    o.threads
                        .insert(std::thread::current().id(), SchedStat::thread());
                }
                _ => {}
            }
        };
        let start = Instant::now();
        let result = run_fleet_full(
            &self.config,
            &FleetPersistence::resume_from(&dir),
            Some(&on_event),
        );
        let report = result.as_ref().map(|run| render(&run.report));
        let wall_s = start.elapsed().as_secs_f64();
        let o = observed.into_inner().expect("observer lock");
        match (&result, report) {
            (Ok(run), Ok(report)) => self.check_run(checks, run, report, o.simulated_packets),
            (Err(e), _) | (_, Err(e)) => {
                checks.ops(self.config.servers as u64, vec![format!("fleet: {e}")])
            }
        }
        let spawned = o
            .threads
            .values()
            .fold(SchedStat::default(), |a, s| SchedStat {
                cpu_ns: a.cpu_ns + s.cpu_ns,
                wait_ns: a.wait_ns + s.wait_ns,
            });
        Round {
            wall_s,
            packets: o.simulated_packets,
            setup_s: o
                .resume_done
                .map(|t| t.duration_since(start).as_secs_f64())
                .into_iter()
                .collect(),
            spawned,
        }
    }

    fn traced_round(&mut self, checks: &mut Checks) -> TracedRound {
        let dir = match self.reseed() {
            Ok(dir) => dir,
            Err(e) => {
                checks.ops(self.config.servers as u64, vec![format!("seeding {e}")]);
                return TracedRound::default();
            }
        };
        let start = Instant::now();
        let traced = run_traced(&self.config, &dir);
        let wall_s = start.elapsed().as_secs_f64();
        let mut problems = Vec::new();
        match &traced.report {
            Ok(report) => expect(
                &mut problems,
                self.reference.as_deref() == Some(report.as_str()),
                || "the traced report differs from a fresh run of the same fleet".to_string(),
            ),
            Err(e) => problems.push(e.clone()),
        }
        let (reads, writes) = (traced.reads, traced.writes());
        let resumed = self.seeded_count();
        expect(
            &mut problems,
            reads == resumed && writes == self.config.servers - resumed && traced.rejected == 0,
            || {
                format!(
                    "traced persistence: {reads} read, {writes} written, {} rejected",
                    traced.rejected
                )
            },
        );
        let world = traced.world();
        expect(
            &mut problems,
            Some(world.tap.records()) == self.simulated_packets,
            || {
                format!(
                    "the traced tap saw {} packets, the untraced rounds {:?}",
                    world.tap.records(),
                    self.simulated_packets
                )
            },
        );
        let first = *self.traced_world.get_or_insert(world);
        expect(&mut problems, world == first, || {
            format!("traced counters {world:?} differ from the first traced round's")
        });
        checks.ops(self.config.servers as u64, problems);
        let read_bytes: usize = self.checkpoints.iter().map(|(_, b)| b.len()).sum();
        let coverage = self
            .coverage
            .clone()
            .unwrap_or_else(|| FleetCoverage::full(0));
        traced.metrics(wall_s, read_bytes as u64, &coverage)
    }
}

/// One shard simulated on a pool thread, with its spans.
struct ShardTrace {
    state: ShardState,
    thread: ThreadId,
    start: Instant,
    end: Instant,
    totals: Totals,
    world: WorldCounts,
    write: Result<(Duration, u64), String>,
}

/// Everything a traced fleet round measured.
struct TracedFleet {
    report: Result<String, String>,
    coordinator: Totals,
    shards: Vec<ShardTrace>,
    pool_s: f64,
    reads: usize,
    rejected: usize,
}

/// `run_fleet_full` rebuilt from its public parts on `work_steal`, with
/// timers around the resume scan, each shard's world, tap, reduction and
/// checkpoint write, the merge, the report and its rendering.
fn run_traced(config: &FleetConfig, dir: &Path) -> TracedFleet {
    let tracer = Tracer::new();
    let scan = tracer.span(Layer::PersistRead, 0, || {
        persist::load_checkpoints(dir, config)
    });
    let (loaded, rejected) = match scan {
        Ok(scan) => (scan.states, scan.rejected.len()),
        Err(e) => {
            return TracedFleet {
                report: Err(format!("resume scan: {e}")),
                coordinator: tracer.totals(),
                shards: Vec::new(),
                pool_s: 0.0,
                reads: 0,
                rejected: 0,
            }
        }
    };
    let todo: Vec<usize> = (0..config.servers)
        .filter(|s| !loaded.contains_key(s))
        .collect();
    let pool_start = Instant::now();
    let shards = work_steal(&todo, |_, &shard| trace_shard(config, shard, dir));
    let mut out = TracedFleet {
        report: Err(String::new()),
        coordinator: Totals::default(),
        shards: Vec::new(),
        pool_s: pool_start.elapsed().as_secs_f64(),
        reads: loaded.len(),
        rejected,
    };
    let shards = match shards {
        Ok(shards) => shards,
        Err(p) => {
            out.report = Err(format!(
                "{} shards panicked: {}",
                p.count(),
                p.first().message
            ));
            out.coordinator = tracer.totals();
            return out;
        }
    };
    let merged = tracer.span(Layer::Merge, 0, || {
        let mut merger = FleetMerger::new();
        for state in loaded.values().chain(shards.iter().map(|s| &s.state)) {
            merger.push(state)?;
        }
        merger.finish()
    });
    out.report = merged
        .and_then(|(facility, stats)| {
            tracer.span(Layer::Report, 0, || {
                ProvisioningReport::build(
                    config,
                    &facility,
                    &stats,
                    FleetCoverage::full(config.servers),
                )
            })
        })
        .map(|report| tracer.span(Layer::Render, 0, || render(&report)))
        .map_err(|e| e.to_string());
    out.coordinator = tracer.totals();
    out.shards = shards;
    out
}

/// One shard as `run_fleet_full`'s worker runs it, with spans.
fn trace_shard(config: &FleetConfig, shard: usize, dir: &Path) -> ShardTrace {
    let start = Instant::now();
    let tracer = Tracer::new();
    let (run, world) = main_trace::execute_traced(config.scenario(shard), &tracer);
    let state = tracer.span(Layer::Reduce, 0, || ShardState::from_run(shard, run));
    let write_start = Instant::now();
    let write = tracer
        .span(Layer::PersistWrite, 1, || {
            persist::write_checkpoint_atomic(dir, &state)
        })
        .map_err(|e| e.to_string())
        .and_then(|path| {
            let took = write_start.elapsed();
            std::fs::metadata(path)
                .map(|m| (took, m.len()))
                .map_err(|e| e.to_string())
        });
    ShardTrace {
        state,
        thread: std::thread::current().id(),
        start,
        end: Instant::now(),
        totals: tracer.totals(),
        world,
        write,
    }
}

impl TracedFleet {
    /// Checkpoints written.
    fn writes(&self) -> usize {
        self.shards.iter().filter(|s| s.write.is_ok()).count()
    }

    /// The world counters summed over the simulated shards.
    fn world(&self) -> WorldCounts {
        let mut world = WorldCounts::default();
        for s in &self.shards {
            world.absorb(&s.world);
        }
        world
    }

    fn metrics(&self, wall_s: f64, read_bytes: u64, coverage: &FleetCoverage) -> TracedRound {
        let mut totals = self.coordinator;
        let mut busy: HashMap<ThreadId, (f64, Instant)> = HashMap::new();
        let mut shard_s = Vec::new();
        let mut write_ms = Vec::new();
        let mut write_bytes = 0u64;
        for s in &self.shards {
            totals.absorb(&s.totals);
            let took = s.end.duration_since(s.start).as_secs_f64();
            shard_s.push(took);
            let b = busy.entry(s.thread).or_insert((0.0, s.end));
            b.0 += took;
            b.1 = b.1.max(s.end);
            if let Ok((d, bytes)) = &s.write {
                write_ms.push(d.as_secs_f64() * 1e3);
                write_bytes += bytes;
            }
        }
        let loads: Vec<f64> = busy.values().map(|b| b.0).collect();
        let mean_load = loads.iter().sum::<f64>() / loads.len().max(1) as f64;
        let max_load = loads.iter().copied().fold(0.0, f64::max);
        let last_end = busy.values().map(|b| b.1).max();
        let tail_idle: f64 = match last_end {
            Some(last) => busy
                .values()
                .map(|b| last.duration_since(b.1).as_secs_f64())
                .sum(),
            None => 0.0,
        };
        let world = self.world();
        let mut m = Metrics::default();
        world.report(&mut m, &totals, world.tap.records());
        m.set("fleet.shards_run", self.shards.len() as f64);
        m.set("fleet.shards_resumed", self.reads as f64);
        m.set("fleet.shard_s_p50", median(&shard_s));
        m.set(
            "fleet.shard_s_max",
            shard_s.iter().copied().fold(0.0, f64::max),
        );
        m.set(
            "fleet.thread_busy_imbalance",
            ratio(max_load, mean_load) - 1.0,
        );
        m.set("fleet.tail_idle_s", tail_idle);
        m.set("fleet.merge_s", totals.self_s(Layer::Merge));
        m.set("fleet.report_s", totals.self_s(Layer::Report));
        m.set("fleet.shards_lost", coverage.lost.len() as f64);
        m.set("fleet.retries", coverage.retries as f64);
        m.set("persist.writes", write_ms.len() as f64);
        m.set("persist.write_bytes", write_bytes as f64);
        m.set("persist.write_ms_p50", median(&write_ms));
        m.set(
            "persist.write_ms_max",
            write_ms.iter().copied().fold(0.0, f64::max),
        );
        m.set(
            "persist.write_failures",
            (self.shards.len() - self.writes()) as f64,
        );
        m.set("persist.reads", self.reads as f64);
        m.set("persist.read_bytes", read_bytes as f64);
        m.set("persist.read_s", totals.self_s(Layer::PersistRead));
        m.set("persist.rejected", self.rejected as f64);
        // The coordinator's spans run outside the pool, the shards' inside
        // it, one per pool thread.
        let threads = busy.len() as f64;
        TracedRound {
            wall_s,
            busy_capacity_s: wall_s - self.pool_s + threads * self.pool_s,
            self_s_sum: totals.self_s_sum(),
            metrics: m,
        }
    }
}
