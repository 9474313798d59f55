//! Coordinator/worker fleet execution across OS processes.
//!
//! The in-process fleet (`run_fleet_full`) shards a facility across the
//! work-stealing pool of one process. This module stretches the same
//! contract across *processes, and therefore machines*: a coordinator
//! plans contiguous shard ranges, each worker — spawned as a child or
//! launched by hand against a shared state directory — executes its range
//! with [`run_worker_range`] (the exact shard executor the in-process
//! fleet uses, checkpoints and heartbeat sidecars included), and the
//! coordinator folds each completed `csprov-state/1` checkpoint into one
//! [`FleetMerger`](super::FleetMerger) as it collects it, settling the
//! same byte-identical [`ProvisioningReport`](super::ProvisioningReport).
//!
//! The protocol is deliberately *files, not sockets*:
//! - a shard is **done** when `shard-NNNNN.state` exists and validates
//!   against the fleet config (derived seed, duration) — the atomic
//!   write-tmp/fsync/rename discipline means the file is either whole or
//!   absent. A file that fails validation is read again when its range's
//!   worker exits, since that worker's resume scan recomputes the shard
//!   and replaces the file;
//! - a shard's **liveness** is its `shard-NNNNN.hb` sidecar. The record
//!   inside carries the *writer's* clocks (`unix_ms` for ordering,
//!   `wall_ms` for context); the coordinator judges freshness only by the
//!   sidecar's observed mtime age on its own clock, so worker clock skew
//!   can neither forge nor mask a stall;
//! - a **dead worker** is an exited process with uncollected shards. The
//!   coordinator deletes the dead worker's stale sidecars, resets those
//!   board slots, and re-dispatches the same range under the fleet's
//!   [`RetryPolicy`](super::RetryPolicy); the replacement worker
//!   resume-scans the directory and recomputes only what is missing, so a
//!   re-dispatched range converges to the same bytes.
//!
//! Determinism contract: shard seeds derive from the facility seed and
//! shard index alone, so the partition into ranges, the number of
//! workers, worker deaths, and re-dispatches change *nothing* about any
//! shard's traffic. The fold is byte-identical for any collection order
//! (superposition is commutative and associative), so `coordinate` over N
//! workers — including after a kill — renders the same report as one
//! in-process `--fleet` run.

use std::collections::BTreeSet;
use std::fmt;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use super::persist;
use super::{
    FleetConfig, FleetError, FleetEvent, FleetMerger, FleetPersistence, FleetRun, Losses,
    PersistSummary, ShardHealthBoard, ShardState,
};

/// A contiguous, half-open range of shard indices assigned to one worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRange {
    /// First shard in the range.
    pub start: usize,
    /// One past the last shard in the range.
    pub end: usize,
}

impl ShardRange {
    /// Number of shards in the range.
    pub fn len(&self) -> usize {
        self.end.saturating_sub(self.start)
    }

    /// True when the range holds no shards.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }

    /// The shard indices in the range.
    pub fn shards(&self) -> std::ops::Range<usize> {
        self.start..self.end
    }

    /// Parses the CLI form `LO:HI` (half-open, `HI > LO`).
    pub fn parse(s: &str) -> Option<ShardRange> {
        let (lo, hi) = s.split_once(':')?;
        let start: usize = lo.parse().ok()?;
        let end: usize = hi.parse().ok()?;
        (end > start).then_some(ShardRange { start, end })
    }
}

impl fmt::Display for ShardRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.start, self.end)
    }
}

/// Splits `servers` shards into at most `workers` contiguous ranges of
/// near-equal size (sizes differ by at most one; earlier ranges take the
/// remainder). Deterministic, order-preserving, never empty-ranged.
pub fn plan_ranges(servers: usize, workers: usize) -> Vec<ShardRange> {
    if servers == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, servers);
    let base = servers / workers;
    let extra = servers % workers;
    let mut ranges = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let len = base + usize::from(w < extra);
        ranges.push(ShardRange {
            start,
            end: start + len,
        });
        start += len;
    }
    ranges
}

/// What one worker's range execution accomplished.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerRangeSummary {
    /// Shards completed this run (checkpoint written), ascending.
    pub done: Vec<usize>,
    /// Shards loaded from valid pre-existing checkpoints, ascending.
    pub resumed: Vec<usize>,
    /// Shards lost after exhausting per-shard retries, ascending.
    pub lost: Vec<usize>,
    /// Failed attempts that were retried across the range.
    pub retries: u64,
    /// Simulated backoff charged for those retries.
    pub backoff_ns: u64,
}

/// Executes one assigned shard range against a shared state directory —
/// the worker half of the coordinator/worker protocol, and exactly what
/// `repro fleet work` runs in a child process.
///
/// The range always *resume-scans* the directory first: shards that
/// already have a valid checkpoint (a previous worker finished them
/// before dying, or the range was partially executed) are skipped, so a
/// re-dispatched range recomputes only what is missing, and only files
/// of the range are restored or reported as rejected. Remaining shards
/// run across the local work-stealing pool through the same retrying,
/// checkpointing, sidecar-writing executor as the in-process fleet. A
/// worker with lost shards still returns `Ok` (and exits cleanly): loss
/// after exhausted retries is the coordinator's degraded-coverage
/// business, not a worker crash.
pub fn run_worker_range(
    config: &FleetConfig,
    range: ShardRange,
    state_dir: &Path,
    on_event: Option<&(dyn Fn(&FleetEvent<'_>) + Sync)>,
) -> Result<WorkerRangeSummary, FleetError> {
    if config.servers == 0 {
        return Err(FleetError::NoServers);
    }
    if range.is_empty() || range.end > config.servers {
        return Err(FleetError::StateDir(format!(
            "shard range {range} is empty or exceeds the {}-shard fleet",
            config.servers
        )));
    }
    // Workers always publish heartbeat sidecars: the coordinator (possibly
    // on another machine) has no other liveness channel. Reuse a caller's
    // board when present, otherwise attach a private one.
    let mut config = config.clone();
    if config.health.is_none() {
        config.health = Some(Arc::new(ShardHealthBoard::new(
            config.servers,
            Duration::from_secs(3),
        )));
    }
    let executed = super::execute_shards(
        &config,
        range.shards(),
        &FleetPersistence::resume_from(state_dir),
        on_event,
    )?;
    let mut summary = WorkerRangeSummary {
        resumed: executed.loaded.keys().copied().collect(),
        ..WorkerRangeSummary::default()
    };
    for outcome in &executed.outcomes {
        summary.retries += u64::from(outcome.retries);
        summary.backoff_ns = summary.backoff_ns.saturating_add(outcome.backoff_ns);
        if outcome.state.is_some() {
            summary.done.push(outcome.shard);
        } else {
            summary.lost.push(outcome.shard);
        }
    }
    Ok(summary)
}

/// A handle to a launched worker the coordinator can poll without
/// blocking. Implemented over `std::process::Child` by the CLI and over
/// plain threads in tests.
pub trait WorkerHandle {
    /// `None` while the worker is still running; `Some(Ok(()))` after a
    /// clean exit; `Some(Err(detail))` after a crash, kill, or non-zero
    /// exit. Called repeatedly until it returns `Some`.
    fn try_status(&mut self) -> Option<Result<(), String>>;
}

/// Coordinator knobs.
#[derive(Debug, Clone)]
pub struct CoordOptions {
    /// Worker processes to plan ranges for (clamped to the shard count).
    pub workers: usize,
    /// Poll-loop sleep between scans.
    pub poll_interval: Duration,
}

impl Default for CoordOptions {
    fn default() -> Self {
        CoordOptions {
            workers: 2,
            poll_interval: Duration::from_millis(50),
        }
    }
}

/// Coordinator-plane events, narrated to the observer as they happen.
#[derive(Debug)]
pub enum CoordEvent<'a> {
    /// A worker was launched (or relaunched) for a range.
    WorkerLaunched {
        /// Worker ordinal (stable across re-dispatches of its range).
        worker: usize,
        /// The assigned range.
        range: ShardRange,
        /// Launch attempt for this range (1-based).
        attempt: u32,
    },
    /// A worker process exited.
    WorkerExited {
        /// Worker ordinal.
        worker: usize,
        /// Its range.
        range: ShardRange,
        /// True for a clean exit.
        clean: bool,
        /// Exit detail (signal / status) for unclean exits.
        detail: &'a str,
    },
    /// A dead worker's unfinished range is being re-dispatched.
    RangeRedispatched {
        /// Worker ordinal.
        worker: usize,
        /// The range being retried.
        range: ShardRange,
        /// The new launch attempt (1-based).
        attempt: u32,
    },
    /// A range (or its remainder) was abandoned.
    RangeLost {
        /// Worker ordinal.
        worker: usize,
        /// The affected range.
        range: ShardRange,
        /// Shards abandoned, ascending.
        shards: &'a [usize],
        /// Why.
        message: &'a str,
    },
    /// A shard's checkpoint was validated and folded into the merge.
    ShardCollected {
        /// Shard index.
        shard: usize,
        /// The decoded, validated state (borrowed; dropped after the fold
        /// unless an observer clones it for interim reporting).
        state: &'a ShardState,
    },
}

struct Dispatch<H> {
    worker: usize,
    range: ShardRange,
    attempt: u32,
    handle: Option<H>,
    settled: bool,
}

/// Runs a fleet as a coordinator over worker processes sharing
/// `state_dir`: plans ranges, launches workers via `launch`, tracks their
/// heartbeat sidecars and exits, re-dispatches ranges of dead workers
/// under the fleet's [`RetryPolicy`](super::RetryPolicy) (attempts per
/// range, including the first launch), and folds each checkpoint into one
/// [`FleetMerger`] as it collects it, settling the same byte-identical
/// report the in-process fleet renders.
///
/// `launch(worker, range)` starts one worker executing `range` against
/// `state_dir` and returns a pollable handle — a spawned `repro fleet
/// work` child in the CLI, a thread in tests. The coordinator never
/// executes shards itself; `config.health`, when present, is fed purely
/// from observed sidecars, which is what lets a serving plane watch a
/// fleet this process is not executing.
pub fn coordinate<H, L>(
    config: &FleetConfig,
    state_dir: &Path,
    opts: &CoordOptions,
    mut launch: L,
    on_event: Option<&dyn Fn(&CoordEvent<'_>)>,
) -> Result<FleetRun, FleetError>
where
    H: WorkerHandle,
    L: FnMut(usize, ShardRange) -> Result<H, String>,
{
    if config.servers == 0 {
        return Err(FleetError::NoServers);
    }
    std::fs::create_dir_all(state_dir)
        .map_err(|e| FleetError::StateDir(format!("{}: {e}", state_dir.display())))?;
    let emit = |ev: CoordEvent<'_>| {
        if let Some(f) = on_event {
            f(&ev);
        }
    };
    let board = config.health.as_deref();
    let attempts = config.retry.attempts.max(1);
    let horizon_ns = csprov_sim::SimDuration::from_mins(config.minutes).as_nanos();

    let mut merger = FleetMerger::new();
    let mut fold_error: Option<FleetError> = None;
    let mut collected: BTreeSet<usize> = BTreeSet::new();
    let mut rejected: BTreeSet<usize> = BTreeSet::new();
    let mut lost: BTreeSet<usize> = BTreeSet::new();
    let mut first_loss: Option<String> = None;

    // One targeted collection pass: validate any newly-appeared checkpoint
    // for shards still outstanding and fold it at once, so each file is
    // read and decoded once. Atomic checkpoint writes mean a file is whole
    // the moment it is visible; validation failures are remembered until
    // the range's worker exits, so a foreign file is not re-decoded every
    // poll. A fold error is kept, not returned: workers may still be
    // running, so it surfaces once the poll loop ends.
    let mut collect = |range: ShardRange,
                       collected: &mut BTreeSet<usize>,
                       rejected: &mut BTreeSet<usize>,
                       lost: &BTreeSet<usize>| {
        for shard in range.shards() {
            if collected.contains(&shard) || rejected.contains(&shard) || lost.contains(&shard) {
                continue;
            }
            let path = state_dir.join(persist::shard_file_name(shard));
            if !path.exists() {
                continue;
            }
            match persist::read_checkpoint(&path, shard, config) {
                Ok(state) => {
                    if let Err(e) = merger.push(&state) {
                        fold_error.get_or_insert(e);
                    }
                    if let Some(b) = board {
                        b.done(shard, horizon_ns);
                    }
                    emit(CoordEvent::ShardCollected {
                        shard,
                        state: &state,
                    });
                    collected.insert(shard);
                }
                Err(_) => {
                    rejected.insert(shard);
                }
            }
        }
    };

    let mut dispatches: Vec<Dispatch<H>> = plan_ranges(config.servers, opts.workers)
        .into_iter()
        .enumerate()
        .map(|(worker, range)| Dispatch {
            worker,
            range,
            attempt: 0,
            handle: None,
            settled: false,
        })
        .collect();

    // Launches (or relaunches) a dispatch, consuming range attempts on
    // launch failure until one sticks or the budget is gone.
    fn launch_dispatch<H, L>(
        d: &mut Dispatch<H>,
        launch: &mut L,
        attempts: u32,
        emit: &impl Fn(CoordEvent<'_>),
    ) -> Result<(), String>
    where
        L: FnMut(usize, ShardRange) -> Result<H, String>,
    {
        let mut last = String::new();
        while d.attempt < attempts {
            d.attempt += 1;
            emit(CoordEvent::WorkerLaunched {
                worker: d.worker,
                range: d.range,
                attempt: d.attempt,
            });
            match launch(d.worker, d.range) {
                Ok(handle) => {
                    d.handle = Some(handle);
                    return Ok(());
                }
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    let mark_lost = |shards: &[usize],
                     d: &Dispatch<H>,
                     message: &str,
                     lost: &mut BTreeSet<usize>,
                     first_loss: &mut Option<String>| {
        if shards.is_empty() {
            return;
        }
        for &shard in shards {
            lost.insert(shard);
            if let Some(b) = board {
                b.lost(shard);
            }
        }
        if first_loss.is_none() {
            *first_loss = Some(message.to_string());
        }
        emit(CoordEvent::RangeLost {
            worker: d.worker,
            range: d.range,
            shards,
            message,
        });
    };

    for d in &mut dispatches {
        if let Err(message) = launch_dispatch(d, &mut launch, attempts, &emit) {
            let shards: Vec<usize> = d.range.shards().collect();
            mark_lost(&shards, d, &message, &mut lost, &mut first_loss);
            d.settled = true;
        }
    }

    loop {
        // 1. Liveness: apply every observed sidecar to the board, aging by
        //    file mtime on *this* machine's clock.
        if let Some(b) = board {
            for o in persist::scan_heartbeats_observed(state_dir) {
                b.apply_observed(&o.rec, o.age_ms);
            }
        }
        // 2. Collection: validate newly-appeared checkpoints.
        for d in &dispatches {
            collect(d.range, &mut collected, &mut rejected, &lost);
        }
        // 3. Worker exits: settle, re-dispatch, or abandon.
        for d in &mut dispatches {
            let Some(handle) = d.handle.as_mut() else {
                continue;
            };
            let Some(status) = handle.try_status() else {
                continue;
            };
            d.handle = None;
            let (clean, detail) = match &status {
                Ok(()) => (true, String::new()),
                Err(e) => (false, e.clone()),
            };
            emit(CoordEvent::WorkerExited {
                worker: d.worker,
                range: d.range,
                clean,
                detail: &detail,
            });
            // The worker's final checkpoints landed before it exited, and
            // its resume scan recomputed and replaced any file of the range
            // this loop rejected: forget those rejections and collect once
            // more before judging the range incomplete.
            rejected.retain(|s| !d.range.shards().contains(s));
            collect(d.range, &mut collected, &mut rejected, &lost);
            let incomplete: Vec<usize> = d
                .range
                .shards()
                .filter(|s| !collected.contains(s) && !lost.contains(s))
                .collect();
            if incomplete.is_empty() {
                d.settled = true;
                continue;
            }
            if clean {
                // A clean exit with uncollected shards means the worker
                // exhausted per-shard retries (LOST sidecars tell the
                // story); re-dispatching would fail the same way.
                let message = format!("worker {} exited with lost shards", d.worker);
                mark_lost(&incomplete, d, &message, &mut lost, &mut first_loss);
                d.settled = true;
                continue;
            }
            if d.attempt < attempts {
                // Clear the dead worker's stale sidecars and board slots
                // so the replacement's records are not outranked by the
                // corpse's, then re-dispatch the same range: the resume
                // scan makes re-execution incremental.
                for &shard in &incomplete {
                    let _ =
                        std::fs::remove_file(state_dir.join(persist::heartbeat_file_name(shard)));
                    if let Some(b) = board {
                        b.reset_for_redispatch(shard);
                    }
                }
                emit(CoordEvent::RangeRedispatched {
                    worker: d.worker,
                    range: d.range,
                    attempt: d.attempt + 1,
                });
                if let Err(message) = launch_dispatch(d, &mut launch, attempts, &emit) {
                    mark_lost(&incomplete, d, &message, &mut lost, &mut first_loss);
                    d.settled = true;
                }
            } else {
                let message = format!(
                    "worker {} died and the range is out of attempts: {detail}",
                    d.worker
                );
                mark_lost(&incomplete, d, &message, &mut lost, &mut first_loss);
                d.settled = true;
            }
        }
        if dispatches.iter().all(|d| d.settled && d.handle.is_none()) {
            break;
        }
        std::thread::sleep(opts.poll_interval);
    }

    if let Some(e) = fold_error {
        return Err(e);
    }

    // Retry accounting travels in the final sidecar records (a DONE/LOST
    // record carries the retries its run consumed); the backoff those
    // retries charged is a pure function of the policy. Coordinator-level
    // range re-dispatches are deliberately *not* counted here — they are
    // an execution-plane recovery, not a shard-plane retry, and counting
    // them would break report byte-identity with an in-process run.
    let mut retries = 0u64;
    let mut backoff_ns = 0u64;
    for rec in persist::scan_heartbeats(state_dir) {
        let shard = rec.shard as usize;
        if !collected.contains(&shard) && !lost.contains(&shard) {
            continue;
        }
        retries += rec.retries;
        for attempt in 1..=u32::try_from(rec.retries).unwrap_or(u32::MAX) {
            backoff_ns = backoff_ns.saturating_add(config.retry.backoff_for(attempt));
        }
    }

    let losses = Losses {
        lost: lost.into_iter().collect(),
        first_message: first_loss,
        retries,
        backoff_ns,
    };
    let persist_summary = PersistSummary {
        checkpoints_written: collected.len() as u64,
        ..PersistSummary::default()
    };
    super::settle(config, merger, losses, persist_summary, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_partition_the_fleet_contiguously() {
        for (servers, workers) in [(10, 3), (7, 7), (5, 9), (128, 16), (1, 1), (3, 2)] {
            let ranges = plan_ranges(servers, workers);
            assert_eq!(ranges.len(), workers.min(servers));
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges.last().unwrap().end, servers);
            for pair in ranges.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "ranges must be contiguous");
            }
            let sizes: Vec<usize> = ranges.iter().map(ShardRange::len).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "near-equal split: {sizes:?}");
            assert!(*min >= 1);
        }
        assert!(plan_ranges(0, 4).is_empty());
    }

    #[test]
    fn range_parses_its_own_display() {
        let r = ShardRange { start: 3, end: 9 };
        assert_eq!(ShardRange::parse(&r.to_string()), Some(r));
        assert_eq!(ShardRange::parse("5:5"), None);
        assert_eq!(ShardRange::parse("9:3"), None);
        assert_eq!(ShardRange::parse("x:3"), None);
        assert_eq!(ShardRange::parse("7"), None);
    }
}
