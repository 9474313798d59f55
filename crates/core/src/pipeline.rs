//! The single-pass analysis pipeline.
//!
//! One simulation run feeds every analyzer the paper's figures and tables
//! need; [`FullAnalysis`] is the composite [`TraceSink`] wired to the
//! server tap. Everything is streaming, so the full-week 5×10⁸-packet run
//! stays within a few hundred MB (dominated by the explicitly-bounded
//! stored series).

use csprov_analysis::{FlowTable, RateSeries, SizeHistogram, VarianceTime};
use csprov_game::{Middlebox, ScenarioConfig, TraceOutcome, World, WorldInstruments};
use csprov_net::{CountingSink, Direction, PacketBatch, TraceRecord, TraceSink};
use csprov_obs::{MetricsRegistry, Profile};
use csprov_sim::{SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// Number of bins Figures 6–8 display.
pub const SHORT_SERIES_BINS: usize = 200;
/// Warm-up skipped before the Figures 6–8 windows (in seconds).
pub const SHORT_SERIES_SKIP_SECS: u64 = 60;
/// Number of 1 s bins Figure 9 displays.
pub const FIG9_BINS: usize = 18_000;

/// Every streaming analyzer the paper's artifacts need, in one sink.
pub struct FullAnalysis {
    /// Packet/byte totals (Tables II, III).
    pub counts: CountingSink,
    /// Per-minute totals (Figures 1, 2).
    pub per_minute: RateSeries,
    /// Per-minute inbound (Figure 4 a/c).
    pub per_minute_in: RateSeries,
    /// Per-minute outbound (Figure 4 b/d).
    pub per_minute_out: RateSeries,
    /// First 200 bins at 10 ms, total (Figure 6).
    pub ms10_total: RateSeries,
    /// First 200 bins at 10 ms, inbound (Figure 7a).
    pub ms10_in: RateSeries,
    /// First 200 bins at 10 ms, outbound (Figure 7b).
    pub ms10_out: RateSeries,
    /// First 200 bins at 50 ms (Figure 8).
    pub ms50_total: RateSeries,
    /// First 18,000 bins at 1 s (Figure 9).
    pub sec1_total: RateSeries,
    /// 30-minute bins, first 200 (Figure 10).
    pub min30_total: RateSeries,
    /// Variance-time accumulators, m = 10 ms base (Figure 5).
    pub variance_time: VarianceTime,
    /// Packet-size distributions (Figures 12, 13, Table III cross-check).
    pub sizes: SizeHistogram,
    /// Per-flow accounting (Figure 11).
    pub flows: FlowTable,
}

impl FullAnalysis {
    /// Creates the composite for a trace of the given expected duration.
    pub fn new(duration: SimDuration) -> Self {
        let minute = SimDuration::from_secs(60);
        let ms10 = SimDuration::from_millis(10);
        // Block ladder up to 1/8 of the trace (beyond that too few blocks
        // contribute a meaningful variance).
        let max_block = (duration.as_nanos() / ms10.as_nanos() / 8).max(10);
        FullAnalysis {
            counts: CountingSink::new(),
            per_minute: RateSeries::new(minute),
            per_minute_in: RateSeries::with_options(minute, Some(Direction::Inbound), None),
            per_minute_out: RateSeries::with_options(minute, Some(Direction::Outbound), None),
            ms10_total: RateSeries::with_window(
                ms10,
                None,
                SHORT_SERIES_SKIP_SECS * 100,
                Some(SHORT_SERIES_BINS),
            ),
            ms10_in: RateSeries::with_window(
                ms10,
                Some(Direction::Inbound),
                SHORT_SERIES_SKIP_SECS * 100,
                Some(SHORT_SERIES_BINS),
            ),
            ms10_out: RateSeries::with_window(
                ms10,
                Some(Direction::Outbound),
                SHORT_SERIES_SKIP_SECS * 100,
                Some(SHORT_SERIES_BINS),
            ),
            ms50_total: RateSeries::with_window(
                SimDuration::from_millis(50),
                None,
                SHORT_SERIES_SKIP_SECS * 20,
                Some(SHORT_SERIES_BINS),
            ),
            sec1_total: RateSeries::with_options(SimDuration::from_secs(1), None, Some(FIG9_BINS)),
            min30_total: RateSeries::with_options(
                SimDuration::from_mins(30),
                None,
                Some(SHORT_SERIES_BINS),
            ),
            variance_time: VarianceTime::new(ms10, max_block, 8),
            sizes: SizeHistogram::new(500),
            flows: FlowTable::new(),
        }
    }

    /// Exports per-analyzer ingestion totals as `pipeline.records.*`
    /// counters (plus `pipeline.flows.tracked`).
    ///
    /// Runs once after the trace finishes, off the packet hot path, and
    /// reads only each analyzer's own accepted totals — so the numbers are
    /// exact and the export can never perturb the analysis itself.
    pub fn export_metrics(&self, registry: &MetricsRegistry) {
        let series_total = |s: &RateSeries| -> u64 { s.bins().iter().map(|b| b.packets).sum() };
        registry
            .counter("pipeline.records.counts")
            .add(self.counts.total_packets());
        registry
            .counter("pipeline.records.per_minute")
            .add(series_total(&self.per_minute));
        registry
            .counter("pipeline.records.per_minute_in")
            .add(series_total(&self.per_minute_in));
        registry
            .counter("pipeline.records.per_minute_out")
            .add(series_total(&self.per_minute_out));
        registry
            .counter("pipeline.records.ms10_total")
            .add(series_total(&self.ms10_total));
        registry
            .counter("pipeline.records.ms10_in")
            .add(series_total(&self.ms10_in));
        registry
            .counter("pipeline.records.ms10_out")
            .add(series_total(&self.ms10_out));
        registry
            .counter("pipeline.records.ms50_total")
            .add(series_total(&self.ms50_total));
        registry
            .counter("pipeline.records.sec1_total")
            .add(series_total(&self.sec1_total));
        registry
            .counter("pipeline.records.min30_total")
            .add(series_total(&self.min30_total));
        registry
            .counter("pipeline.records.variance_time")
            .add(self.variance_time.bins_seen());
        registry
            .counter("pipeline.records.sizes")
            .add(self.sizes.grand_total());
        registry
            .gauge("pipeline.flows.tracked")
            .set(self.flows.len() as i64);
    }
}

impl TraceSink for FullAnalysis {
    fn on_packet(&mut self, rec: &TraceRecord) {
        self.counts.on_packet(rec);
        self.per_minute.on_packet(rec);
        self.per_minute_in.on_packet(rec);
        self.per_minute_out.on_packet(rec);
        self.ms10_total.on_packet(rec);
        self.ms10_in.on_packet(rec);
        self.ms10_out.on_packet(rec);
        self.ms50_total.on_packet(rec);
        self.sec1_total.on_packet(rec);
        self.min30_total.on_packet(rec);
        self.variance_time.on_packet(rec);
        self.sizes.on_packet(rec);
        self.flows.on_packet(rec);
    }

    /// A burst shares one instant, so it is one run in every bin series:
    /// one pass over the tag and size columns computes the per-direction
    /// lane totals, and every counter and series folds them in once. Only
    /// the flow table and size histogram still need the per-row columns.
    fn on_columns(&mut self, batch: &PacketBatch) {
        let t = batch.time();
        let (packets, app) = batch.lane_totals();
        self.counts.add_counts(packets, app);
        for series in [
            &mut self.per_minute,
            &mut self.per_minute_in,
            &mut self.per_minute_out,
            &mut self.ms10_total,
            &mut self.ms10_in,
            &mut self.ms10_out,
            &mut self.ms50_total,
            &mut self.sec1_total,
            &mut self.min30_total,
        ] {
            series.add_lanes(t, packets, app);
        }
        self.variance_time.add_run(t, packets[0] + packets[1]);
        self.sizes.on_columns(batch);
        self.flows.on_columns(batch);
    }

    fn on_end(&mut self, end: SimTime) {
        self.counts.on_end(end);
        self.per_minute.on_end(end);
        self.per_minute_in.on_end(end);
        self.per_minute_out.on_end(end);
        self.ms10_total.on_end(end);
        self.ms10_in.on_end(end);
        self.ms10_out.on_end(end);
        self.ms50_total.on_end(end);
        self.sec1_total.on_end(end);
        self.min30_total.on_end(end);
        self.variance_time.on_end(end);
        self.sizes.on_end(end);
        self.flows.on_end(end);
    }
}

/// Observe-only tap shim that frames every sink delivery in a wall-time
/// profiler before forwarding to the wrapped analysis. It exists only for
/// the duration of the run, so [`FullAnalysis`] (and [`MainRun`]) stay
/// `Send` even though [`Profile`] is thread-local.
struct ProfiledTap {
    inner: Rc<RefCell<FullAnalysis>>,
    profile: Profile,
}

impl TraceSink for ProfiledTap {
    fn on_packet(&mut self, rec: &TraceRecord) {
        self.inner.borrow_mut().on_packet(rec);
    }

    fn on_columns(&mut self, batch: &PacketBatch) {
        let mut scope = self.profile.enter("pipeline.ingest");
        scope.add_items(batch.len() as u64);
        self.inner.borrow_mut().on_columns(batch);
    }

    fn on_end(&mut self, end: SimTime) {
        let _scope = self.profile.enter("pipeline.fold");
        self.inner.borrow_mut().on_end(end);
    }
}

/// A finished main-trace run: the analyzers plus the world outcome.
pub struct MainRun {
    /// The scenario that produced it.
    pub config: ScenarioConfig,
    /// All analyzer state after the run.
    pub analysis: FullAnalysis,
    /// Session log, player series and counters from the world.
    pub outcome: TraceOutcome,
}

impl MainRun {
    /// Runs the scenario and collects the full analysis.
    pub fn execute(config: ScenarioConfig) -> MainRun {
        Self::execute_instrumented(config, WorldInstruments::default())
    }

    /// [`MainRun::execute`] with observability attached: world/sim
    /// instruments ride along, and if they carry a registry the
    /// pipeline's per-analyzer ingestion totals are exported into it after
    /// the run.
    pub fn execute_instrumented(config: ScenarioConfig, instruments: WorldInstruments) -> MainRun {
        Self::execute_with_middlebox(config, None, instruments)
    }

    /// [`MainRun::execute_instrumented`] with a middlebox installed on the
    /// server's uplink — the hook chaos campaigns use to impair traffic
    /// before it reaches the tap. `None` is exactly
    /// [`MainRun::execute_instrumented`].
    pub fn execute_with_middlebox(
        config: ScenarioConfig,
        middlebox: Option<Rc<dyn Middlebox>>,
        instruments: WorldInstruments,
    ) -> MainRun {
        let analysis = Rc::new(RefCell::new(FullAnalysis::new(config.duration)));
        let sink: Rc<RefCell<dyn TraceSink>> = match instruments.profile.clone() {
            Some(profile) => Rc::new(RefCell::new(ProfiledTap {
                inner: analysis.clone(),
                profile,
            })),
            None => analysis.clone(),
        };
        let registry = instruments.registry.clone();
        let outcome = World::run_instrumented(config.clone(), sink, middlebox, instruments);
        let analysis = match Rc::try_unwrap(analysis) {
            Ok(cell) => cell.into_inner(),
            // The world releases its sink handle when the run returns, so
            // this arm is unreachable; swapping an empty analysis into the
            // shared cell keeps the path panic-free regardless.
            Err(shared) => shared.replace(FullAnalysis::new(config.duration)),
        };
        if let Some(registry) = &registry {
            analysis.export_metrics(registry);
        }
        MainRun {
            config,
            analysis,
            outcome,
        }
    }

    /// Ratio scaling a counted quantity to the paper's full trace length
    /// (1.0 for a full-week run).
    pub fn week_scale(&self) -> f64 {
        csprov_game::PAPER_TRACE_SECS as f64 / self.config.duration.as_secs_f64()
    }

    /// Reduces this run to the compact mergeable state the fleet engine
    /// retains per shard, consuming (and thereby dropping) the rest of the
    /// analysis.
    pub fn into_fleet_shard(self, shard: usize) -> crate::fleet::ShardState {
        crate::fleet::ShardState::from_run(shard, self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csprov_game::ScenarioConfig;

    #[test]
    fn short_run_populates_every_analyzer() {
        let cfg = ScenarioConfig::new(3, SimDuration::from_mins(10));
        let run = MainRun::execute(cfg);
        let a = &run.analysis;
        assert!(a.counts.total_packets() > 100_000, "10 min of busy server");
        assert_eq!(a.per_minute.bins().len(), 10);
        assert_eq!(a.ms10_total.bins().len(), SHORT_SERIES_BINS);
        assert_eq!(a.ms50_total.bins().len(), SHORT_SERIES_BINS);
        assert_eq!(a.sec1_total.bins().len(), 600);
        assert_eq!(a.min30_total.bins().len(), 1);
        assert!(a.variance_time.bins_seen() >= 60_000);
        assert!(a.sizes.grand_total() > 0);
        assert!(!a.flows.is_empty());
        assert!(!run.outcome.sessions.is_empty());
        assert!((run.week_scale() - 626_477.0 / 600.0).abs() < 1e-6);
    }

    #[test]
    fn directional_series_sum_to_total() {
        let cfg = ScenarioConfig::new(4, SimDuration::from_mins(3));
        let run = MainRun::execute(cfg);
        let a = &run.analysis;
        for i in 0..a.per_minute.bins().len() {
            assert_eq!(
                a.per_minute.bins()[i].packets,
                a.per_minute_in.bins()[i].packets + a.per_minute_out.bins()[i].packets
            );
        }
    }

    #[test]
    fn profiled_run_matches_unprofiled_and_frames_the_ingest() {
        let plain = MainRun::execute(ScenarioConfig::new(11, SimDuration::from_mins(2)));
        let profile = Profile::new();
        let instruments = WorldInstruments {
            profile: Some(profile.clone()),
            ..Default::default()
        };
        let profiled = MainRun::execute_instrumented(
            ScenarioConfig::new(11, SimDuration::from_mins(2)),
            instruments,
        );
        assert_eq!(
            plain.analysis.counts.total_packets(),
            profiled.analysis.counts.total_packets(),
            "profiling must not perturb the analysis"
        );
        assert_eq!(
            plain.analysis.counts.total_wire_bytes(),
            profiled.analysis.counts.total_wire_bytes()
        );
        assert_eq!(
            plain.outcome.sessions.len(),
            profiled.outcome.sessions.len()
        );
        assert_eq!(
            plain.outcome.events_executed,
            profiled.outcome.events_executed
        );
        let snap = profile.snapshot();
        // One frame around the whole dispatch loop, carrying every event.
        let dispatch: Vec<_> = snap
            .entries()
            .iter()
            .filter(|e| e.path == ["sim.dispatch"])
            .collect();
        assert_eq!(dispatch.len(), 1, "one top-level dispatch frame");
        assert_eq!(dispatch[0].count, 1);
        assert_eq!(dispatch[0].items, profiled.outcome.events_executed);
        let ingest = snap
            .entries()
            .iter()
            .find(|e| e.path.last().is_some_and(|f| f == "pipeline.ingest"))
            .expect("ingest frames recorded");
        // Bursts come from server ticks, whose frame stays open while the
        // tap ingests them.
        assert_eq!(
            ingest.path,
            ["sim.dispatch", "game.tick", "pipeline.ingest"]
        );
        assert!(
            ingest.items > 0 && ingest.items <= profiled.analysis.counts.total_packets(),
            "ingest frame items count batched records (got {} of {})",
            ingest.items,
            profiled.analysis.counts.total_packets()
        );
        // Analyzer finalization runs after the dispatch frame closes.
        assert!(
            snap.entries().iter().any(|e| e.path == ["pipeline.fold"]),
            "analyzer finalization is framed at the top level"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let run1 = MainRun::execute(ScenarioConfig::new(7, SimDuration::from_mins(2)));
        let run2 = MainRun::execute(ScenarioConfig::new(7, SimDuration::from_mins(2)));
        assert_eq!(
            run1.analysis.counts.total_packets(),
            run2.analysis.counts.total_packets()
        );
        assert_eq!(
            run1.analysis.counts.total_wire_bytes(),
            run2.analysis.counts.total_wire_bytes()
        );
        assert_eq!(run1.outcome.sessions.len(), run2.outcome.sessions.len());
        let run3 = MainRun::execute(ScenarioConfig::new(8, SimDuration::from_mins(2)));
        assert_ne!(
            run1.analysis.counts.total_packets(),
            run3.analysis.counts.total_packets(),
            "different seeds must differ"
        );
    }
}
