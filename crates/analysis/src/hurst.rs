//! Hurst parameter estimation via the aggregated variance method.
//!
//! This is Section III-B of the paper. The packet-count sequence is binned
//! at a base interval (the paper uses m = 10 ms), then re-aggregated at a
//! ladder of block sizes m; for each m, the variance of the block means is
//! recorded. On a log-log plot of normalized variance against block size, a
//! short-range-dependent process shows slope −1 (H = ½); long-range
//! dependence flattens the slope (`H = 1 − β/2`).
//!
//! Everything is computed in one streaming pass: each base bin is fed to a
//! set of block accumulators, so memory is O(#block sizes) regardless of
//! trace length.

use crate::fit::{fit_line, LineFit};
use crate::merge::MergeError;
use crate::welford::Welford;
use csprov_net::{PacketBatch, TraceRecord, TraceSink};
use csprov_sim::{SimDuration, SimTime};

/// One point of the variance-time plot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VtPoint {
    /// Block size in base bins.
    pub block: u64,
    /// Block size as wall time.
    pub interval: SimDuration,
    /// Variance of block means, normalized by the base-sequence variance.
    pub normalized_variance: f64,
    /// Number of complete blocks that contributed.
    pub blocks_seen: u64,
}

impl VtPoint {
    /// `log10` of the block size (the paper's x axis).
    pub fn log_block(&self) -> f64 {
        (self.block as f64).log10()
    }

    /// `log10` of the normalized variance (the paper's y axis).
    pub fn log_variance(&self) -> f64 {
        self.normalized_variance.log10()
    }
}

/// One rung of the block ladder: blocks of `block` base bins.
///
/// A block's packet count is the difference of the estimator's integer
/// running total at the block's two edges, so a rung keeps no partial sum,
/// and it records the bin count at which its open block completes, so a
/// bin reads only that count in every rung and updates only the rungs
/// whose block it completes.
#[derive(Clone)]
struct Rung {
    block: u64,
    /// The running total when the open block started.
    start_total: u64,
    /// The bin count at which the open block completes.
    due: u64,
    stats: Welford,
}

impl Rung {
    /// Closes every block that completes within the first `bins` base
    /// bins, the running total being `total` at each of those edges: the
    /// first block closed carries the packets since `start_total`, and
    /// any later one lies wholly in a gap of empty bins and pushes `0.0`.
    ///
    /// This reproduces bit for bit a rung that summed its block's counts
    /// in an `f64` and pushed `sum / block`: a partial sum of whole counts
    /// below 2^53 is exact in `f64`, so it equals the converted integer
    /// difference.
    fn complete_through(&mut self, bins: u64, total: u64) {
        while self.due <= bins {
            let sum = total - self.start_total;
            self.stats.push(sum as f64 / self.block as f64);
            self.start_total = total;
            self.due += self.block;
        }
    }

    /// Base bins folded into the open block after `bins` bins.
    fn filled(&self, bins: u64) -> u64 {
        bins + self.block - self.due
    }
}

/// Streaming aggregated-variance estimator.
///
/// Feed it the packet stream (it bins internally at `base`), then call
/// [`VarianceTime::points`] / [`VarianceTime::hurst`].
///
/// ```
/// use csprov_analysis::VarianceTime;
/// use csprov_net::{Direction, PacketKind, TraceRecord, TraceSink};
/// use csprov_sim::{RngStream, SimDuration, SimTime};
///
/// let mut vt = VarianceTime::new(SimDuration::from_millis(10), 1_000, 4);
/// let mut rng = RngStream::new(1);
/// for i in 0..500_000u64 {
///     // Poisson-ish traffic: short-range dependent.
///     if rng.chance(0.5) {
///         vt.on_packet(&TraceRecord {
///             time: SimTime::from_millis(i / 5),
///             direction: Direction::Inbound,
///             kind: PacketKind::ClientCommand,
///             session: 0,
///             app_len: 40,
///         });
///     }
/// }
/// vt.on_end(SimTime::from_secs(100)); // 500k slots at 5 per ms = 100 s
/// // Fit over block sizes with plenty of samples each.
/// let (h, _fit) = vt.hurst(1, 100).ok_or("too few blocks to fit")?;
/// assert!((h - 0.5).abs() < 0.12, "iid traffic has H near 1/2");
/// # Ok::<(), &str>(())
/// ```
#[derive(Clone)]
pub struct VarianceTime {
    base: SimDuration,
    rungs: Vec<Rung>,
    /// Packets in every base bin emitted so far.
    total: u64,
    current_bin: Option<(u64, u64)>, // (bin index, packet count)
    bins_emitted: u64,
}

impl VarianceTime {
    /// Creates an estimator with base bin `base` and a log-spaced ladder of
    /// block sizes from 1 up to `max_block` base bins (`points_per_decade`
    /// sizes per decade, deduplicated).
    pub fn new(base: SimDuration, max_block: u64, points_per_decade: u32) -> Self {
        assert!(!base.is_zero());
        assert!(max_block >= 1);
        assert!(points_per_decade >= 1);
        let mut blocks = Vec::new();
        let mut k = 0u32;
        loop {
            let b = 10f64.powf(f64::from(k) / f64::from(points_per_decade));
            let b = b.round() as u64;
            if b > max_block {
                break;
            }
            if blocks.last() != Some(&b) {
                blocks.push(b);
            }
            k += 1;
        }
        if blocks.is_empty() {
            blocks.push(1);
        }
        let rungs = blocks
            .into_iter()
            .map(|block| Rung {
                block,
                start_total: 0,
                due: block,
                stats: Welford::new(),
            })
            .collect();
        VarianceTime {
            base,
            rungs,
            total: 0,
            current_bin: None,
            bins_emitted: 0,
        }
    }

    /// Base bin width.
    pub fn base(&self) -> SimDuration {
        self.base
    }

    /// Flushes the open bin: the empty bins between the last emitted bin
    /// and it, then the bin itself. A rung that completes no block in that
    /// span costs one comparison. A bin behind the last emitted one (an
    /// out-of-order record) is emitted as the next bin.
    fn flush_current(&mut self) {
        if let Some((idx, count)) = self.current_bin.take() {
            let gap_end = idx.max(self.bins_emitted);
            let bins = gap_end + 1;
            let total = self.total + count;
            for rung in &mut self.rungs {
                if rung.due <= bins {
                    rung.complete_through(gap_end, self.total);
                    rung.complete_through(bins, total);
                }
            }
            self.total = total;
            self.bins_emitted = bins;
        }
    }

    /// The estimator's one fold: adds a run of `count` packets, all in the
    /// base bin holding `time`. A zero-count run is a no-op. `on_packet`
    /// folds runs of one and `on_columns` a whole one-instant burst; bin
    /// counts are integer sums, so the run length never shows.
    ///
    /// As in [`crate::RateSeries::add_run`], a run inside the open bin's
    /// `[start, start + base)` is added without a division.
    #[inline]
    pub fn add_run(&mut self, time: SimTime, count: u64) {
        if count == 0 {
            return;
        }
        let base = self.base.as_nanos();
        if let Some((cur, c)) = &mut self.current_bin {
            if time.as_nanos().wrapping_sub(*cur * base) < base {
                *c += count;
                return;
            }
        }
        let idx = time.bin_index(self.base);
        self.flush_current();
        self.current_bin = Some((idx, count));
    }

    /// Number of base bins processed.
    pub fn bins_seen(&self) -> u64 {
        self.bins_emitted
    }

    /// The variance-time plot: one point per block size that accumulated at
    /// least two complete blocks. Call after the trace ends.
    pub fn points(&self) -> Vec<VtPoint> {
        let base_var = self
            .rungs
            .first()
            .map(|r| r.stats.variance())
            .unwrap_or(0.0);
        if base_var <= 0.0 {
            return Vec::new();
        }
        self.rungs
            .iter()
            // A block size whose variance is exactly zero (possible only for
            // pathologically periodic synthetic input) has no representable
            // log-variance; drop it rather than emit -inf.
            .filter(|a| a.stats.count() >= 2 && a.stats.variance() > 0.0)
            .map(|a| VtPoint {
                block: a.block,
                interval: self.base.mul_u64(a.block),
                normalized_variance: a.stats.variance() / base_var,
                blocks_seen: a.stats.count(),
            })
            .collect()
    }

    /// Fits the log-log plot over block sizes in `[min_block, max_block]`
    /// and returns `(H, fit)`, with `H = 1 − β/2` clamped to `[0, 1]`.
    ///
    /// The paper reads different slopes off different regions of Figure 5;
    /// the block range selects the region.
    pub fn hurst(&self, min_block: u64, max_block: u64) -> Option<(f64, LineFit)> {
        let pts: Vec<(f64, f64)> = self
            .points()
            .iter()
            .filter(|p| p.block >= min_block && p.block <= max_block)
            .map(|p| (p.log_block(), p.log_variance()))
            .collect();
        let fit = fit_line(&pts)?;
        let beta = -fit.slope;
        let h = (1.0 - beta / 2.0).clamp(0.0, 1.0);
        Some((h, fit))
    }

    /// Concatenates another estimator's state onto this one: `other` is the
    /// *next consecutive segment* of the same packet stream (e.g. one day
    /// of a sharded week). Both sides must use the same base bin and block
    /// ladder, and each should have been finished with `on_end`.
    ///
    /// The merge is exact only when this segment ends on a block boundary
    /// for every ladder entry — i.e. `bins_seen()` is a multiple of every
    /// block size. Otherwise the typed error reports the first mid-block
    /// accumulator rather than silently mis-aligning block means; size
    /// shards so segment lengths are multiples of the largest block.
    /// Merging into a freshly-created estimator is the identity.
    pub fn merge_concat(&mut self, other: &VarianceTime) -> Result<(), MergeError> {
        if self.base != other.base {
            return Err(MergeError::WidthMismatch {
                ours: self.base.as_nanos(),
                theirs: other.base.as_nanos(),
            });
        }
        if self.rungs.len() != other.rungs.len()
            || self
                .rungs
                .iter()
                .zip(&other.rungs)
                .any(|(a, b)| a.block != b.block)
        {
            return Err(MergeError::LadderMismatch);
        }
        if self.current_bin.is_some() || other.current_bin.is_some() {
            return Err(MergeError::Unfinished);
        }
        if self.bins_emitted == 0 {
            *self = other.clone();
            return Ok(());
        }
        let bins = self.bins_emitted;
        if let Some(rung) = self.rungs.iter().find(|r| r.filled(bins) != 0) {
            return Err(MergeError::UnalignedSegment {
                block: rung.block,
                filled: rung.filled(bins),
            });
        }
        // `other` counts its bins and packets from zero: shift its block
        // edges and running total past this segment's.
        for (rung, seg) in self.rungs.iter_mut().zip(&other.rungs) {
            rung.stats.merge(&seg.stats);
            rung.start_total = self.total + seg.start_total;
            rung.due = bins + seg.due;
        }
        self.total += other.total;
        self.bins_emitted += other.bins_emitted;
        Ok(())
    }
}

impl TraceSink for VarianceTime {
    #[inline]
    fn on_packet(&mut self, rec: &TraceRecord) {
        self.add_run(rec.time, 1);
    }

    fn on_columns(&mut self, batch: &PacketBatch) {
        self.add_run(batch.time(), batch.len() as u64);
    }

    fn on_end(&mut self, end: SimTime) {
        self.flush_current();
        // See RateSeries::on_end: a boundary-aligned end opens no new bin.
        // Trailing empty bins close blocks without adding packets.
        let bins = end.as_nanos().div_ceil(self.base.as_nanos());
        if bins > self.bins_emitted {
            self.bins_emitted = bins;
            for rung in &mut self.rungs {
                rung.complete_through(bins, self.total);
            }
        }
    }
}

/// Rescaled-range (R/S) Hurst estimation over a binned count series — the
/// classic estimator of Hurst's reservoir paper (which this paper cites),
/// used as a cross-check on the aggregated variance method.
///
/// The series is split into non-overlapping windows of `window` samples; for
/// each, R/S = (max − min of the mean-adjusted cumulative sum) / std-dev.
/// `log(R/S)` grows as `H·log(window)`.
pub fn rs_statistic(series: &[f64], window: usize) -> Option<f64> {
    if window < 4 || series.len() < window {
        return None;
    }
    let mut values = Vec::new();
    for chunk in series.chunks_exact(window) {
        let mean = chunk.iter().sum::<f64>() / window as f64;
        let mut cum = 0.0;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut var = 0.0;
        for &x in chunk {
            cum += x - mean;
            min = min.min(cum);
            max = max.max(cum);
            var += (x - mean) * (x - mean);
        }
        let s = (var / window as f64).sqrt();
        if s > 0.0 {
            values.push((max - min) / s);
        }
    }
    if values.is_empty() {
        return None;
    }
    Some(values.iter().sum::<f64>() / values.len() as f64)
}

/// Estimates H by regressing `log10(R/S)` on `log10(window)` over a
/// log-spaced ladder of window sizes between `min_window` and
/// `series.len() / 4`.
pub fn rs_hurst(series: &[f64], min_window: usize) -> Option<(f64, LineFit)> {
    let max_window = series.len() / 4;
    if max_window < min_window.max(4) {
        return None;
    }
    let mut pts = Vec::new();
    let mut w = min_window.max(4);
    while w <= max_window {
        if let Some(rs) = rs_statistic(series, w) {
            pts.push(((w as f64).log10(), rs.log10()));
        }
        w = ((w as f64) * 1.5).ceil() as usize;
    }
    let fit = fit_line(&pts)?;
    Some((fit.slope.clamp(0.0, 1.0), fit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use csprov_net::{Direction, PacketKind};
    use csprov_sim::RngStream;

    fn rec(ns: u64) -> TraceRecord {
        TraceRecord {
            time: SimTime::from_nanos(ns),
            direction: Direction::Inbound,
            kind: PacketKind::ClientCommand,
            session: 0,
            app_len: 40,
        }
    }

    fn feed_counts(vt: &mut VarianceTime, counts: &[u64]) {
        let base = vt.base().as_nanos();
        for (i, &c) in counts.iter().enumerate() {
            for j in 0..c {
                vt.on_packet(&rec(i as u64 * base + j));
            }
        }
        vt.on_end(SimTime::from_nanos(counts.len() as u64 * base - 1));
    }

    /// The rung walk the ladder replaced, kept as a reference: every
    /// flushed bin adds its count to an `f64` partial sum in every rung,
    /// and a gap of empty bins advances each rung by compare and subtract.
    struct WalkRung {
        block: u64,
        sum: f64,
        filled: u64,
        stats: Welford,
    }

    struct WalkLadder {
        base: u64,
        rungs: Vec<WalkRung>,
        current: Option<(u64, u64)>,
        bins: u64,
    }

    impl WalkLadder {
        fn like(vt: &VarianceTime) -> Self {
            WalkLadder {
                base: vt.base.as_nanos(),
                rungs: vt
                    .rungs
                    .iter()
                    .map(|r| WalkRung {
                        block: r.block,
                        sum: 0.0,
                        filled: 0,
                        stats: Welford::new(),
                    })
                    .collect(),
                current: None,
                bins: 0,
            }
        }

        fn advance(&mut self, gap: u64, x: Option<f64>) {
            self.bins += gap + u64::from(x.is_some());
            for r in &mut self.rungs {
                let total = r.filled + gap;
                if total < r.block {
                    r.filled = total;
                } else {
                    r.stats.push(r.sum / r.block as f64);
                    let mut rem = total - r.block;
                    while rem >= r.block {
                        r.stats.push(0.0);
                        rem -= r.block;
                    }
                    r.sum = 0.0;
                    r.filled = rem;
                }
                if let Some(x) = x {
                    r.sum += x;
                    r.filled += 1;
                    if r.filled == r.block {
                        r.stats.push(r.sum / r.block as f64);
                        r.sum = 0.0;
                        r.filled = 0;
                    }
                }
            }
        }

        fn flush(&mut self) {
            if let Some((idx, count)) = self.current.take() {
                self.advance(idx.saturating_sub(self.bins), Some(count as f64));
            }
        }

        fn add_run(&mut self, ns: u64, count: u64) {
            let idx = ns / self.base;
            match &mut self.current {
                Some((cur, c)) if *cur == idx => *c += count,
                _ => {
                    self.flush();
                    self.current = Some((idx, count));
                }
            }
        }

        fn end(&mut self, ns: u64) {
            self.flush();
            let total = ns.div_ceil(self.base);
            self.advance(total.saturating_sub(self.bins), None);
        }
    }

    fn welford_bits(w: &Welford) -> [u64; 5] {
        [
            w.n,
            w.mean.to_bits(),
            w.m2.to_bits(),
            w.min.to_bits(),
            w.max.to_bits(),
        ]
    }

    #[test]
    fn ladder_matches_the_rung_walk_bit_for_bit() {
        let mut rng = RngStream::new(77);
        for case in 0..60u64 {
            let max_block = [1, 7, 10, 100, 1_000][(case % 5) as usize];
            let mut vt = VarianceTime::new(SimDuration::from_millis(10), max_block, 4);
            let mut walk = WalkLadder::like(&vt);
            let base = walk.base;
            let mut bin = 0u64;
            for _ in 0..rng.next_below(3_000) {
                // Mostly the next bin or two; now and then a gap longer
                // than the largest rung.
                bin += match rng.next_below(20) {
                    0 => max_block + rng.next_below(3 * max_block + 2),
                    1..=4 => 0,
                    _ => 1 + rng.next_below(2),
                };
                let count = rng.next_below(60);
                let ns = bin * base + rng.next_below(base);
                vt.add_run(SimTime::from_nanos(ns), count);
                if count > 0 {
                    walk.add_run(ns, count);
                }
            }
            // Ends before, on and one past a boundary beyond the last bin.
            let end = (bin + rng.next_below(2 * max_block + 2)) * base + rng.next_below(2);
            vt.on_end(SimTime::from_nanos(end));
            walk.end(end);
            assert_eq!(vt.bins_seen(), walk.bins, "case {case}");
            assert_eq!(vt.rungs.len(), walk.rungs.len());
            for (r, w) in vt.rungs.iter().zip(&walk.rungs) {
                assert_eq!(r.block, w.block, "case {case}");
                assert_eq!(r.filled(vt.bins_emitted), w.filled, "case {case}");
                assert_eq!(
                    welford_bits(&r.stats),
                    welford_bits(&w.stats),
                    "case {case}, block {}",
                    r.block
                );
            }
            // `points` reads only the rungs' statistics.
            let base_var = walk.rungs[0].stats.variance();
            let want: Vec<(u64, u64, u64)> = if base_var > 0.0 {
                walk.rungs
                    .iter()
                    .filter(|w| w.stats.count() >= 2 && w.stats.variance() > 0.0)
                    .map(|w| {
                        let nv = w.stats.variance() / base_var;
                        (w.block, nv.to_bits(), w.stats.count())
                    })
                    .collect()
            } else {
                Vec::new()
            };
            let got: Vec<(u64, u64, u64)> = vt
                .points()
                .iter()
                .map(|p| (p.block, p.normalized_variance.to_bits(), p.blocks_seen))
                .collect();
            assert_eq!(got, want, "case {case}");
        }
    }

    #[test]
    fn merging_a_fresh_segment_leaves_the_estimator_unchanged() {
        let mut rng = RngStream::new(33);
        let counts: Vec<u64> = (0..1_000).map(|_| rng.next_below(9)).collect();
        let mut aligned = VarianceTime::new(SimDuration::from_millis(10), 100, 1);
        feed_counts(&mut aligned, &counts);
        let before = aligned.clone();
        let mut fresh = VarianceTime::new(SimDuration::from_millis(10), 100, 1);
        fresh.on_end(SimTime::ZERO);
        aligned.merge_concat(&fresh).unwrap();
        assert_eq!(aligned.bins_seen(), before.bins_seen());
        assert_eq!(aligned.total, before.total);
        for (a, b) in aligned.rungs.iter().zip(&before.rungs) {
            assert_eq!(
                (a.start_total, a.due, welford_bits(&a.stats)),
                (b.start_total, b.due, welford_bits(&b.stats))
            );
        }
    }

    #[test]
    fn ladder_is_log_spaced_and_deduplicated() {
        let vt = VarianceTime::new(SimDuration::from_millis(10), 1000, 4);
        let blocks: Vec<u64> = vt.rungs.iter().map(|r| r.block).collect();
        assert_eq!(blocks.first(), Some(&1));
        assert_eq!(blocks.last(), Some(&1000));
        for w in blocks.windows(2) {
            assert!(
                w[0] < w[1],
                "ladder must be strictly increasing: {blocks:?}"
            );
        }
    }

    #[test]
    fn iid_noise_has_hurst_half() {
        // Poisson-ish iid counts: aggregated variance should fall as 1/m.
        let mut vt = VarianceTime::new(SimDuration::from_millis(10), 1000, 4);
        let mut rng = RngStream::new(42);
        let counts: Vec<u64> = (0..200_000).map(|_| rng.next_below(20)).collect();
        feed_counts(&mut vt, &counts);
        let (h, fit) = vt.hurst(1, 1000).unwrap();
        assert!((h - 0.5).abs() < 0.05, "H = {h}, slope = {}", fit.slope);
        assert!(fit.r_squared > 0.98);
    }

    #[test]
    fn constant_rate_is_antipersistent_at_subperiod_scales() {
        // A strictly periodic burst every 5 bins: variance at m >= 5
        // collapses far faster than 1/m (the paper's m < 50 ms region).
        let mut vt = VarianceTime::new(SimDuration::from_millis(10), 100, 4);
        let counts: Vec<u64> = (0..50_000)
            .map(|i| if i % 5 == 0 { 20 } else { 0 })
            .collect();
        feed_counts(&mut vt, &counts);
        let (h, _) = vt.hurst(1, 50).unwrap();
        assert!(h < 0.4, "periodic bursts must smooth aggressively, H = {h}");
    }

    #[test]
    fn long_range_dependent_series_has_high_hurst() {
        // Per-bin rate modulated by a slowly-mixing on/off process with
        // Pareto sojourn times: a classic LRD construction.
        let mut vt = VarianceTime::new(SimDuration::from_millis(10), 10_000, 4);
        let mut rng = RngStream::new(7);
        let mut counts = Vec::with_capacity(400_000);
        let mut on = true;
        while counts.len() < 400_000 {
            // Pareto(shape 1.2) sojourn in bins — infinite variance.
            let u: f64 = rng.next_f64_open();
            let sojourn = (5.0 / u.powf(1.0 / 1.2)).min(50_000.0) as usize;
            let rate = if on { 20 } else { 2 };
            for _ in 0..sojourn.max(1) {
                counts.push(rate);
            }
            on = !on;
        }
        feed_counts(&mut vt, &counts);
        let (h, _) = vt.hurst(10, 10_000).unwrap();
        assert!(h > 0.7, "LRD construction should give high H, got {h}");
    }

    #[test]
    fn empty_trace_has_no_points() {
        let mut vt = VarianceTime::new(SimDuration::from_millis(10), 100, 4);
        vt.on_end(SimTime::from_secs(1));
        assert!(vt.points().is_empty());
        assert!(vt.hurst(1, 100).is_none());
    }

    #[test]
    fn gaps_are_zero_bins() {
        let mut vt = VarianceTime::new(SimDuration::from_millis(10), 10, 4);
        vt.on_packet(&rec(0));
        vt.on_packet(&rec(100 * 1_000_000)); // 100 ms later
        vt.on_end(SimTime::from_millis(109));
        assert_eq!(vt.bins_seen(), 11);
    }

    #[test]
    fn rs_hurst_of_iid_noise_is_near_half() {
        let mut rng = RngStream::new(21);
        let series: Vec<f64> = (0..100_000).map(|_| rng.next_f64()).collect();
        let (h, fit) = rs_hurst(&series, 16).unwrap();
        // R/S on iid data biases slightly above 0.5 at finite n (the
        // Anis–Lloyd correction); accept the classic band.
        assert!((0.45..0.65).contains(&h), "H = {h}");
        assert!(fit.r_squared > 0.95);
    }

    #[test]
    fn rs_hurst_detects_persistence() {
        // A long-memory series: sum of a slowly varying level plus noise.
        let mut rng = RngStream::new(22);
        let mut level = 0.0_f64;
        let series: Vec<f64> = (0..100_000)
            .map(|_| {
                // Random walk level (strong persistence) plus noise.
                level += rng.next_f64() - 0.5;
                level + rng.next_f64()
            })
            .collect();
        let (h, _) = rs_hurst(&series, 16).unwrap();
        assert!(h > 0.8, "random-walk level must read persistent: H = {h}");
    }

    #[test]
    fn rs_degenerate_inputs() {
        assert!(rs_statistic(&[], 8).is_none());
        assert!(
            rs_statistic(&[1.0; 10], 16).is_none(),
            "series shorter than window"
        );
        assert!(
            rs_statistic(&[5.0; 64], 8).is_none(),
            "constant series has no std"
        );
        assert!(rs_hurst(&[1.0; 8], 4).is_none());
    }

    #[test]
    fn rs_and_aggregated_variance_agree_on_noise() {
        let mut rng = RngStream::new(23);
        let counts: Vec<u64> = (0..200_000).map(|_| rng.next_below(20)).collect();
        let series: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
        let (h_rs, _) = rs_hurst(&series, 16).unwrap();

        let mut vt = VarianceTime::new(SimDuration::from_millis(10), 1000, 4);
        feed_counts(&mut vt, &counts);
        let (h_av, _) = vt.hurst(1, 1000).unwrap();
        assert!(
            (h_rs - h_av).abs() < 0.15,
            "estimators must roughly agree: R/S {h_rs} vs AV {h_av}"
        );
    }

    #[test]
    fn concat_of_aligned_segments_matches_monolithic() {
        // 2000 bins split at 1000, a multiple of every block size in the
        // decade ladder {1, 10, 100} — the merge is exact up to the
        // parallel-combine rounding of Welford::merge.
        let mut rng = RngStream::new(31);
        let counts: Vec<u64> = (0..2000).map(|_| rng.next_below(15)).collect();

        let mut whole = VarianceTime::new(SimDuration::from_millis(10), 100, 1);
        feed_counts(&mut whole, &counts);

        let mut left = VarianceTime::new(SimDuration::from_millis(10), 100, 1);
        feed_counts(&mut left, &counts[..1000]);
        let mut right = VarianceTime::new(SimDuration::from_millis(10), 100, 1);
        feed_counts(&mut right, &counts[1000..]);
        left.merge_concat(&right).unwrap();

        assert_eq!(left.bins_seen(), whole.bins_seen());
        let (a, b) = (left.points(), whole.points());
        assert_eq!(a.len(), b.len());
        for (pa, pb) in a.iter().zip(&b) {
            assert_eq!(pa.block, pb.block);
            assert_eq!(pa.blocks_seen, pb.blocks_seen);
            assert!(
                (pa.normalized_variance - pb.normalized_variance).abs() < 1e-9,
                "block {}: {} vs {}",
                pa.block,
                pa.normalized_variance,
                pb.normalized_variance
            );
        }
    }

    #[test]
    fn concat_into_fresh_is_identity() {
        let mut rng = RngStream::new(32);
        let counts: Vec<u64> = (0..500).map(|_| rng.next_below(9)).collect();
        let mut src = VarianceTime::new(SimDuration::from_millis(10), 100, 4);
        feed_counts(&mut src, &counts);

        let mut fresh = VarianceTime::new(SimDuration::from_millis(10), 100, 4);
        fresh.merge_concat(&src).unwrap();
        assert_eq!(fresh.bins_seen(), src.bins_seen());
        // Identity is an exact clone: every point matches bit-for-bit.
        for (pa, pb) in fresh.points().iter().zip(&src.points()) {
            assert_eq!(pa.block, pb.block);
            assert_eq!(pa.blocks_seen, pb.blocks_seen);
            assert_eq!(
                pa.normalized_variance.to_bits(),
                pb.normalized_variance.to_bits()
            );
        }
    }

    #[test]
    fn concat_rejects_misaligned_and_mismatched() {
        // Left ends mid-block for the largest block size: typed error names
        // the offending accumulator.
        let mut left = VarianceTime::new(SimDuration::from_millis(10), 10, 4);
        feed_counts(&mut left, &[1; 15]); // 15 bins: block 10 is mid-block
        let mut right = VarianceTime::new(SimDuration::from_millis(10), 10, 4);
        feed_counts(&mut right, &[1; 10]);
        match left.merge_concat(&right) {
            Err(MergeError::UnalignedSegment { block, filled }) => {
                assert_eq!((block, filled), (2, 1));
            }
            other => panic!("expected UnalignedSegment, got {other:?}"),
        }

        // Base-width mismatch.
        let mut a = VarianceTime::new(SimDuration::from_millis(10), 10, 4);
        let b = VarianceTime::new(SimDuration::from_millis(20), 10, 4);
        assert!(matches!(
            a.merge_concat(&b),
            Err(MergeError::WidthMismatch { .. })
        ));

        // Ladder mismatch.
        let c = VarianceTime::new(SimDuration::from_millis(10), 100, 4);
        assert!(matches!(
            a.merge_concat(&c),
            Err(MergeError::LadderMismatch)
        ));

        // Unfinished right side (mid-trace: on_end not delivered).
        let mut d = VarianceTime::new(SimDuration::from_millis(10), 10, 4);
        d.on_packet(&rec(0));
        assert!(matches!(a.merge_concat(&d), Err(MergeError::Unfinished)));
    }

    #[test]
    fn normalized_variance_starts_at_one() {
        let mut vt = VarianceTime::new(SimDuration::from_millis(10), 100, 4);
        let mut rng = RngStream::new(9);
        let counts: Vec<u64> = (0..10_000).map(|_| rng.next_below(10)).collect();
        feed_counts(&mut vt, &counts);
        let pts = vt.points();
        assert_eq!(pts[0].block, 1);
        assert!((pts[0].normalized_variance - 1.0).abs() < 1e-12);
        assert_eq!(pts[0].interval, SimDuration::from_millis(10));
    }
}
