//! Interval binning of the packet stream.
//!
//! [`RateSeries`] is the workhorse behind Figures 1, 2, 4, 6–10 of the
//! paper: it folds the trace into fixed-width bins of packet and byte
//! counts, optionally filtered by direction, optionally keeping only the
//! first `limit` bins (Figures 6–8 plot only the first 200 intervals, so a
//! 10 ms binning of a week-long trace need not allocate 60 M bins).

use crate::merge::MergeError;
use crate::welford::Welford;
use csprov_net::{Direction, PacketBatch, TraceRecord, TraceSink, WIRE_OVERHEAD_BYTES};
use csprov_sim::{SimDuration, SimTime};

/// One bin of a [`RateSeries`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RateBin {
    /// Packets observed in the bin.
    pub packets: u64,
    /// Wire bytes observed in the bin.
    pub wire_bytes: u64,
}

/// Streaming fixed-width binning of packets and bytes.
///
/// ```
/// use csprov_analysis::RateSeries;
/// use csprov_net::{Direction, PacketKind, TraceRecord, TraceSink};
/// use csprov_sim::{SimDuration, SimTime};
///
/// let mut s = RateSeries::new(SimDuration::from_millis(10));
/// for ms in [1u64, 4, 12] {
///     s.on_packet(&TraceRecord {
///         time: SimTime::from_millis(ms),
///         direction: Direction::Inbound,
///         kind: PacketKind::ClientCommand,
///         session: 1,
///         app_len: 40,
///     });
/// }
/// s.on_end(SimTime::from_millis(19));
/// assert_eq!(s.bins().len(), 2);
/// assert_eq!(s.pps(), vec![200.0, 100.0]);
/// ```
#[derive(Debug, Clone)]
pub struct RateSeries {
    pub(crate) width: SimDuration,
    pub(crate) filter: Option<Direction>,
    pub(crate) skip: u64,
    pub(crate) limit: Option<usize>,
    pub(crate) bins: Vec<RateBin>,
    /// Total bins emitted (stored or not); stored bins are a prefix.
    pub(crate) emitted: u64,
    pub(crate) stats: Welford,
    pub(crate) current: Option<(u64, RateBin)>,
    pub(crate) end: Option<SimTime>,
}

impl RateSeries {
    /// Creates a series with the given bin width over all packets.
    pub fn new(width: SimDuration) -> Self {
        Self::with_options(width, None, None)
    }

    /// Creates a series with a direction filter and/or a cap on stored bins.
    ///
    /// `stats` (per-bin packet-count mean/variance) is maintained over *all*
    /// bins regardless of the cap; the cap only bounds the stored vector.
    pub fn with_options(
        width: SimDuration,
        filter: Option<Direction>,
        limit: Option<usize>,
    ) -> Self {
        Self::with_window(width, filter, 0, limit)
    }

    /// Creates a series that stores only bins in `[skip, skip + limit)` —
    /// e.g. the paper's Figures 6–8 plot a 200-bin window taken after the
    /// trace has warmed up. Statistics still cover every bin.
    pub fn with_window(
        width: SimDuration,
        filter: Option<Direction>,
        skip: u64,
        limit: Option<usize>,
    ) -> Self {
        assert!(!width.is_zero(), "bin width must be positive");
        RateSeries {
            width,
            filter,
            skip,
            limit,
            bins: Vec::new(),
            emitted: 0,
            stats: Welford::new(),
            current: None,
            end: None,
        }
    }

    /// Bin width.
    pub fn width(&self) -> SimDuration {
        self.width
    }

    fn flush_current(&mut self) {
        if let Some((idx, bin)) = self.current.take() {
            // Materialize any empty bins between the last emitted bin and idx.
            while self.emitted < idx {
                self.push_bin(RateBin::default());
            }
            self.push_bin(bin);
        }
    }

    fn push_bin(&mut self, bin: RateBin) {
        let index = self.emitted;
        self.emitted += 1;
        self.stats.push(bin.packets as f64);
        if index >= self.skip && self.limit.map_or(true, |l| self.bins.len() < l) {
            self.bins.push(bin);
        }
    }

    /// The series' one fold: adds a run of `packets` records totalling
    /// `wire_bytes` on the wire, all in the bin holding `time` and all
    /// passing this series' direction filter. The caller does the
    /// filtering: pass the matching direction's lane totals only. A
    /// zero-packet run is a no-op (it never opens or flushes a bin, exactly
    /// like a run of filtered-out records). `on_packet` folds runs of one;
    /// `on_columns` folds a whole one-instant burst through
    /// [`RateSeries::add_lanes`], and since bin contents are integer sums
    /// the run length never shows.
    ///
    /// A run inside the open bin's `[start, start + width)` is added
    /// without a division; only a run that opens a new bin divides.
    #[inline]
    pub fn add_run(&mut self, time: SimTime, packets: u64, wire_bytes: u64) {
        if packets == 0 {
            return;
        }
        let width = self.width.as_nanos();
        if let Some((cur, bin)) = &mut self.current {
            // `cur * width` is the start of a bin some earlier time fell
            // in, so it cannot overflow; a time before it wraps to a huge
            // offset and opens its own bin, as a division would.
            if time.as_nanos().wrapping_sub(*cur * width) < width {
                bin.packets += packets;
                bin.wire_bytes += wire_bytes;
                return;
            }
        }
        let idx = time.bin_index(self.width);
        self.flush_current();
        self.current = Some((
            idx,
            RateBin {
                packets,
                wire_bytes,
            },
        ));
    }

    /// [`RateSeries::add_run`] from per-direction lane totals (`packets` and
    /// application bytes, each `[inbound, outbound]`, as
    /// [`PacketBatch::lane_totals`] returns them) of a run in the bin
    /// holding `time`: the series picks the lane its filter selects, or
    /// both lanes when unfiltered, so callers need not know the filter.
    #[inline]
    pub fn add_lanes(&mut self, time: SimTime, packets: [u64; 2], app_bytes: [u64; 2]) {
        let (packets, app_bytes) = match self.filter {
            None => (packets[0] + packets[1], app_bytes[0] + app_bytes[1]),
            Some(Direction::Inbound) => (packets[0], app_bytes[0]),
            Some(Direction::Outbound) => (packets[1], app_bytes[1]),
        };
        let wire_bytes = app_bytes + packets * u64::from(WIRE_OVERHEAD_BYTES);
        self.add_run(time, packets, wire_bytes);
    }

    /// The stored bins (a prefix of all bins if a limit was set).
    pub fn bins(&self) -> &[RateBin] {
        &self.bins
    }

    /// Per-bin packet-count statistics over all bins seen.
    pub fn bin_stats(&self) -> &Welford {
        &self.stats
    }

    /// Packets-per-second for each stored bin.
    pub fn pps(&self) -> Vec<f64> {
        let w = self.width.as_secs_f64();
        self.bins.iter().map(|b| b.packets as f64 / w).collect()
    }

    /// Bandwidth in kilobits per second for each stored bin.
    pub fn kbps(&self) -> Vec<f64> {
        let w = self.width.as_secs_f64();
        self.bins
            .iter()
            .map(|b| b.wire_bytes as f64 * 8.0 / w / 1_000.0)
            .collect()
    }

    /// End-of-trace time, if `on_end` has been delivered.
    pub fn end(&self) -> Option<SimTime> {
        self.end
    }

    /// True if the series has seen neither packets nor `on_end` — the
    /// freshly-constructed identity element for [`RateSeries::merge_superpose`].
    pub fn is_fresh(&self) -> bool {
        self.emitted == 0 && self.current.is_none() && self.end.is_none()
    }

    /// Superposes another finished series onto this one: the receiving
    /// series becomes the *aggregate* of two concurrent traffic sources,
    /// with per-bin packet and byte counts added element-wise.
    ///
    /// Both series must share bin width, direction filter and stored
    /// window, and both must be finished (`on_end` delivered). Merging
    /// into a fresh series is the identity: the receiver becomes a
    /// bit-for-bit clone of `other`, so a fleet of one merges to exactly
    /// its monolithic analysis.
    ///
    /// When the series have different stored lengths the aggregate is
    /// truncated to the shorter one (an aggregate bin is only meaningful
    /// where every source contributed), and the number of tail bins
    /// dropped from the longer side is returned so callers can surface it
    /// instead of hiding it. After a ≥2-way merge, [`RateSeries::bin_stats`]
    /// is recomputed over the merged stored bins (a pure function of the
    /// final bins, so any merge order of the same shard set yields
    /// byte-identical statistics).
    pub fn merge_superpose(&mut self, other: &RateSeries) -> Result<u64, MergeError> {
        if self.width != other.width {
            return Err(MergeError::WidthMismatch {
                ours: self.width.as_nanos(),
                theirs: other.width.as_nanos(),
            });
        }
        if self.filter != other.filter {
            return Err(MergeError::FilterMismatch);
        }
        if self.skip != other.skip || self.limit != other.limit {
            return Err(MergeError::WindowMismatch);
        }
        if other.end.is_none() || other.current.is_some() {
            return Err(MergeError::Unfinished);
        }
        if self.is_fresh() {
            *self = other.clone();
            return Ok(0);
        }
        if self.end.is_none() || self.current.is_some() {
            return Err(MergeError::Unfinished);
        }
        let keep = self.bins.len().min(other.bins.len());
        let dropped = (self.bins.len().max(other.bins.len()) - keep) as u64;
        self.bins.truncate(keep);
        for (bin, add) in self.bins.iter_mut().zip(&other.bins[..keep]) {
            bin.packets += add.packets;
            bin.wire_bytes += add.wire_bytes;
        }
        self.emitted = self.emitted.min(other.emitted);
        self.end = self.end.min(other.end);
        self.stats = Welford::new();
        for bin in &self.bins {
            self.stats.push(bin.packets as f64);
        }
        Ok(dropped)
    }
}

impl TraceSink for RateSeries {
    #[inline]
    fn on_packet(&mut self, rec: &TraceRecord) {
        if self.filter.map_or(true, |f| rec.direction == f) {
            self.add_run(rec.time, 1, rec.wire_len());
        }
    }

    fn on_columns(&mut self, batch: &PacketBatch) {
        let (packets, app) = batch.lane_totals();
        self.add_lanes(batch.time(), packets, app);
    }

    fn on_end(&mut self, end: SimTime) {
        self.flush_current();
        // Materialize trailing empty bins up to the end of the trace so the
        // series length reflects trace duration, not last-packet time. An
        // end falling exactly on a bin boundary closes the previous bin
        // without opening a new one.
        let total_bins = end.as_nanos().div_ceil(self.width.as_nanos());
        while self.emitted < total_bins {
            self.push_bin(RateBin::default());
        }
        self.end = Some(end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csprov_net::PacketKind;

    fn rec(ms: u64, dir: Direction, len: u32) -> TraceRecord {
        TraceRecord {
            time: SimTime::from_millis(ms),
            direction: dir,
            kind: PacketKind::ClientCommand,
            session: 0,
            app_len: len,
        }
    }

    #[test]
    fn bins_count_packets_and_bytes() {
        let mut s = RateSeries::new(SimDuration::from_millis(10));
        s.on_packet(&rec(0, Direction::Inbound, 42)); // wire 100
        s.on_packet(&rec(5, Direction::Outbound, 42));
        s.on_packet(&rec(12, Direction::Inbound, 142)); // wire 200
        s.on_end(SimTime::from_millis(29));
        assert_eq!(s.bins().len(), 3);
        assert_eq!(
            s.bins()[0],
            RateBin {
                packets: 2,
                wire_bytes: 200
            }
        );
        assert_eq!(
            s.bins()[1],
            RateBin {
                packets: 1,
                wire_bytes: 200
            }
        );
        assert_eq!(s.bins()[2], RateBin::default());
    }

    #[test]
    fn bin_edges_are_exact_without_dividing() {
        // The last nanosecond of a bin stays in it; the next opens the
        // following bin, as `t / width` would put them.
        let mut s = RateSeries::new(SimDuration::from_millis(10));
        for ns in [0, 9_999_999, 10_000_000, 19_999_999, 30_000_000, 39_999_999] {
            s.add_run(SimTime::from_nanos(ns), 1, 100);
        }
        s.on_end(SimTime::from_millis(40));
        let packets: Vec<u64> = s.bins().iter().map(|b| b.packets).collect();
        assert_eq!(packets, vec![2, 2, 0, 2]);
    }

    #[test]
    fn pps_and_kbps() {
        let mut s = RateSeries::new(SimDuration::from_millis(100));
        for i in 0..5 {
            s.on_packet(&rec(i * 10, Direction::Inbound, 67)); // wire 125 B
        }
        s.on_end(SimTime::from_millis(99));
        assert_eq!(s.pps(), vec![50.0]);
        // 5 * 125 B = 625 B in 0.1 s → 50 kbps.
        assert_eq!(s.kbps(), vec![50.0]);
    }

    #[test]
    fn gaps_materialize_empty_bins() {
        let mut s = RateSeries::new(SimDuration::from_secs(1));
        s.on_packet(&rec(500, Direction::Inbound, 40));
        s.on_packet(&rec(3_500, Direction::Inbound, 40));
        s.on_end(SimTime::from_millis(3_999));
        let pkts: Vec<u64> = s.bins().iter().map(|b| b.packets).collect();
        assert_eq!(pkts, vec![1, 0, 0, 1]);
    }

    #[test]
    fn direction_filter() {
        let mut s = RateSeries::with_options(
            SimDuration::from_millis(10),
            Some(Direction::Outbound),
            None,
        );
        s.on_packet(&rec(1, Direction::Inbound, 40));
        s.on_packet(&rec(2, Direction::Outbound, 130));
        s.on_packet(&rec(3, Direction::Outbound, 130));
        s.on_end(SimTime::from_millis(9));
        assert_eq!(s.bins()[0].packets, 2);
    }

    #[test]
    fn limit_caps_storage_but_not_stats() {
        let mut s = RateSeries::with_options(SimDuration::from_millis(10), None, Some(3));
        for i in 0..10 {
            s.on_packet(&rec(i * 10 + 1, Direction::Inbound, 40));
        }
        s.on_end(SimTime::from_millis(99));
        assert_eq!(s.bins().len(), 3);
        assert_eq!(s.bin_stats().count(), 10);
        assert!((s.bin_stats().mean() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn window_skips_prefix() {
        let mut s = RateSeries::with_window(SimDuration::from_millis(10), None, 5, Some(3));
        for i in 0..100u64 {
            s.on_packet(&rec(i * 10, Direction::Inbound, 40));
            s.on_packet(&rec(i * 10 + 2, Direction::Inbound, 40));
        }
        s.on_end(SimTime::from_millis(999));
        assert_eq!(s.bins().len(), 3);
        // All bins carry 2 packets; stats cover all 100 bins.
        assert!(s.bins().iter().all(|b| b.packets == 2));
        assert_eq!(s.bin_stats().count(), 100);
    }

    #[test]
    fn trailing_empty_bins_padded_to_end() {
        let mut s = RateSeries::new(SimDuration::from_secs(1));
        s.on_packet(&rec(100, Direction::Inbound, 40));
        s.on_end(SimTime::from_millis(4_999));
        assert_eq!(s.bins().len(), 5);
        assert_eq!(s.bin_stats().count(), 5);
    }

    #[test]
    fn bin_stats_variance_of_constant_rate_is_zero() {
        let mut s = RateSeries::new(SimDuration::from_millis(10));
        for i in 0..100u64 {
            s.on_packet(&rec(i * 10, Direction::Inbound, 40));
            s.on_packet(&rec(i * 10 + 5, Direction::Inbound, 40));
        }
        s.on_end(SimTime::from_millis(999));
        assert!((s.bin_stats().mean() - 2.0).abs() < 1e-12);
        assert!(s.bin_stats().variance() < 1e-12);
    }

    #[test]
    fn superpose_adds_bins_elementwise() {
        let feed = |offsets: &[u64]| {
            let mut s = RateSeries::new(SimDuration::from_secs(1));
            for &ms in offsets {
                s.on_packet(&rec(ms, Direction::Inbound, 40));
            }
            s.on_end(SimTime::from_millis(2_999));
            s
        };
        let mut a = feed(&[100, 200, 1_100]);
        let b = feed(&[150, 2_500]);
        assert_eq!(a.merge_superpose(&b), Ok(0));
        let pkts: Vec<u64> = a.bins().iter().map(|x| x.packets).collect();
        assert_eq!(pkts, vec![3, 1, 1]);
        // Stats are recomputed over the merged bins.
        assert_eq!(a.bin_stats().count(), 3);
        assert!((a.bin_stats().mean() - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn superpose_into_fresh_is_identity() {
        let mut src = RateSeries::new(SimDuration::from_secs(1));
        src.on_packet(&rec(100, Direction::Inbound, 40));
        src.on_packet(&rec(1_600, Direction::Outbound, 130));
        src.on_end(SimTime::from_millis(1_999));
        let mut fresh = RateSeries::new(SimDuration::from_secs(1));
        assert!(fresh.is_fresh());
        assert_eq!(fresh.merge_superpose(&src), Ok(0));
        assert_eq!(fresh.bins(), src.bins());
        assert_eq!(fresh.bin_stats().count(), src.bin_stats().count());
        assert_eq!(fresh.bin_stats().mean(), src.bin_stats().mean());
        assert_eq!(fresh.bin_stats().variance(), src.bin_stats().variance());
        assert_eq!(fresh.end(), src.end());
        assert!(!fresh.is_fresh());
    }

    #[test]
    fn superpose_counts_dropped_tail_bins() {
        let feed = |end_ms: u64| {
            let mut s = RateSeries::new(SimDuration::from_secs(1));
            s.on_packet(&rec(100, Direction::Inbound, 40));
            s.on_end(SimTime::from_millis(end_ms));
            s
        };
        let mut short = feed(1_999); // 2 bins
        let long = feed(4_999); // 5 bins
        assert_eq!(short.merge_superpose(&long), Ok(3));
        assert_eq!(short.bins().len(), 2);
    }

    #[test]
    fn superpose_order_independent_bins() {
        let feed = |seedish: u64| {
            let mut s = RateSeries::new(SimDuration::from_millis(100));
            for i in 0..20u64 {
                s.on_packet(&rec(i * 97 + seedish, Direction::Inbound, 40));
            }
            s.on_end(SimTime::from_millis(1_999));
            s
        };
        let (a, b, c) = (feed(1), feed(5), feed(11));
        let mut ab = RateSeries::new(SimDuration::from_millis(100));
        for s in [&a, &b, &c] {
            ab.merge_superpose(s).unwrap();
        }
        let mut cb = RateSeries::new(SimDuration::from_millis(100));
        for s in [&c, &b, &a] {
            cb.merge_superpose(s).unwrap();
        }
        assert_eq!(ab.bins(), cb.bins());
        assert_eq!(ab.bin_stats().mean(), cb.bin_stats().mean());
        assert_eq!(ab.bin_stats().variance(), cb.bin_stats().variance());
    }

    #[test]
    fn superpose_rejects_mismatch_and_unfinished() {
        let mut a = RateSeries::new(SimDuration::from_secs(1));
        a.on_packet(&rec(0, Direction::Inbound, 40));
        a.on_end(SimTime::from_millis(999));
        let b = RateSeries::new(SimDuration::from_secs(2));
        assert!(matches!(
            a.merge_superpose(&b),
            Err(MergeError::WidthMismatch { .. })
        ));
        let c = RateSeries::with_options(SimDuration::from_secs(1), Some(Direction::Inbound), None);
        assert_eq!(a.merge_superpose(&c), Err(MergeError::FilterMismatch));
        let d = RateSeries::with_window(SimDuration::from_secs(1), None, 3, None);
        assert_eq!(a.merge_superpose(&d), Err(MergeError::WindowMismatch));
        let mut unfinished = RateSeries::new(SimDuration::from_secs(1));
        unfinished.on_packet(&rec(0, Direction::Inbound, 40));
        assert_eq!(a.merge_superpose(&unfinished), Err(MergeError::Unfinished));
    }
}
