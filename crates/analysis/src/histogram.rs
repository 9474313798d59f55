//! Histograms, PDFs and CDFs.
//!
//! [`SizeHistogram`] reproduces Figures 12/13 (packet-size PDF/CDF at 1-byte
//! resolution); [`Histogram`] is a general fixed-width binner used for the
//! client bandwidth histogram of Figure 11.

use crate::merge::MergeError;
use csprov_net::{Direction, PacketBatch, TraceRecord, TraceSink};

/// Packet-size histogram at 1-byte resolution, split by direction.
#[derive(Debug, Clone)]
pub struct SizeHistogram {
    pub(crate) max_size: usize,
    pub(crate) counts: [Vec<u64>; 2], // [inbound, outbound]
    pub(crate) overflow: [u64; 2],
}

impl SizeHistogram {
    /// Creates a histogram covering application sizes `0..=max_size` bytes;
    /// larger packets are pooled in an overflow bucket.
    pub fn new(max_size: usize) -> Self {
        SizeHistogram {
            max_size,
            counts: [vec![0; max_size + 1], vec![0; max_size + 1]],
            overflow: [0, 0],
        }
    }

    fn dir_idx(d: Direction) -> usize {
        match d {
            Direction::Inbound => 0,
            Direction::Outbound => 1,
        }
    }

    /// Records one packet size: the histogram's one fold, which both
    /// `on_packet` and `on_columns` call per row.
    #[inline]
    pub fn record(&mut self, direction: Direction, size: u32) {
        let i = Self::dir_idx(direction);
        let s = size as usize;
        if s <= self.max_size {
            self.counts[i][s] += 1;
        } else {
            self.overflow[i] += 1;
        }
    }

    /// Total packets recorded in one direction (including overflow).
    pub fn total(&self, d: Direction) -> u64 {
        let i = Self::dir_idx(d);
        self.counts[i].iter().sum::<u64>() + self.overflow[i]
    }

    /// Total packets in both directions.
    pub fn grand_total(&self) -> u64 {
        self.total(Direction::Inbound) + self.total(Direction::Outbound)
    }

    /// Packets beyond `max_size` in one direction.
    pub fn overflow(&self, d: Direction) -> u64 {
        self.overflow[Self::dir_idx(d)]
    }

    /// Probability density over sizes `0..=max_size` for one direction.
    pub fn pdf(&self, d: Direction) -> Vec<f64> {
        let total = self.total(d);
        let i = Self::dir_idx(d);
        if total == 0 {
            return vec![0.0; self.max_size + 1];
        }
        self.counts[i]
            .iter()
            .map(|&c| c as f64 / total as f64)
            .collect()
    }

    /// Combined-direction probability density.
    pub fn pdf_total(&self) -> Vec<f64> {
        let total = self.grand_total();
        if total == 0 {
            return vec![0.0; self.max_size + 1];
        }
        (0..=self.max_size)
            .map(|s| (self.counts[0][s] + self.counts[1][s]) as f64 / total as f64)
            .collect()
    }

    /// Cumulative distribution over sizes `0..=max_size` for one direction.
    pub fn cdf(&self, d: Direction) -> Vec<f64> {
        cumsum(&self.pdf(d))
    }

    /// Combined-direction cumulative distribution.
    pub fn cdf_total(&self) -> Vec<f64> {
        cumsum(&self.pdf_total())
    }

    /// Mean recorded size for one direction (overflow excluded).
    pub fn mean(&self, d: Direction) -> f64 {
        let i = Self::dir_idx(d);
        let n: u64 = self.counts[i].iter().sum();
        if n == 0 {
            return 0.0;
        }
        let sum: u64 = self.counts[i]
            .iter()
            .enumerate()
            .map(|(s, &c)| s as u64 * c)
            .sum();
        sum as f64 / n as f64
    }

    /// Smallest size `s` with `CDF(s) >= q` for one direction.
    pub fn quantile(&self, d: Direction, q: f64) -> usize {
        assert!((0.0..=1.0).contains(&q));
        let cdf = self.cdf(d);
        cdf.iter().position(|&c| c >= q).unwrap_or(self.max_size)
    }

    /// Superposes another histogram: per-size and overflow counts add.
    /// Exact and order-independent (integer addition); requires identical
    /// size ranges.
    pub fn merge(&mut self, other: &SizeHistogram) -> Result<(), MergeError> {
        if self.max_size != other.max_size {
            return Err(MergeError::ShapeMismatch);
        }
        for dir in 0..2 {
            for (a, b) in self.counts[dir].iter_mut().zip(&other.counts[dir]) {
                *a += b;
            }
            self.overflow[dir] += other.overflow[dir];
        }
        Ok(())
    }
}

fn cumsum(pdf: &[f64]) -> Vec<f64> {
    let mut acc = 0.0;
    pdf.iter()
        .map(|&p| {
            acc += p;
            acc
        })
        .collect()
}

impl TraceSink for SizeHistogram {
    #[inline]
    fn on_packet(&mut self, rec: &TraceRecord) {
        self.record(rec.direction, rec.app_len);
    }

    fn on_columns(&mut self, batch: &PacketBatch) {
        for (i, &size) in batch.app_lens().iter().enumerate() {
            self.record(batch.direction(i), size);
        }
    }
}

/// A general fixed-width histogram over `f64` values.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    bin_width: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `bins` equal-width bins.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(hi > lo && bins > 0);
        Histogram {
            lo,
            bin_width: (hi - lo) / bins as f64,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Records one value.
    pub fn record(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
            return;
        }
        let idx = ((x - self.lo) / self.bin_width) as usize;
        if idx >= self.counts.len() {
            self.overflow += 1;
        } else {
            self.counts[idx] += 1;
        }
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Count of values below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Count of values at or above the range end.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total recorded values, including out-of-range.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// The `(lower_edge, count)` pairs for each bin.
    pub fn bins(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .map(move |(i, &c)| (self.lo + i as f64 * self.bin_width, c))
    }

    /// The lower edge of the fullest bin (`None` if all bins are empty).
    pub fn mode_bin(&self) -> Option<f64> {
        let (idx, &max) = self.counts.iter().enumerate().max_by_key(|&(_, &c)| c)?;
        (max > 0).then_some(self.lo + idx as f64 * self.bin_width)
    }

    /// Superposes another histogram: bin, underflow and overflow counts add.
    /// Exact and order-independent (integer addition); requires identical
    /// range and bin count (`lo` and `bin_width` compared bit-for-bit).
    pub fn merge(&mut self, other: &Histogram) -> Result<(), MergeError> {
        if self.counts.len() != other.counts.len()
            || self.lo.to_bits() != other.lo.to_bits()
            || self.bin_width.to_bits() != other.bin_width.to_bits()
        {
            return Err(MergeError::ShapeMismatch);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csprov_net::PacketKind;
    use csprov_sim::SimTime;

    fn rec(dir: Direction, len: u32) -> TraceRecord {
        TraceRecord {
            time: SimTime::ZERO,
            direction: dir,
            kind: PacketKind::ClientCommand,
            session: 0,
            app_len: len,
        }
    }

    #[test]
    fn pdf_sums_to_one() {
        let mut h = SizeHistogram::new(500);
        for s in [40u32, 40, 42, 130, 250] {
            h.record(Direction::Inbound, s);
        }
        let pdf = h.pdf(Direction::Inbound);
        assert!((pdf.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((pdf[40] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn cdf_monotone_and_ends_at_one() {
        let mut h = SizeHistogram::new(500);
        for s in 0..100u32 {
            h.record(Direction::Outbound, s * 3);
        }
        let cdf = h.cdf(Direction::Outbound);
        for w in cdf.windows(2) {
            assert!(w[1] >= w[0] - 1e-15);
        }
        assert!((cdf[500] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn directions_tracked_separately() {
        let mut h = SizeHistogram::new(500);
        h.on_packet(&rec(Direction::Inbound, 40));
        h.on_packet(&rec(Direction::Outbound, 130));
        h.on_packet(&rec(Direction::Outbound, 150));
        assert_eq!(h.total(Direction::Inbound), 1);
        assert_eq!(h.total(Direction::Outbound), 2);
        assert_eq!(h.grand_total(), 3);
        assert_eq!(h.mean(Direction::Inbound), 40.0);
        assert_eq!(h.mean(Direction::Outbound), 140.0);
    }

    #[test]
    fn overflow_pooled() {
        let mut h = SizeHistogram::new(100);
        h.record(Direction::Inbound, 1500);
        h.record(Direction::Inbound, 50);
        assert_eq!(h.overflow(Direction::Inbound), 1);
        assert_eq!(h.total(Direction::Inbound), 2);
        // Overflow affects totals (and thus the PDF normalization).
        assert!((h.pdf(Direction::Inbound)[50] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn quantiles() {
        let mut h = SizeHistogram::new(500);
        for s in 1..=100u32 {
            h.record(Direction::Inbound, s);
        }
        assert_eq!(h.quantile(Direction::Inbound, 0.5), 50);
        assert_eq!(h.quantile(Direction::Inbound, 1.0), 100);
        assert_eq!(h.quantile(Direction::Inbound, 0.0), 0);
    }

    #[test]
    fn pdf_total_combines() {
        let mut h = SizeHistogram::new(10);
        h.record(Direction::Inbound, 4);
        h.record(Direction::Outbound, 8);
        let pdf = h.pdf_total();
        assert!((pdf[4] - 0.5).abs() < 1e-12);
        assert!((pdf[8] - 0.5).abs() < 1e-12);
        let cdf = h.cdf_total();
        assert!((cdf[10] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram() {
        let h = SizeHistogram::new(10);
        assert_eq!(h.total(Direction::Inbound), 0);
        assert_eq!(h.pdf(Direction::Inbound), vec![0.0; 11]);
        assert_eq!(h.mean(Direction::Outbound), 0.0);
    }

    #[test]
    fn float_histogram_bins() {
        let mut h = Histogram::new(0.0, 100.0, 10);
        h.record(5.0);
        h.record(15.0);
        h.record(15.5);
        h.record(99.999);
        h.record(100.0); // overflow
        h.record(-1.0); // underflow
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[1], 2);
        assert_eq!(h.counts()[9], 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.total(), 6);
        assert_eq!(h.mode_bin(), Some(10.0));
    }

    #[test]
    fn float_histogram_edges() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(0.0);
        h.record(9.999_999);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[9], 1);
        let edges: Vec<f64> = h.bins().map(|(e, _)| e).collect();
        assert_eq!(edges[0], 0.0);
        assert_eq!(edges[9], 9.0);
    }

    #[test]
    fn empty_float_histogram_has_no_mode() {
        let h = Histogram::new(0.0, 1.0, 4);
        assert_eq!(h.mode_bin(), None);
    }

    #[test]
    fn size_histogram_merge_superposes() {
        let mut a = SizeHistogram::new(100);
        a.record(Direction::Inbound, 40);
        a.record(Direction::Outbound, 130); // overflow
        let mut b = SizeHistogram::new(100);
        b.record(Direction::Inbound, 40);
        b.record(Direction::Inbound, 60);
        a.merge(&b).unwrap();
        assert_eq!(a.total(Direction::Inbound), 3);
        assert_eq!(a.overflow(Direction::Outbound), 1);
        assert!((a.pdf(Direction::Inbound)[40] - 2.0 / 3.0).abs() < 1e-12);

        let c = SizeHistogram::new(50);
        assert_eq!(a.merge(&c), Err(MergeError::ShapeMismatch));
    }

    #[test]
    fn float_histogram_merge_superposes() {
        let mut a = Histogram::new(0.0, 100.0, 10);
        a.record(5.0);
        a.record(-1.0);
        let mut b = Histogram::new(0.0, 100.0, 10);
        b.record(5.0);
        b.record(200.0);
        a.merge(&b).unwrap();
        assert_eq!(a.counts()[0], 2);
        assert_eq!(a.underflow(), 1);
        assert_eq!(a.overflow(), 1);
        assert_eq!(a.total(), 4);

        let c = Histogram::new(0.0, 100.0, 20);
        assert_eq!(a.merge(&c), Err(MergeError::ShapeMismatch));
        let d = Histogram::new(1.0, 101.0, 10);
        assert_eq!(a.merge(&d), Err(MergeError::ShapeMismatch));
    }
}
