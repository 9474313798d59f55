//! Columnar (struct-of-arrays) packet batches.
//!
//! A [`PacketBatch`] holds the same information as a `&[TraceRecord]` burst,
//! transposed into parallel columns: timestamps, application sizes, flow
//! keys (session ids) and a packed direction/kind tag byte per packet. Hot
//! sinks consume whole columns — run-folded bin accounting walks only the
//! timestamp column, size histograms walk only the size column — so the
//! inner loops touch dense, homogeneous memory and vectorize.
//!
//! The batch is a *view format*, not a new source of truth: every row can be
//! reconstructed exactly as the [`TraceRecord`] it was built from (see
//! [`PacketBatch::record`]), which is what the default
//! [`TraceSink::on_columns`](crate::TraceSink::on_columns) shim does for
//! sinks without a column adapter. An analyzer with one has a single fold
//! that both its `on_packet` and its `on_columns` call — the column side
//! only pre-aggregates with [`PacketBatch::bin_runs`] and
//! [`PacketBatch::lane_totals`] — so the two deliveries cannot disagree;
//! the differential tests in `csprov` check it anyway.

use crate::packet::{Direction, PacketKind, WIRE_OVERHEAD_BYTES};
use crate::trace::TraceRecord;
use csprov_sim::{SimDuration, SimTime};
use std::ops::Range;

/// Bit set in a tag byte for outbound packets.
pub const TAG_DIR_BIT: u8 = 0x80;
/// Mask selecting the packet-kind bits of a tag byte.
pub const TAG_KIND_MASK: u8 = 0x7F;

/// Packs a direction and kind into one tag byte.
fn tag_of(direction: Direction, kind: PacketKind) -> u8 {
    let dir = match direction {
        Direction::Inbound => 0,
        Direction::Outbound => TAG_DIR_BIT,
    };
    dir | kind.as_u8()
}

/// A burst of trace records transposed into parallel columns.
///
/// Rows are in delivery order (non-decreasing time, like any sink input).
/// The batch is reusable: [`PacketBatch::clear`] retains the column
/// allocations so a producer can fill it once per burst without
/// reallocating.
#[derive(Debug, Clone, Default)]
pub struct PacketBatch {
    times_ns: Vec<u64>,
    app_lens: Vec<u32>,
    sessions: Vec<u32>,
    tags: Vec<u8>,
}

impl PacketBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty batch with room for `n` rows per column.
    pub fn with_capacity(n: usize) -> Self {
        PacketBatch {
            times_ns: Vec::with_capacity(n),
            app_lens: Vec::with_capacity(n),
            sessions: Vec::with_capacity(n),
            tags: Vec::with_capacity(n),
        }
    }

    /// Transposes a record slice into a fresh batch.
    pub fn from_records(recs: &[TraceRecord]) -> Self {
        let mut batch = Self::with_capacity(recs.len());
        batch.extend_from_records(recs);
        batch
    }

    /// Appends one record as a new row.
    pub fn push(&mut self, rec: &TraceRecord) {
        self.times_ns.push(rec.time.as_nanos());
        self.app_lens.push(rec.app_len);
        self.sessions.push(rec.session);
        self.tags.push(tag_of(rec.direction, rec.kind));
    }

    /// Appends every record in the slice. One pass per column: each
    /// `extend` gets an exact-size iterator, so the per-element capacity and
    /// length bookkeeping of four interleaved pushes collapses into four
    /// tight gather loops.
    pub fn extend_from_records(&mut self, recs: &[TraceRecord]) {
        self.times_ns.extend(recs.iter().map(|r| r.time.as_nanos()));
        self.app_lens.extend(recs.iter().map(|r| r.app_len));
        self.sessions.extend(recs.iter().map(|r| r.session));
        self.tags
            .extend(recs.iter().map(|r| tag_of(r.direction, r.kind)));
    }

    /// Empties the batch, keeping the column allocations for reuse.
    pub fn clear(&mut self) {
        self.times_ns.clear();
        self.app_lens.clear();
        self.sessions.clear();
        self.tags.clear();
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.times_ns.len()
    }

    /// True if the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.times_ns.is_empty()
    }

    /// The timestamp column, in nanoseconds.
    pub fn times_ns(&self) -> &[u64] {
        &self.times_ns
    }

    /// The application-payload-size column, in bytes.
    pub fn app_lens(&self) -> &[u32] {
        &self.app_lens
    }

    /// The session (flow key) column; `u32::MAX` marks sessionless traffic.
    pub fn sessions(&self) -> &[u32] {
        &self.sessions
    }

    /// The packed direction/kind tag column. Bit 7 ([`TAG_DIR_BIT`]) is the
    /// direction (set = outbound); the low bits ([`TAG_KIND_MASK`]) are the
    /// [`PacketKind`] tag.
    pub fn tags(&self) -> &[u8] {
        &self.tags
    }

    /// Direction of row `i` as the `[inbound, outbound]` array index the
    /// analyzers use — `0` inbound, `1` outbound.
    pub fn dir_index(&self, i: usize) -> usize {
        usize::from(self.tags[i] >> 7)
    }

    /// Direction of row `i`.
    pub fn direction(&self, i: usize) -> Direction {
        if self.tags[i] & TAG_DIR_BIT == 0 {
            Direction::Inbound
        } else {
            Direction::Outbound
        }
    }

    /// Kind of row `i`.
    pub fn kind(&self, i: usize) -> PacketKind {
        // Tags are only ever written by `push`, so the kind bits are always
        // a valid `PacketKind`; the fallback is unreachable but keeps this
        // path free of panicking constructs.
        PacketKind::from_u8(self.tags[i] & TAG_KIND_MASK).unwrap_or(PacketKind::ClientCommand)
    }

    /// Wire length of row `i` under the paper's accounting. Widened to
    /// `u64` so a foreign near-`u32::MAX` size cannot wrap.
    pub fn wire_len(&self, i: usize) -> u64 {
        u64::from(self.app_lens[i]) + u64::from(WIRE_OVERHEAD_BYTES)
    }

    /// Per-direction totals over `rows`: packets and application bytes,
    /// each indexed `[inbound, outbound]`. The direction bit of the tag is
    /// the lane index, so the loop has no data-dependent branches.
    pub fn lane_totals(&self, rows: Range<usize>) -> ([u64; 2], [u64; 2]) {
        let mut packets = [0u64; 2];
        let mut app = [0u64; 2];
        for (tag, len) in self.tags[rows.clone()].iter().zip(&self.app_lens[rows]) {
            let d = usize::from(tag >> 7);
            packets[d] += 1;
            app[d] += u64::from(*len);
        }
        (packets, app)
    }

    /// Splits the rows into maximal runs that fall in one `width`-wide time
    /// bin, yielding each run's first timestamp and its row range. A run
    /// ends where the timestamp column leaves the bin, so finding it costs
    /// one division however many rows it holds. `width` must be non-zero.
    pub fn bin_runs(
        &self,
        width: SimDuration,
    ) -> impl Iterator<Item = (SimTime, Range<usize>)> + '_ {
        let width = width.as_nanos();
        let times = &self.times_ns[..];
        let mut start = 0;
        std::iter::from_fn(move || {
            let first = *times.get(start)?;
            let lo = first - first % width;
            let hi = lo.saturating_add(width);
            // The first row always opens the run, even where `hi` saturated.
            let run = 1 + times[start + 1..]
                .iter()
                .take_while(|&&t| t >= lo && t < hi)
                .count();
            let rows = start..start + run;
            start += run;
            Some((SimTime::from_nanos(first), rows))
        })
    }

    /// Reconstructs row `i` as the record it was built from.
    pub fn record(&self, i: usize) -> TraceRecord {
        TraceRecord {
            time: SimTime::from_nanos(self.times_ns[i]),
            direction: self.direction(i),
            kind: self.kind(i),
            session: self.sessions[i],
            app_len: self.app_lens[i],
        }
    }

    /// Iterates the rows as reconstructed records.
    pub fn iter_records(&self) -> impl Iterator<Item = TraceRecord> + '_ {
        (0..self.len()).map(move |i| self.record(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ms: u64, dir: Direction, kind: PacketKind, session: u32, len: u32) -> TraceRecord {
        TraceRecord {
            time: SimTime::from_millis(ms),
            direction: dir,
            kind,
            session,
            app_len: len,
        }
    }

    #[test]
    fn roundtrips_every_kind_and_direction() {
        let mut recs = Vec::new();
        for (i, kind) in PacketKind::ALL.iter().enumerate() {
            for dir in [Direction::Inbound, Direction::Outbound] {
                recs.push(rec(i as u64, dir, *kind, i as u32, 10 + i as u32));
            }
        }
        recs.push(rec(
            99,
            Direction::Outbound,
            PacketKind::ServerInfo,
            u32::MAX,
            0,
        ));
        let batch = PacketBatch::from_records(&recs);
        assert_eq!(batch.len(), recs.len());
        let back: Vec<TraceRecord> = batch.iter_records().collect();
        assert_eq!(back, recs);
    }

    #[test]
    fn columns_line_up_with_rows() {
        let recs = vec![
            rec(0, Direction::Inbound, PacketKind::ClientCommand, 3, 40),
            rec(1, Direction::Outbound, PacketKind::StateUpdate, 7, 130),
        ];
        let batch = PacketBatch::from_records(&recs);
        assert_eq!(batch.times_ns(), &[0, 1_000_000]);
        assert_eq!(batch.app_lens(), &[40, 130]);
        assert_eq!(batch.sessions(), &[3, 7]);
        assert_eq!(batch.dir_index(0), 0);
        assert_eq!(batch.dir_index(1), 1);
        assert_eq!(batch.wire_len(1), 130 + u64::from(WIRE_OVERHEAD_BYTES));
        assert_eq!(batch.kind(1), PacketKind::StateUpdate);
    }

    #[test]
    fn lane_totals_split_by_direction() {
        let recs = vec![
            rec(0, Direction::Inbound, PacketKind::ClientCommand, 1, 40),
            rec(0, Direction::Outbound, PacketKind::StateUpdate, 1, 130),
            rec(1, Direction::Outbound, PacketKind::StateUpdate, 2, 150),
        ];
        let batch = PacketBatch::from_records(&recs);
        assert_eq!(batch.lane_totals(0..3), ([1, 2], [40, 280]));
        assert_eq!(batch.lane_totals(1..2), ([0, 1], [0, 130]));
        assert_eq!(batch.lane_totals(2..2), ([0, 0], [0, 0]));
    }

    #[test]
    fn bin_runs_break_where_the_bin_changes() {
        let at = |ms: u64| rec(ms, Direction::Inbound, PacketKind::ClientCommand, 1, 40);
        let batch = PacketBatch::from_records(&[at(1), at(4), at(12), at(25), at(29), at(3)]);
        let runs: Vec<(u64, Range<usize>)> = batch
            .bin_runs(SimDuration::from_millis(10))
            .map(|(t, rows)| (t.as_nanos() / 1_000_000, rows))
            .collect();
        // An out-of-order row opens a run of its own, like any bin change.
        assert_eq!(runs, vec![(1, 0..2), (12, 2..3), (25, 3..5), (3, 5..6)]);
        assert_eq!(
            PacketBatch::new()
                .bin_runs(SimDuration::from_millis(10))
                .count(),
            0
        );
    }

    #[test]
    fn wire_len_does_not_wrap() {
        let big = rec(
            0,
            Direction::Inbound,
            PacketKind::ClientCommand,
            1,
            u32::MAX,
        );
        let batch = PacketBatch::from_records(&[big]);
        assert_eq!(
            batch.wire_len(0),
            u64::from(u32::MAX) + u64::from(WIRE_OVERHEAD_BYTES)
        );
        assert_eq!(batch.wire_len(0), big.wire_len());
    }

    #[test]
    fn clear_retains_capacity() {
        let recs = vec![rec(0, Direction::Inbound, PacketKind::ClientCommand, 1, 40); 64];
        let mut batch = PacketBatch::from_records(&recs);
        let cap = batch.times_ns.capacity();
        batch.clear();
        assert!(batch.is_empty());
        assert_eq!(batch.times_ns.capacity(), cap);
        batch.extend_from_records(&recs[..8]);
        assert_eq!(batch.len(), 8);
    }
}
