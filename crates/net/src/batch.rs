//! Columnar (struct-of-arrays) packet batches.
//!
//! A [`PacketBatch`] is one burst: packets observed at a single instant,
//! the way a server tick emits one snapshot per player at once. It holds
//! that instant once and the rows transposed into parallel columns:
//! application sizes, flow keys (session ids) and a packed direction/kind
//! tag byte per packet. Hot sinks consume whole columns — a bin series
//! folds the whole burst into the bin holding its instant, a size
//! histogram walks only the size column — so the inner loops touch dense,
//! homogeneous memory and vectorize.
//!
//! The batch is a *view format*, not a new source of truth: every row can be
//! reconstructed exactly as a [`TraceRecord`] stamped with the batch's
//! instant (see [`PacketBatch::record`]), which is what the default
//! [`TraceSink::on_columns`](crate::TraceSink::on_columns) shim does for
//! sinks without a column adapter. An analyzer with one has a single fold
//! that both its `on_packet` and its `on_columns` call — the column side
//! only pre-aggregates with [`PacketBatch::lane_totals`] — so the two
//! deliveries cannot disagree; the differential tests in `csprov` check it
//! anyway.

use crate::packet::{Direction, PacketKind, WIRE_OVERHEAD_BYTES};
use crate::trace::TraceRecord;
use csprov_sim::SimTime;

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

/// One burst of packets observed at one instant, in parallel columns.
///
/// Rows are in delivery order. The batch is reusable: [`PacketBatch::start`]
/// opens the next burst and retains the column allocations, so a producer
/// can fill it once per burst without reallocating.
#[derive(Debug, Clone, Default)]
pub struct PacketBatch {
    time: SimTime,
    app_lens: Vec<u32>,
    sessions: Vec<u32>,
    tags: Vec<u8>,
}

impl PacketBatch {
    /// An empty batch at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the batch and opens a burst at `time`, keeping the column
    /// allocations for reuse.
    pub fn start(&mut self, time: SimTime) {
        self.time = time;
        self.app_lens.clear();
        self.sessions.clear();
        self.tags.clear();
    }

    /// Appends one packet to the burst; it shares the burst's instant.
    pub fn push(&mut self, direction: Direction, kind: PacketKind, session: u32, app_len: u32) {
        self.app_lens.push(app_len);
        self.sessions.push(session);
        self.tags.push(tag_of(direction, kind));
    }

    /// The instant every row of the burst was observed at.
    pub fn time(&self) -> SimTime {
        self.time
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// True if the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
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

    /// Per-direction totals of the burst: packets and application bytes,
    /// each indexed `[inbound, outbound]`. The direction bit of the tag is
    /// the lane index, so the loop has no data-dependent branches.
    pub fn lane_totals(&self) -> ([u64; 2], [u64; 2]) {
        let mut packets = [0u64; 2];
        let mut app = [0u64; 2];
        for (tag, len) in self.tags.iter().zip(&self.app_lens) {
            let d = usize::from(tag >> 7);
            packets[d] += 1;
            app[d] += u64::from(*len);
        }
        (packets, app)
    }

    /// Reconstructs row `i` as a record at the burst's instant.
    pub fn record(&self, i: usize) -> TraceRecord {
        TraceRecord {
            time: self.time,
            direction: self.direction(i),
            kind: self.kind(i),
            session: self.sessions[i],
            app_len: self.app_lens[i],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A burst at `ms` holding `rows` of `(direction, kind, session, len)`.
    fn burst(ms: u64, rows: &[(Direction, PacketKind, u32, u32)]) -> PacketBatch {
        let mut batch = PacketBatch::new();
        batch.start(SimTime::from_millis(ms));
        for &(dir, kind, session, len) in rows {
            batch.push(dir, kind, session, len);
        }
        batch
    }

    #[test]
    fn roundtrips_every_kind_and_direction() {
        let mut rows = Vec::new();
        for (i, kind) in PacketKind::ALL.iter().enumerate() {
            for dir in [Direction::Inbound, Direction::Outbound] {
                rows.push((dir, *kind, i as u32, 10 + i as u32));
            }
        }
        rows.push((Direction::Outbound, PacketKind::ServerInfo, u32::MAX, 0));
        let batch = burst(99, &rows);
        assert_eq!(batch.len(), rows.len());
        assert_eq!(batch.time(), SimTime::from_millis(99));
        for (i, &(direction, kind, session, app_len)) in rows.iter().enumerate() {
            let expected = TraceRecord {
                time: SimTime::from_millis(99),
                direction,
                kind,
                session,
                app_len,
            };
            assert_eq!(batch.record(i), expected);
        }
    }

    #[test]
    fn columns_line_up_with_rows() {
        let batch = burst(
            1,
            &[
                (Direction::Inbound, PacketKind::ClientCommand, 3, 40),
                (Direction::Outbound, PacketKind::StateUpdate, 7, 130),
            ],
        );
        assert_eq!(batch.app_lens(), &[40, 130]);
        assert_eq!(batch.sessions(), &[3, 7]);
        assert_eq!(
            batch.tags(),
            &[
                PacketKind::ClientCommand.as_u8(),
                0x80 | PacketKind::StateUpdate.as_u8()
            ]
        );
        assert_eq!(batch.direction(0), Direction::Inbound);
        assert_eq!(batch.direction(1), Direction::Outbound);
        assert_eq!(batch.wire_len(1), 130 + u64::from(WIRE_OVERHEAD_BYTES));
        assert_eq!(batch.kind(1), PacketKind::StateUpdate);
    }

    #[test]
    fn lane_totals_split_by_direction() {
        let batch = burst(
            0,
            &[
                (Direction::Inbound, PacketKind::ClientCommand, 1, 40),
                (Direction::Outbound, PacketKind::StateUpdate, 1, 130),
                (Direction::Outbound, PacketKind::StateUpdate, 2, 150),
            ],
        );
        assert_eq!(batch.lane_totals(), ([1, 2], [40, 280]));
        let outbound = burst(0, &[(Direction::Outbound, PacketKind::StateUpdate, 1, 130)]);
        assert_eq!(outbound.lane_totals(), ([0, 1], [0, 130]));
        assert_eq!(PacketBatch::new().lane_totals(), ([0, 0], [0, 0]));
    }

    #[test]
    fn wire_len_does_not_wrap() {
        let big = TraceRecord {
            time: SimTime::ZERO,
            direction: Direction::Inbound,
            kind: PacketKind::ClientCommand,
            session: 1,
            app_len: u32::MAX,
        };
        let batch = burst(0, &[(big.direction, big.kind, big.session, big.app_len)]);
        assert_eq!(
            batch.wire_len(0),
            u64::from(u32::MAX) + u64::from(WIRE_OVERHEAD_BYTES)
        );
        assert_eq!(batch.wire_len(0), big.wire_len());
    }

    #[test]
    fn clear_retains_capacity() {
        let row = (Direction::Inbound, PacketKind::ClientCommand, 1, 40);
        let mut batch = burst(0, &[row; 64]);
        let cap = batch.tags.capacity();
        batch.start(SimTime::from_millis(50));
        assert!(batch.is_empty());
        assert_eq!(batch.time(), SimTime::from_millis(50));
        assert_eq!(batch.tags.capacity(), cap);
        for _ in 0..8 {
            batch.push(row.0, row.1, row.2, row.3);
        }
        assert_eq!(batch.len(), 8);
        assert_eq!(batch.record(7).time, SimTime::from_millis(50));
    }
}
