//! Trace capture: the stream of observed packets and where it goes.
//!
//! A full-week run emits on the order of 5×10⁸ packets, so records are never
//! accumulated by default — they flow through [`TraceSink`] implementations
//! that fold them online (the analysis crate provides the interesting ones).
//! For persistence there is a compact fixed-width binary format
//! ([`TraceWriter`]/[`TraceReader`]) and a pcap exporter in [`crate::pcap`].

use crate::batch::PacketBatch;
use crate::error::Error;
use crate::packet::{Direction, Packet, PacketKind, WIRE_OVERHEAD_BYTES};
use csprov_sim::SimTime;
use std::io::{self, Read, Write};

/// Reads `buf.len()` bytes, distinguishing a clean end of stream (zero bytes
/// read → `Ok(false)`) from truncation mid-unit (some bytes read, then EOF).
pub(crate) fn read_full<R: Read>(
    inner: &mut R,
    buf: &mut [u8],
    truncation: Error,
) -> Result<bool, Error> {
    let mut filled = 0;
    while filled < buf.len() {
        match inner.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(false);
                }
                return Err(truncation);
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(Error::Io(e)),
        }
    }
    Ok(true)
}

pub(crate) fn le_u64(b: &[u8]) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(b);
    u64::from_le_bytes(a)
}

pub(crate) fn le_u32(b: &[u8]) -> u32 {
    let mut a = [0u8; 4];
    a.copy_from_slice(b);
    u32::from_le_bytes(a)
}

pub(crate) fn le_u16(b: &[u8]) -> u16 {
    let mut a = [0u8; 2];
    a.copy_from_slice(b);
    u16::from_le_bytes(a)
}

/// One observed packet, as recorded at a tap point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// Observation time.
    pub time: SimTime,
    /// Direction relative to the server.
    pub direction: Direction,
    /// Message kind.
    pub kind: PacketKind,
    /// Session (flow) id; `u32::MAX` for sessionless traffic.
    pub session: u32,
    /// Application payload bytes.
    pub app_len: u32,
}

impl TraceRecord {
    /// Builds a record from a packet observed at `time`.
    #[inline]
    pub fn from_packet(time: SimTime, p: &Packet) -> Self {
        TraceRecord {
            time,
            direction: p.direction,
            kind: p.kind,
            session: p.session,
            app_len: p.app_len,
        }
    }

    /// On-the-wire bytes for this packet under the paper's accounting.
    /// Widened to `u64` so a foreign near-`u32::MAX` size cannot wrap.
    #[inline]
    pub fn wire_len(&self) -> u64 {
        u64::from(self.app_len) + u64::from(WIRE_OVERHEAD_BYTES)
    }
}

/// A consumer of trace records.
///
/// Implementations must be cheap per record; they are on the hot path of the
/// simulation. The world delivers one `on_packet` per single packet and one
/// `on_columns` per non-empty server tick; an `on_columns` call is always
/// one instant's burst, every row observed at [`PacketBatch::time`]. Every
/// delivery method means "these records, in this order", so a sink
/// implements `on_packet` and the defaults cover the rest. A hot analyzer
/// keeps one fold and makes both `on_packet` and `on_columns` thin adapters
/// over it. A trace file is replayed by a [`TraceReader::read`] loop.
pub trait TraceSink {
    /// Called once per observed packet, in non-decreasing time order.
    fn on_packet(&mut self, rec: &TraceRecord);

    /// Called with a burst of records in non-decreasing time order. The
    /// default calls [`TraceSink::on_packet`] once per record. No library
    /// code calls it: bursts arrive through [`TraceSink::on_columns`]. It
    /// stays because perfbench's `TimedTap` overrides it.
    fn on_batch(&mut self, recs: &[TraceRecord]) {
        for rec in recs {
            self.on_packet(rec);
        }
    }

    /// Called with one instant's burst in columnar (struct-of-arrays) form.
    /// The default shim reconstructs each row and calls
    /// [`TraceSink::on_packet`]; hot analyzers pre-aggregate the columns
    /// (per-direction lanes) and hand the totals, stamped with the burst's
    /// instant, to the same fold `on_packet` uses.
    fn on_columns(&mut self, batch: &PacketBatch) {
        for i in 0..batch.len() {
            self.on_packet(&batch.record(i));
        }
    }

    /// Called when the trace ends, with the end-of-trace timestamp.
    fn on_end(&mut self, _end: SimTime) {}
}

/// A sink that discards everything (useful in benchmarks).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn on_packet(&mut self, _rec: &TraceRecord) {}

    fn on_columns(&mut self, _batch: &PacketBatch) {}
}

/// A sink that counts packets and bytes, split by direction.
#[derive(Debug, Default, Clone)]
pub struct CountingSink {
    /// Packets by direction: `[inbound, outbound]`.
    pub packets: [u64; 2],
    /// Application bytes by direction.
    pub app_bytes: [u64; 2],
    /// Wire bytes by direction.
    pub wire_bytes: [u64; 2],
    /// End-of-trace time, set by `on_end`.
    pub end: Option<SimTime>,
}

impl CountingSink {
    /// Creates a zeroed counting sink.
    pub fn new() -> Self {
        Self::default()
    }

    fn dir_idx(d: Direction) -> usize {
        match d {
            Direction::Inbound => 0,
            Direction::Outbound => 1,
        }
    }

    /// Total packets in both directions.
    pub fn total_packets(&self) -> u64 {
        self.packets[0] + self.packets[1]
    }

    /// Total wire bytes in both directions.
    pub fn total_wire_bytes(&self) -> u64 {
        self.wire_bytes[0] + self.wire_bytes[1]
    }

    /// Packets in one direction.
    pub fn packets_in(&self, d: Direction) -> u64 {
        self.packets[Self::dir_idx(d)]
    }

    /// Application bytes in one direction.
    pub fn app_bytes_in(&self, d: Direction) -> u64 {
        self.app_bytes[Self::dir_idx(d)]
    }

    /// Wire bytes in one direction.
    pub fn wire_bytes_in(&self, d: Direction) -> u64 {
        self.wire_bytes[Self::dir_idx(d)]
    }

    /// The fold behind every delivery: adds `packets[d]` records totalling
    /// `app_bytes[d]` application bytes for each direction lane `d`
    /// (`[inbound, outbound]`). `on_packet` passes one record's lane,
    /// `on_columns` a whole batch's [`PacketBatch::lane_totals`].
    #[inline]
    pub fn add_counts(&mut self, packets: [u64; 2], app_bytes: [u64; 2]) {
        for i in 0..2 {
            self.packets[i] += packets[i];
            self.app_bytes[i] += app_bytes[i];
            self.wire_bytes[i] += app_bytes[i] + packets[i] * u64::from(WIRE_OVERHEAD_BYTES);
        }
    }

    /// Superposes another sink's counts onto this one: packet and byte
    /// totals add per direction, and the end-of-trace time is the later of
    /// the two. Integer addition, so any merge order yields the same sums.
    pub fn merge(&mut self, other: &CountingSink) {
        for i in 0..2 {
            self.packets[i] += other.packets[i];
            self.app_bytes[i] += other.app_bytes[i];
            self.wire_bytes[i] += other.wire_bytes[i];
        }
        self.end = match (self.end, other.end) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }
}

impl TraceSink for CountingSink {
    #[inline]
    fn on_packet(&mut self, rec: &TraceRecord) {
        let mut packets = [0; 2];
        let mut app = [0; 2];
        let i = Self::dir_idx(rec.direction);
        packets[i] = 1;
        app[i] = u64::from(rec.app_len);
        self.add_counts(packets, app);
    }

    fn on_columns(&mut self, batch: &PacketBatch) {
        let (packets, app) = batch.lane_totals();
        self.add_counts(packets, app);
    }

    fn on_end(&mut self, end: SimTime) {
        self.end = Some(end);
    }
}

const TRACE_MAGIC: &[u8; 4] = b"CSPT";
const TRACE_VERSION: u16 = 1;
const RECORD_LEN: usize = 18;

/// Writes trace records in the compact binary format.
///
/// Layout: 8-byte header (`CSPT`, u16 version, u16 reserved), then 18-byte
/// records: u64 time_ns, u32 session, u32 app_len, u8 direction, u8 kind.
pub struct TraceWriter<W: Write> {
    inner: W,
    records: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Creates a writer and emits the header.
    pub fn new(mut inner: W) -> io::Result<Self> {
        inner.write_all(TRACE_MAGIC)?;
        inner.write_all(&TRACE_VERSION.to_le_bytes())?;
        inner.write_all(&0u16.to_le_bytes())?;
        Ok(TraceWriter { inner, records: 0 })
    }

    /// Appends one record.
    pub fn write(&mut self, rec: &TraceRecord) -> io::Result<()> {
        let mut buf = [0u8; RECORD_LEN];
        buf[0..8].copy_from_slice(&rec.time.as_nanos().to_le_bytes());
        buf[8..12].copy_from_slice(&rec.session.to_le_bytes());
        buf[12..16].copy_from_slice(&rec.app_len.to_le_bytes());
        buf[16] = match rec.direction {
            Direction::Inbound => 0,
            Direction::Outbound => 1,
        };
        buf[17] = rec.kind.as_u8();
        self.inner.write_all(&buf)?;
        self.records += 1;
        Ok(())
    }

    /// Number of records written so far.
    pub fn records_written(&self) -> u64 {
        self.records
    }

    /// Flushes and returns the underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.inner.flush()?;
        Ok(self.inner)
    }
}

/// A `TraceSink` adapter that persists every record through a `TraceWriter`.
/// IO errors are sticky: the first failure is remembered and later records
/// are dropped (a trace on a full disk should not abort the simulation).
pub struct WriterSink<W: Write> {
    writer: TraceWriter<W>,
    /// First IO error encountered, if any.
    pub error: Option<io::Error>,
}

impl<W: Write> WriterSink<W> {
    /// Wraps a `TraceWriter`.
    pub fn new(writer: TraceWriter<W>) -> Self {
        WriterSink {
            writer,
            error: None,
        }
    }

    /// Records written so far.
    pub fn records_written(&self) -> u64 {
        self.writer.records_written()
    }

    /// Finishes the underlying writer.
    pub fn finish(self) -> io::Result<W> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.writer.finish()
    }
}

impl<W: Write> TraceSink for WriterSink<W> {
    fn on_packet(&mut self, rec: &TraceRecord) {
        if self.error.is_none() {
            if let Err(e) = self.writer.write(rec) {
                self.error = Some(e);
            }
        }
    }
}

/// Reads back traces written by [`TraceWriter`].
pub struct TraceReader<R: Read> {
    inner: R,
}

impl<R: Read> TraceReader<R> {
    /// Creates a reader, validating the header.
    pub fn new(mut inner: R) -> Result<Self, Error> {
        let mut hdr = [0u8; 8];
        if !read_full(&mut inner, &mut hdr, Error::TruncatedRecord)? {
            return Err(Error::TruncatedRecord);
        }
        if &hdr[0..4] != TRACE_MAGIC {
            return Err(Error::BadMagic("CSPT trace"));
        }
        let version = le_u16(&hdr[4..6]);
        if version != TRACE_VERSION {
            return Err(Error::UnsupportedVersion(version));
        }
        Ok(TraceReader { inner })
    }

    /// Reads the next record; `Ok(None)` at a clean end of stream. A
    /// stream that ends mid-record is [`Error::TruncatedRecord`]; a record
    /// with an out-of-range tag is [`Error::BadDirectionTag`] or
    /// [`Error::BadKindTag`], and since records are fixed-width the next
    /// `read` starts cleanly at the record after it.
    pub fn read(&mut self) -> Result<Option<TraceRecord>, Error> {
        let mut buf = [0u8; RECORD_LEN];
        if !read_full(&mut self.inner, &mut buf, Error::TruncatedRecord)? {
            return Ok(None);
        }
        let direction = match buf[16] {
            0 => Direction::Inbound,
            1 => Direction::Outbound,
            other => return Err(Error::BadDirectionTag(other)),
        };
        let kind = PacketKind::from_u8(buf[17]).ok_or(Error::BadKindTag(buf[17]))?;
        Ok(Some(TraceRecord {
            time: SimTime::from_nanos(le_u64(&buf[0..8])),
            direction,
            kind,
            session: le_u32(&buf[8..12]),
            app_len: le_u32(&buf[12..16]),
        }))
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
    fn counting_sink_totals() {
        let mut s = CountingSink::new();
        s.on_packet(&rec(
            0,
            Direction::Inbound,
            PacketKind::ClientCommand,
            1,
            40,
        ));
        s.on_packet(&rec(
            1,
            Direction::Outbound,
            PacketKind::StateUpdate,
            1,
            130,
        ));
        s.on_packet(&rec(
            2,
            Direction::Inbound,
            PacketKind::ClientCommand,
            2,
            42,
        ));
        s.on_end(SimTime::from_secs(1));
        assert_eq!(s.total_packets(), 3);
        assert_eq!(s.packets_in(Direction::Inbound), 2);
        assert_eq!(s.app_bytes_in(Direction::Inbound), 82);
        assert_eq!(s.wire_bytes_in(Direction::Outbound), 130 + 58);
        assert_eq!(s.total_wire_bytes(), 82 + 130 + 3 * 58);
        assert_eq!(s.end, Some(SimTime::from_secs(1)));
    }

    #[test]
    fn counting_sink_merge_superposes() {
        let mut a = CountingSink::new();
        a.on_packet(&rec(
            0,
            Direction::Inbound,
            PacketKind::ClientCommand,
            1,
            40,
        ));
        a.on_end(SimTime::from_secs(2));
        let mut b = CountingSink::new();
        b.on_packet(&rec(
            1,
            Direction::Outbound,
            PacketKind::StateUpdate,
            1,
            130,
        ));
        b.on_packet(&rec(
            2,
            Direction::Inbound,
            PacketKind::ClientCommand,
            2,
            42,
        ));
        b.on_end(SimTime::from_secs(1));
        a.merge(&b);
        assert_eq!(a.total_packets(), 3);
        assert_eq!(a.packets_in(Direction::Inbound), 2);
        assert_eq!(a.app_bytes_in(Direction::Inbound), 82);
        assert_eq!(
            a.end,
            Some(SimTime::from_secs(2)),
            "end is the later of the two"
        );

        // Merging an empty sink is the identity.
        let before = a.clone();
        a.merge(&CountingSink::new());
        assert_eq!(a.total_packets(), before.total_packets());
        assert_eq!(a.end, before.end);
    }

    #[test]
    fn binary_roundtrip() {
        let records = vec![
            rec(0, Direction::Inbound, PacketKind::ConnectRequest, 7, 25),
            rec(50, Direction::Outbound, PacketKind::ConnectReply, 7, 12),
            rec(100, Direction::Inbound, PacketKind::ClientCommand, 7, 44),
            rec(100, Direction::Outbound, PacketKind::StateUpdate, 7, 201),
            rec(
                150,
                Direction::Outbound,
                PacketKind::DownloadData,
                u32::MAX,
                400,
            ),
        ];
        let mut w = TraceWriter::new(Vec::new()).unwrap();
        for r in &records {
            w.write(r).unwrap();
        }
        assert_eq!(w.records_written(), 5);
        let bytes = w.finish().unwrap();
        assert_eq!(bytes.len(), 8 + 5 * RECORD_LEN);

        let mut r = TraceReader::new(&bytes[..]).unwrap();
        let mut back = Vec::new();
        while let Some(rec) = r.read().unwrap() {
            back.push(rec);
        }
        assert_eq!(back, records);
    }

    #[test]
    fn reader_rejects_bad_magic() {
        let bytes = b"NOPE\x01\x00\x00\x00".to_vec();
        assert!(TraceReader::new(&bytes[..]).is_err());
    }

    #[test]
    fn reader_rejects_bad_version() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(TRACE_MAGIC);
        bytes.extend_from_slice(&99u16.to_le_bytes());
        bytes.extend_from_slice(&0u16.to_le_bytes());
        assert!(TraceReader::new(&bytes[..]).is_err());
    }

    #[test]
    fn reader_rejects_bad_tags() {
        let mut w = TraceWriter::new(Vec::new()).unwrap();
        w.write(&rec(0, Direction::Inbound, PacketKind::ClientCommand, 0, 1))
            .unwrap();
        let mut bytes = w.finish().unwrap();
        bytes[8 + 16] = 9; // direction tag out of range
        let mut r = TraceReader::new(&bytes[..]).unwrap();
        assert!(r.read().is_err());
    }

    /// Writes records at 0, 1, ... ms, all inbound commands of 40 bytes.
    fn trace_of(n: u64) -> Vec<u8> {
        let mut w = TraceWriter::new(Vec::new()).unwrap();
        for i in 0..n {
            w.write(&rec(
                i,
                Direction::Inbound,
                PacketKind::ClientCommand,
                1,
                40,
            ))
            .unwrap();
        }
        w.finish().unwrap()
    }

    /// Replays a trace the way `cstrace` does: a `read` loop into `sink`,
    /// ended at the last record's time. Stops at the first error.
    fn replay(bytes: &[u8], sink: &mut dyn TraceSink) -> Result<u64, Error> {
        let mut r = TraceReader::new(bytes)?;
        let (mut n, mut last) = (0, SimTime::ZERO);
        while let Some(rec) = r.read()? {
            last = rec.time;
            sink.on_packet(&rec);
            n += 1;
        }
        sink.on_end(last);
        Ok(n)
    }

    #[test]
    fn replay_into_sink() {
        let bytes = trace_of(10);
        let mut sink = CountingSink::new();
        assert_eq!(replay(&bytes, &mut sink).unwrap(), 10);
        assert_eq!(sink.total_packets(), 10);
        assert_eq!(sink.end, Some(SimTime::from_millis(9)));
    }

    #[test]
    fn truncation_mid_record_is_typed() {
        let mut w = TraceWriter::new(Vec::new()).unwrap();
        w.write(&rec(0, Direction::Inbound, PacketKind::ClientCommand, 0, 1))
            .unwrap();
        let bytes = w.finish().unwrap();
        // Cut the last record short by one byte.
        let cut = &bytes[..bytes.len() - 1];
        let mut r = TraceReader::new(cut).unwrap();
        assert!(matches!(r.read(), Err(Error::TruncatedRecord)));
    }

    #[test]
    fn damaged_records_are_typed_and_keep_the_reader_in_step() {
        let mut bytes = trace_of(6);
        bytes[8 + 16] = 9; // record 0: direction tag out of range
        bytes[8 + 3 * RECORD_LEN + 17] = 200; // record 3: kind tag out of range
        bytes.truncate(bytes.len() - 5); // record 5 cut mid-record

        let mut r = TraceReader::new(&bytes[..]).unwrap();
        assert!(matches!(r.read(), Err(Error::BadDirectionTag(9))));
        // A damaged record never desynchronizes its neighbours: the reads
        // after it land on the next record boundary with its own time.
        assert_eq!(
            r.read().unwrap().map(|r| r.time),
            Some(SimTime::from_millis(1))
        );
        assert_eq!(
            r.read().unwrap().map(|r| r.time),
            Some(SimTime::from_millis(2))
        );
        assert!(matches!(r.read(), Err(Error::BadKindTag(200))));
        assert_eq!(
            r.read().unwrap().map(|r| r.time),
            Some(SimTime::from_millis(4))
        );
        assert!(matches!(r.read(), Err(Error::TruncatedRecord)));
    }

    #[test]
    fn strict_replay_aborts_on_first_decode_error() {
        let mut bytes = trace_of(3);
        bytes[8 + RECORD_LEN + 16] = 7;
        let mut sink = CountingSink::new();
        let err = replay(&bytes, &mut sink).unwrap_err();
        assert!(matches!(err, Error::BadDirectionTag(7)));
        // Record 0 was delivered before the damaged record 1 stopped the
        // loop; the trace never ended.
        assert_eq!(sink.total_packets(), 1);
        assert_eq!(sink.end, None);
    }

    #[test]
    fn writer_sink_records() {
        let w = TraceWriter::new(Vec::new()).unwrap();
        let mut sink = WriterSink::new(w);
        sink.on_packet(&rec(
            0,
            Direction::Inbound,
            PacketKind::ClientCommand,
            1,
            40,
        ));
        let bytes = sink.finish().unwrap();
        let mut r = TraceReader::new(&bytes[..]).unwrap();
        assert!(r.read().unwrap().is_some());
        assert!(r.read().unwrap().is_none());
    }
}
