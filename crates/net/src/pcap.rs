//! Classic libpcap export/import of simulated traces.
//!
//! Every packet is materialized as a real Ethernet II / IPv4 / UDP frame
//! (valid checksums, placeholder payload), so dumps open in Wireshark and
//! tcpdump. The reverse direction parses frames back into [`TraceRecord`]s,
//! which exercises the wire-format parsers end to end.

use crate::addr::MacAddr;
use crate::error::Error;
use crate::packet::{Direction, PacketKind, CAPTURE_OVERHEAD_BYTES};
use crate::trace::{read_full, TraceRecord, TraceSink};
use crate::wire::{
    EtherType, EthernetFrame, IpProtocol, Ipv4Packet, UdpDatagram, ETHERNET_HEADER_LEN,
    IPV4_HEADER_LEN, UDP_HEADER_LEN,
};
use crate::{addr, wire::WireError};
use csprov_sim::SimTime;
use std::io::{self, Read, Write};

const PCAP_MAGIC: u32 = 0xa1b2_c3d4; // microsecond timestamps
const PCAP_VERSION_MAJOR: u16 = 2;
const PCAP_VERSION_MINOR: u16 = 4;
const LINKTYPE_ETHERNET: u32 = 1;
const SNAPLEN: u32 = 65_535;

/// Writes a classic pcap file of synthesized frames.
pub struct PcapWriter<W: Write> {
    inner: W,
    frames: u64,
}

impl<W: Write> PcapWriter<W> {
    /// Creates a writer and emits the global header.
    pub fn new(mut inner: W) -> io::Result<Self> {
        inner.write_all(&PCAP_MAGIC.to_le_bytes())?;
        inner.write_all(&PCAP_VERSION_MAJOR.to_le_bytes())?;
        inner.write_all(&PCAP_VERSION_MINOR.to_le_bytes())?;
        inner.write_all(&0i32.to_le_bytes())?; // thiszone
        inner.write_all(&0u32.to_le_bytes())?; // sigfigs
        inner.write_all(&SNAPLEN.to_le_bytes())?;
        inner.write_all(&LINKTYPE_ETHERNET.to_le_bytes())?;
        Ok(PcapWriter { inner, frames: 0 })
    }

    /// Appends one record as a synthesized frame.
    pub fn write(&mut self, rec: &TraceRecord) -> io::Result<()> {
        let frame = synthesize_frame(rec);
        let ts_us = rec.time.as_nanos() / 1_000;
        self.inner
            .write_all(&((ts_us / 1_000_000) as u32).to_le_bytes())?;
        self.inner
            .write_all(&((ts_us % 1_000_000) as u32).to_le_bytes())?;
        self.inner.write_all(&(frame.len() as u32).to_le_bytes())?; // incl_len
        self.inner.write_all(&(frame.len() as u32).to_le_bytes())?; // orig_len
        self.inner.write_all(&frame)?;
        self.frames += 1;
        Ok(())
    }

    /// Number of frames written.
    pub fn frames_written(&self) -> u64 {
        self.frames
    }

    /// Flushes and returns the underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.inner.flush()?;
        Ok(self.inner)
    }
}

/// A `TraceSink` adapter writing pcap; IO errors are sticky, like
/// [`crate::trace::WriterSink`].
pub struct PcapSink<W: Write> {
    writer: PcapWriter<W>,
    /// First IO error encountered, if any.
    pub error: Option<io::Error>,
}

impl<W: Write> PcapSink<W> {
    /// Wraps a `PcapWriter`.
    pub fn new(writer: PcapWriter<W>) -> Self {
        PcapSink {
            writer,
            error: None,
        }
    }

    /// Frames written so far.
    pub fn frames_written(&self) -> u64 {
        self.writer.frames_written()
    }

    /// Finishes the underlying writer.
    pub fn finish(self) -> io::Result<W> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.writer.finish()
    }
}

impl<W: Write> TraceSink for PcapSink<W> {
    fn on_packet(&mut self, rec: &TraceRecord) {
        if self.error.is_none() {
            if let Err(e) = self.writer.write(rec) {
                self.error = Some(e);
            }
        }
    }
}

/// Builds a checksummed Ethernet/IPv4/UDP frame for a trace record.
///
/// Payload bytes encode the packet kind in the first byte (mirroring how the
/// HL engine tags messages) and are zero elsewhere.
pub fn synthesize_frame(rec: &TraceRecord) -> Vec<u8> {
    let server = addr::server_endpoint();
    let client = addr::client_endpoint(rec.session);
    let (src, dst, src_mac, dst_mac) = match rec.direction {
        Direction::Inbound => (
            client,
            server,
            MacAddr::from_host_id(rec.session.wrapping_add(1)),
            MacAddr::from_host_id(0),
        ),
        Direction::Outbound => (
            server,
            client,
            MacAddr::from_host_id(0),
            MacAddr::from_host_id(rec.session.wrapping_add(1)),
        ),
    };

    let total = ETHERNET_HEADER_LEN + IPV4_HEADER_LEN + UDP_HEADER_LEN + rec.app_len as usize;
    let mut buf = vec![0u8; total];

    let mut eth = EthernetFrame::new_unchecked(&mut buf[..]);
    eth.set_dst_addr(dst_mac);
    eth.set_src_addr(src_mac);
    eth.set_ethertype(EtherType::Ipv4);

    let ip_total = (IPV4_HEADER_LEN + UDP_HEADER_LEN + rec.app_len as usize) as u16;
    let mut ip = Ipv4Packet::new_unchecked(eth.payload_mut());
    ip.init(ip_total);
    ip.set_ident((rec.time.as_nanos() & 0xffff) as u16);
    ip.set_ttl(64);
    ip.set_protocol(IpProtocol::Udp);
    ip.set_src_addr(src.addr);
    ip.set_dst_addr(dst.addr);

    let udp_len = (UDP_HEADER_LEN + rec.app_len as usize) as u16;
    let mut udp = UdpDatagram::new_unchecked(ip.payload_mut());
    udp.set_src_port(src.port);
    udp.set_dst_port(dst.port);
    udp.set_len(udp_len);
    if rec.app_len > 0 {
        udp.payload_mut()[0] = rec.kind.as_u8();
    }
    udp.fill_checksum(src.addr, dst.addr);
    ip.fill_checksum();

    buf
}

/// Parses a synthesized frame back into `(record-without-time, src, dst)`.
///
/// The time must come from the pcap packet header; the session id is
/// recovered from the client address.
pub fn parse_frame(frame: &[u8], time: SimTime) -> Result<TraceRecord, WireError> {
    let eth = EthernetFrame::new_checked(frame)?;
    if eth.ethertype() != EtherType::Ipv4 {
        return Err(WireError::Malformed);
    }
    let ip = Ipv4Packet::new_checked(eth.payload())?;
    if !ip.verify_checksum() {
        return Err(WireError::Checksum);
    }
    if ip.protocol() != IpProtocol::Udp {
        return Err(WireError::Malformed);
    }
    let udp = UdpDatagram::new_checked(ip.payload())?;
    if !udp.verify_checksum(ip.src_addr(), ip.dst_addr()) {
        return Err(WireError::Checksum);
    }

    let server = addr::server_endpoint();
    let direction = if ip.dst_addr() == server.addr && udp.dst_port() == server.port {
        Direction::Inbound
    } else {
        Direction::Outbound
    };
    let client_ip = match direction {
        Direction::Inbound => ip.src_addr(),
        Direction::Outbound => ip.dst_addr(),
    };
    let o = client_ip.octets();
    // client_endpoint packs the low 24 bits of the session id into the
    // address; ids above 2^24 alias, which the writer side never produces
    // in a single trace. 10.255.255.255 is the sessionless (server-browser
    // probe) address, mapped back to the u32::MAX sentinel.
    let session = match u32::from_be_bytes([0, o[1], o[2], o[3]]) {
        0x00ff_ffff => u32::MAX,
        s => s,
    };
    let payload = udp.payload();
    let kind = if payload.is_empty() {
        PacketKind::ClientCommand
    } else {
        PacketKind::from_u8(payload[0]).ok_or(WireError::Malformed)?
    };
    Ok(TraceRecord {
        time,
        direction,
        kind,
        session,
        app_len: payload.len() as u32,
    })
}

/// Reads back pcap files produced by [`PcapWriter`].
pub struct PcapReader<R: Read> {
    inner: R,
}

impl<R: Read> PcapReader<R> {
    /// Creates a reader, validating the global header.
    pub fn new(mut inner: R) -> Result<Self, Error> {
        let mut hdr = [0u8; 24];
        if !read_full(&mut inner, &mut hdr, Error::TruncatedRecord)? {
            return Err(Error::TruncatedRecord);
        }
        let magic = crate::trace::le_u32(&hdr[0..4]);
        if magic != PCAP_MAGIC {
            return Err(Error::BadMagic("pcap"));
        }
        let linktype = crate::trace::le_u32(&hdr[20..24]);
        if linktype != LINKTYPE_ETHERNET {
            return Err(Error::UnsupportedLinkType(linktype));
        }
        Ok(PcapReader { inner })
    }

    /// Reads the next frame; `Ok(None)` at a clean end of file. A frame
    /// that fails wire-level validation is [`Error::Wire`], and since frame
    /// boundaries come from the pcap packet headers the next `read` starts
    /// cleanly at the frame after it. A capture that ends mid-frame is
    /// [`Error::TruncatedFrame`].
    pub fn read(&mut self) -> Result<Option<TraceRecord>, Error> {
        let mut hdr = [0u8; 16];
        if !read_full(&mut self.inner, &mut hdr, Error::TruncatedFrame)? {
            return Ok(None);
        }
        let secs = crate::trace::le_u32(&hdr[0..4]);
        let micros = crate::trace::le_u32(&hdr[4..8]);
        let incl = crate::trace::le_u32(&hdr[8..12]);
        // Bound the allocation before trusting the declared length: a
        // corrupted header must not make the reader buffer gigabytes.
        if incl > SNAPLEN {
            return Err(Error::OversizedFrame(incl));
        }
        let mut frame = vec![0u8; incl as usize];
        if incl > 0 && !read_full(&mut self.inner, &mut frame, Error::TruncatedFrame)? {
            // Zero bytes of the body present: still truncation — the frame
            // header promised `incl` more bytes.
            return Err(Error::TruncatedFrame);
        }
        let time = SimTime::from_nanos(u64::from(secs) * 1_000_000_000 + u64::from(micros) * 1_000);
        parse_frame(&frame, time).map(Some).map_err(Error::Wire)
    }
}

/// Capture length implied by a record (frame bytes on disk).
pub fn capture_len(rec: &TraceRecord) -> u32 {
    rec.app_len + CAPTURE_OVERHEAD_BYTES
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
    fn frame_is_valid_and_parses_back() {
        let r = rec(123, Direction::Inbound, PacketKind::ClientCommand, 42, 40);
        let frame = synthesize_frame(&r);
        assert_eq!(frame.len() as u32, capture_len(&r));
        let back = parse_frame(&frame, r.time).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn outbound_frame_parses_back() {
        let r = rec(5000, Direction::Outbound, PacketKind::StateUpdate, 7, 180);
        let back = parse_frame(&synthesize_frame(&r), r.time).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn corrupted_frame_rejected() {
        let r = rec(1, Direction::Inbound, PacketKind::Voice, 3, 64);
        let mut frame = synthesize_frame(&r);
        let n = frame.len();
        frame[n - 1] ^= 0xff; // flip a payload byte -> UDP checksum fails
        assert_eq!(parse_frame(&frame, r.time), Err(WireError::Checksum));
    }

    #[test]
    fn pcap_roundtrip() {
        let records = vec![
            rec(0, Direction::Inbound, PacketKind::ConnectRequest, 1, 25),
            rec(50, Direction::Outbound, PacketKind::ConnectReply, 1, 12),
            rec(1000, Direction::Outbound, PacketKind::StateUpdate, 1, 250),
            rec(1001, Direction::Inbound, PacketKind::ClientCommand, 2, 41),
        ];
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for r in &records {
            w.write(r).unwrap();
        }
        assert_eq!(w.frames_written(), 4);
        let bytes = w.finish().unwrap();

        let mut reader = PcapReader::new(&bytes[..]).unwrap();
        let mut back = Vec::new();
        while let Some(r) = reader.read().unwrap() {
            back.push(r);
        }
        assert_eq!(back, records);
    }

    #[test]
    fn pcap_timestamps_microsecond_resolution() {
        // Nanosecond component below 1 us is truncated by the format.
        let r = TraceRecord {
            time: SimTime::from_nanos(1_500_123_456),
            direction: Direction::Inbound,
            kind: PacketKind::ClientCommand,
            session: 0,
            app_len: 10,
        };
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        w.write(&r).unwrap();
        let bytes = w.finish().unwrap();
        let back = PcapReader::new(&bytes[..])
            .unwrap()
            .read()
            .unwrap()
            .unwrap();
        assert_eq!(back.time, SimTime::from_nanos(1_500_123_000));
    }

    #[test]
    fn reader_rejects_garbage() {
        assert!(PcapReader::new(&[0u8; 24][..]).is_err());
        assert!(PcapReader::new(&[0u8; 3][..]).is_err());
    }

    #[test]
    fn oversized_frame_header_is_rejected_before_allocation() {
        let w = PcapWriter::new(Vec::new()).unwrap();
        let mut bytes = w.finish().unwrap();
        // Hand-craft a frame header declaring a 1 GiB body.
        bytes.extend_from_slice(&0u32.to_le_bytes()); // ts_sec
        bytes.extend_from_slice(&0u32.to_le_bytes()); // ts_usec
        bytes.extend_from_slice(&(1u32 << 30).to_le_bytes()); // incl_len
        bytes.extend_from_slice(&(1u32 << 30).to_le_bytes()); // orig_len
        let mut r = PcapReader::new(&bytes[..]).unwrap();
        assert!(matches!(r.read(), Err(Error::OversizedFrame(n)) if n == 1 << 30));
    }

    #[test]
    fn damaged_frames_are_typed_and_keep_the_reader_in_step() {
        let records = vec![
            rec(0, Direction::Inbound, PacketKind::ConnectRequest, 1, 25),
            rec(50, Direction::Outbound, PacketKind::ConnectReply, 1, 12),
            rec(100, Direction::Inbound, PacketKind::ClientCommand, 1, 41),
            rec(150, Direction::Inbound, PacketKind::ClientCommand, 1, 41),
        ];
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for r in &records {
            w.write(r).unwrap();
        }
        let mut bytes = w.finish().unwrap();
        // Corrupt the last payload byte of frame 1 (checksum now fails) and
        // cut the final frame short.
        let f0_len = 16 + capture_len(&records[0]) as usize;
        let f1_len = 16 + capture_len(&records[1]) as usize;
        let f1_end = 24 + f0_len + f1_len;
        bytes[f1_end - 1] ^= 0xff;
        bytes.truncate(bytes.len() - 7);

        let mut reader = PcapReader::new(&bytes[..]).unwrap();
        assert_eq!(reader.read().unwrap(), Some(records[0]));
        assert!(matches!(
            reader.read(),
            Err(Error::Wire(WireError::Checksum))
        ));
        // The damaged frame's header framed it, so frame 2 reads intact.
        assert_eq!(reader.read().unwrap(), Some(records[2]));
        assert!(matches!(reader.read(), Err(Error::TruncatedFrame)));
    }

    #[test]
    fn sink_adapter() {
        let w = PcapWriter::new(Vec::new()).unwrap();
        let mut sink = PcapSink::new(w);
        sink.on_packet(&rec(
            0,
            Direction::Inbound,
            PacketKind::ClientCommand,
            1,
            40,
        ));
        sink.on_end(SimTime::from_secs(1));
        let bytes = sink.finish().unwrap();
        let mut reader = PcapReader::new(&bytes[..]).unwrap();
        assert!(reader.read().unwrap().is_some());
        assert!(reader.read().unwrap().is_none());
    }
}
