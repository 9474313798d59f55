//! Adversarial property tests for the `csprov-state/1` decoder.
//!
//! The decode layer's contract is that *any* byte string — truncated,
//! bit-flipped, version-bumped, length-inflated, or plain random —
//! produces a typed [`StateError`], never a panic and never an
//! attacker-controlled allocation. These properties drive the decoder
//! with exactly those inputs; the test binary aborting (panic) or dying
//! (OOM) is the failure mode being guarded against, so simply running
//! each decode to a `Result` IS the assertion for the hostile cases.

use csprov_analysis::persist::{
    get_counting_sink, get_rate_series, get_size_histogram, get_welford, put_counting_sink,
    put_rate_series, put_size_histogram, put_welford,
};
use csprov_analysis::{
    ByteReader, ByteWriter, RateSeries, SizeHistogram, StateError, Welford, KIND_SHARD,
};
use csprov_net::{
    CountingSink, Direction, PacketKind, TraceRecord, TraceSink, WIRE_OVERHEAD_BYTES,
};
use csprov_sim::check::{check, Gen};
use csprov_sim::{SimDuration, SimTime};

/// Builds a small, random-but-valid container exercising every codec:
/// welford, rate series, size histogram, counting sink.
fn encode_sample(g: &mut Gen) -> Vec<u8> {
    let mut welford = Welford::new();
    for _ in 0..g.usize_in(0..20) {
        welford.push(g.f64_in(-1000.0..1000.0));
    }

    let width_ms = g.u64_in(1..5_000);
    let mut series = RateSeries::new(SimDuration::from_millis(width_ms));
    let mut sizes = SizeHistogram::new(g.usize_in(64..2048));
    let mut counts = CountingSink::new();
    let mut times = g.vec_with(0..40, |g| g.u64_in(0..5_000_000_000));
    times.sort_unstable();
    let mut last = SimTime::from_nanos(0);
    for t in times {
        let record = TraceRecord {
            time: SimTime::from_nanos(t),
            direction: if g.bool() {
                Direction::Inbound
            } else {
                Direction::Outbound
            },
            kind: PacketKind::ClientCommand,
            session: g.u32_in(0..20),
            app_len: g.u32_in(0..600),
        };
        series.on_packet(&record);
        sizes.record(record.direction, record.app_len + WIRE_OVERHEAD_BYTES);
        counts.on_packet(&record);
        last = record.time;
    }
    series.on_end(last);
    counts.on_end(last);

    let mut w = ByteWriter::container(KIND_SHARD);
    w.section(1, |w| put_welford(w, &welford));
    let mut body = ByteWriter::new();
    put_rate_series(&mut body, &series).expect("series is finished");
    w.section(2, |w| w.put_bytes(body.into_bytes().as_slice()));
    let mut body = ByteWriter::new();
    put_size_histogram(&mut body, &sizes);
    w.section(3, |w| w.put_bytes(body.into_bytes().as_slice()));
    let mut body = ByteWriter::new();
    put_counting_sink(&mut body, &counts).expect("sink is finished");
    w.section(4, |w| w.put_bytes(body.into_bytes().as_slice()));
    w.into_bytes()
}

/// The matching decoder: strict section order, every codec, trailing
/// check. Mirrors how the fleet checkpoint decoder consumes a container.
fn decode_sample(bytes: &[u8]) -> Result<(), StateError> {
    let (kind, mut r) = ByteReader::container(bytes)?;
    if kind != KIND_SHARD {
        return Err(StateError::WrongKind {
            expected: KIND_SHARD,
            found: kind,
        });
    }
    let mut s = r.section(1)?;
    let _ = get_welford(&mut s)?;
    s.finish()?;
    let mut s = r.section(2)?;
    let _ = get_rate_series(&mut s)?;
    s.finish()?;
    let mut s = r.section(3)?;
    let _ = get_size_histogram(&mut s)?;
    s.finish()?;
    let mut s = r.section(4)?;
    let _ = get_counting_sink(&mut s)?;
    s.finish()?;
    r.finish()
}

/// A valid encoding round-trips; this anchors the hostile cases below
/// (a decoder that rejected everything would pass them vacuously).
#[test]
fn valid_encodings_decode() {
    check("valid_encodings_decode", 64, |g| {
        let bytes = encode_sample(g);
        decode_sample(&bytes).expect("valid container decodes");
    });
}

/// Every strict prefix of a valid encoding is a typed error, never Ok,
/// never a panic.
#[test]
fn truncations_are_typed_errors() {
    check("truncations_are_typed_errors", 32, |g| {
        let bytes = encode_sample(g);
        // All short prefixes (header region) plus a random sample of
        // longer ones; exhaustive truncation is O(n^2) in decode work.
        for cut in 0..16.min(bytes.len()) {
            assert!(
                decode_sample(&bytes[..cut]).is_err(),
                "prefix {cut} decoded"
            );
        }
        for _ in 0..32 {
            let cut = g.usize_in(0..bytes.len());
            assert!(
                decode_sample(&bytes[..cut]).is_err(),
                "prefix {cut} decoded"
            );
        }
    });
}

/// Any single bit flip is caught: the 8-byte header is validated field
/// by field, and every section byte (tag, length, payload, checksum) is
/// covered by the section CRC.
#[test]
fn bit_flips_are_typed_errors() {
    check("bit_flips_are_typed_errors", 32, |g| {
        let bytes = encode_sample(g);
        for _ in 0..48 {
            let mut corrupt = bytes.clone();
            let pos = g.usize_in(0..corrupt.len());
            let bit = g.u8_in(0..8);
            corrupt[pos] ^= 1 << bit;
            assert!(
                decode_sample(&corrupt).is_err(),
                "flip at byte {pos} bit {bit} decoded"
            );
        }
    });
}

/// A future format version is refused up front with `VersionMismatch`,
/// not half-decoded.
#[test]
fn version_bumps_are_refused() {
    check("version_bumps_are_refused", 16, |g| {
        let mut bytes = encode_sample(g);
        let bump = g.u32_in(2..u32::from(u16::MAX)) as u16;
        bytes[4..6].copy_from_slice(&bump.to_le_bytes());
        match decode_sample(&bytes) {
            Err(StateError::VersionMismatch { found, supported }) => {
                assert_eq!(found, bump);
                assert_eq!(supported, 1);
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
    });
}

/// Arbitrary random byte strings never panic the decoder (they are
/// overwhelmingly rejected at the magic/CRC layers; the property is
/// that every one of them reaches a `Result`).
#[test]
fn random_bytes_never_panic() {
    check("random_bytes_never_panic", 256, |g| {
        let bytes = g.bytes(0..4096);
        let _ = decode_sample(&bytes);
    });
}

/// Random bytes behind a *valid* header and a wildly inflated section
/// length must fail with a typed error before any allocation sized by
/// the attacker's length field.
#[test]
fn inflated_lengths_cannot_drive_allocation() {
    check("inflated_lengths_cannot_drive_allocation", 64, |g| {
        // Hand-build: valid magic/version/kind, one section frame whose
        // declared length vastly exceeds the payload that follows.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"CSPS");
        bytes.extend_from_slice(&1u16.to_le_bytes());
        bytes.push(KIND_SHARD);
        bytes.push(0);
        bytes.extend_from_slice(&1u32.to_le_bytes()); // tag
        let declared = g.u64_in(1 << 30..u64::MAX);
        bytes.extend_from_slice(&declared.to_le_bytes());
        bytes.extend(g.bytes(0..64));
        match decode_sample(&bytes) {
            Err(
                StateError::Oversized { .. }
                | StateError::Truncated
                | StateError::ChecksumMismatch { .. },
            ) => {}
            other => panic!("expected a bounds error, got {other:?}"),
        }
    });
}

/// `get_count` refuses element counts that could not fit in the bytes
/// that remain, so a hostile count can never size a `Vec` allocation.
#[test]
fn hostile_element_counts_are_bounded() {
    check("hostile_element_counts_are_bounded", 64, |g| {
        let mut w = ByteWriter::new();
        let declared = g.u64_in(1 << 20..u64::MAX);
        w.put_u64(declared);
        let padding = g.usize_in(0..128);
        for _ in 0..padding {
            w.put_u8(0);
        }
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let elem_size = g.u64_in(1..16);
        match r.get_count(elem_size) {
            Err(StateError::Oversized { .. } | StateError::Truncated) => {}
            Ok(n) => panic!("count {n} accepted with only {padding} bytes left"),
            Err(other) => panic!("unexpected error {other:?}"),
        }
    });
}
