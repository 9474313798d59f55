//! Columnar-ingest determinism boundary: the struct-of-arrays delivery
//! must be unobservable. Every analyzer reaches byte-identical state
//! whether a burst arrives as `on_packet` calls or as `on_columns` batches,
//! one per instant, even for foreign sizes near `u32::MAX`.

use csprov::pipeline::FullAnalysis;
use csprov_net::{
    Direction, PacketBatch, PacketKind, TraceReader, TraceRecord, TraceSink, TraceWriter,
};
use csprov_sim::{SimDuration, SimTime};

/// splitmix64: tiny, seedable, and good enough to randomize burst shapes.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A randomized stream of delivery bursts. Roughly half the bursts share
/// one timestamp (a server tick); the rest spread over a few milliseconds,
/// often across a bin edge, and reach the sink as one batch per instant.
/// Rows mix directions, every packet kind, sessionless probes
/// (`u32::MAX`), and sizes straddling the histogram's overflow bound.
fn random_bursts(seed: u64, bursts: usize) -> Vec<Vec<TraceRecord>> {
    let mut rng = seed;
    let mut t_ns: u64 = 0;
    let mut out = Vec::with_capacity(bursts);
    for _ in 0..bursts {
        t_ns += 1_000_000 + next(&mut rng) % 60_000_000;
        let n = (next(&mut rng) % 40) as usize; // empty bursts included
        let uniform = next(&mut rng) % 2 == 0;
        let mut burst = Vec::with_capacity(n);
        let mut off = 0;
        for _ in 0..n {
            if !uniform {
                off += next(&mut rng) % 200_000;
            }
            let kind = PacketKind::ALL[(next(&mut rng) % 12) as usize];
            let session = match next(&mut rng) % 10 {
                0 => u32::MAX,
                s => s as u32 + (next(&mut rng) % 24) as u32,
            };
            burst.push(TraceRecord {
                time: SimTime::from_nanos(t_ns + off),
                direction: if next(&mut rng) % 3 == 0 {
                    Direction::Inbound
                } else {
                    Direction::Outbound
                },
                kind,
                session,
                app_len: (next(&mut rng) % 620) as u32,
            });
        }
        out.push(burst);
    }
    out
}

/// Delivers every instant of every burst in one `on_columns` call, filled
/// into one reused batch as the world fills its tick burst: the columnar
/// path. An empty burst is an empty batch at the latest instant.
fn run_through(mut sink: FullAnalysis, bursts: &[Vec<TraceRecord>], end: SimTime) -> FullAnalysis {
    let mut batch = PacketBatch::new();
    let mut now = SimTime::ZERO;
    for burst in bursts {
        if burst.is_empty() {
            batch.start(now);
            sink.on_columns(&batch);
        }
        let mut rows = burst.iter().peekable();
        while let Some(first) = rows.next() {
            now = first.time;
            batch.start(now);
            batch.push(first.direction, first.kind, first.session, first.app_len);
            while let Some(r) = rows.next_if(|r| r.time == now) {
                batch.push(r.direction, r.kind, r.session, r.app_len);
            }
            sink.on_columns(&batch);
        }
    }
    sink.on_end(end);
    sink
}

/// Delivers every record in its own `on_packet` call: the reference.
fn run_per_packet(
    mut sink: FullAnalysis,
    bursts: &[Vec<TraceRecord>],
    end: SimTime,
) -> FullAnalysis {
    for rec in bursts.iter().flatten() {
        sink.on_packet(rec);
    }
    sink.on_end(end);
    sink
}

/// Deep equality across every analyzer two ingest paths must agree on.
/// This is the artifact surface: tables and figures are pure functions of
/// this state, so equality here is byte-identity of the repro outputs.
fn assert_identical(a: &FullAnalysis, b: &FullAnalysis, what: &str) {
    assert_eq!(a.counts.total_packets(), b.counts.total_packets(), "{what}");
    assert_eq!(
        a.counts.total_wire_bytes(),
        b.counts.total_wire_bytes(),
        "{what}"
    );
    for d in [Direction::Inbound, Direction::Outbound] {
        assert_eq!(a.counts.packets_in(d), b.counts.packets_in(d), "{what}");
        assert_eq!(a.counts.app_bytes_in(d), b.counts.app_bytes_in(d), "{what}");
        assert_eq!(
            a.counts.wire_bytes_in(d),
            b.counts.wire_bytes_in(d),
            "{what}"
        );
        assert_eq!(a.sizes.total(d), b.sizes.total(d), "{what}");
        assert_eq!(a.sizes.overflow(d), b.sizes.overflow(d), "{what}");
        assert_eq!(a.sizes.pdf(d), b.sizes.pdf(d), "{what}");
    }
    let series = [
        (&a.per_minute, &b.per_minute, "per_minute"),
        (&a.per_minute_in, &b.per_minute_in, "per_minute_in"),
        (&a.per_minute_out, &b.per_minute_out, "per_minute_out"),
        (&a.ms10_total, &b.ms10_total, "ms10_total"),
        (&a.ms10_in, &b.ms10_in, "ms10_in"),
        (&a.ms10_out, &b.ms10_out, "ms10_out"),
        (&a.ms50_total, &b.ms50_total, "ms50_total"),
        (&a.sec1_total, &b.sec1_total, "sec1_total"),
        (&a.min30_total, &b.min30_total, "min30_total"),
    ];
    for (sa, sb, name) in series {
        assert_eq!(sa.bins(), sb.bins(), "{what}: {name} bins");
        let (wa, wb) = (sa.bin_stats(), sb.bin_stats());
        assert_eq!(wa.count(), wb.count(), "{what}: {name} stats count");
        // Bit-exact, not approximate: both paths must fold the same f64s
        // in the same order.
        assert_eq!(
            wa.mean().to_bits(),
            wb.mean().to_bits(),
            "{what}: {name} stats mean"
        );
        assert_eq!(
            wa.variance().to_bits(),
            wb.variance().to_bits(),
            "{what}: {name} stats variance"
        );
    }
    assert_eq!(
        a.variance_time.bins_seen(),
        b.variance_time.bins_seen(),
        "{what}"
    );
    let (pa, pb) = (a.variance_time.points(), b.variance_time.points());
    assert_eq!(pa.len(), pb.len(), "{what}: vt points");
    for (x, y) in pa.iter().zip(&pb) {
        assert_eq!(x.block, y.block, "{what}");
        assert_eq!(x.blocks_seen, y.blocks_seen, "{what}");
        assert_eq!(
            x.normalized_variance.to_bits(),
            y.normalized_variance.to_bits(),
            "{what}"
        );
    }
    assert_eq!(a.flows.len(), b.flows.len(), "{what}");
    for (session, fa) in a.flows.iter() {
        let fb = b.flows.get(*session).unwrap_or_else(|| {
            panic!("{what}: flow {session} present in one path only");
        });
        assert_eq!(fa.first, fb.first, "{what}");
        assert_eq!(fa.last, fb.last, "{what}");
        assert_eq!(fa.packets, fb.packets, "{what}");
        assert_eq!(fa.wire_bytes, fb.wire_bytes, "{what}");
        assert_eq!(fa.app_bytes, fb.app_bytes, "{what}");
    }
    let (la, lb) = (
        a.flows.long_flows(SimDuration::from_secs(1)),
        b.flows.long_flows(SimDuration::from_secs(1)),
    );
    assert_eq!(la.len(), lb.len(), "{what}");
    for (x, y) in la.iter().zip(&lb) {
        assert_eq!(x.first, y.first, "{what}: long_flows order");
        assert_eq!(x.packets, y.packets, "{what}: long_flows order");
    }
}

#[test]
fn columnar_matches_per_record_on_randomized_streams() {
    let duration = SimDuration::from_mins(10);
    let end = SimTime::from_nanos(duration.as_nanos());
    for seed in [1, 42, 0xdead_beef, 7_777_777] {
        let bursts = random_bursts(seed, 400);
        let columnar = run_through(FullAnalysis::new(duration), &bursts, end);
        let packet = run_per_packet(FullAnalysis::new(duration), &bursts, end);
        assert_identical(
            &columnar,
            &packet,
            &format!("seed {seed}: soa vs on_packet"),
        );
    }
}

#[test]
fn uniform_tick_bursts_match_per_record() {
    // Every burst shares one timestamp, as a world run's ticks do, so each
    // reaches the sink as exactly one column call.
    let duration = SimDuration::from_mins(5);
    let end = SimTime::from_nanos(duration.as_nanos());
    let mut rng = 99u64;
    let mut bursts = Vec::new();
    for tick in 0..2_000u64 {
        let t = SimTime::from_nanos(tick * 50_000_000);
        let n = (next(&mut rng) % 30) as usize;
        bursts.push(
            (0..n)
                .map(|_| TraceRecord {
                    time: t,
                    direction: if next(&mut rng) % 4 == 0 {
                        Direction::Inbound
                    } else {
                        Direction::Outbound
                    },
                    kind: PacketKind::StateUpdate,
                    session: (next(&mut rng) % 24) as u32,
                    app_len: (next(&mut rng) % 400) as u32,
                })
                .collect(),
        );
    }
    let columnar = run_through(FullAnalysis::new(duration), &bursts, end);
    let packet = run_per_packet(FullAnalysis::new(duration), &bursts, end);
    assert_identical(&columnar, &packet, "uniform ticks");
}

#[test]
fn foreign_near_max_size_folds_to_the_same_wire_bytes_either_way() {
    // A replayed CSPT record can carry any u32 size. Wire bytes are
    // app_len + 58 computed in u64, so nothing wraps or overflows, and the
    // row and column deliveries agree on the widened total.
    let rec = TraceRecord {
        time: SimTime::from_secs(90),
        direction: Direction::Inbound,
        kind: PacketKind::ClientCommand,
        session: 5,
        app_len: u32::MAX - 10,
    };
    let mut writer = TraceWriter::new(Vec::new()).unwrap();
    writer.write(&rec).unwrap();
    let bytes = writer.finish().unwrap();
    let replayed = TraceReader::new(&bytes[..])
        .unwrap()
        .read()
        .unwrap()
        .unwrap();
    assert_eq!(replayed, rec);

    let duration = SimDuration::from_mins(2);
    let end = SimTime::from_nanos(duration.as_nanos());
    let mut by_packet = FullAnalysis::new(duration);
    by_packet.on_packet(&replayed);
    by_packet.on_end(end);
    let mut by_columns = FullAnalysis::new(duration);
    let mut batch = PacketBatch::new();
    batch.start(replayed.time);
    batch.push(
        replayed.direction,
        replayed.kind,
        replayed.session,
        replayed.app_len,
    );
    by_columns.on_columns(&batch);
    by_columns.on_end(end);

    const WIRE: u64 = 4_294_967_343;
    for (a, how) in [(&by_packet, "on_packet"), (&by_columns, "on_columns")] {
        assert_eq!(a.counts.total_wire_bytes(), WIRE, "{how}: counts");
        assert_eq!(
            a.counts.wire_bytes_in(Direction::Inbound),
            WIRE,
            "{how}: counts inbound"
        );
        let bins: Vec<u64> = a.per_minute.bins().iter().map(|b| b.wire_bytes).collect();
        assert_eq!(bins, vec![0, WIRE], "{how}: per_minute bins");
        let flow = a.flows.get(5).expect("the record opens flow 5");
        assert_eq!(flow.wire_bytes, [WIRE, 0], "{how}: flow wire_bytes");
    }
    assert_identical(&by_packet, &by_columns, "near-u32::MAX size");
}

/// One delivery to a sink: a single record, or a one-instant burst.
enum Delivery {
    Record(TraceRecord),
    Burst(SimTime, Vec<TraceRecord>),
}

/// A random record at `ns`: any direction and kind, a sessionless probe
/// (`u32::MAX`) one time in six, and sizes past the histogram's bound.
fn edge_record(rng: &mut u64, ns: u64) -> TraceRecord {
    TraceRecord {
        time: SimTime::from_nanos(ns),
        direction: if next(rng) % 2 == 0 {
            Direction::Inbound
        } else {
            Direction::Outbound
        },
        kind: PacketKind::ALL[(next(rng) % 12) as usize],
        session: match next(rng) % 6 {
            0 => u32::MAX,
            _ => (next(rng) % 30) as u32,
        },
        app_len: (next(rng) % 700) as u32,
    }
}

/// A delivery stream that leans on the 10 ms base bins' edges: records at
/// k·10 ms and at k·10 ms − 1 ns, runs of empty bins, and several
/// one-instant bursts (some empty) landing in the same bin as earlier
/// records. Returns the stream and its last instant.
fn edge_stream(seed: u64, steps: usize) -> (Vec<Delivery>, u64) {
    const BIN: u64 = 10_000_000;
    let mut rng = seed;
    let mut t: u64 = 0;
    let mut out = Vec::new();
    for _ in 0..steps {
        t = match next(&mut rng) % 6 {
            // Later in the same bin, when it fits.
            0 => (t + next(&mut rng) % 3_000_000).min(t / BIN * BIN + BIN - 1),
            // The first nanosecond of the next bin.
            1 => (t / BIN + 1) * BIN,
            // The last nanosecond of the next bin.
            2 => (t / BIN + 2) * BIN - 1,
            // A run of empty bins, then anywhere in a bin.
            3 => (t / BIN + 2 + next(&mut rng) % 40) * BIN + next(&mut rng) % BIN,
            // The same instant again.
            4 => t,
            _ => t + 1 + next(&mut rng) % 25_000_000,
        };
        if next(&mut rng) % 2 == 0 {
            out.push(Delivery::Record(edge_record(&mut rng, t)));
            continue;
        }
        // Several bursts in the open bin, each one instant.
        for _ in 0..1 + next(&mut rng) % 3 {
            let rows = (next(&mut rng) % 8) as usize;
            let burst = (0..rows).map(|_| edge_record(&mut rng, t)).collect();
            out.push(Delivery::Burst(SimTime::from_nanos(t), burst));
            if t % BIN < BIN - 1_000 {
                t += next(&mut rng) % 1_000;
            }
        }
    }
    (out, t)
}

/// Delivers `stream` and `end` to a sink: records by `on_packet`, bursts
/// by `on_columns`.
fn deliver(sink: &mut dyn TraceSink, stream: &[Delivery], end: SimTime) {
    let mut batch = PacketBatch::new();
    for d in stream {
        match d {
            Delivery::Record(rec) => sink.on_packet(rec),
            Delivery::Burst(at, rows) => {
                batch.start(*at);
                for r in rows {
                    batch.push(r.direction, r.kind, r.session, r.app_len);
                }
                sink.on_columns(&batch);
            }
        }
    }
    sink.on_end(end);
}

#[test]
fn per_bin_fold_matches_each_analyzer_fed_alone() {
    // `FullAnalysis` hands its counters, bin series and variance-time
    // estimator one run per 10 ms base bin. The reference is the same
    // thirteen analyzers, built by `FullAnalysis::new`, each fed every
    // record and burst itself, so no base bin is held back anywhere.
    const BIN: u64 = 10_000_000;
    let duration = SimDuration::from_mins(10);
    for seed in [3, 17, 0x5eed, 987_654_321] {
        let (stream, last) = edge_stream(seed, 3_000);
        let boundary = (last / BIN + 1) * BIN;
        for end in [boundary, boundary + 1] {
            let end = SimTime::from_nanos(end);
            let mut folded = FullAnalysis::new(duration);
            deliver(&mut folded, &stream, end);
            let mut alone = FullAnalysis::new(duration);
            let a = &mut alone;
            let parts: [&mut dyn TraceSink; 13] = [
                &mut a.counts,
                &mut a.per_minute,
                &mut a.per_minute_in,
                &mut a.per_minute_out,
                &mut a.ms10_total,
                &mut a.ms10_in,
                &mut a.ms10_out,
                &mut a.ms50_total,
                &mut a.sec1_total,
                &mut a.min30_total,
                &mut a.variance_time,
                &mut a.sizes,
                &mut a.flows,
            ];
            for part in parts {
                deliver(part, &stream, end);
            }
            assert!(folded.counts.total_packets() > 1_000, "seed {seed}");
            assert_eq!(folded.counts.end, Some(end), "seed {seed}");
            assert_identical(
                &folded,
                &alone,
                &format!("seed {seed}, end {} ns", end.as_nanos()),
            );
        }
    }
}
