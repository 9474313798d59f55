//! Property-based tests for the analysis toolkit: binning must conserve
//! packets and bytes, moments must match two-pass references, and the
//! distribution machinery must stay normalized.

use csprov_analysis::{
    fit_line, summarize_sessions, FlowTable, Histogram, RateSeries, SessionRecord, SizeHistogram,
    VarianceTime, Welford,
};
use csprov_net::{Direction, PacketKind, TraceRecord, TraceSink};
use csprov_sim::check::{check, Gen};
use csprov_sim::{SimDuration, SimTime};

fn gen_records(g: &mut Gen, max: usize) -> Vec<TraceRecord> {
    let mut v = g.vec_with(1..max, |g| {
        (
            g.u64_in(0..10_000_000_000), // up to 10 s
            g.bool(),
            g.u32_in(0..50),
            g.u32_in(0..500),
        )
    });
    v.sort_by_key(|e| e.0);
    v.into_iter()
        .map(|(t, inb, session, len)| TraceRecord {
            time: SimTime::from_nanos(t),
            direction: if inb {
                Direction::Inbound
            } else {
                Direction::Outbound
            },
            kind: PacketKind::ClientCommand,
            session,
            app_len: len,
        })
        .collect()
}

/// Binning conserves packet and byte totals at any width.
#[test]
fn rate_series_conserves_totals() {
    check("rate_series_conserves_totals", 128, |g| {
        let records = gen_records(g, 300);
        let width_ms = g.u64_in(1..5_000);
        let mut s = RateSeries::new(SimDuration::from_millis(width_ms));
        let mut packets = 0u64;
        let mut bytes = 0u64;
        for r in &records {
            s.on_packet(r);
            packets += 1;
            bytes += r.wire_len();
        }
        s.on_end(records.last().unwrap().time);
        let bp: u64 = s.bins().iter().map(|b| b.packets).sum();
        let bb: u64 = s.bins().iter().map(|b| b.wire_bytes).sum();
        assert_eq!(bp, packets);
        assert_eq!(bb, bytes);
    });
}

/// Directional sub-series partition the total exactly.
#[test]
fn rate_series_direction_partition() {
    check("rate_series_direction_partition", 128, |g| {
        let records = gen_records(g, 300);
        let w = SimDuration::from_millis(100);
        let mut total = RateSeries::new(w);
        let mut inb = RateSeries::with_options(w, Some(Direction::Inbound), None);
        let mut out = RateSeries::with_options(w, Some(Direction::Outbound), None);
        let end = records.last().unwrap().time;
        for r in &records {
            total.on_packet(r);
            inb.on_packet(r);
            out.on_packet(r);
        }
        total.on_end(end);
        inb.on_end(end);
        out.on_end(end);
        assert_eq!(total.bins().len(), inb.bins().len());
        for i in 0..total.bins().len() {
            assert_eq!(
                total.bins()[i].packets,
                inb.bins()[i].packets + out.bins()[i].packets
            );
        }
    });
}

/// Welford matches the naive two-pass computation and merge is associative
/// with sequential feeding.
#[test]
fn welford_matches_two_pass() {
    check("welford_matches_two_pass", 128, |g| {
        let xs = g.vec_with(2..300, |g| g.f64_in(-1e6..1e6));
        let split = g.usize_in(1..250).min(xs.len() - 1);
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        assert!((w.mean() - mean).abs() < 1e-6_f64.max(mean.abs() * 1e-9));
        assert!((w.variance() - var).abs() < 1e-3_f64.max(var * 1e-9));

        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..split] {
            a.push(x);
        }
        for &x in &xs[split..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), w.count());
        assert!((a.variance() - w.variance()).abs() < 1e-3_f64.max(var * 1e-9));
    });
}

/// Size histogram PDFs are normalized and CDFs are monotone for any input.
#[test]
fn histogram_normalized() {
    check("histogram_normalized", 128, |g| {
        let records = gen_records(g, 300);
        let mut h = SizeHistogram::new(500);
        for r in &records {
            h.on_packet(r);
        }
        for d in [Direction::Inbound, Direction::Outbound] {
            if h.total(d) == 0 {
                continue;
            }
            let pdf = h.pdf(d);
            let sum: f64 = pdf.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "pdf sums to {sum}");
            let cdf = h.cdf(d);
            for w in cdf.windows(2) {
                assert!(w[1] >= w[0] - 1e-12);
            }
        }
    });
}

/// Float histograms never lose a sample.
#[test]
fn float_histogram_conserves() {
    check("float_histogram_conserves", 128, |g| {
        let xs = g.vec_with(0..300, |g| g.f64_in(-100.0..1000.0));
        let mut h = Histogram::new(0.0, 500.0, 25);
        for &x in &xs {
            h.record(x);
        }
        assert_eq!(h.total(), xs.len() as u64);
        let binned: u64 = h.counts().iter().sum();
        assert_eq!(binned + h.underflow() + h.overflow(), xs.len() as u64);
    });
}

/// Flow-table totals equal counting-sink totals for session traffic.
#[test]
fn flow_table_conserves() {
    check("flow_table_conserves", 128, |g| {
        let records = gen_records(g, 300);
        let mut flows = FlowTable::new();
        let mut packets = 0u64;
        for r in &records {
            flows.on_packet(r);
            if r.session != u32::MAX {
                packets += 1;
            }
        }
        let fp: u64 = flows.iter().map(|(_, f)| f.packets[0] + f.packets[1]).sum();
        assert_eq!(fp, packets);
    });
}

/// The variance-time estimator's bin count equals the trace's span, and
/// every reported point has normalized variance in a sane range.
#[test]
fn variance_time_sane() {
    check("variance_time_sane", 128, |g| {
        let records = gen_records(g, 300);
        let base = SimDuration::from_millis(10);
        let mut vt = VarianceTime::new(base, 100, 4);
        for r in &records {
            vt.on_packet(r);
        }
        let end = records.last().unwrap().time;
        vt.on_end(end);
        let expected_bins = end.as_nanos().div_ceil(base.as_nanos());
        assert_eq!(vt.bins_seen(), expected_bins);
        for p in vt.points() {
            assert!(p.normalized_variance > 0.0);
            assert!(
                p.normalized_variance <= 1.0 + 1e-9,
                "aggregating cannot raise variance: {}",
                p.normalized_variance
            );
        }
    });
}

/// Line fitting reproduces exact lines from arbitrary parameters.
#[test]
fn fit_recovers_exact_lines() {
    check("fit_recovers_exact_lines", 256, |g| {
        let slope = g.f64_in(-1e3..1e3);
        let intercept = g.f64_in(-1e3..1e3);
        let n = g.usize_in(2..50);
        let pts: Vec<(f64, f64)> = (0..n)
            .map(|i| (i as f64, slope * i as f64 + intercept))
            .collect();
        let fit = fit_line(&pts).unwrap();
        assert!((fit.slope - slope).abs() < 1e-6_f64.max(slope.abs() * 1e-9));
        assert!((fit.intercept - intercept).abs() < 1e-5_f64.max(intercept.abs() * 1e-6));
    });
}

/// Session summaries: established ≤ attempted, uniques ≤ totals,
/// refused = attempted − established.
#[test]
fn session_summary_invariants() {
    check("session_summary_invariants", 128, |g| {
        let entries = g.vec_with(0..100, |g| {
            (
                g.u32_in(0..50),
                g.u64_in(0..10_000),
                g.u64_in(0..3_600),
                g.bool(),
            )
        });
        let log: Vec<SessionRecord> = entries
            .iter()
            .enumerate()
            .map(|(i, &(client, start, dur, est))| SessionRecord {
                session_id: i as u32,
                client_id: client,
                start: SimTime::from_secs(start),
                end: est.then(|| SimTime::from_secs(start + dur)),
                established: est,
            })
            .collect();
        let s = summarize_sessions(&log);
        assert!(s.established <= s.attempted);
        assert_eq!(s.refused, s.attempted - s.established);
        assert!(s.unique_establishing <= s.established.max(50));
        assert!(s.unique_attempting >= s.unique_establishing);
        assert!(s.unique_attempting <= s.attempted);
    });
}
