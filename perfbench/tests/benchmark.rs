//! The benchmark's own tests: traced re-compositions reproduce their
//! untraced entry points, layer self times fit inside the traced wall, and
//! the metrics printed are exactly those `BENCHMARK.json` declares.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use csprov::experiments::nat::run_nat_experiment;
use csprov::experiments::tables;
use csprov::pipeline::MainRun;
use csprov::router::EngineConfig;
use csprov_obs::json::Json;
use perfbench::fleet_resume::FleetResume;
use perfbench::main_trace::{self, MainTrace};
use perfbench::metrics::{result_json, END_TO_END, PER_LAYER};
use perfbench::nat_device::{self, NatDeviceWorkload};
use perfbench::trace::Tracer;
use perfbench::{run, Workload};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::Instant;

/// A short horizon: three simulated minutes.
const SHORT_HOURS: f64 = 0.05;

fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Json::as_arr)
        .expect("metric section")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn as_owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn declarations_match_benchmark_json() {
    assert_eq!(declared("end_to_end"), as_owned(END_TO_END));
    assert_eq!(declared("per_layer"), as_owned(PER_LAYER));
}

/// The metric names on a result line, in order.
fn printed_names(line: &str) -> Vec<String> {
    let doc = Json::parse(line).expect("result line parses");
    for key in ["correct", "attempted", "failed", "metrics"] {
        assert!(doc.get(key).is_some(), "result lacks {key}");
    }
    assert_eq!(doc.as_obj().map(<[_]>::len), Some(4), "exactly four keys");
    doc.get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics object")
        .iter()
        .map(|(name, v)| {
            assert!(
                v.get("value").and_then(Json::as_f64).is_some(),
                "{name} value"
            );
            name.clone()
        })
        .collect()
}

/// Runs `w` for its minimum rounds both ways; checks every operation
/// passed, every traced round's self times fit its wall, and the printed
/// names equal the declared ones in both directions.
fn exercise(make: &dyn Fn() -> Box<dyn Workload>) {
    for (traced, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let mut w = make();
        let out = run(w.as_mut(), 0.0, traced);
        assert_eq!(out.checks.failed, 0, "{:?}", out.checks.reasons);
        assert!(out.checks.attempted > 0);
        for r in &out.traced {
            assert!(
                r.self_s_sum <= r.busy_capacity_s,
                "layer self times {} exceed {}",
                r.self_s_sum,
                r.busy_capacity_s
            );
        }
        let declared_list = if traced { PER_LAYER } else { END_TO_END };
        let line = result_json(true, out.checks.attempted, 0, &out.metrics, declared_list)
            .expect("every declared metric measured");
        let printed: BTreeSet<String> = printed_names(&line).into_iter().collect();
        let json: BTreeSet<String> = declared(section).into_iter().map(|(n, _)| n).collect();
        assert_eq!(printed, json, "printed vs BENCHMARK.json {section}");
        let measured: BTreeSet<String> = out.metrics.names().map(String::from).collect();
        assert_eq!(measured, json, "nothing undeclared is measured");
    }
}

#[test]
fn main_trace_traced_matches_main_run() {
    let plain = MainRun::execute(csprov_bench::scenario(5, SHORT_HOURS));
    let tracer = Tracer::new();
    let start = Instant::now();
    let config = csprov_bench::scenario(5, SHORT_HOURS);
    let (run, seams) = main_trace::execute_traced(config, &tracer);
    let wall = start.elapsed().as_secs_f64();
    assert_eq!(
        main_trace::Fingerprint::of(&plain, main_trace::render(&plain)),
        main_trace::Fingerprint::of(&run, main_trace::render(&run)),
    );
    let c = &plain.analysis.counts;
    assert_eq!(seams.tap.records(), c.total_packets());
    assert_eq!(
        seams.events, plain.outcome.events_executed,
        "the world's counter agrees with its outcome"
    );
    assert!(main_trace::conservation_problems(&run).is_empty());
    assert!(tracer.totals().self_s_sum() <= wall);
}

#[test]
fn main_trace_reports_every_declared_metric() {
    exercise(&|| Box::new(MainTrace::new(6, 2, SHORT_HOURS)));
}

#[test]
fn nat_device_traced_matches_run_nat_experiment() {
    let seed = 2002;
    let plain = run_nat_experiment(seed, EngineConfig::default());
    let tracer = Tracer::new();
    let start = Instant::now();
    let traced = nat_device::compose(
        nat_device::paper_config(seed),
        EngineConfig::default(),
        Some(&tracer),
    );
    let wall = start.elapsed().as_secs_f64();
    let fp = |r: &csprov::experiments::nat::NatRun| {
        nat_device::Fingerprint::of(r, tables::table4(r).render())
    };
    let (a, b) = (fp(&plain), fp(&traced.run));
    assert_eq!(a, b);
    assert!(nat_device::device_problems(&traced.run, &b).is_empty());
    // Farewell datagrams reach the server without crossing the device.
    assert!(
        traced.world.tap.inbound >= b.engine[0][1],
        "the server sees everything the device forwarded"
    );
    assert!(tracer.totals().self_s_sum() <= wall);
}

#[test]
fn nat_device_reports_every_declared_metric() {
    exercise(&|| Box::new(NatDeviceWorkload::new(2003, 1)));
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn fleet_resume_traced_and_resumed_match_a_fresh_fleet() {
    // The workload itself compares every resumed and every traced report
    // with a fresh run's, byte for byte, and counts a mismatch as failed.
    let dir = scratch("fleet-resume");
    exercise(&|| Box::new(FleetResume::new(9, 6, 2, &dir)));
    let _ = std::fs::remove_dir_all(&dir);
}
