//! Crash-safe fleet execution, end to end: checkpoint, lose state,
//! resume, and get the *byte-identical* report an uninterrupted run
//! produces; lose a shard and get a degraded report whose coverage block
//! says exactly what is missing.

use csprov::fleet::{
    persist, run_fleet, run_fleet_full, FacilityAnalysis, FailSpec, FleetConfig, FleetError,
    FleetPersistence, ProvisioningReport,
};
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("csprov-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The tentpole guarantee: a run killed after some shards checkpointed,
/// then resumed, renders the same report byte for byte as a run that was
/// never interrupted — even when one surviving checkpoint was corrupted
/// on disk in between.
#[test]
fn kill_and_resume_report_is_byte_identical() {
    let dir = temp_dir("resume");
    let config = FleetConfig::new("resume", 4242, 4, 3);
    let uninterrupted = run_fleet(&config).expect("baseline fleet");
    let baseline = uninterrupted.report.render().render();

    // "Crash" mid-fleet: simulate by checkpointing everything, then
    // destroying part of the state directory — exactly what a SIGKILL
    // between shard completions leaves behind (atomic writes mean each
    // file is either whole or absent, plus possibly a stale tmp file).
    let first = run_fleet_full(&config, &FleetPersistence::checkpoint_to(&dir), None)
        .expect("checkpointing fleet");
    assert_eq!(first.persist.checkpoints_written, 4);
    assert_eq!(first.report.render().render(), baseline);
    std::fs::remove_file(dir.join(persist::shard_file_name(0))).expect("drop shard 0");
    std::fs::remove_file(dir.join(persist::shard_file_name(3))).expect("drop shard 3");
    let victim = dir.join(persist::shard_file_name(2));
    let mut bytes = std::fs::read(&victim).expect("read shard 2");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&victim, &bytes).expect("corrupt shard 2");
    std::fs::write(dir.join(".shard-00009.state.tmp"), b"half-written").expect("stale tmp");

    let resumed =
        run_fleet_full(&config, &FleetPersistence::resume_from(&dir), None).expect("resumed fleet");
    assert_eq!(resumed.persist.resumed, 1, "only shard 1 was restorable");
    assert_eq!(
        resumed.persist.invalid_checkpoints, 1,
        "shard 2 was corrupt"
    );
    assert_eq!(
        resumed.persist.checkpoints_written, 3,
        "recomputed shards re-checkpoint"
    );
    assert_eq!(resumed.report.render().render(), baseline);
    assert_eq!(
        resumed.facility.per_minute.bins(),
        uninterrupted.facility.per_minute.bins()
    );
    assert_eq!(
        resumed.facility.counts.packets,
        uninterrupted.facility.counts.packets
    );

    // After the resume the directory is whole again: a second resume
    // restores everything and recomputes nothing.
    let second =
        run_fleet_full(&config, &FleetPersistence::resume_from(&dir), None).expect("second resume");
    assert_eq!(second.persist.resumed, 4);
    assert_eq!(second.persist.checkpoints_written, 0);
    assert_eq!(second.report.render().render(), baseline);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Degraded mode pinned down: a permanently failing shard costs its
/// traffic, not the run. The coverage block must name the lost shard and
/// mark the headline numbers as lower bounds.
#[test]
fn degraded_fleet_reports_explicit_coverage() {
    let mut config = FleetConfig::new("degraded", 777, 4, 2);
    config.fail_plan = vec![FailSpec::Forever { shard: 1 }];
    let run = run_fleet(&config).expect("degraded fleet still reports");

    let cov = &run.report.coverage;
    assert!(cov.is_degraded());
    assert_eq!(cov.configured, 4);
    assert_eq!(cov.merged, 3);
    assert_eq!(cov.lost, vec![1]);
    assert_eq!(cov.retries, 0, "a shard runs once");
    assert_eq!(run.facility.shards, 3);
    assert!(run.report.players_unaccounted() > 0.0);

    let rendered = run.report.render().render();
    assert!(rendered.contains("3/4 shards merged"), "{rendered}");
    assert!(rendered.contains("shards lost"), "{rendered}");
    assert!(rendered.contains("players unaccounted"), "{rendered}");
    assert!(
        rendered.contains("lower bound (1 of 4 shards missing)"),
        "{rendered}"
    );
    assert!(run
        .report
        .sizing_line()
        .contains("[lower bound: 3/4 shards merged]"));

    // The survivors' aggregate is exactly the 3 healthy shards' traffic:
    // merging those shards directly must reproduce it bit for bit.
    let healthy: Vec<_> = [0usize, 2, 3]
        .iter()
        .map(|&i| {
            csprov::fleet::ShardState::from_run(
                i,
                csprov::pipeline::MainRun::execute(config.scenario(i)),
            )
        })
        .collect();
    let reference = FacilityAnalysis::merge(healthy).expect("reference merge");
    assert_eq!(run.facility.per_minute.bins(), reference.per_minute.bins());
    assert_eq!(run.facility.counts.packets, reference.counts.packets);
}

/// A fleet with no survivors is a typed error, not a report of nothing.
#[test]
fn fleet_with_no_survivors_fails_typed() {
    let mut config = FleetConfig::new("void", 5, 2, 1);
    config.fail_plan = (0..2).map(|shard| FailSpec::Forever { shard }).collect();
    match run_fleet(&config) {
        Err(FleetError::AllShardsLost { configured, .. }) => assert_eq!(configured, 2),
        Err(other) => panic!("expected AllShardsLost, got {other}"),
        Ok(_) => panic!("expected AllShardsLost, got a report"),
    }
}

/// The multi-process path: checkpoints written by separate fleet runs
/// (different state dirs, one shard each — the closest in-process model
/// of independent machines) merge into the same report the single-process
/// fleet computes.
#[test]
fn out_of_process_merge_matches_in_process_fleet() {
    let config = FleetConfig::new("fleet", 909, 3, 2);
    let reference = run_fleet(&config).expect("in-process fleet");

    let dir = temp_dir("shards");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let mut paths = Vec::new();
    for shard in 0..config.servers {
        let state = csprov::fleet::ShardState::from_run(
            shard,
            csprov::pipeline::MainRun::execute(config.scenario(shard)),
        );
        paths.push(persist::write_checkpoint_atomic(&dir, &state).expect("checkpoint"));
    }
    // Merge in scrambled order: the fold is canonical regardless.
    paths.rotate_left(1);
    let (facility, shards) = persist::merge_state_files(&paths).expect("file merge");
    let report = ProvisioningReport::build(
        &config,
        &facility,
        &shards,
        csprov::fleet::FleetCoverage::full(facility.shards),
    )
    .expect("report from files");
    assert_eq!(report.render().render(), reference.report.render().render());
    let _ = std::fs::remove_dir_all(&dir);
}
