//! The coordinator/worker protocol across *real* OS processes: `repro
//! fleet coordinate` spawns `repro fleet work` children against a shared
//! state directory, and its stdout must be byte-identical to the
//! in-process `--fleet` run. The thread-based protocol tests live in
//! `tests/integration_coord.rs`; this one pins the process plumbing —
//! argv round-trip, exit codes, stdout discipline.

use std::path::PathBuf;
use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("csprov-proc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Drops blank lines, as the CI diff does: the in-process run prints a
/// leading blank separator before the banner.
fn meaningful(stdout: &[u8]) -> String {
    String::from_utf8_lossy(stdout)
        .lines()
        .filter(|l| !l.is_empty())
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn coordinate_over_two_processes_matches_the_in_process_fleet() {
    let dir = temp_dir("two");
    let baseline = repro()
        .args(["--seed", "7", "--fleet", "3", "--fleet-minutes", "2"])
        .output()
        .expect("in-process fleet runs");
    assert!(baseline.status.success(), "baseline --fleet must succeed");

    let coordinated = repro()
        .args(["fleet", "coordinate", "--seed", "7", "--fleet", "3"])
        .args(["--fleet-minutes", "2", "--workers", "2"])
        .arg("--fleet-state-dir")
        .arg(&dir)
        .output()
        .expect("coordinate runs");
    assert!(
        coordinated.status.success(),
        "coordinate must succeed: {}",
        String::from_utf8_lossy(&coordinated.stderr)
    );
    assert_eq!(
        meaningful(&coordinated.stdout),
        meaningful(&baseline.stdout),
        "coordinated report must be byte-identical to --fleet"
    );
    let stderr = String::from_utf8_lossy(&coordinated.stderr);
    assert!(
        stderr.contains("worker 0 launched") && stderr.contains("worker 1 launched"),
        "two workers must actually have been spawned:\n{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_worker_process_runs_its_range_and_exits_cleanly() {
    let dir = temp_dir("worker");
    let out = repro()
        .args(["fleet", "work", "--shards", "0:1", "--seed", "7"])
        .args(["--fleet", "2", "--fleet-minutes", "1"])
        .arg("--fleet-state-dir")
        .arg(&dir)
        .output()
        .expect("worker runs");
    assert!(out.status.success(), "worker exits 0");
    assert!(
        out.stdout.is_empty(),
        "worker stdout belongs to the coordinator"
    );
    assert!(dir.join("shard-00000.state").exists(), "checkpoint written");
    assert!(dir.join("shard-00000.hb").exists(), "heartbeat written");
    assert!(
        !dir.join("shard-00001.state").exists(),
        "out-of-range shard untouched"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_subcommands_fail_without_touching_disk() {
    let dir = temp_dir("bad");
    for args in [
        vec!["fleet", "work", "--fleet", "2"], // no --shards, no state dir
        vec!["fleet", "coordinate"],           // no fleet size, no state dir
        vec!["fleet", "work", "--shards", "3:1", "--fleet", "4"],
    ] {
        let out = repro().args(&args).output().expect("repro runs");
        assert!(!out.status.success(), "{args:?} must fail");
    }
    assert!(!dir.exists());
}

#[test]
fn flags_a_command_does_not_take_are_rejected_by_name() {
    let dir = temp_dir("scope");
    let state = dir.to_str().expect("temp dir path is UTF-8");
    let work = ["fleet", "work", "--shards", "0:1", "--fleet", "2"];
    let coordinate = ["fleet", "coordinate", "--fleet", "2"];
    for (args, needle) in [
        (
            [&work[..], &["--workers", "9"]].concat(),
            "does not take --workers",
        ),
        (
            [&work[..], &["--serve", "127.0.0.1:1"]].concat(),
            "does not take --serve",
        ),
        (
            [&work[..], &["--serve-linger", "3"]].concat(),
            "does not take --serve-linger",
        ),
        (
            [&coordinate[..], &["--serve-linger", "2"]].concat(),
            "--serve-linger requires --serve",
        ),
        (
            vec!["fleet", "bogus"],
            "unknown fleet subcommand 'bogus' (known: merge, work, coordinate)",
        ),
    ] {
        let out = repro()
            .args(&args)
            .args(["--fleet-state-dir", state])
            .output()
            .expect("repro runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(
            stderr.contains(needle),
            "{args:?} must say {needle:?}:\n{stderr}"
        );
    }
    assert!(!dir.exists(), "a rejected command touches no disk");
}

#[test]
fn help_is_a_success_and_merge_never_writes_to_a_flag() {
    let dir = temp_dir("help");
    std::fs::create_dir_all(&dir).expect("temp dir");
    for args in [
        vec!["--help"],
        vec!["fleet", "work", "--help"],
        vec!["fleet", "coordinate", "-h"],
        vec!["fleet", "merge", "--help"],
        vec!["fleet", "merge", "--help", "st/shard-00000.state"],
    ] {
        let out = repro()
            .args(&args)
            .current_dir(&dir)
            .output()
            .expect("repro runs");
        assert!(out.status.success(), "{args:?} must exit 0");
        assert!(
            String::from_utf8_lossy(&out.stdout).starts_with("usage: repro"),
            "{args:?} prints its usage on stdout"
        );
        assert!(out.stderr.is_empty(), "{args:?} writes nothing to stderr");
    }
    for (args, needle) in [
        (vec!["--bogus"], "unknown option: --bogus"),
        (
            vec![
                "fleet",
                "merge",
                "--out",
                "report.txt",
                "st/shard-00000.state",
            ],
            "output path '--out' starts with '-'",
        ),
    ] {
        let out = repro()
            .args(&args)
            .current_dir(&dir)
            .output()
            .expect("repro runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?} must exit 1");
        assert!(out.stdout.is_empty(), "{args:?} prints nothing on stdout");
        assert!(
            stderr.contains(needle) && stderr.contains("usage: repro"),
            "{args:?} must say {needle:?} and show the usage:\n{stderr}"
        );
    }
    let left: Vec<_> = std::fs::read_dir(&dir)
        .expect("temp dir readable")
        .map(|e| e.map(|e| e.file_name()))
        .collect();
    assert!(left.is_empty(), "nothing may be written: {left:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
