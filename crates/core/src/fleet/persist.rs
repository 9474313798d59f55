//! Checkpoint files for crash-safe fleet execution.
//!
//! Serializes [`ShardState`] and [`FacilityAnalysis`] into the
//! `csprov-state/1` container (see [`csprov_analysis::persist`]): a
//! versioned, checksummed, zero-dependency binary format. Every field
//! travels as a fixed-width little-endian integer or an `f64` bit
//! pattern inside a length-prefixed, CRC-framed section, so a decode
//! either reproduces the encoded state bit-exactly or fails with a
//! typed [`StateError`] — never a panic, never a partial value.
//!
//! On-disk protocol: one shard per file, `shard-NNNNN.state`, written
//! atomically ([`write_checkpoint_atomic`]: write to a dot-prefixed tmp
//! name in the same directory, `fsync`, `rename`). A crash mid-write
//! leaves at worst a tmp file the resume scan ignores; a crash between
//! shards leaves a directory of complete, individually-verifiable
//! checkpoints.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use csprov_analysis::persist::{
    get_counting_sink, get_rate_series, get_size_histogram, put_counting_sink, put_rate_series,
    put_size_histogram,
};
use csprov_analysis::{
    ByteReader, ByteWriter, StateError, KIND_FACILITY, KIND_HEARTBEAT, KIND_SHARD,
};
use csprov_obs::HeartbeatRecord;
use csprov_sim::SimDuration;

use super::{FacilityAnalysis, FleetConfig, FleetError, FleetMerger, ShardState};

/// Section tags inside a `csprov-state/1` container. Shard and facility
/// containers use the same tag numbering for the shared analyzer payloads.
const TAG_META: u32 = 1;
const TAG_COUNTS: u32 = 2;
const TAG_PER_MINUTE: u32 = 3;
const TAG_PER_MINUTE_IN: u32 = 4;
const TAG_PER_MINUTE_OUT: u32 = 5;
const TAG_SIZES: u32 = 6;
const TAG_PLAYERS: u32 = 7;

/// Why a checkpoint file could not be used.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure (open, read, write, fsync, rename).
    Io(std::io::Error),
    /// The bytes are not a valid `csprov-state/1` shard container.
    State(StateError),
    /// The file decoded but does not belong to this fleet configuration.
    Mismatch(&'static str),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "io: {e}"),
            CheckpointError::State(e) => write!(f, "state: {e}"),
            CheckpointError::Mismatch(what) => write!(f, "mismatch: {what}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<StateError> for CheckpointError {
    fn from(e: StateError) -> Self {
        CheckpointError::State(e)
    }
}

/// Encodes a [`ShardState`] as a `csprov-state/1` shard container.
pub fn encode_shard_state(s: &ShardState) -> Result<Vec<u8>, StateError> {
    let mut w = ByteWriter::container(KIND_SHARD);
    w.section(TAG_META, |w| {
        w.put_u64(s.shard as u64);
        w.put_u64(s.seed);
        w.put_u64(s.duration.as_nanos());
        w.put_f64(s.mean_players);
        w.put_u64(s.sessions.0);
        w.put_u64(s.sessions.1);
    });
    let mut counts = ByteWriter::new();
    put_counting_sink(&mut counts, &s.counts)?;
    w.section(TAG_COUNTS, |w| w.put_bytes(counts.into_bytes().as_slice()));
    for (tag, series) in [
        (TAG_PER_MINUTE, &s.per_minute),
        (TAG_PER_MINUTE_IN, &s.per_minute_in),
        (TAG_PER_MINUTE_OUT, &s.per_minute_out),
    ] {
        let mut body = ByteWriter::new();
        put_rate_series(&mut body, series)?;
        w.section(tag, |w| w.put_bytes(body.into_bytes().as_slice()));
    }
    w.section(TAG_SIZES, |w| {
        let mut body = ByteWriter::new();
        put_size_histogram(&mut body, &s.sizes);
        w.put_bytes(body.into_bytes().as_slice());
    });
    w.section(TAG_PLAYERS, |w| {
        w.put_u64(s.players_per_minute.len() as u64);
        for &p in &s.players_per_minute {
            w.put_u32(p);
        }
    });
    Ok(w.into_bytes())
}

/// Decodes a `csprov-state/1` shard container back into a [`ShardState`].
pub fn decode_shard_state(bytes: &[u8]) -> Result<ShardState, StateError> {
    let (kind, mut r) = ByteReader::container(bytes)?;
    if kind != KIND_SHARD {
        return Err(StateError::WrongKind {
            expected: KIND_SHARD,
            found: kind,
        });
    }
    let mut meta = r.section(TAG_META)?;
    let shard = usize::try_from(meta.get_u64()?).map_err(|_| StateError::BadField("shard"))?;
    let seed = meta.get_u64()?;
    let duration = SimDuration::from_nanos(meta.get_u64()?);
    let mean_players = meta.get_f64()?;
    let sessions = (meta.get_u64()?, meta.get_u64()?);
    meta.finish()?;

    let mut counts = r.section(TAG_COUNTS)?;
    let counts_sink = get_counting_sink(&mut counts)?;
    counts.finish()?;

    let mut series = Vec::with_capacity(3);
    for tag in [TAG_PER_MINUTE, TAG_PER_MINUTE_IN, TAG_PER_MINUTE_OUT] {
        let mut body = r.section(tag)?;
        series.push(get_rate_series(&mut body)?);
        body.finish()?;
    }
    let per_minute_out = series.pop().ok_or(StateError::Truncated)?;
    let per_minute_in = series.pop().ok_or(StateError::Truncated)?;
    let per_minute = series.pop().ok_or(StateError::Truncated)?;

    let mut sizes = r.section(TAG_SIZES)?;
    let size_hist = get_size_histogram(&mut sizes)?;
    sizes.finish()?;

    let mut players = r.section(TAG_PLAYERS)?;
    let n = players.get_count(4)?;
    let mut players_per_minute = Vec::with_capacity(n);
    for _ in 0..n {
        players_per_minute.push(players.get_u32()?);
    }
    players.finish()?;
    r.finish()?;

    Ok(ShardState {
        shard,
        seed,
        duration,
        counts: counts_sink,
        per_minute,
        per_minute_in,
        per_minute_out,
        sizes: size_hist,
        players_per_minute,
        mean_players,
        sessions,
    })
}

/// Encodes a [`FacilityAnalysis`] as a `csprov-state/1` facility container.
pub fn encode_facility(a: &FacilityAnalysis) -> Result<Vec<u8>, StateError> {
    let mut w = ByteWriter::container(KIND_FACILITY);
    w.section(TAG_META, |w| {
        w.put_u64(a.shards as u64);
        w.put_u64(a.dropped_bins);
        w.put_u64(a.sessions.0);
        w.put_u64(a.sessions.1);
    });
    let mut counts = ByteWriter::new();
    put_counting_sink(&mut counts, &a.counts)?;
    w.section(TAG_COUNTS, |w| w.put_bytes(counts.into_bytes().as_slice()));
    for (tag, series) in [
        (TAG_PER_MINUTE, &a.per_minute),
        (TAG_PER_MINUTE_IN, &a.per_minute_in),
        (TAG_PER_MINUTE_OUT, &a.per_minute_out),
    ] {
        let mut body = ByteWriter::new();
        put_rate_series(&mut body, series)?;
        w.section(tag, |w| w.put_bytes(body.into_bytes().as_slice()));
    }
    w.section(TAG_SIZES, |w| {
        let mut body = ByteWriter::new();
        put_size_histogram(&mut body, &a.sizes);
        w.put_bytes(body.into_bytes().as_slice());
    });
    w.section(TAG_PLAYERS, |w| {
        w.put_u64(a.players_per_minute.len() as u64);
        for &p in &a.players_per_minute {
            w.put_u64(p);
        }
    });
    Ok(w.into_bytes())
}

/// Decodes a `csprov-state/1` facility container.
pub fn decode_facility(bytes: &[u8]) -> Result<FacilityAnalysis, StateError> {
    let (kind, mut r) = ByteReader::container(bytes)?;
    if kind != KIND_FACILITY {
        return Err(StateError::WrongKind {
            expected: KIND_FACILITY,
            found: kind,
        });
    }
    let mut meta = r.section(TAG_META)?;
    let shards = usize::try_from(meta.get_u64()?).map_err(|_| StateError::BadField("shards"))?;
    let dropped_bins = meta.get_u64()?;
    let sessions = (meta.get_u64()?, meta.get_u64()?);
    meta.finish()?;

    let mut counts = r.section(TAG_COUNTS)?;
    let counts_sink = get_counting_sink(&mut counts)?;
    counts.finish()?;

    let mut series = Vec::with_capacity(3);
    for tag in [TAG_PER_MINUTE, TAG_PER_MINUTE_IN, TAG_PER_MINUTE_OUT] {
        let mut body = r.section(tag)?;
        series.push(get_rate_series(&mut body)?);
        body.finish()?;
    }
    let per_minute_out = series.pop().ok_or(StateError::Truncated)?;
    let per_minute_in = series.pop().ok_or(StateError::Truncated)?;
    let per_minute = series.pop().ok_or(StateError::Truncated)?;

    let mut sizes = r.section(TAG_SIZES)?;
    let size_hist = get_size_histogram(&mut sizes)?;
    sizes.finish()?;

    let mut players = r.section(TAG_PLAYERS)?;
    let n = players.get_count(8)?;
    let mut players_per_minute = Vec::with_capacity(n);
    for _ in 0..n {
        players_per_minute.push(players.get_u64()?);
    }
    players.finish()?;
    r.finish()?;

    Ok(FacilityAnalysis {
        shards,
        counts: counts_sink,
        per_minute,
        per_minute_in,
        per_minute_out,
        sizes: size_hist,
        players_per_minute,
        dropped_bins,
        sessions,
    })
}

/// Encodes a worker heartbeat as a `csprov-state/1` heartbeat container:
/// one meta section carrying the eight [`HeartbeatRecord`] fields.
pub fn encode_heartbeat(rec: &HeartbeatRecord) -> Vec<u8> {
    let mut w = ByteWriter::container(KIND_HEARTBEAT);
    w.section(TAG_META, |w| {
        w.put_u64(rec.shard);
        w.put_u8(rec.state);
        w.put_u64(rec.sim_ns);
        w.put_u64(rec.horizon_ns);
        w.put_u64(rec.retries);
        w.put_u64(rec.checkpoints);
        w.put_u64(rec.wall_ms);
        w.put_u64(rec.unix_ms);
    });
    w.into_bytes()
}

/// Decodes a `csprov-state/1` heartbeat container.
pub fn decode_heartbeat(bytes: &[u8]) -> Result<HeartbeatRecord, StateError> {
    let (kind, mut r) = ByteReader::container(bytes)?;
    if kind != KIND_HEARTBEAT {
        return Err(StateError::WrongKind {
            expected: KIND_HEARTBEAT,
            found: kind,
        });
    }
    let mut meta = r.section(TAG_META)?;
    let rec = HeartbeatRecord {
        shard: meta.get_u64()?,
        state: meta.get_u8()?,
        sim_ns: meta.get_u64()?,
        horizon_ns: meta.get_u64()?,
        retries: meta.get_u64()?,
        checkpoints: meta.get_u64()?,
        wall_ms: meta.get_u64()?,
        unix_ms: meta.get_u64()?,
    };
    meta.finish()?;
    r.finish()?;
    Ok(rec)
}

/// The heartbeat sidecar file name for a shard: `shard-00042.hb`. Lives
/// next to the checkpoint in the state directory; the resume scan ignores
/// it (it is not a `.state` file) and the serving plane's watchdog scan
/// reads it.
pub fn heartbeat_file_name(shard: usize) -> String {
    format!("shard-{shard:05}.hb")
}

/// Parses a heartbeat sidecar name back to its shard index; `None` for
/// anything that is not exactly `shard-NNNNN.hb`.
fn parse_heartbeat_file_name(name: &str) -> Option<usize> {
    let digits = name.strip_prefix("shard-")?.strip_suffix(".hb")?;
    if digits.len() != 5 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Writes a heartbeat sidecar via tmp + rename so readers never observe a
/// torn record. Unlike checkpoints there is deliberately no `fsync`:
/// heartbeats are ephemeral liveness signals rewritten every few hundred
/// milliseconds, and losing one to a crash is exactly the signal the
/// watchdog exists to notice.
pub fn write_heartbeat(dir: &Path, rec: &HeartbeatRecord) -> Result<PathBuf, CheckpointError> {
    let shard = usize::try_from(rec.shard).map_err(|_| CheckpointError::Mismatch("shard"))?;
    let final_path = dir.join(heartbeat_file_name(shard));
    let tmp_path = dir.join(format!(".shard-{shard:05}.hb.tmp"));
    fs::write(&tmp_path, encode_heartbeat(rec))?;
    if let Err(e) = fs::rename(&tmp_path, &final_path) {
        let _ = fs::remove_file(&tmp_path);
        return Err(CheckpointError::Io(e));
    }
    Ok(final_path)
}

/// A heartbeat record plus how long ago the sidecar file was last
/// written, measured on the *observer's* clock via the file mtime.
///
/// The embedded [`HeartbeatRecord::unix_ms`] orders records (it came from
/// the writer's clock and survives replays bit-exactly); the observed age
/// is what freshness judgments must use, because a worker machine whose
/// clock is skewed would otherwise read as stalled while beating (lagging
/// clock) or alive while dead (fast clock).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObservedHeartbeat {
    /// The decoded sidecar record.
    pub rec: HeartbeatRecord,
    /// Milliseconds between the sidecar's mtime and the scan, on the
    /// scanning machine's clock (0 when the filesystem reports no mtime).
    pub age_ms: u64,
}

/// Scans `dir` for heartbeat sidecars, returning every record that
/// decodes cleanly in shard order together with its observed file age.
/// Undecodable or foreign files are skipped silently — a torn or stale
/// sidecar simply means that shard reports no fresh beat, which the
/// watchdog handles.
pub fn scan_heartbeats_observed(dir: &Path) -> Vec<ObservedHeartbeat> {
    let mut found: BTreeMap<usize, ObservedHeartbeat> = BTreeMap::new();
    let Ok(entries) = fs::read_dir(dir) else {
        return Vec::new();
    };
    let now = std::time::SystemTime::now();
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(shard) = parse_heartbeat_file_name(name) else {
            continue;
        };
        let age_ms = entry
            .metadata()
            .and_then(|m| m.modified())
            .ok()
            .and_then(|mtime| now.duration_since(mtime).ok())
            .map_or(0, |age| age.as_millis() as u64);
        let Ok(bytes) = fs::read(entry.path()) else {
            continue;
        };
        let Ok(rec) = decode_heartbeat(&bytes) else {
            continue;
        };
        if rec.shard == shard as u64 {
            found.insert(shard, ObservedHeartbeat { rec, age_ms });
        }
    }
    found.into_values().collect()
}

/// The canonical checkpoint file name for a shard: `shard-00042.state`.
/// Five digits keep lexicographic order aligned with shard order for
/// fleets up to 100k servers.
pub fn shard_file_name(shard: usize) -> String {
    format!("shard-{shard:05}.state")
}

/// Parses a checkpoint file name back to its shard index. Returns `None`
/// for anything that is not exactly `shard-NNNNN.state` (tmp files, other
/// droppings) so the resume scan skips them silently.
pub(super) fn parse_shard_file_name(name: &str) -> Option<usize> {
    let digits = name.strip_prefix("shard-")?.strip_suffix(".state")?;
    if digits.len() != 5 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Writes `state`'s checkpoint into `dir` atomically: encode, write to a
/// dot-prefixed tmp name in the same directory, `fsync`, then `rename`
/// over the final name. Readers therefore only ever observe a complete
/// file or no file; a crash mid-write leaves a tmp file the resume scan
/// ignores.
pub fn write_checkpoint_atomic(dir: &Path, state: &ShardState) -> Result<PathBuf, CheckpointError> {
    let bytes = encode_shard_state(state)?;
    let final_path = dir.join(shard_file_name(state.shard));
    let tmp_path = dir.join(format!(".shard-{:05}.state.tmp", state.shard));
    let mut file = fs::File::create(&tmp_path)?;
    file.write_all(&bytes)?;
    file.sync_all()?;
    drop(file);
    if let Err(e) = fs::rename(&tmp_path, &final_path) {
        let _ = fs::remove_file(&tmp_path);
        return Err(CheckpointError::Io(e));
    }
    Ok(final_path)
}

/// The result of scanning a state directory for resumable checkpoints.
#[derive(Default)]
pub struct CheckpointScan {
    /// Shards with a valid, config-matching checkpoint, in shard order.
    pub states: BTreeMap<usize, ShardState>,
    /// Files that looked like checkpoints but failed to decode or did not
    /// match the fleet configuration. These shards are recomputed.
    pub rejected: Vec<(PathBuf, CheckpointError)>,
}

/// Scans `dir` for valid checkpoints belonging to `config`.
///
/// Every `shard-NNNNN.state` file with `NNNNN < config.servers` is read
/// and decoded; a checkpoint is accepted only if its recorded shard index,
/// derived seed, and duration match what the fleet would compute for that
/// shard — so a directory from a different fleet (or an edited file) can
/// never smuggle foreign traffic into the report. Invalid files are
/// returned in `rejected`, not treated as fatal: the resume recomputes
/// those shards from the same derived seeds, preserving byte-identity.
pub fn load_checkpoints(
    dir: &Path,
    config: &FleetConfig,
) -> Result<CheckpointScan, CheckpointError> {
    let mut scan = CheckpointScan::default();
    let entries = fs::read_dir(dir)?;
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(shard) = parse_shard_file_name(name) else {
            continue;
        };
        if shard >= config.servers {
            continue;
        }
        let path = entry.path();
        match read_checkpoint(&path, shard, config) {
            Ok(state) => {
                scan.states.insert(shard, state);
            }
            Err(err) => scan.rejected.push((path, err)),
        }
    }
    Ok(scan)
}

/// Reads and validates one checkpoint file against the fleet config.
/// Public for the coordinator, which collects checkpoints incrementally
/// as worker processes finish shards instead of scanning the whole
/// directory each poll.
pub fn read_checkpoint(
    path: &Path,
    shard: usize,
    config: &FleetConfig,
) -> Result<ShardState, CheckpointError> {
    let bytes = fs::read(path)?;
    let state = decode_shard_state(&bytes)?;
    if state.shard != shard {
        return Err(CheckpointError::Mismatch("shard index"));
    }
    if state.seed != config.scenario(shard).seed {
        return Err(CheckpointError::Mismatch("derived seed"));
    }
    if state.duration != SimDuration::from_mins(config.minutes) {
        return Err(CheckpointError::Mismatch("duration"));
    }
    Ok(state)
}

/// Folds shard checkpoint files into a facility aggregate without holding
/// more than one decoded state at a time: each file is read, decoded and
/// pushed through the [`FleetMerger`] accumulator, then dropped before the
/// next is read, so 10k+ states merge in O(1) decoded-state memory.
///
/// Files are folded in argument order; the fold is byte-identical for any
/// order. A duplicate shard index (decoded, not taken from the file name)
/// is an error: merging the same traffic twice would silently
/// double-count it.
pub fn merge_state_files(
    paths: &[PathBuf],
) -> Result<(FacilityAnalysis, Vec<super::ShardStats>), MergeFilesError> {
    let mut seen = BTreeSet::new();
    let mut merger = FleetMerger::new();
    for path in paths {
        let bytes = fs::read(path)
            .map_err(|e| MergeFilesError::File(path.clone(), CheckpointError::Io(e)))?;
        let state = decode_shard_state(&bytes)
            .map_err(|e| MergeFilesError::File(path.clone(), CheckpointError::State(e)))?;
        if !seen.insert(state.shard) {
            return Err(MergeFilesError::DuplicateShard(state.shard));
        }
        merger.push(&state).map_err(MergeFilesError::Merge)?;
    }
    merger.finish().map_err(MergeFilesError::Merge)
}

/// Why [`merge_state_files`] failed.
#[derive(Debug)]
pub enum MergeFilesError {
    /// A file could not be read or decoded.
    File(PathBuf, CheckpointError),
    /// Two files carry the same shard index.
    DuplicateShard(usize),
    /// The decoded states could not be merged.
    Merge(FleetError),
}

impl std::fmt::Display for MergeFilesError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeFilesError::File(path, e) => write!(f, "{}: {e}", path.display()),
            MergeFilesError::DuplicateShard(s) => {
                write!(
                    f,
                    "duplicate shard {s}: merging it twice would double-count"
                )
            }
            MergeFilesError::Merge(e) => write!(f, "merge: {e}"),
        }
    }
}

impl std::error::Error for MergeFilesError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_state(shard: usize) -> ShardState {
        let config = FleetConfig::new("persist-test", 99, 4, 3);
        let cfg = config.scenario(shard);
        let run = crate::pipeline::MainRun::execute(cfg);
        run.into_fleet_shard(shard)
    }

    #[test]
    fn shard_round_trip_is_bit_exact() {
        let state = sample_state(1);
        let bytes = encode_shard_state(&state).unwrap();
        let back = decode_shard_state(&bytes).unwrap();
        assert_eq!(back.shard, state.shard);
        assert_eq!(back.seed, state.seed);
        assert_eq!(back.duration, state.duration);
        assert_eq!(back.sessions, state.sessions);
        assert_eq!(back.players_per_minute, state.players_per_minute);
        assert_eq!(back.mean_players.to_bits(), state.mean_players.to_bits());
        assert_eq!(back.counts.total_packets(), state.counts.total_packets());
        assert_eq!(back.per_minute.bins(), state.per_minute.bins());
        // The strongest check: re-encoding the decoded state reproduces
        // the original bytes exactly.
        assert_eq!(encode_shard_state(&back).unwrap(), bytes);
    }

    #[test]
    fn facility_round_trip_is_bit_exact() {
        let states = vec![sample_state(0), sample_state(1)];
        let facility = FacilityAnalysis::merge(states).unwrap();
        let bytes = encode_facility(&facility).unwrap();
        let back = decode_facility(&bytes).unwrap();
        assert_eq!(encode_facility(&back).unwrap(), bytes);
        assert_eq!(back.shards, facility.shards);
        assert_eq!(back.players_per_minute, facility.players_per_minute);
    }

    #[test]
    fn wrong_kind_is_typed() {
        let state = sample_state(0);
        let bytes = encode_shard_state(&state).unwrap();
        assert!(matches!(
            decode_facility(&bytes),
            Err(StateError::WrongKind { .. })
        ));
    }

    #[test]
    fn file_names_round_trip_and_reject_droppings() {
        assert_eq!(shard_file_name(42), "shard-00042.state");
        assert_eq!(parse_shard_file_name("shard-00042.state"), Some(42));
        assert_eq!(parse_shard_file_name(".shard-00042.state.tmp"), None);
        assert_eq!(parse_shard_file_name("shard-42.state"), None);
        assert_eq!(parse_shard_file_name("shard-0004x.state"), None);
        assert_eq!(parse_shard_file_name("report.txt"), None);
    }

    #[test]
    fn atomic_write_then_load_round_trips() {
        let dir = std::env::temp_dir().join(format!("csprov-persist-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let config = FleetConfig::new("persist-test", 99, 4, 3);
        let state = sample_state(2);
        let path = write_checkpoint_atomic(&dir, &state).unwrap();
        assert_eq!(path.file_name().unwrap(), "shard-00002.state");
        // A stray tmp file and a foreign file must both be ignored.
        fs::write(dir.join(".shard-00003.state.tmp"), b"partial").unwrap();
        fs::write(dir.join("notes.txt"), b"hello").unwrap();
        let scan = load_checkpoints(&dir, &config).unwrap();
        assert_eq!(scan.states.len(), 1);
        assert!(scan.rejected.is_empty());
        assert_eq!(scan.states[&2].seed, state.seed);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_and_mismatched_checkpoints_are_rejected_not_fatal() {
        let dir = std::env::temp_dir().join(format!("csprov-persist-bad-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let config = FleetConfig::new("persist-test", 99, 4, 3);

        // Corrupt: flip a byte mid-file.
        let state = sample_state(0);
        let mut bytes = encode_shard_state(&state).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(dir.join(shard_file_name(0)), &bytes).unwrap();

        // Mismatched: a valid checkpoint from a different fleet seed.
        let other = FleetConfig::new("persist-test", 100, 4, 3);
        let foreign = crate::pipeline::MainRun::execute(other.scenario(1)).into_fleet_shard(1);
        fs::write(
            dir.join(shard_file_name(1)),
            encode_shard_state(&foreign).unwrap(),
        )
        .unwrap();

        // Out of range: shard index beyond the fleet is skipped entirely.
        let high = sample_state(2);
        fs::write(
            dir.join(shard_file_name(20000)),
            encode_shard_state(&high).unwrap(),
        )
        .unwrap();

        let scan = load_checkpoints(&dir, &config).unwrap();
        assert!(scan.states.is_empty());
        assert_eq!(scan.rejected.len(), 2);
        assert!(scan
            .rejected
            .iter()
            .any(|(_, e)| matches!(e, CheckpointError::State(_))));
        assert!(scan
            .rejected
            .iter()
            .any(|(_, e)| matches!(e, CheckpointError::Mismatch("derived seed"))));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_state_files_matches_in_memory_merge() {
        let dir = std::env::temp_dir().join(format!("csprov-persist-merge-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let states: Vec<ShardState> = (0..3).map(sample_state).collect();
        let mut paths = Vec::new();
        for s in &states {
            paths.push(write_checkpoint_atomic(&dir, s).unwrap());
        }
        // Feed the files in reverse order; the fold must still be canonical.
        paths.reverse();
        let (from_files, stats) = merge_state_files(&paths).unwrap();
        let in_memory = FacilityAnalysis::merge(states).unwrap();
        assert_eq!(
            encode_facility(&from_files).unwrap(),
            encode_facility(&in_memory).unwrap()
        );
        assert_eq!(stats.len(), 3);
        assert!(stats.windows(2).all(|w| w[0].shard < w[1].shard));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn observed_scan_reports_mtime_age_not_embedded_clock() {
        let dir = std::env::temp_dir().join(format!("csprov-persist-obs-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        // A record whose writer clock lies an hour in the past: the
        // observed age must still come from the file's mtime (fresh).
        let rec = HeartbeatRecord {
            shard: 3,
            state: csprov_obs::SHARD_RUNNING,
            sim_ns: 42,
            horizon_ns: 100,
            retries: 0,
            checkpoints: 0,
            wall_ms: 5,
            unix_ms: csprov_obs::unix_ms().saturating_sub(3_600_000),
        };
        write_heartbeat(&dir, &rec).unwrap();
        let scanned = scan_heartbeats_observed(&dir);
        assert_eq!(scanned.len(), 1);
        assert_eq!(scanned[0].rec, rec);
        assert!(
            scanned[0].age_ms < 60_000,
            "age must be mtime-derived, got {} ms",
            scanned[0].age_ms
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn heartbeat_round_trip_and_scan() {
        let dir = std::env::temp_dir().join(format!("csprov-persist-hb-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let rec = HeartbeatRecord {
            shard: 7,
            state: csprov_obs::SHARD_RUNNING,
            sim_ns: 123_456_789,
            horizon_ns: 600_000_000_000,
            retries: 1,
            checkpoints: 0,
            wall_ms: 250,
            unix_ms: 1_700_000_000_000,
        };
        let bytes = encode_heartbeat(&rec);
        assert_eq!(decode_heartbeat(&bytes).unwrap(), rec);
        // A heartbeat container is not a shard checkpoint.
        assert!(matches!(
            decode_shard_state(&bytes),
            Err(StateError::WrongKind { .. })
        ));

        let path = write_heartbeat(&dir, &rec).unwrap();
        assert_eq!(path.file_name().unwrap(), "shard-00007.hb");
        // Torn tmp files, garbage sidecars, and foreign names are skipped.
        fs::write(dir.join(".shard-00008.hb.tmp"), b"partial").unwrap();
        fs::write(dir.join("shard-00009.hb"), b"garbage").unwrap();
        fs::write(dir.join("notes.hb"), b"hello").unwrap();
        let scanned: Vec<HeartbeatRecord> = scan_heartbeats_observed(&dir)
            .into_iter()
            .map(|o| o.rec)
            .collect();
        assert_eq!(scanned, vec![rec]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn heartbeat_sidecars_are_invisible_to_the_resume_scan() {
        let dir = std::env::temp_dir().join(format!("csprov-persist-hbr-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let config = FleetConfig::new("persist-test", 99, 4, 3);
        let rec = HeartbeatRecord {
            shard: 0,
            state: csprov_obs::SHARD_RUNNING,
            sim_ns: 1,
            horizon_ns: 2,
            retries: 0,
            checkpoints: 0,
            wall_ms: 0,
            unix_ms: 1,
        };
        write_heartbeat(&dir, &rec).unwrap();
        let scan = load_checkpoints(&dir, &config).unwrap();
        assert!(scan.states.is_empty());
        assert!(scan.rejected.is_empty(), "a .hb file is not a checkpoint");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_shard_files_are_an_error() {
        let dir = std::env::temp_dir().join(format!("csprov-persist-dup-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let state = sample_state(0);
        let a = write_checkpoint_atomic(&dir, &state).unwrap();
        let b = dir.join("copy.state");
        fs::copy(&a, &b).unwrap();
        let err = merge_state_files(&[a, b]).unwrap_err();
        assert!(matches!(err, MergeFilesError::DuplicateShard(0)));
        let _ = fs::remove_dir_all(&dir);
    }
}
