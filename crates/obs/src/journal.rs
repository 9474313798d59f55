//! Bounded, deterministic event journal.
//!
//! The journal is the *timeline* plane of the observability layer: where the
//! [`MetricsRegistry`](crate::MetricsRegistry) answers "how much, in total",
//! the journal answers "when". Producers emit [`TraceEvent`]s stamped with
//! sim time only — never `Instant` — so two same-seed runs write
//! byte-identical journals regardless of host speed.
//!
//! ## Cost model
//!
//! Consumers hold an `Option<Journal>` side-channel, so an unexported
//! journal costs exactly one branch per would-be emit. When attached, an
//! emit is a bounds check plus a 32-byte packed append: the `&'static str`
//! kind is interned into a `u32` id (a pointer-equality cache makes the
//! common run-of-one-kind case a single comparison), and storage is a list
//! of fixed-capacity chunks, so appending never copies previously stored
//! events the way a doubling `Vec` would. Once the capacity is reached
//! further events are counted (total and per kind) but not stored, keeping
//! memory bounded on week-long traces. High-frequency producers (the sim
//! dispatch loop) additionally sample — emitting every Nth occurrence —
//! which is a policy of the *producer*, not of this type.
//!
//! ## Exports
//!
//! [`Journal::export_jsonl`] writes one JSON object per line behind a
//! schema header; [`Journal::export_chrome_trace`] writes the Chrome
//! trace-event format (one process, one named thread row per subsystem), so
//! a seeded run opens directly in Perfetto / `chrome://tracing` with tick
//! bursts visible as instant rows and `.level` kinds as counter tracks.
//!
//! ## Live tap
//!
//! [`Journal::set_tap`] attaches a [`BroadcastBus`]: every emit — stored or
//! dropped-at-capacity — is additionally forwarded to the bus as
//! [`BusEvent::Trace`], so live subscribers see the full event flow while
//! the stored journal (and therefore every export) stays byte-identical to
//! an untapped run.

use crate::bus::{BroadcastBus, BusEvent};
use crate::json::escape;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

/// Schema tag written at the head of every JSONL export.
pub const JOURNAL_SCHEMA: &str = "csprov-trace/1";

/// One journal entry. `kind` is a static dotted path (`"router.nat.evict"`);
/// `key` identifies the subject (session id, player slot, event id) and
/// `value` carries the magnitude (bytes, queue depth, count).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    pub sim_ns: u64,
    pub kind: &'static str,
    pub key: u64,
    pub value: u64,
}

/// The stored form of an event: the kind collapsed to an interned id, so a
/// row is 32 bytes and the append path never touches string data.
#[derive(Clone, Copy, Debug)]
struct PackedEvent {
    sim_ns: u64,
    key: u64,
    value: u64,
    kind: u32,
}

/// Capacity of the first storage chunk; a fault-free run emits few events.
const FIRST_CHUNK: usize = 4096;
/// Capacity of every later chunk.
const CHUNK: usize = 1 << 16;

#[derive(Debug, Default)]
struct JournalInner {
    /// Filled storage chunks, oldest first; a full chunk is never
    /// reallocated or copied.
    full: Vec<Vec<PackedEvent>>,
    /// Events stored across `full` (total stored is `full_len + tail.len()`).
    full_len: usize,
    /// The active chunk appends go to, held directly so the hot path never
    /// chases a chunk-list index.
    tail: Vec<PackedEvent>,
    /// How far `tail` may grow before the slow path must run: its capacity,
    /// clamped by the journal capacity remaining. The single fast-path
    /// compare `tail.len() < tail_limit` therefore also proves the append is
    /// within the journal's bound.
    tail_limit: usize,
    /// Cleared chunks ready for reuse, so a cleared journal refills without
    /// reallocating.
    spare: Vec<Vec<PackedEvent>>,
    capacity: usize,
    /// Interned kinds, in first-intern order; a `PackedEvent.kind` indexes
    /// this table. Survives `clear`, so a cleared journal re-interns
    /// nothing.
    kinds: Vec<&'static str>,
    kind_ids: BTreeMap<&'static str, u32>,
    /// One-entry intern cache: the last kind looked up. Static literals
    /// usually arrive with a stable address, making the common same-kind
    /// run a single pointer comparison.
    last_kind: Option<(&'static str, u32)>,
    dropped: u64,
    dropped_by_kind: BTreeMap<&'static str, u64>,
    tap: Option<BroadcastBus>,
}

impl JournalInner {
    /// Interns a kind. Inlined so the common case — the same static literal
    /// as the previous emit — is a pointer comparison at the call site; the
    /// table lookup is outlined.
    #[inline]
    fn intern(&mut self, kind: &'static str) -> u32 {
        if let Some((cached, id)) = self.last_kind {
            if std::ptr::eq(cached.as_ptr(), kind.as_ptr()) && cached.len() == kind.len() {
                return id;
            }
        }
        self.intern_miss(kind)
    }

    #[cold]
    fn intern_miss(&mut self, kind: &'static str) -> u32 {
        let id = match self.kind_ids.get(kind) {
            Some(&id) => id,
            None => {
                let id = self.kinds.len() as u32;
                self.kinds.push(kind);
                self.kind_ids.insert(kind, id);
                id
            }
        };
        self.last_kind = Some((kind, id));
        id
    }

    fn kind_str(&self, id: u32) -> &'static str {
        // Ids are only ever produced by `intern`, so the lookup always
        // succeeds; the fallback keeps this path free of panicking
        // constructs.
        self.kinds.get(id as usize).copied().unwrap_or("?")
    }

    /// Total stored events.
    fn len(&self) -> usize {
        self.full_len + self.tail.len()
    }

    /// Retires the (full or unallocated) tail and installs a fresh chunk —
    /// from the spare list when one is waiting, freshly allocated otherwise.
    /// Caller guarantees stored length is below capacity, so the new
    /// `tail_limit` is at least 1 and the next append hits the fast path.
    fn rotate(&mut self) {
        self.full_len += self.tail.len();
        let remaining = self.capacity.saturating_sub(self.full_len);
        let next = match self.spare.pop() {
            Some(chunk) => chunk,
            None => {
                let want = if self.full.is_empty() && self.full_len == 0 {
                    FIRST_CHUNK
                } else {
                    CHUNK
                };
                Vec::with_capacity(want.min(remaining).max(1))
            }
        };
        let old = std::mem::replace(&mut self.tail, next);
        if old.capacity() > 0 {
            self.full.push(old);
        }
        self.tail_limit = self.tail.capacity().min(remaining);
    }

    /// The not-fast path of an emit: the tail is full (or the journal is):
    /// rotate chunks and store, or count the drop. Takes the event as
    /// scalars, not a `PackedEvent`: an aggregate argument would be passed
    /// by address, which forces the *fast* path at the call site to build
    /// the event in stack memory and copy it (a store-forwarding stall per
    /// emit) instead of storing the fields straight into the tail chunk.
    #[cold]
    fn store_slow(&mut self, kind: &'static str, sim_ns: u64, key: u64, value: u64, id: u32) {
        if self.len() < self.capacity {
            self.rotate();
            self.tail.push(PackedEvent {
                sim_ns,
                key,
                value,
                kind: id,
            });
        } else {
            self.drop_event(kind);
        }
    }

    fn drop_event(&mut self, kind: &'static str) {
        self.dropped += 1;
        *self.dropped_by_kind.entry(kind).or_insert(0) += 1;
    }

    fn iter(&self) -> impl Iterator<Item = TraceEvent> + '_ {
        self.full
            .iter()
            .flatten()
            .chain(self.tail.iter())
            .map(move |ev| TraceEvent {
                sim_ns: ev.sim_ns,
                kind: self.kind_str(ev.kind),
                key: ev.key,
                value: ev.value,
            })
    }
}

/// Shared handle onto a bounded trace journal; clones share storage.
#[derive(Clone, Debug, Default)]
pub struct Journal(Rc<RefCell<JournalInner>>);

impl Journal {
    /// Default capacity used by the repro pipeline: generous enough for a
    /// full scaled run at the standard sampling strides, small enough that
    /// the journal never dominates memory.
    pub const DEFAULT_CAPACITY: usize = 1 << 20;

    /// A journal that stores at most `capacity` events; later emits are
    /// counted as dropped.
    pub fn with_capacity(capacity: usize) -> Self {
        let journal = Journal::default();
        journal.0.borrow_mut().capacity = capacity;
        journal
    }

    /// A journal with [`Self::DEFAULT_CAPACITY`].
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Appends one event, or counts it as dropped once at capacity. Either
    /// way the event is forwarded to the live tap when one is attached.
    ///
    /// The hot path is one compare (which also proves the journal bound —
    /// see `tail_limit`), the intern cache hit, and a 32-byte append into
    /// the active chunk.
    #[inline]
    pub fn emit(&self, sim_ns: u64, kind: &'static str, key: u64, value: u64) {
        let mut inner = self.0.borrow_mut();
        let inner = &mut *inner;
        let id = inner.intern(kind);
        if inner.tail.len() < inner.tail_limit {
            inner.tail.push(PackedEvent {
                sim_ns,
                key,
                value,
                kind: id,
            });
        } else {
            inner.store_slow(kind, sim_ns, key, value, id);
        }
        if let Some(tap) = inner.tap.as_ref() {
            tap.publish(BusEvent::Trace(TraceEvent {
                sim_ns,
                kind,
                key,
                value,
            }));
        }
    }

    /// Empties the stored events and drop accounting, retaining chunk
    /// allocations (parked on the spare list for reuse) and the kind
    /// table. The tap, if any, stays attached.
    pub fn clear(&self) {
        let mut inner = self.0.borrow_mut();
        let inner = &mut *inner;
        for mut chunk in inner.full.drain(..) {
            chunk.clear();
            inner.spare.push(chunk);
        }
        inner.full_len = 0;
        let mut tail = std::mem::take(&mut inner.tail);
        if tail.capacity() > 0 {
            tail.clear();
            inner.spare.push(tail);
        }
        inner.tail_limit = 0;
        inner.dropped = 0;
        inner.dropped_by_kind.clear();
    }

    /// Attaches a live tap: every subsequent emit is also published to
    /// `bus`. Stored contents and drop accounting are unaffected, so
    /// exports stay byte-identical to an untapped run.
    pub fn set_tap(&self, bus: BroadcastBus) {
        self.0.borrow_mut().tap = Some(bus);
    }

    /// Detaches the live tap, if any.
    pub fn clear_tap(&self) {
        self.0.borrow_mut().tap = None;
    }

    /// Number of stored events.
    pub fn len(&self) -> usize {
        self.0.borrow().len()
    }

    /// Whether nothing has been stored.
    pub fn is_empty(&self) -> bool {
        self.0.borrow().len() == 0
    }

    /// Events emitted past capacity and therefore not stored.
    pub fn dropped(&self) -> u64 {
        self.0.borrow().dropped
    }

    /// Maximum number of stored events.
    pub fn capacity(&self) -> usize {
        self.0.borrow().capacity
    }

    /// Copies out the stored events in emit order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.0.borrow().iter().collect()
    }

    /// Per-kind stored counts, kind-sorted — a cheap summary for smoke
    /// checks and reports.
    pub fn counts_by_kind(&self) -> Vec<(&'static str, u64)> {
        let inner = self.0.borrow();
        let mut counts = vec![0u64; inner.kinds.len()];
        for ev in inner.full.iter().flatten().chain(inner.tail.iter()) {
            if let Some(c) = counts.get_mut(ev.kind as usize) {
                *c += 1;
            }
        }
        let mut out: Vec<(&'static str, u64)> = inner
            .kinds
            .iter()
            .zip(counts)
            .filter(|&(_, c)| c > 0)
            .map(|(&k, c)| (k, c))
            .collect();
        out.sort_unstable_by(|a, b| a.0.cmp(b.0));
        out
    }

    /// JSON-lines export: a schema header object, then one object per event
    /// in emit order.
    pub fn export_jsonl(&self) -> String {
        let inner = self.0.borrow();
        let mut out = String::with_capacity(64 + inner.len() * 72);
        let _ = writeln!(
            out,
            "{{\"schema\":{},\"events\":{},\"dropped\":{},\"capacity\":{}}}",
            escape(JOURNAL_SCHEMA),
            inner.len(),
            inner.dropped,
            inner.capacity
        );
        for ev in inner.iter() {
            let _ = writeln!(
                out,
                "{{\"sim_ns\":{},\"kind\":{},\"key\":{},\"value\":{}}}",
                ev.sim_ns,
                escape(ev.kind),
                ev.key,
                ev.value
            );
        }
        out
    }

    /// Chrome trace-event JSON (the `{"traceEvents":[..]}` envelope).
    ///
    /// Kinds are mapped onto one thread row per top-level subsystem (the
    /// dotted prefix: `sim`, `game`, `net`, `router`, ...). Kinds ending in
    /// `.level` become counter (`"ph":"C"`) tracks; everything else is a
    /// thread-scoped instant. Timestamps are microseconds with nanosecond
    /// decimals, as the format requires.
    pub fn export_chrome_trace(&self) -> String {
        self.export_chrome_trace_with("")
    }

    /// [`Self::export_chrome_trace`] with extra pre-rendered trace-event
    /// rows merged into the envelope (e.g. a wall-time profile's `"X"`
    /// complete-event rows on their own pid, see `Profile::chrome_rows`).
    /// `extra_rows` must be zero or more JSON objects joined by `",\n"`
    /// with no trailing comma; an empty string adds nothing.
    pub fn export_chrome_trace_with(&self, extra_rows: &str) -> String {
        let inner = self.0.borrow();
        // Stable thread ids: first-seen order of subsystem prefixes.
        let mut tids: Vec<&str> = Vec::new();
        for ev in inner.iter() {
            let prefix = subsystem(ev.kind);
            if !tids.contains(&prefix) {
                tids.push(prefix);
            }
        }
        let mut out = String::with_capacity(128 + inner.len() * 120);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{{\"name\":\"csprov seeded run\"}}}}"
        );
        for (tid, prefix) in tids.iter().enumerate() {
            let _ = write!(
                out,
                ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
                 \"args\":{{\"name\":{}}}}}",
                tid,
                escape(prefix)
            );
        }
        for ev in inner.iter() {
            let prefix = subsystem(ev.kind);
            let tid = tids.iter().position(|p| *p == prefix).unwrap_or(0);
            let us = ev.sim_ns / 1_000;
            let ns_frac = ev.sim_ns % 1_000;
            if ev.kind.ends_with(".level") {
                let _ = write!(
                    out,
                    ",\n{{\"name\":{},\"ph\":\"C\",\"pid\":1,\"tid\":{},\
                     \"ts\":{}.{:03},\"args\":{{\"level\":{}}}}}",
                    escape(ev.kind),
                    tid,
                    us,
                    ns_frac,
                    ev.value
                );
            } else {
                let _ = write!(
                    out,
                    ",\n{{\"name\":{},\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{},\
                     \"ts\":{}.{:03},\"args\":{{\"key\":{},\"value\":{}}}}}",
                    escape(ev.kind),
                    tid,
                    us,
                    ns_frac,
                    ev.key,
                    ev.value
                );
            }
        }
        if !extra_rows.is_empty() {
            out.push_str(",\n");
            out.push_str(extra_rows);
        }
        out.push_str("\n]}\n");
        out
    }
}

/// The dotted prefix naming the emitting subsystem (`"router.nat.evict"` →
/// `"router"`).
fn subsystem(kind: &str) -> &str {
    kind.split('.').next().unwrap_or(kind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn emit_stores_in_order_and_clones_share() {
        let j = Journal::with_capacity(8);
        let j2 = j.clone();
        j.emit(10, "sim.dispatch", 1, 100);
        j2.emit(20, "game.tick.begin", 2, 0);
        assert_eq!(j.len(), 2);
        let events = j.events();
        assert_eq!(events[0].kind, "sim.dispatch");
        assert_eq!(events[1].sim_ns, 20);
        assert_eq!(j.dropped(), 0);
    }

    #[test]
    fn capacity_bounds_storage_and_counts_drops() {
        let j = Journal::with_capacity(3);
        for i in 0..10 {
            j.emit(i, "net.fault.drop", i, 1);
        }
        assert_eq!(j.len(), 3);
        assert_eq!(j.dropped(), 7);
        assert_eq!(j.capacity(), 3);
    }

    #[test]
    fn counts_by_kind_are_sorted() {
        let j = Journal::new();
        j.emit(1, "b.two", 0, 0);
        j.emit(2, "a.one", 0, 0);
        j.emit(3, "b.two", 0, 0);
        assert_eq!(j.counts_by_kind(), vec![("a.one", 1), ("b.two", 2)]);
    }

    #[test]
    fn jsonl_export_parses_line_by_line() {
        let j = Journal::with_capacity(2);
        j.emit(1_000, "game.tick.begin", 7, 22);
        j.emit(2_000, "router.nat.refuse", 9, 0);
        j.emit(3_000, "router.nat.refuse", 9, 0); // dropped
        let text = j.export_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        let header = Json::parse(lines[0]).unwrap();
        assert_eq!(
            header.get("schema").and_then(Json::as_str),
            Some(JOURNAL_SCHEMA)
        );
        assert_eq!(header.get("events").and_then(Json::as_f64), Some(2.0));
        assert_eq!(header.get("dropped").and_then(Json::as_f64), Some(1.0));
        let ev = Json::parse(lines[1]).unwrap();
        assert_eq!(
            ev.get("kind").and_then(Json::as_str),
            Some("game.tick.begin")
        );
        assert_eq!(ev.get("sim_ns").and_then(Json::as_f64), Some(1000.0));
    }

    #[test]
    fn chrome_trace_is_valid_json_with_thread_rows() {
        let j = Journal::new();
        j.emit(50_000_000, "game.tick.begin", 0, 12);
        j.emit(50_000_500, "game.sendq.level", 0, 44);
        j.emit(50_001_000, "router.nat.insert", 3, 27015);
        let doc = Json::parse(&j.export_chrome_trace()).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        // 1 process-name + 2 thread-name metadata rows + 3 events.
        assert_eq!(events.len(), 6);
        let phases: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("ph").and_then(Json::as_str))
            .collect();
        assert_eq!(phases, vec!["M", "M", "M", "i", "C", "i"]);
        // 50_000_500 ns → ts 50000.500 µs.
        assert_eq!(events[4].get("ts").and_then(Json::as_f64), Some(50000.5));
    }

    #[test]
    fn tap_forwards_every_emit_without_changing_storage() {
        let untapped = Journal::with_capacity(2);
        let tapped = Journal::with_capacity(2);
        let bus = BroadcastBus::new();
        let sub = bus.subscribe(16);
        tapped.set_tap(bus);
        for j in [&untapped, &tapped] {
            j.emit(1, "a.x", 0, 0);
            j.emit(2, "a.x", 0, 0);
            j.emit(3, "a.x", 0, 0); // past capacity: dropped from storage
        }
        // Storage and exports are identical to the untapped journal...
        assert_eq!(tapped.export_jsonl(), untapped.export_jsonl());
        assert_eq!(tapped.dropped(), 1);
        // ...while the tap saw all three events, the storage-dropped one
        // included.
        let mut seen = Vec::new();
        while let Some(BusEvent::Trace(ev)) = sub.try_recv() {
            seen.push(ev.sim_ns);
        }
        assert_eq!(seen, vec![1, 2, 3]);
        tapped.clear_tap();
        tapped.emit(4, "a.x", 0, 0);
        assert_eq!(sub.try_recv(), None);
    }

    #[test]
    fn same_emit_sequence_exports_identically() {
        let run = || {
            let j = Journal::with_capacity(100);
            for i in 0..50u64 {
                j.emit(i * 1000, if i % 2 == 0 { "a.x" } else { "b.y" }, i, i * 3);
            }
            (j.export_jsonl(), j.export_chrome_trace())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn storage_spills_across_chunks_in_order() {
        let n = (FIRST_CHUNK + CHUNK + 7) as u64;
        let j = Journal::with_capacity(n as usize + 10);
        for i in 0..n {
            j.emit(i, "a.x", i, 0);
        }
        assert_eq!(j.len(), n as usize);
        let events = j.events();
        assert!(events.iter().enumerate().all(|(i, e)| e.sim_ns == i as u64));
    }

    #[test]
    fn clear_resets_contents_but_reuses_storage() {
        let j = Journal::with_capacity(4);
        for i in 0..6 {
            j.emit(i, "a.x", i, 0);
        }
        assert_eq!((j.len(), j.dropped()), (4, 2));
        j.clear();
        assert!(j.is_empty());
        assert_eq!(j.dropped(), 0);
        assert_eq!(j.counts_by_kind(), vec![]);
        j.emit(9, "b.y", 1, 2);
        assert_eq!(
            j.events(),
            vec![TraceEvent {
                sim_ns: 9,
                kind: "b.y",
                key: 1,
                value: 2
            }]
        );
    }
}
