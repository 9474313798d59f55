//! The event queue: a time-ordered priority queue of scheduled actions.
//!
//! Ordering is total and deterministic: events fire in `(time, sequence)`
//! order, where `sequence` is the order of scheduling. This tie-break makes
//! simulations reproducible even when many events share a timestamp (the
//! common case here — a server tick enqueues one packet per player at the
//! same instant).
//!
//! # Implementation: a calendar queue
//!
//! The queue is a two-level calendar (timer wheel) tuned for the
//! simulator's access pattern — a dense stream of near-future inserts
//! (link delays, 50 ms tick reschedules) with a thin tail of far-future
//! events (session departures, map rotations, cleanup sweeps):
//!
//! - **`active`** — the bucket currently being drained, sorted descending
//!   by `(time, id)` so the earliest entry pops from the vector's end.
//!   Inserts that land inside (or before) the active window splice in by
//!   binary search; in the common case (an event earlier than everything
//!   pending) the splice point is the end of the vector, an O(1) append.
//! - **`wheel`** — a ring of unsorted buckets, each covering
//!   `BUCKET_WIDTH_NS` of virtual time after the active window. Inserting
//!   is an append; a bucket is sorted once, when the clock reaches it.
//! - **`overflow`** — a binary heap for events beyond the wheel horizon.
//!   As the wheel turns, overflow events migrate into the buckets.
//!
//! Compared to a single binary heap this replaces an O(log n) sift per
//! push/pop over the whole queue with an O(1) append plus a small per-bucket
//! sort, and keeps hot entries contiguous in memory.
//!
//! Cancellation state lives out of line (an id-keyed side table), so queue
//! entries carry no `Rc` and no drop glue — moving them through the buckets
//! compiles to plain memcpys, and only the (rare) cancellable events ever
//! touch the table.
//!
//! Cancellation is lazy — a cancelled entry stays queued and is discarded
//! when popped — but the queue counts live tombstones and sweeps them out
//! eagerly (see [`EventQueue::compact`]) once they are the majority, so a
//! workload that cancels almost everything it schedules cannot bloat the
//! queue until the deadlines roll around.

use crate::time::SimTime;
use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, HashMap};
use std::rc::Rc;

/// Identifier of a scheduled event (its scheduling sequence number).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(pub(crate) u64);

/// Width of one calendar bucket in virtual nanoseconds (4 ms: an eighth of
/// the 50 ms server tick, so a tick burst and its link-delayed deliveries
/// spread over a handful of buckets).
const BUCKET_WIDTH_NS: u64 = 4_000_000;
/// Number of wheel buckets. 512 × 4 ms ≈ 2 s of look-ahead: periodic
/// processes and link delays stay on the wheel, only genuinely far events
/// (departures, map changes) hit the overflow heap.
const NUM_BUCKETS: usize = 512;
/// Queues smaller than this never trigger tombstone compaction.
const COMPACT_MIN_LEN: usize = 64;

/// Cancellation-flag states shared between the queue's side table and the
/// event's handle.
const PENDING: u8 = 0;
const CANCELLED: u8 = 1;
const FIRED: u8 = 2;
const FIRED_THEN_CANCELLED: u8 = 3;

/// A handle that can cancel a scheduled event.
///
/// Cancellation is lazy: the entry stays queued and is discarded when
/// popped, which keeps cancel O(1). The queue tracks how many live
/// tombstones it holds and compacts them away when they dominate.
#[derive(Debug, Clone)]
pub struct EventHandle {
    id: EventId,
    state: Rc<Cell<u8>>,
    /// The owning queue's count of cancelled-but-still-queued entries.
    queue_tombstones: Rc<Cell<u64>>,
}

impl EventHandle {
    /// The event's id.
    pub fn id(&self) -> EventId {
        self.id
    }

    /// Cancels the event if it has not fired yet. Idempotent.
    pub fn cancel(&self) {
        match self.state.get() {
            PENDING => {
                self.state.set(CANCELLED);
                self.queue_tombstones.set(self.queue_tombstones.get() + 1);
            }
            FIRED => self.state.set(FIRED_THEN_CANCELLED),
            _ => {}
        }
    }

    /// True if `cancel` has been called.
    pub fn is_cancelled(&self) -> bool {
        matches!(self.state.get(), CANCELLED | FIRED_THEN_CANCELLED)
    }
}

pub(crate) struct Scheduled<A> {
    pub at: SimTime,
    pub id: EventId,
    /// True if a cancellation flag for this id exists in the side table.
    pub flagged: bool,
    pub action: A,
}

impl<A> Scheduled<A> {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.id.0)
    }
}

impl<A> PartialEq for Scheduled<A> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.id == other.id
    }
}
impl<A> Eq for Scheduled<A> {}

impl<A> PartialOrd for Scheduled<A> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<A> Ord for Scheduled<A> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, id) pops first.
        other.key().cmp(&self.key())
    }
}

/// A deterministic time-ordered queue of actions of type `A`.
pub struct EventQueue<A> {
    /// The bucket being drained, sorted descending by `(time, id)`.
    active: Vec<Scheduled<A>>,
    /// Exclusive upper bound of the time range `active` covers. Entries at
    /// or after this belong to the wheel or the overflow heap.
    active_end: u64,
    /// Ring of unsorted future buckets; `wheel[cursor]` covers
    /// `[active_end, active_end + BUCKET_WIDTH_NS)`.
    wheel: Vec<Vec<Scheduled<A>>>,
    cursor: usize,
    /// Total entries across all wheel buckets.
    wheel_items: usize,
    /// Events at or beyond the wheel horizon.
    overflow: BinaryHeap<Scheduled<A>>,
    /// Cancellation flags for queued cancellable events, keyed by event id.
    flags: HashMap<u64, Rc<Cell<u8>>>,
    /// Total entries (including lazily-cancelled ones).
    len: usize,
    next_id: u64,
    /// Cancelled-but-still-queued entry count, shared with handles.
    tombstones: Rc<Cell<u64>>,
    /// Cumulative count of entries routed to the overflow heap at insert
    /// time — the scheduler's "bucket overflow" signal for tracing.
    overflow_pushes: u64,
}

impl<A> Default for EventQueue<A> {
    fn default() -> Self {
        Self::new()
    }
}

impl<A> EventQueue<A> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            active: Vec::new(),
            active_end: 0,
            wheel: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            cursor: 0,
            wheel_items: 0,
            overflow: BinaryHeap::new(),
            flags: HashMap::new(),
            len: 0,
            next_id: 0,
            tombstones: Rc::new(Cell::new(0)),
            overflow_pushes: 0,
        }
    }

    /// Number of entries (including lazily-cancelled ones).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of cancelled entries still occupying queue slots.
    pub fn tombstones(&self) -> usize {
        self.tombstones.get() as usize
    }

    /// Cumulative number of entries that landed beyond the wheel horizon at
    /// insert time. Monotonic; never decremented as overflow drains.
    pub fn overflow_pushes(&self) -> u64 {
        self.overflow_pushes
    }

    /// First virtual nanosecond beyond the wheel's coverage.
    fn horizon(&self) -> u64 {
        self.active_end
            .saturating_add(BUCKET_WIDTH_NS * self.wheel.len() as u64)
    }

    /// Routes one entry to the active bucket, the wheel, or the overflow
    /// heap. `u64::MAX` saturation: once `active_end` has saturated, the
    /// active bucket absorbs everything (ordering is still exact — the
    /// active vector is fully sorted).
    #[inline]
    fn insert(&mut self, e: Scheduled<A>) {
        let t = e.at.as_nanos();
        if t < self.active_end || self.active_end == u64::MAX {
            let key = e.key();
            // Fast path: earlier than everything active (or active is
            // empty) — the descending vector just grows at the end.
            if !self.active.last().is_some_and(|x| x.key() <= key) {
                self.active.push(e);
            } else {
                // Descending order: find the first element not greater.
                let pos = self.active.partition_point(|x| x.key() > key);
                self.active.insert(pos, e);
            }
        } else if t < self.horizon() {
            let offset = ((t - self.active_end) / BUCKET_WIDTH_NS) as usize;
            let slot = (self.cursor + offset) % self.wheel.len();
            self.wheel[slot].push(e);
            self.wheel_items += 1;
        } else {
            self.overflow.push(e);
            self.overflow_pushes += 1;
        }
        self.len += 1;
    }

    /// Schedules `action` at time `at`; returns its id.
    #[inline]
    pub fn push(&mut self, at: SimTime, action: A) -> EventId {
        let id = EventId(self.next_id);
        self.next_id += 1;
        self.insert(Scheduled {
            at,
            id,
            flagged: false,
            action,
        });
        self.maybe_compact();
        id
    }

    /// Schedules a cancellable `action` at time `at`; returns a handle.
    pub fn push_cancellable(&mut self, at: SimTime, action: A) -> EventHandle {
        let id = EventId(self.next_id);
        self.next_id += 1;
        let state = Rc::new(Cell::new(PENDING));
        self.flags.insert(id.0, state.clone());
        self.insert(Scheduled {
            at,
            id,
            flagged: true,
            action,
        });
        self.maybe_compact();
        EventHandle {
            id,
            state,
            queue_tombstones: self.tombstones.clone(),
        }
    }

    /// Looks up a flagged entry's cancellation state without removing it.
    fn is_tombstone(&self, e: &Scheduled<A>) -> bool {
        e.flagged
            && self
                .flags
                .get(&e.id.0)
                .is_some_and(|f| f.get() == CANCELLED)
    }

    /// Retires a flagged entry that is leaving the queue: removes its flag
    /// and reports whether it was a tombstone (marking it fired otherwise).
    fn retire_flag(&mut self, id: EventId) -> bool {
        match self.flags.remove(&id.0) {
            Some(flag) if flag.get() == CANCELLED => {
                self.tombstones.set(self.tombstones.get() - 1);
                true
            }
            Some(flag) => {
                flag.set(FIRED);
                false
            }
            None => false,
        }
    }

    /// Turns the wheel until `active` holds the earliest pending entries.
    /// Returns false when the queue holds nothing at all.
    ///
    /// Cold and never inlined: it runs once per bucket turn, not per event,
    /// and keeping it out of `pop`/`peek_time` keeps those hot paths short.
    #[cold]
    #[inline(never)]
    fn refill_active(&mut self) -> bool {
        debug_assert!(self.active.is_empty());
        loop {
            if self.wheel_items == 0 {
                // The wheel is dry: jump the window straight to the first
                // overflow bucket instead of turning through empty slots.
                let Some(first) = self.overflow.peek() else {
                    return false;
                };
                let t = first.at.as_nanos();
                self.active_end = (t - t % BUCKET_WIDTH_NS).saturating_add(BUCKET_WIDTH_NS);
            } else {
                self.active_end = self.active_end.saturating_add(BUCKET_WIDTH_NS);
                let empty = std::mem::take(&mut self.active);
                let bucket = std::mem::replace(&mut self.wheel[self.cursor], empty);
                self.cursor = (self.cursor + 1) % self.wheel.len();
                self.wheel_items -= bucket.len();
                self.active = bucket;
            }
            // The wheel now reaches one bucket further: pull overflow
            // entries that the new horizon covers (all of them, after a
            // jump with a saturated window).
            let horizon = self.horizon();
            while let Some(top) = self.overflow.peek_mut() {
                let t = top.at.as_nanos();
                if t < self.active_end || self.active_end == u64::MAX {
                    self.active.push(PeekMut::pop(top));
                } else if t < horizon {
                    let e = PeekMut::pop(top);
                    let offset = ((t - self.active_end) / BUCKET_WIDTH_NS) as usize;
                    let slot = (self.cursor + offset) % self.wheel.len();
                    self.wheel[slot].push(e);
                    self.wheel_items += 1;
                } else {
                    break;
                }
            }
            if !self.active.is_empty() {
                self.active
                    .sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
                return true;
            }
        }
    }

    /// Pops the earliest non-cancelled event, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, EventId, A)> {
        loop {
            match self.active.pop() {
                Some(e) => {
                    self.len -= 1;
                    if e.flagged && self.retire_flag(e.id) {
                        continue;
                    }
                    return Some((e.at, e.id, e.action));
                }
                None => {
                    if !self.refill_active() {
                        return None;
                    }
                }
            }
        }
    }

    /// The timestamp of the earliest pending (non-cancelled) event.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        loop {
            match self.active.last() {
                Some(e) if self.is_tombstone(e) => {
                    let id = e.id;
                    self.active.pop();
                    self.len -= 1;
                    self.flags.remove(&id.0);
                    self.tombstones.set(self.tombstones.get() - 1);
                }
                Some(e) => return Some(e.at),
                None => {
                    if !self.refill_active() {
                        return None;
                    }
                }
            }
        }
    }

    /// Sweeps cancelled entries out when they are the majority of the queue
    /// (the lazy-cancellation tombstone leak: without this, a workload that
    /// cancels nearly everything it schedules — e.g. timers superseded
    /// before they fire — carries dead entries until their deadlines).
    #[inline]
    fn maybe_compact(&mut self) {
        // The size gate is a struct-local load, keeping the shared-counter
        // dereference off the plain-event hot path for small queues.
        if self.len >= COMPACT_MIN_LEN && self.tombstones.get() as usize * 2 > self.len {
            self.compact();
        }
    }

    /// Removes every cancelled entry immediately. Called automatically when
    /// tombstones outnumber live entries; harmless to call at any time.
    pub fn compact(&mut self) {
        let flags = &self.flags;
        let is_dead = |e: &Scheduled<A>| {
            e.flagged && flags.get(&e.id.0).is_some_and(|f| f.get() == CANCELLED)
        };
        self.active.retain(|e| !is_dead(e));
        for bucket in &mut self.wheel {
            bucket.retain(|e| !is_dead(e));
        }
        let kept: Vec<Scheduled<A>> = std::mem::take(&mut self.overflow)
            .into_vec()
            .into_iter()
            .filter(|e| !is_dead(e))
            .collect();
        self.overflow = BinaryHeap::from(kept);
        self.flags.retain(|_, f| f.get() != CANCELLED);
        self.wheel_items = self.wheel.iter().map(Vec::len).sum();
        self.len = self.active.len() + self.wheel_items + self.overflow.len();
        self.tombstones.set(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(30), "c");
        q.push(SimTime::from_millis(10), "a");
        q.push(SimTime::from_millis(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, _, a)| a)).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_schedule_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, _, a)| a)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancellation_skips_event() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1), "keep1");
        let h = q.push_cancellable(SimTime::from_secs(2), "drop");
        q.push(SimTime::from_secs(3), "keep2");
        assert!(!h.is_cancelled());
        h.cancel();
        assert!(h.is_cancelled());
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, _, a)| a)).collect();
        assert_eq!(order, ["keep1", "keep2"]);
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = EventQueue::new();
        let h = q.push_cancellable(SimTime::from_secs(1), ());
        assert!(q.pop().is_some());
        h.cancel(); // must not panic or corrupt anything
        assert!(q.pop().is_none());
        assert!(h.is_cancelled());
        assert_eq!(q.tombstones(), 0, "a fired event is not a queue tombstone");
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let h = q.push_cancellable(SimTime::from_secs(1), ());
        q.push(SimTime::from_secs(5), ());
        h.cancel();
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(5)));
    }

    #[test]
    fn empty_queue() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn interleaved_push_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(2), 2);
        q.push(SimTime::from_secs(4), 4);
        assert_eq!(q.pop().unwrap().2, 2);
        q.push(SimTime::from_secs(3), 3);
        q.push(SimTime::from_secs(1), 1);
        assert_eq!(q.pop().unwrap().2, 1);
        assert_eq!(q.pop().unwrap().2, 3);
        assert_eq!(q.pop().unwrap().2, 4);
    }

    #[test]
    fn far_future_events_cross_the_overflow_boundary() {
        // Mix wheel-range and overflow-range events and check total order.
        let mut q = EventQueue::new();
        let times = [
            0u64,
            1,
            999,
            BUCKET_WIDTH_NS,
            BUCKET_WIDTH_NS * NUM_BUCKETS as u64, // first overflow nanosecond
            BUCKET_WIDTH_NS * NUM_BUCKETS as u64 * 7 + 13,
            3_600_000_000_000, // one hour
            u64::MAX,
        ];
        // Push in reverse so ids run against time order.
        for &t in times.iter().rev() {
            q.push(SimTime::from_nanos(t), t);
        }
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, _, v)| v)).collect();
        assert_eq!(popped, times);
    }

    #[test]
    fn overflow_events_keep_schedule_order_at_same_time() {
        let mut q = EventQueue::new();
        let far = SimTime::from_secs(3600);
        for i in 0..64 {
            q.push(far, i);
        }
        // Drain via an interleaved near event to force wheel turns first.
        q.push(SimTime::from_millis(1), -1);
        assert_eq!(q.pop().unwrap().2, -1);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, _, a)| a)).collect();
        assert_eq!(order, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn compaction_reclaims_majority_cancelled_queue() {
        let mut q = EventQueue::new();
        let far = SimTime::from_secs(10_000);
        let handles: Vec<EventHandle> = (0..1000).map(|i| q.push_cancellable(far, i)).collect();
        assert_eq!(q.len(), 1000);
        for h in &handles[..990] {
            h.cancel();
        }
        // Tombstones persist until the next push trips the compaction pass.
        assert_eq!(q.tombstones(), 990);
        q.push(SimTime::from_secs(1), -1);
        assert_eq!(q.tombstones(), 0, "compaction must clear the tombstones");
        assert_eq!(q.len(), 11, "10 live cancellables + 1 fresh event");
        // Survivors still pop in exact (time, id) order.
        assert_eq!(q.pop().unwrap().2, -1);
        let rest: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, _, a)| a)).collect();
        assert_eq!(rest, (990..1000).collect::<Vec<_>>());
        // Cancelling a compacted-away handle must not corrupt the count.
        handles[0].cancel();
        assert_eq!(q.tombstones(), 0);
    }

    #[test]
    fn small_queues_skip_compaction() {
        let mut q = EventQueue::new();
        let h = q.push_cancellable(SimTime::from_secs(1), ());
        h.cancel();
        q.push(SimTime::from_secs(2), ());
        // Below COMPACT_MIN_LEN the tombstone stays until popped over.
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().0, SimTime::from_secs(2));
    }

    #[test]
    fn len_tracks_all_entries_across_levels() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(1), 0); // wheel
        q.push(SimTime::from_secs(100), 1); // overflow
        assert_eq!(q.len(), 2);
        assert!(q.pop().is_some());
        assert_eq!(q.len(), 1);
        assert!(q.pop().is_some());
        assert!(q.is_empty());
    }
}
