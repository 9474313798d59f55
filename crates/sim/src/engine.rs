//! The discrete-event simulation engine.
//!
//! [`Simulator`] owns a virtual clock, an [`EventQueue`] and a table of
//! recurring processes. Actors are plain Rust values shared through
//! `Rc<RefCell<..>>`; an event is a closure that borrows the simulator to
//! read the clock and schedule follow-up events. Runs are single-threaded
//! and fully deterministic.
//!
//! A queue entry is either a one-shot boxed action or the slot of a
//! recurring process ([`crate::spawn_periodic`], [`crate::spawn_poisson`]):
//! the process body is boxed once when it is spawned and lives in the
//! table, so a firing allocates nothing. Its next firing is pushed after
//! the body returns, so an event the body schedules for that same instant
//! fires first, and a process that ends frees its slot for the next one.
//!
//! ```
//! use csprov_sim::{Simulator, SimTime, SimDuration};
//! use std::rc::Rc;
//! use std::cell::Cell;
//!
//! let mut sim = Simulator::new();
//! let fired = Rc::new(Cell::new(0));
//! let f = fired.clone();
//! sim.schedule_in(SimDuration::from_millis(50), move |sim| {
//!     assert_eq!(sim.now(), SimTime::from_millis(50));
//!     f.set(f.get() + 1);
//! });
//! sim.run();
//! assert_eq!(fired.get(), 1);
//! ```

use crate::event::{EventHandle, EventId, EventQueue};
use crate::pacing::Pacer;
use crate::time::{SimDuration, SimTime};
use csprov_obs::{Journal, Profile};

/// A scheduled action: a one-shot closure run with access to the simulator.
pub type Action = Box<dyn FnOnce(&mut Simulator)>;

/// The body of a recurring process: runs once per firing and returns the
/// time of its next firing, or `None` to end the process.
pub(crate) type Recurring = Box<dyn FnMut(&mut Simulator) -> Option<SimTime>>;

/// What a queue entry runs when it fires.
enum Event {
    /// A one-shot action.
    Once(Action),
    /// The next firing of the recurring process in this process-table slot.
    Recurring(usize),
}

/// A read-only callback invoked from [`Simulator::step`] every N events.
///
/// Observers see the simulator through `&Simulator`, so they can read the
/// clock, event count and queue depth but cannot schedule, cancel or stop —
/// attaching one cannot change what a seeded run computes.
pub type Observer = Box<dyn FnMut(&Simulator)>;

/// A write-only trace tap: a shared [`Journal`] plus the sampling stride
/// for the dispatch-loop events. Like the observer, attaching one cannot
/// change what a seeded run computes — the journal is never read back.
struct JournalTap {
    journal: Journal,
    every: u64,
    seen_overflow_pushes: u64,
}

/// The discrete-event simulator: virtual clock plus event queue.
pub struct Simulator {
    now: SimTime,
    queue: EventQueue<Event>,
    /// Recurring-process bodies by slot. A slot is `None` while it is free
    /// or while its body is running.
    procs: Vec<Option<Recurring>>,
    /// Free slots of `procs`, reused before the table grows.
    free_procs: Vec<usize>,
    executed: u64,
    stopped: bool,
    queue_hwm: usize,
    observer: Option<(u64, Observer)>,
    journal: Option<JournalTap>,
    pacer: Option<Pacer>,
    profile: Option<Profile>,
}

impl Default for Simulator {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulator {
    /// Creates a simulator with the clock at zero and no pending events.
    pub fn new() -> Self {
        Simulator {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            procs: Vec::new(),
            free_procs: Vec::new(),
            executed: 0,
            stopped: false,
            queue_hwm: 0,
            observer: None,
            journal: None,
            pacer: None,
            profile: None,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Number of events still pending (including lazily-cancelled ones).
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Largest pending-event count seen since construction.
    pub fn queue_high_water(&self) -> usize {
        self.queue_hwm
    }

    /// Installs a read-only [`Observer`] called after every `every`-th
    /// executed event (and keeps the previous one installed no longer).
    pub fn set_observer<F>(&mut self, every: u64, observer: F)
    where
        F: FnMut(&Simulator) + 'static,
    {
        self.observer = Some((every.max(1), Box::new(observer)));
    }

    /// Removes the installed observer, if any.
    pub fn clear_observer(&mut self) {
        self.observer = None;
    }

    /// Attaches a [`Journal`] to the dispatch loop. Every `every`-th
    /// executed event emits a `sim.dispatch` instant and a
    /// `sim.queue.level` counter sample; scheduler bucket overflows emit
    /// `sim.overflow` whenever inserts spilled past the timer-wheel horizon
    /// since the last executed event. The tap is write-only: with no
    /// journal attached the per-event cost is one branch.
    pub fn set_journal(&mut self, every: u64, journal: Journal) {
        self.journal = Some(JournalTap {
            journal,
            every: every.max(1),
            seen_overflow_pushes: self.queue.overflow_pushes(),
        });
    }

    /// Removes the attached journal, if any.
    pub fn clear_journal(&mut self) {
        self.journal = None;
    }

    /// Installs a wall-clock [`Pacer`]: after each executed event the
    /// engine lets the pacer sleep until that virtual instant's wall
    /// deadline. Pacing only ever *delays* the run loop — it cannot
    /// reorder, add or drop events — so a paced run computes exactly what
    /// an unpaced run computes. With no pacer the cost is one branch per
    /// event.
    pub fn set_pacer(&mut self, pacer: Pacer) {
        self.pacer = Some(pacer);
    }

    /// Removes the installed pacer, if any.
    pub fn clear_pacer(&mut self) {
        self.pacer = None;
    }

    /// Attaches a wall-time [`Profile`]: each [`Simulator::run_until`]
    /// call is framed as one `sim.dispatch` profile scope carrying the
    /// number of events executed inside it. Observe-only — the profile is
    /// never read back by the engine — and deliberately coarse: one scope
    /// per dispatch loop, not per event, so attaching it costs one
    /// `Option` check per `run_until` call.
    pub fn set_profile(&mut self, profile: Profile) {
        self.profile = Some(profile);
    }

    /// Removes the attached profile, if any.
    pub fn clear_profile(&mut self) {
        self.profile = None;
    }

    /// Queues `event` at `at` and updates the high-water mark.
    #[inline]
    fn push(&mut self, at: SimTime, event: Event) -> EventId {
        let id = self.queue.push(at, event);
        self.queue_hwm = self.queue_hwm.max(self.queue.len());
        id
    }

    /// Schedules `action` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the virtual past.
    pub fn schedule_at<F>(&mut self, at: SimTime, action: F) -> EventId
    where
        F: FnOnce(&mut Simulator) + 'static,
    {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < now {}",
            self.now
        );
        self.push(at, Event::Once(Box::new(action)))
    }

    /// Schedules `action` after a delay from now.
    pub fn schedule_in<F>(&mut self, delay: SimDuration, action: F) -> EventId
    where
        F: FnOnce(&mut Simulator) + 'static,
    {
        self.push(self.now + delay, Event::Once(Box::new(action)))
    }

    /// Schedules a cancellable action at absolute time `at`.
    pub fn schedule_cancellable_at<F>(&mut self, at: SimTime, action: F) -> EventHandle
    where
        F: FnOnce(&mut Simulator) + 'static,
    {
        assert!(at >= self.now, "cannot schedule into the past");
        let handle = self
            .queue
            .push_cancellable(at, Event::Once(Box::new(action)));
        self.queue_hwm = self.queue_hwm.max(self.queue.len());
        handle
    }

    /// Schedules a cancellable action after a delay from now.
    pub fn schedule_cancellable_in<F>(&mut self, delay: SimDuration, action: F) -> EventHandle
    where
        F: FnOnce(&mut Simulator) + 'static,
    {
        self.schedule_cancellable_at(self.now + delay, action)
    }

    /// Registers a recurring process in the process table and queues its
    /// first firing at `first`. Each firing runs `body`; the firing it
    /// returns is queued after it returns, and `None` frees the slot.
    ///
    /// # Panics
    /// Panics if `first` is in the virtual past.
    pub(crate) fn spawn_recurring(&mut self, first: SimTime, body: Recurring) {
        assert!(
            first >= self.now,
            "cannot schedule into the past: {first} < now {}",
            self.now
        );
        let slot = match self.free_procs.pop() {
            Some(slot) => slot,
            None => {
                self.procs.push(None);
                self.procs.len() - 1
            }
        };
        if let Some(entry) = self.procs.get_mut(slot) {
            *entry = Some(body);
        }
        self.push(first, Event::Recurring(slot));
    }

    /// Runs one firing of the recurring process in `slot`, then queues its
    /// next firing or frees the slot. The body is taken out of the table
    /// while it runs, so it may spawn processes of its own.
    fn fire(&mut self, slot: usize) {
        let Some(mut body) = self.procs.get_mut(slot).and_then(Option::take) else {
            return;
        };
        match body(self) {
            Some(next) => {
                if let Some(entry) = self.procs.get_mut(slot) {
                    *entry = Some(body);
                }
                self.push(next, Event::Recurring(slot));
            }
            None => self.free_procs.push(slot),
        }
    }

    /// Requests that the run loop stop after the current event returns.
    pub fn stop(&mut self) {
        self.stopped = true;
    }

    /// Executes a single event, if any; returns whether one was executed.
    pub fn step(&mut self) -> bool {
        match self.queue.pop() {
            Some((at, _id, event)) => {
                debug_assert!(at >= self.now, "event queue produced time travel");
                self.now = at;
                self.executed += 1;
                match event {
                    Event::Once(action) => action(self),
                    Event::Recurring(slot) => self.fire(slot),
                }
                // The observer is taken out for the call so it can borrow
                // the simulator immutably while stored behind `&mut self`.
                if let Some((every, mut f)) = self.observer.take() {
                    if self.executed % every == 0 {
                        f(&*self);
                    }
                    self.observer = Some((every, f));
                }
                if let Some(tap) = self.journal.as_mut() {
                    if self.executed % tap.every == 0 {
                        let now_ns = self.now.as_nanos();
                        tap.journal.emit(
                            now_ns,
                            "sim.dispatch",
                            self.executed,
                            self.queue.len() as u64,
                        );
                        tap.journal
                            .emit(now_ns, "sim.queue.level", 0, self.queue.len() as u64);
                    }
                    let pushes = self.queue.overflow_pushes();
                    if pushes != tap.seen_overflow_pushes {
                        tap.journal.emit(
                            self.now.as_nanos(),
                            "sim.overflow",
                            pushes,
                            pushes - tap.seen_overflow_pushes,
                        );
                        tap.seen_overflow_pushes = pushes;
                    }
                }
                if let Some(pacer) = self.pacer.as_mut() {
                    pacer.pace(self.now.as_nanos());
                }
                true
            }
            None => false,
        }
    }

    /// Runs until the queue drains or [`Simulator::stop`] is called.
    pub fn run(&mut self) {
        self.stopped = false;
        while !self.stopped && self.step() {}
    }

    /// Runs until virtual time reaches `until` (exclusive), the queue drains,
    /// or [`Simulator::stop`] is called. The clock is left at `until` if the
    /// horizon was reached, so subsequent scheduling is relative to the
    /// horizon rather than the last event.
    pub fn run_until(&mut self, until: SimTime) {
        // One profile frame per dispatch loop (not per event), carrying
        // the executed-event count as its item total.
        let mut scope = self.profile.as_ref().map(|p| p.enter("sim.dispatch"));
        let executed_before = self.executed;
        self.stopped = false;
        while !self.stopped {
            match self.queue.peek_time() {
                Some(t) if t < until => {
                    self.step();
                }
                _ => break,
            }
        }
        if !self.stopped && self.now < until {
            self.now = until;
        }
        if let Some(scope) = scope.as_mut() {
            scope.add_items(self.executed - executed_before);
        }
    }

    /// Runs for a span of virtual time from now; see [`Simulator::run_until`].
    pub fn run_for(&mut self, span: SimDuration) {
        let until = self.now + span;
        self.run_until(until);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::{spawn_periodic, StopFlag};
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    #[test]
    fn attached_profile_frames_the_dispatch_loop() {
        let mut sim = Simulator::new();
        let profile = csprov_obs::Profile::new();
        sim.set_profile(profile.clone());
        for ms in [10u64, 20] {
            sim.schedule_at(SimTime::from_millis(ms), |_| {});
        }
        sim.run_until(SimTime::from_millis(100));
        let snap = profile.snapshot();
        let dispatch = snap
            .entries()
            .iter()
            .find(|e| e.path == ["sim.dispatch"])
            .expect("dispatch frame recorded");
        assert_eq!(dispatch.count, 1);
        assert_eq!(dispatch.items, 2);
        // The frame is observe-only: results match an unprofiled run.
        assert_eq!(sim.events_executed(), 2);
        assert_eq!(sim.now(), SimTime::from_millis(100));
    }

    #[test]
    fn events_fire_in_order_and_advance_clock() {
        let mut sim = Simulator::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        for &ms in &[30u64, 10, 20] {
            let log = log.clone();
            sim.schedule_at(SimTime::from_millis(ms), move |sim| {
                log.borrow_mut().push(sim.now().as_millis());
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![10, 20, 30]);
        assert_eq!(sim.events_executed(), 3);
        assert_eq!(sim.now(), SimTime::from_millis(30));
    }

    #[test]
    fn events_can_schedule_events() {
        let mut sim = Simulator::new();
        let count = Rc::new(RefCell::new(0u32));
        fn tick(sim: &mut Simulator, count: Rc<RefCell<u32>>, left: u32) {
            *count.borrow_mut() += 1;
            if left > 0 {
                sim.schedule_in(SimDuration::from_millis(10), move |sim| {
                    tick(sim, count, left - 1)
                });
            }
        }
        let c = count.clone();
        sim.schedule_at(SimTime::ZERO, move |sim| tick(sim, c, 9));
        sim.run();
        assert_eq!(*count.borrow(), 10);
        assert_eq!(sim.now(), SimTime::from_millis(90));
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut sim = Simulator::new();
        let fired = Rc::new(RefCell::new(Vec::new()));
        for s in 1..=5u64 {
            let fired = fired.clone();
            sim.schedule_at(SimTime::from_secs(s), move |_| {
                fired.borrow_mut().push(s);
            });
        }
        sim.run_until(SimTime::from_secs(3));
        assert_eq!(*fired.borrow(), vec![1, 2]);
        assert_eq!(sim.now(), SimTime::from_secs(3));
        sim.run();
        assert_eq!(*fired.borrow(), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn run_until_event_exactly_at_horizon_not_fired() {
        let mut sim = Simulator::new();
        let fired = Rc::new(RefCell::new(false));
        let f = fired.clone();
        sim.schedule_at(SimTime::from_secs(1), move |_| *f.borrow_mut() = true);
        sim.run_until(SimTime::from_secs(1));
        assert!(!*fired.borrow(), "horizon is exclusive");
        sim.run_until(SimTime::from_secs(2));
        assert!(*fired.borrow());
    }

    #[test]
    fn stop_halts_run() {
        let mut sim = Simulator::new();
        let count = Rc::new(RefCell::new(0));
        for i in 0..10u64 {
            let count = count.clone();
            sim.schedule_at(SimTime::from_secs(i), move |sim| {
                *count.borrow_mut() += 1;
                if *count.borrow() == 3 {
                    sim.stop();
                }
            });
        }
        sim.run();
        assert_eq!(*count.borrow(), 3);
        // Remaining events still pending; a fresh run resumes.
        sim.run();
        assert_eq!(*count.borrow(), 10);
    }

    #[test]
    fn cancellable_event_does_not_fire() {
        let mut sim = Simulator::new();
        let fired = Rc::new(RefCell::new(false));
        let f = fired.clone();
        let h = sim.schedule_cancellable_in(SimDuration::from_secs(1), move |_| {
            *f.borrow_mut() = true;
        });
        h.cancel();
        sim.run();
        assert!(!*fired.borrow());
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_past_panics() {
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::from_secs(5), |_| {});
        sim.run();
        sim.schedule_at(SimTime::from_secs(1), |_| {});
    }

    #[test]
    fn same_time_events_fire_in_schedule_order() {
        let mut sim = Simulator::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        let t = SimTime::from_secs(1);
        for i in 0..50 {
            let log = log.clone();
            sim.schedule_at(t, move |_| log.borrow_mut().push(i));
        }
        sim.run();
        assert_eq!(*log.borrow(), (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn queue_high_water_tracks_peak_depth() {
        let mut sim = Simulator::new();
        assert_eq!(sim.queue_high_water(), 0);
        for s in 1..=7u64 {
            sim.schedule_at(SimTime::from_secs(s), |_| {});
        }
        assert_eq!(sim.queue_high_water(), 7);
        sim.run();
        // Draining never lowers the high-water mark.
        assert_eq!(sim.pending_events(), 0);
        assert_eq!(sim.queue_high_water(), 7);
    }

    #[test]
    fn observer_fires_every_n_events_and_sees_state() {
        let mut sim = Simulator::new();
        let seen = Rc::new(RefCell::new(Vec::new()));
        let s = seen.clone();
        sim.set_observer(3, move |sim| {
            s.borrow_mut()
                .push((sim.events_executed(), sim.now().as_secs()));
        });
        for i in 1..=10u64 {
            sim.schedule_at(SimTime::from_secs(i), |_| {});
        }
        sim.run();
        assert_eq!(*seen.borrow(), vec![(3, 3), (6, 6), (9, 9)]);
        sim.clear_observer();
        sim.schedule_in(SimDuration::from_secs(1), |_| {});
        sim.run();
        assert_eq!(seen.borrow().len(), 3, "cleared observer must not fire");
    }

    #[test]
    fn observer_does_not_perturb_execution() {
        let run = |with_observer: bool| {
            let mut sim = Simulator::new();
            if with_observer {
                sim.set_observer(1, |_| {});
            }
            let log = Rc::new(RefCell::new(Vec::new()));
            for &ms in &[30u64, 10, 20, 10] {
                let log = log.clone();
                sim.schedule_at(SimTime::from_millis(ms), move |sim| {
                    log.borrow_mut().push(sim.now().as_millis());
                });
            }
            sim.run();
            let fired = log.borrow().clone();
            (fired, sim.events_executed(), sim.now())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn journal_samples_dispatch_and_overflow() {
        let mut sim = Simulator::new();
        let journal = Journal::new();
        sim.set_journal(4, journal.clone());
        // 10 near events plus one far beyond the wheel horizon (512 × 4 ms).
        for i in 1..=10u64 {
            sim.schedule_at(SimTime::from_millis(i), |_| {});
        }
        sim.schedule_at(SimTime::from_secs(3600), |_| {});
        sim.run();
        let events = journal.events();
        let dispatches: Vec<_> = events.iter().filter(|e| e.kind == "sim.dispatch").collect();
        // 11 executed events, stride 4 → samples at 4 and 8.
        assert_eq!(dispatches.len(), 2);
        assert_eq!(dispatches[0].key, 4);
        assert_eq!(dispatches[0].sim_ns, SimTime::from_millis(4).as_nanos());
        assert!(events.iter().any(|e| e.kind == "sim.queue.level"));
        let overflows: Vec<_> = events.iter().filter(|e| e.kind == "sim.overflow").collect();
        assert_eq!(overflows.len(), 1, "far event must hit the overflow heap");
        assert_eq!(overflows[0].value, 1);
        sim.clear_journal();
        sim.schedule_in(SimDuration::from_secs(1), |_| {});
        sim.run();
        assert_eq!(journal.len(), events.len(), "cleared journal must not grow");
    }

    #[test]
    fn journal_does_not_perturb_execution() {
        let run = |with_journal: bool| {
            let mut sim = Simulator::new();
            if with_journal {
                sim.set_journal(1, Journal::new());
            }
            let log = Rc::new(RefCell::new(Vec::new()));
            for &ms in &[30u64, 10, 20, 10] {
                let log = log.clone();
                sim.schedule_at(SimTime::from_millis(ms), move |sim| {
                    log.borrow_mut().push(sim.now().as_millis());
                });
            }
            sim.run();
            let fired = log.borrow().clone();
            (fired, sim.events_executed(), sim.now())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn process_table_stays_small_under_session_churn() {
        // Every millisecond an arrival process stops the previous session's
        // stream and spawns the next one from inside its own running body:
        // 10,000 periodic processes started and stopped one after another.
        let mut sim = Simulator::new();
        let fired = Rc::new(Cell::new(0u64));
        let f = fired.clone();
        let mut current: Option<StopFlag> = None;
        spawn_periodic(
            &mut sim,
            SimTime::ZERO,
            SimDuration::from_millis(1),
            StopFlag::new(),
            move |sim, _| {
                if let Some(previous) = current.take() {
                    previous.stop();
                }
                let stop = StopFlag::new();
                let f = f.clone();
                spawn_periodic(
                    sim,
                    sim.now(),
                    SimDuration::from_micros(300),
                    stop.clone(),
                    move |_, _| f.set(f.get() + 1),
                );
                current = Some(stop);
            },
        );
        sim.run_until(SimTime::from_millis(10_000));
        // Each session fires at +0, +300, +600 and +900 µs.
        assert_eq!(fired.get(), 40_000);
        // The arrival process, the live session and the one stopped but
        // not yet fired again: freed slots are reused, so the table never
        // grows with the number of sessions ever started.
        assert!(sim.procs.len() <= 3, "{} slots", sim.procs.len());
    }

    #[test]
    fn body_scheduled_event_at_the_next_firing_instant_fires_first() {
        let mut sim = Simulator::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        let l = log.clone();
        let period = SimDuration::from_millis(10);
        spawn_periodic(
            &mut sim,
            SimTime::ZERO,
            period,
            StopFlag::new(),
            move |sim, i| {
                l.borrow_mut().push(("tick", i));
                let l = l.clone();
                sim.schedule_in(period, move |_| l.borrow_mut().push(("scheduled", i)));
            },
        );
        sim.run_until(SimTime::from_millis(25));
        assert_eq!(
            *log.borrow(),
            vec![
                ("tick", 0),
                ("scheduled", 0),
                ("tick", 1),
                ("scheduled", 1),
                ("tick", 2)
            ]
        );
    }

    #[test]
    fn run_for_advances_relative() {
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::from_secs(10), |_| {});
        sim.run_for(SimDuration::from_secs(3));
        assert_eq!(sim.now(), SimTime::from_secs(3));
        sim.run_for(SimDuration::from_secs(3));
        assert_eq!(sim.now(), SimTime::from_secs(6));
        assert_eq!(sim.pending_events(), 1);
    }
}
