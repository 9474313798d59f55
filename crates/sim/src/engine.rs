//! The discrete-event simulation engine.
//!
//! [`Simulator`] owns a virtual clock, an [`EventQueue`] and a slot table
//! of recurring processes and handlers. Actors are plain Rust values
//! shared through `Rc<RefCell<..>>`; an event is a closure that borrows
//! the simulator to read the clock and schedule follow-up events. Runs are
//! single-threaded and fully deterministic.
//!
//! A queue entry is a one-shot boxed action or names a slot of the
//! simulator's slot table, which holds two kinds of long-lived body, each
//! boxed once:
//!
//! - a recurring process ([`crate::spawn_periodic`],
//!   [`crate::spawn_poisson`]). Its next firing is pushed after the body
//!   returns, so an event the body schedules for that same instant fires
//!   first, and a process that ends frees its slot for the next one;
//! - a handler ([`Simulator::add_handler`]), run by every
//!   [`Simulator::call_at`] event with that call's `u64` argument. A
//!   handler stays for the simulator's life.
//!
//! Neither a firing nor a call allocates.
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
use crate::time::{SimDuration, SimTime};
use csprov_obs::Journal;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};

/// The next [`Simulator::id`] to hand out. The counter publishes no other
/// data, so its increments are `Relaxed`: they stay unique either way.
static NEXT_ID: AtomicU64 = AtomicU64::new(0);

/// A scheduled action: a one-shot closure run with access to the simulator.
pub type Action = Box<dyn FnOnce(&mut Simulator)>;

/// A slot-table body. A recurring process runs once per firing (its
/// argument is 0) and returns the time of its next firing, or `None` to
/// end the process; a handler gets each call's argument and returns
/// `None`.
pub(crate) type Body = Box<dyn FnMut(&mut Simulator, u64) -> Option<SimTime>>;

/// A handler in the simulator's slot table, registered with
/// [`Simulator::add_handler`] and run by [`Simulator::call_at`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HandlerId(usize);

/// What a queue entry runs when it fires.
enum Event {
    /// A one-shot action.
    Once(Action),
    /// The next firing of the recurring process in this slot.
    Fire(usize),
    /// A call of the handler in this slot, with its argument.
    Call(usize, u64),
}

/// A read-only callback run from [`Simulator::step`] after every N-th
/// executed event ([`Simulator::add_observer`]).
///
/// Observers see the simulator through `&Simulator`, so they can read the
/// clock, event count and queue depth but cannot schedule, cancel or stop —
/// attaching one cannot change what a seeded run computes. The progress
/// reporter, the trace journal ([`journal_observer`]) and the wall-clock
/// pacer ([`crate::Pacer::into_observer`]) are all observers.
pub type Observer = Box<dyn FnMut(&Simulator)>;

/// The kernel's trace tap, as an observer to install at the stride it
/// comes with (1): every `every`-th executed event emits a `sim.dispatch`
/// instant and a `sim.queue.level` sample, and an event after which the
/// scheduler has spilled more inserts past its timer-wheel horizon emits
/// `sim.overflow` (running total, new spills). Overflows are checked on
/// every event, so the tap samples the dispatch loop itself. Write-only:
/// the journal is never read back.
pub fn journal_observer(every: u64, journal: Journal) -> (u64, Observer) {
    let every = every.max(1);
    let mut seen_overflow_pushes = 0;
    let tap = move |sim: &Simulator| {
        let now_ns = sim.now().as_nanos();
        let executed = sim.events_executed();
        if executed % every == 0 {
            let level = sim.pending_events() as u64;
            journal.emit(now_ns, "sim.dispatch", executed, level);
            journal.emit(now_ns, "sim.queue.level", 0, level);
        }
        let pushes = sim.overflow_pushes();
        if pushes != seen_overflow_pushes {
            journal.emit(
                now_ns,
                "sim.overflow",
                pushes,
                pushes - seen_overflow_pushes,
            );
            seen_overflow_pushes = pushes;
        }
    };
    (1, Box::new(tap))
}

/// An observer with its stride and the executed-event count at which it
/// next fires, so a step compares counts instead of dividing. The count is
/// a cell and the observer, an `FnMut` called with the `&Simulator` that
/// holds it, sits in a `RefCell`.
struct Installed {
    next: Cell<u64>,
    every: u64,
    observer: RefCell<Observer>,
}

/// The discrete-event simulator: virtual clock plus event queue.
pub struct Simulator {
    /// Process-unique identity; see [`Simulator::id`].
    id: u64,
    now: SimTime,
    queue: EventQueue<Event>,
    /// Process and handler bodies by slot. A slot is `None` while it is
    /// free or while its body is running.
    slots: Vec<Option<Body>>,
    /// Free slots of `slots`, reused before the table grows.
    free_slots: Vec<usize>,
    executed: u64,
    stopped: bool,
    queue_hwm: usize,
    /// Installed observers, run in install order.
    observers: Vec<Installed>,
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
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            slots: Vec::new(),
            free_slots: Vec::new(),
            executed: 0,
            stopped: false,
            queue_hwm: 0,
            observers: Vec::new(),
        }
    }

    /// This simulator's identity: no other simulator built in this
    /// process has it, not even one built later at the same address. A
    /// component that outlives a simulator keys what it registered there
    /// (a [`HandlerId`]) by it.
    pub fn id(&self) -> u64 {
        self.id
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

    /// Inserts that have spilled past the scheduler's timer-wheel horizon
    /// since construction.
    pub fn overflow_pushes(&self) -> u64 {
        self.queue.overflow_pushes()
    }

    /// Installs a read-only [`Observer`] called after every `every`-th
    /// executed event. Observers run in install order and stay installed
    /// for the simulator's life.
    pub fn add_observer(&mut self, every: u64, observer: Observer) {
        let every = every.max(1);
        self.observers.push(Installed {
            // The first multiple of `every` after the events already run.
            next: Cell::new((self.executed / every + 1).saturating_mul(every)),
            every,
            observer: RefCell::new(observer),
        });
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

    /// Puts `body` in a free slot, growing the table only when none is.
    fn occupy(&mut self, body: Body) -> usize {
        match self.free_slots.pop() {
            Some(slot) => {
                if let Some(entry) = self.slots.get_mut(slot) {
                    *entry = Some(body);
                }
                slot
            }
            None => {
                self.slots.push(Some(body));
                self.slots.len() - 1
            }
        }
    }

    /// Registers a recurring process in the slot table and queues its
    /// first firing at `first`. Each firing runs `body`; the firing it
    /// returns is queued after it returns, and `None` frees the slot.
    ///
    /// # Panics
    /// Panics if `first` is in the virtual past.
    pub(crate) fn spawn_recurring(&mut self, first: SimTime, body: Body) {
        assert!(
            first >= self.now,
            "cannot schedule into the past: {first} < now {}",
            self.now
        );
        let slot = self.occupy(body);
        self.push(first, Event::Fire(slot));
    }

    /// Registers a long-lived handler in the slot table. Each
    /// [`Simulator::call_at`] naming it runs it once with that call's
    /// argument; it stays registered for the simulator's life.
    pub fn add_handler<F>(&mut self, mut handler: F) -> HandlerId
    where
        F: FnMut(&mut Simulator, u64) + 'static,
    {
        HandlerId(self.occupy(Box::new(move |sim, arg| {
            handler(sim, arg);
            None
        })))
    }

    /// Queues a call of `handler` with `arg` at absolute time `at`. It is
    /// ordered with every other event by `(time, scheduling order)` and
    /// allocates nothing.
    ///
    /// # Panics
    /// Panics if `at` is in the virtual past.
    #[inline]
    pub fn call_at(&mut self, at: SimTime, handler: HandlerId, arg: u64) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < now {}",
            self.now
        );
        self.push(at, Event::Call(handler.0, arg))
    }

    /// Runs the body in `slot` with `arg`. The body is taken out of the
    /// table while it runs, so it may spawn processes and queue calls of
    /// its own, itself included. A process's next firing is queued after
    /// its body is back, and a process that ends frees its slot; a
    /// handler always goes back.
    fn run_slot(&mut self, slot: usize, arg: u64, process: bool) {
        let Some(mut body) = self.slots.get_mut(slot).and_then(Option::take) else {
            return;
        };
        let next = body(self, arg);
        if process && next.is_none() {
            self.free_slots.push(slot);
            return;
        }
        if let Some(entry) = self.slots.get_mut(slot) {
            *entry = Some(body);
        }
        if let (true, Some(next)) = (process, next) {
            self.push(next, Event::Fire(slot));
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
                    Event::Fire(slot) => self.run_slot(slot, 0, true),
                    Event::Call(slot, arg) => self.run_slot(slot, arg, false),
                }
                let this = &*self;
                for o in &this.observers {
                    if this.executed == o.next.get() {
                        o.next.set(o.next.get().saturating_add(o.every));
                        (o.observer.borrow_mut())(this);
                    }
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
        // The world frames its one `run_until` as a `sim.dispatch` profile
        // scope carrying the executed-event count. Events run inside the
        // loop, so a frame an event opens nests under that scope.
        let mut sim = Simulator::new();
        let profile = csprov_obs::Profile::new();
        for ms in [10u64, 20, 150] {
            let profile = profile.clone();
            sim.schedule_at(SimTime::from_millis(ms), move |_| {
                profile.enter("event").add_items(1);
            });
        }
        {
            let mut scope = profile.enter("sim.dispatch");
            sim.run_until(SimTime::from_millis(100));
            scope.add_items(sim.events_executed());
        }
        let snap = profile.snapshot();
        let frame = |path: &[&str]| {
            snap.entries()
                .iter()
                .find(|e| e.path == path)
                .cloned()
                .unwrap_or_else(|| panic!("frame {path:?} recorded"))
        };
        let dispatch = frame(&["sim.dispatch"]);
        assert_eq!(dispatch.count, 1);
        assert_eq!(dispatch.items, 2);
        let event = frame(&["sim.dispatch", "event"]);
        assert_eq!((event.count, event.items), (2, 2));
        assert_eq!(snap.entries().len(), 2, "no frame outside the loop");
        // The frame is observe-only: results match an unprofiled run.
        assert_eq!(sim.events_executed(), 2);
        assert_eq!(sim.pending_events(), 1);
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
        // Two observers at strides 3 and 1 each fire at their own
        // multiples, and on a shared multiple in install order.
        let mut sim = Simulator::new();
        let seen = Rc::new(RefCell::new(Vec::new()));
        for (name, every) in [("every3", 3), ("every1", 1)] {
            let s = seen.clone();
            sim.add_observer(
                every,
                Box::new(move |sim: &Simulator| {
                    s.borrow_mut()
                        .push((name, sim.events_executed(), sim.now().as_secs()));
                }),
            );
        }
        for i in 1..=7u64 {
            sim.schedule_at(SimTime::from_secs(i), |_| {});
        }
        sim.run();
        let mut expected = Vec::new();
        for n in 1..=7u64 {
            if n % 3 == 0 {
                expected.push(("every3", n, n));
            }
            expected.push(("every1", n, n));
        }
        assert_eq!(*seen.borrow(), expected);
    }

    #[test]
    fn observer_installed_mid_run_fires_on_multiples_of_its_stride() {
        let mut sim = Simulator::new();
        for i in 1..=10u64 {
            sim.schedule_at(SimTime::from_secs(i), |_| {});
        }
        sim.run_until(SimTime::from_secs(6));
        assert_eq!(sim.events_executed(), 5);
        let seen = Rc::new(RefCell::new(Vec::new()));
        let s = seen.clone();
        sim.add_observer(
            3,
            Box::new(move |sim: &Simulator| s.borrow_mut().push(sim.events_executed())),
        );
        sim.run();
        assert_eq!(*seen.borrow(), vec![6, 9]);
    }

    /// The fire log, event count and clock of a fixed schedule, run with
    /// `install` applied to the fresh simulator first.
    fn fixed_run(install: impl FnOnce(&mut Simulator)) -> (Vec<u64>, u64, SimTime) {
        let mut sim = Simulator::new();
        install(&mut sim);
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
    }

    #[test]
    fn observer_does_not_perturb_execution() {
        let observed = fixed_run(|sim| {
            sim.add_observer(3, Box::new(|_: &Simulator| {}));
            sim.add_observer(1, Box::new(|_: &Simulator| {}));
        });
        assert_eq!(fixed_run(|_| {}), observed);
    }

    #[test]
    fn journal_samples_dispatch_and_overflow() {
        let mut sim = Simulator::new();
        let journal = Journal::new();
        let (every, tap) = journal_observer(4, journal.clone());
        assert_eq!(every, 1, "overflows are checked on every event");
        sim.add_observer(every, tap);
        // 10 near events plus one far beyond the wheel horizon (512 × 4 ms).
        for i in 1..=10u64 {
            sim.schedule_at(SimTime::from_millis(i), |_| {});
        }
        sim.schedule_at(SimTime::from_secs(3600), |_| {});
        sim.run();
        let events = journal.events();
        let dispatches: Vec<_> = events.iter().filter(|e| e.kind == "sim.dispatch").collect();
        // 11 executed events, sampled every 4th → samples at 4 and 8.
        assert_eq!(dispatches.len(), 2);
        assert_eq!(dispatches[0].key, 4);
        assert_eq!(dispatches[0].sim_ns, SimTime::from_millis(4).as_nanos());
        assert!(events.iter().any(|e| e.kind == "sim.queue.level"));
        let overflows: Vec<_> = events.iter().filter(|e| e.kind == "sim.overflow").collect();
        assert_eq!(overflows.len(), 1, "far event must hit the overflow heap");
        assert_eq!(overflows[0].value, 1);
        assert_eq!(sim.overflow_pushes(), 1);
    }

    #[test]
    fn journal_does_not_perturb_execution() {
        let journaled = fixed_run(|sim| {
            let (every, tap) = journal_observer(1, Journal::new());
            sim.add_observer(every, tap);
        });
        assert_eq!(fixed_run(|_| {}), journaled);
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
        assert!(sim.slots.len() <= 3, "{} slots", sim.slots.len());
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
    fn calls_interleave_with_one_shot_and_process_events() {
        // One handler, a one-shot action and a periodic process, queued
        // interleaved at shared instants: everything fires in exact
        // (time, scheduling order), whatever its kind.
        let mut sim = Simulator::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        let l = log.clone();
        let handler = sim.add_handler(move |sim, arg| {
            l.borrow_mut()
                .push((sim.now().as_millis(), format!("call {arg}")));
        });
        let once = |sim: &mut Simulator, ms: u64, name: &'static str| {
            let l = log.clone();
            sim.schedule_at(SimTime::from_millis(ms), move |sim| {
                l.borrow_mut()
                    .push((sim.now().as_millis(), name.to_string()));
            });
        };
        sim.call_at(SimTime::from_millis(10), handler, 1);
        once(&mut sim, 10, "once a");
        let l = log.clone();
        spawn_periodic(
            &mut sim,
            SimTime::from_millis(10),
            SimDuration::from_millis(10),
            StopFlag::new(),
            move |sim, i| {
                l.borrow_mut()
                    .push((sim.now().as_millis(), format!("tick {i}")))
            },
        );
        sim.call_at(SimTime::from_millis(20), handler, 2);
        once(&mut sim, 20, "once b");
        sim.call_at(SimTime::from_millis(5), handler, 3);
        sim.call_at(SimTime::from_millis(10), handler, 4);
        sim.run_until(SimTime::from_millis(25));
        let expected = [
            (5, "call 3"),
            (10, "call 1"),
            (10, "once a"),
            (10, "tick 0"),
            (10, "call 4"),
            // Tick 1 was queued when tick 0 returned, after `once b`.
            (20, "call 2"),
            (20, "once b"),
            (20, "tick 1"),
        ];
        let got: Vec<(u64, String)> = log.borrow().clone();
        let expected: Vec<(u64, String)> = expected
            .iter()
            .map(|&(ms, name)| (ms, name.to_string()))
            .collect();
        assert_eq!(got, expected);
        // The handler shares the slot table with the process and survives
        // its calls.
        assert_eq!(sim.slots.len(), 2);
        assert!(sim.slots.iter().all(Option::is_some));
    }

    #[test]
    fn handler_calling_itself_now_runs_after_it_returns() {
        let mut sim = Simulator::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        let me: Rc<Cell<Option<HandlerId>>> = Rc::new(Cell::new(None));
        let (l, m) = (log.clone(), me.clone());
        let handler = sim.add_handler(move |sim, arg| {
            l.borrow_mut().push(("enter", arg, sim.now()));
            if arg < 2 {
                if let Some(me) = m.get() {
                    sim.call_at(sim.now(), me, arg + 1);
                }
            }
            l.borrow_mut().push(("exit", arg, sim.now()));
        });
        me.set(Some(handler));
        let at = SimTime::from_millis(7);
        sim.call_at(at, handler, 0);
        sim.run();
        assert_eq!(
            *log.borrow(),
            vec![
                ("enter", 0, at),
                ("exit", 0, at),
                ("enter", 1, at),
                ("exit", 1, at),
                ("enter", 2, at),
                ("exit", 2, at),
            ],
            "each self-call waits for the running call and none is lost"
        );
        assert_eq!(sim.events_executed(), 3);
    }

    #[test]
    fn simulators_built_in_one_slot_have_distinct_ids() {
        // Each simulator is dropped before the next is built, so they may
        // share an address; their ids still differ.
        let mut ids = Vec::new();
        for _ in 0..2 {
            let sim = Simulator::new();
            ids.push(sim.id());
        }
        assert_ne!(ids[0], ids[1]);
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
