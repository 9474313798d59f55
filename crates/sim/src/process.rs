//! Recurring processes built on the engine.
//!
//! Game traffic is dominated by strictly periodic processes (the 50 ms server
//! tick, per-client command streams) and by Poisson-like arrival processes
//! (player arrivals). Both register their body once in the simulator's
//! process table, which re-queues it after each firing, so actor code stays
//! focused on behaviour and a firing allocates nothing.

use crate::dist::{Exp, Sample};
use crate::engine::Simulator;
use crate::rng::RngStream;
use crate::time::{SimDuration, SimTime};
use std::cell::Cell;
use std::rc::Rc;

/// A shared flag used to stop a recurring process.
///
/// Cloning shares the flag. Once stopped, the process will not reschedule.
#[derive(Debug, Clone, Default)]
pub struct StopFlag(Rc<Cell<bool>>);

impl StopFlag {
    /// Creates a new, unset flag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests the process stop before its next firing.
    pub fn stop(&self) {
        self.0.set(true);
    }

    /// True once `stop` has been called.
    pub fn is_stopped(&self) -> bool {
        self.0.get()
    }
}

/// Schedules `body` to run every `period`, first at `start`, until `stop` is
/// set. The body receives the simulator and the tick index (0-based).
pub fn spawn_periodic<F>(
    sim: &mut Simulator,
    start: SimTime,
    period: SimDuration,
    stop: StopFlag,
    mut body: F,
) where
    F: FnMut(&mut Simulator, u64) + 'static,
{
    assert!(
        !period.is_zero(),
        "periodic process needs a positive period"
    );
    let mut at = start;
    let mut index = 0;
    sim.spawn_recurring(
        start,
        Box::new(move |sim| {
            if stop.is_stopped() {
                return None;
            }
            body(sim, index);
            if stop.is_stopped() {
                return None;
            }
            at += period;
            index += 1;
            Some(at)
        }),
    );
}

/// Schedules `body` to run at exponentially-distributed intervals with the
/// given mean (a Poisson process), until `stop` is set. The first firing is
/// one draw after `start`.
pub fn spawn_poisson<F>(
    sim: &mut Simulator,
    start: SimTime,
    mean_interval: SimDuration,
    mut rng: RngStream,
    stop: StopFlag,
    mut body: F,
) where
    F: FnMut(&mut Simulator) + 'static,
{
    assert!(!mean_interval.is_zero());
    let dist = Exp::with_mean(mean_interval.as_secs_f64());
    let first = start + SimDuration::from_secs_f64(dist.sample(&mut rng));
    sim.spawn_recurring(
        first,
        Box::new(move |sim| {
            if stop.is_stopped() {
                return None;
            }
            body(sim);
            if stop.is_stopped() {
                return None;
            }
            Some(sim.now() + SimDuration::from_secs_f64(dist.sample(&mut rng)))
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn periodic_fires_on_schedule() {
        let mut sim = Simulator::new();
        let times = Rc::new(RefCell::new(Vec::new()));
        let t = times.clone();
        spawn_periodic(
            &mut sim,
            SimTime::from_millis(50),
            SimDuration::from_millis(50),
            StopFlag::new(),
            move |sim, i| {
                t.borrow_mut().push((i, sim.now().as_millis()));
            },
        );
        sim.run_until(SimTime::from_millis(260));
        assert_eq!(
            *times.borrow(),
            vec![(0, 50), (1, 100), (2, 150), (3, 200), (4, 250)]
        );
    }

    #[test]
    fn periodic_has_no_drift() {
        // Even after a million ticks the firing time is exactly i * period.
        let mut sim = Simulator::new();
        let last = Rc::new(Cell::new((0u64, 0u64)));
        let l = last.clone();
        spawn_periodic(
            &mut sim,
            SimTime::ZERO,
            SimDuration::from_micros(333),
            StopFlag::new(),
            move |sim, i| l.set((i, sim.now().as_nanos())),
        );
        sim.run_until(SimTime::from_secs(1));
        let (i, ns) = last.get();
        assert_eq!(ns, i * 333_000);
    }

    #[test]
    fn stop_flag_halts_periodic() {
        let mut sim = Simulator::new();
        let stop = StopFlag::new();
        let count = Rc::new(Cell::new(0u32));
        let c = count.clone();
        let s = stop.clone();
        spawn_periodic(
            &mut sim,
            SimTime::ZERO,
            SimDuration::from_secs(1),
            stop.clone(),
            move |_, _| {
                c.set(c.get() + 1);
                if c.get() == 3 {
                    s.stop();
                }
            },
        );
        sim.run_until(SimTime::from_secs(100));
        assert_eq!(count.get(), 3);
        assert!(stop.is_stopped());
    }

    #[test]
    fn poisson_mean_interval() {
        let mut sim = Simulator::new();
        let count = Rc::new(Cell::new(0u64));
        let c = count.clone();
        spawn_poisson(
            &mut sim,
            SimTime::ZERO,
            SimDuration::from_millis(100),
            RngStream::new(5),
            StopFlag::new(),
            move |_| c.set(c.get() + 1),
        );
        sim.run_until(SimTime::from_secs(1000));
        // Expect ~10 events/sec * 1000 s = 10_000; allow 5% (CLT bound ~3 sigma).
        let n = count.get();
        assert!((9_500..=10_500).contains(&n), "n = {n}");
    }

    #[test]
    fn poisson_stops() {
        let mut sim = Simulator::new();
        let stop = StopFlag::new();
        let count = Rc::new(Cell::new(0u64));
        let c = count.clone();
        spawn_poisson(
            &mut sim,
            SimTime::ZERO,
            SimDuration::from_millis(10),
            RngStream::new(6),
            stop.clone(),
            move |_| c.set(c.get() + 1),
        );
        sim.run_until(SimTime::from_secs(1));
        let at_1s = count.get();
        stop.stop();
        sim.run_until(SimTime::from_secs(10));
        assert_eq!(count.get(), at_1s);
    }
}
