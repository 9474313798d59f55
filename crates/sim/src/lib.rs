//! # csprov-sim — deterministic discrete-event simulation kernel
//!
//! The foundation of the `csprov` workspace: a small, fully deterministic
//! discrete-event simulator. Every higher layer (network links, the
//! Counter-Strike workload model, the NAT/router models) is expressed as
//! events on this kernel.
//!
//! Design points, chosen for a *measurement-reproduction* workload:
//!
//! - **Integer-nanosecond virtual time** ([`SimTime`], [`SimDuration`]) —
//!   event ordering is exact, never subject to float comparison.
//! - **Total deterministic order** — ties at the same instant fire in
//!   scheduling order, so a run is a pure function of its seed.
//! - **Owned PRNG** ([`RngStream`], xoshiro256++) with labelled sub-stream
//!   derivation, so subsystems cannot perturb one another's randomness.
//! - **Owned distribution samplers** ([`dist`]) so the sampling algorithms —
//!   part of the reproduction contract — are pinned in this repository.
//!
//! ## Quick example
//!
//! ```
//! use csprov_sim::{Simulator, SimDuration, SimTime, StopFlag, spawn_periodic};
//! use std::{cell::Cell, rc::Rc};
//!
//! let mut sim = Simulator::new();
//! let ticks = Rc::new(Cell::new(0u64));
//! let t = ticks.clone();
//! // A 50 ms "server tick", the heartbeat of the whole paper.
//! spawn_periodic(&mut sim, SimTime::ZERO, SimDuration::from_millis(50),
//!     StopFlag::new(), move |_, _| t.set(t.get() + 1));
//! sim.run_until(SimTime::from_secs(1));
//! assert_eq!(ticks.get(), 20);
//! ```

pub mod check;
pub mod dist;
pub mod engine;
pub mod event;
pub mod hash;
pub mod pacing;
pub mod process;
pub mod rate;
pub mod rng;
pub mod time;

pub use engine::{journal_observer, Action, HandlerId, Observer, Simulator};
pub use event::{EventHandle, EventId, EventQueue};
pub use hash::{FxBuildHasher, FxHasher};
pub use pacing::{Pacer, PacerStats, Speed};
pub use process::{spawn_periodic, spawn_poisson, StopFlag};
pub use rate::TokenBucket;
pub use rng::RngStream;
pub use time::{round_to_u64, SimDuration, SimTime};
