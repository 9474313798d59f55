//! # csprov-game — the Counter-Strike server/client workload model
//!
//! A behavioural model of the system the paper measured: a busy
//! Counter-Strike 1.3 server (22 slots, 50 ms tick, 30-minute map rotation)
//! and its worldwide population of mostly-modem clients. Every mechanism
//! the paper attributes traffic behaviour to is explicit:
//!
//! - the synchronous **server tick** broadcasting per-client state
//!   snapshots — the periodic outbound bursts of Figures 6–7;
//! - **last-mile link diversity** and client command streams with random
//!   phase — the smooth inbound load;
//! - **narrowest-link saturation**: default rates are tuned so a session's
//!   two-way traffic sits at 56k-modem capacity (Figure 11), with a small
//!   "l337" population cranking update rates on fast links;
//! - **map rotation** stalls (Figure 9 dips), rounds, rate-limited content
//!   downloads, text/voice chatter, connection refusals and retries
//!   (Table I), and injectable network outages (Figure 3 dips).
//!
//! [`world::World::run`] executes a [`config::ScenarioConfig`] and streams
//! every packet at the server tap into a [`csprov_net::TraceSink`].

pub mod config;
pub mod maps;
pub mod metrics;
pub mod packets;
pub mod server;
pub mod session;
pub mod world;

pub use config::{OutageSpec, ScenarioConfig, ServerConfig, WorkloadConfig, PAPER_TRACE_SECS};
pub use metrics::GameMetrics;
pub use server::{ConnectOutcome, PlayerSlot, ServerState};
pub use session::Population;
pub use world::{Deliver, Middlebox, TraceOutcome, World, WorldInstruments};
