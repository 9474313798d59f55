//! # csprov-router — routing-infrastructure models
//!
//! The Section IV substrate: what happens when the game server's traffic
//! meets commodity routing gear.
//!
//! - [`engine`] — a store-and-forward engine whose bottleneck is per-packet
//!   route-lookup CPU (the SMC Barricade's 1000–1500 pps rating), with
//!   small per-direction queues. Loss under game traffic is *emergent*:
//!   tick bursts monopolize the CPU and the WAN-side queue overflows.
//! - [`nat`] — the NAT device used in the paper's experiment: translation
//!   table with idle expiry, the engine, and the four measurement taps of
//!   Table IV / Figures 14–15. Implements [`csprov_game::Middlebox`].
//! - [`table`] — a longest-prefix-match routing table (binary trie).
//! - [`cache`] — route caches with classic and *preferential* eviction
//!   policies (by packet size / frequency), the paper's §IV-B proposal.
//! - [`impaired`] — fault-injection wrapper composing background loss /
//!   shaping with any middlebox.
//! - [`provision`] — the analytical provisioning model the paper's title
//!   promises: closed-form drain-window loss and delay estimates, validated
//!   against the discrete-event engine.

pub mod cache;
pub mod engine;
pub mod impaired;
pub mod nat;
pub mod provision;
pub mod table;

pub use cache::{
    simulate_cache, simulate_cache_journaled, CachePolicy, CacheSimResult, RouteCache,
};
pub use engine::{EngineConfig, EngineStats, ForwardingEngine};
pub use impaired::ImpairedPath;
pub use nat::{NatDevice, NatEntry, NatStats, NatTable, NatTableConfig, NatTaps, TouchOutcome};
pub use provision::{provision, required_capacity, servers_supported, GameLoad, Provisioning};
pub use table::{NextHop, RouteTable};
