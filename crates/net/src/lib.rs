//! # csprov-net — network substrate for the Counter-Strike traffic study
//!
//! Provides everything between the discrete-event kernel and the game
//! workload model:
//!
//! - [`addr`] — MAC/endpoint addressing for simulated hosts.
//! - [`wire`] — smoltcp-style typed views over Ethernet II, IPv4 and UDP
//!   with real checksums.
//! - [`packet`] — the metadata-only packet the simulator moves, and the
//!   paper's 54-byte per-packet wire-overhead accounting.
//! - [`link`] — last-mile link models (serialization, queueing, propagation,
//!   jitter, loss) with 2002-era presets; a 56k modem preset is what makes
//!   the *narrowest last-mile link saturation* phenomenon reproducible.
//! - [`trace`] — streaming [`trace::TraceSink`] capture plus a compact
//!   binary trace format.
//! - [`batch`] — columnar (struct-of-arrays) packet batches, the fast-path
//!   ingest representation the hot analyzers consume.
//! - [`pcap`] — classic libpcap export of fully checksummed synthetic
//!   frames (and the reverse parse).
//! - [`fault`] — a composable impairment stack (uniform and Gilbert–Elliott
//!   bursty loss, corruption, shaping, reordering, duplication), mirroring
//!   the knobs of smoltcp's example harnesses.
//! - [`error`] — the typed error taxonomy for the ingest path; malformed
//!   captures degrade the analysis instead of unwinding the process.

pub mod addr;
pub mod batch;
pub mod error;
pub mod fault;
pub mod link;
pub mod packet;
pub mod pcap;
pub mod trace;
pub mod wire;

pub use addr::{client_endpoint, server_endpoint, Endpoint, MacAddr};
pub use batch::PacketBatch;
pub use error::{Error, ReplayReport};
pub use fault::{
    BurstLoss, DropCause, DuplicateConfig, Fate, FaultConfig, FaultInjector, FaultStats, RateLimit,
    ReorderConfig,
};
pub use link::{Link, LinkClass, LinkConfig, LinkStats};
pub use packet::{Direction, Packet, PacketKind, CAPTURE_OVERHEAD_BYTES, WIRE_OVERHEAD_BYTES};
pub use trace::{CountingSink, NullSink, Tee, TraceReader, TraceRecord, TraceSink, TraceWriter};
