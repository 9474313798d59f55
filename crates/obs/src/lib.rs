//! # csprov-obs — zero-dependency observability for the csprov workspace
//!
//! Metrics, wall-time profiling, progress reporting, a deterministic trace
//! journal and a sim-time series sampler for the single-threaded
//! discrete-event simulation. Everything here is built on `Rc<Cell<..>>` handles — no
//! atomics, no locks, no external crates — so instrumented hot paths pay
//! roughly one pointer-chase per update.
//!
//! Telemetry is organised in three planes over one set of producers:
//!
//! * **snapshot** — [`MetricsRegistry`]: end-of-run totals (text, JSONL,
//!   Prometheus exposition);
//! * **journal** — [`Journal`]: a bounded log of discrete
//!   [`TraceEvent`]s stamped with sim time (JSONL and Chrome trace-event
//!   exports, Perfetto-openable);
//! * **series** — [`SeriesSampler`]: periodic columnar samples of registry
//!   instruments on the sim clock (CSV, plot-ready).
//!
//! ## The determinism boundary
//!
//! Seeded runs are a pure function of their seed; instrumentation must never
//! feed back into simulation decisions. This crate enforces the reporting
//! side of that contract:
//!
//! * every instrument is tagged **deterministic** or **wall**: counts,
//!   gauges and sim-time histograms are deterministic; anything measured
//!   with `Instant` is wall;
//! * [`MetricsRegistry::render_deterministic`] excludes wall instruments, so
//!   two same-seed runs produce byte-identical deterministic snapshots;
//! * [`ProgressReporter`] only *reads* simulation state and writes to
//!   stderr — it cannot reorder or add events.
//!
//! The consuming crates hold up the other side: handles are attached as
//! `Option<..>` side-channels and no simulation branch ever inspects a
//! metric value.

pub mod bus;
pub mod health;
pub mod histogram;
pub mod journal;
pub mod json;
pub mod profile;
pub mod progress;
pub mod registry;
pub mod timeseries;

pub use bus::{BroadcastBus, BusEvent, BusStats, BusSubscriber};
pub use health::{
    unix_ms, HeartbeatRecord, ShardHealthBoard, SHARD_DONE, SHARD_LOST, SHARD_PENDING,
    SHARD_RUNNING,
};
pub use histogram::LogHistogram;
pub use journal::{Journal, TraceEvent, JOURNAL_SCHEMA};
pub use json::Json;
pub use profile::{Profile, ProfileEntry, ProfileScope, ProfileSnapshot};
pub use progress::ProgressReporter;
pub use registry::{Counter, Gauge, Histogram, MetricsRegistry, METRICS_SCHEMA};
pub use timeseries::{SeriesSampler, SERIES_TIME_COLUMN};
