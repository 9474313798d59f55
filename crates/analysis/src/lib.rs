//! # csprov-analysis — the paper's measurement toolkit
//!
//! Streaming analyzers over the packet stream ([`csprov_net::TraceSink`]
//! implementations) plus the statistics behind every table and figure in
//! the paper:
//!
//! - [`series`] — fixed-width interval binning (Figures 1, 2, 4, 6–10).
//! - [`hurst`] — the aggregated variance method and variance-time plot
//!   (Figure 5), computed in one streaming pass.
//! - [`histogram`] — packet-size PDFs/CDFs (Figures 12, 13) and general
//!   histograms (Figure 11).
//! - [`flows`] — per-session accounting and the client bandwidth histogram
//!   (Figure 11).
//! - [`sessions`] — connection bookkeeping behind Table I.
//! - [`summary`] — network/application usage roll-ups (Tables II, III).
//! - [`welford`], [`fit`], [`acf`] — the underlying numerics.
//! - [`merge`] — typed errors for folding per-shard analyzer states into a
//!   facility aggregate (superposition vs concatenation semantics).
//! - [`report`], [`plot`] — text tables, CSV, and ASCII figures.
//!
//! All per-packet analyzers are O(1) memory in trace length (up to
//! explicitly-bounded stored series), so the full 500 M-packet week fits
//! comfortably in RAM.

pub mod acf;
pub mod fit;
pub mod flows;
pub mod histogram;
pub mod hurst;
pub mod merge;
pub mod persist;
pub mod plot;
pub mod report;
pub mod series;
pub mod sessions;
pub mod summary;
pub mod welford;

pub use acf::{acf, autocorrelation, dominant_period};
pub use fit::{fit_line, LineFit};
pub use flows::{FlowStats, FlowTable};
pub use histogram::{Histogram, SizeHistogram};
pub use hurst::{rs_hurst, rs_statistic, VarianceTime, VtPoint};
pub use merge::MergeError;
pub use persist::{
    ByteReader, ByteWriter, StateError, KIND_FACILITY, KIND_HEARTBEAT, KIND_SHARD, STATE_SCHEMA,
};
pub use series::{RateBin, RateSeries};
pub use sessions::{summarize_sessions, SessionRecord, SessionSummary};
pub use summary::{application_usage, gib, network_usage, ApplicationUsage, NetworkUsage};
pub use welford::Welford;
