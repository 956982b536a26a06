//! # semrec-obs — observability for the semrec pipeline
//!
//! A small, dependency-free observability layer shared by every crate in
//! the workspace. Two pieces:
//!
//! * **[`MetricsRegistry`]** — thread-safe named [`Counter`]s, [`Gauge`]s
//!   and fixed-bucket [`Histogram`]s. Handles are `Arc`-backed and cheap to
//!   clone, so hot loops fetch once and increment lock-free. Snapshots are
//!   `BTreeMap`-ordered for deterministic rendering and comparison, and
//!   [`MetricsRegistry::reset`] zeroes in place so cached handles survive
//!   across experiment runs.
//! * **[`span`]** — scoped stage timers. A guard times the region until
//!   drop and records the wall time into the registry histogram of the
//!   same name; that histogram is the only thing a span records.
//!
//! Most call sites go through the process-wide [`global`] registry via the
//! free functions:
//!
//! ```
//! let runs = semrec_obs::counter("appleseed.runs");
//! runs.inc();
//! {
//!     let _timer = semrec_obs::span("engine.stage.synthesis");
//!     // ... the timed stage ...
//! }
//! let snapshot = semrec_obs::global().snapshot();
//! assert!(snapshot.counters["appleseed.runs"] >= 1);
//! assert!(snapshot.histograms["engine.stage.synthesis"].count >= 1);
//! ```
//!
//! ## Determinism contract
//!
//! Counters and gauges record *what* the pipeline did, never how long it
//! took, so for a fixed input and seed their values are identical across
//! runs and thread counts (worker-indexed counters aside). Timing lives
//! only in histograms fed by [`span`] guards; determinism tests compare
//! counter maps and ignore histogram sums. See `tests/determinism.rs` at
//! the workspace root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod metrics;
mod span;

pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, HistogramSummary, MetricsRegistry,
    MetricsSnapshot, DEFAULT_BUCKETS, TICK_BUCKETS,
};
pub use span::{span, SpanGuard};

use std::sync::OnceLock;

/// The process-wide registry used by the pipeline's instrumentation.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// Handle to the global registry's counter `name`.
pub fn counter(name: &str) -> Counter {
    global().counter(name)
}

/// Handle to the global registry's gauge `name`.
pub fn gauge(name: &str) -> Gauge {
    global().gauge(name)
}

/// Handle to the global registry's histogram `name`.
pub fn histogram(name: &str) -> Histogram {
    global().histogram(name)
}

/// Handle to the global registry's histogram `name` with caller-chosen
/// bucket bounds (e.g. [`TICK_BUCKETS`] for virtual-tick waits). Bounds are
/// fixed at first creation; later callers get the existing cells.
pub fn histogram_with_buckets(name: &str, bounds: &[f64]) -> Histogram {
    global().histogram_with_buckets(name, bounds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_is_one_registry() {
        counter("obs.test.global").add(2);
        assert_eq!(global().counter("obs.test.global").get(), 2);
    }
}
