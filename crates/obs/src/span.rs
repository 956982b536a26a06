//! Scoped stage timers.
//!
//! A [`span`] guard times the region between its creation and drop and
//! records the wall time, in seconds, into the global registry's histogram
//! of the same name. That histogram is the span's only record: nothing is
//! buffered per thread, so a long-lived thread can open any number of spans
//! in constant memory.

use std::time::Instant;

use crate::Histogram;

/// Opens a timed span; the returned guard closes it on drop.
///
/// The histogram named `name` is resolved here, at open, so closing the
/// span is one `Instant` read and one lock-free [`Histogram::observe`].
#[must_use = "a span measures until the guard drops; binding to _ closes it immediately"]
pub fn span(name: &str) -> SpanGuard {
    SpanGuard { histogram: crate::histogram(name), start: Instant::now() }
}

/// Guard returned by [`span`]; records the span's wall time when dropped.
pub struct SpanGuard {
    histogram: Histogram,
    start: Instant,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.histogram.observe(self.start.elapsed().as_secs_f64());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_feed_the_registry_histogram() {
        let name = "obs.test.span_histogram";
        let before = crate::global().histogram(name).count();
        {
            let _s = span(name);
        }
        assert_eq!(crate::global().histogram(name).count(), before + 1);
    }
}
