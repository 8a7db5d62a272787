//! Per-stage throughput instrumentation for batch-shaped work.
//!
//! Hot-path stages (graph batch apply, trace replay, parallel training)
//! process events in batches; per-event instrumentation at those rates
//! would cost more than the work it measures. This module records one
//! set of instruments per *batch* instead:
//!
//! - `{stage}_events_total` / `{stage}_batches_total` counters,
//! - a `{stage}_busy_ns_total` counter (cumulative time inside the
//!   stage, so a Prometheus scraper can derive true rates from two
//!   counter samples: `rate(events_total) / rate(busy_ns_total)`),
//! - a `{stage}_batch_ns` latency histogram,
//! - `{stage}_ns_per_event` and `{stage}_events_per_sec` gauges holding
//!   the most recent batch's rates.
//!
//! Each stage is a [`Stage`] static: its six instruments are resolved
//! from the registry on the first recorded batch and cached, so a
//! steady-state batch costs a handful of relaxed atomics. Callers gate
//! on [`stage_clock`] (or [`crate::obs_enabled`]) so disabled runs pay
//! only a relaxed load.
//!
//! ```
//! use heapmd_obs::throughput::{stage_clock, Stage};
//! static DEMO: Stage = Stage::new("demo_stage");
//! let clock = stage_clock();
//! let events = 10_000u64; // ... process the batch ...
//! if let Some(t0) = clock {
//!     DEMO.record(events, t0.elapsed().as_nanos() as u64);
//! }
//! ```

use crate::registry::DEFAULT_LATENCY_BOUNDS_NS;
use crate::{obs_enabled, registry, Counter, Gauge, Histogram};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Starts a batch clock if observability is enabled; `None` otherwise.
///
/// The `Option` doubles as the "should I record?" flag so disabled runs
/// never read the clock.
#[inline]
pub fn stage_clock() -> Option<Instant> {
    obs_enabled().then(Instant::now)
}

/// A named batch stage whose instruments resolve once (see the module
/// docs for the metric names).
#[derive(Debug)]
pub struct Stage {
    name: &'static str,
    instruments: OnceLock<Instruments>,
}

#[derive(Debug)]
struct Instruments {
    events: Arc<Counter>,
    batches: Arc<Counter>,
    busy_ns: Arc<Counter>,
    batch_ns: Arc<Histogram>,
    ns_per_event: Arc<Gauge>,
    events_per_sec: Arc<Gauge>,
}

impl Stage {
    /// A stage exporting `{name}_*` instruments.
    pub const fn new(name: &'static str) -> Self {
        Stage {
            name,
            instruments: OnceLock::new(),
        }
    }

    fn instruments(&self) -> &Instruments {
        self.instruments.get_or_init(|| {
            let reg = registry();
            let name = self.name;
            Instruments {
                events: reg.counter(&format!("{name}_events_total")),
                batches: reg.counter(&format!("{name}_batches_total")),
                busy_ns: reg.counter(&format!("{name}_busy_ns_total")),
                batch_ns: reg.histogram(&format!("{name}_batch_ns"), DEFAULT_LATENCY_BOUNDS_NS),
                ns_per_event: reg.gauge(&format!("{name}_ns_per_event")),
                events_per_sec: reg.gauge(&format!("{name}_events_per_sec")),
            }
        })
    }

    /// Records one processed batch: `events` events completed in
    /// `elapsed_ns` nanoseconds.
    ///
    /// No-op when observability is disabled or `events` is zero.
    pub fn record(&self, events: u64, elapsed_ns: u64) {
        if !obs_enabled() || events == 0 {
            return;
        }
        let i = self.instruments();
        i.events.add(events);
        i.batches.inc();
        i.busy_ns.add(elapsed_ns);
        i.batch_ns.observe(elapsed_ns);
        i.ns_per_event.set((elapsed_ns / events) as i64);
        if elapsed_ns > 0 {
            let per_sec = (events as u128 * 1_000_000_000) / elapsed_ns as u128;
            i.events_per_sec.set(per_sec.min(i64::MAX as u128) as i64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set_enabled;

    #[test]
    fn disabled_records_nothing() {
        static OFF: Stage = Stage::new("tp_test_off");
        set_enabled(false);
        assert!(stage_clock().is_none());
        OFF.record(100, 1_000);
        assert_eq!(registry().counter("tp_test_off_events_total").get(), 0);
    }

    #[test]
    fn enabled_records_rates() {
        static ON: Stage = Stage::new("tp_test_on");
        set_enabled(true);
        ON.record(1_000, 2_000_000); // 2µs/event
        set_enabled(false);
        assert_eq!(registry().counter("tp_test_on_events_total").get(), 1_000);
        assert_eq!(registry().counter("tp_test_on_batches_total").get(), 1);
        assert_eq!(
            registry().counter("tp_test_on_busy_ns_total").get(),
            2_000_000
        );
        assert_eq!(
            registry()
                .histogram("tp_test_on_batch_ns", DEFAULT_LATENCY_BOUNDS_NS)
                .count(),
            1
        );
        assert_eq!(registry().gauge("tp_test_on_ns_per_event").get(), 2_000);
        assert_eq!(registry().gauge("tp_test_on_events_per_sec").get(), 500_000);
        // The stage holds the registry's own instruments.
        let cached = ON.instruments.get().expect("resolved by the first batch");
        assert!(Arc::ptr_eq(
            &cached.events,
            &registry().counter("tp_test_on_events_total")
        ));
    }

    #[test]
    fn zero_events_is_noop() {
        static ZERO: Stage = Stage::new("tp_test_zero");
        set_enabled(true);
        ZERO.record(0, 5_000);
        set_enabled(false);
        assert_eq!(registry().counter("tp_test_zero_batches_total").get(), 0);
    }
}
