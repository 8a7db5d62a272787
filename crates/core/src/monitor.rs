//! The monitor interface: how checkers observe a running process.

use crate::callstack::{FuncId, FunctionTable};
use crate::report::MetricSample;
use heap_graph::HeapGraph;
use heapmd_obs::SeriesRecorder;
use sim_heap::HeapEvent;

/// Read-only view of the execution state handed to monitors.
#[derive(Debug)]
pub struct MonitorCtx<'a> {
    /// The heap-graph image maintained by the execution logger.
    pub graph: &'a HeapGraph,
    /// The logical clock the metric samples carry
    /// ([`MetricSample::tick`]): the heap's mutator-operation count in
    /// a live process, the replayed event count offline.
    pub tick: u64,
    /// The current call stack, outermost first.
    pub stack: &'a [FuncId],
    /// Function-name intern table for rendering the stack.
    pub funcs: &'a FunctionTable,
    /// Cumulative function entries.
    pub fn_entries: u64,
    /// Effective store-sampling rate of the event stream feeding this
    /// monitor, in `(0, 1]`: `1.0` when every store is observed (no
    /// production-overhead sampling), the measured kept/total ratio
    /// when a [`crate::SampledIngest`] filter fronts the stream.
    /// Detectors widen their calibrated ranges as a function of this.
    pub sample_rate: f64,
    /// The process's flight recorder, when one is enabled
    /// ([`crate::Process::enable_flight_recorder`]). Monitors snapshot
    /// it into incident bundles at detection time.
    pub recorder: Option<&'a SeriesRecorder>,
}

impl MonitorCtx<'_> {
    /// The current call stack as function names, outermost first.
    pub fn stack_names(&self) -> Vec<String> {
        self.funcs.render_stack(self.stack)
    }
}

/// An online observer attached to a [`crate::Process`].
///
/// HeapMD's anomaly detector and the SWAT baseline both implement this.
/// Events arrive synchronously after the heap and heap-graph have been
/// updated; metric samples arrive at each metric computation point.
pub trait Monitor {
    /// Called after every instrumentation event.
    fn on_event(&mut self, ctx: &MonitorCtx<'_>, event: &HeapEvent) {
        let _ = (ctx, event);
    }

    /// Called at every metric computation point, after the sample was
    /// recorded.
    fn on_sample(&mut self, ctx: &MonitorCtx<'_>, sample: &MetricSample) {
        let _ = (ctx, sample);
    }

    /// Called once when the run finishes.
    fn on_finish(&mut self, ctx: &MonitorCtx<'_>) {
        let _ = ctx;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::Process;
    use crate::settings::Settings;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Counts calls per hook, exercising the attachment plumbing.
    #[derive(Default)]
    struct Counter {
        events: usize,
        samples: usize,
        finished: bool,
        saw_stack: bool,
    }

    impl Monitor for Counter {
        fn on_event(&mut self, ctx: &MonitorCtx<'_>, _event: &HeapEvent) {
            self.events += 1;
            if !ctx.stack.is_empty() {
                self.saw_stack = true;
                assert!(!ctx.stack_names()[0].is_empty());
            }
        }
        fn on_sample(&mut self, _ctx: &MonitorCtx<'_>, _sample: &MetricSample) {
            self.samples += 1;
        }
        fn on_finish(&mut self, _ctx: &MonitorCtx<'_>) {
            self.finished = true;
        }
    }

    #[test]
    fn monitor_receives_events_samples_and_finish() {
        let settings = Settings::builder().frq(2).build().unwrap();
        let counter = Rc::new(RefCell::new(Counter::default()));
        let mut p = Process::new(settings);
        p.attach(counter.clone());
        for _ in 0..6 {
            p.enter("work");
            p.malloc(16, "n").unwrap();
            p.leave();
        }
        let _ = p.finish("run");
        let c = counter.borrow();
        // 6 allocs + 12 fn enter/exit = 18 events.
        assert_eq!(c.events, 18);
        assert_eq!(c.samples, 3, "frq=2 over 6 entries");
        assert!(c.finished);
        assert!(c.saw_stack);
    }
}
