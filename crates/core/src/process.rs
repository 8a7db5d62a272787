//! The execution logger + instrumented mutator facade.

use crate::callstack::{FuncId, FunctionTable};
use crate::error::HeapMdError;
use crate::monitor::{Monitor, MonitorCtx};
use crate::report::{MetricReport, MetricSample};
use crate::settings::Settings;
use crate::trace::Trace;
use crate::trace_codec::{BinaryTraceWriter, StreamFormat};
use crate::trace_stream::TraceWriter;
use heap_graph::HeapGraph;
use heapmd_obs::SeriesRecorder;
use sim_heap::{Addr, AllocSite, HeapError, HeapEvent, SimHeap, NULL};
use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::rc::Rc;
use swat::{SampledIngest, SamplerConfig, SamplingInfo};

/// A simulated instrumented process: the paper's `output.exe` running
/// under the execution logger.
///
/// Workload code drives the process through its mutator API (`malloc`,
/// `free`, `write_ptr`, `enter`/`leave`, …). The process:
///
/// * forwards each operation to the [`SimHeap`];
/// * keeps the heap-graph image ([`HeapGraph`]) in sync;
/// * counts function entries and, once every `settings.frq` of them,
///   records a [`MetricSample`] (a *metric computation point*);
/// * fans events and samples out to attached [`Monitor`]s (the anomaly
///   detector, the SWAT baseline, …);
/// * optionally records the event stream into a [`Trace`] for offline,
///   post-mortem checking.
///
/// # Example
///
/// ```
/// use heapmd::{Process, Settings};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut p = Process::new(Settings::builder().frq(1).build()?);
/// p.enter("main");
/// let head = p.malloc(24, "list_node")?;
/// let next = p.malloc(24, "list_node")?;
/// p.write_ptr(head.offset(8), next)?;
/// p.leave();
/// let report = p.finish("example");
/// assert_eq!(report.len(), 1);
/// # Ok(())
/// # }
/// ```
pub struct Process {
    heap: SimHeap,
    graph: HeapGraph,
    funcs: FunctionTable,
    stack: Vec<FuncId>,
    sites: HashMap<String, AllocSite>,
    site_names: Vec<String>,
    settings: Settings,
    fn_entries: u64,
    samples: Vec<MetricSample>,
    monitors: Vec<Rc<RefCell<dyn Monitor>>>,
    trace: Option<Trace>,
    /// Incremental crash-safe trace stream (see
    /// [`stream_trace_to`](Self::stream_trace_to)), in either wire
    /// format.
    stream: Option<TraceSink>,
    /// First error that killed the stream, kept for
    /// [`finish_stream`](Self::finish_stream) to report.
    stream_error: Option<HeapMdError>,
    /// Flight recorder: bounded time series of every metric plus
    /// alloc/free/store rates, fed at each metric computation point.
    recorder: Option<SeriesRecorder>,
    /// Heap op totals at the previous computation point, for the rate
    /// series deltas: `(allocs, frees, ptr_writes)`.
    last_op_totals: (u64, u64, u64),
    /// Production-overhead store sampling
    /// ([`enable_sampling`](Self::enable_sampling)): when installed,
    /// pointer/scalar stores the filter rejects update the simulated
    /// heap (mutator semantics stay exact) but reach neither the heap
    /// graph nor any trace/stream/monitor sink.
    sampling: Option<SampledIngest>,
}

impl Process {
    /// Creates a fresh process under the given settings.
    pub fn new(settings: Settings) -> Self {
        Process {
            heap: SimHeap::new(),
            graph: HeapGraph::new(),
            funcs: FunctionTable::new(),
            stack: Vec::new(),
            sites: HashMap::new(),
            site_names: Vec::new(),
            settings,
            fn_entries: 0,
            samples: Vec::new(),
            monitors: Vec::new(),
            trace: None,
            stream: None,
            stream_error: None,
            recorder: None,
            last_op_totals: (0, 0, 0),
            sampling: None,
        }
    }

    /// Turns on production-overhead store sampling: from now on,
    /// pointer/scalar stores are burst-sampled per allocation site by a
    /// [`SampledIngest`] filter under `config`. Alloc/free and function
    /// events always record, so object counts and the sampling schedule
    /// stay exact; a rejected store still mutates the simulated heap
    /// but is invisible to the heap graph, monitors, and any trace or
    /// stream sink — the recorded artifact is exactly what a sampled
    /// production process would have written.
    ///
    /// Enable this before driving the mutator, so the filter sees every
    /// allocation site from the start.
    pub fn enable_sampling(&mut self, config: SamplerConfig) {
        if self.sampling.is_none() {
            self.sampling = Some(SampledIngest::new(config));
        }
    }

    /// The sampling filter's measured outcome so far, when sampling is
    /// enabled.
    pub fn sampling_info(&self) -> Option<SamplingInfo> {
        self.sampling.as_ref().map(|f| f.info())
    }

    /// The effective store-sampling rate so far: `1.0` when sampling is
    /// off or no store has been observed.
    pub fn sample_rate(&self) -> f64 {
        self.sampling.as_ref().map_or(1.0, |f| f.effective_rate())
    }

    /// Runs `ev` through the sampling filter (always `true` when
    /// sampling is off). Allocs register their site as a side effect.
    #[inline]
    fn admit(&mut self, ev: &HeapEvent) -> bool {
        match self.sampling.as_mut() {
            Some(filter) => filter.admit(ev),
            None => true,
        }
    }

    /// Attaches an online monitor. Events that occurred before the
    /// attachment are not replayed.
    pub fn attach(&mut self, monitor: Rc<RefCell<dyn Monitor>>) {
        self.monitors.push(monitor);
    }

    /// Starts recording the event stream for offline checking.
    pub fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Trace::new());
        }
    }

    /// Turns on the flight recorder: from the next metric computation
    /// point on, every metric's value plus the alloc/free/store rates
    /// are captured into a bounded [`SeriesRecorder`] (at most
    /// `capacity_per_series` retained points per series; long runs are
    /// downsampled, never truncated). Monitors see the recorder via
    /// [`MonitorCtx::recorder`] and snapshot it into incident bundles.
    pub fn enable_flight_recorder(&mut self, capacity_per_series: usize) {
        if self.recorder.is_none() {
            self.recorder = Some(SeriesRecorder::new(capacity_per_series));
        }
    }

    /// The flight recorder, when enabled.
    pub fn recorder(&self) -> Option<&SeriesRecorder> {
        self.recorder.as_ref()
    }

    /// Streams every subsequent event to `sink` in the crash-safe
    /// length-framed format, incrementally — unlike
    /// [`enable_trace`](Self::enable_trace) + [`Trace::save`], events
    /// reach the sink as they happen, so whatever was flushed before a
    /// crash is recoverable with [`Trace::salvage_stream`].
    ///
    /// A write failure mid-run does **not** abort the checked process:
    /// the stream is dropped, the failure is counted
    /// (`heapmd_trace_stream_errors_total`) and surfaced by
    /// [`finish_stream`](Self::finish_stream), and execution continues.
    ///
    /// # Errors
    ///
    /// Returns [`HeapMdError::Io`] when the stream header cannot be
    /// written.
    pub fn stream_trace_to(&mut self, sink: Box<dyn Write>) -> Result<(), HeapMdError> {
        self.stream_trace_to_format(sink, StreamFormat::Jsonl)
    }

    /// Like [`stream_trace_to`](Self::stream_trace_to), but choosing
    /// the wire format: crash-safe framed JSONL, or the block-based
    /// binary codec ([`crate::BinaryTraceWriter`]) whose completed
    /// blocks salvage at block granularity after a crash.
    ///
    /// # Errors
    ///
    /// Returns [`HeapMdError::Io`] when the stream header cannot be
    /// written.
    pub fn stream_trace_to_format(
        &mut self,
        sink: Box<dyn Write>,
        format: StreamFormat,
    ) -> Result<(), HeapMdError> {
        self.stream = Some(match format {
            StreamFormat::Jsonl => TraceSink::Jsonl(TraceWriter::new(sink)?),
            StreamFormat::Binary => TraceSink::Binary(BinaryTraceWriter::new(sink)?),
        });
        self.stream_error = None;
        Ok(())
    }

    /// Ends the trace stream: writes the function-name table and the
    /// `End` trailer, flushes, and detaches the sink. Returns the
    /// number of events that reached the stream, or the error that
    /// degraded it mid-run.
    ///
    /// # Errors
    ///
    /// Returns the deferred streaming error (if the stream died
    /// mid-run) or [`HeapMdError::Io`] from the final writes.
    pub fn finish_stream(&mut self) -> Result<u64, HeapMdError> {
        if let Some(e) = self.stream_error.take() {
            return Err(e);
        }
        let Some(mut stream) = self.stream.take() else {
            return Err(HeapMdError::InvalidInput(
                "no trace stream is attached".into(),
            ));
        };
        let names: Vec<String> = (0..self.funcs.len())
            .map(|i| self.funcs.name(FuncId(i as u32)).to_string())
            .collect();
        stream.write_functions(&names)?;
        // Binary streams carry the sampling outcome as a meta block, so
        // an offline check of the artifact widens exactly as the live
        // run did. (The JSONL format has no meta frame; sampled
        // production runs use the binary codec.)
        if let Some(filter) = &self.sampling {
            stream.write_sampling_meta(&filter.info())?;
        }
        let events = stream.events_written();
        stream.finish()?;
        Ok(events)
    }

    /// The wire format of the attached trace stream, if any.
    pub fn stream_format(&self) -> Option<StreamFormat> {
        self.stream.as_ref().map(|s| match s {
            TraceSink::Jsonl(_) => StreamFormat::Jsonl,
            TraceSink::Binary(_) => StreamFormat::Binary,
        })
    }

    /// The settings in force.
    pub fn settings(&self) -> &Settings {
        &self.settings
    }

    /// The simulated heap (read-only).
    pub fn heap(&self) -> &SimHeap {
        &self.heap
    }

    /// The heap-graph image (read-only).
    pub fn graph(&self) -> &HeapGraph {
        &self.graph
    }

    /// The function intern table.
    pub fn functions(&self) -> &FunctionTable {
        &self.funcs
    }

    /// Cumulative function entries.
    pub fn fn_entries(&self) -> u64 {
        self.fn_entries
    }

    /// Metric samples recorded so far.
    pub fn samples(&self) -> &[MetricSample] {
        &self.samples
    }

    /// Interns an allocation-site name, for hot paths that want to avoid
    /// repeated string lookups via [`malloc_at`](Self::malloc_at).
    pub fn intern_site(&mut self, name: &str) -> AllocSite {
        if let Some(&s) = self.sites.get(name) {
            return s;
        }
        let site = AllocSite(self.site_names.len() as u32);
        self.site_names.push(name.to_string());
        self.sites.insert(name.to_string(), site);
        site
    }

    /// The name behind an interned allocation site.
    pub fn site_name(&self, site: AllocSite) -> &str {
        &self.site_names[site.0 as usize]
    }

    /// All interned allocation-site names, indexed by [`AllocSite`]
    /// value (monitors report sites by id; this maps them back).
    pub fn site_names(&self) -> &[String] {
        &self.site_names
    }

    /// Enters a function: a potential metric computation point.
    ///
    /// Returns the interned id. Every `settings.frq` entries, the seven
    /// metrics are sampled from the heap-graph.
    pub fn enter(&mut self, name: &str) -> FuncId {
        let id = self.funcs.intern(name);
        self.stack.push(id);
        self.fn_entries += 1;
        let ev = HeapEvent::FnEnter { func: id.0 };
        self.record(&ev);
        if self.fn_entries.is_multiple_of(self.settings.frq) {
            self.sample();
        }
        id
    }

    /// Leaves the innermost function.
    ///
    /// # Panics
    ///
    /// Panics on leave without a matching enter (a workload defect).
    pub fn leave(&mut self) {
        let id = self.stack.pop().expect("leave without matching enter");
        let ev = HeapEvent::FnExit { func: id.0 };
        self.record(&ev);
    }

    /// Runs `f` inside an enter/leave pair (exception-unsafe by design:
    /// the simulation has no unwinding mutators).
    pub fn scoped<R>(&mut self, name: &str, f: impl FnOnce(&mut Process) -> R) -> R {
        self.enter(name);
        let r = f(self);
        self.leave();
        r
    }

    /// Allocates `size` bytes at the named call-site.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`] from the heap (zero size, capacity).
    pub fn malloc(&mut self, size: usize, site: &str) -> Result<Addr, HeapError> {
        let site = self.intern_site(site);
        self.malloc_at(size, site)
    }

    /// Allocates `size` bytes at a pre-interned call-site.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`] from the heap.
    pub fn malloc_at(&mut self, size: usize, site: AllocSite) -> Result<Addr, HeapError> {
        let eff = self.heap.alloc(size, site)?;
        self.graph.on_alloc(eff.id, eff.addr, eff.size);
        let ev = HeapEvent::Alloc {
            obj: eff.id,
            addr: eff.addr,
            size: eff.size,
            site,
        };
        // Allocs always pass; the filter records the object's site.
        self.admit(&ev);
        self.record(&ev);
        Ok(eff.addr)
    }

    /// Frees the object starting at `addr`.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`] (double free, invalid free, …).
    pub fn free(&mut self, addr: Addr) -> Result<(), HeapError> {
        let eff = self.heap.free(addr)?;
        self.graph.on_free(eff.id);
        let ev = HeapEvent::Free {
            obj: eff.id,
            addr: eff.addr,
            size: eff.size,
        };
        self.record(&ev);
        Ok(())
    }

    /// Reallocates the object at `addr` to `new_size`, returning its new
    /// address. Surviving pointer slots move with it.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn realloc(&mut self, addr: Addr, new_size: usize, site: &str) -> Result<Addr, HeapError> {
        let site = self.intern_site(site);
        let eff = self.heap.realloc(addr, new_size, site)?;
        // The graph sees realloc as the event decomposition the paper's
        // instrumentation would observe: free, alloc, then the memcpy'd
        // pointer stores.
        self.graph.on_free(eff.freed.id);
        let free_ev = HeapEvent::Free {
            obj: eff.freed.id,
            addr: eff.freed.addr,
            size: eff.freed.size,
        };
        self.record(&free_ev);
        self.graph
            .on_alloc(eff.alloc.id, eff.alloc.addr, eff.alloc.size);
        let alloc_ev = HeapEvent::Alloc {
            obj: eff.alloc.id,
            addr: eff.alloc.addr,
            size: eff.alloc.size,
            site,
        };
        self.admit(&alloc_ev);
        self.record(&alloc_ev);
        for &(off, target) in &eff.moved_slots {
            let ev = HeapEvent::PtrWrite {
                src: eff.alloc.id,
                offset: off,
                value: target,
                old_value: None,
            };
            if self.admit(&ev) {
                self.graph.on_ptr_write(eff.alloc.id, off, target);
                self.record(&ev);
            }
        }
        Ok(eff.alloc.addr)
    }

    /// Stores pointer `value` at `slot` (inside a live heap object).
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`] (wild/torn access, null slot).
    pub fn write_ptr(&mut self, slot: Addr, value: Addr) -> Result<(), HeapError> {
        let w = self.heap.write_ptr(slot, value)?;
        let ev = HeapEvent::PtrWrite {
            src: w.src,
            offset: w.offset,
            value,
            old_value: w.old_value,
        };
        // The heap already executed the store (mutator semantics are
        // exact); sampling only decides whether monitoring sees it.
        if self.admit(&ev) {
            self.graph.on_ptr_write(w.src, w.offset, value);
            self.record(&ev);
        }
        Ok(())
    }

    /// Clears the pointer slot at `slot` (store of null).
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn clear_ptr(&mut self, slot: Addr) -> Result<(), HeapError> {
        self.write_ptr(slot, NULL)
    }

    /// Stores a non-pointer value at `slot`, clearing any pointer there.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn write_scalar(&mut self, slot: Addr) -> Result<(), HeapError> {
        let w = self.heap.write_scalar(slot)?;
        let ev = HeapEvent::ScalarWrite {
            src: w.src,
            offset: w.offset,
            old_value: w.old_value,
        };
        if self.admit(&ev) {
            self.graph.on_scalar_write(w.src, w.offset);
            self.record(&ev);
        }
        Ok(())
    }

    /// Reads the pointer stored at `slot`.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn read_ptr(&mut self, slot: Addr) -> Result<Option<Addr>, HeapError> {
        let v = self.heap.read_ptr(slot)?;
        let obj = self
            .heap
            .resolve(slot)
            .expect("read_ptr succeeded on a live object")
            .id();
        let ev = HeapEvent::Read { obj };
        self.record(&ev);
        Ok(v)
    }

    /// Records a read access to the object containing `addr` (staleness
    /// signal for leak detectors).
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn read(&mut self, addr: Addr) -> Result<(), HeapError> {
        let obj = self.heap.read(addr)?;
        let ev = HeapEvent::Read { obj };
        self.record(&ev);
        Ok(())
    }

    /// Ingests a recorded event slice — the offline counterpart of the
    /// mutator API. The heap-graph image, function-entry counter, call
    /// stack, and sampling schedule advance exactly as if each event had
    /// been fed individually; the simulated heap is **not** re-executed
    /// (object ids and addresses come from the recorded stream, so
    /// samples taken here carry the ingesting heap's logical clock).
    ///
    /// When no monitors, trace recorder, or stream sink are attached,
    /// graph mutations between sampling points are applied through
    /// [`heap_graph::HeapGraph::apply_batch`], amortizing per-event dispatch;
    /// throughput is reported via the `process_ingest` obs stage.
    pub fn apply_batch(&mut self, events: &[HeapEvent]) {
        if self.sampling.is_some() {
            // Filter first, then ingest the admitted stream — identical
            // to feeding the filtered events with sampling off, on both
            // the fast and slow paths below.
            let mut filtered = Vec::with_capacity(events.len());
            let filter = self.sampling.as_mut().expect("checked above");
            filtered.extend(events.iter().filter(|ev| filter.admit(ev)).copied());
            self.apply_batch_raw(&filtered);
        } else {
            self.apply_batch_raw(events);
        }
    }

    fn apply_batch_raw(&mut self, events: &[HeapEvent]) {
        let fast = self.monitors.is_empty() && self.trace.is_none() && self.stream.is_none();
        if !fast {
            for ev in events {
                self.apply_event(ev);
            }
            return;
        }
        static PROCESS_INGEST: heapmd_obs::throughput::Stage =
            heapmd_obs::throughput::Stage::new("process_ingest");
        let clock = heapmd_obs::throughput::stage_clock();
        let mut batch_start = 0;
        for (i, ev) in events.iter().enumerate() {
            match *ev {
                HeapEvent::FnEnter { func } => {
                    // Flush pending graph mutations, then advance the
                    // sampling schedule. Non-graph events inside the
                    // flushed span are ignored by the graph.
                    self.graph.apply_batch(&events[batch_start..i]);
                    batch_start = i + 1;
                    let id = self.func_id_for(func);
                    self.stack.push(id);
                    self.fn_entries += 1;
                    if self.fn_entries.is_multiple_of(self.settings.frq) {
                        self.sample();
                    }
                }
                // FnExit only pops the stack, which the graph never
                // reads — handle it in order, without a batch flush.
                HeapEvent::FnExit { .. } => {
                    self.stack.pop();
                }
                _ => {}
            }
        }
        self.graph.apply_batch(&events[batch_start..]);
        if let Some(t0) = clock {
            PROCESS_INGEST.record(events.len() as u64, t0.elapsed().as_nanos() as u64);
        }
    }

    /// Ingests one recorded event with full monitor/trace fan-out —
    /// the per-event slow path behind [`apply_batch`](Self::apply_batch).
    fn apply_event(&mut self, ev: &HeapEvent) {
        match *ev {
            HeapEvent::FnEnter { func } => {
                let id = self.func_id_for(func);
                self.stack.push(id);
                self.fn_entries += 1;
                self.record(ev);
                if self.fn_entries.is_multiple_of(self.settings.frq) {
                    self.sample();
                }
            }
            HeapEvent::FnExit { .. } => {
                self.stack.pop();
                self.record(ev);
            }
            _ => {
                self.graph.apply(ev);
                self.record(ev);
            }
        }
    }

    /// Maps a recorded function id onto this process's intern table,
    /// synthesizing an anonymous `fn#N` name for unknown ids.
    fn func_id_for(&mut self, raw: u32) -> FuncId {
        if (raw as usize) < self.funcs.len() {
            FuncId(raw)
        } else {
            self.funcs.intern(&format!("fn#{raw}"))
        }
    }

    /// Finishes the run: notifies monitors and returns the metric
    /// report.
    pub fn finish(mut self, run: impl Into<String>) -> MetricReport {
        let _span = heapmd_obs::span!("process_finish");
        let ctx = MonitorCtx {
            graph: &self.graph,
            tick: self.heap.tick(),
            stack: &self.stack,
            funcs: &self.funcs,
            fn_entries: self.fn_entries,
            sample_rate: self.sampling.as_ref().map_or(1.0, |f| f.effective_rate()),
            recorder: self.recorder.as_ref(),
        };
        for m in &self.monitors {
            m.borrow_mut().on_finish(&ctx);
        }
        let rate = self.sample_rate();
        MetricReport::with_sample_rate(run, std::mem::take(&mut self.samples), rate)
    }

    /// The recorded trace, if tracing was enabled. Sampling metadata is
    /// attached when the trace is taken, not here.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Takes ownership of the recorded trace, if any, stamping the
    /// sampling filter's measured outcome onto it when sampling is
    /// enabled.
    pub fn take_trace(&mut self) -> Option<Trace> {
        let mut trace = self.trace.take()?;
        if let Some(filter) = &self.sampling {
            trace.set_sampling(Some(filter.info()));
        }
        Some(trace)
    }

    fn record(&mut self, ev: &HeapEvent) {
        if let Some(trace) = &mut self.trace {
            trace.push(*ev);
        }
        if let Some(stream) = &mut self.stream {
            if let Err(e) = stream.write_event(ev) {
                // Graceful degradation: losing the trace sink must not
                // take down the checked process. Drop the stream, keep
                // running, surface the error at finish_stream.
                heapmd_obs::count!("heapmd_trace_stream_errors_total");
                heapmd_obs::warn!("trace stream failed, continuing without it: {e}");
                self.stream = None;
                self.stream_error = Some(e);
            }
        }
        if !self.monitors.is_empty() {
            let ctx = MonitorCtx {
                graph: &self.graph,
                tick: self.heap.tick(),
                stack: &self.stack,
                funcs: &self.funcs,
                fn_entries: self.fn_entries,
                sample_rate: self.sampling.as_ref().map_or(1.0, |f| f.effective_rate()),
                recorder: self.recorder.as_ref(),
            };
            for m in &self.monitors {
                m.borrow_mut().on_event(&ctx, ev);
            }
        }
    }

    fn sample(&mut self) {
        let _span = heapmd_obs::span!("metric_computation_point");
        let ext = self.graph.extended_metrics();
        let sample = MetricSample {
            seq: self.samples.len(),
            fn_entries: self.fn_entries,
            tick: self.heap.tick(),
            metrics: self.graph.metrics(),
            nodes: ext.nodes,
            edges: ext.edges,
            dangling: ext.dangling_slots,
            candidates: Some(self.graph.candidates()),
        };
        self.samples.push(sample);
        if let Some(rec) = self.recorder.as_mut() {
            let x = sample.seq as u64;
            for (kind, value) in sample.metrics.iter() {
                let mut name = String::from("metric.");
                name.push_str(kind.short_name());
                rec.record(&name, x, value);
            }
            let stats = self.heap.stats();
            let (allocs, frees, stores) = (stats.allocs, stats.frees, stats.ptr_writes);
            let (pa, pf, ps) = self.last_op_totals;
            rec.record("rate.allocs", x, (allocs - pa) as f64);
            rec.record("rate.frees", x, (frees - pf) as f64);
            rec.record("rate.ptr_writes", x, (stores - ps) as f64);
            self.last_op_totals = (allocs, frees, stores);
        }
        heapmd_obs::count!("heapmd_samples_total");
        heapmd_obs::gauge_set!("heapmd_graph_nodes", ext.nodes);
        heapmd_obs::gauge_set!("heapmd_graph_edges", ext.edges);
        heapmd_obs::gauge_set!("heapmd_graph_dangling_slots", ext.dangling_slots);
        heapmd_obs::export::emit_event("heartbeat", |o| {
            o.field_u64("seq", sample.seq as u64)
                .field_u64("fn_entries", sample.fn_entries)
                .field_u64("tick", sample.tick)
                .field_u64("nodes", ext.nodes)
                .field_u64("edges", ext.edges)
                .field_u64("dangling", ext.dangling_slots)
                .field_f64("mean_degree", ext.mean_degree);
            let mut metrics = heapmd_obs::json::JsonObject::new();
            for (kind, value) in sample.metrics.iter() {
                metrics.field_f64(kind.short_name(), value);
            }
            o.field_raw("metrics", &metrics.finish());
        });
        if !self.monitors.is_empty() {
            let ctx = MonitorCtx {
                graph: &self.graph,
                tick: self.heap.tick(),
                stack: &self.stack,
                funcs: &self.funcs,
                fn_entries: self.fn_entries,
                sample_rate: self.sampling.as_ref().map_or(1.0, |f| f.effective_rate()),
                recorder: self.recorder.as_ref(),
            };
            for m in &self.monitors {
                m.borrow_mut().on_sample(&ctx, &sample);
            }
        }
    }
}

/// The trace stream sink behind [`Process::stream_trace_to_format`]:
/// one wire format per attached stream. An enum (not a trait object)
/// because `finish` consumes the writer.
enum TraceSink {
    Jsonl(TraceWriter<Box<dyn Write>>),
    Binary(BinaryTraceWriter<Box<dyn Write>>),
}

impl TraceSink {
    fn write_event(&mut self, ev: &HeapEvent) -> Result<(), HeapMdError> {
        match self {
            TraceSink::Jsonl(w) => w.write_event(ev),
            TraceSink::Binary(w) => w.write_event(ev),
        }
    }

    fn write_functions(&mut self, names: &[String]) -> Result<(), HeapMdError> {
        match self {
            TraceSink::Jsonl(w) => w.write_functions(names),
            TraceSink::Binary(w) => w.write_functions(names),
        }
    }

    fn write_sampling_meta(&mut self, info: &SamplingInfo) -> Result<(), HeapMdError> {
        match self {
            // The framed-JSONL format has no meta record; sampling
            // metadata rides only on the binary codec.
            TraceSink::Jsonl(_) => Ok(()),
            TraceSink::Binary(w) => w.write_meta(&crate::trace_codec::encode_sampling_meta(info)),
        }
    }

    fn events_written(&self) -> u64 {
        match self {
            TraceSink::Jsonl(w) => w.events_written(),
            TraceSink::Binary(w) => w.events_written(),
        }
    }

    fn finish(self) -> Result<(), HeapMdError> {
        match self {
            TraceSink::Jsonl(w) => w.finish().map(drop),
            TraceSink::Binary(w) => w.finish().map(drop),
        }
    }
}

impl std::fmt::Debug for Process {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Process")
            .field("fn_entries", &self.fn_entries)
            .field("samples", &self.samples.len())
            .field("live_objects", &self.heap.live_objects())
            .field("monitors", &self.monitors.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn settings(frq: u64) -> Settings {
        Settings::builder().frq(frq).build().unwrap()
    }

    #[test]
    fn sampling_happens_every_frq_entries() {
        let mut p = Process::new(settings(3));
        for _ in 0..10 {
            p.enter("f");
            p.leave();
        }
        assert_eq!(p.samples().len(), 3);
        assert_eq!(p.samples()[0].fn_entries, 3);
        assert_eq!(p.samples()[2].fn_entries, 9);
    }

    #[test]
    fn graph_stays_in_sync_with_heap() {
        let mut p = Process::new(settings(1));
        p.enter("main");
        let a = p.malloc(24, "a").unwrap();
        let b = p.malloc(24, "b").unwrap();
        p.write_ptr(a, b).unwrap();
        assert_eq!(p.graph().edge_count(), 1);
        p.free(b).unwrap();
        assert_eq!(p.graph().edge_count(), 0);
        assert_eq!(p.graph().dangling_count(), 1);
        assert_eq!(p.graph().node_count(), 1);
        p.graph().validate().unwrap();
        p.leave();
    }

    #[test]
    fn realloc_moves_edges() {
        let mut p = Process::new(settings(1));
        let a = p.malloc(32, "a").unwrap();
        let t = p.malloc(16, "t").unwrap();
        p.write_ptr(a, t).unwrap();
        let a2 = p.realloc(a, 64, "a").unwrap();
        assert_ne!(a, a2);
        assert_eq!(p.graph().edge_count(), 1);
        assert_eq!(p.read_ptr(a2).unwrap(), Some(t));
        p.graph().validate().unwrap();
    }

    #[test]
    fn scoped_pairs_enter_and_leave() {
        let mut p = Process::new(settings(1));
        let out = p.scoped("outer", |p| p.scoped("inner", |p| p.fn_entries()));
        assert_eq!(out, 2);
        assert_eq!(p.fn_entries(), 2);
        // Stack is balanced again: another enter/leave works.
        p.enter("again");
        p.leave();
    }

    #[test]
    #[should_panic(expected = "leave without matching enter")]
    fn unbalanced_leave_panics() {
        let mut p = Process::new(settings(1));
        p.leave();
    }

    #[test]
    fn site_interning_round_trips() {
        let mut p = Process::new(settings(1));
        let s1 = p.intern_site("ListInsert");
        let s2 = p.intern_site("ListInsert");
        assert_eq!(s1, s2);
        assert_eq!(p.site_name(s1), "ListInsert");
        let a = p.malloc_at(16, s1).unwrap();
        assert_eq!(p.heap().object_at(a).unwrap().site(), s1);
    }

    #[test]
    fn finish_returns_all_samples() {
        let mut p = Process::new(settings(2));
        for _ in 0..8 {
            p.enter("w");
            p.malloc(16, "x").unwrap();
            p.leave();
        }
        let r = p.finish("myrun");
        assert_eq!(r.run, "myrun");
        assert_eq!(r.len(), 4);
        // The 4th sample fires at the 8th `enter`, before that
        // iteration's malloc — so 7 objects are live.
        assert_eq!(r.samples[3].nodes, 7);
    }

    #[test]
    fn apply_batch_fast_and_slow_paths_agree() {
        // Record a real run's event stream...
        let mut src = Process::new(settings(3));
        src.enable_trace();
        let mut prev = None;
        for i in 0..40 {
            src.enter("build");
            let node = src.malloc(16, "node").unwrap();
            if let Some(prev) = prev {
                src.write_ptr(node.offset(8), prev).unwrap();
            }
            prev = Some(node);
            if i % 7 == 0 {
                src.write_scalar(node).unwrap();
            }
            src.leave();
        }
        let trace = src.take_trace().unwrap();
        let online = src.finish("online");

        // ...then ingest it through both apply_batch paths: fast (no
        // sinks) and slow (trace recorder forces per-event fan-out).
        let mut fast = Process::new(settings(3));
        fast.apply_batch(trace.events());
        let fast_report = fast.finish("fast");

        let mut slow = Process::new(settings(3));
        slow.enable_trace();
        slow.apply_batch(trace.events());
        assert_eq!(slow.take_trace().unwrap(), trace);
        let slow_report = slow.finish("slow");

        assert_eq!(fast_report.samples, slow_report.samples);
        assert_eq!(fast_report.len(), online.len());
        for (a, b) in fast_report.samples.iter().zip(&online.samples) {
            assert_eq!(a.metrics, b.metrics);
            assert_eq!(a.nodes, b.nodes);
            assert_eq!(a.fn_entries, b.fn_entries);
        }
    }

    #[test]
    fn trace_records_events_when_enabled() {
        let mut p = Process::new(settings(1));
        p.enable_trace();
        p.enter("f");
        let a = p.malloc(16, "x").unwrap();
        p.free(a).unwrap();
        p.leave();
        let t = p.take_trace().unwrap();
        assert_eq!(t.len(), 4); // enter, alloc, free, exit
        assert!(p.trace().is_none());
    }

    #[test]
    fn streamed_trace_matches_in_memory_trace() {
        use std::io::Write;
        use std::sync::{Arc, Mutex};

        #[derive(Clone)]
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let buf = Arc::new(Mutex::new(Vec::new()));
        let mut p = Process::new(settings(1));
        p.enable_trace();
        p.stream_trace_to(Box::new(SharedBuf(Arc::clone(&buf))))
            .unwrap();
        p.enter("f");
        let a = p.malloc(16, "x").unwrap();
        p.free(a).unwrap();
        p.leave();
        let streamed_events = p.finish_stream().unwrap();
        assert_eq!(streamed_events, 4);
        let mut expected = p.take_trace().unwrap();
        expected.set_functions(vec!["f".to_string()]);

        let bytes = buf.lock().unwrap().clone();
        let back = crate::trace_stream::TraceReader::strict(&bytes[..]).unwrap();
        assert_eq!(back, expected);
    }

    #[test]
    fn binary_streamed_trace_matches_in_memory_trace() {
        use std::io::Write;
        use std::sync::{Arc, Mutex};

        #[derive(Clone)]
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let buf = Arc::new(Mutex::new(Vec::new()));
        let mut p = Process::new(settings(1));
        p.enable_trace();
        p.stream_trace_to_format(Box::new(SharedBuf(Arc::clone(&buf))), StreamFormat::Binary)
            .unwrap();
        assert_eq!(p.stream_format(), Some(StreamFormat::Binary));
        p.enter("f");
        let a = p.malloc(16, "x").unwrap();
        p.free(a).unwrap();
        p.leave();
        let streamed_events = p.finish_stream().unwrap();
        assert_eq!(streamed_events, 4);
        let mut expected = p.take_trace().unwrap();
        expected.set_functions(vec!["f".to_string()]);

        let bytes = buf.lock().unwrap().clone();
        let back = crate::trace_codec::BinaryTraceReader::strict(&bytes[..]).unwrap();
        assert_eq!(back, expected);
    }

    #[test]
    fn failing_stream_degrades_without_aborting_the_run() {
        struct FailAfter(usize);
        impl std::io::Write for FailAfter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if self.0 == 0 {
                    return Err(std::io::Error::other("sink died"));
                }
                self.0 -= 1;
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let mut p = Process::new(settings(1));
        // Header + 2 event records succeed, then the sink dies.
        p.stream_trace_to(Box::new(FailAfter(3))).unwrap();
        for _ in 0..5 {
            p.enter("w");
            p.malloc(16, "x").unwrap();
            p.leave();
        }
        // The run itself survived; the error is reported at the end.
        assert_eq!(p.fn_entries(), 5);
        assert!(matches!(p.finish_stream(), Err(HeapMdError::Io(_))));
        // A second finish reports the stream as gone.
        assert!(matches!(
            p.finish_stream(),
            Err(HeapMdError::InvalidInput(_))
        ));
    }

    #[test]
    fn heap_errors_propagate_without_corrupting_graph() {
        let mut p = Process::new(settings(1));
        let a = p.malloc(16, "x").unwrap();
        p.free(a).unwrap();
        assert!(p.free(a).is_err());
        p.graph().validate().unwrap();
        assert_eq!(p.graph().node_count(), 0);
    }
}
