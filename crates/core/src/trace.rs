//! Offline (post-mortem) traces.
//!
//! HeapMD's second deployment mode (§2): the instrumented program writes
//! an execution trace; the checker later replays it against a
//! previously constructed model. Because the whole trace is available,
//! offline analysis can avoid online cascade effects — and, in this
//! reproduction, lets tests replay identical event streams through
//! different settings.

use crate::callstack::FunctionTable;
use crate::detector::AnomalyDetector;
use crate::error::HeapMdError;
use crate::incident::{IncidentBundle, IncidentLog};
use crate::model::HeapModel;
use crate::monitor::{Monitor, MonitorCtx};
use crate::report::{MetricReport, MetricSample};
use crate::settings::Settings;
use crate::trace_codec::{BinaryTraceImage, EVENTS_PER_BLOCK};
use crate::trace_stream::SalvageStats;
use heap_graph::HeapGraph;
use serde::{Deserialize, Serialize};
use sim_heap::HeapEvent;
use std::borrow::Cow;
use std::path::{Path, PathBuf};
use swat::{SampledIngest, SamplerConfig, SamplingInfo};

/// A recorded instrumentation event stream.
///
/// Produced by [`crate::Process::enable_trace`]; replay it with
/// [`Trace::replay`] (to recover the metric report under any sampling
/// settings) or [`Trace::check`] (to run the anomaly detector
/// post-mortem, with full call-stack context).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    events: Vec<HeapEvent>,
    /// Function names interned by the traced run (so replays can render
    /// call stacks). Populated by [`set_functions`](Self::set_functions)
    /// or left empty for anonymous frames.
    functions: Vec<String>,
    /// Sampling metadata when the recording process ran behind a
    /// [`SampledIngest`] filter: the stream is already decimated, and
    /// this records how. `None` (what pre-sampling artifacts
    /// deserialize to) means every store was recorded.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    sampling: Option<SamplingInfo>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Appends an event.
    pub fn push(&mut self, event: HeapEvent) {
        self.events.push(event);
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` when no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The recorded events, in order.
    pub fn events(&self) -> &[HeapEvent] {
        &self.events
    }

    /// Attaches the traced run's function-name table (index = id).
    pub fn set_functions(&mut self, names: Vec<String>) {
        self.functions = names;
    }

    /// The attached function-name table (empty for anonymous frames).
    pub fn functions(&self) -> &[String] {
        &self.functions
    }

    /// Sampling metadata of the recorded stream (`None` = unsampled).
    pub fn sampling(&self) -> Option<SamplingInfo> {
        self.sampling
    }

    /// Attaches sampling metadata (what a [`SampledIngest`]-fronted
    /// recording measured).
    pub fn set_sampling(&mut self, sampling: Option<SamplingInfo>) {
        self.sampling = sampling;
    }

    /// The effective store-sampling rate of the recorded stream:
    /// `1.0` for unsampled traces.
    pub fn sample_rate(&self) -> f64 {
        self.sampling.map_or(1.0, |s| s.rate())
    }

    /// Produces the sampled copy of this (unsampled) trace: the event
    /// stream a process recording behind a [`SampledIngest`] filter
    /// under `config` would have written, with the measured
    /// [`SamplingInfo`] attached. Alloc/free/function events all
    /// survive; pointer and scalar stores are burst-sampled per
    /// allocation site. With `decimation == 1` the copy is
    /// event-identical to `self` (only the metadata differs).
    pub fn sampled(&self, config: SamplerConfig) -> Trace {
        let mut filter = SampledIngest::new(config);
        let events: Vec<HeapEvent> = self
            .events
            .iter()
            .filter(|ev| filter.admit(ev))
            .copied()
            .collect();
        Trace {
            events,
            functions: self.functions.clone(),
            sampling: Some(filter.info()),
        }
    }

    /// Serializes the trace to JSON.
    ///
    /// # Errors
    ///
    /// Returns [`HeapMdError::Serde`].
    pub fn to_json(&self) -> Result<String, HeapMdError> {
        Ok(serde_json::to_string(self)?)
    }

    /// Parses a trace from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`HeapMdError::Serde`].
    pub fn from_json(json: &str) -> Result<Self, HeapMdError> {
        Ok(serde_json::from_str(json)?)
    }

    /// Writes the trace to a file as one JSON document, atomically
    /// (write-to-temp, then rename). For crash-safe incremental
    /// recording prefer the streaming format
    /// ([`save_stream`](Self::save_stream) / [`crate::TraceWriter`]).
    ///
    /// # Errors
    ///
    /// Returns [`HeapMdError::Io`] / [`HeapMdError::Serde`].
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), HeapMdError> {
        crate::persist::write_atomic(path, self.to_json()?.as_bytes())?;
        Ok(())
    }

    /// Reads a trace previously written by [`save`](Self::save).
    ///
    /// # Errors
    ///
    /// Returns [`HeapMdError::Io`] / [`HeapMdError::Serde`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, HeapMdError> {
        Self::from_json(&std::fs::read_to_string(path)?)
    }

    /// Replays the trace, recomputing the metric report under
    /// `settings` (which may differ from the settings used when the
    /// trace was recorded — e.g. a different `frq`).
    ///
    /// # Errors
    ///
    /// Returns [`HeapMdError::InvalidInput`] when an event references a
    /// function id outside the interned `functions` table (a mangled or
    /// mismatched trace).
    pub fn replay(
        &self,
        settings: &Settings,
        run: impl Into<String>,
    ) -> Result<MetricReport, HeapMdError> {
        let replayed = replay(EventSource::Memory(self), settings, None, None)?;
        Ok(MetricReport::with_sample_rate(
            run,
            replayed.samples,
            replayed.sampling.map_or(1.0, |s| s.rate()),
        ))
    }

    /// Replays the trace through the anomaly detector, post-mortem.
    ///
    /// Unlike [`AnomalyDetector::check_report`], the detector sees the
    /// full event stream, so bug reports carry call-stack context just
    /// as in online mode.
    ///
    /// # Errors
    ///
    /// Returns [`HeapMdError::InvalidInput`] when an event references a
    /// function id outside the interned `functions` table.
    pub fn check(
        &self,
        model: &HeapModel,
        settings: &Settings,
    ) -> Result<Vec<crate::bug::BugReport>, HeapMdError> {
        self.check_logged(model, settings, None).map(|o| o.bugs)
    }

    /// [`check`](Self::check) with incident capture: when `log` is
    /// given, the detector persists one CRC-framed bundle per surviving
    /// range violation into the log's directory, exactly as the online
    /// `check --incidents` path does. The verdict is bit-identical to
    /// [`check`](Self::check) — logging only adds persistence.
    ///
    /// # Errors
    ///
    /// Same as [`check`](Self::check).
    pub fn check_logged(
        &self,
        model: &HeapModel,
        settings: &Settings,
        log: Option<IncidentLog>,
    ) -> Result<TraceCheckOutcome, HeapMdError> {
        check(EventSource::Memory(self), model, settings, None, log)
    }
}

/// What one offline check produced (see [`Trace::check_logged`] and
/// [`crate::check_paths`]).
#[derive(Debug)]
pub struct TraceCheckOutcome {
    /// The detector's bug reports.
    pub bugs: Vec<crate::bug::BugReport>,
    /// Incident bundles for range violations that survived the
    /// shutdown trim.
    pub incidents: Vec<IncidentBundle>,
    /// Bundle files written by the incident log.
    pub bundle_paths: Vec<PathBuf>,
    /// Findings from the widened candidate family (empty unless the
    /// model calibrated extended candidates).
    pub candidate_findings: Vec<crate::CandidateFinding>,
    /// The metric samples the check replayed — the same series a
    /// [`Trace::replay`] would produce, exposed so callers (e.g. the
    /// run-store append path) need not replay the trace twice.
    pub samples: Vec<MetricSample>,
    /// The sampling outcome of the checked stream: what the live
    /// filter measured when the check re-sampled it, the recorded
    /// outcome for an already-sampled trace, `None` when exact.
    pub sampling: Option<SamplingInfo>,
    /// What salvage recovered, when the trace was loaded in salvage
    /// mode.
    pub salvage: Option<SalvageStats>,
}

/// Minimal re-execution of a trace: rebuilds the heap-graph image and
/// the sampling schedule from events alone.
///
/// [`replay`] drives it over an in-memory slice or block by block over
/// a binary image, and the serve daemon feeds it live blocks:
/// [`ingest_batch`](Self::ingest_batch) is resumable, carrying a running
/// global event offset so samples land with the same `tick` whether the
/// stream arrives as one slice or as decoded blocks.
pub(crate) struct Replayer {
    graph: HeapGraph,
    funcs: FunctionTable,
    stack: Vec<crate::callstack::FuncId>,
    settings: Settings,
    fn_entries: u64,
    samples: Vec<MetricSample>,
    tick: u64,
    /// Events consumed by prior [`ingest_batch`](Self::ingest_batch)
    /// calls: the global event offset the next batch resumes from.
    ingested: u64,
    /// Live store-sampling filter, when this replay *re-samples* an
    /// unsampled stream (production-overhead simulation). Events it
    /// rejects reach neither the graph nor monitors nor the tick
    /// clock, so the result is bit-identical to replaying
    /// [`Trace::sampled`]'s output unfiltered.
    sampling: Option<SampledIngest>,
    /// Effective rate handed to monitors when the *input* stream was
    /// already decimated at record time (the filter itself is off).
    /// `1.0` for unsampled streams; ignored while `sampling` is live.
    rate_override: f64,
}

impl Replayer {
    pub(crate) fn new(settings: Settings, function_names: &[String]) -> Self {
        let mut funcs = FunctionTable::new();
        for name in function_names {
            funcs.intern(name);
        }
        Replayer {
            graph: HeapGraph::new(),
            funcs,
            stack: Vec::new(),
            settings,
            fn_entries: 0,
            samples: Vec::new(),
            tick: 0,
            ingested: 0,
            sampling: None,
            rate_override: 1.0,
        }
    }

    /// Installs a live [`SampledIngest`] filter: subsequent batches and
    /// steps re-sample the incoming (unsampled) stream under `config`.
    pub(crate) fn enable_sampling(&mut self, config: SamplerConfig) {
        self.sampling = Some(SampledIngest::new(config));
    }

    /// Declares the effective rate of an already-decimated input stream
    /// (see [`Trace::sampling`]); monitors observe it via
    /// [`MonitorCtx::sample_rate`].
    pub(crate) fn set_rate_override(&mut self, rate: f64) {
        self.rate_override = rate;
    }

    /// The effective sampling rate monitors currently observe: the live
    /// filter's measured rate when one is installed, the declared
    /// override otherwise.
    pub(crate) fn effective_rate(&self) -> f64 {
        match &self.sampling {
            Some(filter) => filter.effective_rate(),
            None => self.rate_override,
        }
    }

    /// The live filter's measured outcome, when one is installed.
    pub(crate) fn sampling_info(&self) -> Option<SamplingInfo> {
        self.sampling.as_ref().map(|f| f.info())
    }

    /// Returns the replayer to its just-constructed state while
    /// retaining graph capacity (slot slabs, shadow pages, id index):
    /// the serve daemon's shard pools recycle replayers across tenant
    /// streams this way instead of allocating one per stream.
    pub(crate) fn reset(&mut self, settings: Settings, function_names: &[String]) {
        self.graph.reset();
        self.funcs = FunctionTable::new();
        for name in function_names {
            self.funcs.intern(name);
        }
        self.stack.clear();
        self.settings = settings;
        self.fn_entries = 0;
        self.samples.clear();
        self.tick = 0;
        self.ingested = 0;
        // A recycled replayer starts a new stream: rebuild the filter
        // fresh under the same knobs, and forget the prior stream's
        // declared rate.
        if let Some(filter) = &self.sampling {
            self.sampling = Some(SampledIngest::new(filter.config()));
        }
        self.rate_override = 1.0;
    }

    /// Hands over the samples recorded so far.
    pub(crate) fn take_samples(&mut self) -> Vec<MetricSample> {
        std::mem::take(&mut self.samples)
    }

    fn func_name(&mut self, raw: u32) -> crate::callstack::FuncId {
        if (raw as usize) < self.funcs.len() {
            crate::callstack::FuncId(raw)
        } else {
            self.funcs.intern(&format!("fn#{raw}"))
        }
    }

    /// Records a metric computation point from the current graph state.
    fn take_sample(&mut self) -> MetricSample {
        let ext = self.graph.extended_metrics();
        let sample = MetricSample {
            seq: self.samples.len(),
            fn_entries: self.fn_entries,
            tick: self.tick,
            metrics: self.graph.metrics(),
            nodes: ext.nodes,
            edges: ext.edges,
            dangling: ext.dangling_slots,
            candidates: Some(self.graph.candidates()),
        };
        self.samples.push(sample);
        sample
    }

    /// Monitor-free replay: graph mutations between function entries
    /// apply through [`heap_graph::HeapGraph::apply_batch`], amortizing dispatch.
    ///
    /// Equivalent to [`step`](Self::step)-ing each event with no
    /// monitors: samples land at the same function-entry boundaries
    /// with the same tick, and non-graph events inside a flushed span
    /// are ignored by the graph either way. `FnExit` only pops the
    /// (unobserved) call stack, so it needs no flush.
    ///
    /// Resumable: ticks count from the running global offset, so
    /// feeding a stream as N block-sized slices (binary images do
    /// exactly this, decoding into one reused buffer) produces samples
    /// bit-identical to one call over the whole slice.
    pub(crate) fn ingest_batch(&mut self, events: &[HeapEvent]) {
        if self.sampling.is_none() {
            return self.ingest_batch_raw(events);
        }
        let mut filter = self.sampling.take().expect("checked above");
        self.ingest_batch_filtered(events, &mut filter);
        self.sampling = Some(filter);
    }

    /// Single-pass fused filter + ingest: the sampled twin of
    /// [`ingest_batch_raw`](Self::ingest_batch_raw). Rejected stores
    /// flush the pending graph slice around themselves (zero-copy —
    /// the batch is never duplicated) and are excluded from the event
    /// offset, so ticks and sample points land exactly where replaying
    /// the recorded sampled trace would put them. The filter is
    /// deterministic and sequential, so chunking cannot change the
    /// outcome.
    fn ingest_batch_filtered(&mut self, events: &[HeapEvent], filter: &mut SampledIngest) {
        let base = self.ingested;
        let mut admitted = 0u64;
        let mut batch_start = 0;
        for (i, ev) in events.iter().enumerate() {
            match *ev {
                HeapEvent::FnEnter { func } => {
                    self.graph.apply_batch(&events[batch_start..i]);
                    batch_start = i + 1;
                    let id = self.func_name(func);
                    self.stack.push(id);
                    self.fn_entries += 1;
                    admitted += 1;
                    self.tick = base + admitted;
                    if self.fn_entries.is_multiple_of(self.settings.frq) {
                        self.take_sample();
                    }
                }
                HeapEvent::FnExit { .. } => {
                    self.stack.pop();
                    admitted += 1;
                }
                HeapEvent::Alloc { .. }
                | HeapEvent::PtrWrite { .. }
                | HeapEvent::ScalarWrite { .. } => {
                    if filter.admit(ev) {
                        admitted += 1;
                    } else {
                        self.graph.apply_batch(&events[batch_start..i]);
                        batch_start = i + 1;
                    }
                }
                _ => {
                    admitted += 1;
                }
            }
        }
        self.graph.apply_batch(&events[batch_start..]);
        self.ingested = base + admitted;
        self.tick = self.ingested;
    }

    fn ingest_batch_raw(&mut self, events: &[HeapEvent]) {
        let base = self.ingested;
        let mut batch_start = 0;
        for (i, ev) in events.iter().enumerate() {
            match *ev {
                HeapEvent::FnEnter { func } => {
                    self.graph.apply_batch(&events[batch_start..i]);
                    batch_start = i + 1;
                    let id = self.func_name(func);
                    self.stack.push(id);
                    self.fn_entries += 1;
                    self.tick = base + i as u64 + 1;
                    if self.fn_entries.is_multiple_of(self.settings.frq) {
                        self.take_sample();
                    }
                }
                HeapEvent::FnExit { .. } => {
                    self.stack.pop();
                }
                _ => {}
            }
        }
        self.graph.apply_batch(&events[batch_start..]);
        self.ingested = base + events.len() as u64;
        self.tick = self.ingested;
    }

    pub(crate) fn step(&mut self, ev: &HeapEvent, monitors: &mut [&mut dyn Monitor]) {
        if let Some(filter) = self.sampling.as_mut() {
            // A rejected store is as if it was never recorded: no tick,
            // no graph mutation, no monitor callback — bit-identical to
            // stepping the pre-filtered stream without a filter.
            if !filter.admit(ev) {
                return;
            }
        }
        self.tick += 1;
        match *ev {
            HeapEvent::FnEnter { func } => {
                let id = self.func_name(func);
                self.stack.push(id);
                self.fn_entries += 1;
            }
            HeapEvent::FnExit { .. } => {
                self.stack.pop();
            }
            _ => self.graph.apply(ev),
        }
        let ctx = MonitorCtx {
            graph: &self.graph,
            tick: self.tick,
            stack: &self.stack,
            funcs: &self.funcs,
            fn_entries: self.fn_entries,
            sample_rate: self.effective_rate(),
            recorder: None,
        };
        for m in monitors.iter_mut() {
            m.on_event(&ctx, ev);
        }
        if matches!(ev, HeapEvent::FnEnter { .. })
            && self.fn_entries.is_multiple_of(self.settings.frq)
        {
            let sample = self.take_sample();
            let ctx = MonitorCtx {
                graph: &self.graph,
                tick: self.tick,
                stack: &self.stack,
                funcs: &self.funcs,
                fn_entries: self.fn_entries,
                sample_rate: self.effective_rate(),
                recorder: None,
            };
            for m in monitors.iter_mut() {
                m.on_sample(&ctx, &sample);
            }
        }
    }

    pub(crate) fn finish(&mut self, monitors: &mut [&mut dyn Monitor]) {
        let ctx = MonitorCtx {
            graph: &self.graph,
            tick: self.tick,
            stack: &self.stack,
            funcs: &self.funcs,
            fn_entries: self.fn_entries,
            sample_rate: self.effective_rate(),
            recorder: None,
        };
        for m in monitors.iter_mut() {
            m.on_finish(&ctx);
        }
    }
}

/// Where a replay's events come from.
pub(crate) enum EventSource<'a> {
    /// An in-memory trace, ingested as one slice.
    Memory(&'a Trace),
    /// A binary image, decoded block by block into one reused buffer.
    Image(&'a BinaryTraceImage),
}

impl EventSource<'_> {
    fn functions(&self) -> Result<Cow<'_, [String]>, HeapMdError> {
        match self {
            EventSource::Memory(trace) => Ok(Cow::Borrowed(trace.functions())),
            EventSource::Image(image) => Ok(Cow::Owned(image.functions()?)),
        }
    }

    fn recorded_sampling(&self) -> Result<Option<SamplingInfo>, HeapMdError> {
        match self {
            EventSource::Memory(trace) => Ok(trace.sampling()),
            EventSource::Image(image) => image.sampling(),
        }
    }

    /// Total `FnEnter` events: a count for a trace, the trailing
    /// index's total for an image (no decode pre-pass).
    fn fn_enters(&self) -> u64 {
        match self {
            EventSource::Memory(trace) => trace
                .events()
                .iter()
                .filter(|e| matches!(e, HeapEvent::FnEnter { .. }))
                .count() as u64,
            EventSource::Image(image) => image.index().total_fn_enters,
        }
    }

    /// Hands the stream to `ingest` in order, one validated slice at a
    /// time.
    fn for_each_slice(
        &self,
        table_len: usize,
        mut ingest: impl FnMut(&[HeapEvent]),
    ) -> Result<(), HeapMdError> {
        match self {
            EventSource::Memory(trace) => {
                validate_function_ids(trace.events(), 0, table_len)?;
                ingest(trace.events());
            }
            EventSource::Image(image) => {
                let mut buf = Vec::with_capacity(EVENTS_PER_BLOCK);
                let mut offset = 0;
                for entry in image.event_blocks() {
                    image.decode_block_into(entry, &mut buf)?;
                    validate_function_ids(&buf, offset, table_len)?;
                    offset += buf.len();
                    ingest(&buf);
                }
            }
        }
        Ok(())
    }
}

/// Checks that every `FnEnter`/`FnExit` event references an id inside
/// an interned table of `table_len` names. An empty table means
/// anonymous frames, where any id is legal. `offset` is the stream
/// position of `events[0]`, for the error message.
///
/// # Errors
///
/// Returns [`HeapMdError::InvalidInput`] naming the first event whose
/// function id falls outside the table.
fn validate_function_ids(
    events: &[HeapEvent],
    offset: usize,
    table_len: usize,
) -> Result<(), HeapMdError> {
    if table_len == 0 {
        return Ok(());
    }
    for (i, ev) in events.iter().enumerate() {
        let func = match *ev {
            HeapEvent::FnEnter { func } | HeapEvent::FnExit { func } => func,
            _ => continue,
        };
        if func as usize >= table_len {
            return Err(HeapMdError::InvalidInput(format!(
                "event {} references function id {func}, but the trace \
                 interns only {table_len} function names",
                offset + i
            )));
        }
    }
    Ok(())
}

/// What one pass of the replay engine produced.
pub(crate) struct Replayed {
    pub(crate) samples: Vec<MetricSample>,
    /// The live filter's measured outcome when the pass re-sampled the
    /// stream, the recorded one for an already-sampled stream, `None`
    /// when every store was replayed.
    pub(crate) sampling: Option<SamplingInfo>,
}

/// The replay engine: every offline replay and check runs through here.
///
/// With `sampler`, an unsampled stream is re-sampled through a live
/// [`SampledIngest`] filter, and monitors see its running measured
/// rate, as in a live sampled [`crate::Process`]. An already-sampled
/// stream keeps its recorded schedule (re-decimating would drop stores
/// twice) and monitors see the recorded rate. Without a `detector` the
/// graph ingests monitor-free through [`Replayer::ingest_batch`].
pub(crate) fn replay(
    source: EventSource<'_>,
    settings: &Settings,
    sampler: Option<SamplerConfig>,
    detector: Option<&mut AnomalyDetector>,
) -> Result<Replayed, HeapMdError> {
    let functions = source.functions()?;
    let recorded = source.recorded_sampling()?;
    let mut replayer = Replayer::new(settings.clone(), &functions);
    match (recorded, sampler) {
        (Some(info), _) => replayer.set_rate_override(info.rate()),
        (None, Some(config)) => replayer.enable_sampling(config),
        (None, None) => {}
    }
    match detector {
        Some(detector) => {
            let mut monitors: [&mut dyn Monitor; 1] = [detector];
            source.for_each_slice(functions.len(), |events| {
                for ev in events {
                    replayer.step(ev, &mut monitors);
                }
            })?;
            replayer.finish(&mut monitors);
        }
        None => source.for_each_slice(functions.len(), |events| replayer.ingest_batch(events))?,
    }
    Ok(Replayed {
        sampling: replayer.sampling_info().or(recorded),
        samples: replayer.take_samples(),
    })
}

/// Checks `source` against `model` post-mortem through [`replay`].
///
/// Unlike [`AnomalyDetector::check_report`], the detector sees the full
/// event stream, so bug reports carry call-stack context just as in
/// online mode. The stream's length is known up front, so the startup
/// skip aligns with the trim model construction applied.
pub(crate) fn check(
    source: EventSource<'_>,
    model: &HeapModel,
    settings: &Settings,
    sampler: Option<SamplerConfig>,
    log: Option<IncidentLog>,
) -> Result<TraceCheckOutcome, HeapMdError> {
    let total_samples = (source.fn_enters() / settings.frq) as usize;
    let mut settings = settings.clone();
    settings.warmup_samples = settings
        .warmup_samples
        .max(settings.trim_count(total_samples));
    let mut detector = AnomalyDetector::new(model.clone(), settings.clone());
    if let Some(log) = log {
        detector.log_incidents_to(log);
    }
    let replayed = replay(source, &settings, sampler, Some(&mut detector))?;
    Ok(TraceCheckOutcome {
        bundle_paths: detector
            .incident_log()
            .map(|l| l.paths().to_vec())
            .unwrap_or_default(),
        bugs: detector.take_bugs(),
        incidents: detector.take_incidents(),
        candidate_findings: detector.take_candidate_findings(),
        samples: replayed.samples,
        sampling: replayed.sampling,
        salvage: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::Process;

    fn traced_run(frq: u64, n: usize) -> (Trace, MetricReport) {
        let settings = Settings::builder().frq(frq).build().unwrap();
        let mut p = Process::new(settings);
        p.enable_trace();
        let mut prev = None;
        for _ in 0..n {
            p.enter("build");
            let node = p.malloc(16, "node").unwrap();
            if let Some(prev) = prev {
                p.write_ptr(node.offset(8), prev).unwrap();
            }
            prev = Some(node);
            p.leave();
        }
        let mut trace = p.take_trace().unwrap();
        let names: Vec<String> = (0..p.functions().len())
            .map(|i| {
                p.functions()
                    .name(crate::callstack::FuncId(i as u32))
                    .to_string()
            })
            .collect();
        trace.set_functions(names);
        let report = p.finish("online");
        (trace, report)
    }

    #[test]
    fn replay_reproduces_the_online_report() {
        let (trace, online) = traced_run(5, 100);
        let settings = Settings::builder().frq(5).build().unwrap();
        let offline = trace.replay(&settings, "offline").unwrap();
        assert_eq!(online.len(), offline.len());
        for (a, b) in online.samples.iter().zip(&offline.samples) {
            assert_eq!(a.metrics, b.metrics);
            assert_eq!(a.nodes, b.nodes);
            assert_eq!(a.fn_entries, b.fn_entries);
        }
    }

    #[test]
    fn batched_replay_matches_stepped_replay() {
        let (trace, _) = traced_run(5, 100);
        let settings = Settings::builder().frq(5).build().unwrap();
        let batched = trace.replay(&settings, "batched").unwrap();
        // Stepped reference: drive the replayer one event at a time.
        let mut stepped = Replayer::new(settings, trace.functions());
        for ev in trace.events() {
            stepped.step(ev, &mut []);
        }
        assert_eq!(batched.samples, stepped.samples);
    }

    #[test]
    fn blockwise_ingest_matches_whole_slice_ingest() {
        let (trace, _) = traced_run(5, 200);
        let settings = Settings::builder().frq(5).build().unwrap();
        let whole = trace.replay(&settings, "whole").unwrap();
        // Feed the same stream in awkwardly sized chunks, as image
        // replay does block by block.
        for chunk in [1usize, 7, 64, 1000] {
            let mut r = Replayer::new(settings.clone(), trace.functions());
            for part in trace.events().chunks(chunk) {
                r.ingest_batch(part);
            }
            assert_eq!(
                whole.samples,
                r.take_samples(),
                "chunk size {chunk} must not change the replay"
            );
        }
    }

    #[test]
    fn reset_replayer_reproduces_a_fresh_one() {
        let (trace, _) = traced_run(5, 120);
        let settings = Settings::builder().frq(5).build().unwrap();
        let mut fresh = Replayer::new(settings.clone(), trace.functions());
        fresh.ingest_batch(trace.events());
        let want = fresh.take_samples();
        // Dirty a replayer with a different stream, then reset it.
        let (other, _) = traced_run(3, 77);
        let mut reused = Replayer::new(settings.clone(), other.functions());
        reused.ingest_batch(other.events());
        reused.reset(settings.clone(), trace.functions());
        reused.ingest_batch(trace.events());
        assert_eq!(reused.take_samples(), want, "reset replayer diverged");
    }

    #[test]
    fn replay_supports_different_sampling_rates() {
        let (trace, _) = traced_run(5, 100);
        let coarse = Settings::builder().frq(20).build().unwrap();
        let report = trace.replay(&coarse, "coarse").unwrap();
        assert_eq!(report.len(), 5);
    }

    #[test]
    fn out_of_table_function_id_is_invalid_input() {
        let (mut trace, _) = traced_run(5, 20);
        let table_len = trace.functions().len() as u32;
        trace.push(sim_heap::HeapEvent::FnEnter {
            func: table_len + 3,
        });
        let settings = Settings::builder().frq(5).build().unwrap();
        assert!(matches!(
            trace.replay(&settings, "bad"),
            Err(HeapMdError::InvalidInput(_))
        ));
        let model = crate::model::ModelBuilder::new(settings.clone())
            .build()
            .model;
        assert!(matches!(
            trace.check(&model, &settings),
            Err(HeapMdError::InvalidInput(_))
        ));
        // Anonymous frames (no table) remain permissive.
        trace.set_functions(Vec::new());
        assert!(trace.replay(&settings, "anon").is_ok());
    }

    #[test]
    fn trace_json_round_trip() {
        let (trace, _) = traced_run(10, 30);
        let json = trace.to_json().unwrap();
        let back = Trace::from_json(&json).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn offline_check_finds_the_same_violation_as_online() {
        use crate::model::{HeapModel, StableMetric};
        use heap_graph::MetricKind;

        // Model claiming Roots must stay within [0, 5]: a growing list
        // has Roots ≈ 1/n·100 shrinking toward 0 — fine — but a fresh
        // run that never links nodes has Roots = 100.
        let model = HeapModel {
            version: crate::model::MODEL_FORMAT_VERSION,
            program: "t".into(),
            settings: Settings::default(),
            stable: vec![StableMetric {
                kind: MetricKind::Roots,
                min: 0.0,
                max: 5.0,
                avg_change: 0.0,
                std_change: 0.5,
                stable_runs: 3,
                total_runs: 3,
            }],
            unstable: vec![],
            locally_stable: vec![],
            candidate_stable: vec![],
            candidate_unstable: vec![],
            sample_rate: 1.0,
            training_runs: 3,
        };
        let settings = Settings::builder()
            .frq(5)
            .warmup_samples(1)
            .build()
            .unwrap();
        // Buggy run: isolated nodes only (Roots = 100 > 5).
        let mut p = Process::new(settings.clone());
        p.enable_trace();
        for _ in 0..50 {
            p.enter("loop");
            p.malloc(16, "iso").unwrap();
            p.leave();
        }
        let trace = p.take_trace().unwrap();
        let bugs = trace.check(&model, &settings).unwrap();
        assert_eq!(bugs.len(), 1);
        assert_eq!(bugs[0].metric, MetricKind::Roots);
    }
}
