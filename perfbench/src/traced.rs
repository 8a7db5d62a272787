//! The per-layer traced run.
//!
//! Times calls into each layer's public functions from here, never
//! from inside the program: `BinaryTraceImage` / `BinaryTraceWriter`
//! (trace_codec), `Process` (process), `HeapGraph` (graph),
//! `SampledIngest` (swat), `AnomalyDetector` (detector), `ModelBuilder`
//! (model) and `SimHeap` (heap). Every pass works on the recorded
//! `.hmdt` files the end-to-end run checks.
//!
//! The check pass runs the detector over the finished report; the
//! monitor pass attaches it to `Process` instead, where it sees every
//! event, as in the CLI's `check`.
//!
//! `Process::apply_batch` runs the graph and metric computation inside
//! it, out of reach of an outside span. Two passes take it apart: the
//! shadow pass feeds a bare `HeapGraph` the same segments `Process`
//! flushes (split at every `FnEnter`) and computes the same metrics at
//! the same computation points; the upkeep pass feeds a fresh `Process`
//! only the function events, which drive its call stack and sampling
//! schedule exactly as in the full stream, over an empty graph. (Taking
//! the difference of the full and shadow passes instead leaves a small
//! number between two large ones, which machine noise swamps on
//! graph-heavy traces.)

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;

use heap_graph::HeapGraph;
use heapmd::{
    AnomalyDetector, BinaryTraceImage, BinaryTraceWriter, HeapEvent, HeapMdError, HeapModel,
    MetricReport, ModelBuilder, Process, SampledIngest, SamplerConfig, Settings,
};
use serde::Serialize;
use sim_heap::{Addr, SimHeap, NULL};

use crate::spans::Spans;

/// Inputs of one traced run.
pub struct TracedRun {
    pub model: HeapModel,
    /// Traces the end-to-end run checks.
    pub check: Vec<PathBuf>,
    /// Training traces for the model pass (may be empty).
    pub train: Vec<PathBuf>,
    /// Traces for the encode pass.
    pub encode: Vec<PathBuf>,
}

#[derive(Default, Serialize)]
struct Counters {
    events: u64,
    bytes: u64,
    points: u64,
    stores: u64,
    stores_kept: u64,
    peak_nodes: u64,
    peak_edges: u64,
    train_runs: u64,
    encode_events: u64,
}

/// What a traced run writes out.
#[derive(Serialize)]
pub struct TracedOutput {
    spans: Vec<(&'static str, u64, u64, i64)>,
    counters: Counters,
}

/// Runs every pass and returns the spans and counters.
pub fn run(job: &TracedRun) -> Result<TracedOutput, HeapMdError> {
    let settings = job.model.settings.clone();
    let mut spans = Spans::new();
    let mut c = Counters::default();
    let mut buf = Vec::new();

    for path in &job.check {
        let root = spans.enter("check_trace");
        let image = spans.time("trace_codec.open", || BinaryTraceImage::open_path(path))?;
        c.bytes += std::fs::metadata(path)?.len();
        let mut process = Process::new(settings.clone());
        for entry in image.event_blocks() {
            spans.time("trace_codec.decode", || {
                image.decode_block_into(entry, &mut buf)
            })?;
            c.events += buf.len() as u64;
            spans.time("process.apply_batch", || process.apply_batch(&buf));
        }
        let report = spans.time("process.finish", || process.finish("traced"));
        c.points += report.samples.len() as u64;
        spans.time("detector.check_report", || {
            AnomalyDetector::check_report(&job.model, &settings, &report)
        });
        spans.exit(root);
    }

    for path in &job.check {
        let root = spans.enter("monitor_pass");
        let image = BinaryTraceImage::open_path(path)?;
        let (mut process, _detector) = monitored_process(&job.model, &image);
        for entry in image.event_blocks() {
            image.decode_block_into(entry, &mut buf)?;
            spans.time("process.monitored", || process.apply_batch(&buf));
        }
        spans.time("process.monitored", || process.finish("traced"));
        spans.exit(root);
    }

    for path in &job.check {
        shadow_pass(path, &settings, &mut spans, &mut c, &mut buf)?;
    }

    let mut calls = Vec::new();
    for path in &job.check {
        let root = spans.enter("upkeep_pass");
        let image = BinaryTraceImage::open_path(path)?;
        let mut process = Process::new(settings.clone());
        for entry in image.event_blocks() {
            image.decode_block_into(entry, &mut buf)?;
            calls.clear();
            calls.extend(
                buf.iter().filter(|ev| {
                    matches!(ev, HeapEvent::FnEnter { .. } | HeapEvent::FnExit { .. })
                }),
            );
            spans.time("process.upkeep", || process.apply_batch(&calls));
        }
        spans.exit(root);
    }

    for path in &job.check {
        let root = spans.enter("swat_pass");
        let image = BinaryTraceImage::open_path(path)?;
        let mut filter = SampledIngest::new(SamplerConfig::default());
        for entry in image.event_blocks() {
            image.decode_block_into(entry, &mut buf)?;
            let (stores, kept) = spans.time("swat.admit", || {
                let (mut stores, mut kept) = (0u64, 0u64);
                for ev in &buf {
                    let admitted = filter.admit(ev);
                    if matches!(
                        ev,
                        HeapEvent::PtrWrite { .. } | HeapEvent::ScalarWrite { .. }
                    ) {
                        stores += 1;
                        kept += u64::from(admitted);
                    }
                }
                (stores, kept)
            });
            c.stores += stores;
            c.stores_kept += kept;
        }
        spans.exit(root);
    }

    for path in &job.check {
        let root = spans.enter("heap_pass");
        let image = BinaryTraceImage::open_path(path)?;
        let mut heap = SimHeap::new();
        let mut base: Vec<Addr> = Vec::new();
        for entry in image.event_blocks() {
            image.decode_block_into(entry, &mut buf)?;
            spans.time("heap.exec", || reexecute(&mut heap, &mut base, &buf))?;
        }
        spans.exit(root);
    }

    if !job.train.is_empty() {
        let root = spans.enter("model_pass");
        let mut reports = Vec::with_capacity(job.train.len());
        for path in &job.train {
            reports.push(replay(path, &settings, &mut buf)?);
        }
        c.train_runs = reports.len() as u64;
        spans.time("model.build", || {
            let mut builder =
                ModelBuilder::new(settings.clone()).program(job.model.program.clone());
            for r in &reports {
                builder.add_run(r);
            }
            builder.build()
        });
        spans.exit(root);
    }

    // One `encode_pass` root per `--encode` trace, in order: `run.py`
    // reads per-trace encode times from these.
    for path in &job.encode {
        let root = spans.enter("encode_pass");
        let image = BinaryTraceImage::open_path(path)?;
        let functions = image.functions()?;
        let mut w = spans.time("trace_codec.encode", || {
            let mut w = BinaryTraceWriter::new(Vec::new())?;
            w.write_functions(&functions)?;
            Ok::<_, HeapMdError>(w)
        })?;
        for entry in image.event_blocks() {
            image.decode_block_into(entry, &mut buf)?;
            spans.time("trace_codec.encode", || {
                buf.iter().try_for_each(|ev| w.write_event(ev))
            })?;
            c.encode_events += buf.len() as u64;
        }
        spans.time("trace_codec.encode", || w.finish())?;
        spans.exit(root);
    }

    Ok(TracedOutput {
        spans: spans.records(),
        counters: c,
    })
}

/// Feeds a bare `HeapGraph` exactly what `Process::apply_batch` feeds
/// its graph, timing the graph calls and the per-point metrics.
fn shadow_pass(
    path: &Path,
    settings: &Settings,
    spans: &mut Spans,
    c: &mut Counters,
    buf: &mut Vec<HeapEvent>,
) -> Result<(), HeapMdError> {
    let root = spans.enter("shadow_pass");
    let image = BinaryTraceImage::open_path(path)?;
    let mut graph = HeapGraph::new();
    let mut fn_entries = 0u64;
    // (segment end, computation point after it) per FnEnter, computed
    // outside the timed span so the span holds graph work only.
    let mut cuts: Vec<(usize, bool)> = Vec::new();
    for entry in image.event_blocks() {
        image.decode_block_into(entry, buf)?;
        cuts.clear();
        for (i, ev) in buf.iter().enumerate() {
            if matches!(ev, HeapEvent::FnEnter { .. }) {
                fn_entries += 1;
                cuts.push((i, fn_entries.is_multiple_of(settings.frq)));
            }
        }
        let apply = spans.enter("graph.apply_batch");
        let mut start = 0;
        for &(end, point) in &cuts {
            graph.apply_batch(&buf[start..end]);
            start = end + 1;
            if point {
                let m = spans.enter("graph.metrics");
                std::hint::black_box((
                    graph.extended_metrics(),
                    graph.metrics(),
                    graph.candidates(),
                ));
                spans.exit(m);
                c.peak_nodes = c.peak_nodes.max(graph.node_count());
                c.peak_edges = c.peak_edges.max(graph.edge_count());
            }
        }
        graph.apply_batch(&buf[start..]);
        spans.exit(apply);
    }
    c.peak_nodes = c.peak_nodes.max(graph.node_count());
    c.peak_edges = c.peak_edges.max(graph.edge_count());
    spans.exit(root);
    Ok(())
}

/// Re-executes recorded events on a bare `SimHeap`: the unmonitored
/// program's own heap work. The deterministic allocator reproduces the
/// recorded addresses, so an `ObjectId -> Addr` table is all it needs.
fn reexecute(
    heap: &mut SimHeap,
    base: &mut Vec<Addr>,
    events: &[HeapEvent],
) -> Result<(), HeapMdError> {
    for ev in events {
        match *ev {
            HeapEvent::Alloc {
                obj, size, site, ..
            } => {
                let a = heap.alloc(size, site).map_err(HeapMdError::Heap)?.addr;
                let idx = obj.0 as usize;
                if base.len() <= idx {
                    base.resize(idx + 1, NULL);
                }
                base[idx] = a;
            }
            HeapEvent::Free { obj, .. } => {
                heap.free(base[obj.0 as usize]).map_err(HeapMdError::Heap)?;
            }
            // A store's outcome is the program's business; the baseline
            // only pays for executing it.
            HeapEvent::PtrWrite {
                src, offset, value, ..
            } => {
                let _ = heap.write_ptr(base[src.0 as usize].offset(offset), value);
            }
            HeapEvent::ScalarWrite { src, offset, .. } => {
                let _ = heap.write_scalar(base[src.0 as usize].offset(offset));
            }
            _ => {}
        }
    }
    Ok(())
}

/// A fresh `Process` with an `AnomalyDetector` for `model` attached,
/// set up to check `image`: the detector's startup skip is aligned with
/// the trace's length, as in `Trace::check`.
pub fn monitored_process(
    model: &HeapModel,
    image: &BinaryTraceImage,
) -> (Process, Rc<RefCell<AnomalyDetector>>) {
    let mut settings = model.settings.clone();
    let points = (image.index().total_fn_enters / settings.frq) as usize;
    settings.warmup_samples = settings.warmup_samples.max(settings.trim_count(points));
    let detector = Rc::new(RefCell::new(AnomalyDetector::new(
        model.clone(),
        settings.clone(),
    )));
    let mut process = Process::new(settings);
    process.attach(detector.clone());
    (process, detector)
}

/// Replays one recorded trace through a fresh `Process`, returning its
/// metric report.
pub fn replay(
    path: &Path,
    settings: &Settings,
    buf: &mut Vec<HeapEvent>,
) -> Result<MetricReport, HeapMdError> {
    let image = BinaryTraceImage::open_path(path)?;
    let mut process = Process::new(settings.clone());
    for entry in image.event_blocks() {
        image.decode_block_into(entry, buf)?;
        process.apply_batch(buf);
    }
    Ok(process.finish(path.display().to_string()))
}
