//! Train/check drivers shared by experiments, examples, and tests.

use crate::{Input, Workload};
use faults::FaultPlan;
use heapmd::{
    AnomalyDetector, BugReport, HeapModel, IncidentBundle, IncidentLog, MetricReport, ModelBuilder,
    ModelOutcome, Monitor, Process, SamplerConfig, Settings,
};
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-series point budget for the flight recorder attached by
/// [`check_with_incidents`]: enough to span long runs after
/// stride-doubling, small enough to keep bundles a few KB.
pub const FLIGHT_RECORDER_POINTS: usize = 512;

/// Production-overhead sampling for harness-built processes, packed as
/// `hot_threshold << 32 | decimation` (both knobs are well under 2^32
/// in practice; values are clamped on set). Zero = sampling off, the
/// default — training and tests stay exact unless a driver opts in.
static DEFAULT_SAMPLER: AtomicU64 = AtomicU64::new(0);

/// Sets (or clears, with `None`) the store-sampling config applied to
/// every process the harness builds from now on — the CLI's `--sample`
/// flags land here.
pub fn set_default_sampler(config: Option<SamplerConfig>) {
    let packed = config.map_or(0, |c| {
        let hot = c.hot_threshold.min(u64::from(u32::MAX));
        let dec = c.decimation.clamp(1, u64::from(u32::MAX));
        (hot << 32) | dec
    });
    DEFAULT_SAMPLER.store(packed, Ordering::Relaxed);
}

/// The sampling config harness-built processes currently apply, if any.
pub fn default_sampler() -> Option<SamplerConfig> {
    let packed = DEFAULT_SAMPLER.load(Ordering::Relaxed);
    (packed != 0).then(|| SamplerConfig::new(packed >> 32, packed & u64::from(u32::MAX)))
}

/// Builds a workload process honoring [`default_sampler`].
fn new_process(settings: Settings) -> Process {
    let mut p = Process::new(settings);
    if let Some(config) = default_sampler() {
        p.enable_sampling(config);
    }
    p
}

/// The settings a program is normally analysed under: paper thresholds,
/// program-specific `frq`.
pub fn settings_for(w: &dyn Workload) -> Settings {
    Settings::builder()
        .frq(w.default_frq())
        .build()
        .expect("default settings are valid")
}

/// Runs `w` once on `input` under `plan`, returning the metric report.
///
/// # Panics
///
/// Panics if the workload reports a heap error (clean plans never do;
/// fault plans provoking one indicate a catalog defect).
pub fn run_once(
    w: &dyn Workload,
    input: &Input,
    plan: &mut FaultPlan,
    settings: &Settings,
) -> MetricReport {
    let mut p = new_process(settings.clone());
    {
        let _span = heapmd_obs::span!("workload_run");
        w.run(&mut p, plan, input)
            .unwrap_or_else(|e| panic!("{} on input {} failed: {e}", w.name(), input.id));
    }
    p.finish(format!("{}/input-{}", w.name(), input.id))
}

/// Runs `w` once with monitors attached (detectors, baselines).
///
/// # Panics
///
/// Same as [`run_once`].
pub fn run_monitored(
    w: &dyn Workload,
    input: &Input,
    plan: &mut FaultPlan,
    settings: &Settings,
    monitors: &[Rc<RefCell<dyn Monitor>>],
) -> MetricReport {
    let mut p = new_process(settings.clone());
    for m in monitors {
        p.attach(m.clone());
    }
    {
        let _span = heapmd_obs::span!("workload_run");
        w.run(&mut p, plan, input)
            .unwrap_or_else(|e| panic!("{} on input {} failed: {e}", w.name(), input.id));
    }
    p.finish(format!("{}/input-{}", w.name(), input.id))
}

/// Trains a heap model for `w` on clean runs over `inputs`.
pub fn train(w: &dyn Workload, inputs: &[Input]) -> ModelOutcome {
    let settings = settings_for(w);
    let mut builder = ModelBuilder::new(settings.clone()).program(w.name());
    for input in inputs {
        let mut plan = FaultPlan::new();
        builder.add_run(&run_once(w, input, &mut plan, &settings));
    }
    builder.build()
}

/// Runs `w` once per input under clean fault plans, distributing the
/// runs over up to `threads` scoped worker threads, and returns the
/// reports **in input order** regardless of scheduling.
///
/// Each worker builds its own [`Process`] (processes are single-thread
/// state machines), and a run's report depends only on its input, so
/// the result is identical to calling [`run_once`] in a loop.
///
/// # Panics
///
/// Propagates a panic from any worker (as the sequential loop would).
pub fn run_many(
    w: &dyn Workload,
    inputs: &[Input],
    settings: &Settings,
    threads: usize,
) -> Vec<MetricReport> {
    let workers = threads.max(1).min(inputs.len().max(1));
    let mut reports: Vec<Option<MetricReport>> = (0..inputs.len()).map(|_| None).collect();
    if workers <= 1 {
        for (slot, input) in reports.iter_mut().zip(inputs) {
            *slot = Some(run_once(w, input, &mut FaultPlan::new(), settings));
        }
    } else {
        static TRAIN_RUNS: heapmd_obs::throughput::Stage =
            heapmd_obs::throughput::Stage::new("train_runs");
        let clock = heapmd_obs::throughput::stage_clock();
        let chunk = inputs.len().div_ceil(workers);
        std::thread::scope(|scope| {
            for (slots, part) in reports.chunks_mut(chunk).zip(inputs.chunks(chunk)) {
                scope.spawn(move || {
                    for (slot, input) in slots.iter_mut().zip(part) {
                        *slot = Some(run_once(w, input, &mut FaultPlan::new(), settings));
                    }
                });
            }
        });
        if let Some(t0) = clock {
            TRAIN_RUNS.record(inputs.len() as u64, t0.elapsed().as_nanos() as u64);
            heapmd_obs::gauge_set!("train_run_threads", workers as i64);
        }
    }
    reports
        .into_iter()
        .map(|r| r.expect("worker filled every slot"))
        .collect()
}

/// Trains like [`train`], but distributes the input runs and the
/// summarization over up to `threads` worker threads.
///
/// The outcome (and any model serialized from it) is bit-identical to
/// the sequential [`train`]: runs execute independently, and both
/// [`run_many`] and [`ModelBuilder::add_runs_parallel`] merge strictly
/// in input order.
pub fn train_parallel(w: &dyn Workload, inputs: &[Input], threads: usize) -> ModelOutcome {
    let settings = settings_for(w);
    let reports = run_many(w, inputs, &settings, threads);
    let mut builder = ModelBuilder::new(settings.clone()).program(w.name());
    builder.add_runs_parallel(&reports, threads);
    builder.build()
}

/// Checks `w` on `input` under `plan` against `model`, returning the
/// anomaly detector's bug reports.
pub fn check(
    w: &dyn Workload,
    model: &HeapModel,
    input: &Input,
    plan: &mut FaultPlan,
) -> Vec<BugReport> {
    let settings = settings_for(w);
    let detector = Rc::new(RefCell::new(AnomalyDetector::new(
        model.clone(),
        settings.clone(),
    )));
    let monitors: [Rc<RefCell<dyn Monitor>>; 1] = [detector.clone()];
    let _ = run_monitored(w, input, plan, &settings, &monitors);
    let mut d = detector.borrow_mut();
    d.take_bugs()
}

/// What a flight-recorded check produced.
#[derive(Debug)]
pub struct CheckOutcome {
    /// The detector's bug reports.
    pub bugs: Vec<BugReport>,
    /// Incident bundles for range violations that survived the
    /// shutdown trim.
    pub incidents: Vec<IncidentBundle>,
    /// Bundle files written, when an incident directory was given.
    pub bundle_paths: Vec<PathBuf>,
    /// The checked run's metric report (run-store appends read this).
    pub report: MetricReport,
}

/// Like [`check`], but with the process flight recorder enabled so any
/// incident carries metric/rate series and a degree histogram; bundles
/// are additionally persisted under `incident_dir` when given.
pub fn check_with_incidents(
    w: &dyn Workload,
    model: &HeapModel,
    input: &Input,
    plan: &mut FaultPlan,
    incident_dir: Option<&Path>,
) -> CheckOutcome {
    let settings = settings_for(w);
    let detector = Rc::new(RefCell::new(AnomalyDetector::new(
        model.clone(),
        settings.clone(),
    )));
    if let Some(dir) = incident_dir {
        detector
            .borrow_mut()
            .log_incidents_to(IncidentLog::new(dir, w.name()));
    }
    let mut p = new_process(settings);
    p.enable_flight_recorder(FLIGHT_RECORDER_POINTS);
    p.attach(detector.clone());
    {
        let _span = heapmd_obs::span!("workload_run");
        w.run(&mut p, plan, input)
            .unwrap_or_else(|e| panic!("{} on input {} failed: {e}", w.name(), input.id));
    }
    let report = p.finish(format!("{}/input-{}", w.name(), input.id));
    let mut d = detector.borrow_mut();
    CheckOutcome {
        bugs: d.take_bugs(),
        incidents: d.take_incidents(),
        bundle_paths: d
            .incident_log()
            .map(|l| l.paths().to_vec())
            .unwrap_or_default(),
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Gzip;

    #[test]
    fn train_then_clean_check_is_quiet() {
        let w = Gzip;
        let outcome = train(&w, &Input::set(3));
        assert!(outcome.model.training_runs >= 3);
        assert!(
            !outcome.model.stable.is_empty(),
            "gzip must have stable metrics"
        );
        let bugs = check(&w, &outcome.model, &Input::new(50), &mut FaultPlan::new());
        assert!(bugs.is_empty(), "clean run raised: {bugs:?}");
    }

    #[test]
    fn parallel_train_matches_sequential() {
        let w = Gzip;
        let inputs = Input::set(4);
        let seq = train(&w, &inputs);
        let par = train_parallel(&w, &inputs, 4);
        assert_eq!(seq, par, "parallel training must be bit-identical");
    }

    #[test]
    fn run_once_produces_samples() {
        let w = Gzip;
        let settings = settings_for(&w);
        let report = run_once(&w, &Input::new(0), &mut FaultPlan::new(), &settings);
        assert!(report.len() >= 30, "too few samples: {}", report.len());
    }
}
