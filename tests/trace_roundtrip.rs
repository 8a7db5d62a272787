//! Offline mode equivalences: a replayed trace reproduces the online
//! metric report, and offline checking agrees with online checking.

use faults::FaultPlan;
use heapmd::{
    AnomalyDetector, FuncId, HeapEvent, LogPhase, ModelBuilder, Process, Settings, Trace,
};
use sim_ds::{fault_ids::DLIST_SKIP_PREV, SimDList};
use std::cell::RefCell;
use std::rc::Rc;

fn run(settings: &Settings, plan: &mut FaultPlan) -> (heapmd::MetricReport, Trace) {
    run_monitored(settings, plan, None)
}

/// [`run`] with an optional online detector attached.
fn run_monitored(
    settings: &Settings,
    plan: &mut FaultPlan,
    detector: Option<Rc<RefCell<AnomalyDetector>>>,
) -> (heapmd::MetricReport, Trace) {
    let mut p = Process::new(settings.clone());
    p.enable_trace();
    if let Some(detector) = detector {
        p.attach(detector);
    }
    let mut list = SimDList::new(&mut p, "t").unwrap();
    for i in 0..500u64 {
        p.enter("tick");
        list.push_back(&mut p, plan, i).unwrap();
        if list.len() > 120 {
            if let Some(front) = list.front(&mut p).unwrap() {
                list.remove(&mut p, front).unwrap();
            }
        }
        p.leave();
    }
    let mut trace = p.take_trace().unwrap();
    let names: Vec<String> = (0..p.functions().len())
        .map(|i| p.functions().name(FuncId(i as u32)).to_string())
        .collect();
    trace.set_functions(names);
    (p.finish("traced"), trace)
}

#[test]
fn replay_reproduces_the_online_series_exactly() {
    let settings = Settings::builder().frq(10).build().unwrap();
    let (online, trace) = run(&settings, &mut FaultPlan::new());
    let offline = trace.replay(&settings, "replayed").unwrap();
    assert_eq!(online.len(), offline.len());
    for (a, b) in online.samples.iter().zip(&offline.samples) {
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.nodes, b.nodes);
        assert_eq!(a.edges, b.edges);
        assert_eq!(a.dangling, b.dangling);
    }
}

#[test]
fn offline_check_agrees_with_report_check() {
    let settings = Settings::builder().frq(10).build().unwrap();
    let mut builder = ModelBuilder::new(settings.clone());
    for _ in 0..3 {
        builder.add_run(&run(&settings, &mut FaultPlan::new()).0);
    }
    let model = builder.build().model;

    let mut plan = FaultPlan::single(DLIST_SKIP_PREV);
    let (report, trace) = run(&settings, &mut plan);
    let via_report = AnomalyDetector::check_report(&model, &settings, &report);
    let via_trace = trace.check(&model, &settings).unwrap();
    assert!(!via_report.is_empty(), "the bug must be detected offline");
    assert!(!via_trace.is_empty(), "the bug must be detected via trace");
    // Same violations (trace mode adds call-stack context).
    let keys = |v: &[heapmd::BugReport]| -> Vec<(heapmd::MetricKind, usize)> {
        v.iter().map(|b| (b.metric, b.sample_seq)).collect()
    };
    let trace_keys = keys(&via_trace);
    for k in keys(&via_report) {
        assert!(trace_keys.contains(&k), "missing {k:?} in trace check");
    }
    // Trace-mode reports carry call-stacks.
    assert!(via_trace
        .iter()
        .any(|b| b.context.iter().any(|e| !e.stack.is_empty())));
}

#[test]
fn trace_json_roundtrip_preserves_checking() {
    let settings = Settings::builder().frq(10).build().unwrap();
    let mut builder = ModelBuilder::new(settings.clone());
    for _ in 0..3 {
        builder.add_run(&run(&settings, &mut FaultPlan::new()).0);
    }
    let model = builder.build().model;
    let mut plan = FaultPlan::single(DLIST_SKIP_PREV);
    let (_, trace) = run(&settings, &mut plan);
    let json = trace.to_json().unwrap();
    let back = Trace::from_json(&json).unwrap();
    assert_eq!(
        trace.check(&model, &settings).unwrap().len(),
        back.check(&model, &settings).unwrap().len()
    );
}

/// Context entries are stamped with the clock the samples carry: the
/// replayed event count offline, the heap's mutator-operation count
/// online. Both must be non-zero, non-decreasing within a report, and
/// bracket the crossing sample; and online and offline must stamp the
/// same events at the same points of the stream.
#[test]
fn context_ticks_follow_the_sample_clock_online_and_offline() {
    let settings = Settings::builder().frq(10).build().unwrap();
    let mut builder = ModelBuilder::new(settings.clone());
    for _ in 0..3 {
        builder.add_run(&run(&settings, &mut FaultPlan::new()).0);
    }
    let model = builder.build().model;

    let (replayed, trace) = run(&settings, &mut FaultPlan::single(DLIST_SKIP_PREV));
    let offline = trace.check(&model, &settings).unwrap();
    assert!(!offline.is_empty(), "the bug must be detected via trace");
    let offline_report = trace.replay(&settings, "replayed").unwrap();
    assert_eq!(offline_report.len(), replayed.len());

    // The online detector gets the startup skip the offline check
    // derives from the stream length.
    let mut online_settings = settings.clone();
    online_settings.warmup_samples = settings
        .warmup_samples
        .max(settings.trim_count(offline_report.len()));
    let detector = Rc::new(RefCell::new(AnomalyDetector::new(
        model,
        online_settings.clone(),
    )));
    let (online_report, online_trace) = run_monitored(
        &online_settings,
        &mut FaultPlan::single(DLIST_SKIP_PREV),
        Some(Rc::clone(&detector)),
    );
    assert_eq!(online_trace, trace, "the workload is deterministic");
    let online = detector.borrow().bugs().to_vec();

    // Offline event clock → online heap clock: function entries and
    // exits are events but not heap operations.
    let mut heap_clock = vec![0u64];
    for ev in trace.events() {
        let fn_event = matches!(ev, HeapEvent::FnEnter { .. } | HeapEvent::FnExit { .. });
        heap_clock.push(heap_clock.last().unwrap() + u64::from(!fn_event));
    }

    for (bugs, report) in [(&offline, &offline_report), (&online, &online_report)] {
        for bug in bugs.iter() {
            assert!(!bug.context.is_empty());
            let ticks: Vec<u64> = bug.context.iter().map(|e| e.tick).collect();
            assert!(ticks.iter().all(|&t| t > 0), "zero tick in {ticks:?}");
            assert!(ticks.windows(2).all(|w| w[0] <= w[1]), "{ticks:?}");
            let crossing = report.samples[bug.sample_seq].tick;
            for entry in &bug.context {
                match entry.phase {
                    LogPhase::Before => assert!(entry.tick <= crossing),
                    _ => assert!(entry.tick >= crossing),
                }
            }
        }
    }

    // Same violations, same context, same points in the stream.
    assert_eq!(online.len(), offline.len());
    let mut compared = 0;
    for (on, off) in online.iter().zip(&offline) {
        assert_eq!((on.metric, on.sample_seq), (off.metric, off.sample_seq));
        assert_eq!(on.context.len(), off.context.len());
        for (a, b) in on.context.iter().zip(&off.context) {
            assert_eq!((&a.stack, &a.event, a.phase), (&b.stack, &b.event, b.phase));
            assert_eq!(a.tick, heap_clock[b.tick as usize]);
            compared += 1;
        }
    }
    assert!(compared > 0);
}
