//! Helper binary of the canonical benchmark (`perfbench/run.py`).
//!
//! ```text
//! perfbench gen-churn --out FILE --seed N --live N --churn N [--queues N] [--leak-every N]
//! perfbench build-model --frq N --program NAME --out MODEL TRACE...
//! perfbench verdicts --model MODEL [--sample] --out FILE TRACE...
//! perfbench traced --model MODEL --out FILE --check TRACE... [--train TRACE...] [--encode TRACE...]
//! perfbench events --out FILE TRACE...
//! perfbench probe
//! ```
//!
//! `verdicts` is the benchmark's independent verdict path, on the same
//! model the CLI uses. Exact verdicts load each trace into memory and
//! run `Trace::check`, the in-process checker. Sampled verdicts rebuild
//! `check --sample` from layer functions: a `Process` behind a default
//! `SampledIngest` filter with an `AnomalyDetector` attached.
//!
//! `probe` prints the wall seconds of a fixed, heapmd-free workload on
//! two threads: the host-speed reference of `run.py`.

mod calib;
mod churn;
mod spans;
mod traced;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use heapmd::{
    BinaryTraceImage, BugReport, HeapEvent, HeapMdError, HeapModel, ModelBuilder, SamplerConfig,
    Settings, Trace,
};
use serde::Serialize;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen-churn") => gen_churn(&args[1..]),
        Some("build-model") => build_model(&args[1..]),
        Some("verdicts") => verdicts(&args[1..]),
        Some("traced") => traced_cmd(&args[1..]),
        Some("events") => events(&args[1..]),
        Some("probe") => {
            println!("{}", calib::run());
            Ok(())
        }
        _ => Err(
            "usage: perfbench gen-churn|build-model|verdicts|traced|events|probe ...".to_string(),
        ),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parsed `--flag value` pairs, bare `--flag` switches and positional
/// arguments; a flag listed in `lists` collects every following
/// non-flag argument.
struct Args {
    values: Vec<(String, String)>,
    switches: Vec<String>,
    lists: Vec<(String, Vec<String>)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(args: &[String], switches: &[&str], lists: &[&str]) -> Result<Args, String> {
        let mut out = Args {
            values: Vec::new(),
            switches: Vec::new(),
            lists: Vec::new(),
            positional: Vec::new(),
        };
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            if switches.contains(&a.as_str()) {
                out.switches.push(a.clone());
                i += 1;
            } else if lists.contains(&a.as_str()) {
                let mut items = Vec::new();
                i += 1;
                while i < args.len() && !args[i].starts_with("--") {
                    items.push(args[i].clone());
                    i += 1;
                }
                out.lists.push((a.clone(), items));
            } else if a.starts_with("--") {
                let v = args.get(i + 1).ok_or(format!("{a} needs a value"))?;
                out.values.push((a.clone(), v.clone()));
                i += 2;
            } else {
                out.positional.push(a.clone());
                i += 1;
            }
        }
        Ok(out)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn required(&self, flag: &str) -> Result<&str, String> {
        self.value(flag).ok_or(format!("{flag} is required"))
    }

    fn num<T: std::str::FromStr>(&self, flag: &str, default: Option<T>) -> Result<T, String> {
        match self.value(flag) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("{flag} takes a number, got {v:?}")),
            None => default.ok_or(format!("{flag} is required")),
        }
    }

    fn switch(&self, flag: &str) -> bool {
        self.switches.iter().any(|s| s == flag)
    }

    fn list(&self, flag: &str) -> Vec<PathBuf> {
        self.lists
            .iter()
            .filter(|(f, _)| f == flag)
            .flat_map(|(_, v)| v.iter().map(PathBuf::from))
            .collect()
    }
}

fn err(e: HeapMdError) -> String {
    e.to_string()
}

/// Writes `value` as JSON to `path`.
fn write_json(path: &str, value: &impl Serialize) -> Result<(), String> {
    let json = serde_json::to_string(value).map_err(|e| e.to_string())?;
    std::fs::write(path, json).map_err(|e| e.to_string())
}

fn gen_churn(args: &[String]) -> Result<(), String> {
    let a = Args::parse(args, &[], &[])?;
    let spec = churn::ChurnSpec {
        seed: a.num("--seed", None)?,
        live: a.num("--live", None)?,
        churn_steps: a.num("--churn", None)?,
        queues: a.num("--queues", Some(64))?,
        leak_every: a.num("--leak-every", Some(0))?,
    };
    if spec.queues == 0 {
        return Err("--queues must be positive".into());
    }
    let out = PathBuf::from(a.required("--out")?);
    let events = churn::generate(&spec, &out).map_err(err)?;
    println!("{events}");
    Ok(())
}

fn build_model(args: &[String]) -> Result<(), String> {
    let a = Args::parse(args, &[], &[])?;
    let settings = Settings::builder()
        .frq(a.num("--frq", None)?)
        .build()
        .map_err(err)?;
    let mut builder = ModelBuilder::new(settings.clone()).program(a.required("--program")?);
    let mut buf = Vec::new();
    for path in &a.positional {
        let report = traced::replay(path.as_ref(), &settings, &mut buf).map_err(err)?;
        builder.add_run(&report);
    }
    let outcome = builder.build();
    outcome.model.save(a.required("--out")?).map_err(err)?;
    println!("{}", outcome.model.stable_metrics().len());
    Ok(())
}

/// One trace's verdict: its report lines and the store rate it was
/// checked at.
#[derive(Serialize)]
struct Verdict {
    bugs: Vec<String>,
    rate: f64,
}

fn verdicts(args: &[String]) -> Result<(), String> {
    let a = Args::parse(args, &["--sample"], &[])?;
    let model = HeapModel::load(a.required("--model")?).map_err(err)?;
    let sample = a.switch("--sample");
    let check = |path: &String| -> Result<Verdict, String> {
        if sample {
            return sampled_check(path, &model).map_err(err);
        }
        let trace = Trace::load_binary(path).map_err(err)?;
        let bugs = trace.check(&model, &model.settings).map_err(err)?;
        Ok(Verdict {
            bugs: bugs.iter().map(BugReport::to_string).collect(),
            rate: trace.sample_rate(),
        })
    };
    // Two workers, results kept in input order.
    let paths = &a.positional;
    let half = paths.len().div_ceil(2);
    let (first, second) = paths.split_at(half);
    let (r1, r2) = std::thread::scope(|s| {
        let h = s.spawn(|| second.iter().map(check).collect::<Vec<_>>());
        let r1: Vec<_> = first.iter().map(check).collect();
        (r1, h.join().expect("verdict worker panicked"))
    });
    let mut out = BTreeMap::new();
    for (path, r) in paths.iter().zip(r1.into_iter().chain(r2)) {
        out.insert(path.clone(), r?);
    }
    write_json(a.required("--out")?, &out)
}

/// `check --sample` of an unsampled recording, from layer functions.
/// Events go to the `Process` one at a time, so its filter has judged
/// exactly the events before each one and the attached detector widens
/// its ranges by the running kept/total rate, as the CLI's does.
fn sampled_check(path: &str, model: &HeapModel) -> Result<Verdict, HeapMdError> {
    let image = BinaryTraceImage::open_path(path)?;
    if image.sampling()?.is_some() {
        return Err(HeapMdError::InvalidInput(format!(
            "{path}: already sampled; the reference re-samples unsampled recordings only"
        )));
    }
    let functions = image.functions()?;
    let (mut process, detector) = traced::monitored_process(model, &image);
    process.enable_sampling(SamplerConfig::default());
    let mut buf = Vec::new();
    // A `Process` names a function it meets first as `fn#ID`; the
    // rename below is right only if ids appear in first-use order.
    let mut seen = 0u32;
    for entry in image.event_blocks() {
        image.decode_block_into(entry, &mut buf)?;
        for ev in &buf {
            if let HeapEvent::FnEnter { func } = *ev {
                if func > seen {
                    return Err(HeapMdError::InvalidInput(format!(
                        "{path}: function id {func} before id {seen}"
                    )));
                }
                seen = seen.max(func + 1);
            }
            process.apply_batch(std::slice::from_ref(ev));
        }
    }
    let rate = process.sample_rate();
    process.finish(path);
    let mut bugs = detector.borrow_mut().take_bugs();
    for frame in bugs
        .iter_mut()
        .flat_map(|b| &mut b.context)
        .flat_map(|e| &mut e.stack)
    {
        if let Some(name) = frame
            .strip_prefix("fn#")
            .and_then(|id| functions.get(id.parse::<usize>().ok()?))
        {
            *frame = name.clone();
        }
    }
    Ok(Verdict {
        bugs: bugs.iter().map(BugReport::to_string).collect(),
        rate,
    })
}

fn events(args: &[String]) -> Result<(), String> {
    let a = Args::parse(args, &[], &[])?;
    let mut counts = BTreeMap::new();
    for path in &a.positional {
        let image = BinaryTraceImage::open_path(path).map_err(err)?;
        counts.insert(path.clone(), image.index().total_events);
    }
    write_json(a.required("--out")?, &counts)
}

fn traced_cmd(args: &[String]) -> Result<(), String> {
    let a = Args::parse(args, &[], &["--check", "--train", "--encode"])?;
    let job = traced::TracedRun {
        model: HeapModel::load(a.required("--model")?).map_err(err)?,
        check: a.list("--check"),
        train: a.list("--train"),
        encode: a.list("--encode"),
    };
    write_json(a.required("--out")?, &traced::run(&job).map_err(err)?)
}
