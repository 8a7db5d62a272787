//! `heapmd check --trace` end to end: the verdict depends on neither
//! the trace's on-disk format nor the worker count, and run-store rows
//! land in input order.

use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_heapmd-cli");

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("heapmd-check-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the CLI in `dir`, returning (exit code, stdout).
fn cli(dir: &Path, args: &[&str]) -> (i32, String) {
    let out = Command::new(BIN)
        .current_dir(dir)
        .args(args)
        .output()
        .expect("heapmd-cli runs");
    let code = out.status.code().expect("exited");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        code == 0 || code == 3,
        "heapmd-cli {args:?} exited {code}: {stderr}"
    );
    (code, String::from_utf8(out.stdout).unwrap())
}

/// Trains a webapp model and records `traces` (name, input, bug,
/// format) into `dir`.
fn fixture(dir: &Path, traces: &[(&str, &str, Option<&str>, &str)]) {
    cli(
        dir,
        &["train", "webapp", "--inputs", "6", "--out", "webapp.json"],
    );
    for &(name, input, bug, format) in traces {
        let mut args = vec![
            "record", "webapp", "--trace", name, "--input", input, "--format", format,
        ];
        if let Some(bug) = bug {
            args.extend(["--bug", bug]);
        }
        cli(dir, &args);
    }
}

/// `check --model webapp.json` over `traces`, plus `extra` flags.
fn check(dir: &Path, traces: &[&str], extra: &[&str]) -> (i32, String) {
    let mut args = vec!["check", "--model", "webapp.json"];
    for t in traces {
        args.extend(["--trace", t]);
    }
    args.extend(extra);
    cli(dir, &args)
}

#[test]
fn sampled_verdicts_do_not_depend_on_trace_format() {
    let dir = temp_dir("format");
    let bug = Some("webapp.dom_tree.skip_parent");
    fixture(
        &dir,
        &[
            ("bug.hmdt", "2000", bug, "binary"),
            ("bug.jsonl", "2000", bug, "jsonl"),
        ],
    );
    let (code, binary) = check(&dir, &["bug.hmdt"], &["--sample"]);
    assert_eq!(code, 3, "the injected bug is detected:\n{binary}");
    assert!(binary.contains("(sampled at 0."), "{binary}");
    let (_, jsonl) = check(&dir, &["bug.jsonl"], &["--sample"]);
    assert_eq!(
        binary.replace("bug.hmdt", "T"),
        jsonl.replace("bug.jsonl", "T")
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stdout_is_the_same_at_every_job_count() {
    let dir = temp_dir("jobs");
    fixture(
        &dir,
        &[
            ("a.hmdt", "3000", None, "binary"),
            (
                "b.hmdt",
                "2000",
                Some("webapp.dom_tree.skip_parent"),
                "binary",
            ),
            ("c.jsonl", "3001", None, "jsonl"),
            (
                "d.hmdt",
                "2001",
                Some("webapp.dom_tree.skip_parent"),
                "binary",
            ),
        ],
    );
    let traces = ["a.hmdt", "b.hmdt", "c.jsonl", "d.hmdt"];
    for mode in [&[][..], &["--sample"][..]] {
        let one = check(&dir, &traces, &[&["--jobs", "1"][..], mode].concat());
        let two = check(&dir, &traces, &[&["--jobs", "2"][..], mode].concat());
        assert_eq!(one, two, "--jobs changed the output of check {mode:?}");
        assert_eq!(one.0, 3, "the injected bugs are detected:\n{}", one.1);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_store_rows_land_in_input_order() {
    let dir = temp_dir("store");
    fixture(
        &dir,
        &[
            ("a.hmdt", "3000", None, "binary"),
            ("b.jsonl", "3001", None, "jsonl"),
            ("c.hmdt", "3002", None, "binary"),
        ],
    );
    let traces = ["c.hmdt", "a.hmdt", "b.jsonl"];
    check(&dir, &traces, &["--jobs", "2", "--run-store", "store"]);
    let (_, rows) = cli(&dir, &["query", "--store", "store"]);
    let mut runs: Vec<&str> = rows
        .lines()
        .skip(1)
        .map(|row| row.split('\t').nth(2).expect("run column"))
        .collect();
    runs.dedup();
    assert_eq!(runs, traces, "rows out of input order");
    std::fs::remove_dir_all(&dir).ok();
}
