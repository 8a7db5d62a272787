#!/usr/bin/env python3
"""Canonical heapmd benchmark: one command, three workloads.

    python3 perfbench/run.py --workload churn|commercial|fleet \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The script builds `heapmd-cli`
and the `perfbench` helper from source, makes the workload's inputs from
`--seed`, measures for `--seconds`, checks every verdict against an
independent path in the same build, and prints one JSON object as the
last line of standard output. `--trace 0` reports the end-to-end
metrics, measured on untraced runs of the CLI; `--trace 1` reports the
per-layer metrics of a separate traced run. perfbench/README.md
describes the workloads and metrics.
"""

import argparse
import concurrent.futures
import itertools
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request

HERE = os.path.dirname(os.path.abspath(__file__))
# Set-up repeats at least SETUP_MIN_REPEATS times and until it has taken
# SETUP_MIN_SECONDS (cheap set-ups are noisier), at most SETUP_MAX_REPEATS.
SETUP_MIN_REPEATS, SETUP_MIN_SECONDS, SETUP_MAX_REPEATS = 3, 2.0, 10
JOBS = "2"
# Wall seconds of `perfbench probe` on an unloaded 2-vCPU host: CPU-bound
# figures are reported at this host speed (see Bench.host_factor).
PROBE_REF_S = 0.25
# How check throughput follows probe time as the host's load changes:
# the log-log slope, fitted over 36 minutes of alternating probes and
# `check` rounds (commercial and churn) while the host's speed moved by
# 2x (slopes 0.56-0.72, r = 0.91-0.98; probe noise biases them low).
PROBE_EXPONENT = 0.75

# Per-layer metrics that only the fleet workload measures.
SERVE_METRICS = ("serve.ack_wait_ms_p50", "serve.daemon_cpu_s_per_mevent",
                 "serve.daemon_cpu_util", "serve.journal_bytes_per_event",
                 "serve.drain_s", "serve.reconnects")

COMMERCIAL = ["multimedia", "webapp", "game_sim", "game_action", "productivity"]
BUG_PREFIX = {"mm": "multimedia", "webapp": "webapp", "gs": "game_sim",
              "ga": "game_action", "prod": "productivity"}
TRAIN_INPUTS = 25      # `train --inputs`: training ids 0..24
BUG_INPUT = 2000       # one recorded run per catalogued bug
CLEAN_INPUTS = 8       # clean test ids 3000..3007 per program

CHURN_LIVE = 150_000
CHURN_STEPS = 250_000
CHURN_FRQ = 8000
CHURN_CHECK = 4        # traces per check invocation; the last one leaks
CHURN_TRAIN = 2
LEAK_EVERY = 4         # a leaky trace skips one free in this many pops

FLEET_POOL = 24        # distinct streams, log-spaced lengths
FLEET_MIN_EVENTS = 5_000
FLEET_DECADES = 1.5
FLEET_LEAKY = (17, 20, 23)
FLEET_TRAIN = 10
FLEET_FRQ = 50
FLEET_CLIENTS = 2
FLEET_DAEMONS = 6      # closed-loop runs per invocation, each on a fresh daemon
FLEET_ORDER = random.Random(0).sample(range(FLEET_POOL), FLEET_POOL)  # push order


class BenchError(Exception):
    """A failure that stops the run without a result."""


# ---------------------------------------------------------------- stats

def percentile(values, p):
    """Nearest-rank percentile (p in 0..100) of a non-empty list."""
    s = sorted(values)
    return s[max(1, _ceil(len(s) * p / 100)) - 1]


def _ceil(x):
    return int(-(-x // 1))


def beyond(n, p):
    """Samples strictly beyond the nearest-rank p-th percentile of n."""
    return n - max(1, _ceil(n * p / 100))


TAIL_LADDER = (99.9, 99, 95, 90, 75, 50)


def tail_percentile(values):
    """The highest percentile of TAIL_LADDER with at least ten samples
    beyond it, as (p, value, n); None when even p50 has fewer."""
    for p in TAIL_LADDER:
        if beyond(len(values), p) >= 10:
            return p, percentile(values, p), len(values)
    return None


def self_times(spans):
    """Self time of each span: its duration minus the part of it its
    children cover. `spans` is [[name, start, end, parent], ...] with
    parent -1 for a root."""
    children = {}
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children.setdefault(span[3], []).append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, cursor = 0, start
        for c in sorted(children.get(i, []), key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], cursor), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def self_by_name(spans):
    totals = {}
    for span, t in zip(spans, self_times(spans)):
        totals[span[0]] = totals.get(span[0], 0) + t
    return totals


# ---------------------------------------------------------------- verdicts

HEADER = re.compile(r"^(?P<path>.*?): (?:no anomalies|\d+ anomaly report\(s\))"
                    r"(?: \(sampled at (?P<rate>[0-9.]+)\))?:?$")
TENANT = re.compile(r"^tenant (\S+): (\d+) events, \d+ bug\(s\), \d+ bundle\(s\), (.*)$")


def parse_check_output(text):
    """Maps each trace of a `heapmd check --trace ...` run to
    {"bugs": [report lines], "rate": printed sample rate or None}."""
    out, cur = {}, None
    for line in text.splitlines():
        if line.startswith("    "):
            continue  # "implicated:" detail of the report above
        if line.startswith("  ") and cur is not None:
            out[cur]["bugs"].append(line[2:])
            continue
        m = HEADER.match(line)
        if m:
            cur = m.group("path")
            out[cur] = {"bugs": [], "rate": float(m.group("rate")) if m.group("rate") else None}
    return out


def parse_serve_output(text):
    """Maps tenant -> {"events", "state", "bugs"} from the daemon's final
    verdict listing."""
    out, cur = {}, None
    for line in text.splitlines():
        m = TENANT.match(line)
        if m:
            cur = m.group(1)
            out[cur] = {"events": int(m.group(2)), "state": m.group(3), "bugs": []}
        elif line.startswith("  ") and cur is not None:
            out[cur]["bugs"].append(line[2:])
    return out


def gate(observed, reference, sampled=False):
    """Keys of `reference` whose observed verdict disagrees. A verdict
    must match report for report; a sampled one must also show the same
    filter outcome (kept/total store rate, printed to 4 places)."""
    bad = []
    for key, ref in reference.items():
        got = observed.get(key)
        if got is None or got["bugs"] != ref["bugs"]:
            bad.append(key)
        elif sampled and (got["rate"] is None or abs(got["rate"] - ref["rate"]) > 5.01e-5):
            bad.append(key)
    return bad


# ---------------------------------------------------------------- children

class Bench:
    def __init__(self, root, work, seed):
        self.root, self.work, self.seed = root, work, seed
        target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        self.target = os.path.join(root, target)
        self.cli = os.path.join(self.target, "release", "heapmd-cli")
        self.helper = os.path.join(self.target, "release", "heapmd-perfbench")

    def build(self):
        env = dict(os.environ, CARGO_TARGET_DIR=self.target)
        for cmd in (["cargo", "build", "--release", "--offline", "-q", "-p", "heapmd-bench",
                     "--bin", "heapmd-cli"],
                    ["cargo", "build", "--release", "--offline", "-q", "--manifest-path",
                     os.path.join(HERE, "Cargo.toml")]):
            if subprocess.run(cmd, cwd=self.root, env=env, stdout=sys.stderr).returncode:
                raise BenchError("build failed: " + " ".join(cmd))

    def spawn(self, args):
        """Runs a child to completion, returning (exit code, stdout, wall
        seconds, rusage). Output goes to files in the work directory, so
        the child is reaped here with wait4 and its own peak RSS and CPU
        time are known."""
        with tempfile.TemporaryFile("w+", dir=self.work) as out, \
                tempfile.TemporaryFile("w+", dir=self.work) as err:
            t0 = time.perf_counter()
            p = subprocess.Popen(args, stdout=out, stderr=err, cwd=self.work)
            _, status, usage = os.wait4(p.pid, 0)
            wall = time.perf_counter() - t0
            p.returncode = code = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            text, errors = out.read(), err.read()
        if code not in (0, 3):
            print(f"# {os.path.basename(args[0])} {args[1]} exited {code}: "
                  f"{errors.strip()[-300:]}", file=sys.stderr)
        return code, text, wall, usage

    def run(self, args):
        """spawn() for set-up steps, which must succeed."""
        code, text, _, _ = self.spawn(args)
        if code != 0:
            raise BenchError(f"{os.path.basename(args[0])} {args[1]} exited {code}")
        return text

    def parallel(self, commands):
        """Runs independent set-up commands, two at a time."""
        with concurrent.futures.ThreadPoolExecutor(2) as pool:
            for _ in pool.map(self.run, commands):
                pass

    def host_factor(self):
        """How much slower than at the reference speed CPU-bound heapmd
        work runs on the host right now, from one probe. Neighbours'
        load on a shared host slows it by up to 2x for minutes at a
        time; multiplying a throughput by this factor (or dividing a
        time) reports it at the reference speed."""
        probe_s = float(self.run([self.helper, "probe"]))
        return (probe_s / PROBE_REF_S) ** PROBE_EXPONENT

    def helper_json(self, args):
        fd, out = tempfile.mkstemp(suffix=".json", dir=self.work)
        os.close(fd)
        try:
            self.run([self.helper, args[0], "--out", out] + args[1:])
            with open(out) as f:
                return json.load(f)
        finally:
            os.remove(out)

    def verdicts(self, model, traces, sampled=False):
        """The independent verdicts: in-process `Trace::check`, or for a
        sampled check a `Process` behind the store filter with the
        detector attached."""
        return self.helper_json(["verdicts", "--model", model]
                                + (["--sample"] if sampled else []) + traces)

    def events(self, traces):
        return self.helper_json(["events"] + traces)

    def traced(self, model, check, train, encode):
        args = ["traced", "--model", model, "--check", *check]
        if train:
            args += ["--train", *train]
        return self.helper_json(args + ["--encode", *encode])


def rss_mb(usage):
    return usage.ru_maxrss / 1024.0  # Linux reports KiB


def timed_setups(b, setup):
    """Runs setup(d) repeatedly, each time into a fresh directory d, and
    returns (median seconds at the reference host speed, result of the
    last). Only the last directory is kept, and its files are flushed to
    disk, so that no write-back of set-up output runs during the
    measurement."""
    factors, times, result, dirs = [], [], None, []
    while len(times) < SETUP_MIN_REPEATS or (
            sum(times) < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPEATS):
        if len(times) < SETUP_MIN_REPEATS:
            factors.append(b.host_factor())
        dirs.append(os.path.join(b.work, f"setup{len(times)}"))
        os.makedirs(dirs[-1])
        t0 = time.perf_counter()
        result = setup(dirs[-1])
        times.append(time.perf_counter() - t0)
    factors.append(b.host_factor())
    for d in dirs[:-1]:
        shutil.rmtree(d)
    flush_dir(dirs[-1])
    return statistics.median(times) / statistics.median(factors), result


def flush_dir(d):
    for name in os.listdir(d):
        fd = os.open(os.path.join(d, name), os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def check_args(model, traces, sampled=False, jobs=JOBS):
    args = ["check", "--model", model, "--jobs", jobs]
    for t in traces:
        args += ["--trace", t]
    return args + (["--sample"] if sampled else [])


# ---------------------------------------------------------------- offline checks

def offline_loop(b, seconds, first, again):
    """Runs the `first` steps once, then the `again` steps round after
    round until `seconds` have passed, with a host probe before the
    first round and after each. Returns one record per invocation,
    tagged with its round (0 = the first), and the host factors."""
    deadline = time.perf_counter() + seconds
    records, probes, rnd, steps = [], [b.host_factor()], 0, first
    while rnd == 0 or time.perf_counter() < deadline:
        for step in steps:
            code, out, wall, usage = b.spawn([b.cli] + step["args"])
            records.append(dict(step, code=code, out=out, wall=wall, usage=usage, round=rnd))
        probes.append(b.host_factor())
        rnd, steps = rnd + 1, again
    return records, probes


def score_checks(b, records, factors, groups, report):
    """Gates every check invocation against the in-process verdicts and
    derives throughput, memory and detection. `factors` are the host
    factors probed during the run; `groups` lists {"model", "traces",
    "buggy", "events"} per model."""
    attempted = failed = 0
    first = {}
    sampled_events, sampled_wall, rss = 0, 0.0, 0.0
    for g in groups:
        refs = [b.verdicts(g["model"], g["traces"]), b.verdicts(g["model"], g["traces"], True)]
        for r in records:
            if r["kind"] not in ("exact", "sampled") or r["model"] != g["model"]:
                continue
            s = int(r["kind"] == "sampled")
            got = parse_check_output(r["out"]) if r["code"] in (0, 3) else {}
            bad = gate(got, refs[s], sampled=bool(s))
            attempted += len(g["traces"])
            failed += len(bad)
            for t in bad:
                print(f"# {r['kind']} verdict mismatch: {t}", file=sys.stderr)
            if s:
                sampled_events += g["events"]
                sampled_wall += r["wall"]
            else:
                rss = max(rss, rss_mb(r["usage"]))
            for t in g["traces"]:
                if t in got:
                    first.setdefault((t, s), got[t]["bugs"])
    buggy = set().union(*(g["buggy"] for g in groups))
    traces = [t for g in groups for t in g["traces"]]
    det = [sum(1 for t in buggy if first.get((t, s))) for s in (0, 1)]
    fps = [sum(len(first.get((t, s), [])) for t in traces if t not in buggy) for s in (0, 1)]
    clean = len(traces) - len(buggy)
    # Throughput per round of exact checks (the same work every round);
    # the median keeps one disturbed round from moving the figure.
    group_events = {g["model"]: g["events"] for g in groups}
    rounds = {}
    for r in records:
        if r["kind"] == "exact":
            ev, w = rounds.get(r["round"], (0, 0.0))
            rounds[r["round"]] = (ev + group_events[r["model"]], w + r["wall"])
    per_round = [ev / w for _, (ev, w) in sorted(rounds.items())]
    eps = statistics.median(per_round)
    # Host load drifts over minutes, so one factor (the median of the
    # run's probes) serves the whole run.
    factor = statistics.median(factors)
    report.update({
        "check_events_per_s": (eps, f"events/s, wall clock, median of {len(rounds)} rounds"),
        "host_factor": (factor, f"x, median of {len(factors)} probes"),
        "sampled_check_events_per_s": (sampled_events / sampled_wall, "events/s"),
        "check_peak_rss_mb": (rss, "MB"),
        "bugs_detected": (det[0], f"count, of {len(buggy)} buggy traces"),
        "false_positives": (fps[0], f"count, reports on {clean} clean traces"),
        "sampled_bugs_detected": (det[1], f"count, of {len(buggy)} buggy traces"),
        "sampled_false_positives": (fps[1], f"count, reports on {clean} clean traces"),
    })
    e2e = {"events_per_s": eps * factor, "peak_rss_mb": rss, "bugs_detected": det[0]}
    return attempted, failed, e2e, [round(x) for x in per_round]


def churn_setup(b, d):
    rng = random.Random(b.seed)
    check = [os.path.join(d, f"churn{k}.hmdt") for k in range(CHURN_CHECK)]
    train = [os.path.join(d, f"train{k}.hmdt") for k in range(CHURN_TRAIN)]
    cmds = []
    for k, path in enumerate(check + train):
        leak = LEAK_EVERY if k == CHURN_CHECK - 1 else 0
        cmds.append([b.helper, "gen-churn", "--out", path, "--seed", str(rng.getrandbits(48)),
                     "--live", str(CHURN_LIVE), "--churn", str(CHURN_STEPS),
                     "--leak-every", str(leak)])
    b.parallel(cmds)
    model = os.path.join(d, "churn.model.json")
    b.run([b.helper, "build-model", "--frq", str(CHURN_FRQ), "--program", "churn",
           "--out", model] + train)
    return {"check": check, "train": train, "model": model}


def churn_workload(b, seconds, traced):
    setup_s, s = timed_setups(b, lambda d: churn_setup(b, d))
    sizes = b.events(s["check"])
    info = {"traces": len(s["check"]), "leaky_traces": 1, "events": sum(sizes.values()),
            "live_objects": CHURN_LIVE, "frq": CHURN_FRQ, "training_traces": CHURN_TRAIN}
    if traced:
        return per_layer_offline(b, seconds, [(s["model"], s["check"], s["train"])], info)
    steps = [{"kind": k, "model": s["model"],
              "args": check_args(s["model"], s["check"], k == "sampled")}
             for k in ("exact", "sampled")]
    records, factors = offline_loop(b, seconds, steps, steps[:1])
    group = {"model": s["model"], "traces": s["check"], "buggy": {s["check"][-1]},
             "events": info["events"]}
    report = {}
    attempted, failed, e2e, info["round_events_per_s"] = score_checks(
        b, records, factors, [group], report)
    e2e["setup_s"] = setup_s
    return attempted, failed, e2e, report, info


def catalogue(b):
    bugs, on = [], False
    for line in b.run([b.cli, "list"]).splitlines():
        if line.startswith("catalogued bugs"):
            on = True
        elif on and not line.strip():
            break
        elif on:
            bugs.append(line.split()[0])
    return bugs


def commercial_setup(b, d, bugs):
    cmds, traces, buggy = [], {p: [] for p in COMMERCIAL}, set()
    for bug in bugs:
        prog = BUG_PREFIX[bug.split(".")[0]]
        path = os.path.join(d, f"bug-{bug}.hmdt")
        cmds.append([b.cli, "record", prog, "--trace", path, "--input", str(BUG_INPUT),
                     "--bug", bug, "--format", "binary"])
        traces[prog].append(path)
        buggy.add(path)
    for prog in COMMERCIAL:
        for k in range(CLEAN_INPUTS):
            path = os.path.join(d, f"clean-{prog}-{k}.hmdt")
            cmds.append([b.cli, "record", prog, "--trace", path, "--input", str(3000 + k),
                         "--format", "binary"])
            traces[prog].append(path)
    b.parallel(cmds)
    # Alternate buggy and clean traces: `check --jobs` hands each worker
    # a contiguous slice of its trace list.
    for prog in COMMERCIAL:
        bad = [t for t in traces[prog] if t in buggy]
        good = [t for t in traces[prog] if t not in buggy]
        traces[prog] = [t for pair in itertools.zip_longest(bad, good) for t in pair if t]
    return d, traces, buggy


def commercial_workload(b, seconds, traced):
    bugs = catalogue(b)
    setup_s, (d, traces, buggy) = timed_setups(b, lambda d: commercial_setup(b, d, bugs))
    sizes = b.events([t for ts in traces.values() for t in ts])
    # The campaign's inputs are fixed (the Table 2 protocol), so the
    # detection counts compare across seeds; the seed orders the
    # programs. Trace order within a program stays fixed, since it sets
    # the load balance of `check --jobs`.
    order = COMMERCIAL[:]
    random.Random(b.seed).shuffle(order)
    models = {p: os.path.join(d, f"{p}.model.json") for p in COMMERCIAL}
    train_args = {p: ["train", p, "--inputs", str(TRAIN_INPUTS), "--threads", JOBS,
                      "--out", models[p]] for p in COMMERCIAL}
    info = {"programs": len(COMMERCIAL), "catalogued_bugs": len(bugs),
            "clean_traces": CLEAN_INPUTS * len(COMMERCIAL), "training_inputs": TRAIN_INPUTS,
            "events": sum(sizes.values()), "program_order": order}
    if traced:
        tdir = os.path.join(b.work, "train")
        os.makedirs(tdir)
        cmds, jobs = [], []
        for prog in order:
            b.run([b.cli] + train_args[prog])
            train = [os.path.join(tdir, f"{prog}-{k}.hmdt") for k in range(TRAIN_INPUTS)]
            cmds += [[b.cli, "record", prog, "--trace", t, "--input", str(k), "--format", "binary"]
                     for k, t in enumerate(train)]
            jobs.append((models[prog], traces[prog], train))
        b.parallel(cmds)
        return per_layer_offline(b, seconds, jobs, info)
    first, again = [], []
    for prog in order:
        train = {"kind": "train", "model": models[prog], "args": train_args[prog]}
        exact, sampled = ({"kind": k, "model": models[prog],
                           "args": check_args(models[prog], traces[prog], k == "sampled")}
                          for k in ("exact", "sampled"))
        first += [train, exact, sampled]
        again.append(exact)
    records, factors = offline_loop(b, seconds, first, again)
    groups = [{"model": models[p], "traces": traces[p], "buggy": buggy & set(traces[p]),
               "events": sum(sizes[t] for t in traces[p])} for p in COMMERCIAL]
    report = {}
    attempted, failed, e2e, info["round_events_per_s"] = score_checks(
        b, records, factors, groups, report)
    trains = [r for r in records if r["kind"] == "train"]
    attempted += len(trains)
    failed += sum(1 for r in trains if r["code"] != 0)
    report["train_s"] = (sum(r["wall"] for r in trains), "s, the five programs")
    e2e["setup_s"] = setup_s
    return attempted, failed, e2e, report, info


# ---------------------------------------------------------------- fleet

def fleet_setup(b, d):
    rng = random.Random(b.seed)
    cmds, pool, train = [], [], []

    def gen(path, events, leak):
        steps = max(60, int(events / 10.4))  # ~10.4 events per churn step
        live = steps // 3
        cmds.append([b.helper, "gen-churn", "--out", path, "--seed", str(rng.getrandbits(48)),
                     "--live", str(live), "--churn", str(steps - live), "--queues", "16",
                     "--leak-every", str(leak)])

    for k in range(FLEET_TRAIN):
        path = os.path.join(d, f"train{k}.hmdt")
        gen(path, FLEET_MIN_EVENTS * 10 ** (FLEET_DECADES * k / (FLEET_TRAIN - 1)), 0)
        train.append(path)
    for k in range(FLEET_POOL):
        path = os.path.join(d, f"stream{k:02d}.hmdt")
        gen(path, FLEET_MIN_EVENTS * 10 ** (FLEET_DECADES * k / (FLEET_POOL - 1)),
            LEAK_EVERY if k in FLEET_LEAKY else 0)
        pool.append(path)
    b.parallel(cmds)
    model = os.path.join(d, "fleet.model.json")
    b.run([b.helper, "build-model", "--frq", str(FLEET_FRQ), "--program", "fleet",
           "--out", model] + train)
    return {"pool": pool, "train": train, "model": model,
            "buggy": {pool[k] for k in FLEET_LEAKY}}


def http_get(addr, path):
    with urllib.request.urlopen(f"http://{addr}{path}", timeout=30) as r:
        return r.read().decode()


def proc_wchar(pid):
    """Bytes the process has written (journal, mostly)."""
    try:
        with open(f"/proc/{pid}/io") as f:
            for line in f:
                if line.startswith("wchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def fleet_run(b, s, seconds):
    """One closed-loop run against a fresh daemon: FLEET_CLIENTS threads
    each push one stream at a time, waiting for its final ack, until
    `seconds` have passed and the client has pushed the whole pool once;
    then the daemon is shut down and its verdicts collected."""
    journal = tempfile.mkdtemp(prefix="journal", dir=b.work)
    out = open(os.path.join(journal + ".out"), "w+")
    daemon = subprocess.Popen(
        [b.cli, "serve", "--model", s["model"], "--listen", "127.0.0.1:0", "--http",
         "127.0.0.1:0", "--shards", JOBS, "--journal-dir", journal],
        stdout=out, stderr=subprocess.DEVNULL, cwd=b.work)
    try:
        m, t_up = None, time.perf_counter()
        while m is None and time.perf_counter() - t_up < 30:
            time.sleep(0.01)
            out.seek(0)
            m = re.match(r"fleet daemon up: ingest (\S+) http (\S+)", out.readline())
        if m is None:
            raise BenchError("fleet daemon did not start")
        ingest, http = m.groups()
        pushes, lock = [], threading.Lock()
        t_first = time.perf_counter()
        deadline = t_first + seconds

        def client(c):
            # Each client walks the pool in FLEET_ORDER from its own offset.
            start = c * FLEET_POOL // FLEET_CLIENTS
            for k in itertools.count():
                if k >= FLEET_POOL and time.perf_counter() >= deadline:
                    return
                trace = s["pool"][FLEET_ORDER[(start + k) % FLEET_POOL]]
                tenant = f"c{c}-{k:05d}"
                t0 = time.perf_counter()
                code = subprocess.run([b.cli, "push", "--to", ingest, "--tenant", tenant,
                                       "--trace", trace], stdout=subprocess.DEVNULL,
                                      stderr=subprocess.DEVNULL, cwd=b.work).returncode
                t1 = time.perf_counter()
                with lock:
                    pushes.append({"tenant": tenant, "trace": trace, "start": t0, "end": t1,
                                   "ok": code == 0})

        threads = [threading.Thread(target=client, args=(c,)) for c in range(FLEET_CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        prom = http_get(http, "/metrics")
        wchar = proc_wchar(daemon.pid)
        t_shutdown = time.perf_counter()
        http_get(http, "/shutdown")
        while True:
            pid, status, usage = os.wait4(daemon.pid, os.WNOHANG)
            t_exit = time.perf_counter()
            if pid:
                break
            if t_exit - t_shutdown > 60:
                raise BenchError("fleet daemon did not exit after shutdown")
            time.sleep(0.005)
        daemon.returncode = code = os.waitstatus_to_exitcode(status)
        out.seek(0)
        verdicts = parse_serve_output(out.read())
    finally:
        if daemon.returncode is None:
            daemon.kill()
            daemon.wait()
        out.close()
        shutil.rmtree(journal, ignore_errors=True)
    m = re.search(r"^heapmd_fleet_reconnects_total (\d+)", prom, re.M)
    return {"pushes": pushes, "verdicts": verdicts, "usage": usage, "code": code,
            "t_first": t_first, "t_shutdown": t_shutdown, "t_exit": t_exit,
            "wchar": wchar, "reconnects": int(m.group(1)) if m else 0}


def fleet_score(b, s, sizes, runs, report):
    """Gates each pushed stream's daemon verdict against in-process
    `Trace::check` of the same trace. Throughput and peak RSS are the
    medians over the daemon runs; push latencies are pooled."""
    ref = b.verdicts(s["model"], s["pool"])
    attempted = failed = 0
    flagged, rates, rss, lat = set(), [], [], []
    for run in runs:
        pushes = run["pushes"]
        attempted += len(pushes)
        if run["code"] not in (0, 3):
            failed += len(pushes)
        for p in pushes:
            v = run["verdicts"].get(p["tenant"])
            if (not p["ok"] or v is None or v["state"] != "complete"
                    or v["events"] != sizes[p["trace"]]
                    or v["bugs"] != ref[p["trace"]]["bugs"]):
                failed += 1
                print(f"# fleet verdict mismatch: {p['tenant']} {p['trace']}", file=sys.stderr)
            elif v["bugs"]:
                flagged.add(p["trace"])
        events = sum(sizes[p["trace"]] for p in pushes if p["ok"])
        rates.append(events / (run["t_exit"] - run["t_first"]))
        rss.append(rss_mb(run["usage"]))
        lat += [(p["end"] - p["start"]) * 1000 for p in pushes]
    tail = tail_percentile(lat)
    detected = len(flagged & s["buggy"])
    clean = [t for t in s["pool"] if t not in s["buggy"]]
    eps, peak = statistics.median(rates), statistics.median(rss)
    report.update({
        "fleet_events_per_s": (eps, f"events/s, median of {len(runs)} daemons"),
        "push_ms_p50": (percentile(lat, 50), f"ms, n={len(lat)}"),
        "push_ms_p90": (percentile(lat, 90), f"ms, n={len(lat)}, {beyond(len(lat), 90)} beyond"),
        "push_ms_tail": (tail[1], f"ms, p{tail[0]} of n={len(lat)}") if tail
        else (float("nan"), "too few pushes"),
        "serve_peak_rss_mb": (peak, f"MB, median of {len(runs)} daemons"),
        "bugs_detected": (detected, f"count, of {len(s['buggy'])} leaky streams"),
        "false_positives": (sum(len(ref[t]["bugs"]) for t in clean),
                            f"count, reports on {len(clean)} clean streams"),
    })
    e2e = {"events_per_s": eps, "peak_rss_mb": peak, "bugs_detected": detected}
    return attempted, failed, e2e


def fleet_workload(b, seconds, traced):
    setup_s, s = timed_setups(b, lambda d: fleet_setup(b, d))
    sizes = b.events(s["pool"])
    info = {"streams": FLEET_POOL, "stream_events": [min(sizes.values()), max(sizes.values())],
            "leaky_streams": len(FLEET_LEAKY), "clients": FLEET_CLIENTS, "loop": "closed",
            "daemons": FLEET_DAEMONS, "frq": FLEET_FRQ, "shards": int(JOBS)}
    runs = [fleet_run(b, s, seconds / FLEET_DAEMONS) for _ in range(FLEET_DAEMONS)]
    report = {}
    attempted, failed, e2e = fleet_score(b, s, sizes, runs, report)
    info["pushes"] = sum(len(r["pushes"]) for r in runs)
    info["daemon_peak_rss_mb"] = [round(rss_mb(r["usage"]), 1) for r in runs]
    if traced:
        return per_layer_fleet(b, s, sizes, runs, info, attempted, failed)
    e2e["setup_s"] = setup_s
    return attempted, failed, e2e, report, info


# ---------------------------------------------------------------- per-layer

# The CLI's check, layer by layer: decode, then `Process` with the
# detector attached as a monitor.
OFFLINE_PIPELINE = ("trace_codec.open", "trace_codec.decode", "process.monitored")


def encode_ms_per_root(spans):
    """Encode time of each `encode_pass` root span, in order."""
    roots = {i: 0 for i, span in enumerate(spans) if span[0] == "encode_pass"}
    for name, start, end, parent in spans:
        if name == "trace_codec.encode" and parent in roots:
            roots[parent] += end - start
    return [ns / 1e6 for _, ns in sorted(roots.items())]


def layer_metrics(runs, reps=1):
    """Per-layer metrics from traced-run outputs covering `reps` passes
    over the same inputs: times are summed, counts are per pass."""
    tot, c, builds = {}, {}, 0
    for data in runs:
        for name, t in self_by_name(data["spans"]).items():
            tot[name] = tot.get(name, 0) + t
        for k, v in data["counters"].items():
            c[k] = max(c.get(k, 0), v) if k.startswith("peak_") else c.get(k, 0) + v
        builds += bool(data["counters"]["train_runs"])
    g = lambda name: tot.get(name, 0)
    ev, pts = max(1, c["events"]), max(1, c["points"])
    m = {
        "trace_codec.decode_ns_per_event": (g("trace_codec.open") + g("trace_codec.decode")) / ev,
        "trace_codec.bytes_per_event": c["bytes"] / ev,
        "trace_codec.encode_ns_per_event": g("trace_codec.encode") / max(1, c["encode_events"]),
        "graph.apply_ns_per_event": g("graph.apply_batch") / ev,
        "graph.peak_nodes": c["peak_nodes"],
        "graph.peak_edges": c["peak_edges"],
        "graph.metrics_us_per_point": g("graph.metrics") / pts / 1e3,
        "process.self_ns_per_event": g("process.upkeep") / ev,
        "process.monitored_ns_per_event": g("process.monitored") / ev,
        "process.points": c["points"] / reps,
        "swat.admit_ns_per_store": g("swat.admit") / max(1, c["stores"]),
        "swat.keep_rate": c["stores_kept"] / max(1, c["stores"]),
        "detector.us_per_point": g("detector.check_report") / pts / 1e3,
        "model.build_ms": g("model.build") / max(1, builds) / 1e6,
        "heap.exec_ns_per_event": g("heap.exec") / ev,
    }
    m.update(dict.fromkeys(SERVE_METRICS, 0.0))
    return m, sum(g(n) for n in OFFLINE_PIPELINE) / ev, c


def per_layer_offline(b, seconds, jobs, info):
    """jobs: [(model, check traces, training traces)]. Repeats the traced
    pass while another one still fits in `seconds`. Each pass also runs
    one untraced `check --jobs 1` per model over the same traces: its
    wall time is the coverage denominator, and its verdicts are gated."""
    refs = {model: b.verdicts(model, check) for model, check, _ in jobs}
    t0 = time.perf_counter()
    runs, wall, attempted, failed, reps = [], 0.0, 0, 0, 0
    while reps == 0 or (time.perf_counter() - t0) * (reps + 1) / reps <= seconds:
        reps += 1
        for model, check, train in jobs:
            runs.append(b.traced(model, check, train, check))
            code, out, w, _ = b.spawn([b.cli] + check_args(model, check, jobs="1"))
            wall += w
            attempted += len(check)
            failed += len(gate(parse_check_output(out) if code in (0, 3) else {}, refs[model]))
    m, pipeline_ns, c = layer_metrics(runs, reps)
    m["trace.coverage"] = pipeline_ns * c["events"] / 1e9 / wall
    info.update({"traced_events": c["events"] // reps, "traced_passes": reps})
    return attempted, failed, m, {}, info


def per_layer_fleet(b, s, sizes, runs, info, attempted, failed):
    """Offline layers over the stream pool (the work the daemon does for
    each stream), plus the daemons' own figures from the closed-loop
    runs. Coverage charges every pushed stream its client-side encode
    and one offline pipeline pass, over the wall time of both cores."""
    data = b.traced(s["model"], s["pool"], s["train"], s["pool"])
    m, pipeline_ns, _ = layer_metrics([data])
    pushes = [p for run in runs for p in run["pushes"]]
    encode_ms = dict(zip(s["pool"], encode_ms_per_root(data["spans"])))
    waits = [(p["end"] - p["start"]) * 1e3 - encode_ms[p["trace"]] for p in pushes]
    events = sum(sizes[p["trace"]] for p in pushes)
    wall = sum(run["t_exit"] - run["t_first"] for run in runs)
    cpu = sum(run["usage"].ru_utime + run["usage"].ru_stime for run in runs)
    layers_s = sum(encode_ms[p["trace"]] for p in pushes) / 1e3 + pipeline_ns * events / 1e9
    m.update({
        "serve.ack_wait_ms_p50": percentile(waits, 50),
        "serve.daemon_cpu_s_per_mevent": cpu / (events / 1e6),
        "serve.daemon_cpu_util": cpu / wall,
        "serve.journal_bytes_per_event": sum(run["wchar"] for run in runs) / events,
        "serve.drain_s": statistics.median(run["t_exit"] - run["t_shutdown"] for run in runs),
        "serve.reconnects": sum(run["reconnects"] for run in runs),
        "trace.coverage": layers_s / (os.cpu_count() * wall),
    })
    return attempted, failed, m, {}, info


# ---------------------------------------------------------------- main

WORKLOADS = {"churn": churn_workload, "commercial": commercial_workload,
             "fleet": fleet_workload}


def commit(root):
    """HEAD of the checkout, when it is a git work tree of its own."""
    if os.path.exists(os.path.join(root, ".git")):
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                           text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    return "unknown (not a git checkout)"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)
    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "Cargo.toml"))
            and os.path.isdir(os.path.join(root, "crates", "bench"))):
        print("perfbench: run from the root of a heapmd source checkout", file=sys.stderr)
        return 2
    work_root = os.path.join(root, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{a.workload}-", dir=work_root)
    try:
        b = Bench(root, work, a.seed)
        b.build()
        attempted, failed, metrics, report, info = WORKLOADS[a.workload](
            b, a.seconds, bool(a.trace))
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if a.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"perfbench: no measurement for {', '.join(missing)}", file=sys.stderr)
        return 1
    info.update({"workload": a.workload, "seed": a.seed, "seconds": a.seconds,
                 "trace": a.trace, "nproc": os.cpu_count(), "commit": commit(root)})
    print("# run " + json.dumps(info, sort_keys=True))
    for name, (value, unit) in report.items():
        print(f"# {a.workload} {name} = {value:.6g} {unit}")
    for name, unit in units.items():
        if name not in report:
            print(f"# {a.workload} {name} = {metrics[name]:.6g} {unit}")
    correct = attempted >= 1 and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
