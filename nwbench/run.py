#!/usr/bin/env python3
"""NWBench — the repository's end-to-end and per-layer benchmark.

    python3 nwbench/run.py --workload batch-xml|serve-mixed|admit-churn \\
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds nwquery, nwqueryd and
the benchmark's helper (nwbench_tool) from source into .bench_build/
(Release). Each run then generates the workload's inputs from --seed,
and either

  --trace 0  drives the real nwquery / nwqueryd binaries for about S
             seconds, checks every output, and reports the end-to-end
             metrics; or
  --trace 1  replays the same inputs through each layer's public
             functions with spans recorded (nwbench_tool layers) and
             reports the per-layer metrics.

The last stdout line is one JSON object {correct, attempted, failed,
metrics}; the lines before it carry the host/build fingerprint and the
workload's own figures. README.md maps every metric to its layer and
workload.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
BUILD = os.path.join(ROOT, ".bench_build", "nwbench")
sys.path.insert(0, BENCH)

import nwstats  # noqa: E402

NWQUERY = os.path.join(BUILD, "nw", "nwquery")
NWQUERYD = os.path.join(BUILD, "nw", "nwqueryd")
TOOL = os.path.join(BUILD, "nwbench_tool")

WORKLOADS = ("batch-xml", "serve-mixed", "admit-churn")
OPTIMIZED = ("Release", "RelWithDebInfo")

# Fixed settings of the workloads (README.md says why).
BATCH_THREADS = 4
DAEMON_THREADS = 2
SETUP_MIN, SETUP_MAX = 3, 9  # daemon start-ups per run (setup_s: median)
SETUP_BUDGET_S = 12       # ... beyond the minimum, while within this budget
ORACLE_BUDGET_S = 6       # time the one-shot oracle this long, twice a run
ORACLE_PASS_MB = 40       # ... over passes of at least this many MB
SERVE_FIXED_RATE = 400    # docs/s at which submit_p50/p99 are taken
SERVE_P99_LIMIT_MS = 25.0  # the p99 limit serve_max_rate must meet
SERVE_LADDER = [700, 840, 1008, 1210, 1452, 1742, 2090, 2508, 3010]
CHURN_RATE = 50           # docs/s beside the admission script
CHURN_ROUNDS = 2          # the script: ADMIT/RETIRE each template, twice
GENERATOR_LATE_MS = 5.0   # generator lateness p99 above this flags a run
WARM_TIMEOUT_S = 60.0


class BenchError(Exception):
    pass


def log(msg):
    print("nwbench: " + msg, file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# Build and fingerprint
# --------------------------------------------------------------------------

def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        raise BenchError("repository sources not found next to nwbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                    "--target", "nwquery", "nwqueryd", "nwbench_tool"],
                   check=True, stdout=sys.stderr)


def cmake_cache(key):
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def source_digest():
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for base, _, files in os.walk(os.path.join(ROOT, "src")):
        paths += [os.path.join(base, f) for f in files]
    for path in sorted(paths):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def fingerprint(workload, seed):
    """Host and build identity; refuses a non-optimized build."""
    tool_type = json.loads(subprocess.run(
        [TOOL, "info"], check=True, capture_output=True, text=True).stdout)
    build_type = cmake_cache("CMAKE_BUILD_TYPE")
    if build_type not in OPTIMIZED or tool_type["build_type"] not in OPTIMIZED:
        raise BenchError("refusing to report from a %r build" % build_type)
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f
                        if l.startswith("model name")), "")
    except OSError:
        pass
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        compiler = subprocess.run([compiler, "--version"], capture_output=True,
                                  text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True)
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "compiler": compiler,
        "build_type": build_type,
        "git_commit": commit.stdout.strip() if commit.returncode == 0
        else "none (not a git checkout)",
        "source_sha256": source_digest(),
    }


# --------------------------------------------------------------------------
# Processes
# --------------------------------------------------------------------------

class Proc:
    """A finished child: wall seconds, peak RSS (MB), exit code, stdout."""

    def __init__(self, wall, rss_mb, code, out):
        self.wall, self.rss_mb, self.code, self.out = wall, rss_mb, code, out


def reap(p):
    """Waits for `p` and returns (exit code, peak RSS in MB)."""
    _, status, usage = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, usage.ru_maxrss / 1024.0


def run_timed(args, cwd, timeout=120):
    """Runs `args` to completion; its stdout is returned as bytes."""
    with open(os.path.join(cwd, "stderr.log"), "ab") as err:
        t0 = time.monotonic()
        p = subprocess.Popen(args, cwd=cwd, stdout=subprocess.PIPE,
                             stderr=err)
        watchdog = threading.Timer(timeout, p.kill)
        watchdog.start()
        try:
            out = p.stdout.read()
            p.stdout.close()
            code, rss = reap(p)
        except BaseException:
            p.kill()
            p.wait()
            raise
        finally:
            watchdog.cancel()
        return Proc(time.monotonic() - t0, rss, code, out)


class Daemon:
    """One nwqueryd under test, serving on ./d.sock in the work dir."""

    def __init__(self, wd, bank):
        self.sock = os.path.join(wd, "d.sock")
        t0 = time.monotonic()
        self.proc = subprocess.Popen(
            [NWQUERYD, "--socket", "d.sock", "--queries", bank,
             "--threads", str(DAEMON_THREADS)],
            cwd=wd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True)
        watchdog = threading.Timer(WARM_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline()
        except BaseException:
            self.kill()
            raise
        finally:
            watchdog.cancel()
        self.setup_s = time.monotonic() - t0
        if not line.startswith("nwqueryd: serving"):
            self.kill()
            raise BenchError("nwqueryd did not start: %r" % line)
        self.rss_mb = None

    def connect(self):
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        s.connect(os.path.relpath(self.sock))
        return s

    def stop(self):
        """SHUTDOWN, then reap; returns the exit code."""
        try:
            with self.connect() as s:
                f = s.makefile("rw")
                f.write('{"op":"SHUTDOWN"}\n')
                f.flush()
                f.readline()
        except OSError:
            self.proc.kill()
        watchdog = threading.Timer(30, self.proc.kill)
        watchdog.start()
        self.proc.stdout.read()
        self.proc.stdout.close()
        code, self.rss_mb = reap(self.proc)
        watchdog.cancel()
        return code

    def kill(self):
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.stdout.close()
            reap(self.proc)


class Rpc:
    """A control connection speaking the daemon's line protocol."""

    def __init__(self, daemon):
        self.sock = daemon.connect()
        self.file = self.sock.makefile("rw")

    def __call__(self, request):
        self.file.write(json.dumps(request) + "\n")
        self.file.flush()
        line = self.file.readline()
        if not line:
            raise BenchError("daemon closed the control connection")
        return json.loads(line)

    def close(self):
        self.file.close()
        self.sock.close()


def start_daemons(wd, bank):
    """Starts nwqueryd SETUP_MIN to SETUP_MAX times (more while a start-up
    is cheap); all but the last are stopped at once. Returns (the serving
    daemon, setup seconds of every start-up)."""
    setups = []
    t0 = time.monotonic()
    while True:
        d = Daemon(wd, bank)
        setups.append(d.setup_s)
        spent = time.monotonic() - t0
        last = len(setups) >= SETUP_MAX or (
            len(setups) >= SETUP_MIN and
            spent * (len(setups) + 1) / len(setups) > SETUP_BUDGET_S)
        if last:
            return d, setups
        if d.stop() != 0:
            raise BenchError("nwqueryd exited non-zero on SHUTDOWN")


def load_args(rate, seconds, out):
    return [TOOL, "load", "--socket", "d.sock", "--requests",
            "requests.jsonl", "--out", out, "--rate", "%g" % rate,
            "--seconds", "%g" % seconds]


def read_load(path):
    """Rows of a load-generator output file (see src/load.cc)."""
    rows = []
    with open(path) as f:
        for line in f:
            _, doc, _, due, sent, recv, resp = \
                line.rstrip("\n").split("\t", 6)
            rows.append({"doc": int(doc), "due": int(due) / 1e6,
                         "sent": int(sent) / 1e6, "recv": int(recv) / 1e6
                         if int(recv) >= 0 else None, "resp": resp})
    return rows


def latency_figures(phase, late_p99):
    """SUBMIT latency figures of the fixed-rate phase. When the generator
    itself ran late, the latencies include its lag: they are moved under
    `unvalidated` instead of being reported as the system's."""
    latency = {"submit_p50_ms": phase["p50"], "submit_p99_ms": phase["p99"]}
    behind = late_p99 > GENERATOR_LATE_MS
    out = {
        "submit_samples": phase["n"],
        "submit_beyond_p99": phase["beyond_p99"],
        "generator_late_p99_ms": late_p99,
        "generator_behind": behind,
    }
    if behind:
        out["unvalidated"] = latency
    else:
        out.update(latency)
    return out


def phase_figures(rows, rate, seconds):
    """Latency (ms from the scheduled send), generator lateness and
    backlog growth of one open-loop phase. Unanswered requests count as
    infinitely late."""
    lat = [r["recv"] - r["due"] if r["recv"] is not None else float("inf")
           for r in rows]
    late = [max(0.0, r["sent"] - r["due"]) for r in rows if r["sent"] >= 0]
    series = nwstats.backlog_series(
        [(r["sent"], r["recv"]) for r in rows if r["sent"] >= 0],
        0.0, seconds * 1000.0, 50.0)
    summary = nwstats.latency_summary(lat)
    summary.update({
        "rate": rate,
        "late_p99": nwstats.percentile(late, 99) if late else 0.0,
        "backlog": series[::2],  # every 100 ms
        "growing": nwstats.backlog_growing(series, len(rows)),
    })
    return summary


# --------------------------------------------------------------------------
# Correctness: one-shot nwquery is the oracle for every daemon answer
# --------------------------------------------------------------------------

def parse_match_lines(out):
    """nwquery stdout → {label: [(match, pos)]} in query order."""
    docs = {}
    for line in out.decode().splitlines():
        label, verdict, _, _ = line.split("\t", 3)
        hit = verdict.startswith("MATCH@")
        docs.setdefault(label, []).append(
            (hit, int(verdict[6:]) if hit else None))
    return docs


class Oracle:
    """Per query list, every document's expected results, computed by
    one-shot `nwquery --opt all` per format (cached per query list)."""

    def __init__(self, wd, manifest):
        self.wd = wd
        self.docs = manifest["docs"]
        self.cache = {}

    def args(self, qfile, fmt, copies=1):
        """The one-shot command over the documents of one format, each
        listed `copies` times; None if the workload has none."""
        paths = [d["path"] for d in self.docs if d["format"] == fmt]
        if not paths:
            return None
        return [NWQUERY, "--opt", "all", "--format", fmt, qfile] + \
            paths * copies

    def run(self, qfile, fmt):
        """One one-shot run over the documents of one format."""
        args = self.args(qfile, fmt)
        if args is None:
            return None
        p = run_timed(args, self.wd)
        if p.code != 0:
            raise BenchError("oracle nwquery failed (%d)" % p.code)
        return p

    def results(self, queries):
        key = tuple(queries)
        if key not in self.cache:
            qfile = "oracle-%d.nwq" % len(self.cache)
            with open(os.path.join(self.wd, qfile), "w") as f:
                f.write("".join(q + "\n" for q in queries))
            expected = {}
            for fmt in ("xml", "json", "trace"):
                p = self.run(qfile, fmt)
                if p is None:
                    continue
                lines = parse_match_lines(p.out)
                for i, d in enumerate(self.docs):
                    if d["path"] in lines:
                        expected[i] = lines[d["path"]]
            self.cache[key] = expected
        return self.cache[key]


def check_submits(rows, oracle):
    """Counts SUBMIT answers that are missing, refused or differ from the
    oracle over the answering epoch's own query list."""
    failed = 0
    for r in rows:
        if r["recv"] is None:
            failed += 1
            continue
        resp = json.loads(r["resp"])
        if not resp.get("ok"):
            failed += 1
            continue
        queries = [x["query"] for x in resp["results"]]
        got = [(x["match"], x.get("pos")) for x in resp["results"]]
        if oracle.results(queries).get(r["doc"]) != got:
            failed += 1
    return failed


def write_tiny(wd):
    """A one-element document for start-up-only runs."""
    with open(os.path.join(wd, "tiny.xml"), "w") as f:
        f.write("<a></a>")
    return "tiny.xml"


def run_concurrent(args, cwd, n, timeout=120):
    """Runs `n` copies of `args` at once, output discarded; returns the
    wall seconds until the last has ended."""
    procs = []
    with open(os.path.join(cwd, "stderr.log"), "ab") as err:
        t0 = time.monotonic()
        try:
            for _ in range(n):
                procs.append(subprocess.Popen(args, cwd=cwd, stderr=err,
                                              stdout=subprocess.DEVNULL))
            codes = [p.wait(timeout=timeout) for p in procs]
        finally:
            for p in procs:
                if p.poll() is None:
                    p.kill()
                    p.wait()
        wall = time.monotonic() - t0
    if any(codes):
        raise BenchError("one-shot nwquery failed (%s)" % codes)
    return wall


def throughput_passes(wd, oracle, manifest, evals):
    """Times one-shot `nwquery --opt all` (the oracle's path) over the
    workload's documents for ORACLE_BUDGET_S, at least 3 passes. A pass
    runs, per format, BATCH_THREADS copies at once, each over the document
    list repeated to at least ORACLE_PASS_MB so start-up and file costs do
    not dominate; less the wall of as many start-up-only runs at once.
    Appends each pass's evaluation seconds to `evals`; returns the MB per
    pass."""
    tiny = write_tiny(wd)
    corpus_mb = sum(d["bytes"] for d in manifest["docs"]) / 1e6
    copies = max(1, math.ceil(ORACLE_PASS_MB / corpus_mb))
    runs = [a for a in (oracle.args("bank.nwq", fmt, copies)
                        for fmt in ("xml", "json", "trace")) if a]
    t_end = time.monotonic() + ORACLE_BUDGET_S
    first = len(evals)
    while time.monotonic() < t_end or len(evals) - first < 3:
        setup = run_concurrent([NWQUERY, "--opt", "all", "bank.nwq", tiny],
                               wd, BATCH_THREADS)
        evals.append(sum(max(1e-6, run_concurrent(a, wd, BATCH_THREADS) -
                             setup) for a in runs))
    return BATCH_THREADS * corpus_mb * copies


# --------------------------------------------------------------------------
# Workloads (end-to-end, tracing off)
# --------------------------------------------------------------------------

def run_batch(wd, manifest, seconds):
    docs = [d["path"] for d in manifest["docs"]]
    train = [d["path"] for d in manifest["train"]]
    total_mb = sum(d["bytes"] for d in manifest["docs"]) / 1e6
    tiny = write_tiny(wd)
    base = [NWQUERY, "--opt", "all", "--freeze=" + ",".join(train)]

    # Correctness reference: the same inputs at one thread.
    ref = run_timed(base + ["--threads", "1", "bank.nwq"] + docs, wd)
    if ref.code != 0:
        raise BenchError("reference nwquery run failed (%d)" % ref.code)
    expected = parse_match_lines(ref.out)
    if len(expected) != len(docs):
        raise BenchError("reference run reported %d of %d documents"
                         % (len(expected), len(docs)))

    setups, walls, rss = [], [], []
    attempted = failed = 0
    t_end = time.monotonic() + seconds
    while time.monotonic() < t_end or len(walls) < 3:
        s = run_timed(base + ["--threads", str(BATCH_THREADS), "bank.nwq",
                              tiny], wd)
        if s.code != 0:
            raise BenchError("set-up nwquery run failed (%d)" % s.code)
        setups.append(s.wall)
        p = run_timed(base + ["--threads", str(BATCH_THREADS), "bank.nwq"]
                      + docs, wd)
        attempted += len(docs)
        got = parse_match_lines(p.out) if p.code == 0 else {}
        failed += sum(1 for d in docs if got.get(d) != expected[d])
        walls.append(p.wall)
        rss.append(p.rss_mb)
    setup_s = statistics.median(setups)
    eval_s = statistics.median(walls) - setup_s
    figures = {
        "batch_runs": len(walls),
        "batch_eval_s": eval_s,
        "corpus_mb": total_mb,
        "failed_frac": failed / attempted,
    }
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "batch_mb_per_s": (total_mb / eval_s, "MB/s"),
    }
    return attempted, failed, metrics, figures


def run_serve(wd, manifest, seconds):
    # batch_mb_per_s is timed before the daemon starts and again after
    # it stops, so the run's median spans the whole run.
    oracle = Oracle(wd, manifest)
    evals = []
    throughput_passes(wd, oracle, manifest, evals)
    daemon, setups = start_daemons(wd, "bank.nwq")
    phases = []
    try:
        # Fixed-rate phase: submit_p50/p99, then the rate ladder, rung by
        # rung, until a rung misses the p99 limit or the budget is spent.
        fixed_s = 0.3 * seconds
        rung_s = 0.075 * seconds
        subprocess.run(load_args(SERVE_FIXED_RATE, fixed_s, "fixed.tsv"),
                       cwd=wd, check=True, timeout=fixed_s + 90)
        rows = read_load(os.path.join(wd, "fixed.tsv"))
        fixed = phase_figures(rows, SERVE_FIXED_RATE, fixed_s)
        all_rows = list(rows)
        t_end = time.monotonic() + seconds - fixed_s
        for i, rate in enumerate(SERVE_LADDER):
            if time.monotonic() + rung_s > t_end:
                break
            out = "rung-%d.tsv" % i
            subprocess.run(load_args(rate, rung_s, out), cwd=wd, check=True,
                           timeout=rung_s + 90)
            rows = read_load(os.path.join(wd, out))
            all_rows += rows
            fig = phase_figures(rows, rate, rung_s)
            phases.append(fig)
            if fig["p99"] > SERVE_P99_LIMIT_MS or fig["growing"]:
                break
    finally:
        code = daemon.stop()
    if code != 0:
        raise BenchError("nwqueryd exited %d" % code)

    pass_mb = throughput_passes(wd, oracle, manifest, evals)
    failed = check_submits(all_rows, oracle)
    max_rate = nwstats.ladder_max_rate(
        [(SERVE_FIXED_RATE, fixed["p99"], fixed["growing"])] +
        [(f["rate"], f["p99"], f["growing"]) for f in phases],
        SERVE_P99_LIMIT_MS)
    # Generator validity over the phases whose latency is reported: the
    # fixed-rate phase and the rungs that met the limit.
    passed = [f for f in phases
              if f["p99"] <= SERVE_P99_LIMIT_MS and not f["growing"]]
    late = max(f["late_p99"] for f in [fixed] + passed)
    figures = latency_figures(fixed, late)
    figures.update({
        "serve_max_rate": max_rate,
        "serve_p99_limit_ms": SERVE_P99_LIMIT_MS,
        "fixed_backlog": fixed["backlog"],
        "ladder": [{k: f[k] for k in ("rate", "n", "p50", "p99", "late_p99",
                                      "backlog", "growing")}
                   for f in phases],
        "failed_frac": failed / len(all_rows),
    })
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (daemon.rss_mb, "MB"),
        "batch_mb_per_s": (pass_mb / statistics.median(evals), "MB/s"),
    }
    return len(all_rows), failed, metrics, figures


def await_warm(rpc, after):
    """Polls STATS until a refreshed epoch newer than `after` serves."""
    deadline = time.monotonic() + WARM_TIMEOUT_S
    while time.monotonic() < deadline:
        stats = rpc({"op": "STATS"})["stats"]
        if stats["epoch"] > after and stats["refreshed"]:
            return True
        time.sleep(0.005)
    return False


def run_churn(wd, manifest, seconds):
    # batch_mb_per_s is timed before the daemon starts and again after
    # it stops, so the run's median spans the whole run.
    oracle = Oracle(wd, manifest)
    evals = []
    throughput_passes(wd, oracle, manifest, evals)
    daemon, setups = start_daemons(wd, "bank.nwq")
    acks, admit_warm, retire_warm = [], 0.0, 0.0
    ops_failed = 0
    script = manifest["admit"] * CHURN_ROUNDS
    try:
        load = subprocess.Popen(load_args(CHURN_RATE, seconds, "churn.tsv"),
                                cwd=wd)
        try:
            rpc = Rpc(daemon)
            time.sleep(0.5)  # the stream is flowing before the first ADMIT
            for query in script:
                t0 = time.monotonic()
                r = rpc({"op": "ADMIT", "query": query})
                acks.append(time.monotonic() - t0)
                if not r.get("ok") or not await_warm(rpc, r["epoch"]):
                    ops_failed += 1
                    break
                admit_warm += time.monotonic() - t0
                t0 = time.monotonic()
                r = rpc({"op": "RETIRE", "qid": r["qid"]})
                acks.append(time.monotonic() - t0)
                if not r.get("ok") or not await_warm(rpc, r["epoch"]):
                    ops_failed += 1
                    break
                retire_warm += time.monotonic() - t0
            rpc.close()
            code = load.wait(timeout=seconds + 120)
        except BaseException:
            load.kill()
            load.wait()
            raise
        if code != 0:
            raise BenchError("load generator failed")
    finally:
        code = daemon.stop()
    if code != 0:
        raise BenchError("nwqueryd exited %d" % code)

    rows = read_load(os.path.join(wd, "churn.tsv"))
    fig = phase_figures(rows, CHURN_RATE, seconds)
    pass_mb = throughput_passes(wd, oracle, manifest, evals)
    failed = check_submits(rows, oracle) + ops_failed
    attempted = len(rows) + 2 * len(script)
    figures = latency_figures(fig, fig["late_p99"])
    figures.update({
        "admit_ack_ms": 1000.0 * sum(acks) / max(1, len(acks)),
        "admit_to_warm_s": admit_warm,
        "retire_to_warm_s": retire_warm,
        "script": script,
        "backlog": fig["backlog"],
        "failed_frac": failed / attempted,
    })
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (daemon.rss_mb, "MB"),
        "batch_mb_per_s": (pass_mb / statistics.median(evals), "MB/s"),
    }
    return attempted, failed, metrics, figures


# --------------------------------------------------------------------------
# Traced run (per-layer)
# --------------------------------------------------------------------------

def run_layers(wd, workload, seed):
    p = run_timed([TOOL, "layers", "--workload", workload, "--seed",
                   str(seed), "--spans", "spans.jsonl"], wd, timeout=170)
    if p.code != 0:
        raise BenchError("nwbench_tool layers failed (%d)" % p.code)
    report = json.loads(p.out.decode().splitlines()[-1])
    spans = []
    with open(os.path.join(wd, "spans.jsonl")) as f:
        for line in f:
            spans.append(json.loads(line))
    self_ns = nwstats.self_time_by_name(spans)
    metrics = {name: (v["value"], v["unit"])
               for name, v in report["metrics"].items()}
    figures = {
        "spans": len(spans),
        "span_self_ms": {k: v / 1e6 for k, v in sorted(self_ns.items())},
        "checks": report["checks"],
    }
    return report["attempted"], report["failed"], metrics, figures


# --------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # A terminated run still stops the daemon it started (the finally
    # blocks below run on SystemExit).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    try:
        build()
        print("fingerprint: " + json.dumps(fingerprint(args.workload,
                                                       args.seed)))
        wd = os.path.join(BUILD, "work", "%s-%d-%d" % (args.workload,
                                                       args.seed, args.trace))
        shutil.rmtree(wd, ignore_errors=True)
        os.makedirs(wd)
        try:
            if args.trace:
                attempted, failed, metrics, figures = run_layers(
                    wd, args.workload, args.seed)
            else:
                subprocess.run([TOOL, "gen", "--workload", args.workload,
                                "--seed", str(args.seed), "--out", wd],
                               check=True)
                with open(os.path.join(wd, "manifest.json")) as f:
                    manifest = json.load(f)
                runner = {"batch-xml": run_batch, "serve-mixed": run_serve,
                          "admit-churn": run_churn}[args.workload]
                attempted, failed, metrics, figures = runner(
                    wd, manifest, args.seconds)
        finally:
            shutil.rmtree(wd, ignore_errors=True)
    except (BenchError, subprocess.SubprocessError, OSError) as e:
        log("failed: %s" % e)
        return 1
    print("figures: " + json.dumps(figures))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
