"""Pipeline benchmark: `run-all` time, CPU, set-up time, memory, backend
requests and failed records, per workload, with a traced per-layer run.

    python3 perfbench/run.py --workload screen-7lang --seed 1 --seconds 30 --trace 0

Run from the repository root.  The run generates the workload from the
fixtures and the seed (workloads.py), then runs `run-all` repeatedly, each
time in a fresh interpreter (runner.py), until --seconds have passed, and at
least three times.  The HTTP workload's backends are a loopback stub in its
own process (stub.py).

Every repetition is checked: the exit code is the workload's expected one,
the report tables match the digest recorded in expected.json, and the report
tables and stage JSON Lines are byte-identical across repetitions (traced
ones included).  Manifests are not compared: they embed the config, and the
stub's port changes between runs.

With --trace 0 the end-to-end metrics of BENCHMARK.json are printed, each the
median over the repetitions; with --trace 1 untraced and traced repetitions
alternate and the per-layer metrics are printed, each the median over the
traced repetitions.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}, where attempted counts the
`run-all` invocations and failed those whose check failed.  The exit code is
0 when every check passed, 1 when one failed, 2 when the benchmark could not
run at all (for example outside a checkout of the repository).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"

MIN_UNTRACED = 3          # --trace 0
MIN_TRACE_UNTRACED = 2    # --trace 1: untraced baseline for the overhead
MIN_TRACED = 1
SETUP_PER_REP = 3          # --trace 0: set-up samples before each repetition
REP_TIMEOUT_S = 100.0

SETUP_PROGRAM = ("import sys\n"
                 "from vmweval import cli\n"
                 "cli.load_config(sys.argv[1])\n")


class BenchError(Exception):
    """The benchmark cannot run here."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


# --- stub --------------------------------------------------------------------

class Stub:
    """The loopback stub process and its control endpoints."""

    def __init__(self, spec: Path, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), "--spec", str(spec)],
            env=env, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "port":
            self.stop()
            raise BenchError("the stub did not start")
        self.url = f"http://127.0.0.1:{line[1]}"

    def _call(self, method: str, path: str) -> dict:
        request = urllib.request.Request(self.url + path, method=method,
                                         data=b"" if method == "POST" else None)
        with urllib.request.urlopen(request, timeout=10) as resp:
            return json.loads(resp.read())

    def reset(self):
        self._call("POST", "/_reset")

    def stats(self) -> dict:
        return self._call("GET", "/_stats")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


# --- outputs -----------------------------------------------------------------

def _digest(files: list[Path], base: Path) -> str:
    h = hashlib.sha256()
    for path in files:
        h.update(str(path.relative_to(base)).encode("utf-8") + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def output_digests(out: Path) -> tuple[str, str]:
    """(report tables, report tables + stage JSON Lines), manifests left out."""
    tables = sorted(p for p in (out / "report").glob("*")
                    if p.is_file() and p.name != "manifest.json")
    stage_files = sorted(out.glob("*.jsonl"))
    return _digest(tables, out), _digest(stage_files + tables, out)


def _read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def record_counts(out: Path) -> tuple[int, int]:
    """(records attempted, records failed) over classify..score.

    Classify, paraphrase and translate write one record per backend call,
    failed ones with an "error".  Score drops a failed QE call from its
    output, so its attempts and failures come from its manifest counts.
    """
    attempted = failed = 0
    for name in ("classifications", "paraphrases", "translations"):
        records = _read_jsonl(out / f"{name}.jsonl")
        attempted += len(records)
        failed += sum(1 for r in records if r.get("error"))
    manifest = json.loads((out / "scored.jsonl.manifest.json").read_text("utf-8"))
    counts = manifest["counts"]
    attempted += counts["qe_scores"] + counts["deltas"] + counts["transport_failures"]
    failed += counts["transport_failures"]
    return attempted, failed


# --- one repetition ------------------------------------------------------------

class Context:
    def __init__(self, work: Path, env: dict, expected: dict, stub: Stub | None):
        self.work = work
        self.env = env
        self.config = work / "inputs" / "config.yaml"
        self.expected = expected
        self.stub = stub
        self.tree_digest: str | None = None


def run_child(cmd: list[str], env: dict):
    """Run a child to completion: (exit code, wall seconds, its rusage).

    os.wait4 blocks until the child ends, so the wall time carries no
    polling delay; a timer kills a child that hangs.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=sys.stderr.fileno())
    timer = threading.Timer(REP_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def run_rep(ctx: Context, traced: bool) -> dict:
    rep_dir = Path(tempfile.mkdtemp(prefix="rep-", dir=ctx.work))
    out = rep_dir / "out"
    result_path = rep_dir / "result.json"
    if ctx.stub is not None:
        ctx.stub.reset()
    cmd = [sys.executable, str(HERE / "runner.py"), "--config", str(ctx.config),
           "--out", str(out), "--result", str(result_path)]
    if traced:
        cmd.append("--trace")
    code, wall, usage = run_child(cmd, ctx.env)
    rep = {"traced": traced, "process_s": wall,
           "cpu_s": usage.ru_utime + usage.ru_stime,
           "peak_rss_mb": usage.ru_maxrss / 1024.0, "problems": []}
    try:
        check_rep(ctx, rep, code, result_path, out)
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)
    return rep


def check_rep(ctx: Context, rep: dict, runner_code: int, result_path: Path,
              out: Path):
    problems = rep["problems"]
    if ctx.stub is not None:
        rep["stub"] = ctx.stub.stats()
    if runner_code != 0 or not result_path.is_file():
        problems.append(f"runner exited with {runner_code}")
        return
    result = json.loads(result_path.read_text("utf-8"))
    rep["run_all_s"] = result["run_all_s"]
    rep["backend_calls"] = result["backend_calls"]
    rep["trace"] = result.get("trace")
    if result["exit_code"] != ctx.expected["exit_code"]:
        problems.append(f"run-all exited {result['exit_code']}, "
                        f"expected {ctx.expected['exit_code']}")
    try:
        report, tree = output_digests(out)
        rep["attempted_records"], rep["failed_records"] = record_counts(out)
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"unreadable outputs: {exc}")
        return
    if report != ctx.expected["report_sha256"]:
        problems.append(f"report tables digest {report} differs from expected.json")
    if ctx.tree_digest is None:
        ctx.tree_digest = tree
    elif tree != ctx.tree_digest:
        problems.append("outputs differ from the first repetition")


# --- metrics ---------------------------------------------------------------------

def measure_setup(ctx: Context) -> float:
    """Wall time of a fresh interpreter importing vmweval.cli and loading
    the workload's config."""
    code, elapsed, _ = run_child(
        [sys.executable, "-c", SETUP_PROGRAM, str(ctx.config)], ctx.env)
    if code != 0:
        raise BenchError("importing vmweval.cli or loading the config failed")
    return elapsed


def rep_failed_frac(rep: dict) -> float:
    if rep["problems"]:
        return 1.0
    return rep["failed_records"] / rep["attempted_records"]


def rep_backend_requests(rep: dict) -> float:
    """Stub requests (retries included) on the HTTP workload; elsewhere the
    calls the pipeline made to the in-process mock backends."""
    if "stub" in rep:
        return rep["stub"]["requests"]
    return rep.get("backend_calls", 0)


def end_to_end(reps: list[dict], setup: list[float]) -> tuple[dict, dict]:
    """Medians of the end-to-end metrics, and the samples behind them."""
    ok = [r for r in reps if not r["problems"]] or reps
    values = {
        "run_all_s": [r.get("run_all_s", r["process_s"]) for r in ok],
        "cpu_s": [r["cpu_s"] for r in ok],
        "setup_s": setup,
        "peak_rss_mb": [r["peak_rss_mb"] for r in ok],
        "backend_requests": [rep_backend_requests(r) for r in ok],
        "failed_frac": [rep_failed_frac(r) for r in reps],
    }
    return {name: statistics.median(v) for name, v in values.items()}, values


def per_layer(reps: list[dict]) -> tuple[dict, dict, list]:
    """Medians of the per-layer metrics over the traced repetitions, the
    latency tails' annotations and the absent trace targets."""
    traced = [r for r in reps if r["traced"] and r.get("trace")]
    untraced = [r["run_all_s"] for r in reps if not r["traced"] and "run_all_s" in r]
    if not traced or not untraced:
        return {}, {}, []
    names = traced[0]["trace"]["metrics"].keys()
    metrics = {n: statistics.median(r["trace"]["metrics"][n] for r in traced)
               for n in names}
    for key in ("requests", "connections", "status_503"):
        metrics[f"stub.{key}"] = statistics.median(
            r.get("stub", {}).get(key, 0) for r in traced)
    base = statistics.median(untraced)
    metrics["trace.overhead_frac"] = (metrics["trace.run_all_s"] - base) / base
    return metrics, traced[-1]["trace"]["tails"], traced[-1]["trace"]["absent"]


# --- main ----------------------------------------------------------------------

def run_reps(ctx: Context, seconds: float, trace: bool,
             setup: list[float]) -> list[dict]:
    """Repeat run-all until `seconds` have passed.  Untraced, each
    repetition is preceded by SETUP_PER_REP set-up samples, so they spread
    over the run as the repetitions do."""
    reps: list[dict] = []
    start = time.perf_counter()
    while True:
        n_traced = sum(1 for r in reps if r["traced"])
        n_untraced = len(reps) - n_traced
        if trace:
            short = n_untraced < MIN_TRACE_UNTRACED or n_traced < MIN_TRACED
        else:
            short = n_untraced < MIN_UNTRACED
        elapsed = time.perf_counter() - start
        longest = max((r["process_s"] for r in reps), default=0.0)
        if not short and elapsed + longest > seconds:
            break
        traced = trace and len(reps) % 2 == 1
        if not trace:
            setup.extend(measure_setup(ctx) for _ in range(SETUP_PER_REP))
        reps.append(run_rep(ctx, traced))
    return reps


def load_definition() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"missing {path.name}")
    return json.loads(path.read_text("utf-8"))


def check_checkout():
    needed = [ROOT / "src" / "vmweval" / "cli.py",
              workloads.FIXTURES / "corpus_25.conllu", workloads.VERB_LEMMAS]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise BenchError("not a checkout of the repository, missing "
                         + ", ".join(missing))


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def bench(args) -> int:
    definition = load_definition()
    check_checkout()
    expected = json.loads((HERE / "expected.json").read_text("utf-8"))
    expected = expected[args.workload][args.size]
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    env = child_env()
    stub = None
    try:
        sizes = workloads.generate(args.workload, args.seed, work / "inputs",
                                   args.size)
        if args.workload == "http-latency":
            stub = Stub(work / "inputs" / "stub.json", env)
            workloads.point_at_stub(work / "inputs", stub.url)
        ctx = Context(work, env, expected, stub)
        measure_setup(ctx)  # compiles bytecode; not a sample
        setup: list[float] = []
        reps = run_reps(ctx, args.seconds, bool(args.trace), setup)
    finally:
        if stub is not None:
            stub.stop()
        shutil.rmtree(work, ignore_errors=True)

    failed_reps = [r for r in reps if r["problems"]]
    print(f"workload {args.workload} ({args.size}), seed {args.seed}: "
          + ", ".join(f"{k} {v}" for k, v in sizes.items()))
    for i, rep in enumerate(reps):
        kind = "traced" if rep["traced"] else "untraced"
        line = (f"  run {i + 1} ({kind}): run_all_s "
                f"{_fmt(rep.get('run_all_s', float('nan')))}, cpu_s "
                f"{_fmt(rep['cpu_s'])}, peak_rss_mb {_fmt(rep['peak_rss_mb'])}")
        if "stub" in rep:
            line += f", stub {rep['stub']}"
        print(line)
        for problem in rep["problems"]:
            print(f"    CHECK FAILED: {problem}")

    metrics = {}
    if args.trace:
        values, tails, absent = per_layer(reps)
        specs = definition["per_layer"]
        for name in absent:
            print(f"  absent: {name} (reported as 0)")
    else:
        values, samples = end_to_end(reps, setup)
        tails, specs = {}, definition["end_to_end"]
    for spec in specs:
        name = spec["name"]
        if name not in values:
            raise BenchError(f"metric {name} was not measured")
        metrics[name] = {"value": values[name], "unit": spec["unit"]}
        line = f"{name} = {_fmt(values[name])} {spec['unit']}"
        if not args.trace:
            v = samples[name]
            line += f"  (median of {len(v)}, min {_fmt(min(v))}, max {_fmt(max(v))})"
        if name in tails:
            t = tails[name]
            line += f"  (p{t['percentile']:g} of n={t['n']}, {t['beyond']} beyond)"
        print(line)
    correct = not failed_reps and bool(reps)
    print(json.dumps({"correct": correct, "attempted": len(reps),
                      "failed": len(failed_reps), "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="tiny is the smoke-test size")
    args = parser.parse_args(argv)
    try:
        return bench(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
