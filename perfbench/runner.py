"""One `run-all` in a fresh interpreter, optionally traced.

    PYTHONPATH=src python3 perfbench/runner.py --config C --out DIR --result R [--trace]

Writes {"exit_code", "run_all_s", "backend_calls"} to R, where run_all_s is
the wall time of the `cli.main(["run-all", ...])` call alone and
backend_calls counts the calls made to the package's in-process mock
backends (0 when every backend is `mode: http`).  With --trace the public
functions of each vmweval module are wrapped first (see tracing.py) and R
also holds the per-layer summary.  Nothing is written into DIR but the
pipeline's own outputs.
"""
from __future__ import annotations

import argparse
import functools
import importlib
import itertools
import json
import sys
import time
from pathlib import Path


# The mock backends' request methods; a name that no longer exists is skipped.
MOCK_METHODS = [("vmweval.llm", "MockChatBackend", "complete"),
                ("vmweval.mt", "MockMTBackend", "translate_text"),
                ("vmweval.qe", "MockQEBackend", "assess")]


def count_mock_calls():
    """Wrap the mock backends' request methods with a call counter; returns
    a function that reads the count."""
    counter = itertools.count()
    for module, cls, attr in MOCK_METHODS:
        owner = getattr(importlib.import_module(module), cls, None)
        method = getattr(owner, attr, None)
        if method is None:
            continue

        def wrapper(*args, _method=method, **kwargs):
            next(counter)
            return _method(*args, **kwargs)

        setattr(owner, attr, functools.wraps(method)(wrapper))
    return lambda: next(counter)


def count_vid(candidates: Path) -> int:
    if not candidates.is_file():
        return 0
    with open(candidates, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip()
                   and json.loads(line).get("category") == "VID")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one traced or untraced run-all")
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    from vmweval import cli

    mock_calls = count_mock_calls()
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    exit_code = cli.main(["run-all", "--config", args.config,
                          "--stage-out", args.out])
    run_all_s = time.perf_counter() - start
    result = {"exit_code": exit_code, "run_all_s": run_all_s,
              "backend_calls": mock_calls()}
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary(
            run_all_s, count_vid(Path(args.out) / "candidates.jsonl"))
    Path(args.result).write_text(json.dumps(result), "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
