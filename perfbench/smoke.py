"""Tiny-size smoke run of every workload, so the harness does not rot.

    python3 perfbench/smoke.py

Runs perfbench/run.py on each workload at --size tiny, once untraced and
once traced, and checks that each run exits 0, passes its output checks and
prints every metric BENCHMARK.json defines.  Exits 1 on the first failure.
Takes about half a minute.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    definition = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    for workload in (w["name"] for w in definition["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "7", "--seconds", "0", "--trace", str(trace),
                 "--size", "tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            wanted = {m["name"] for m in definition[group]}
            missing = wanted - set(result.get("metrics", {}))
            ok = done.returncode == 0 and result.get("correct") and not missing
            print(f"{'PASS' if ok else 'FAIL'}  {workload} --trace {trace}")
            if not ok:
                print(done.stdout + done.stderr, end="")
                if missing:
                    print(f"missing metrics: {sorted(missing)}")
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
