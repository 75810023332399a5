#!/usr/bin/env python3
"""Rebuild src/vmweval/data/lang_profiles.json from the sample corpora.

    python3 scripts/build_language_profiles.py [--check]

Run from the repository root after editing scripts/language_samples/.  Per
language, the file holds the sample's trigram `total`, the TOP_K most
frequent trigrams (ties by trigram) concatenated in sorted order as `grams`,
and their `counts`.  With --check nothing is written: the exit code is 1
when the shipped file differs from what the samples give, else 0.
"""
import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from vmweval.mt import _trigram_counts  # noqa: E402

TOP_K = 400
SAMPLES = ROOT / "scripts/language_samples"
OUT = ROOT / "src/vmweval/data/lang_profiles.json"


def build() -> str:
    """The profile file's text, from the samples."""
    profiles = {}
    for path in sorted(SAMPLES.glob("*.txt")):
        counts = _trigram_counts(path.read_text(encoding="utf-8"))
        top = sorted(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:TOP_K])
        profiles[path.stem] = {"total": sum(counts.values()),
                               "grams": "".join(gram for gram, _ in top),
                               "counts": [n for _, n in top]}
        print(f"{path.stem}: {len(counts)} trigrams, kept {len(top)}")
    return json.dumps(profiles, ensure_ascii=False, sort_keys=True) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if the shipped file is out of date")
    args = parser.parse_args(argv)
    text = build()
    if args.check:
        if OUT.read_text(encoding="utf-8") != text:
            print(f"{OUT} differs from the samples; rebuild it", file=sys.stderr)
            return 1
        print(f"{OUT} is up to date")
        return 0
    OUT.write_text(text, encoding="utf-8")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
