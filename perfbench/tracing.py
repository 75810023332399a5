"""Spans around vmweval's public functions, installed from outside the package.

`Tracer.install` replaces module and class attributes with wrappers that
record a span (name, start, end, parent, thread) per call, or for hot
helpers only a call count and total time.  Nothing in `src/vmweval`
changes.  A target that no longer exists is listed as absent.

The parent of a call made on a worker thread, which starts with an empty
stack, is the pipeline stage that was running when the call began.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import math
import threading
import time

# (metric name, module, attribute path)
SPAN_TARGETS = [
    ("cli.stage_extract", "vmweval.cli", "stage_extract"),
    ("cli.stage_classify", "vmweval.cli", "stage_classify"),
    ("cli.stage_paraphrase", "vmweval.cli", "stage_paraphrase"),
    ("cli.stage_translate", "vmweval.cli", "stage_translate"),
    ("cli.stage_score", "vmweval.cli", "stage_score"),
    ("cli.stage_report", "vmweval.cli", "stage_report"),
    ("cli.read_jsonl", "vmweval.cli", "read_jsonl"),
    ("cli.write_jsonl", "vmweval.cli", "write_jsonl"),
    ("cli.write_manifest", "vmweval.cli", "write_manifest"),
    ("corpus.load_corpus", "vmweval.corpus", "load_corpus"),
    ("corpus.by_id", "vmweval.corpus", "Corpus.by_id"),
    ("lexicon.load_idiom_lexicon", "vmweval.lexicon", "load_idiom_lexicon"),
    ("lexicon.ordered", "vmweval.lexicon", "IdiomLexicon.ordered"),
    ("extract.match_idioms", "vmweval.extract", "match_idioms"),
    ("extract.sample_non_vmwe", "vmweval.extract", "sample_non_vmwe"),
    ("llm.classify_candidate", "vmweval.llm", "classify_candidate"),
    ("llm.paraphrase_candidate", "vmweval.llm", "paraphrase_candidate"),
    ("mt.translate", "vmweval.mt", "translate"),
    ("mt.validate_translation", "vmweval.mt", "validate_translation"),
    ("mt.detect_language", "vmweval.mt", "detect_language"),
    ("qe.score", "vmweval.qe", "score"),
    ("report.emit", "vmweval.report", "emit"),
]

# Called millions of times: counted, not recorded one span per call.
# bleu4 is wrapped where extract looks it up, so only extraction counts.
COUNTER_TARGETS = [
    ("stats.bleu4", "vmweval.extract", "bleu4"),
]

STAGES = ("extract", "classify", "paraphrase", "translate", "score", "report")
BACKEND_CALLS = ("llm.classify_candidate", "llm.paraphrase_candidate",
                 "mt.translate", "qe.score")


def _translate_key(args, kwargs):
    backend, text, lang = args[:3]
    return (backend.system_id, lang, text)


def _score_key(args, kwargs):
    backend, source, hypothesis = args[:3]
    return (backend.metric_id, source, hypothesis)


# Request identity for the duplicate share: unique keys / calls.
KEYS = {"mt.translate": _translate_key, "qe.score": _score_key}


class Tracer:
    def __init__(self):
        # (id, name, start, end, parent id, thread id, raised, key)
        self.spans: list[tuple] = []
        self.counters: dict[str, list] = {}
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._stage: int | None = None
        self._patches: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self):
        for name, module, attr in SPAN_TARGETS:
            self._patch(name, module, attr, self._span_wrapper)
        for name, module, attr in COUNTER_TARGETS:
            self.counters[name] = [0, 0.0]
            self._patch(name, module, attr, self._counter_wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, name, module, attr, make_wrapper):
        try:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
        except (ImportError, AttributeError):
            self.absent.append(name)
            return
        self._patches.append((owner, leaf, original))
        setattr(owner, leaf, make_wrapper(name, original))

    def _span_wrapper(self, name, fn):
        is_stage = name.startswith("cli.stage_")
        key_fn = KEYS.get(name)
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if stack:
                parent = stack[-1]
            elif threading.current_thread() is not self._main:
                parent = self._stage
            else:
                parent = None
            span_id = next(self._ids)
            stack.append(span_id)
            if is_stage:
                outer_stage, self._stage = self._stage, span_id
            raised = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if is_stage:
                    self._stage = outer_stage
                key = None
                if key_fn is not None:
                    try:
                        key = key_fn(args, kwargs)
                    except (AttributeError, IndexError, ValueError):
                        key = None
                self.spans.append((span_id, name, start, end, parent,
                                   threading.get_ident(), raised, key))

        return wrapper

    def _counter_wrapper(self, name, fn):
        counter = self.counters[name]
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                counter[0] += 1
                counter[1] += perf_counter() - start

        return wrapper

    # -- summary ------------------------------------------------------------

    def summary(self, run_all_s: float, vid_candidates: int) -> dict:
        """Per-layer metrics as {name: value}, plus "absent" and "tails"."""
        by_name: dict[str, list[tuple]] = {}
        children: dict[int, list[tuple[float, float]]] = {}
        parent_of: dict[int, int | None] = {}
        name_of: dict[int, str] = {}
        for span in self.spans:
            span_id, name, start, end, parent = span[:5]
            by_name.setdefault(name, []).append(span)
            parent_of[span_id] = parent
            name_of[span_id] = name
            if parent is not None:
                children.setdefault(parent, []).append((start, end))

        def total(name):
            return sum(s[3] - s[2] for s in by_name.get(name, ()))

        def stage_of(span_id):
            while span_id is not None:
                if name_of[span_id].startswith("cli.stage_"):
                    return name_of[span_id]
                span_id = parent_of.get(span_id)
            return None

        m: dict[str, float] = {}
        backend_time: dict[str, float] = {}
        for name in BACKEND_CALLS:
            for span in by_name.get(name, ()):
                stage = stage_of(span[4])
                backend_time[stage] = backend_time.get(stage, 0.0) + span[3] - span[2]
        stage_wall = 0.0
        for stage in STAGES:
            name = f"cli.stage_{stage}"
            spans = by_name.get(name, ())
            wall = total(name)
            stage_wall += wall
            m[f"{name}.s"] = sum(
                (s[3] - s[2]) - _covered(s[2], s[3], children.get(s[0], []))
                for s in spans)
            m[f"{name}.wall_s"] = wall
            if stage in ("classify", "paraphrase", "translate", "score"):
                m[f"{name}.overlap"] = backend_time.get(name, 0.0) / wall if wall else 0.0
        for name in ("cli.read_jsonl", "cli.write_jsonl", "cli.write_manifest",
                     "lexicon.load_idiom_lexicon", "extract.sample_non_vmwe"):
            m[f"{name}.s"] = total(name)
        for name in ("corpus.load_corpus", "corpus.by_id", "lexicon.ordered",
                     "extract.match_idioms", "mt.validate_translation",
                     "mt.detect_language", "report.emit"):
            m[f"{name}.calls"] = len(by_name.get(name, ()))
            m[f"{name}.s"] = total(name)
        calls, seconds = self.counters.get("stats.bleu4", (0, 0.0))
        m["stats.bleu4.calls"] = calls
        m["stats.bleu4.s"] = seconds
        m["extract.vid_candidates"] = vid_candidates
        m["extract.vid_yield"] = vid_candidates / calls if calls else 0.0

        tails = {}
        for name in BACKEND_CALLS:
            spans = by_name.get(name, ())
            durations = sorted((s[3] - s[2]) * 1000.0 for s in spans)
            m[f"{name}.calls"] = len(durations)
            m[f"{name}.failures"] = sum(1 for s in spans if s[6])
            m[f"{name}.p50_ms"] = _percentile(durations, 50.0)
            pct, value, beyond = _tail(durations)
            m[f"{name}.tail_ms"] = value
            tails[f"{name}.tail_ms"] = {"percentile": pct, "n": len(durations),
                                        "beyond": beyond}
            if name in KEYS:
                keys = [s[7] for s in spans if s[7] is not None]
                m[f"{name}.unique_share"] = len(set(keys)) / len(keys) if keys else 0.0
        m["qe.score.serial_s"] = sum(
            s[3] - s[2] for s in by_name.get("qe.score", ())
            if s[5] == self._main.ident)
        m["trace.run_all_s"] = run_all_s
        m["trace.uncovered_s"] = run_all_s - stage_wall
        return {"metrics": m, "absent": list(self.absent), "tails": tails}


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of `intervals`."""
    covered, reach = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            covered += b - a
            reach = b
    return covered


def _percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def _tail(sorted_values: list[float]) -> tuple[float, float, int]:
    """Highest of p99.9/p99/p95/p90/p75/p50 with at least 10 samples beyond.

    With too few samples for any of them, the median is given.
    Returns (percentile, value, samples beyond it).
    """
    n = len(sorted_values)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        beyond = n - max(1, math.ceil(pct / 100.0 * n))
        if beyond >= 10:
            return pct, _percentile(sorted_values, pct), beyond
    beyond = n - max(1, math.ceil(0.5 * n)) if n else 0
    return 50.0, _percentile(sorted_values, 50.0), beyond
