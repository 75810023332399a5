"""Staged command-line pipeline.

    extract -> classify -> paraphrase -> translate -> score -> report

Each stage takes its input records, writes its output as JSON Lines with a
manifest beside it (input hashes, config snapshot, record counts, seed;
nothing else non-deterministic) and returns the records.  A single-stage
command reads its inputs from such files, so a stage can be rerun or
inspected alone; `run-all` hands each stage's records to the next.

Exit codes: 0 success, 1 contract violation, 2 transport failures.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import yaml

from . import corpus as corpus_mod
from . import extract as extract_mod
from . import lexicon as lexicon_mod
from . import llm as llm_mod
from . import mt as mt_mod
from . import qe as qe_mod
from . import report as report_mod
from . import stats as stats_mod
from .errors import (ContractViolation, SchemaVersionError, TransportError,
                     UnparseableResponse)

SCHEMA_VERSION = report_mod.SCHEMA_VERSION


# --- config ------------------------------------------------------------------

_REQUIRED = object()

# numeric config key -> (kind, default, minimum); load_config checks each one
_NUMBERS = {
    ("concurrency",): (int, 4, 1),
    ("seed",): (int, 0, None),
    ("vid_threshold",): (float, extract_mod.DEFAULT_VID_THRESHOLD, None),
    ("control_sample", "n"): (int, 0, 0),
    ("repetition", "min_repeats"): (int, mt_mod.DEFAULT_MIN_REPEATS, 2),
    ("repetition", "max_unit"): (int, mt_mod.DEFAULT_MAX_UNIT, 1),
    ("exclusion", "flag_pct"): (float, report_mod.DEFAULT_FLAG_PCT, None),
    ("exclusion", "rank_exclude_pct"): (float, report_mod.DEFAULT_EXCLUDE_PCT, None),
}


@dataclass
class Config:
    raw: dict
    base: Path

    def path(self, value: str) -> Path:
        p = Path(value)
        return p if p.is_absolute() else self.base / p

    def get(self, *keys, default=_REQUIRED):
        """The value under `keys`, else `default`; a ContractViolation when
        there is neither or a node on the path is not a mapping."""
        node = self.raw
        for depth, key in enumerate(keys):
            if not isinstance(node, dict):
                raise ContractViolation(f"config {'.'.join(keys[:depth])} must be "
                                        f"a mapping, not {node!r}")
            if key not in node:
                if default is _REQUIRED:
                    raise ContractViolation(
                        f"config is missing {'.'.join(keys)}")
                return default
            node = node[key]
        return node

    def number(self, *keys):
        """The numeric key `keys` of _NUMBERS (or its default) as its kind; a
        ContractViolation when it is not one or is below its minimum."""
        kind, default, minimum = _NUMBERS[keys]
        value = self.get(*keys, default=default)
        name = ".".join(keys)
        try:
            number = kind(value)
        except (TypeError, ValueError):
            raise ContractViolation(
                f"config {name} must be {'an integer' if kind is int else 'a number'}, "
                f"not {value!r}") from None
        if minimum is not None and number < minimum:
            raise ContractViolation(
                f"config {name} must be at least {minimum}, not {value!r}")
        return number

    @property
    def corpus_path(self) -> Path:
        return self.path(self.get("corpus", "path"))

    @cached_property
    def corpus(self) -> corpus_mod.Corpus:
        """The corpus the config names, parsed once."""
        fmt = self.get("corpus", "format", default="conllu")
        return corpus_mod.load_corpus(_input_file(self.corpus_path), fmt)


def load_config(path: str | Path) -> Config:
    path = Path(path)
    if not path.is_file():
        raise ContractViolation(f"config file not found: {path}")
    with _text_input(path) as fh:
        try:
            # libyaml's parser when PyYAML was built with it; the same safe
            # constructor either way
            raw = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
        except yaml.YAMLError as exc:
            raise ContractViolation(f"config is not valid YAML: {path}: {exc}")
    if not isinstance(raw, dict):
        raise ContractViolation(f"config must be a mapping: {path}")
    config = Config(raw=raw, base=path.parent)
    for keys in _NUMBERS:
        config.number(*keys)
    config.get("classifier_eval", "gold", default=None)  # a mapping, if given
    _check_lists(config)
    return config


def _check_lists(config: Config):
    """A ContractViolation unless the lists the stages iterate have their
    shape: target_langs, the DA id lists and each backend's break_rules."""
    langs = config.get("target_langs", default=[])
    if not isinstance(langs, list):
        raise ContractViolation(
            f"config target_langs must be a list of language codes, not {langs!r}")
    bad = [lang for lang in langs if lang not in mt_mod.TARGET_LANGS]
    if bad:
        raise ContractViolation(f"unsupported target language(s): {bad}")
    if config.get("da", "annotations", default=None):
        for key in ("vmwe_ids", "control_ids"):
            ids = config.get("da", key)
            if not isinstance(ids, list) or not all(isinstance(i, str) for i in ids):
                raise ContractViolation(
                    f"config da.{key} must be a list of sentence ids, not {ids!r}")
    backends = config.get("backends", default={})
    for name, entry in backends.items() if isinstance(backends, dict) else ():
        rules = entry.get("break_rules") if isinstance(entry, dict) else None
        if rules is None:  # no rules, as MockMTBackend reads it
            continue
        if not isinstance(rules, list) or not all(isinstance(r, dict) for r in rules):
            raise ContractViolation(f"config backends.{name}.break_rules must be "
                                    f"a list of mappings, not {rules!r}")
        for rule in rules:
            if rule.get("failure") not in mt_mod.BREAK_FAILURES:
                raise ContractViolation(
                    f"config backends.{name}.break_rules has unknown failure "
                    f"{rule.get('failure')!r}; allowed: "
                    f"{', '.join(mt_mod.BREAK_FAILURES)}")


def _credential(cfg_entry: dict) -> str | None:
    env_name = cfg_entry.get("credential_env")
    if env_name is None:
        return None
    value = os.environ.get(env_name)
    if not value:
        raise ContractViolation(
            f"credential environment variable {env_name!r} is not set")
    return value


def build_backend(config: Config, name: str):
    entry = config.get("backends", name, default=None)
    if entry is None:
        raise ContractViolation(f"backend {name!r} is not defined in the config")
    kind = config.get("backends", name, "kind", default=None)  # entry is a mapping
    if kind not in ("llm", "mt", "qe"):
        raise ContractViolation(f"backend {name!r} has unknown kind {kind!r}")

    def need(key):
        return config.get("backends", name, key)

    mock = entry.get("mode", "http") == "mock"
    http = {} if mock else {"base_url": need("base_url"),
                            "api_key": _credential(entry),
                            "timeout": entry.get("timeout", 60.0)}
    if kind == "llm":
        if mock:
            return llm_mod.MockChatBackend.from_file(
                _input_file(config.path(need("script"))),
                model_id=entry.get("model_id", "mock-chat"))
        return llm_mod.HttpChatBackend(model_id=need("model_id"), **http)
    if kind == "mt":
        system_id = entry.get("system_id", name)
        if mock:
            return mt_mod.MockMTBackend(system_id=system_id,
                                        break_rules=entry.get("break_rules"))
        return mt_mod.HttpMTBackend(system_id=system_id, **http)
    orientation = need("orientation")
    try:
        orientation = stats_mod.Orientation(orientation)
    except ValueError:
        allowed = ", ".join(o.value for o in stats_mod.Orientation)
        raise ContractViolation(
            f"backends.{name}.orientation is {orientation!r}; "
            f"allowed: {allowed}") from None
    metric_id = entry.get("metric_id", name)
    if mock:
        return qe_mod.MockQEBackend(metric_id=metric_id, orientation=orientation)
    return qe_mod.HttpQEBackend(metric_id=metric_id, orientation=orientation,
                                **http)


# --- shared io ---------------------------------------------------------------

def _input_file(path: Path) -> Path:
    if not path.is_file():
        raise ContractViolation(f"missing input file: {path}")
    return path


@contextmanager
def _text_input(path: Path):
    """`path`, which must exist, open as UTF-8 text; a byte that is not
    UTF-8 is a ContractViolation naming the file."""
    with open(_input_file(path), encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ContractViolation(
                f"{path} is not UTF-8 text ({exc.reason})") from None


def read_jsonl(path: Path) -> list[dict]:
    records = []
    with _text_input(_stage_input(path)) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ContractViolation(
                    f"{path} line {line_no}: bad JSON record: {exc.msg} "
                    f"(column {exc.colno})")
            if not isinstance(record, dict):
                raise ContractViolation(
                    f"{path} line {line_no}: record is not a JSON object")
            records.append(record)
    return records


@contextmanager
def _replacing(path: Path):
    """A text file to write that replaces `path` only once the block
    completes; a failure leaves `path` as it was and no temp file behind."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# json.dumps(record, ensure_ascii=False) without a new encoder per record
_encode = json.JSONEncoder(ensure_ascii=False).encode


def write_jsonl(path: Path, records: list[dict]):
    with _replacing(path) as fh:
        for record in records:
            fh.write(_encode(record) + "\n")


_HASH_BLOCK = 1 << 16


def _sha256(path: Path) -> str:
    """Hex sha256 of the file at `path`, read a block at a time."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(_HASH_BLOCK):
            digest.update(block)
    return digest.hexdigest()


def _manifest_path(out: Path) -> Path:
    return out / "manifest.json" if out.is_dir() else Path(str(out) + ".manifest.json")


def _stage_input(path: Path) -> Path:
    """`path` once it exists and its manifest, if it has one, names this
    schema version."""
    manifest = Path(str(_input_file(path)) + ".manifest.json")
    if manifest.is_file():
        with _text_input(manifest) as fh:
            try:
                fields = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ContractViolation(f"{manifest} is not JSON: {exc}") from None
        if not isinstance(fields, dict):
            raise ContractViolation(f"{manifest} is not a JSON object")
        recorded = fields.get("schema_version")
        if recorded != SCHEMA_VERSION:
            raise SchemaVersionError(f"{path} was written under schema "
                                     f"{recorded}, expected {SCHEMA_VERSION}")
    return path


def write_manifest(out: Path, stage: str, config: Config, inputs: dict[str, Path],
                   counts: dict, seed):
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "stage": stage,
        "seed": seed,
        "inputs": {name: _sha256(path) for name, path in sorted(inputs.items())},
        "config": config.raw,
        "counts": counts,
    }
    text = json.dumps(manifest, ensure_ascii=False, sort_keys=True, indent=2)
    with _replacing(_manifest_path(out)) as fh:
        fh.write(text + "\n")


def _finish(config: Config, args, stage: str, out: Path, records: list[dict],
            inputs: dict[str, Path], counts: dict, kept: tuple = ()):
    """Write a stage's records and manifest, with each `kept` failure counted
    from the records; (exit code, records), the code 2 when a call failed in
    transport."""
    for _, tag, counter in kept:
        counts[counter] = sum(r.get("error") == tag for r in records)
    write_jsonl(out, records)
    write_manifest(out, stage, config, inputs, counts, _seed(config, args))
    return (2 if counts.get("transport_failures") else 0), records


def _map_ordered(fn, items, max_workers: int, key=None):
    """Run fn over items concurrently, (result, exc) pairs in input order.

    fn runs once per distinct key(item), by default its position, on the
    first item that has it; every item sharing the key gets that outcome.
    The calling thread and at most max_workers - 1 more take the distinct
    items in turn, so with one worker no thread starts.  A BaseException
    in any of them stops the others taking items and is raised here.
    """
    keys = [key(item) for item in items] if key is not None else range(len(items))
    first: dict = {}
    for k, item in zip(keys, items):
        first.setdefault(k, item)
    distinct = list(first.values())
    outcomes: list = [None] * len(distinct)
    taken = itertools.count()  # next() on it is atomic under the GIL
    aborted: list[BaseException] = []

    def work():
        try:
            for i in taken:
                if i >= len(distinct) or aborted:
                    return
                try:
                    outcomes[i] = (fn(distinct[i]), None)
                except Exception as exc:  # noqa: BLE001 - recorded per item
                    outcomes[i] = (None, exc)
        except BaseException as exc:  # re-raised by the calling thread
            aborted.append(exc)

    extra = [threading.Thread(target=work, daemon=True)
             for _ in range(min(max_workers, len(distinct)) - 1)]
    for thread in extra:
        thread.start()
    work()
    for thread in extra:
        thread.join()
    if aborted:
        raise aborted[0]
    by_key = dict(zip(first, outcomes))
    return [by_key[k] for k in keys]


# The failed backend calls a stage keeps as records: (error, record tag, count).
_KEPT_TRANSPORT = ((TransportError, "transport", "transport_failures"),)
_KEPT_LLM = ((UnparseableResponse, "unparseable", "undecided"), *_KEPT_TRANSPORT)


def _call_each(config: Config, call, jobs: list, ok, failed, kept: tuple,
               key=None) -> list[dict]:
    """One record per job, in order: ok(job, result) when call(job) worked,
    else failed(job, exc) with its `error` tag from `kept`, which must hold
    the failure's kind or it is re-raised.  Calls are shared by `key`."""
    records = []
    outcomes = _map_ordered(call, jobs, config.number("concurrency"), key=key)
    for job, (result, exc) in zip(jobs, outcomes):
        if exc is None:
            records.append(ok(job, result))
            continue
        tag = next((tag for kind, tag, _ in kept if isinstance(exc, kind)), None)
        if tag is None:
            raise exc
        records.append({**failed(job, exc), "error": tag})
    return records


def _load_lexicon(config: Config):
    idioms_path = config.path(config.get("lexicon", "idioms"))
    verbs_value = config.get("lexicon", "verb_lemmas", default=None)
    if verbs_value:
        with _text_input(config.path(verbs_value)) as fh:
            verb_lemmas = lexicon_mod.parse_verb_lemmas(fh.read())
    else:
        verb_lemmas = lexicon_mod.default_verb_lemmas()
    with _text_input(idioms_path) as fh:
        text = fh.read()
    # Split on "\n" alone, as iterating the file would: splitlines() also
    # splits on characters such as "\x85" and "\u2028" inside a line.
    lex = lexicon_mod.load_idiom_lexicon(text.split("\n"), verb_lemmas)
    return lex, idioms_path


def _categories(args) -> tuple[extract_mod.Category, ...]:
    if not args.category or args.category == "all":
        return tuple(extract_mod.Category)
    return (extract_mod.Category(args.category.upper()),)


def _seed(config: Config, args) -> int:
    return args.seed if args.seed is not None else config.number("seed")


# --- stages ------------------------------------------------------------------

def stage_extract(config: Config, args):
    """(exit code, candidates, control sentences or None without a sample)."""
    lex, idioms_path = _load_lexicon(config)
    light_verbs = lexicon_mod.light_verb_set(
        config.get("light_verbs", default="dataset_six"))
    threshold = config.number("vid_threshold")
    categories = _categories(args)
    n_controls = config.number("control_sample", "n")

    # Controls are the sentences no extractor matches, so with a control
    # sample every sentence goes through all three, once.
    scanned = tuple(extract_mod.Category) if n_controls else categories
    records = []
    clean = []
    for sentence in config.corpus:
        found = extract_mod.extract_all(sentence, lex, light_verbs,
                                        threshold, scanned)
        if not found:
            clean.append(sentence)
        records += [extract_mod.candidate_to_dict(cand) for cand in found
                    if cand.category in categories]

    inputs = {"corpus": config.corpus_path, "idioms": idioms_path}
    found_categories = [r["category"] for r in records]
    counts = {"candidates": len(records),
              **{c.value: found_categories.count(c.value)
                 for c in extract_mod.Category}}
    controls = None
    if n_controls:
        controls, shortfall = extract_mod.sample_sentences(
            clean, n_controls, _seed(config, args))
        controls_out = args.controls_out or args.stage_out.with_name(
            args.stage_out.stem + ".controls.jsonl")
        control_counts = {"controls": len(controls),
                          "controls_shortfall": shortfall}
        _finish(config, args, "extract", controls_out,
                [corpus_mod.sentence_to_dict(s) for s in controls],
                inputs, control_counts)
        counts.update(control_counts)
        if shortfall:
            print(f"warning: only {len(controls)} of {n_controls} requested "
                  f"control sentences qualify", file=sys.stderr)
    return (*_finish(config, args, "extract", args.stage_out, records, inputs,
                     counts), controls)


def stage_classify(config: Config, args, candidates: list[dict]):
    candidates = [extract_mod.candidate_from_dict(r) for r in candidates]
    wanted = set(_categories(args))
    candidates = [c for c in candidates if c.category in wanted]
    backend = build_backend(config, args.backend or config.get("pipeline", "llm"))
    jobs = [(cand.category, cand, config.corpus.by_id(cand.sentence_id))
            for cand in candidates]
    for _, cand, sentence in jobs:
        extract_mod.check_in_range(sentence, cand.token_indices())

    def record(job, verdict=None, raw_choice=None, raw_response=None):
        cand = job[1]
        return {"candidate_ref": cand.ref, "sentence_id": cand.sentence_id,
                "category": cand.category.value, "span": list(cand.span),
                "verdict": verdict, "raw_choice": raw_choice,
                "raw_response": raw_response}
    records = _call_each(
        config, lambda job: llm_mod.classify_candidate(backend, *job), jobs,
        lambda job, res: record(job, res.verdict, res.raw_choice, res.raw_response),
        lambda job, exc: record(job, raw_response=getattr(exc, "raw_response", None)),
        _KEPT_LLM)
    verdicts = [r["verdict"] for r in records]
    counts = {"total": len(candidates), "accepted": verdicts.count(True),
              "rejected": verdicts.count(False)}
    return _finish(config, args, "classify", args.stage_out, records,
                   {"candidates": args.stage_in, "corpus": config.corpus_path},
                   counts, _KEPT_LLM)


def stage_paraphrase(config: Config, args, classifications: list[dict]):
    wanted = {c.value for c in _categories(args)}
    accepted = [r for r in classifications
                if r.get("verdict") is True and r["category"] in wanted]
    backend = build_backend(config, args.backend or config.get("pipeline", "llm"))
    jobs = []
    for rec in accepted:
        sentence = config.corpus.by_id(rec["sentence_id"])
        jobs.append((rec, extract_mod.rebuild_candidate(
            sentence, extract_mod.Category(rec["category"]),
            tuple(rec["span"])), sentence))

    def record(job, **fields):
        return {**{k: job[0][k] for k in ("candidate_ref", "sentence_id",
                                          "category")}, **fields}
    records = _call_each(
        config, lambda job: llm_mod.paraphrase_candidate(backend, *job[1:]), jobs,
        lambda job, res: record(job, original=res.original,
                                paraphrased=res.paraphrased,
                                retains_candidate=res.retains_candidate,
                                raw_response=res.raw_response),
        lambda job, exc: record(job, original=None, paraphrased=None,
                                raw_response=getattr(exc, "raw_response", None)),
        _KEPT_LLM)
    counts = {"total": len(accepted),
              "paraphrased": sum("error" not in r for r in records),
              "retained_candidate": sum(r.get("retains_candidate", False)
                                        for r in records)}
    return _finish(config, args, "paraphrase", args.stage_out, records,
                   {"classifications": args.stage_in, "corpus": config.corpus_path},
                   counts, _KEPT_LLM)


def _target_langs(config: Config, args) -> list[str]:
    if args.target_lang:
        return [args.target_lang]
    return list(config.get("target_langs", default=mt_mod.TARGET_LANGS))


def _mt_backend_names(config: Config, args) -> list[str]:
    if args.backend:
        return [args.backend]
    names = config.get("pipeline", "mt")
    if isinstance(names, str):
        return [names]
    if not isinstance(names, list):
        raise ContractViolation("config pipeline.mt must be a backend name or "
                                f"a list of them, not {names!r}")
    return list(names)


def stage_translate(config: Config, args, paraphrases: list[dict], controls):
    """`controls` are the control sentences, None without any."""
    paraphrases = [r for r in paraphrases if r.get("paraphrased")]
    langs = _target_langs(config, args)
    backends = {name: build_backend(config, name)
                for name in _mt_backend_names(config, args)}
    min_repeats = config.number("repetition", "min_repeats")
    max_unit = config.number("repetition", "max_unit")

    inputs = {"paraphrases": args.stage_in}
    if args.controls_in:
        inputs["controls"] = args.controls_in

    jobs = []
    for name, backend in sorted(backends.items()):
        for lang in langs:
            for rec in paraphrases:
                jobs.append((backend, lang, "ori", rec["original"], rec))
                jobs.append((backend, lang, "para", rec["paraphrased"], rec))
            for sentence in controls or ():
                jobs.append((backend, lang, "control", sentence.text,
                             {"sentence_id": sentence.id, "candidate_ref": None,
                              "category": None}))

    def run(job):
        backend, lang, kind, text, rec = job
        return mt_mod.translate(backend, text, lang, sentence_id=rec["sentence_id"])

    screened = {}  # (source, hypothesis, language) -> ValidityStatus

    def screen(translation):
        triple = (translation.source, translation.hypothesis,
                  translation.target_lang)
        if triple not in screened:
            screened[triple] = mt_mod.validate_translation(
                translation, min_repeats, max_unit).validity
        return screened[triple].value

    def record(job, hypothesis=None, validity=None):
        backend, lang, kind, text, rec = job
        return {"sentence_id": rec["sentence_id"],
                "candidate_ref": rec.get("candidate_ref"),
                "category": rec.get("category"), "kind": kind, "source": text,
                "target_lang": lang, "system_id": backend.system_id,
                "hypothesis": hypothesis, "validity": validity}
    # one call per (system, language, source)
    records = _call_each(
        config, run, jobs,
        lambda job, res: record(job, res.hypothesis, screen(res)),
        lambda job, exc: record(job), _KEPT_TRANSPORT,
        key=lambda job: (job[0].system_id, job[1], job[3]))
    validity = [r["validity"] for r in records]
    counts = {"total": len(jobs),
              **{v.value: validity.count(v.value) for v in mt_mod.ValidityStatus}}
    return _finish(config, args, "translate", args.stage_out, records, inputs,
                   counts, _KEPT_TRANSPORT)


def _scored_record(record_type: str, rec: dict, **fields) -> dict:
    return {"type": record_type, "kind": rec["kind"],
            "sentence_id": rec["sentence_id"],
            "candidate_ref": rec.get("candidate_ref"),
            "category": rec.get("category"), "system_id": rec["system_id"],
            "target_lang": rec["target_lang"], **fields}


def _translation(rec: dict) -> mt_mod.TranslationRecord:
    return mt_mod.TranslationRecord(
        sentence_id=rec["sentence_id"], source=rec["source"],
        target_lang=rec["target_lang"], system_id=rec["system_id"],
        hypothesis=rec["hypothesis"],
        validity=mt_mod.ValidityStatus(rec["validity"]))


def stage_score(config: Config, args, translations: list[dict]):
    backend = build_backend(config, args.backend or config.get("pipeline", "qe"))

    valid = []
    records = []
    for rec in translations:
        if (rec.get("validity") == mt_mod.ValidityStatus.OK.value
                and rec.get("error") != "transport"):
            valid.append(rec)
            continue
        records.append(_scored_record(
            "invalid", rec, validity=rec.get("validity") or "transport"))

    scores = _call_each(
        config, lambda rec: qe_mod.score(backend, rec["source"], rec["hypothesis"]),
        valid, lambda rec, result: _scored_record(
            "qe", rec, metric_id=result.metric_id,
            orientation=result.orientation.value, value=result.value),
        lambda rec, exc: _scored_record("failed", rec),
        _KEPT_TRANSPORT, key=lambda rec: (rec["source"], rec["hypothesis"]))
    records += scores
    sides = {  # (ref, system, lang, kind) -> scored side
        (rec["candidate_ref"], rec["system_id"], rec["target_lang"], rec["kind"]):
        (rec, _translation(rec),
         qe_mod.QEScore(out["metric_id"], backend.orientation, out["value"]))
        for rec, out in zip(valid, scores)
        if out["type"] == "qe" and rec["kind"] in ("ori", "para")}

    # the delta experiment: ori and para are scored above, mix here
    expected = sorted({(r["candidate_ref"], r["system_id"], r["target_lang"])
                       for r in translations
                       if r.get("candidate_ref") and r.get("kind") in ("ori", "para")})
    pairs = [(sides[key + ("ori",)], sides[key + ("para",)]) for key in expected
             if key + ("ori",) in sides and key + ("para",) in sides]

    def delta(pair, qe_mix):
        (rec, ori, qe_ori), (_, para, qe_para) = pair
        report = replace(qe_mod.delta_report(ori, para, qe_ori, qe_mix, qe_para),
                         candidate_ref=rec["candidate_ref"],
                         category=rec["category"])
        return {"type": "delta", **qe_mod.delta_to_dict(report)}

    # one call per (ori source, para hypothesis), the pair mix_score sends
    records += _call_each(
        config, lambda pair: qe_mod.mix_score(backend, pair[0][1], pair[1][1]),
        pairs, delta,
        lambda pair, exc: _scored_record("failed", {**pair[0][0], "kind": "mix"}),
        _KEPT_TRANSPORT,
        key=lambda pair: (pair[0][1].source, pair[1][1].hypothesis))
    types = [r["type"] for r in records]
    counts = {"qe_scores": types.count("qe"), "deltas": types.count("delta"),
              "invalid": types.count("invalid"),
              "delta_pairs_skipped": len(expected) - types.count("delta")}
    return _finish(config, args, "score", args.stage_out, records,
                   {"translations": args.stage_in}, counts, _KEPT_TRANSPORT)


def stage_report(config: Config, args, scored: list[dict], classifications):
    """(exit code, the tables); the classifier table needs `classifications`."""
    inputs = {"scored": args.stage_in}
    tables = report_mod.build_tables(scored, config.number("exclusion", "flag_pct"),
                                     config.number("exclusion", "rank_exclude_pct"))

    da_path = config.get("da", "annotations", default=None)
    if da_path:
        inputs["da_annotations"] = config.path(da_path)
        tables["z_gap_table"] = report_mod.da_gap_table(
            read_jsonl(inputs["da_annotations"]),
            config.get("da", "vmwe_ids"), config.get("da", "control_ids"))

    gold_path = config.get("classifier_eval", "gold", default=None)
    if gold_path and classifications is not None:
        inputs["gold"] = config.path(gold_path)
        inputs["classifications"] = args.classifications_in
        tables["classifier_table"] = report_mod.classifier_table(
            read_jsonl(inputs["gold"]), classifications)

    out_dir = args.stage_out
    out_dir.mkdir(parents=True, exist_ok=True)
    counts = {}
    for name, rows in sorted(tables.items()):
        for fmt in ("csv", "json"):
            text = report_mod.emit(rows, fmt, report_mod.TABLE_KINDS[name])
            with _replacing(out_dir / f"{name}.{fmt}") as fh:
                fh.write(text)
        counts[name] = len(rows)
    write_manifest(out_dir, "report", config, inputs, counts, _seed(config, args))
    return 0, tables


def stage_run_all(config: Config, args):
    """Chain the stages in memory: (worst exit code, the report's tables)."""
    out = {name: args.stage_out / f"{name}.jsonl"
           for name in ("candidates", "controls", "classifications",
                        "paraphrases", "translations", "scored")}
    out["report"] = args.stage_out / "report"
    codes = []

    def run(stage, src, dst, *records, **paths):
        # --backend names one stage's backend; here the config names each.
        code, *outputs = stage(config, argparse.Namespace(**{
            **vars(args), "backend": None, "controls_in": None,
            "stage_in": out.get(src), "stage_out": out[dst], **paths}), *records)
        codes.append(code)
        return outputs

    candidates, controls = run(stage_extract, None, "candidates",
                               controls_out=out["controls"])
    if controls is None:  # an earlier run's sample is not this run's
        for path in (out["controls"], _manifest_path(out["controls"])):
            path.unlink(missing_ok=True)
    [classified] = run(stage_classify, "candidates", "classifications", candidates)
    [paraphrases] = run(stage_paraphrase, "classifications", "paraphrases",
                        classified)
    [translations] = run(stage_translate, "paraphrases", "translations",
                         paraphrases, controls,
                         controls_in=None if controls is None else out["controls"])
    [scored] = run(stage_score, "translations", "scored", translations)
    [tables] = run(stage_report, "scored", "report", scored, classified,
                   classifications_in=out["classifications"])
    return max(codes), tables


# --- argument parsing ---------------------------------------------------------

# command -> (stage function, help text)
_COMMANDS = {
    "extract": (stage_extract, "find VMWE candidates and sample a control set"),
    "classify": (stage_classify, "ask the LLM backend to confirm candidates"),
    "paraphrase": (stage_paraphrase, "rewrite confirmed candidates without the VMWE"),
    "translate": (stage_translate, "translate originals, paraphrases and controls"),
    "score": (stage_score, "run quality estimation and the delta experiment"),
    "report": (stage_report, "aggregate scores into tables"),
    "run-all": (stage_run_all, "run every stage into one output directory"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vmweval", formatter_class=argparse.RawDescriptionHelpFormatter,
        description="VMWE extraction, paraphrasing and MT quality pipeline",
        epilog="commands:\n" + "\n".join(
            f"  {name:<12}{help_text}" for name, (_, help_text) in _COMMANDS.items()))
    add = parser.add_argument
    add("command", choices=_COMMANDS, metavar="command",
        help="one of the commands below")
    add("--config", required=True, help="pipeline config (YAML)")
    add("--stage-in", type=Path, help="JSON Lines input from the previous stage")
    add("--stage-out", type=Path, required=True,
        help="output path (directory for report/run-all)")
    add("--seed", type=int, help="override the config seed")
    add("--backend", help="backend name from the config")
    add("--category", choices=["vid", "vpc", "lvc", "all"],
        help="restrict to one VMWE category")
    add("--target-lang", choices=list(mt_mod.TARGET_LANGS),
        help="restrict translation to one target language")
    add("--controls-in", type=Path, help="control sentences (JSON Lines)")
    add("--controls-out", type=Path, help="where extract writes controls")
    add("--classifications-in", type=Path,
        help="classification records for the classifier table")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    needs_in = args.command not in ("extract", "run-all")
    try:
        if needs_in and not args.stage_in:
            raise ContractViolation(f"{args.command} requires --stage-in")
        config = load_config(args.config)
        inputs = [read_jsonl(args.stage_in)] if needs_in else []
        if args.command == "translate":
            inputs.append(args.controls_in and corpus_mod.load_corpus(
                _stage_input(args.controls_in), "jsonl"))
        if args.command == "report":
            inputs.append(args.classifications_in
                          and read_jsonl(args.classifications_in))
        return _COMMANDS[args.command][0](config, args, *inputs)[0]
    except ContractViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TransportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
