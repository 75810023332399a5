"""Staged command-line pipeline.

    extract -> classify -> paraphrase -> translate -> score -> report

Each stage takes the config, its output path and its input records with
their sha256.  It writes its output as JSON Lines with a manifest beside it
(input hashes, config snapshot, record counts, seed; nothing else
non-deterministic) and returns the records with the sha256 of the bytes it
wrote.  A single-stage command reads its inputs from such files, checked
against their manifests and records tables, so a stage can be rerun or
inspected alone; `run-all` hands each stage's records and digest to the next.
`main` narrows the config, and the snapshot its manifests record, with the flags.

Exit codes: 0 success, 1 contract violation, 2 transport failures.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import io
import itertools
import json
import logging
import os
import sys
import threading
from contextlib import contextmanager
from functools import cache, cached_property
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
from .records import check_records

SCHEMA_VERSION = report_mod.SCHEMA_VERSION

# the package's logger, whose warnings main prints to stderr; `python -m
# vmweval.cli` runs this module as __main__, so it is named here
log = logging.getLogger("vmweval")


# --- config ------------------------------------------------------------------

# The config's sections; each, when given, must be a mapping.
_SECTIONS = ("corpus", "lexicon", "control_sample", "repetition", "exclusion",
             "pipeline", "backends", "da", "classifier_eval")

# Config attribute -> (config key, kind, default[, minimum[, maximum]]) of each number
_NUMBERS = {
    "concurrency": ("concurrency", int, 4, 1),
    "seed": ("seed", int, 0),
    "vid_threshold": ("vid_threshold", float, extract_mod.DEFAULT_VID_THRESHOLD),
    "control_n": ("control_sample.n", int, 0, 0),
    "min_repeats": ("repetition.min_repeats", int, mt_mod.DEFAULT_MIN_REPEATS, 2),
    "max_unit": ("repetition.max_unit", int, mt_mod.DEFAULT_MAX_UNIT, 1),
    "flag_pct": ("exclusion.flag_pct", float, report_mod.DEFAULT_FLAG_PCT, 0, 100),
    "rank_exclude_pct": ("exclusion.rank_exclude_pct", float,
                         report_mod.DEFAULT_EXCLUDE_PCT, 0, 100),
}


@dataclasses.dataclass(frozen=True)
class Config:
    """A config load_config checked whole, paths resolved against its
    directory.  A path only some commands need is None when absent."""
    raw: dict  # as parsed, narrowed with the rest; each manifest records it
    concurrency: int
    seed: int
    vid_threshold: float
    control_n: int
    min_repeats: int
    max_unit: int
    flag_pct: float
    rank_exclude_pct: float
    corpus_file: Path | None
    corpus_format: str
    idioms_file: Path | None
    verb_lemmas_file: Path | None
    light_verbs: lexicon_mod.LightVerbSet
    target_langs: tuple[str, ...]
    pipeline: dict  # "llm"/"qe" -> a backend name, "mt" -> a tuple of them
    da_file: Path | None
    da_vmwe_ids: tuple[str, ...]
    da_control_ids: tuple[str, ...]
    gold_file: Path | None
    backends: dict  # name -> (kind, a function that builds the backend once)
    # what --category narrows; the config file has no such key
    categories: tuple[extract_mod.Category, ...] = tuple(extract_mod.Category)

    def role(self, role: str):
        """What pipeline.`role` names."""
        return _required(self.pipeline.get(role), f"pipeline.{role}")

    def backend(self, kind: str, name: str | None = None):
        """The backend `name`, which must be of `kind`, built once; by default
        the one pipeline.`kind` names (pipeline.mt is a list of names)."""
        return _builder(self.backends, name or self.role(kind), kind)()

    @cached_property
    def corpus(self) -> tuple[corpus_mod.Corpus, str]:
        """The corpus the config names, parsed once, and its sha256."""
        path = _required(self.corpus_file, "corpus.path")
        if self.corpus_format == "jsonl":  # the sentence records extract writes
            records, sha256 = read_jsonl(path, "sentence")
            return corpus_mod.corpus_from_records(records), sha256
        text, sha256 = _read_input(path)
        return corpus_mod.load_corpus(text, self.corpus_format), sha256

    @cached_property
    def da_records(self) -> tuple[list[dict], str] | None:
        """The DA annotations the config names, if any, and their sha256."""
        return self.da_file and read_jsonl(self.da_file, "da")

    @cached_property
    def gold_records(self) -> tuple[list[dict], str] | None:
        """The gold labels the config names, if any, and their sha256."""
        return self.gold_file and read_jsonl(self.gold_file, "gold")


def _builder(backends: dict, name, kind: str):
    """The builder of backend `name`, which must be defined and of `kind`."""
    if name not in backends:
        raise ContractViolation(f"backend {name!r} is not defined in the config")
    if backends[name][0] != kind:
        raise ContractViolation(
            f"backend {name!r} is of kind {backends[name][0]}, not {kind}")
    return backends[name][1]


def _required(value, key: str):
    if value is None:
        raise ContractViolation(f"config is missing {key}")
    return value


def _number(value, key: str, kind, minimum=None, maximum=None):
    """`value` as a `kind` in its bounds: no bool, no NaN, no int with a fraction."""
    try:
        number = None if isinstance(value, bool) else kind(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    # NaN is the one number unequal to itself; 2.5 is not the int 2
    if number is None or number != number or (isinstance(value, float)
                                              and number != value):
        raise ContractViolation(
            f"config {key} must be {'an integer' if kind is int else 'a number'}, "
            f"not {value!r}")
    if minimum is not None and number < minimum:
        raise ContractViolation(
            f"config {key} must be at least {minimum}, not {value!r}")
    if maximum is not None and number > maximum:
        raise ContractViolation(
            f"config {key} must be at most {maximum}, not {value!r}")
    return number


def load_config(path: str | Path) -> Config:
    """The config at `path`, every key checked; reads no other file."""
    path = Path(path)
    if not path.is_file():
        raise ContractViolation(f"config file not found: {path}")
    text, _ = _read_input(path)
    try:
        # libyaml's parser when PyYAML was built with it; the same safe
        # constructor either way
        raw = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        raise ContractViolation(f"config is not valid YAML: {path}: {exc}")
    if not isinstance(raw, dict):
        raise ContractViolation(f"config must be a mapping: {path}")
    nodes = {"": raw}  # dotted path -> section
    for key in _SECTIONS:
        nodes[key] = raw.get(key, {})
        if not isinstance(nodes[key], dict):
            raise ContractViolation(
                f"config {key} must be a mapping, not {nodes[key]!r}")

    def value_of(key: str, default=None):
        section, _, leaf = key.rpartition(".")
        return nodes[section].get(leaf, default)

    def path_of(key: str) -> Path | None:
        """The path under `key` resolved against the config's directory."""
        value = value_of(key)
        if value and not isinstance(value, str):
            raise ContractViolation(f"config {key} must be a path, not {value!r}")
        return path.parent / value if value else None

    numbers = {attr: _number(value_of(key, default), key, kind, *bounds)
               for attr, (key, kind, default, *bounds) in _NUMBERS.items()}
    corpus_format = value_of("corpus.format", "conllu")
    if corpus_format not in ("conllu", "plain", "jsonl"):
        raise ContractViolation(
            f"corpus.format is {corpus_format!r}; allowed: conllu, plain, jsonl")
    langs = value_of("target_langs", list(mt_mod.TARGET_LANGS))
    if not isinstance(langs, list):
        raise ContractViolation(
            f"config target_langs must be a list of language codes, not {langs!r}")
    bad = [lang for lang in langs if lang not in mt_mod.TARGET_LANGS]
    if bad:
        raise ContractViolation(f"unsupported target language(s): {bad}")
    _once_each(langs, "target_langs lists")
    da_file = path_of("da.annotations")
    ids = {key: _required(value_of(key), key) if da_file else []
           for key in ("da.vmwe_ids", "da.control_ids")}
    for key, value in ids.items():
        if not isinstance(value, list) or not all(isinstance(i, str) for i in value):
            raise ContractViolation(
                f"config {key} must be a list of sentence ids, not {value!r}")
    shared = set(ids["da.vmwe_ids"]) & set(ids["da.control_ids"])
    if shared:
        raise ContractViolation("config da.vmwe_ids and da.control_ids share "
                                f"{sorted(shared)[:5]}")
    backends = {name: _backend_builder(name, entry, path.parent)
                for name, entry in nodes["backends"].items()}
    pipeline = _pipeline(nodes["pipeline"], backends)
    # translations are shared by system_id, so each MT system needs its own
    _once_each([nodes["backends"][name].get("system_id", name)
                for name in pipeline.get("mt", ())], "pipeline.mt names system_id")
    return Config(
        raw=raw, **numbers, corpus_file=path_of("corpus.path"),
        corpus_format=corpus_format,
        idioms_file=path_of("lexicon.idioms"),
        verb_lemmas_file=path_of("lexicon.verb_lemmas"),
        light_verbs=lexicon_mod.light_verb_set(value_of("light_verbs", "dataset_six")),
        target_langs=tuple(langs), pipeline=pipeline,
        da_file=da_file, da_vmwe_ids=tuple(ids["da.vmwe_ids"]),
        da_control_ids=tuple(ids["da.control_ids"]),
        gold_file=path_of("classifier_eval.gold"), backends=backends)


def _once_each(values: list, what: str):
    """Raise unless no two of `values`, which config `what`, are equal."""
    repeated = [value for i, value in enumerate(values) if values.index(value) < i]
    if repeated:
        raise ContractViolation(f"config {what} {repeated[0]!r} more than once")


def _pipeline(section: dict, backends: dict) -> dict:
    """The backends pipeline names per role, each defined and of that kind."""
    roles = {}
    for role in ("llm", "mt", "qe"):
        if role not in section:
            continue
        value = section[role]
        names = [value] if isinstance(value, str) else value
        if role != "mt" and not isinstance(value, str):
            raise ContractViolation(
                f"config pipeline.{role} must be a backend name, not {value!r}")
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise ContractViolation("config pipeline.mt must be a backend name or "
                                    f"a list of them, not {value!r}")
        for name in names:
            _builder(backends, name, role)
        roles[role] = tuple(names) if role == "mt" else value
    return roles


def _credential(cfg_entry: dict) -> str | None:
    env_name = cfg_entry.get("credential_env")
    if env_name is None:
        return None
    value = os.environ.get(env_name)
    if not value:
        raise ContractViolation(
            f"credential environment variable {env_name!r} is not set")
    return value


def _backend_builder(name: str, entry, base: Path):
    """Check the config entry of backend `name`; its kind and a function that
    builds the backend on its first call, reading its credential or script
    only then."""
    key = f"backends.{name}"
    if not isinstance(entry, dict):
        raise ContractViolation(f"config {key} must be a mapping, not {entry!r}")
    kind, mode = entry.get("kind"), entry.get("mode", "http")
    if kind not in ("llm", "mt", "qe"):
        raise ContractViolation(f"backend {name!r} has unknown kind {kind!r}")
    if mode not in ("mock", "http"):
        raise ContractViolation(f"{key}.mode is {mode!r}; allowed: mock, http")
    mock = mode == "mock"
    needed = {"llm": ["script" if mock else "model_id"], "mt": [],
              "qe": ["orientation"]}[kind]
    required = needed if mock else ["base_url", *needed]
    # and, when given, each other string the backend is built with
    named = {"llm": "model_id", "mt": "system_id", "qe": "metric_id"}[kind]
    for field in [*required, named, *([] if mock else ["credential_env"])]:
        if field in required and not entry.get(field):
            raise ContractViolation(f"config is missing {key}.{field}")
        if field in entry and not isinstance(entry[field], str):
            raise ContractViolation(
                f"config {key}.{field} must be a string, not {entry[field]!r}")
    script = base / entry["script"] if "script" in needed else None
    orientation = entry.get("orientation")
    if kind == "qe":
        try:
            orientation = stats_mod.Orientation(orientation)
        except ValueError:
            allowed = ", ".join(o.value for o in stats_mod.Orientation)
            raise ContractViolation(f"{key}.orientation is {orientation!r}; "
                                    f"allowed: {allowed}") from None
    rules = entry.get("break_rules")
    if rules is not None:  # None is no rules, as MockMTBackend reads it
        if not isinstance(rules, list) or not all(isinstance(r, dict) for r in rules):
            raise ContractViolation(f"config {key}.break_rules must be "
                                    f"a list of mappings, not {rules!r}")
        for rule in rules:
            if rule.get("failure") not in mt_mod.BREAK_FAILURES:
                raise ContractViolation(
                    f"config {key}.break_rules has unknown failure "
                    f"{rule.get('failure')!r}; allowed: "
                    f"{', '.join(mt_mod.BREAK_FAILURES)}")
    timeout = entry.get("timeout", 60.0)
    if (isinstance(timeout, bool) or not isinstance(timeout, (int, float))
            or not 0 < timeout < float("inf")):
        raise ContractViolation(
            f"config {key}.timeout must be a positive number, not {timeout!r}")

    @cache
    def build():
        http = {} if mock else {"base_url": entry["base_url"],
                                "api_key": _credential(entry), "timeout": timeout}
        if kind == "llm":
            if mock:
                return llm_mod.MockChatBackend.from_file(
                    _input_file(script), model_id=entry.get("model_id", "mock-chat"))
            return llm_mod.HttpChatBackend(model_id=entry["model_id"], **http)
        if kind == "mt":
            system_id = entry.get("system_id", name)
            if mock:
                return mt_mod.MockMTBackend(system_id=system_id, break_rules=rules)
            return mt_mod.HttpMTBackend(system_id=system_id, **http)
        metric_id = entry.get("metric_id", name)
        if mock:
            return qe_mod.MockQEBackend(metric_id=metric_id, orientation=orientation)
        return qe_mod.HttpQEBackend(metric_id=metric_id, orientation=orientation,
                                    **http)
    return kind, build


# --- shared io ---------------------------------------------------------------

def _input_file(path: Path) -> Path:
    if not path.is_file():
        raise ContractViolation(f"missing input file: {path}")
    return path


def _read_input(path: Path) -> tuple[str, str]:
    """The text of the input file `path`, which must exist, and the sha256 of
    its bytes, read once.  The bytes must be UTF-8; "\r\n" and "\r" read as
    "\n", as they do in a file opened as text."""
    data = _input_file(path).read_bytes()
    try:
        text = io.StringIO(data.decode("utf-8"), newline=None).getvalue()
    except UnicodeDecodeError as exc:
        raise ContractViolation(f"{path} is not UTF-8 text ({exc.reason})") from None
    return text, hashlib.sha256(data).hexdigest()


def read_jsonl(path: Path, kind: str) -> tuple[list[dict], str]:
    """The records of `path`, each checked against the `kind` records
    table, and the sha256 of the file's bytes.  A manifest beside the file,
    if any, must name this schema version and that sha256."""
    text, sha256 = _read_input(path)
    _check_manifest(path, sha256)
    numbered = []  # (line number, record); blank lines count
    for line_no, line in enumerate(text.split("\n"), start=1):
        if line := line.strip():
            try:
                numbered.append((line_no, json.loads(line)))
            except json.JSONDecodeError as exc:
                raise ContractViolation(
                    f"{path} line {line_no}: bad JSON record: {exc.msg} "
                    f"(column {exc.colno})") from None
    check_records(kind, numbered, path)
    return [record for _, record in numbered], sha256


def _cannot_write(path: Path, exc: OSError) -> ContractViolation:
    return ContractViolation(f"cannot write {path}: {exc.strerror or exc}")


@contextmanager
def _replacing(path: Path):
    """A binary file to write that replaces `path` only once the block
    completes; a failure leaves `path` as it was and no temp file behind."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _cannot_write(path.parent, exc) from None
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise _cannot_write(path, exc) from None
        raise


def _record_encoder():
    """json.dumps(record, ensure_ascii=False) as one function: the C encoder
    that JSONEncoder(ensure_ascii=False).encode would build anew for every
    record, built once with the same arguments, or that method itself where
    json has no C encoder."""
    encoder = json.JSONEncoder(ensure_ascii=False)
    make = json.encoder.c_make_encoder
    if make is None:
        return encoder.encode
    markers: dict = {}  # ids of the containers being encoded
    encode = make(markers, encoder.default, json.encoder.encode_basestring,
                  encoder.indent, encoder.key_separator, encoder.item_separator,
                  encoder.sort_keys, encoder.skipkeys, encoder.allow_nan)

    def encode_record(record) -> str:
        try:
            return "".join(encode(record, 0))
        except BaseException:
            markers.clear()  # a failed call leaves the ids it was inside
            raise
    return encode_record


_encode = _record_encoder()

_WRITE_CHUNK = 64  # records encoded, hashed and written at a time


def write_jsonl(path: Path, records: list[dict]) -> str:
    """Write `records` to `path`, one JSON object a line; the hex sha256 of
    the bytes written.  A record that UTF-8 cannot encode, such as one with
    a lone surrogate, is refused and `path` left as it was."""
    digest = hashlib.sha256()
    with _replacing(path) as fh:
        for start in range(0, len(records), _WRITE_CHUNK):
            text = "".join([_encode(record) + "\n"
                            for record in records[start:start + _WRITE_CHUNK]])
            try:
                data = text.encode("utf-8")
            except UnicodeEncodeError as exc:
                index = start + text.count("\n", 0, exc.start)
                raise ContractViolation(
                    f"cannot write {path}: record {index} is not UTF-8 "
                    f"text ({exc.reason})") from None
            digest.update(data)
            fh.write(data)
    return digest.hexdigest()


def _manifest_path(out: Path) -> Path:
    return out / "manifest.json" if out.is_dir() else Path(str(out) + ".manifest.json")


def _check_manifest(path: Path, sha256: str):
    """Raise unless the manifest of the file `path`, if it has one, names
    this schema version and `sha256`, the digest of the file's bytes."""
    manifest = _manifest_path(path)
    if not manifest.is_file():
        return
    try:
        fields = json.loads(manifest.read_bytes())
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ContractViolation(f"{manifest} is not JSON: {exc}") from None
    if not isinstance(fields, dict):
        raise ContractViolation(f"{manifest} is not a JSON object")
    recorded = fields.get("schema_version")
    if recorded != SCHEMA_VERSION:
        raise SchemaVersionError(f"{path} was written under schema "
                                 f"{recorded}, expected {SCHEMA_VERSION}")
    if fields.get("output_sha256") != sha256:
        raise ContractViolation(f"{path} does not match its manifest's output_sha256")


def write_manifest(out: Path, stage: str, config: Config, inputs: dict[str, str],
                   counts: dict, output_sha256: str | dict[str, str]):
    """The manifest of `out`; `inputs` maps each input's name to the hex
    sha256 of the bytes the stage was handed, and `output_sha256` is that of
    the bytes written: of `out`, or of each file in it by name."""
    manifest = {"schema_version": SCHEMA_VERSION, "stage": stage, "seed": config.seed,
                "inputs": inputs, "config": config.raw, "counts": counts,
                "output_sha256": output_sha256}
    data = (json.dumps(manifest, ensure_ascii=False, sort_keys=True, indent=2)
            + "\n").encode("utf-8")
    with _replacing(_manifest_path(out)) as fh:
        fh.write(data)


def _finish(config: Config, stage: str, out: Path, records: list[dict],
            inputs: dict[str, str], counts: dict, kept: tuple = ()):
    """Write a stage's records and manifest, with each `kept` failure counted
    from the records; (exit code, records, the sha256 of their bytes), the
    code 2 when a call failed in transport."""
    for _, tag, counter in kept:
        counts[counter] = sum(r.get("error") == tag for r in records)
    sha256 = write_jsonl(out, records)
    write_manifest(out, stage, config, inputs, counts, sha256)
    return (2 if counts.get("transport_failures") else 0), records, sha256


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
    outcomes = _map_ordered(call, jobs, config.concurrency, key=key)
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
    """The idiom lexicon the config names, and the sha256 of each file it
    was built from by input name."""
    idioms_path = _required(config.idioms_file, "lexicon.idioms")
    digests = {}
    if config.verb_lemmas_file:
        text, digests["verb_lemmas"] = _read_input(config.verb_lemmas_file)
        verb_lemmas = lexicon_mod.parse_verb_lemmas(text)
    else:
        verb_lemmas = lexicon_mod.default_verb_lemmas()
    text, digests["idioms"] = _read_input(idioms_path)
    # Split on "\n" alone, as iterating the file would: splitlines() also
    # splits on characters such as "\x85" and "\u2028" inside a line.
    return lexicon_mod.load_idiom_lexicon(text.split("\n"), verb_lemmas), digests


def _candidate_jobs(config: Config, records: list[dict]) -> list[tuple]:
    """(category, candidate, sentence) of each candidate record in one of
    config.categories, the token indices it names checked in its sentence."""
    corpus, _ = config.corpus
    jobs = []
    for cand in map(extract_mod.candidate_from_dict, records):
        if cand.category in config.categories:
            sentence = corpus.by_id(cand.sentence_id)
            extract_mod.check_in_range(sentence, cand.token_indices())
            jobs.append((cand.category, cand, sentence))
    return jobs


# --- stages ------------------------------------------------------------------

def stage_extract(config: Config, out: Path, controls_out: Path | None = None):
    """(exit code, candidates, their sha256, control sentences, theirs), the
    last two None without a sample; it goes to `controls_out` or beside `out`."""
    lex, inputs = _load_lexicon(config)
    corpus, inputs["corpus"] = config.corpus

    # Controls are the sentences no extractor matches, so with a control
    # sample every sentence goes through all three, once.
    scanned = tuple(extract_mod.Category) if config.control_n else config.categories
    records = []
    clean = []
    for sentence in corpus:
        found = extract_mod.extract_all(sentence, lex, config.light_verbs,
                                        config.vid_threshold, scanned)
        if not found:
            clean.append(sentence)
        records += [extract_mod.candidate_to_dict(cand) for cand in found
                    if cand.category in config.categories]

    found_categories = [r["category"] for r in records]
    counts = {"candidates": len(records),
              **{c.value: found_categories.count(c.value)
                 for c in extract_mod.Category}}
    controls = controls_sha256 = None
    if config.control_n:
        controls, shortfall = extract_mod.sample_sentences(
            clean, config.control_n, config.seed)
        control_counts = {"controls": len(controls),
                          "controls_shortfall": shortfall}
        counts.update(control_counts)
        if shortfall:
            log.warning("only %d of %d requested control sentences qualify",
                        len(controls), config.control_n)
    # the candidates first, so an --stage-out that cannot be written fails
    # the stage before it writes anything
    finished = _finish(config, "extract", out, records, inputs, counts)
    if controls is not None:
        _, _, controls_sha256 = _finish(
            config, "extract",
            controls_out or out.with_name(out.stem + ".controls.jsonl"),
            [corpus_mod.sentence_to_dict(s) for s in controls], inputs,
            control_counts)
    return (*finished, controls, controls_sha256)


def stage_classify(config: Config, out: Path, candidates: list[dict], sha256: str):
    backend = config.backend("llm")
    jobs = _candidate_jobs(config, candidates)

    def record(job, verdict=None, raw_choice=None, raw_response=None):
        return {**extract_mod.candidate_to_dict(job[1]), "verdict": verdict,
                "raw_choice": raw_choice, "raw_response": raw_response}
    records = _call_each(
        config, lambda job: llm_mod.classify_candidate(backend, *job), jobs,
        lambda job, answer: record(job, **answer),
        lambda job, exc: record(job, raw_response=getattr(exc, "raw_response", None)),
        _KEPT_LLM)
    verdicts = [r["verdict"] for r in records]
    counts = {"total": len(jobs), "accepted": verdicts.count(True),
              "rejected": verdicts.count(False)}
    return _finish(config, "classify", out, records,
                   {"candidates": sha256, "corpus": config.corpus[1]},
                   counts, _KEPT_LLM)


def stage_paraphrase(config: Config, out: Path, classifications: list[dict],
                     sha256: str):
    backend = config.backend("llm")
    jobs = _candidate_jobs(config, [r for r in classifications
                                    if r["verdict"] is True])

    def record(job, **fields):
        cand = job[1]
        return {"candidate_ref": cand.ref, "sentence_id": cand.sentence_id,
                "category": cand.category.value, **fields}
    records = _call_each(
        config, lambda job: llm_mod.paraphrase_candidate(backend, *job[1:]), jobs,
        lambda job, answer: record(job, **answer),
        lambda job, exc: record(job, original=None, paraphrased=None,
                                raw_response=getattr(exc, "raw_response", None)),
        _KEPT_LLM)
    counts = {"total": len(jobs),
              "paraphrased": sum("error" not in r for r in records),
              "retained_candidate": sum(r.get("retains_candidate", False)
                                        for r in records)}
    return _finish(config, "paraphrase", out, records,
                   {"classifications": sha256, "corpus": config.corpus[1]},
                   counts, _KEPT_LLM)


def stage_translate(config: Config, out: Path, paraphrases: list[dict],
                    sha256: str, controls=None, controls_sha256: str | None = None):
    """`controls` are the control sentences and `controls_sha256` their
    digest, both None without any."""
    paraphrases = [r for r in paraphrases if r["paraphrased"]]
    backends = {name: config.backend("mt", name) for name in config.role("mt")}

    inputs = {"paraphrases": sha256}
    if controls is not None:
        inputs["controls"] = controls_sha256

    jobs = []
    for name, backend in sorted(backends.items()):
        for lang in config.target_langs:
            for rec in paraphrases:
                jobs.append((backend, lang, "ori", rec["original"], rec))
                jobs.append((backend, lang, "para", rec["paraphrased"], rec))
            for sentence in controls or ():
                jobs.append((backend, lang, "control", sentence.text,
                             {"sentence_id": sentence.id, "candidate_ref": None,
                              "category": None}))

    for _, _, _, text, rec in jobs:  # refuse a bad source before any call
        mt_mod.check_source(text, rec["sentence_id"])

    def run(job):
        backend, lang, kind, text, rec = job
        return mt_mod.translate(backend, text, lang, sentence_id=rec["sentence_id"])

    screened = {}  # (source, hypothesis, language) -> ValidityStatus

    def screen(translation):
        triple = (translation.source, translation.hypothesis,
                  translation.target_lang)
        if triple not in screened:
            screened[triple] = mt_mod.validate_translation(
                translation, config.min_repeats, config.max_unit)
        return screened[triple].value

    def record(job, hypothesis=None, validity=None):
        backend, lang, kind, text, rec = job
        return {"sentence_id": rec["sentence_id"],
                "candidate_ref": rec["candidate_ref"],
                "category": rec["category"], "kind": kind, "source": text,
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
    return _finish(config, "translate", out, records, inputs, counts,
                   _KEPT_TRANSPORT)


def _scored_record(record_type: str, rec: dict, **fields) -> dict:
    return {"type": record_type, "kind": rec["kind"],
            "sentence_id": rec["sentence_id"],
            "candidate_ref": rec["candidate_ref"],
            "category": rec["category"], "system_id": rec["system_id"],
            "target_lang": rec["target_lang"], **fields}


def stage_score(config: Config, out: Path, translations: list[dict], sha256: str):
    backend = config.backend("qe")

    valid = []
    records = []
    for rec in translations:
        if rec["validity"] == mt_mod.ValidityStatus.OK.value and "error" not in rec:
            valid.append(rec)
            continue
        records.append(_scored_record(
            "invalid", rec, validity=rec["validity"] or "transport"))

    scores = _call_each(
        config, lambda rec: qe_mod.score(backend, rec["source"], rec["hypothesis"]),
        valid, lambda rec, result: _scored_record(
            "qe", rec, metric_id=result.metric_id,
            orientation=result.orientation.value, value=result.value),
        lambda rec, exc: _scored_record("failed", rec),
        _KEPT_TRANSPORT, key=lambda rec: (rec["source"], rec["hypothesis"]))
    records += scores
    sides = {  # (ref, system, lang, kind) -> (translation record, its qe value)
        (rec["candidate_ref"], rec["system_id"], rec["target_lang"], rec["kind"]):
        (rec, out["value"]) for rec, out in zip(valid, scores)
        if out["type"] == "qe" and rec["kind"] in ("ori", "para")}

    # the delta experiment: ori and para are scored above, mix here
    expected = sorted({(r["candidate_ref"], r["system_id"], r["target_lang"])
                       for r in translations
                       if r["candidate_ref"] and r["kind"] in ("ori", "para")})
    pairs = [(sides[key + ("ori",)], sides[key + ("para",)]) for key in expected
             if key + ("ori",) in sides and key + ("para",) in sides]

    def delta(pair, qe_mix):
        (ori, qe_ori), (_, qe_para) = pair
        return {"type": "delta", "sentence_id": ori["sentence_id"],
                "candidate_ref": ori["candidate_ref"], "category": ori["category"],
                "system_id": ori["system_id"], "target_lang": ori["target_lang"],
                "metric_id": qe_mix.metric_id,
                "orientation": qe_mix.orientation.value,
                **qe_mod.deltas(qe_mix.orientation, qe_ori, qe_mix.value, qe_para)}

    def mix(pair):  # the paraphrase's translation against the original source
        (ori, _), (para, _) = pair
        return ori["source"], para["hypothesis"]

    # one call per distinct mix pair
    records += _call_each(
        config, lambda pair: qe_mod.score(backend, *mix(pair)), pairs, delta,
        lambda pair, exc: _scored_record("failed", {**pair[0][0], "kind": "mix"}),
        _KEPT_TRANSPORT, key=mix)
    types = [r["type"] for r in records]
    counts = {"qe_scores": types.count("qe"), "deltas": types.count("delta"),
              "invalid": types.count("invalid"),
              "delta_pairs_skipped": len(expected) - types.count("delta")}
    return _finish(config, "score", out, records, {"translations": sha256},
                   counts, _KEPT_TRANSPORT)


def stage_report(config: Config, out: Path, scored: list[dict], sha256: str,
                 classifications=None, classifications_sha256: str | None = None):
    """(exit code, the tables); the classifier table needs `classifications`."""
    inputs = {"scored": sha256}
    tables = report_mod.build_tables(scored, config.flag_pct,
                                     config.rank_exclude_pct)

    if config.da_file:
        da, inputs["da_annotations"] = config.da_records
        tables["z_gap_table"] = report_mod.da_gap_table(
            da, config.da_vmwe_ids, config.da_control_ids)

    if config.gold_file and classifications is not None:
        gold, inputs["gold"] = config.gold_records
        tables["classifier_table"] = report_mod.classifier_table(gold, classifications)
        inputs["classifications"] = classifications_sha256

    # every table rendered and encoded before the first file is replaced
    files = {f"{name}.{fmt}": report_mod.emit(
        rows, fmt, report_mod.TABLE_KINDS[name]).encode("utf-8")
        for name, rows in sorted(tables.items()) for fmt in ("csv", "json")}
    for file_name, data in files.items():
        with _replacing(out / file_name) as fh:
            fh.write(data)
    # a table this run did not build is an earlier run's
    for name in report_mod.TABLE_KINDS.keys() - tables.keys():
        for fmt in ("csv", "json"):
            (out / f"{name}.{fmt}").unlink(missing_ok=True)
    write_manifest(out, "report", config, inputs,
                   {name: len(rows) for name, rows in tables.items()},
                   {name: hashlib.sha256(data).hexdigest()
                    for name, data in files.items()})
    return 0, tables


def stage_run_all(config: Config, out_dir: Path):
    """Chain the stages in memory, each handed the records and sha256 the
    one before returned: (worst exit code, the report's tables)."""
    controls_out = out_dir / "controls.jsonl"
    codes = []

    def run(stage, name, *handed):
        code, *outputs = stage(config, out_dir / name, *handed)
        codes.append(code)
        return outputs

    # A backend that cannot be built, or a report input that cannot be read,
    # fails the run before its first write.
    config.backend("llm")
    for name in config.role("mt"):
        config.backend("mt", name)
    config.backend("qe")
    config.da_records, config.gold_records
    extracted = run(stage_extract, "candidates.jsonl", controls_out)
    candidates, controls = extracted[:2], extracted[2:]  # each (records, sha256)
    if controls[0] is None:  # an earlier run's sample is not this run's
        for path in (controls_out, _manifest_path(controls_out)):
            path.unlink(missing_ok=True)
    classified = run(stage_classify, "classifications.jsonl", *candidates)
    paraphrases = run(stage_paraphrase, "paraphrases.jsonl", *classified)
    translations = run(stage_translate, "translations.jsonl", *paraphrases,
                       *controls)
    scored = run(stage_score, "scored.jsonl", *translations)
    [tables] = run(stage_report, "report", *scored, *classified)
    return max(codes), tables


# --- argument parsing ---------------------------------------------------------

# command -> (stage function, help text, the records kind of its --stage-in)
_COMMANDS = {
    "extract": (stage_extract, "find VMWE candidates and sample a control set", None),
    "classify": (stage_classify, "ask the LLM backend to confirm candidates",
                 "candidate"),
    "paraphrase": (stage_paraphrase, "rewrite confirmed candidates without the VMWE",
                   "classification"),
    "translate": (stage_translate, "translate originals, paraphrases and controls",
                  "paraphrase"),
    "score": (stage_score, "run quality estimation and the delta experiment",
              "translation"),
    "report": (stage_report, "aggregate scores into tables", "scored"),
    "run-all": (stage_run_all, "run every stage into one output directory", None),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vmweval", formatter_class=argparse.RawDescriptionHelpFormatter,
        description="VMWE extraction, paraphrasing and MT quality pipeline",
        epilog="commands:\n" + "\n".join(
            f"  {name:<12}{command[1]}" for name, command in _COMMANDS.items()))
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
    stage, _, kind = _COMMANDS[args.command]
    handler = logging.StreamHandler(sys.stderr)  # for this command's run
    handler.setFormatter(logging.Formatter("warning: %(message)s"))
    handler.setLevel(logging.WARNING)
    log.addHandler(handler)
    try:
        if kind and not args.stage_in:
            raise ContractViolation(f"{args.command} requires --stage-in")
        config = load_config(args.config)
        # The flags narrow the config once, and the snapshot each manifest
        # records with it.  --backend replaces the pipeline role of a
        # one-stage command; run-all leaves it to the config.
        raw, fields = dict(config.raw), {}
        if args.seed is not None:
            raw["seed"] = fields["seed"] = args.seed
        if args.target_lang:
            raw["target_langs"] = [args.target_lang]
            fields["target_langs"] = (args.target_lang,)
        if args.category not in (None, "all"):
            raw["categories"] = [args.category.upper()]  # only the snapshot has it
            fields["categories"] = (extract_mod.Category(args.category.upper()),)
        role = {"classify": "llm", "paraphrase": "llm", "translate": "mt",
                "score": "qe"}.get(args.command)
        if args.backend and role:
            raw["pipeline"] = {**raw.get("pipeline", {}),
                               role: [args.backend] if role == "mt" else args.backend}
            fields["pipeline"] = _pipeline(raw["pipeline"], config.backends)
        config = dataclasses.replace(config, raw=raw, **fields)
        # each input's records, then the sha256 of its bytes
        inputs = [*read_jsonl(args.stage_in, kind)] if kind else []
        if args.command == "extract":
            inputs.append(args.controls_out)
        if args.command == "translate" and args.controls_in:
            records, sha256 = read_jsonl(args.controls_in, "sentence")
            inputs += [corpus_mod.corpus_from_records(records), sha256]
        if args.command == "report" and args.classifications_in:
            inputs += read_jsonl(args.classifications_in, "classification")
        return stage(config, args.stage_out, *inputs)[0]
    except (ContractViolation, TransportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ContractViolation) else 2
    finally:
        log.removeHandler(handler)


if __name__ == "__main__":
    sys.exit(main())
