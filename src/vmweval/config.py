"""The pipeline config, checked whole by load_config, and what it names:
the backends, each built on first use, the corpus and the idiom lexicon."""
from __future__ import annotations

import dataclasses
import os
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
from . import rundir
from . import stats as stats_mod
from .errors import ContractViolation

# The config's sections; each, when given, must be a mapping.
_SECTIONS = ("corpus", "lexicon", "control_sample", "repetition", "exclusion",
             "pipeline", "backends", "da", "classifier_eval")

# Config attribute -> (config key, kind, default[, minimum[, maximum]]) of each number
_NUMBERS = {
    "concurrency": ("concurrency", int, 4, 1, 256),
    "seed": ("seed", int, 0),
    "vid_threshold": ("vid_threshold", float, extract_mod.DEFAULT_VID_THRESHOLD),
    "control_n": ("control_sample.n", int, 0, 0),
    "min_repeats": ("repetition.min_repeats", int, mt_mod.DEFAULT_MIN_REPEATS, 2),
    "max_unit": ("repetition.max_unit", int, mt_mod.DEFAULT_MAX_UNIT, 1),
    "flag_pct": ("exclusion.flag_pct", float, report_mod.DEFAULT_FLAG_PCT, 0, 100),
    "rank_exclude_pct": ("exclusion.rank_exclude_pct", float,
                         report_mod.DEFAULT_EXCLUDE_PCT, 0, 100),
}

# Config attribute -> the config key of each file a config names
FILE_KEYS = {"corpus_file": "corpus.path", "idioms_file": "lexicon.idioms",
             "verb_lemmas_file": "lexicon.verb_lemmas", "da_file": "da.annotations",
             "gold_file": "classifier_eval.gold"}


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
            records, sha256 = rundir.read_jsonl(path, "sentence")
            return corpus_mod.corpus_from_records(records), sha256
        text, sha256 = rundir.read_input(path)
        return corpus_mod.load_corpus(text, self.corpus_format), sha256


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


def _must_be(ok: bool, key: str, what: str, value):
    """Raise unless `ok`, the check that config `key` is `what`."""
    if not ok:
        raise ContractViolation(f"config {key} must be {what}, not {value!r}")


def _one_of(value, allowed, key: str):
    """`value`, which must be one of `allowed`."""
    if value not in allowed:
        raise ContractViolation(f"{key} is {value!r}; allowed: {', '.join(allowed)}")
    return value


def _number(value, key: str, kind, minimum=None, maximum=None):
    """`value` as a `kind` in its bounds: no bool, no NaN, no int with a fraction."""
    try:
        number = None if isinstance(value, bool) else kind(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    # NaN is the one number unequal to itself; 2.5 is not the int 2
    _must_be(number is not None and number == number
             and not (isinstance(value, float) and number != value),
             key, "an integer" if kind is int else "a number", value)
    _must_be(minimum is None or number >= minimum, key, f"at least {minimum}", value)
    _must_be(maximum is None or number <= maximum, key, f"at most {maximum}", value)
    return number


def load_config(path: str | Path) -> Config:
    """The config at `path`, every key checked; reads no other file."""
    path = Path(path)
    if not path.is_file():
        raise ContractViolation(f"config file not found: {path}")
    text, _ = rundir.read_input(path)
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
        _must_be(isinstance(nodes[key], dict), key, "a mapping", nodes[key])

    def value_of(key: str, default=None):
        section, _, leaf = key.rpartition(".")
        return nodes[section].get(leaf, default)

    def path_of(key: str) -> Path | None:
        """The path under `key` resolved against the config's directory."""
        value = value_of(key)
        _must_be(not value or isinstance(value, str), key, "a path", value)
        return path.parent / value if value else None

    numbers = {attr: _number(value_of(key, default), key, kind, *bounds)
               for attr, (key, kind, default, *bounds) in _NUMBERS.items()}
    corpus_format = _one_of(value_of("corpus.format", "conllu"),
                            ("conllu", "plain", "jsonl"), "corpus.format")
    langs = value_of("target_langs", list(mt_mod.TARGET_LANGS))
    _must_be(isinstance(langs, list), "target_langs", "a list of language codes", langs)
    bad = [lang for lang in langs if lang not in mt_mod.TARGET_LANGS]
    if bad:
        raise ContractViolation(f"unsupported target language(s): {bad}")
    _once_each(langs, "target_langs lists")
    files = {attr: path_of(key) for attr, key in FILE_KEYS.items()}
    ids = {key: _required(value_of(key), key) if files["da_file"] else []
           for key in ("da.vmwe_ids", "da.control_ids")}
    for key, value in ids.items():
        _must_be(isinstance(value, list) and all(isinstance(i, str) for i in value),
                 key, "a list of sentence ids", value)
    shared = set(ids["da.vmwe_ids"]) & set(ids["da.control_ids"])
    if shared:
        raise ContractViolation("config da.vmwe_ids and da.control_ids share "
                                f"{sorted(shared)[:5]}")
    backends = {name: _backend_builder(name, entry, path.parent)
                for name, entry in nodes["backends"].items()}
    pipeline = pipeline_roles(nodes["pipeline"], backends)
    # translations are shared by system_id, so each MT system needs its own
    _once_each([nodes["backends"][name].get("system_id", name)
                for name in pipeline.get("mt", ())], "pipeline.mt names system_id")
    return Config(
        raw=raw, **numbers, **files, corpus_format=corpus_format,
        light_verbs=lexicon_mod.light_verb_set(value_of("light_verbs", "dataset_six")),
        target_langs=tuple(langs), pipeline=pipeline,
        da_vmwe_ids=tuple(ids["da.vmwe_ids"]),
        da_control_ids=tuple(ids["da.control_ids"]), backends=backends)


def _once_each(values: list, what: str):
    """Raise unless no two of `values`, which config `what`, are equal."""
    repeated = [value for i, value in enumerate(values) if values.index(value) < i]
    if repeated:
        raise ContractViolation(f"config {what} {repeated[0]!r} more than once")


def pipeline_roles(section: dict, backends: dict) -> dict:
    """The backends pipeline names per role, each defined and of that kind."""
    roles = {}
    for role in ("llm", "mt", "qe"):
        if role not in section:
            continue
        value = section[role]
        names = [value] if isinstance(value, str) else value
        _must_be(role == "mt" or isinstance(value, str), f"pipeline.{role}",
                 "a backend name", value)
        _must_be(isinstance(names, list) and all(isinstance(n, str) for n in names),
                 "pipeline.mt", "a backend name or a list of them", value)
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
    _must_be(isinstance(entry, dict), key, "a mapping", entry)
    kind, mode = entry.get("kind"), entry.get("mode", "http")
    if kind not in ("llm", "mt", "qe"):
        raise ContractViolation(f"backend {name!r} has unknown kind {kind!r}")
    mock = _one_of(mode, ("mock", "http"), f"{key}.mode") == "mock"
    needed = {"llm": ["script" if mock else "model_id"], "mt": [],
              "qe": ["orientation"]}[kind]
    required = needed if mock else ["base_url", *needed]
    # and, when given, each other string the backend is built with
    named = {"llm": "model_id", "mt": "system_id", "qe": "metric_id"}[kind]
    for field in [*required, named, *([] if mock else ["credential_env"])]:
        if field in required and not entry.get(field):
            raise ContractViolation(f"config is missing {key}.{field}")
        _must_be(isinstance(entry.get(field, ""), str), f"{key}.{field}", "a string",
                 entry.get(field))
    script = base / entry["script"] if "script" in needed else None
    orientation = entry.get("orientation")
    if kind == "qe":
        orientation = stats_mod.Orientation(_one_of(
            orientation, [o.value for o in stats_mod.Orientation], f"{key}.orientation"))
    rules = entry.get("break_rules")
    if rules is not None:  # None is no rules, as MockMTBackend reads it
        _must_be(isinstance(rules, list) and all(isinstance(r, dict) for r in rules),
                 f"{key}.break_rules", "a list of mappings", rules)
        for rule in rules:
            if rule.get("failure") not in mt_mod.BREAK_FAILURES:
                raise ContractViolation(
                    f"config {key}.break_rules has unknown failure "
                    f"{rule.get('failure')!r}; allowed: "
                    f"{', '.join(mt_mod.BREAK_FAILURES)}")
    timeout = entry.get("timeout", 60.0)
    _must_be(not isinstance(timeout, bool) and isinstance(timeout, (int, float))
             and 0 < timeout < float("inf"), f"{key}.timeout", "a positive number",
             timeout)

    @cache
    def build():
        http = {} if mock else {"base_url": entry["base_url"],
                                "api_key": _credential(entry), "timeout": timeout}
        if kind == "llm":
            if mock:
                return llm_mod.MockChatBackend.from_file(
                    rundir.input_file(script), model_id=entry.get("model_id", "mock-chat"))
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


def load_lexicon(config: Config):
    """The idiom lexicon the config names, and the sha256 of each file it
    was built from by input name."""
    idioms_path = _required(config.idioms_file, "lexicon.idioms")
    digests = {}
    if config.verb_lemmas_file:
        text, digests["verb_lemmas"] = rundir.read_input(config.verb_lemmas_file)
        verb_lemmas = lexicon_mod.parse_verb_lemmas(text)
    else:
        verb_lemmas = lexicon_mod.default_verb_lemmas()
    text, digests["idioms"] = rundir.read_input(idioms_path)
    # Split on "\n" alone, as iterating the file would: splitlines() also
    # splits on characters such as "\x85" and "\u2028" inside a line.
    return lexicon_mod.load_idiom_lexicon(text.split("\n"), verb_lemmas), digests

