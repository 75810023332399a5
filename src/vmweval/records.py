"""One table of the JSON records the stages read, and the one check of them."""
from __future__ import annotations

from functools import cache

from .errors import ContractViolation
from .extract import Category
from .mt import TARGET_LANGS, ValidityStatus
from .qe import deltas
from .stats import Orientation

SCHEMA_VERSION = 1  # of the records and tables; each manifest and JSON table names it

# JSON type -> (the Python types json.loads gives it, its name); a bool is not a number
_JSON = {"string": ((str,), "a string"), "number": ((int, float), "a number"),
         "integer": ((int,), "an integer"), "boolean": ((bool,), "a boolean"),
         "array": ((list,), "an array"), "object": ((dict,), "an object"),
         "null": ((type(None),), "null"), "absent": ((), None)}

_CATEGORY, _VALIDITY, _ORIENTATION = (
    tuple(m.value for m in enum) for enum in (Category, ValidityStatus, Orientation))
_INVALID = (*(v for v in _VALIDITY if v != ValidityStatus.OK.value), "transport")
_KIND = ("string", ("ori", "para", "control"))
_LLM_ERROR = ("string absent", ("unparseable", "transport"))

# A table maps each field to its JSON types, "absent" if it may be left out, or to
# (those types, a rule): the allowed values, an array's item types, the table an
# object or an array's objects pass, or a dict of the table each value picks.
# Other fields are ignored.
_EVIDENCE = {  # category -> the table of its evidence
    Category.VID.value: {"evidence": ("object", {"idiom": ("object", {
        "canonical": ("array", "string"), "surface_form": "string"})}),
        "match_score": "number"},
    Category.VPC.value: {"evidence": ("object", {
        "verb_index": "integer", "particle_index": "integer"})},
    Category.LVC.value: {"evidence": ("object", {
        "verb_index": "integer", "noun_index": "integer"})},
}
_CANDIDATE = {"sentence_id": "string", "span": ("array", "integer"),
              "category": ("string", _EVIDENCE), "candidate_ref": "string"}
_CELL = {"sentence_id": "string", "candidate_ref": "string null", "system_id": "string",
         "category": ("string null", _CATEGORY), "target_lang": ("string", TARGET_LANGS)}
_METRIC = {"metric_id": "string", "orientation": ("string", _ORIENTATION)}

TABLES = {
    "sentence": {"id": "string", "text": "string absent", "tokens": ("array", {
        "index": "integer", "surface": "string", "lemma": "string",
        "upos": "string null", "head": "integer null", "deprel": "string null"})},
    "candidate": _CANDIDATE,
    "classification": {**_CANDIDATE, "verdict": "boolean null",
                       "raw_choice": "string null", "raw_response": "string null",
                       "error": _LLM_ERROR},
    "paraphrase": {"candidate_ref": "string", "sentence_id": "string",
                   "category": ("string", _CATEGORY), "original": "string null",
                   "paraphrased": "string null", "retains_candidate": "boolean absent",
                   "raw_response": "string null", "error": _LLM_ERROR},
    "translation": {**_CELL, "kind": _KIND, "source": "string",
                    "hypothesis": "string null", "validity": ("string null", _VALIDITY),
                    "error": ("string absent", ("transport",))},
    "scored": {"type": ("string", {
        "qe": {**_CELL, "kind": _KIND, **_METRIC, "value": "number"},
        "invalid": {**_CELL, "kind": _KIND, "validity": ("string", _INVALID)},
        "failed": {**_CELL, "kind": ("string", (*_KIND[1], "mix")),
                   "error": ("string", ("transport",))},
        "delta": {**_CELL, "candidate_ref": "string", "category": ("string", _CATEGORY),
                  **_METRIC, **dict.fromkeys(("qe_ori", "qe_mix", "qe_para"), "number"),
                  "delta_mix": "number", "delta_para": "number"}})},
    "da": {"system_id": "string", "sentence_id": "string", "annotator_id": "string",
           "raw_score": "number"},
    "gold": {"candidate_ref": "string", "label": "boolean integer"},
}

# A record kind -> the fields whose values identify its record in a file; a tuple
# of fields stands for the first of them the record holds and is not null.  A
# translation or a scored record is keyed by its cell, and a delta, which has no
# kind, by its type.
_CELL_KEY = (("kind", "type"), ("candidate_ref", "sentence_id"), "system_id",
             "target_lang")
_KEYS = {"sentence": ("id",), "candidate": ("candidate_ref",),
         "classification": ("candidate_ref",), "paraphrase": ("candidate_ref",),
         "translation": _CELL_KEY, "scored": (*_CELL_KEY, "type"),
         "da": ("system_id", "sentence_id", "annotator_id"), "gold": ("candidate_ref",)}


# A scored record type -> its score fields; a delta field -> the score it is the
# improvement to from qe_ori
_SCORES = {"qe": ("value",), "delta": ("qe_ori", "qe_mix", "qe_para")}
_DELTAS = {"delta_mix": "qe_mix", "delta_para": "qe_para"}


def _null_on_error(value, error) -> bool:
    """A field is null exactly when its record has an error."""
    return (value is None) == (error is not None)


def _ref_by_kind(candidate_ref, kind) -> bool:
    """A translation names its candidate exactly when it is an ori or a para."""
    return (candidate_ref is not None) == (kind in ("ori", "para"))


def _text_when_ok(text, validity) -> bool:
    """An ok translation's source and hypothesis, strings by the table and the
    rules before this one, hold non-whitespace text: the score stage has
    nothing to score without it, and classify_validity asks it of the
    hypothesis first."""
    return validity != ValidityStatus.OK.value or bool(text.strip())


# A record kind -> (field, the field it goes by, the rule of their two values,
# what the rule asks) of each rule between a record's fields no table states
_RULES = {
    "translation": (
        ("hypothesis", "error", _null_on_error, "null exactly when error is present"),
        ("validity", "error", _null_on_error, "null exactly when error is present"),
        ("candidate_ref", "kind", _ref_by_kind, "set exactly when kind is ori or para"),
        ("hypothesis", "validity", _text_when_ok, "non-blank when validity is ok"),
        ("source", "validity", _text_when_ok, "non-blank when validity is ok")),
    "classification": (
        ("verdict", "error", _null_on_error, "null exactly when error is present"),),
}


def _key(kind: str, record: dict) -> tuple[tuple, tuple]:
    """The fields of `record` that its `kind` key names, and their values."""
    names = tuple(next(n for n in field if record.get(n) is not None)
                  if isinstance(field, tuple) else field for field in _KEYS[kind])
    return names, tuple(record[name] for name in names)


def check_records(kind: str, records, path) -> None:
    """Raise ContractViolation naming `path`, the line and the field unless each
    of `records`, (line number, record) pairs, passes the `kind` table and
    rules and has a key no earlier record has, each qe and delta record of a
    scored file the rules of its scores, and each delta its qe records."""
    first = None  # the first qe or delta record's line and the record
    rules = _RULES.get(kind, ())
    lines = {}  # each record's key -> its line
    for line, record in records:
        where = f"{path} line {line}: "
        _check_object(TABLES[kind], record, where, "")
        for field, by, rule, asks in rules:
            if not rule(record[field], record.get(by)):
                given = f"with {by} {record[by]!r}" if by in record else f"without {by}"
                raise ContractViolation(f"{where}{field} must be {asks}, "
                                        f"not {record[field]!r} {given}")
        names, key = _key(kind, record)
        if key in lines:
            fields = ", ".join(f"{name}={value!r}"  # a delta's type names it twice
                               for name, value in dict(zip(names, key)).items())
            raise ContractViolation(f"{where}{fields} repeats line {lines[key]}")
        lines[key] = line
        if kind == "scored" and record["type"] in _SCORES:
            first = first or (line, record)
            _check_scores(record, where, *first)
    if kind == "scored":
        _check_deltas(lines, path)


def _check_scores(record: dict, where: str, line: int, first: dict):
    """The rules of a qe or delta record no table states: the metric_id and
    orientation of `first`, the file's first such record, on `line`; each score
    in its orientation's range; each delta as qe.deltas gives it."""
    for field in ("metric_id", "orientation"):
        if record[field] != first[field]:
            raise ContractViolation(f"{where}{field} must be {first[field]!r} as on "
                                    f"line {line}, not {record[field]!r}")
    orientation = Orientation(record["orientation"])
    low, high = orientation.value_range
    for field in _SCORES[record["type"]]:
        if not low <= record[field] <= high:
            raise ContractViolation(f"{where}{field} must lie in [{low}, {high}], "
                                    f"not {record[field]!r}")
    if record["type"] == "delta":
        want = deltas(orientation, *(record[field] for field in _SCORES["delta"]))
        for field, name in _DELTAS.items():
            if record[field] != want[field]:
                raise ContractViolation(f"{where}{field} must be {want[field]!r}, "
                                        f"the improvement from qe_ori to {name}, "
                                        f"not {record[field]!r}")


def _check_deltas(lines: dict, path):
    """Each delta record of a scored file has the ori and para qe records of
    its candidate, system and language; `lines` maps each record's key to its
    line."""
    for (_, ref, system, lang, type_), line in lines.items():
        if type_ != "delta":
            continue
        for kind in ("ori", "para"):
            if (kind, ref, system, lang, "qe") not in lines:
                raise ContractViolation(
                    f"{path} line {line}: delta has no {kind} qe record of "
                    f"candidate_ref={ref!r}, system_id={system!r}, target_lang={lang!r}")


def _check_object(table: dict, record, where: str, name: str):
    if type(record) is not dict:  # `name` is its path in the line: "" or "tokens[0]."
        raise ContractViolation(f"{where}{name[:-1] or 'record'} is not a JSON object")
    for field, spec in table.items():
        types, rule = (spec, None) if isinstance(spec, str) else spec
        if field not in record:
            if "absent" not in types:
                raise ContractViolation(f"{where}{name}{field} is missing")
            continue
        if type(value := record[field]) not in _types(types)[0]:
            raise ContractViolation(f"{where}{name}{field} must be "
                                    f"{_types(types)[1]}, not {value!r}")
        if rule is None or value is None:
            continue
        if type(value) is dict:
            _check_object(rule, value, where, f"{name}{field}.")
        elif type(value) is list:
            for i, item in enumerate(value):
                if isinstance(rule, dict):
                    _check_object(rule, item, where, f"{name}{field}[{i}].")
                elif type(item) not in _types(rule)[0]:
                    raise ContractViolation(f"{where}{name}{field}[{i}] must be "
                                            f"{_types(rule)[1]}, not {item!r}")
        elif value not in rule:
            raise ContractViolation(f"{where}{name}{field} must be one of "
                                    f"{', '.join(rule)}, not {value!r}")
        elif isinstance(rule, dict):  # the value picks the table of the rest
            _check_object(rule[value], record, where, name)


@cache
def _types(names: str) -> tuple[tuple, str]:
    return (tuple(t for n in names.split() for t in _JSON[n][0]),
            " or ".join(_JSON[n][1] for n in names.split() if n != "absent"))
