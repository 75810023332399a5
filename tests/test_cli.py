import argparse
import dataclasses
import hashlib
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
import yaml

from vmweval import cli
from vmweval import config as config_mod
from vmweval import llm as llm_mod
from vmweval import mt as mt_mod
from vmweval import qe as qe_mod
from vmweval import rundir
from vmweval.corpus import load_corpus, load_plain, parse_conllu, sentence_to_dict
from vmweval.errors import (BackendContractError, ContractViolation,
                            ParseError, SchemaVersionError, TransportError,
                            UnparseableResponse)
from vmweval.lexicon import default_verb_lemmas, normalize_idiom
from vmweval.llm import MockChatBackend
from vmweval.mt import MockMTBackend
from vmweval.qe import MockQEBackend, Orientation
from vmweval.records import check_records

FIXTURES = Path(__file__).parent / "fixtures"


def patched_config(tmp_path, mutate=None):
    """Copy the pipeline fixture config into tmp_path with absolute paths."""
    raw = yaml.safe_load((FIXTURES / "runall_config.yaml").read_text())
    raw["corpus"]["path"] = str(FIXTURES / "corpus_25.conllu")
    raw["lexicon"]["idioms"] = str(FIXTURES / "idioms.txt")
    raw["backends"]["mock_llm"]["script"] = str(FIXTURES / "mock_llm_script.json")
    raw["da"]["annotations"] = str(FIXTURES / "da_annotations.jsonl")
    raw["classifier_eval"]["gold"] = str(FIXTURES / "gold_labels.jsonl")
    if mutate:
        mutate(raw)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    return path


def read_jsonl_plain(path):
    return [json.loads(line) for line in path.read_text().splitlines() if line]


def read_manifest(out_path):
    return json.loads(rundir.manifest_path(Path(out_path)).read_text())


# --- config and credentials ----------------------------------------------------

def test_load_config_errors(tmp_path):
    with pytest.raises(ContractViolation):
        cli.load_config(tmp_path / "nope.yaml")
    bad = tmp_path / "list.yaml"
    bad.write_text("- a\n- b\n")
    with pytest.raises(ContractViolation):
        cli.load_config(bad)


def test_config_lookup_helpers(tmp_path):
    cfg_path = tmp_path / "c.yaml"
    cfg_path.write_text("corpus:\n  path: rel.conllu\nseed: 3\n"
                        "lexicon:\n  idioms: /abs/x\n")
    config = cli.load_config(cfg_path)
    assert config.corpus_file == tmp_path / "rel.conllu"
    assert config.idioms_file == Path("/abs/x")
    assert config.corpus_format == "conllu"
    assert (config.seed, config.concurrency) == (3, 4)
    assert config.target_langs == mt_mod.TARGET_LANGS
    assert config.da_file is None and config.gold_file is None
    with pytest.raises(ContractViolation, match="pipeline.llm"):
        config.role("llm")
    # a whole number is an integer in any of its spellings
    cfg_path.write_text('seed: "7"\ncontrol_sample:\n  n: 3.0\nvid_threshold: 1\n')
    config = cli.load_config(cfg_path)
    assert (config.seed, config.control_n, config.vid_threshold) == (7, 3, 1.0)
    assert (type(config.seed), type(config.control_n)) == (int, int)
    # a bound on the threads a backend stage starts
    cfg_path.write_text("concurrency: 256\n")
    assert cli.load_config(cfg_path).concurrency == 256
    cfg_path.write_text("concurrency: 100000\n")
    with pytest.raises(ContractViolation, match="must be at most 256, not 100000"):
        cli.load_config(cfg_path)


def _flow_config(tmp_path):
    """The fixture config as a JSON document, the way the benchmark's
    workload generator writes its configs, with more kinds of values."""
    raw = yaml.safe_load((FIXTURES / "runall_config.yaml").read_text("utf-8"))
    raw["notes"] = {"name": "Zürich — 東京", "empty": [], "nothing": None,
                    "flags": [True, False], "numbers": [0.5, -3, 1e-05, 10.0]}
    path = tmp_path / "flow.yaml"
    path.write_text(json.dumps(raw, indent=1) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("name", [
    *sorted(str(p.relative_to(FIXTURES)) for p in FIXTURES.rglob("*.yaml")),
    "json-flow"])
def test_load_config_reads_what_the_python_loader_reads(tmp_path, name):
    """load_config parses with libyaml when PyYAML has it; the config it
    returns, and so every manifest, equals the pure-Python SafeLoader's."""
    path = _flow_config(tmp_path) if name == "json-flow" else FIXTURES / name
    with open(path, encoding="utf-8") as fh:
        expected = yaml.load(fh, Loader=yaml.SafeLoader)
    raw = cli.load_config(path).raw
    assert raw == expected
    assert json.dumps(raw, sort_keys=True) == json.dumps(expected, sort_keys=True)


def test_load_config_opens_no_file_but_the_config(tmp_path):
    """A backend is built, and its script read, only when a stage asks."""
    cfg = patched_config(tmp_path)
    program = ("import sys\n"
               "from vmweval import cli\n"
               "opened = []\n"
               "sys.addaudithook(lambda event, args: event == 'open'\n"
               "                 and opened.append(str(args[0])))\n"
               "cli.load_config(sys.argv[1])\n"
               "print(*opened, sep='\\n')\n")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", program, str(cfg)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [str(cfg)]


def test_credentials_come_from_environment(tmp_path, monkeypatch):
    def add_remote(raw):
        raw["backends"]["remote"] = {
            "kind": "llm", "mode": "http", "base_url": "http://mt.example",
            "model_id": "m1", "credential_env": "VMWEVAL_TEST_KEY"}
    config = cli.load_config(patched_config(tmp_path, add_remote))
    monkeypatch.delenv("VMWEVAL_TEST_KEY", raising=False)
    with pytest.raises(ContractViolation, match="VMWEVAL_TEST_KEY"):
        config.backend("llm", "remote")
    monkeypatch.setenv("VMWEVAL_TEST_KEY", "sekrit")
    backend = config.backend("llm", "remote")
    assert backend.api_key == "sekrit"
    # no credential_env entry means no credential, never a config value
    assert config_mod._credential({"base_url": "http://x"}) is None


def test_build_backend_dispatch(tmp_path):
    config = cli.load_config(patched_config(tmp_path))
    llm = config.backend("llm", "mock_llm")
    assert isinstance(llm, MockChatBackend)
    assert llm.model_id == "scripted-chat"
    assert config.backend("llm") is llm  # the pipeline's, built once per config
    alpha = config.backend("mt", "alpha")
    assert isinstance(alpha, MockMTBackend)
    assert alpha.system_id == "alpha"
    beta = config.backend("mt", "beta")
    assert beta.translate_text("Some text here.", "cs") == "Some text here."
    qe = config.backend("qe", "mock_qe")
    assert isinstance(qe, MockQEBackend)
    assert qe.metric_id == "overlap_qe"
    assert qe.orientation is Orientation.LOWER_BETTER_0_25
    with pytest.raises(ContractViolation, match="'missing' is not defined"):
        config.backend("mt", "missing")
    with pytest.raises(ContractViolation, match="'alpha' is of kind mt, not qe"):
        config.backend("qe", "alpha")


def test_build_backend_unknown_kind(tmp_path):
    cfg = patched_config(
        tmp_path, lambda raw: raw["backends"].update(odd={"kind": "fax"}))
    with pytest.raises(ContractViolation, match="backend 'odd' has unknown kind"):
        cli.load_config(cfg)


# --- jsonl and manifests ---------------------------------------------------------

def test_jsonl_round_trip_and_manifest(tmp_path):
    out = tmp_path / "records.jsonl"
    # ensure_ascii=False writes the non-ASCII text and the U+2028 raw; a
    # field the records table does not name is kept
    records = [{"candidate_ref": "a", "label": True},
               {"candidate_ref": "ü", "label": 0, "c": "one\u2028line"}]
    sha256 = cli.write_jsonl(out, records)
    assert "\u2028".encode() in out.read_bytes()
    assert sha256 == hashlib.sha256(out.read_bytes()).hexdigest()
    config = dataclasses.replace(cli.load_config(patched_config(tmp_path)), seed=42)
    expected = hashlib.sha256(config.corpus_file.read_bytes()).hexdigest()
    cli.write_manifest(out, "extract", config, {"corpus": expected},
                       {"candidates": 2}, sha256)
    assert cli.read_jsonl(out, "gold") == (records, sha256)
    manifest = read_manifest(out)
    assert manifest["schema_version"] == 1
    assert manifest["stage"] == "extract"
    assert manifest["seed"] == 42
    assert manifest["counts"] == {"candidates": 2}
    assert manifest["config"] == config.raw
    assert manifest["inputs"]["corpus"] == expected
    assert manifest["output_sha256"] == sha256
    # no timestamps or machine state anywhere
    assert set(manifest) == {"schema_version", "stage", "seed", "inputs",
                             "config", "counts", "output_sha256"}


def test_manifest_path_for_directories(tmp_path):
    d = tmp_path / "report"
    d.mkdir()
    assert rundir.manifest_path(d) == d / "manifest.json"
    assert rundir.manifest_path(tmp_path / "x.jsonl") == \
        tmp_path / "x.jsonl.manifest.json"


def _line_loader_oracle(lines, verb_lemmas):
    """load_idiom_lexicon's surface forms as it built them from the lines of
    an open file, each still ending in its newline."""
    verbs = {v.strip().lower() for v in verb_lemmas if v.strip()}
    surface_forms = {}
    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        surface, _, flag = line.partition("\t")
        surface = surface.strip()
        marked = flag.strip().lower() in {"v", "verb"}
        if not surface:
            raise ParseError("idiom line holds only a flag", line=line_no)
        canonical = normalize_idiom(surface)
        if canonical in surface_forms:
            continue
        if not marked and verbs.isdisjoint(canonical):
            continue
        surface_forms[canonical] = surface
    return surface_forms


# idiom files whose lines a split on anything but "\n" would change
_IDIOM_TEXTS = {
    "crlf": "kick the bucket\r\nspill the beans\r\n\r\nhit the road\r\n",
    "lone-cr": "kick the bucket\rspill the beans\n",
    "x85-u2028-in-surface": "take\x85a walk\nmake\u2028amends\n"
                            "give\x0cup the ghost\x1c\nkick\x1dthe\x1ebucket",
    "flags": "at arm's length\tv\nin the soup\tVerb \nkick the bucket\tno\n"
             "cold feet\t\nspill the beans \t v\r\n",
    "clitics": "bite one's tongue\nbreak someone's heart\tv\nat arm's length\n"
               "Bite One'S tongue\n's\n",
    "blank-lines": "\n   \n \t \nkick the bucket\n\x85\n\u2028\t\n\n",
    "duplicates": "Kick the bucket\nkick  the bucket\tv\nKICK THE BUCKET\n",
    "flag-only": "kick the bucket\n\tv\n",
    "flag-only-after-x85": "take\x85a walk\x85\nmake\u2028amends\n \tverb\n",
}


@pytest.mark.parametrize("text", _IDIOM_TEXTS.values(), ids=_IDIOM_TEXTS.keys())
def test_load_lexicon_equals_the_line_loader_oracle(tmp_path, text):
    idioms = tmp_path / "idioms.txt"
    idioms.write_bytes(text.encode("utf-8"))
    cfg = tmp_path / "config.yaml"
    cfg.write_text("lexicon:\n  idioms: idioms.txt\n", encoding="utf-8")
    config = cli.load_config(cfg)
    assert config.idioms_file == idioms
    try:
        with open(idioms, encoding="utf-8") as fh:
            expected = _line_loader_oracle(fh, default_verb_lemmas())
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            config_mod.load_lexicon(config)
        assert str(got.value) == str(exc)
        return
    lex, digests = config_mod.load_lexicon(config)
    assert list(lex.surface_forms.items()) == list(expected.items())
    assert digests == {"idioms": hashlib.sha256(idioms.read_bytes()).hexdigest()}


# The lines of a corpus in each format, "\x85" and "\u2028" inside a field
_CORPUS_LINES = {
    "conllu": ["# sent_id = a", "1\tHe\the\tPRON\t_\t_\t2\tnsubj\t_\t_",
               "2\tkicked\tkick\x85it\tVERB\t_\t_\t0\troot\t_\t_",
               "3\tit\u2028\tit\tPRON\t_\t_\t2\tobj\t_\tNote=a\x85b", "",
               "1\tGo\tgo\tVERB\t_\t_\t0\troot\t_\t_"],
    "plain": ["He kicked\x85the bucket.", "", "Go\u2028home now!", "  Done . "],
}
# each newline case of _IDIOM_TEXTS: (line end, whether the last line has one)
_NEWLINES = {"crlf": ("\r\n", True), "lone-cr": ("\r", True), "lf": ("\n", True),
             "no-final-newline": ("\n", False)}


@pytest.mark.parametrize("fmt", _CORPUS_LINES)
@pytest.mark.parametrize("newline", _NEWLINES.values(), ids=_NEWLINES.keys())
def test_config_corpus_equals_the_file_loader_oracle(tmp_path, fmt, newline):
    """The corpus parsed from the text the reader decoded equals the one
    parsed from the lines of the file opened as text, and its sha256 is
    that of the file's bytes."""
    end, final = newline
    corpus = tmp_path / f"corpus.{fmt}"
    corpus.write_bytes((end.join(_CORPUS_LINES[fmt]) + end * final).encode("utf-8"))
    cfg = tmp_path / "config.yaml"
    cfg.write_text(f"corpus:\n  path: {corpus.name}\n  format: {fmt}\n",
                   encoding="utf-8")
    with open(corpus, encoding="utf-8") as fh:
        expected = {"conllu": parse_conllu, "plain": load_plain}[fmt](fh)
    assert cli.load_config(cfg).corpus == (
        expected, hashlib.sha256(corpus.read_bytes()).hexdigest())


def test_schema_version_check(tmp_path):
    data = tmp_path / "data.jsonl"
    cli.write_jsonl(data, [{"x": 1}])
    (tmp_path / "data.jsonl.manifest.json").write_text(
        json.dumps({"schema_version": 99}))
    with pytest.raises(SchemaVersionError):
        cli.read_jsonl(data, "gold")


def test_read_jsonl_missing_file(tmp_path):
    with pytest.raises(ContractViolation):
        cli.read_jsonl(tmp_path / "absent.jsonl", "gold")


# --- stages over the fixture corpus ----------------------------------------------

def test_stage_extract(tmp_path):
    cfg = patched_config(tmp_path)
    out = tmp_path / "cands.jsonl"
    assert cli.main(["extract", "--config", str(cfg),
                     "--stage-out", str(out)]) == 0
    records = read_jsonl_plain(out)
    assert len(records) == 16
    manifest = read_manifest(out)
    assert manifest["counts"] == {"candidates": 16, "VID": 5, "VPC": 5,
                                  "LVC": 6, "controls": 5,
                                  "controls_shortfall": 0}
    controls = read_jsonl_plain(tmp_path / "cands.controls.jsonl")
    assert [c["id"] for c in controls] == ["s02", "s08", "s17", "s19", "s25"]


def test_warnings_print_once_with_their_prefix(tmp_path, capsys):
    """A control shortfall and a category of undecided predictions each print
    one "warning: " line to stderr."""
    cfg = patched_config(tmp_path, lambda raw: raw["control_sample"].update(n=99))
    paths, codes = _run_chain(cfg, tmp_path, through="classify")
    assert codes == [0, 0]
    n = read_manifest(paths["candidates"])["counts"]["controls"]
    assert n < 99
    assert capsys.readouterr().err == (
        f"warning: only {n} of 99 requested control sentences qualify\n")
    undecided = tmp_path / "undecided.jsonl"
    cli.write_jsonl(undecided, [
        {**rec, "verdict": None, "error": "unparseable"} if rec["category"] == "LVC"
        else rec for rec in read_jsonl_plain(paths["classifications"])])
    scored = tmp_path / "scored.jsonl"
    cli.write_jsonl(scored, _SCORED)
    assert cli.main(["report", "--config", str(cfg), "--stage-in", str(scored),
                     "--classifications-in", str(undecided),
                     "--stage-out", str(tmp_path / "report")]) == 0
    assert capsys.readouterr().err == (
        "warning: category LVC has only undecided predictions, skipping\n")


def test_stage_extract_category_filter(tmp_path):
    cfg = patched_config(tmp_path)
    out = tmp_path / "vid.jsonl"
    assert cli.main(["extract", "--config", str(cfg), "--stage-out", str(out),
                     "--category", "vid"]) == 0
    records = read_jsonl_plain(out)
    assert len(records) == 5
    assert {r["category"] for r in records} == {"VID"}
    # Controls are the sentences no extractor matches, whatever the filter.
    manifest = read_manifest(out)
    assert manifest["counts"]["controls"] == 5
    assert manifest["counts"]["controls_shortfall"] == 0
    controls = read_jsonl_plain(tmp_path / "vid.controls.jsonl")
    assert [c["id"] for c in controls] == ["s02", "s08", "s17", "s19", "s25"]


def test_stage_extract_is_deterministic(tmp_path):
    cfg = patched_config(tmp_path)
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name / "cands.jsonl"
        assert cli.main(["extract", "--config", str(cfg),
                         "--stage-out", str(out)]) == 0
        outs.append(out)
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert rundir.manifest_path(outs[0]).read_bytes() == \
        rundir.manifest_path(outs[1]).read_bytes()


def test_seed_flag_overrides_config(tmp_path):
    cfg = patched_config(tmp_path)
    out = tmp_path / "cands.jsonl"
    assert cli.main(["extract", "--config", str(cfg), "--stage-out", str(out),
                     "--seed", "7"]) == 0
    assert read_manifest(out)["seed"] == 7


def _run_chain(cfg, tmp_path, through="score"):
    paths = {
        "candidates": tmp_path / "cands.jsonl",
        "controls": tmp_path / "cands.controls.jsonl",
        "classifications": tmp_path / "cls.jsonl",
        "paraphrases": tmp_path / "para.jsonl",
        "translations": tmp_path / "trans.jsonl",
        "scored": tmp_path / "scored.jsonl",
    }
    codes = [cli.main(["extract", "--config", str(cfg),
                       "--stage-out", str(paths["candidates"])])]
    steps = [
        ("classify", paths["candidates"], paths["classifications"], []),
        ("paraphrase", paths["classifications"], paths["paraphrases"], []),
        ("translate", paths["paraphrases"], paths["translations"],
         ["--backend", "alpha", "--target-lang", "de",
          "--controls-in", str(paths["controls"])]),
        ("score", paths["translations"], paths["scored"], []),
    ]
    for name, src, dst, extra in steps:
        codes.append(cli.main(["run-all"][:0] + [name, "--config", str(cfg),
                               "--stage-in", str(src),
                               "--stage-out", str(dst)] + extra))
        if name == through:
            break
    return paths, codes


def test_stage_classify(tmp_path):
    cfg = patched_config(tmp_path)
    paths, codes = _run_chain(cfg, tmp_path, through="classify")
    assert codes == [0, 0]
    records = read_jsonl_plain(paths["classifications"])
    assert len(records) == 16
    by_ref = {r["candidate_ref"]: r for r in records}
    assert by_ref["s13#LVC#2.4"]["verdict"] is False
    assert by_ref["s01#VID#2.3.4"]["verdict"] is True
    assert by_ref["s01#VID#2.3.4"]["span"] == [2, 3, 4]
    manifest = read_manifest(paths["classifications"])
    assert manifest["counts"] == {"total": 16, "accepted": 15, "rejected": 1,
                                  "undecided": 0, "transport_failures": 0}


def test_stage_classify_category_filter(tmp_path):
    cfg = patched_config(tmp_path)
    out = tmp_path / "cands.jsonl"
    cli.main(["extract", "--config", str(cfg), "--stage-out", str(out)])
    cls = tmp_path / "vpc.jsonl"
    assert cli.main(["classify", "--config", str(cfg), "--stage-in", str(out),
                     "--stage-out", str(cls), "--category", "vpc"]) == 0
    records = read_jsonl_plain(cls)
    assert len(records) == 5
    assert {r["category"] for r in records} == {"VPC"}


def test_chain_through_score(tmp_path):
    cfg = patched_config(tmp_path)
    paths, codes = _run_chain(cfg, tmp_path, through="score")
    assert codes == [0, 0, 0, 0, 0]
    paraphrases = read_jsonl_plain(paths["paraphrases"])
    assert len(paraphrases) == 15
    assert all(r["retains_candidate"] is False for r in paraphrases)
    translations = read_jsonl_plain(paths["translations"])
    kinds = [r["kind"] for r in translations]
    assert (kinds.count("ori"), kinds.count("para"),
            kinds.count("control")) == (15, 15, 5)
    assert {r["validity"] for r in translations} == {"ok"}
    assert {r["system_id"] for r in translations} == {"alpha"}
    assert {r["target_lang"] for r in translations} == {"de"}
    scored = read_jsonl_plain(paths["scored"])
    types = [r["type"] for r in scored]
    assert (types.count("qe"), types.count("delta"),
            types.count("invalid")) == (35, 15, 0)
    manifest = read_manifest(paths["scored"])
    assert manifest["counts"] == {"qe_scores": 35, "deltas": 15, "invalid": 0,
                                  "delta_pairs_skipped": 0,
                                  "transport_failures": 0}
    deltas = [r for r in scored if r["type"] == "delta"]
    for rec in deltas:
        assert rec["delta_mix"] == rec["qe_ori"] - rec["qe_mix"]
        assert rec["delta_para"] == rec["qe_ori"] - rec["qe_para"]


def test_translate_rejects_controls_of_another_schema(tmp_path, capsys):
    cfg = patched_config(tmp_path)
    paths, codes = _run_chain(cfg, tmp_path, through="paraphrase")
    assert codes == [0, 0, 0]
    manifest = read_manifest(paths["controls"])
    assert manifest["stage"] == "extract"
    assert manifest["counts"] == {"controls": 5, "controls_shortfall": 0}
    manifest["schema_version"] = 99
    rundir.manifest_path(paths["controls"]).write_text(json.dumps(manifest))
    assert cli.main(["translate", "--config", str(cfg),
                     "--stage-in", str(paths["paraphrases"]),
                     "--stage-out", str(tmp_path / "trans.jsonl"),
                     "--controls-in", str(paths["controls"])]) == 1
    assert "schema 99" in capsys.readouterr().err
    assert not (tmp_path / "trans.jsonl").exists()


def test_stage_report_outputs(tmp_path):
    cfg = patched_config(tmp_path)
    paths, _ = _run_chain(cfg, tmp_path, through="score")
    report_dir = tmp_path / "report"
    assert cli.main(["report", "--config", str(cfg),
                     "--stage-in", str(paths["scored"]),
                     "--stage-out", str(report_dir),
                     "--classifications-in",
                     str(paths["classifications"])]) == 0
    names = sorted(p.name for p in report_dir.iterdir())
    expected = sorted(f"{table}.{fmt}"
                      for table in ("error_rates", "gap_table", "ranking",
                                    "delta_table", "z_gap_table",
                                    "classifier_table")
                      for fmt in ("csv", "json")) + ["manifest.json"]
    assert names == sorted(expected)
    error_rates = (report_dir / "error_rates.csv").read_text().splitlines()
    assert error_rates[1] == "alpha,de,35,0,0.00,false,false"
    classifier = (report_dir / "classifier_table.csv").read_text().splitlines()
    assert len(classifier) == 4  # header + one row per category
    ranking = json.loads((report_dir / "ranking.json").read_text())
    assert {row["category"] for row in ranking["rows"]} == {"VID", "VPC", "LVC"}


# --- failure modes ----------------------------------------------------------------

def test_classify_unparseable_kept_as_undecided(tmp_path):
    script = tmp_path / "script.json"
    script.write_text(json.dumps({"rules": [], "default": "mumble"}))
    cfg = patched_config(
        tmp_path,
        lambda raw: raw["backends"]["mock_llm"].update(script=str(script)))
    paths, codes = _run_chain(cfg, tmp_path, through="classify")
    assert codes == [0, 0]
    records = read_jsonl_plain(paths["classifications"])
    assert all(r["verdict"] is None and r["error"] == "unparseable"
               for r in records)
    assert read_manifest(paths["classifications"])["counts"]["undecided"] == 16
    # paraphrase then has nothing to do but still succeeds
    para = tmp_path / "para.jsonl"
    assert cli.main(["paraphrase", "--config", str(cfg),
                     "--stage-in", str(paths["classifications"]),
                     "--stage-out", str(para)]) == 0
    assert read_jsonl_plain(para) == []


def test_classify_transport_failure_continues_batch(tmp_path):
    script = tmp_path / "script.json"
    script.write_text(json.dumps({
        "rules": [{"match": "Candidate Phrase: spilled the beans",
                   "fail": True}],
        "default": "Final Answer: Yes"}))
    cfg = patched_config(
        tmp_path,
        lambda raw: raw["backends"]["mock_llm"].update(script=str(script)))
    paths, codes = _run_chain(cfg, tmp_path, through="classify")
    assert codes == [0, 2]  # transport failures surface in the exit code
    records = read_jsonl_plain(paths["classifications"])
    assert len(records) == 16  # the batch still completed
    by_ref = {r["candidate_ref"]: r for r in records}
    failed = by_ref["s01#VID#2.3.4"]
    assert failed["error"] == "transport"
    assert failed["verdict"] is None and failed["raw_response"] is None
    counts = read_manifest(paths["classifications"])["counts"]
    assert counts["transport_failures"] == 1
    assert counts["accepted"] == 4  # the other VID prompts parse "Yes"
    assert counts["undecided"] == 11  # "Yes" is not in the VPC/LVC alphabets


def test_token_index_out_of_range_exits_1(tmp_path, capsys):
    cfg = patched_config(tmp_path)
    paths, codes = _run_chain(cfg, tmp_path, through="classify")
    assert codes == [0, 0]
    lvc = next(r for r in read_jsonl_plain(paths["candidates"])
               if r["category"] == "LVC")
    accepted = next(r for r in read_jsonl_plain(paths["classifications"])
                    if r["category"] == "LVC" and r["verdict"])
    cases = [("classify", dict(lvc, span=[2, 99])),
             ("classify", dict(lvc, evidence=dict(lvc["evidence"],
                                                  noun_index=99))),
             ("paraphrase", dict(accepted, span=[2, 99]))]
    for stage, record in cases:
        src, out = tmp_path / "bad.jsonl", tmp_path / "out.jsonl"
        cli.write_jsonl(src, [record])
        assert cli.main([stage, "--config", str(cfg), "--stage-in", str(src),
                         "--stage-out", str(out)]) == 1, record
        assert "token index 99 is out of range" in capsys.readouterr().err
        assert not out.exists()


def _inject_transport_failures(monkeypatch, cls, method, fails):
    """Make cls.method raise TransportError whenever fails(*args) is true."""
    original = getattr(cls, method)

    def patched(self, *args):
        if fails(*args):
            raise TransportError(f"injected {method} failure")
        return original(self, *args)
    monkeypatch.setattr(cls, method, patched)


def test_paraphrase_and_translate_transport_failures_stay_per_record(
        tmp_path, monkeypatch):
    _inject_transport_failures(
        monkeypatch, MockChatBackend, "complete",
        lambda request: "Sentence: He spilled the beans. || Phrase:"
        in request.last_user_content())
    _inject_transport_failures(
        monkeypatch, MockMTBackend, "translate_text",
        lambda text, lang: text == "She gave up smoking last year.")
    cfg = patched_config(tmp_path)
    paths, codes = _run_chain(cfg, tmp_path, through="score")
    assert codes == [0, 0, 2, 2, 0]

    paraphrases = read_jsonl_plain(paths["paraphrases"])
    assert len(paraphrases) == 15
    failed = [r for r in paraphrases if r.get("error")]
    assert failed == [{"candidate_ref": "s01#VID#2.3.4", "sentence_id": "s01",
                       "category": "VID", "original": None, "paraphrased": None,
                       "raw_response": None, "error": "transport"}]
    assert read_manifest(paths["paraphrases"])["counts"] == {
        "total": 15, "paraphrased": 14, "retained_candidate": 0,
        "undecided": 0, "transport_failures": 1}

    translations = read_jsonl_plain(paths["translations"])
    assert len(translations) == 33  # 14 ori + 14 para + 5 controls
    failed = [r for r in translations if r.get("error")]
    assert failed == [{"sentence_id": "s06", "candidate_ref": "s06#VPC#2.3",
                       "category": "VPC", "kind": "ori",
                       "source": "She gave up smoking last year.",
                       "target_lang": "de", "system_id": "alpha",
                       "hypothesis": None, "validity": None,
                       "error": "transport"}]
    assert read_manifest(paths["translations"])["counts"] == {
        "total": 33, "transport_failures": 1, "ok": 32, "wrong_language": 0,
        "untranslated": 0, "repetitive": 0, "empty": 0}

    scored = read_jsonl_plain(paths["scored"])
    assert [r for r in scored if r["type"] == "invalid"] == [{
        "type": "invalid", "kind": "ori", "sentence_id": "s06",
        "candidate_ref": "s06#VPC#2.3", "category": "VPC",
        "system_id": "alpha", "target_lang": "de", "validity": "transport"}]
    deltas = {r["candidate_ref"] for r in scored if r["type"] == "delta"}
    assert len(deltas) == 13
    assert not deltas & {"s01#VID#2.3.4", "s06#VPC#2.3"}
    assert read_manifest(paths["scored"])["counts"] == {
        "qe_scores": 32, "deltas": 13, "invalid": 1, "delta_pairs_skipped": 1,
        "transport_failures": 0}


def test_score_transport_failures_skip_their_delta_pairs(tmp_path, monkeypatch):
    cfg = patched_config(tmp_path)
    paths, codes = _run_chain(cfg, tmp_path, through="translate")
    assert codes == [0, 0, 0, 0]
    side = {(r["candidate_ref"], r["kind"]): r
            for r in read_jsonl_plain(paths["translations"])
            if r["candidate_ref"]}
    ori, para = side[("s01#VID#2.3.4", "ori")], side[("s05#VID#4.5.6", "para")]
    mix_ori, mix_para = side[("s07#VPC#2.3", "ori")], side[("s07#VPC#2.3", "para")]
    failing = {(ori["source"], ori["hypothesis"]),
               (para["source"], para["hypothesis"]),
               (mix_ori["source"], mix_para["hypothesis"])}
    _inject_transport_failures(
        monkeypatch, MockQEBackend, "assess",
        lambda source, hypothesis: (source, hypothesis) in failing)

    assert cli.main(["score", "--config", str(cfg),
                     "--stage-in", str(paths["translations"]),
                     "--stage-out", str(paths["scored"])]) == 2
    scored = read_jsonl_plain(paths["scored"])
    qe_sides = {(r["candidate_ref"], r["kind"])
                for r in scored if r["type"] == "qe" and r["candidate_ref"]}
    assert len(qe_sides) == 28  # 15 ori + 15 para, minus 2 failed calls
    assert ("s01#VID#2.3.4", "ori") not in qe_sides
    assert ("s05#VID#4.5.6", "para") not in qe_sides
    assert {("s07#VPC#2.3", "ori"), ("s07#VPC#2.3", "para")} <= qe_sides
    all_refs = sorted({ref for ref, _ in side})
    assert [r["candidate_ref"] for r in scored if r["type"] == "delta"] == [
        ref for ref in all_refs
        if ref not in ("s01#VID#2.3.4", "s05#VID#4.5.6", "s07#VPC#2.3")]
    assert read_manifest(paths["scored"])["counts"] == {
        "qe_scores": 33, "deltas": 12, "invalid": 0, "delta_pairs_skipped": 3,
        "transport_failures": 3}
    # one record per failed call, which the report tables leave out
    assert [r for r in scored if r["type"] == "failed"] == [
        {"type": "failed", "kind": kind, "sentence_id": ref.split("#")[0],
         "candidate_ref": ref, "category": ref.split("#")[1],
         "system_id": "alpha", "target_lang": "de", "error": "transport"}
        for ref, kind in (("s01#VID#2.3.4", "ori"), ("s05#VID#4.5.6", "para"),
                          ("s07#VPC#2.3", "mix"))]


def test_paraphrase_counts_agree_with_their_records(tmp_path):
    script = json.loads((FIXTURES / "mock_llm_script.json").read_text())
    script["rules"][:0] = [
        {"match": "Sentence: He spilled the beans. || Phrase:",
         "response": "Rephrased Sentence: He spilled the beans at last."},
        {"match": "Sentence: The old farmer kicked the bucket. || Phrase:",
         "response": "no marker"},
        {"match": "Sentence: She gave up smoking last year. || Phrase:",
         "fail": True}]
    (tmp_path / "script.json").write_text(json.dumps(script))
    cfg = patched_config(tmp_path, lambda raw: raw["backends"]["mock_llm"].update(
        script=str(tmp_path / "script.json")))
    paths, codes = _run_chain(cfg, tmp_path, through="paraphrase")
    assert codes == [0, 0, 2]
    paraphrases = read_jsonl_plain(paths["paraphrases"])
    assert read_manifest(paths["paraphrases"])["counts"] == {
        "total": 15, "paraphrased": 13, "retained_candidate": 1,
        "undecided": 1, "transport_failures": 1}
    assert [r["candidate_ref"] for r in paraphrases
            if r.get("retains_candidate")] == ["s01#VID#2.3.4"]
    assert sorted(r["error"] for r in paraphrases if "error" in r) == [
        "transport", "unparseable"]


@pytest.mark.parametrize("through, module, call, error, out", [
    ("classify", llm_mod, "classify_candidate", BackendContractError("odd"),
     "classifications"),
    ("paraphrase", llm_mod, "paraphrase_candidate", BackendContractError("odd"),
     "paraphrases"),
    ("translate", mt_mod, "translate", UnparseableResponse("no answer"),
     "translations"),
    ("score", qe_mod, "score", UnparseableResponse("no answer"), "scored"),
], ids=["classify", "paraphrase", "translate", "score"])
def test_a_failure_the_stage_keeps_no_count_for_aborts_it(
        tmp_path, monkeypatch, capsys, through, module, call, error, out):
    def fail(*args, **kwargs):
        raise error
    monkeypatch.setattr(module, call, fail)
    paths, codes = _run_chain(patched_config(tmp_path), tmp_path, through=through)
    assert codes == [0] * (len(codes) - 1) + [1]
    assert capsys.readouterr().err.endswith(f"error: {error}\n")
    assert not paths[out].exists()
    assert not rundir.manifest_path(paths[out]).exists()


# --- one backend call per distinct request -----------------------------------

def _count_calls(monkeypatch, cls, method, key):
    """Record key(self, *args) for every call of cls.method."""
    calls = []
    original = getattr(cls, method)

    def counted(self, *args):
        calls.append(key(self, *args))
        return original(self, *args)
    monkeypatch.setattr(cls, method, counted)
    return calls


def _translate_and_score(cfg, upstream, out_dir):
    """Exit codes and output bytes of translate then score, both systems
    and both languages, into out_dir."""
    out_dir.mkdir()
    trans, scored = out_dir / "trans.jsonl", out_dir / "scored.jsonl"
    codes = [cli.main(["translate", "--config", str(cfg),
                       "--stage-in", str(upstream["paraphrases"]),
                       "--controls-in", str(upstream["controls"]),
                       "--stage-out", str(trans)]),
             cli.main(["score", "--config", str(cfg), "--stage-in", str(trans),
                       "--stage-out", str(scored)])]
    return codes, {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def _shared_against_per_record(tmp_path, monkeypatch):
    """Run translate and score with shared calls, then again through the
    per-record mapping as the oracle; both must write the same bytes.

    beta's break rule is dropped, so alpha and beta agree on every
    hypothesis, and s04 holds two candidates, so keys repeat both ways.
    Returns the exit codes, the shared run's records and the (MT, QE)
    calls of each run.
    """
    cfg = patched_config(
        tmp_path, lambda raw: raw["backends"]["beta"].pop("break_rules"))
    upstream, codes = _run_chain(cfg, tmp_path, through="paraphrase")
    assert codes == [0, 0, 0]
    calls = (_count_calls(monkeypatch, MockMTBackend, "translate_text",
                          lambda self, text, lang: (self.system_id, lang, text)),
             _count_calls(monkeypatch, MockQEBackend, "assess",
                          lambda self, source, hypothesis: (source, hypothesis)))
    codes, shared = _translate_and_score(cfg, upstream, tmp_path / "shared")
    shared_calls = tuple(list(c) for c in calls)
    for c in calls:
        c.clear()
    keyed = cli._map_ordered
    monkeypatch.setattr(cli, "_map_ordered",
                        lambda fn, items, max_workers, key=None:
                        keyed(fn, items, max_workers))
    oracle_codes, oracle = _translate_and_score(cfg, upstream,
                                                tmp_path / "per_record")
    assert codes == oracle_codes
    assert shared == oracle
    records = {name: [json.loads(line) for line in data.splitlines()]
               for name, data in shared.items() if name.endswith(".jsonl")}
    return codes, records, shared_calls, calls


def test_each_distinct_request_is_sent_once(tmp_path, monkeypatch):
    codes, records, (mt_calls, qe_calls), (mt_oracle, qe_oracle) = \
        _shared_against_per_record(tmp_path, monkeypatch)
    assert codes == [0, 0]
    translations = records["trans.jsonl"]
    assert {r["validity"] for r in translations} == {"ok"}
    assert sorted(mt_calls) == sorted(
        {(r["system_id"], r["target_lang"], r["source"]) for r in translations})
    sides = {(r["candidate_ref"], r["system_id"], r["target_lang"], r["kind"]): r
             for r in translations if r["kind"] in ("ori", "para")}
    qe_keys = {(r["source"], r["hypothesis"]) for r in translations}
    mix_keys = {(ori["source"], sides[ref, system, lang, "para"]["hypothesis"])
                for (ref, system, lang, kind), ori in sides.items()
                if kind == "ori"}
    assert sorted(qe_calls) == sorted([*qe_keys, *mix_keys])
    # the oracle sends one call per record: 35 sources x 2 systems x 2 langs,
    # then 140 QE calls and 60 mixes
    assert (len(mt_oracle), len(qe_oracle)) == (140, 200)
    assert (len(mt_calls), len(qe_calls)) == (136, 98)


def test_a_failed_shared_request_fails_every_record_that_shares_it(
        tmp_path, monkeypatch):
    source = "He took the lion 's share of the profit."
    de_hypothesis = MockMTBackend("any").translate_text(source, "de")
    _inject_transport_failures(
        monkeypatch, MockMTBackend, "translate_text",
        lambda text, lang: (text, lang) == (source, "cs"))
    _inject_transport_failures(
        monkeypatch, MockQEBackend, "assess",
        lambda src, hypothesis: (src, hypothesis) == (source, de_hypothesis))
    codes, records, (mt_calls, qe_calls), _ = _shared_against_per_record(
        tmp_path, monkeypatch)
    assert codes == [2, 2]
    originals = [r["original"] for r in read_jsonl_plain(tmp_path / "para.jsonl")]
    assert originals.count(source) == 2
    assert mt_calls.count(("alpha", "cs", source)) == 1
    assert qe_calls.count((source, de_hypothesis)) == 1

    # two candidates x two systems share each failed call
    failed = [(r["system_id"], r["target_lang"]) for r in records["trans.jsonl"]
              if r.get("error") == "transport"]
    assert sorted(failed) == [("alpha", "cs")] * 2 + [("beta", "cs")] * 2
    assert read_manifest(tmp_path / "shared" / "trans.jsonl")["counts"][
        "transport_failures"] == 4
    failed = [(r["system_id"], r["target_lang"], r["kind"])
              for r in records["scored.jsonl"] if r["type"] == "failed"]
    assert sorted(failed) == [("alpha", "de", "ori")] * 2 + \
        [("beta", "de", "ori")] * 2
    assert read_manifest(tmp_path / "shared" / "scored.jsonl")["counts"][
        "transport_failures"] == 4


def test_translate_screens_each_distinct_hypothesis_once(tmp_path, monkeypatch):
    cfg = patched_config(tmp_path)
    paths, codes = _run_chain(cfg, tmp_path, through="paraphrase")
    assert codes == [0, 0, 0]
    screened = []
    validate = mt_mod.validate_translation

    def counted(source, hypothesis, lang, *args):
        screened.append((source, hypothesis, lang))
        return validate(source, hypothesis, lang, *args)
    monkeypatch.setattr(mt_mod, "validate_translation", counted)
    assert cli.main(["translate", "--config", str(cfg),
                     "--stage-in", str(paths["paraphrases"]),
                     "--controls-in", str(paths["controls"]),
                     "--stage-out", str(paths["translations"])]) == 0
    records = read_jsonl_plain(paths["translations"])
    triples = [(r["source"], r["hypothesis"], r["target_lang"]) for r in records]
    assert sorted(screened) == sorted(set(triples))
    assert len(screened) < len(records)
    for (source, hypothesis, lang), record in zip(triples, records):
        assert record["validity"] == mt_mod.classify_validity(
            source, hypothesis, lang).value


def test_run_all_builds_no_translation_record_or_qe_score(tmp_path, monkeypatch):
    """The translate and score stages write their records from the plain
    hypotheses and scores that mt.translate and qe.score return."""
    class Refused:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a stage built a record object")
    monkeypatch.setattr(mt_mod, "TranslationRecord", Refused)
    monkeypatch.setattr(qe_mod, "QEScore", Refused)
    out = tmp_path / "run"
    assert cli.main(["run-all", "--config", str(FIXTURES / "runall_config.yaml"),
                     "--seed", "42", "--stage-out", str(out)]) == 0
    assert read_jsonl_plain(out / "translations.jsonl")
    assert any(r["type"] == "delta" for r in read_jsonl_plain(out / "scored.jsonl"))


def test_translate_refuses_a_bad_source_before_any_call(tmp_path, monkeypatch,
                                                       capsys):
    """A null original in the last paraphrase record stops translate before
    its first MT request, with nothing written."""
    cfg = patched_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["run-all", "--config", str(cfg), "--stage-out", str(out)]) == 0
    records = read_jsonl_plain(out / "paraphrases.jsonl")
    assert records[-1]["paraphrased"]
    records[-1]["original"] = None
    paraphrases = tmp_path / "paraphrases.jsonl"
    paraphrases.write_text("".join(json.dumps(r) + "\n" for r in records),
                           encoding="utf-8")
    calls = []
    translate_text = MockMTBackend.translate_text

    def counted(self, text, target_lang):
        calls.append(text)
        return translate_text(self, text, target_lang)
    monkeypatch.setattr(MockMTBackend, "translate_text", counted)
    capsys.readouterr()
    translations = tmp_path / "translations.jsonl"
    assert cli.main(["translate", "--config", str(cfg),
                     "--stage-in", str(paraphrases),
                     "--controls-in", str(out / "controls.jsonl"),
                     "--stage-out", str(translations)]) == 1
    assert calls == []
    assert capsys.readouterr().err == (
        f"error: sentence {records[-1]['sentence_id']!r}: translate requires "
        f"a non-empty source text, not None\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "config.yaml", "paraphrases.jsonl", "run"]


def test_a_record_utf8_cannot_encode_leaves_the_previous_output(
        tmp_path, monkeypatch, capsys):
    """JSON lets a backend's body hold a lone surrogate, which UTF-8 cannot
    encode: translate names the file and the record and exits 1, and the
    previous translations stay as they were, with no temp file beside them."""
    cfg = patched_config(tmp_path)
    paths, codes = _run_chain(cfg, tmp_path, through="translate")
    assert codes == [0, 0, 0, 0]
    before = _tree(tmp_path)
    monkeypatch.setattr(MockMTBackend, "translate_text",
                        lambda self, text, target_lang: "\ud800")
    capsys.readouterr()
    assert cli.main(["translate", "--config", str(cfg),
                     "--stage-in", str(paths["paraphrases"]),
                     "--controls-in", str(paths["controls"]),
                     "--stage-out", str(paths["translations"])]) == 1
    assert capsys.readouterr().err == (
        f"error: cannot write {paths['translations']}: record 0 is not UTF-8 "
        f"text (surrogates not allowed)\n")
    assert _tree(tmp_path) == before


def test_write_jsonl_names_the_record_utf8_cannot_encode(tmp_path):
    """The index counts records across the chunks the writer encodes."""
    path = tmp_path / "out.jsonl"
    path.write_bytes(b"previous\n")
    records = [{"i": i, "text": "ok"} for i in range(3 * rundir._WRITE_CHUNK)]
    bad = 2 * rundir._WRITE_CHUNK + 5
    records[bad]["text"] = "a\udfffb"
    with pytest.raises(ContractViolation,
                       match=f"cannot write .*out.jsonl: record {bad} is not UTF-8"):
        cli.write_jsonl(path, records)
    assert path.read_bytes() == b"previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]


def _write_jsonl_oracle(path, records):
    """write_jsonl as it was: json's encode method per record, each line
    written as text and hashed on its own."""
    encode = json.JSONEncoder(ensure_ascii=False).encode
    digest = hashlib.sha256()
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            line = encode(record) + "\n"
            fh.write(line)
            digest.update(line.encode("utf-8"))
    return digest.hexdigest()


_TEXTS = ["", "plain", "Zürich — 東京", "quote \" back \\ slash", "tab\tnew\nline",
          "\x00\x1f\x7f\u2028\u2029", "emoji \U0001f600", "\u00e9\u0301",
          "</script>"]
_NUMBERS = [0, -1, 2 ** 64 + 1, -(10 ** 40), 0.0, -0.0, 0.1, 1e300, -1e-300,
            5e-324, 1.7976931348623157e308, float("nan"), float("inf"),
            float("-inf"), True, False]


def _random_value(rng, depth=0):
    kind = rng.randrange(4 if depth < 4 else 2)
    if kind == 0:
        return rng.choice(_TEXTS) + rng.choice(_TEXTS)
    if kind == 1:
        return rng.choice(_NUMBERS + [None, rng.uniform(-1e6, 1e6),
                                      rng.randrange(-10 ** 9, 10 ** 9)])
    if kind == 2:
        return [_random_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    return _random_record(rng, depth + 1)


def _random_record(rng, depth=0):
    keys = [rng.choice(_TEXTS) + str(i) for i in range(rng.randrange(5))]
    if rng.random() < 0.1:  # keys json turns into strings
        keys += [7, 2.5, None, False]
    return {key: _random_value(rng, depth) for key in keys}


@pytest.mark.parametrize("encoder", ["c", "fallback"])
def test_write_jsonl_equals_its_oracle(tmp_path, monkeypatch, encoder):
    """The same bytes and sha256 as the per-record encoder it replaced,
    with json's C encoder and with the pure-Python one."""
    rng = random.Random(23)
    records = [{}, {"empty": [], "nested": {"e": {}}}, {"n": _NUMBERS},
               {"t": _TEXTS, "deep": [[[[{"k": [-0.0]}]]]]}]
    records += [_random_record(rng) for _ in range(5 * rundir._WRITE_CHUNK + 3)]
    expected = tmp_path / "expected.jsonl"
    sha256 = _write_jsonl_oracle(expected, records)
    if encoder == "fallback":
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
        monkeypatch.setattr(rundir, "_encode", rundir._record_encoder())
        assert rundir._encode.__func__ is json.JSONEncoder.encode
    else:
        assert json.encoder.c_make_encoder is not None
        assert getattr(rundir._encode, "__func__", None) is not json.JSONEncoder.encode
    for chunk in (rundir._WRITE_CHUNK, 1, 7):
        monkeypatch.setattr(rundir, "_WRITE_CHUNK", chunk)
        got = tmp_path / f"got-{chunk}.jsonl"
        assert cli.write_jsonl(got, records) == sha256
        assert got.read_bytes() == expected.read_bytes()
    assert cli.write_jsonl(tmp_path / "none.jsonl", []) == hashlib.sha256().hexdigest()
    assert (tmp_path / "none.jsonl").read_bytes() == b""


def test_the_record_encoder_recovers_from_a_failed_record():
    """A record json cannot encode leaves no stale circular-reference
    marks behind: the same containers encode once it is fixed."""
    encode = rundir._record_encoder()
    record = {"a": [1, {"b": object()}]}
    with pytest.raises(TypeError):
        encode(record)
    record["a"][1]["b"] = 2
    assert encode(record) == '{"a": [1, {"b": 2}]}'
    loop = []
    loop.append(loop)
    with pytest.raises(ValueError, match="Circular reference"):
        encode({"loop": loop})
    assert encode({"a": [[], {}]}) == '{"a": [[], {}]}'


# sha256 of each JSON Lines file run-all writes for the fixture config at
# seed 42; the writer, the screening and the matcher may get faster, but
# these bytes never move
_FIXTURE_RUN_SHA256 = {
    "candidates.jsonl":
        "67b6c5b3cc55f3b55544e64ece664d3c19183672513e3ba587fb1f274bb1af23",
    "classifications.jsonl":
        "2135742b8154894567614ca1361ab30966d7b122625adf1f1fbba4553dae42e6",
    "controls.jsonl":
        "a6dd4b52275185395241b12bfd43642a79cd4bffe8383e614bee0e956b39cf0c",
    "paraphrases.jsonl":
        "1e65534a876e3014292d41fbc69573a1ca1d797d9187b91b4cb306786f0e23c4",
    "scored.jsonl":
        "970c4c2e95e1c80ea6b94f1b62201dd41c29d8944a373af217c17a4c470012e8",
    "translations.jsonl":
        "fa10661e3d2d7aee8b06bf524cb402271c87b2bd66a16a646cbfc66dee6e81c0",
}


def test_run_all_writes_the_pinned_stage_bytes(tmp_path):
    out = tmp_path / "run"
    assert cli.main(["run-all", "--config", str(FIXTURES / "runall_config.yaml"),
                     "--seed", "42", "--stage-out", str(out)]) == 0
    assert {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out.rglob("*.jsonl")} == _FIXTURE_RUN_SHA256
    # each table's count is its row count: ranking has a row per ranked system
    assert read_manifest(out / "report")["counts"] == {
        "classifier_table": 3, "delta_table": 9, "error_rates": 4, "gap_table": 9,
        "ranking": 6, "z_gap_table": 2}


def _map_ordered_oracle(fn, items, max_workers, key=None):
    """_map_ordered as it was before it keyed unkeyed calls by position:
    a keyed call recursed into the unkeyed path, one future per item."""
    if key is not None:
        keys = [key(item) for item in items]
        first = {}
        for k, item in zip(keys, items):
            first.setdefault(k, item)
        outcomes = dict(zip(first, _map_ordered_oracle(
            fn, list(first.values()), max_workers)))
        return [outcomes[k] for k in keys]
    results = [None] * len(items)
    if not items:
        return results
    with ThreadPoolExecutor(max_workers=max(1, max_workers)) as pool:
        future_to_idx = {pool.submit(fn, item): i for i, item in enumerate(items)}
        for future in future_to_idx:
            idx = future_to_idx[future]
            try:
                results[idx] = (future.result(), None)
            except Exception as exc:  # noqa: BLE001 - recorded per item
                results[idx] = (None, exc)
    return results


@pytest.mark.parametrize("max_workers", [1, 2, 8])
def test_map_ordered_matches_its_oracle(max_workers):
    def outcome_view(pairs):
        return [(result, exc and (type(exc), exc.args)) for result, exc in pairs]

    def fn(item):
        calls.append(item)
        threads.add(threading.current_thread())
        if item % 7 == 3:
            raise TransportError(f"item {item}")
        if item % 11 == 5:
            raise ValueError(item, "bad")
        time.sleep(0.0005 * (item % 3))  # finish out of order
        return item * item

    rng = random.Random(max_workers)
    cases = [([], None), ([], lambda item: item % 4), (list(range(40)), None),
             ([rng.randrange(30) for _ in range(60)], None),
             ([rng.randrange(30) for _ in range(60)], lambda item: item),
             ([rng.randrange(30) for _ in range(60)], lambda item: item % 5)]
    for items, key in cases:
        outcomes = []
        for mapper in (cli._map_ordered, _map_ordered_oracle):
            calls, threads = [], set()
            pairs = mapper(fn, items, max_workers, key=key)
            outcomes.append((outcome_view(pairs), sorted(calls)))
            if mapper is cli._map_ordered:
                mapped_on = threads
        assert outcomes[0] == outcomes[1], (items, key)
        # the calling thread works too, and at 1 worker alone
        if max_workers == 1:
            assert mapped_on <= {threading.current_thread()}
        assert len(mapped_on) <= max_workers


def test_map_ordered_hands_out_each_item_once_under_contention():
    """More workers than cores and a short switch interval: a lost or
    doubled hand-out of an index would lose or repeat a call."""
    calls = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pairs = cli._map_ordered(lambda item: calls.append(item) or -item,
                                 list(range(3000)), 16)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(calls) == list(range(3000))
    assert pairs == [(-item, None) for item in range(3000)]


class _Stop(BaseException):
    pass


@pytest.mark.parametrize("on_extra_thread", [True, False])
def test_map_ordered_raises_a_base_exception_from_any_worker(on_extra_thread):
    """A BaseException is not an outcome: it stops the mapping and reaches
    the caller, from the calling thread or an extra one."""
    raised = threading.Event()
    caller = threading.current_thread()
    calls = []

    def fn(item):
        calls.append(item)
        if (threading.current_thread() is caller) != on_extra_thread:
            raised.set()
            raise _Stop(item)
        assert raised.wait(10)
        return item

    threads_before = threading.active_count()
    with pytest.raises(_Stop):
        cli._map_ordered(fn, list(range(50)), 2)
    # the other worker finished the item it held and took no more
    assert len(calls) <= 2
    assert threading.active_count() == threads_before


def test_main_error_paths(tmp_path, capsys):
    cfg = patched_config(tmp_path)
    assert cli.main(["classify", "--config", str(cfg),
                     "--stage-out", str(tmp_path / "x.jsonl")]) == 1
    assert "requires --stage-in" in capsys.readouterr().err
    assert cli.main(["extract", "--config", str(tmp_path / "nope.yaml"),
                     "--stage-out", str(tmp_path / "y.jsonl")]) == 1
    assert "not found" in capsys.readouterr().err
    assert cli.main(["classify", "--config", str(cfg),
                     "--stage-in", str(tmp_path / "absent.jsonl"),
                     "--stage-out", str(tmp_path / "z.jsonl")]) == 1
    assert "missing input file" in capsys.readouterr().err
    # the controls would replace the candidates or their manifest
    (tmp_path / "sub").mkdir()
    before = _tree(tmp_path)
    for stage_out, controls_out in [("c.jsonl", "sub/../c.jsonl"),
                                    ("c.jsonl", "c.jsonl.manifest.json"),
                                    ("c.jsonl.manifest.json", "c.jsonl")]:
        assert cli.main(["extract", "--config", str(cfg),
                         "--stage-out", str(tmp_path / stage_out),
                         "--controls-out", str(tmp_path / controls_out)]) == 1
        assert capsys.readouterr().err == ("error: --controls-out and --stage-out, "
                                           "or their manifests, name one file\n")
        assert _tree(tmp_path) == before


def test_no_output_replaces_an_input(tmp_path, capsys):
    """An output, or its manifest, naming an input, its manifest, the config
    or a file the config names exits 1 and writes nothing."""
    for name in ("corpus_25.conllu", "idioms.txt"):
        shutil.copy(FIXTURES / name, tmp_path / name)

    def copied_inputs(raw):  # paths resolve against the config's directory
        raw["corpus"]["path"] = "corpus_25.conllu"
        raw["lexicon"]["idioms"] = "idioms.txt"
    cfg = patched_config(tmp_path, copied_inputs)
    paths, codes = _run_chain(cfg, tmp_path, through="paraphrase")
    assert codes == [0, 0, 0]
    para, controls = str(paths["paraphrases"]), str(paths["controls"])
    cands = str(paths["candidates"])
    before = _tree(tmp_path)
    for command, pair in [
            (["translate", "--stage-in", para, "--stage-out", para],
             "--stage-out and --stage-in"),
            (["extract", "--stage-out", str(tmp_path / "corpus_25.conllu")],
             "--stage-out and corpus.path"),
            (["extract", "--stage-out", str(cfg)], "--stage-out and --config"),
            (["extract", "--stage-out", str(tmp_path / "x.jsonl"),
              "--controls-out", str(tmp_path / "idioms.txt")],
             "--controls-out and lexicon.idioms"),
            (["translate", "--stage-in", para, "--controls-in", controls,
              "--stage-out", controls + ".manifest.json"],
             "--stage-out and --controls-in"),
            (["classify", "--stage-in", cands, "--stage-out",
              cands + ".manifest.json"], "--stage-out and --stage-in")]:
        assert cli.main([*command, "--config", str(cfg)]) == 1, command
        assert capsys.readouterr().err == (f"error: {pair}, or their manifests, "
                                           "name one file\n")
        assert _tree(tmp_path) == before


def test_report_refuses_classifications_without_gold_labels(tmp_path, capsys):
    """Without classifier_eval.gold there is no classifier table to build, so
    the one-stage report refuses --classifications-in; run-all, which always
    hands classifications on, skips the table instead."""
    cfg = patched_config(tmp_path, lambda raw: raw.pop("classifier_eval"))
    scored, classifications = tmp_path / "scored.jsonl", tmp_path / "cls.jsonl"
    cli.write_jsonl(scored, _SCORED)
    classifications.write_text("", encoding="utf-8")
    before = _tree(tmp_path)
    assert cli.main(["report", "--config", str(cfg), "--stage-in", str(scored),
                     "--classifications-in", str(classifications),
                     "--stage-out", str(tmp_path / "report")]) == 1
    assert capsys.readouterr().err == ("error: --classifications-in needs "
                                       "classifier_eval.gold in the config\n")
    assert _tree(tmp_path) == before and not (tmp_path / "report").exists()
    assert cli.main(["report", "--config", str(cfg), "--stage-in", str(scored),
                     "--stage-out", str(tmp_path / "report")]) == 0
    assert cli.main(["run-all", "--config", str(cfg),
                     "--stage-out", str(tmp_path / "run")]) == 0
    assert not (tmp_path / "run" / "report" / "classifier_table.csv").exists()


def _bad_yaml(tmp_path):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("seed: [1\n", encoding="utf-8")
    return cfg, ["extract"]


def _truncated_stage_in(tmp_path):
    cfg = patched_config(tmp_path)
    cands = tmp_path / "cands.jsonl"
    cands.write_text('{"candidate_ref": "s01#VID#2.3.4"}\n{"candidate_ref": "s0',
                     encoding="utf-8")
    return cfg, ["classify", "--stage-in", str(cands)]


def _mt_without_base_url(tmp_path):
    cfg = patched_config(tmp_path, lambda raw: raw["backends"].update(
        alpha={"kind": "mt", "mode": "http", "system_id": "alpha"}))
    paraphrases = tmp_path / "para.jsonl"
    paraphrases.write_text("", encoding="utf-8")
    return cfg, ["translate", "--stage-in", str(paraphrases)]


def _qe_without_orientation(tmp_path):
    cfg = patched_config(
        tmp_path, lambda raw: raw["backends"]["mock_qe"].pop("orientation"))
    translations = tmp_path / "trans.jsonl"
    translations.write_text("", encoding="utf-8")
    return cfg, ["score", "--stage-in", str(translations)]


def _non_object_stage_in(tmp_path):
    cfg = patched_config(tmp_path)
    cands = tmp_path / "cands.jsonl"
    cands.write_text("[1]\n", encoding="utf-8")
    return cfg, ["classify", "--stage-in", str(cands)]


def _qe_unknown_orientation(tmp_path):
    cfg = patched_config(tmp_path, lambda raw: raw["backends"]["mock_qe"].update(
        orientation="lower"))
    translations = tmp_path / "trans.jsonl"
    translations.write_text("", encoding="utf-8")
    return cfg, ["score", "--stage-in", str(translations)]


def _controls_line(line):
    def make_case(tmp_path):
        cfg = patched_config(tmp_path)
        paraphrases, controls = tmp_path / "para.jsonl", tmp_path / "controls.jsonl"
        paraphrases.write_text("", encoding="utf-8")
        controls.write_text(line + "\n", encoding="utf-8")
        return cfg, ["translate", "--stage-in", str(paraphrases),
                     "--controls-in", str(controls)]
    return make_case


def _candidate(**fields):
    def make_case(tmp_path):
        cfg = patched_config(tmp_path)
        cands = tmp_path / "cands.jsonl"
        cli.write_jsonl(cands, [{"sentence_id": "s01", "category": "VID",
                                 "span": [2, 3, 4], **fields}])
        return cfg, ["classify", "--stage-in", str(cands)]
    return make_case


def _paraphrase(**fields):
    """Translate one paraphrase record, with `fields` in place of its own."""
    def make_case(tmp_path):
        para = tmp_path / "para.jsonl"
        cli.write_jsonl(para, [{
            "candidate_ref": "s04#LVC#2.6", "sentence_id": "s04", "category": "LVC",
            "original": "She took a long walk.", "paraphrased": "She walked.",
            "retains_candidate": False, "raw_response": "She walked.", **fields}])
        return patched_config(tmp_path), ["translate", "--stage-in", str(para)]
    return make_case


def _jsonl_corpus(mutate):
    """Extract from a JSONL corpus of the fixture's first sentence, its
    record changed by `mutate`."""
    def make_case(tmp_path):
        text = (FIXTURES / "corpus_25.conllu").read_text("utf-8")
        record = sentence_to_dict(load_corpus(text, "conllu").sentences[0])
        mutate(record)
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps(record) + "\n", encoding="utf-8")
        return patched_config(tmp_path, lambda raw: raw["corpus"].update(
            path=str(corpus), format="jsonl")), ["extract"]
    return make_case


_ABSENT = object()


def _classification(**fields):
    """Paraphrase one accepted LVC classification, with `fields` in place of
    its own; a field that is _ABSENT is left out."""
    def make_case(tmp_path):
        record = {"candidate_ref": "s04#LVC#2.6", "sentence_id": "s04",
                  "category": "LVC", "span": [2, 6],
                  "evidence": {"verb_index": 2, "noun_index": 6},
                  "verdict": True, "raw_choice": "C",
                  "raw_response": "Final Answer: C", **fields}
        cls = tmp_path / "cls.jsonl"
        cli.write_jsonl(cls, [{k: v for k, v in record.items() if v is not _ABSENT}])
        return patched_config(tmp_path), ["paraphrase", "--stage-in", str(cls)]
    return make_case


def _config_value(keys, value, command):
    """The config with `value` under `keys`, and `command` on empty input."""
    def make_case(tmp_path):
        def mutate(raw):
            node = raw
            for key in keys[:-1]:
                node = node.setdefault(key, {})
            node[keys[-1]] = value
        cfg = patched_config(tmp_path, mutate)
        stage_in = tmp_path / "in.jsonl"
        stage_in.write_text("", encoding="utf-8")
        return cfg, [command] + (["--stage-in", str(stage_in)]
                                 if command != "extract" else [])
    return make_case


def _stage_in_manifest(text):
    """A candidates file whose manifest holds `text`."""
    def make_case(tmp_path):
        cfg = patched_config(tmp_path)
        cands = tmp_path / "cands.jsonl"
        cands.write_text("", encoding="utf-8")
        (tmp_path / "cands.jsonl.manifest.json").write_text(text, encoding="utf-8")
        return cfg, ["classify", "--stage-in", str(cands)]
    return make_case


def _not_utf8(name):
    """A byte that is not UTF-8 in the stage input, the controls, the
    config, the corpus or the idiom list."""
    def make_case(tmp_path):
        bad = tmp_path / name
        sources = {"corpus.conllu": FIXTURES / "corpus_25.conllu",
                   "idioms.txt": FIXTURES / "idioms.txt"}
        data = sources[name].read_bytes() if name in sources else b""
        bad.write_bytes(data + b"\xff\n")

        def point_at_bad(raw):
            if name == "corpus.conllu":
                raw["corpus"]["path"] = str(bad)
            if name == "idioms.txt":
                raw["lexicon"]["idioms"] = str(bad)
        cfg = patched_config(tmp_path, point_at_bad)
        if name == "config.yaml":
            cfg.write_bytes(cfg.read_bytes() + b"# \xff\n")
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        return cfg, {"cands.jsonl": ["classify", "--stage-in", str(bad)],
                     "controls.jsonl": ["translate", "--stage-in", str(empty),
                                        "--controls-in", str(bad)]
                     }.get(name, ["extract"])
    return make_case


def _mock_script(text):
    """The mock chat script holds `text`, or is absent when it is None."""
    def make_case(tmp_path):
        script = tmp_path / "script.json"
        if text is not None:
            script.write_text(text, encoding="utf-8")
        cfg = patched_config(tmp_path, lambda raw: raw["backends"]["mock_llm"]
                             .update(script=str(script)))
        cands = tmp_path / "cands.jsonl"
        cands.write_text("", encoding="utf-8")
        return cfg, ["classify", "--stage-in", str(cands)]
    return make_case


def _fixture_script(mutate):
    """The fixture's mock chat script, its first rule changed by `mutate`."""
    script = json.loads((FIXTURES / "mock_llm_script.json").read_text("utf-8"))
    mutate(script["rules"][0])
    return json.dumps(script)


def _report_input(mutate):
    """Report on empty scored and classification records, under the config
    that `mutate(raw, tmp_path)` changes."""
    def make_case(tmp_path):
        cfg = patched_config(tmp_path, lambda raw: mutate(raw, tmp_path))
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        return cfg, ["report", "--stage-in", str(empty),
                     "--classifications-in", str(empty)]
    return make_case


def _report_file(section, key, records=None):
    """Config `section`.`key` names a file of `records`, or one that is
    absent when they are None."""
    def mutate(raw, tmp_path):
        path = tmp_path / f"{section}.jsonl"
        if records is not None:
            cli.write_jsonl(path, records)
        raw[section][key] = str(path)
    return _report_input(mutate)


# a scored file of two qe records and a delta record whose scores obey its rules
_SCORED = [
    {"type": "qe", "kind": kind, "sentence_id": sentence, "candidate_ref": ref,
     "category": category, "system_id": "alpha", "target_lang": "de",
     "metric_id": "overlap_qe", "orientation": "lower_better_0_25", "value": value}
    for kind, sentence, ref, category, value in [
        ("ori", "s01", "s01#VID#2.3.4", "VID", 7.25),
        ("control", "s15", None, None, 5.0)]] + [
    {"type": "delta", "sentence_id": "s01", "candidate_ref": "s01#VID#2.3.4",
     "category": "VID", "system_id": "alpha", "target_lang": "de",
     "metric_id": "overlap_qe", "orientation": "lower_better_0_25",
     "qe_ori": 7.25, "qe_mix": 5.5, "qe_para": 5.0, "delta_mix": 1.75,
     "delta_para": 2.25}]


def _scored_file(line, **fields):
    """Report on _SCORED with `fields` in place of those of record `line`."""
    def make_case(tmp_path):
        scored = tmp_path / "scored.jsonl"
        cli.write_jsonl(scored, [{**record, **fields} if i == line else record
                                 for i, record in enumerate(_SCORED, start=1)])
        return patched_config(tmp_path), ["report", "--stage-in", str(scored)]
    return make_case


# an ori and a para translation of one candidate, and a control's translation
_TRANSLATIONS = [
    {"sentence_id": sentence, "candidate_ref": ref, "category": category,
     "kind": kind, "source": source, "target_lang": "de", "system_id": "alpha",
     "hypothesis": hypothesis, "validity": "ok"}
    for sentence, ref, category, kind, source, hypothesis in [
        ("s04", "s04#LVC#2.6", "LVC", "ori", "She took a long walk.",
         "Sie machte einen langen Spaziergang."),
        ("s04", "s04#LVC#2.6", "LVC", "para", "She walked.", "Sie ging."),
        ("s15", None, None, "control", "The cat sat on the mat.",
         "Die Katze sass auf der Matte.")]]


def _translations(line, **fields):
    """Score _TRANSLATIONS with `fields` in place of those of record `line`."""
    def make_case(tmp_path):
        trans = tmp_path / "trans.jsonl"
        cli.write_jsonl(trans, [{**record, **fields} if i == line else record
                                for i, record in enumerate(_TRANSLATIONS, start=1)])
        return patched_config(tmp_path), ["score", "--stage-in", str(trans)]
    return make_case


# (make_case, message, id) of a record whose fields break a rule between them
_BAD_RULES = [
    (_translations(1, validity=None),
     "trans.jsonl line 1: validity must be null exactly when error is present, "
     "not None without error", "translation-validity-null-without-error"),
    (_translations(2, validity=None, error="transport"),
     "trans.jsonl line 2: hypothesis must be null exactly when error is present, "
     "not 'Sie ging.' with error 'transport'", "translation-hypothesis-with-error"),
    (_translations(2, candidate_ref=None),
     "trans.jsonl line 2: candidate_ref must be set exactly when kind is ori or "
     "para, not None with kind 'para'", "translation-para-without-candidate-ref"),
    (_translations(3, candidate_ref="s15#VID#1.2"),
     "trans.jsonl line 3: candidate_ref must be set exactly when kind is ori or "
     "para, not 's15#VID#1.2' with kind 'control'",
     "translation-control-with-candidate-ref"),
    (_translations(2, hypothesis="   "),
     "trans.jsonl line 2: hypothesis must be non-blank when validity is ok, "
     "not '   ' with validity 'ok'", "translation-ok-with-blank-hypothesis"),
    (_translations(2, hypothesis=""),
     "trans.jsonl line 2: hypothesis must be non-blank when validity is ok, "
     "not '' with validity 'ok'", "translation-ok-with-empty-hypothesis"),
    (_classification(verdict=None),
     "cls.jsonl line 1: verdict must be null exactly when error is present, "
     "not None without error", "classification-verdict-null-without-error"),
    (_classification(error="unparseable"),
     "cls.jsonl line 1: verdict must be null exactly when error is present, "
     "not True with error 'unparseable'", "classification-verdict-with-error"),
]


# (make_case, message, id) of a scored file whose scores break the rules no
# records table states
_BAD_SCORES = [
    (_scored_file(2, value=1000),
     "scored.jsonl line 2: value must lie in [0.0, 25.0], not 1000",
     "scored-value-out-of-range"),
    (_scored_file(2, metric_id="other_qe"),
     "scored.jsonl line 2: metric_id must be 'overlap_qe' as on line 1, "
     "not 'other_qe'", "scored-second-metric"),
    (_scored_file(2, orientation="higher_better_0_1", value=0.5),
     "scored.jsonl line 2: orientation must be 'lower_better_0_25' as on line 1, "
     "not 'higher_better_0_1'", "scored-second-orientation"),
    (_scored_file(3, delta_mix=1.0),
     "scored.jsonl line 3: delta_mix must be 1.75, the improvement from qe_ori "
     "to qe_mix, not 1.0", "scored-delta-inconsistent"),
    (_scored_file(3, qe_para=30, delta_para=-22.75),
     "scored.jsonl line 3: qe_para must lie in [0.0, 25.0], not 30",
     "scored-delta-score-out-of-range"),
]

_DA_RECORDS = read_jsonl_plain(FIXTURES / "da_annotations.jsonl")
_GOLD_RECORDS = read_jsonl_plain(FIXTURES / "gold_labels.jsonl")


# (keys, malformed value, a command, message, id); each case runs through
# its command and through run-all
_BAD_NUMBERS = [
    (["concurrency"], "two", "classify",
     "config concurrency must be an integer, not 'two'", "concurrency-not-int"),
    (["concurrency"], 0, "classify",
     "config concurrency must be at least 1, not 0", "concurrency-below-1"),
    (["concurrency"], 257, "classify",
     "config concurrency must be at most 256, not 257", "concurrency-above-256"),
    (["vid_threshold"], "high", "extract",
     "config vid_threshold must be a number, not 'high'",
     "vid-threshold-not-number"),
    (["control_sample", "n"], [10], "extract",
     "config control_sample.n must be an integer, not [10]", "control-n-not-int"),
    (["repetition", "min_repeats"], "eight", "translate",
     "config repetition.min_repeats must be an integer, not 'eight'",
     "min-repeats-not-int"),
    (["repetition", "min_repeats"], 1, "translate",
     "config repetition.min_repeats must be at least 2, not 1",
     "min-repeats-below-2"),
    (["repetition", "max_unit"], 0, "translate",
     "config repetition.max_unit must be at least 1, not 0", "max-unit-below-1"),
    (["exclusion", "flag_pct"], "five", "report",
     "config exclusion.flag_pct must be a number, not 'five'",
     "flag-pct-not-number"),
    (["exclusion", "rank_exclude_pct"], None, "report",
     "config exclusion.rank_exclude_pct must be a number, not None",
     "rank-exclude-pct-null"),
    (["exclusion", "flag_pct"], -5, "report",
     "config exclusion.flag_pct must be at least 0, not -5", "flag-pct-below-0"),
    (["exclusion", "rank_exclude_pct"], 150, "report",
     "config exclusion.rank_exclude_pct must be at most 100, not 150",
     "rank-exclude-pct-above-100"),
    (["seed"], "x", "extract", "config seed must be an integer, not 'x'",
     "seed-not-int"),
    # a fraction is not an integer, and a bool or NaN is not a number
    (["control_sample", "n"], 2.5, "extract",
     "config control_sample.n must be an integer, not 2.5", "control-n-fraction"),
    (["seed"], 1.9, "extract", "config seed must be an integer, not 1.9",
     "seed-fraction"),
    (["concurrency"], True, "classify",
     "config concurrency must be an integer, not True", "concurrency-bool"),
    (["exclusion", "flag_pct"], False, "report",
     "config exclusion.flag_pct must be a number, not False", "flag-pct-bool"),
    (["vid_threshold"], float("nan"), "extract",
     "config vid_threshold must be a number, not nan", "vid-threshold-nan"),
    (["vid_threshold"], "nan", "extract",
     "config vid_threshold must be a number, not 'nan'", "vid-threshold-nan-text"),
]

# (keys, malformed value, a command, message, id) of a list the stages
# iterate, or of the name of one; each case runs through its command and
# through run-all
_BAD_LISTS = [
    (["target_langs"], 5, "translate",
     "config target_langs must be a list of language codes, not 5",
     "target-langs-not-list"),
    (["target_langs"], ["de", "fr"], "translate",
     "unsupported target language(s): ['fr']", "target-langs-unsupported"),
    (["target_langs"], ["de", "de"], "translate",
     "config target_langs lists 'de' more than once", "target-langs-repeated"),
    (["da", "vmwe_ids"], 5, "report",
     "config da.vmwe_ids must be a list of sentence ids, not 5",
     "da-vmwe-ids-not-list"),
    (["da", "control_ids"], ["s15", 16], "report",
     "config da.control_ids must be a list of sentence ids, not ['s15', 16]",
     "da-control-ids-not-strings"),
    (["backends", "beta", "break_rules"], 5, "translate",
     "config backends.beta.break_rules must be a list of mappings, not 5",
     "break-rules-not-list"),
    (["backends", "beta", "break_rules"], ["cs"], "translate",
     "config backends.beta.break_rules must be a list of mappings, not ['cs']",
     "break-rule-not-mapping"),
    (["backends", "beta", "break_rules"],
     [{"target_lang": "cs", "failure": "melted"}], "translate",
     "config backends.beta.break_rules has unknown failure 'melted'; allowed: "
     "untranslated, empty, repetitive, wrong_language",
     "break-rule-unknown-failure"),
    (["light_verbs"], 5, "extract", "unknown light-verb variant 5",
     "light-verbs-not-name"),
    (["light_verbs"], ["do", "make"], "extract",
     "unknown light-verb variant ['do', 'make']", "light-verbs-listed"),
]

# (keys, malformed value, a command, message, id) of a section the stages
# look keys up in; each case runs through its command and through run-all
_BAD_SECTIONS = [
    (["da"], 5, "report", "config da must be a mapping, not 5", "da-not-mapping"),
    (["classifier_eval"], 5, "report", "config classifier_eval must be a mapping, "
     "not 5", "classifier-eval-not-mapping"),
]

# (make_case, message, id) of a backend entry or a pipeline name; each case
# runs through its command and through run-all
_BAD_BACKENDS = [
    (_mt_without_base_url, "backends.alpha.base_url", "mt-no-base-url"),
    (_qe_without_orientation, "backends.mock_qe.orientation", "qe-no-orientation"),
    (_qe_unknown_orientation, "backends.mock_qe.orientation is 'lower'; "
                              "allowed: lower_better_0_25, higher_better_0_1",
     "qe-unknown-orientation"),
    (_config_value(["backends", "alpha"], "fast", "translate"),
     "config backends.alpha must be a mapping, not 'fast'",
     "backend-not-mapping"),
    (_config_value(["pipeline", "mt"], 5, "translate"),
     "config pipeline.mt must be a backend name or a list of them, not 5",
     "pipeline-mt-not-names"),
    (_mock_script(None), "missing input file", "mock-script-missing"),
    (_mock_script("{"), "script.json is not JSON", "mock-script-not-json"),
    *[(_mock_script(text), "script.json must be an object whose rules each hold "
       'a string "match" and a string "response" or "fail": true', case_id)
      for text, case_id in [
          ("[1]", "mock-script-not-object"),
          (_fixture_script(lambda rule: rule.pop("match")), "mock-rule-without-match"),
          (_fixture_script(lambda rule: rule.update(response=5)),
           "mock-response-not-string"),
          ('{"rules": {"match": "x"}}', "mock-rules-not-list"),
          ('{"rules": [], "default": 5}', "mock-default-not-string")]],
    (_config_value(["pipeline", "qe"], "nowhere", "extract"),
     "backend 'nowhere' is not defined in the config", "pipeline-qe-undefined"),
    (_config_value(["pipeline", "qe"], "alpha", "extract"),
     "backend 'alpha' is of kind mt, not qe", "pipeline-qe-names-mt"),
    (_config_value(["backends", "alpha"], {"kind": "mt", "base_url": 5}, "translate"),
     "config backends.alpha.base_url must be a string, not 5",
     "backend-base-url-not-string"),
    (_config_value(["backends", "alpha", "mode"], "grpc", "translate"),
     "backends.alpha.mode is 'grpc'; allowed: mock, http", "backend-unknown-mode"),
    (_config_value(["backends", "alpha"],
                   {"kind": "mt", "mode": "http", "base_url": "http://127.0.0.1:9",
                    "timeout": "fast"}, "translate"),
     "config backends.alpha.timeout must be a positive number, not 'fast'",
     "backend-timeout-not-number"),
    # translations are shared by system_id: a second system would get none
    (_config_value(["backends", "beta", "system_id"], "alpha", "translate"),
     "config pipeline.mt names system_id 'alpha' more than once",
     "mt-system-ids-shared"),
    (_config_value(["pipeline", "mt"], ["alpha", "alpha"], "translate"),
     "config pipeline.mt names system_id 'alpha' more than once",
     "mt-name-repeated"),
    (_config_value(["backends", "alpha", "system_id"], 5, "translate"),
     "config backends.alpha.system_id must be a string, not 5",
     "mt-system-id-not-string"),
    (_config_value(["backends", "mock_qe", "metric_id"], 7, "score"),
     "config backends.mock_qe.metric_id must be a string, not 7",
     "qe-metric-id-not-string"),
    (_config_value(["backends", "mock_llm", "model_id"], 5, "classify"),
     "config backends.mock_llm.model_id must be a string, not 5",
     "mock-llm-model-id-not-string"),
    (_config_value(["backends", "alpha"],
                   {"kind": "mt", "mode": "http", "base_url": "http://127.0.0.1:9",
                    "credential_env": 5}, "translate"),
     "config backends.alpha.credential_env must be a string, not 5",
     "backend-credential-env-not-string"),
]

# (make_case, message, id) of a report input the config names; each case
# runs through report and through run-all
_BAD_REPORT_INPUTS = [
    (_report_file("da", "annotations"), "missing input file", "da-file-missing"),
    (_report_file("classifier_eval", "gold"), "missing input file",
     "gold-file-missing"),
    (_report_input(lambda raw, _: raw["da"].update(control_ids=["s15", "s01"])),
     "config da.vmwe_ids and da.control_ids share ['s01']", "da-ids-shared"),
    (_report_file("da", "annotations", [
        {k: v for k, v in _DA_RECORDS[0].items() if k != "raw_score"},
        *_DA_RECORDS[1:]]),
     "da.jsonl line 1: raw_score is missing", "da-no-raw-score"),
    (_report_file("da", "annotations", [*_DA_RECORDS[:2], {
        **_DA_RECORDS[2], "annotator_id": 1}]),
     "da.jsonl line 3: annotator_id must be a string, not 1",
     "da-annotator-not-string"),
    (_report_file("da", "annotations", [{**_DA_RECORDS[0], "raw_score": True}]),
     "da.jsonl line 1: raw_score must be a number, not True",
     "da-raw-score-bool"),
    (_report_file("classifier_eval", "gold", [
        *_GOLD_RECORDS[:1], {**_GOLD_RECORDS[1], "label": "yes"}]),
     "classifier_eval.jsonl line 2: label must be a boolean or an integer, "
     "not 'yes'", "gold-label-not-bool"),
    (_report_file("classifier_eval", "gold", [{"label": True}]),
     "classifier_eval.jsonl line 1: candidate_ref is missing",
     "gold-no-candidate-ref"),
]

# (make_case, message, id)
_MALFORMED = [
    (_bad_yaml, "bad.yaml", "bad-yaml"),
    (_truncated_stage_in, "cands.jsonl line 2", "truncated-jsonl"),
    (_non_object_stage_in, "cands.jsonl line 1: record is not a JSON object",
     "non-object-jsonl"),
    (_controls_line("[1]"), "controls.jsonl line 1: record is not a JSON object",
     "control-not-object"),
    (_controls_line('{"id": "c1", "tokens": [1]}'),
     "controls.jsonl line 1: tokens[0] is not a JSON object",
     "control-token-not-object"),
    (_candidate(span=5), "cands.jsonl line 1: span must be an array, not 5",
     "candidate-span-not-list"),
    (_candidate(evidence=[1]),
     "cands.jsonl line 1: evidence must be an object, not [1]",
     "candidate-evidence-not-object"),
    # what a classifications file written before records held evidence holds
    (_classification(evidence=_ABSENT), "cls.jsonl line 1: evidence is missing",
     "classification-without-evidence"),
    (_classification(evidence={"verb_index": 2, "noun_index": 99}),
     "token index 99 is out of range for sentence 's04'",
     "classification-evidence-out-of-range"),
    (_classification(evidence={"verb_index": "2", "noun_index": 6}),
     "cls.jsonl line 1: evidence.verb_index must be an integer, not '2'",
     "classification-evidence-index-not-int"),
    (_candidate(category="VPC", span=[2, 3], evidence={"verb_index": 2},
                candidate_ref="s01#VPC#2.3"),
     "cands.jsonl line 1: evidence.particle_index is missing",
     "candidate-vpc-without-particle-index"),
    (_candidate(evidence={"idiom": {"canonical": "kick", "surface_form": "kick"}},
                match_score=1.0, candidate_ref="s01#VID#2.3.4"),
     "cands.jsonl line 1: evidence.idiom.canonical must be an array, not 'kick'",
     "candidate-vid-canonical-not-list"),
    (_paraphrase(original=None),
     "sentence 's04': translate requires a non-empty source text, not None",
     "paraphrase-original-null"),
    (_paraphrase(original=""),
     "sentence 's04': translate requires a non-empty source text, not ''",
     "paraphrase-original-empty"),
    (_jsonl_corpus(lambda record: record["tokens"][0].update(upos=7)),
     "corpus.jsonl line 1: tokens[0].upos must be a string or null, not 7",
     "corpus-jsonl-upos-not-string"),
    (_jsonl_corpus(lambda record: record.update(id=5)),
     "corpus.jsonl line 1: id must be a string, not 5", "corpus-jsonl-id-not-string"),
    *[(_config_value(keys, value, command), message, case_id)
      for keys, value, command, message, case_id
      in _BAD_NUMBERS + _BAD_LISTS + _BAD_SECTIONS],
    (_stage_in_manifest("{"), "cands.jsonl.manifest.json is not JSON",
     "manifest-not-json"),
    (_stage_in_manifest("[1]"), "cands.jsonl.manifest.json is not a JSON object",
     "manifest-not-object"),
    # what a manifest written before manifests recorded their output's hash holds
    (_stage_in_manifest('{"schema_version": 1}'),
     "cands.jsonl does not match its manifest's output_sha256",
     "manifest-without-output-sha256"),
    *[(_not_utf8(name), f"{name} is not UTF-8 text", f"{name}-not-utf8")
      for name in ("cands.jsonl", "controls.jsonl", "config.yaml",
                   "corpus.conllu", "idioms.txt")],
    (_config_value(["lexicon", "idioms"], 5, "extract"),
     "config lexicon.idioms must be a path, not 5", "idioms-path-not-string"),
    (_config_value(["corpus", "format"], "xml", "report"),
     "corpus.format is 'xml'; allowed: conllu, plain, jsonl", "corpus-format-unknown"),
    *_BAD_BACKENDS,
    *_BAD_REPORT_INPUTS,
    *_BAD_RULES,
    *_BAD_SCORES,
]


@pytest.mark.parametrize("make_case, message",
                         [case[:2] for case in _MALFORMED],
                         ids=[case[2] for case in _MALFORMED])
def test_malformed_input_exits_1_without_traceback(tmp_path, make_case, message):
    cfg, command = make_case(tmp_path)
    out = tmp_path / "out.jsonl"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "vmweval.cli", *command, "--config", str(cfg),
         "--stage-out", str(out)], env=env, capture_output=True, text=True,
        timeout=60)
    assert done.returncode == 1, done.stderr
    assert done.stderr.startswith("error: ")
    assert message in done.stderr
    assert "Traceback" not in done.stderr
    assert not out.exists()
    assert not rundir.manifest_path(out).exists()


def _run_all_fails_before_it_writes(tmp_path, capsys, make_case, message):
    cfg, _ = make_case(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["run-all", "--config", str(cfg), "--stage-out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists() or not any(out.rglob("*"))


@pytest.mark.parametrize("keys, value, message",
                         [(keys, value, message)
                          for keys, value, _, message, _ in _BAD_NUMBERS],
                         ids=[case[-1] for case in _BAD_NUMBERS])
def test_run_all_checks_every_number_before_it_writes(
        tmp_path, capsys, keys, value, message):
    _run_all_fails_before_it_writes(
        tmp_path, capsys, _config_value(keys, value, "run-all"), message)


@pytest.mark.parametrize("keys, value, message",
                         [(keys, value, message)
                          for keys, value, _, message, _ in _BAD_LISTS],
                         ids=[case[-1] for case in _BAD_LISTS])
def test_run_all_checks_every_list_before_it_writes(
        tmp_path, capsys, keys, value, message):
    _run_all_fails_before_it_writes(
        tmp_path, capsys, _config_value(keys, value, "run-all"), message)


@pytest.mark.parametrize("make_case, message",
                         [case[:2] for case in _BAD_BACKENDS],
                         ids=[case[2] for case in _BAD_BACKENDS])
def test_run_all_checks_every_backend_before_it_writes(
        tmp_path, capsys, make_case, message):
    """run-all builds the backends the pipeline names before extract, so a
    script it cannot read fails it before any write, like a bad entry."""
    _run_all_fails_before_it_writes(tmp_path, capsys, make_case, message)


@pytest.mark.parametrize("make_case, message",
                         [case[:2] for case in _BAD_REPORT_INPUTS],
                         ids=[case[2] for case in _BAD_REPORT_INPUTS])
def test_run_all_checks_every_report_input_before_it_writes(
        tmp_path, capsys, make_case, message):
    """run-all reads and checks the DA and gold-label files before extract,
    so one it cannot use fails it before any write."""
    _run_all_fails_before_it_writes(tmp_path, capsys, make_case, message)


@pytest.mark.parametrize("keys, value, message",
                         [(keys, value, message)
                          for keys, value, _, message, _ in _BAD_SECTIONS],
                         ids=[case[-1] for case in _BAD_SECTIONS])
def test_run_all_checks_every_section_before_it_writes(
        tmp_path, capsys, keys, value, message):
    _run_all_fails_before_it_writes(
        tmp_path, capsys, _config_value(keys, value, "run-all"), message)


class _WriteFailed(Exception):
    pass


def _break_jsonl(monkeypatch):
    """The first paraphrase translation raises, the second record of
    translations.jsonl."""
    encode = rundir._encode

    def encode_broken(record):
        if record.get("kind") == "para":
            raise _WriteFailed
        return encode(record)
    monkeypatch.setattr(rundir, "_encode", encode_broken)
    return _WriteFailed


def _break_manifest(monkeypatch):
    """Each manifest's config ends in a value JSON cannot encode."""
    load_config = cli.load_config

    def load(path):
        config = load_config(path)
        config.raw["zz_last"] = object()
        return config
    monkeypatch.setattr(cli, "load_config", load)
    return TypeError


def _break_report_table(monkeypatch):
    """The third report table ends in a lone surrogate, which UTF-8 cannot
    encode."""
    emit, calls = cli.report_mod.emit, []

    def emit_3rd_broken(*args):
        calls.append(args)
        text = emit(*args)
        return text + "\ud800" if len(calls) == 3 else text
    monkeypatch.setattr(cli.report_mod, "emit", emit_3rd_broken)
    return UnicodeEncodeError


@pytest.mark.parametrize("break_write", [
    _break_jsonl, _break_manifest, _break_report_table],
    ids=["jsonl-record", "manifest", "report-table"])
def test_a_write_that_fails_partway_leaves_the_previous_output(
        tmp_path, monkeypatch, break_write):
    cfg = patched_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["run-all", "--config", str(cfg), "--stage-out", str(out)]) == 0

    def tree():
        return {str(p.relative_to(out)): p.read_bytes()
                for p in sorted(out.rglob("*")) if p.is_file()}
    before = tree()
    raised = break_write(monkeypatch)
    with pytest.raises(raised):
        cli.main(["run-all", "--config", str(cfg), "--stage-out", str(out)])
    # each file was rewritten whole with the same bytes, or not at all,
    # and no temp file is left beside them
    assert tree() == before


def test_report_writes_all_of_its_output_or_none(tmp_path, capsys):
    """A gold-label file that lacks a decided candidate's label fails the
    classifier table, the last one built: report/ keeps the earlier run's
    bytes, run alone or through run-all."""
    out = tmp_path / "run"
    assert cli.main(["run-all", "--config", str(patched_config(tmp_path)),
                     "--stage-out", str(out)]) == 0
    before = _tree(out / "report")
    gold = tmp_path / "gold.jsonl"
    gold.write_text("".join(
        line for line in (FIXTURES / "gold_labels.jsonl").read_text("utf-8")
        .splitlines(keepends=True) if "s01#VID#2.3.4" not in line), encoding="utf-8")
    (tmp_path / "bad").mkdir()
    cfg = patched_config(tmp_path / "bad", lambda raw: raw["classifier_eval"]
                         .update(gold=str(gold)))
    for command in (["report", "--stage-in", out / "scored.jsonl",
                     "--classifications-in", out / "classifications.jsonl",
                     "--stage-out", out / "report"],
                    ["run-all", "--stage-out", out]):
        assert cli.main([str(arg) for arg in command] + ["--config", str(cfg)]) == 1
        assert "prediction s01#VID#2.3.4 has no gold label" in capsys.readouterr().err
        assert _tree(out / "report") == before, command[0]


@pytest.mark.parametrize("make_case, message",
                         [case[:2] for case in _BAD_SCORES],
                         ids=[case[2] for case in _BAD_SCORES])
def test_report_on_a_scored_file_that_breaks_its_rules_keeps_report(
        tmp_path, capsys, make_case, message):
    """report/ keeps the bytes of the run on the unchanged scored file."""
    cfg, command = _scored_file(0)(tmp_path)
    out = tmp_path / "report"
    assert cli.main([*command, "--config", str(cfg), "--stage-out", str(out)]) == 0
    before = _tree(out)
    assert "delta_table.json" in before and "gap_table.json" in before
    capsys.readouterr()
    cfg, command = make_case(tmp_path)
    assert cli.main([*command, "--config", str(cfg), "--stage-out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {tmp_path / message}\n"
    assert _tree(out) == before


def test_main_schema_mismatch_exit_code(tmp_path, capsys):
    cfg = patched_config(tmp_path)
    data = tmp_path / "data.jsonl"
    cli.write_jsonl(data, [{"x": 1}])
    (tmp_path / "data.jsonl.manifest.json").write_text(
        json.dumps({"schema_version": 99}))
    assert cli.main(["classify", "--config", str(cfg),
                     "--stage-in", str(data),
                     "--stage-out", str(tmp_path / "out.jsonl")]) == 1
    assert "schema 99" in capsys.readouterr().err


def test_run_all_smoke(tmp_path):
    cfg = patched_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["run-all", "--config", str(cfg),
                     "--stage-out", str(out)]) == 0
    for name in ("candidates.jsonl", "controls.jsonl", "classifications.jsonl",
                 "paraphrases.jsonl", "translations.jsonl", "scored.jsonl"):
        assert (out / name).is_file(), name
    assert (out / "report" / "ranking.csv").is_file()
    # the broken backend in the config drops beta/cs from the ranking
    error_rates = (out / "report" / "error_rates.csv").read_text()
    assert "beta,cs,35,35,100.00,true,true" in error_rates


def test_run_all_passes_shared_flags_to_every_stage(tmp_path):
    cfg = patched_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["run-all", "--config", str(cfg), "--stage-out", str(out),
                     "--seed", "7", "--category", "vpc", "--target-lang", "de",
                     "--backend", "alpha"]) == 0
    for name in ("candidates.jsonl", "classifications.jsonl",
                 "paraphrases.jsonl"):
        records = read_jsonl_plain(out / name)
        assert len(records) == 5, name
        assert {r["category"] for r in records} == {"VPC"}, name
    translations = read_jsonl_plain(out / "translations.jsonl")
    assert {r["target_lang"] for r in translations} == {"de"}
    # --backend names one stage's backend, so run-all leaves it to the config
    assert {r["system_id"] for r in translations} == {"alpha", "beta"}
    for name in ("candidates.jsonl", "classifications.jsonl",
                 "paraphrases.jsonl", "translations.jsonl", "scored.jsonl",
                 "report"):
        assert read_manifest(out / name)["seed"] == 7, name


def test_manifests_record_what_the_flags_narrowed(tmp_path):
    """Each flag that narrows the config narrows the snapshot every manifest
    records; without them the manifests record the config as written."""
    cfg = patched_config(tmp_path)
    raw = yaml.safe_load(cfg.read_text("utf-8"))
    outputs = ("candidates.jsonl", "controls.jsonl", "classifications.jsonl",
               "paraphrases.jsonl", "translations.jsonl", "scored.jsonl", "report")
    out = tmp_path / "run"
    assert cli.main(["run-all", "--config", str(cfg), "--stage-out", str(out)]) == 0
    for name in outputs:
        assert read_manifest(out / name)["config"] == raw, name
    narrowed = tmp_path / "narrowed"
    assert cli.main(["run-all", "--config", str(cfg), "--stage-out", str(narrowed),
                     "--seed", "7", "--category", "vpc", "--target-lang", "de",
                     "--backend", "alpha"]) == 0
    # run-all leaves the pipeline to the config
    expected = {**raw, "seed": 7, "categories": ["VPC"], "target_langs": ["de"]}
    for name in outputs:
        assert read_manifest(narrowed / name)["config"] == expected, name
    translations = tmp_path / "translations.jsonl"
    assert cli.main(["translate", "--config", str(cfg), "--stage-out",
                     str(translations), "--stage-in", str(out / "paraphrases.jsonl"),
                     "--target-lang", "de", "--backend", "beta"]) == 0
    assert {(r["system_id"], r["target_lang"])
            for r in read_jsonl_plain(translations)} == {("beta", "de")}
    assert read_manifest(translations)["config"] == {
        **raw, "target_langs": ["de"], "pipeline": {**raw["pipeline"], "mt": ["beta"]}}
    scored = tmp_path / "scored.jsonl"
    assert cli.main(["score", "--config", str(cfg), "--stage-out", str(scored),
                     "--stage-in", str(translations), "--backend", "mock_qe"]) == 0
    assert read_manifest(scored)["config"] == raw


# --- run-all hands records over in memory ------------------------------------

def _tree(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _fail_some_calls(monkeypatch):
    """One transport failure in each of paraphrase, translate and score."""
    _inject_transport_failures(
        monkeypatch, MockChatBackend, "complete",
        lambda request: "Sentence: He spilled the beans. || Phrase:"
        in request.last_user_content())
    _inject_transport_failures(
        monkeypatch, MockMTBackend, "translate_text",
        lambda text, lang: (text, lang) == ("She gave up smoking last year.", "de"))
    _inject_transport_failures(
        monkeypatch, MockQEBackend, "assess",
        lambda source, hypothesis: source.startswith("The old farmer"))


@pytest.mark.parametrize("failing", [False, True],
                         ids=["clean", "transport-failures"])
def test_run_all_writes_what_the_single_stage_commands_write(
        tmp_path, monkeypatch, failing):
    """The six commands, each reading the files the one before wrote, are
    the oracle of run-all's in-memory chain, manifests included."""
    if failing:
        _fail_some_calls(monkeypatch)
    cfg = patched_config(tmp_path)
    chained, staged = tmp_path / "chained", tmp_path / "staged"
    code = cli.main(["run-all", "--config", str(cfg), "--stage-out", str(chained)])
    path = {name: staged / f"{name}.jsonl"
            for name in ("candidates", "controls", "classifications",
                         "paraphrases", "translations", "scored")}
    steps = [
        ["extract", "--stage-out", path["candidates"],
         "--controls-out", path["controls"]],
        ["classify", "--stage-in", path["candidates"],
         "--stage-out", path["classifications"]],
        ["paraphrase", "--stage-in", path["classifications"],
         "--stage-out", path["paraphrases"]],
        ["translate", "--stage-in", path["paraphrases"],
         "--stage-out", path["translations"], "--controls-in", path["controls"]],
        ["score", "--stage-in", path["translations"], "--stage-out", path["scored"]],
        ["report", "--stage-in", path["scored"], "--stage-out", staged / "report",
         "--classifications-in", path["classifications"]],
    ]
    codes = [cli.main([str(arg) for arg in step] + ["--config", str(cfg)])
             for step in steps]
    assert codes == ([0, 0, 2, 2, 2, 0] if failing else [0] * 6)
    assert code == max(codes)
    assert _tree(chained) == _tree(staged)


@pytest.mark.parametrize("failing", [False, True],
                         ids=["clean", "transport-failures"])
def test_every_stage_returns_records_equal_to_their_json(
        tmp_path, monkeypatch, failing):
    """A record handed on in memory is the one the next stage would read
    from the file: no tuples, shared keys of another type or the like."""
    if failing:
        _fail_some_calls(monkeypatch)
    returned = {}
    for name in ("stage_extract", "stage_classify", "stage_paraphrase",
                 "stage_translate", "stage_score"):
        def recorded(*args, _stage=getattr(cli, name), _name=name):
            outputs = _stage(*args)
            returned[_name] = outputs[1]
            return outputs
        monkeypatch.setattr(cli, name, recorded)
    out = tmp_path / "run"
    cli.main(["run-all", "--config", str(patched_config(tmp_path)),
              "--stage-out", str(out)])
    files = ["candidates", "classifications", "paraphrases", "translations",
             "scored"]
    assert list(returned) == [f"stage_{n}" for n in
                              ("extract", "classify", "paraphrase", "translate",
                               "score")]
    for (name, records), file in zip(returned.items(), files):
        assert records, name
        assert read_jsonl_plain(out / f"{file}.jsonl") == records, name
        for record in records:
            text = rundir._encode(record)
            assert json.loads(text) == record, (name, record)
            assert rundir._encode(json.loads(text)) == text, (name, record)
    # every record a stage writes passes the table the next stage checks
    for file, kind in _RECORD_KINDS.items():
        check_records(kind, enumerate(read_jsonl_plain(out / file), 1), file)


# run-all's JSON Lines files -> the kind of their records
_RECORD_KINDS = {"candidates.jsonl": "candidate", "controls.jsonl": "sentence",
                 "classifications.jsonl": "classification",
                 "paraphrases.jsonl": "paraphrase",
                 "translations.jsonl": "translation", "scored.jsonl": "scored"}


@pytest.fixture(scope="module")
def failing_run(tmp_path_factory):
    """A run-all tree of the fixture config holding a record of every shape:
    one transport failure in each backend stage and in classify, and one
    unparseable classification."""
    tmp_path = tmp_path_factory.mktemp("failing-run")
    classify = llm_mod.classify_candidate

    def classify_failing(backend, category, cand, sentence):
        if cand.ref == "s04#VID#2.3.4.5.6":
            raise TransportError("injected classify failure")
        if cand.ref == "s22#VPC#2.3":
            raise UnparseableResponse("no answer", raw_response="mumble")
        return classify(backend, category, cand, sentence)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _fail_some_calls(monkeypatch)
        monkeypatch.setattr(llm_mod, "classify_candidate", classify_failing)
        out = tmp_path / "run"
        assert cli.main(["run-all", "--config", str(patched_config(tmp_path)),
                         "--stage-out", str(out)]) == 2
    errors = {(r.get("type"), r.get("error"))
              for file in _RECORD_KINDS for r in read_jsonl_plain(out / file)}
    assert {(None, "transport"), (None, "unparseable"),
            ("failed", "transport"), ("invalid", None)} <= errors
    return out


def _written(out: Path) -> dict:
    """What a command wrote at `out`: each file's bytes, a manifest's fields
    without its input digests."""
    paths = sorted(out.rglob("*")) if out.is_dir() else [out, rundir.manifest_path(out)]
    written = {}
    for path in filter(Path.is_file, paths):
        name = path.name.removeprefix(out.name)
        written[name] = path.read_bytes()
        if name.endswith("manifest.json"):
            written[name] = {**json.loads(written[name]), "inputs": None}
    return written


def _wrong_type(value):
    """A value of another JSON type than `value`."""
    if isinstance(value, str):
        return 7
    return [] if value is None else "7"


# command -> the file of each input: its option, or its config key
_FUZZED = {
    "classify": {"--stage-in": "candidates.jsonl"},
    "paraphrase": {"--stage-in": "classifications.jsonl"},
    "translate": {"--stage-in": "paraphrases.jsonl",
                  "--controls-in": "controls.jsonl"},
    "score": {"--stage-in": "translations.jsonl"},
    "report": {"--stage-in": "scored.jsonl",
               "--classifications-in": "classifications.jsonl",
               "da.annotations": "da.jsonl", "classifier_eval.gold": "gold.jsonl"},
}


def test_every_stage_input_is_checked_against_its_records_table(
        tmp_path, failing_run, capsys):
    """For one record of each shape in each input of each one-stage command,
    drop each field in turn, and set it to a value of a wrong JSON type.
    The command exits 1 with an error and writes nothing, or, when it does
    not read the field, writes what it writes from the unchanged input."""
    inputs = tmp_path / "inputs"  # with no manifests beside them
    inputs.mkdir()
    for file in _RECORD_KINDS:
        shutil.copy(failing_run / file, inputs / file)
    shutil.copy(FIXTURES / "da_annotations.jsonl", inputs / "da.jsonl")
    shutil.copy(FIXTURES / "gold_labels.jsonl", inputs / "gold.jsonl")

    def mutate(raw):
        raw["da"]["annotations"] = str(inputs / "da.jsonl")
        raw["classifier_eval"]["gold"] = str(inputs / "gold.jsonl")
    cfg = patched_config(tmp_path, mutate)
    rng = random.Random(21)
    outs = itertools.count()
    failures, cases = [], 0
    for command, files in _FUZZED.items():
        options = [str(arg) for option, file in files.items()
                   if option.startswith("--") for arg in (option, inputs / file)]

        def run():
            out = tmp_path / "out" / str(next(outs))
            code = cli.main([command, "--config", str(cfg), "--stage-out", str(out),
                             *options])
            return code, capsys.readouterr().err, _written(out)
        code, err, expected = run()
        assert (code, err) == (0, ""), command
        for file in files.values():
            original = (inputs / file).read_text("utf-8")
            records = read_jsonl_plain(inputs / file)
            shapes = {}
            for i, record in enumerate(records):
                shape = (record.get("type"), record.get("kind"), record.get("error"),
                         tuple((k, type(v).__name__) for k, v in record.items()))
                shapes.setdefault(shape, []).append(i)
            for i in (rng.choice(indices) for indices in shapes.values()):
                record = records[i]
                for field, value in record.items():
                    for change, changed in [
                            (f"without {field}",
                             {k: v for k, v in record.items() if k != field}),
                            (f"{field}={_wrong_type(value)!r}",
                             {**record, field: _wrong_type(value)})]:
                        cli.write_jsonl(inputs / file,
                                        records[:i] + [changed] + records[i + 1:])
                        case = (command, file, i + 1, change)
                        cases += 1
                        try:
                            code, err, written = run()
                        except Exception as exc:  # noqa: BLE001 - reported below
                            failures.append((*case, repr(exc)))
                            continue
                        refused = (code == 1 and err.startswith("error: ")
                                   and written == {})
                        if not refused and (code, written) != (0, expected):
                            failures.append((*case, code, err))
            (inputs / file).write_text(original, encoding="utf-8")
    assert failures == [], "\n".join(map(repr, failures))
    assert cases > 200


def _flip_a_bit(data: bytes, at: int) -> bytes:
    return data[:at] + bytes([data[at] ^ 1]) + data[at + 1:]


@pytest.mark.parametrize("command, file, edit, message", [
    ("score", "translations.jsonl",
     lambda data: b"".join(data.splitlines(keepends=True)[:50]),
     "translations.jsonl does not match its manifest's output_sha256"),
    ("score", "translations.jsonl",
     lambda data: _flip_a_bit(data, data.index(b'"source": "') + 11),
     "translations.jsonl does not match its manifest's output_sha256"),
    ("score", "translations.jsonl",
     lambda data: data.replace(b', "validity": "ok"', b"", 1),
     "translations.jsonl line 1: validity is missing"),
    ("report", "scored.jsonl", lambda data: data.replace(
        b'"type": "delta", "sentence_id": "s01", "candidate_ref": "s01#VID#2.3.4", '
        b'"category": "VID", ', b'"type": "delta", "sentence_id": "s01", '
        b'"candidate_ref": "s01#VID#2.3.4", '), "category is missing"),
], ids=["truncated", "one-byte-changed", "translation-without-validity",
        "delta-without-category"])
def test_a_stage_refuses_an_input_that_is_not_what_was_written(
        tmp_path, capsys, command, file, edit, message):
    """An input whose bytes differ from what its manifest records is refused
    whole; one without a manifest is refused for a record its table refuses."""
    run = tmp_path / "run"
    cfg = patched_config(tmp_path)
    assert cli.main(["run-all", "--config", str(cfg), "--stage-out", str(run)]) == 0
    data = (run / file).read_bytes()
    assert edit(data) != data
    (run / file).write_bytes(edit(data))
    if "output_sha256" not in message:
        rundir.manifest_path(run / file).unlink()
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfg), "--stage-in", str(run / file),
                     "--stage-out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists() and not rundir.manifest_path(out).exists()


def test_a_rerun_leaves_no_table_of_an_earlier_run(tmp_path):
    """Without DA annotations and gold labels a rerun writes no z-gap or
    classifier table, and removes those an earlier run wrote: its tree is
    a fresh run's."""
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    assert cli.main(["run-all", "--config", str(patched_config(tmp_path)),
                     "--stage-out", str(reused)]) == 0
    assert (reused / "report" / "z_gap_table.json").is_file()
    assert (reused / "report" / "classifier_table.csv").is_file()

    def drop_report_inputs(raw):
        del raw["da"], raw["classifier_eval"]
    cfg = patched_config(tmp_path, drop_report_inputs)
    for out in (reused, fresh):
        assert cli.main(["run-all", "--config", str(cfg),
                         "--stage-out", str(out)]) == 0
    assert _tree(reused) == _tree(fresh)
    assert sorted(read_manifest(reused / "report")["output_sha256"]) == sorted(
        p.name for p in (reused / "report").iterdir() if p.name != "manifest.json")


# Each returns the command, its --stage-out and the path its error names.

def _stage_out_a_directory(tmp_path):
    (tmp_path / "out").mkdir()
    return ["extract"], tmp_path / "out", tmp_path / "out"


def _stage_out_a_file(tmp_path):
    scored = tmp_path / "scored.jsonl"
    scored.write_text("", encoding="utf-8")
    out = tmp_path / "report"
    out.write_text("not a directory", encoding="utf-8")
    return ["report", "--stage-in", str(scored)], out, out


def _stage_out_under_a_file(command):
    def make_case(tmp_path):
        (tmp_path / "file").write_text("not a directory", encoding="utf-8")
        out = tmp_path / "file" / "out"
        # extract's output is a file in that file; run-all's a directory
        return [command], out, out.parent if command == "extract" else out
    return make_case


@pytest.mark.parametrize("make_case", [
    _stage_out_a_directory, _stage_out_a_file, _stage_out_under_a_file("extract"),
    _stage_out_under_a_file("run-all")],
    ids=["extract-into-a-directory", "report-onto-a-file",
         "extract-under-a-file", "run-all-under-a-file"])
def test_an_unwritable_stage_out_exits_1_without_traceback(tmp_path, make_case):
    cfg = patched_config(tmp_path)
    command, out, named = make_case(tmp_path)
    before = _tree(tmp_path)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "vmweval.cli", *command, "--config", str(cfg),
         "--stage-out", str(out)], env=env, capture_output=True, text=True,
        timeout=60)
    assert done.returncode == 1, done.stderr
    assert done.stderr.startswith(f"error: cannot write {named}: ")
    assert "Traceback" not in done.stderr
    assert _tree(tmp_path) == before


def test_run_all_translates_only_the_controls_it_sampled(tmp_path):
    """A controls.jsonl an earlier run with a control sample left behind is
    not this run's: with control_sample.n at 0, a rerun into the same
    directory writes what a fresh directory gets."""
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    assert cli.main(["run-all", "--config", str(patched_config(tmp_path)),
                     "--stage-out", str(reused)]) == 0
    assert "controls" in read_manifest(reused / "translations.jsonl")["inputs"]
    cfg = patched_config(tmp_path, lambda raw: raw["control_sample"].update(n=0))
    for out in (reused, fresh):
        assert cli.main(["run-all", "--config", str(cfg),
                         "--stage-out", str(out)]) == 0
    for out in (reused, fresh):
        assert not (out / "controls.jsonl").exists()
        assert not rundir.manifest_path(out / "controls.jsonl").exists()
    for name in ("translations.jsonl", "scored.jsonl"):
        assert (reused / name).read_bytes() == (fresh / name).read_bytes(), name

    def tables(out):
        return {p.name: p.read_bytes() for p in (out / "report").iterdir()
                if p.name != "manifest.json"}
    assert tables(reused) == tables(fresh)
    assert "control" not in {r["kind"] for r in
                             read_jsonl_plain(fresh / "translations.jsonl")}
    assert "controls" not in read_manifest(reused / "translations.jsonl")["inputs"]


@pytest.mark.parametrize("controls_out", [None, "sample.jsonl"],
                         ids=["beside-stage-out", "controls-out"])
def test_extract_removes_the_control_sample_an_earlier_run_left(tmp_path,
                                                                 controls_out):
    """A one-stage extract with control_sample.n at 0 removes the sample and
    manifest an earlier extract wrote where its own would go, so a later
    translate --controls-in cannot pick up a stale sample."""
    out = tmp_path / "run" / "c.jsonl"
    sample = tmp_path / "run" / (controls_out or "c.controls.jsonl")
    argv = ["--stage-out", str(out)]
    if controls_out:
        argv += ["--controls-out", str(sample)]
    assert cli.main(["extract", "--config", str(patched_config(tmp_path)),
                     *argv]) == 0
    assert len(read_jsonl_plain(sample)) == 5
    cfg = patched_config(tmp_path, lambda raw: raw["control_sample"].update(n=0))
    assert cli.main(["extract", "--config", str(cfg), *argv]) == 0
    assert not sample.exists() and not rundir.manifest_path(sample).exists()
    fresh = tmp_path / "fresh" / "c.jsonl"
    assert cli.main(["extract", "--config", str(cfg), "--stage-out", str(fresh)]) == 0
    assert _tree(out.parent) == _tree(fresh.parent)


def test_run_all_parses_the_corpus_once_and_reads_back_nothing_it_wrote(
        tmp_path, monkeypatch):
    loaded, read = [], []
    read_jsonl = cli.read_jsonl
    monkeypatch.setattr(cli.corpus_mod, "load_corpus",
                        lambda *args: loaded.append(args) or load_corpus(*args))
    monkeypatch.setattr(cli, "read_jsonl",
                        lambda path, kind: read.append(path) or read_jsonl(path, kind))
    assert cli.main(["run-all", "--config", str(patched_config(tmp_path)),
                     "--stage-out", str(tmp_path / "run")]) == 0
    assert loaded == [((FIXTURES / "corpus_25.conllu").read_text("utf-8"), "conllu")]
    assert [Path(path).resolve() for path in read] == [
        (FIXTURES / "da_annotations.jsonl").resolve(),
        (FIXTURES / "gold_labels.jsonl").resolve()]


def test_run_all_hashes_no_file_it_wrote(tmp_path, monkeypatch):
    """Each stage hands on the sha256 of the bytes it wrote, so run-all reads
    only the files the config names, each once, and hashes the bytes it read;
    every manifest's input digests are those of the files' bytes, and its
    output_sha256 that of the bytes it describes."""
    seen = []
    read_input = rundir.read_input
    monkeypatch.setattr(rundir, "read_input",
                        lambda path: seen.append(path) or read_input(path))
    files = {"corpus": FIXTURES / "corpus_25.conllu",
             "idioms": FIXTURES / "idioms.txt",
             "verb_lemmas": Path(cli.__file__).parent / "data" / "verb_lemmas.txt",
             "da_annotations": FIXTURES / "da_annotations.jsonl",
             "gold": FIXTURES / "gold_labels.jsonl"}
    cfg = patched_config(tmp_path, lambda raw: raw["lexicon"].update(
        verb_lemmas=str(files["verb_lemmas"])))
    out = tmp_path / "run"
    assert cli.main(["run-all", "--config", str(cfg), "--stage-out", str(out)]) == 0
    assert sorted(Path(p).resolve() for p in seen) == \
        sorted(path.resolve() for path in [cfg, *files.values()])
    files.update({name: out / f"{name}.jsonl"
                  for name in ("candidates", "controls", "classifications",
                               "paraphrases", "translations", "scored")})

    def digest(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()
    named = set()
    for manifest in out.rglob("*manifest.json"):
        fields = json.loads(manifest.read_text())
        for name, recorded in fields["inputs"].items():
            assert recorded == digest(files[name]), (manifest.name, name)
            named.add(name)
        if manifest.name == "manifest.json":  # the report directory's
            assert fields["output_sha256"] == {
                p.name: digest(p) for p in manifest.parent.iterdir() if p != manifest}
        else:
            assert fields["output_sha256"] == digest(
                manifest.with_name(manifest.name.removesuffix(".manifest.json")))
    assert named == set(files)


def test_run_all_builds_each_backend_once(tmp_path, monkeypatch):
    """classify and paraphrase share the chat backend: its script is read
    once a run."""
    read, from_file = [], MockChatBackend.from_file.__func__
    monkeypatch.setattr(MockChatBackend, "from_file", classmethod(
        lambda cls, *args, **kwargs: read.append(args) or from_file(cls, *args,
                                                                    **kwargs)))
    assert cli.main(["run-all", "--config", str(patched_config(tmp_path)),
                     "--stage-out", str(tmp_path / "run")]) == 0
    assert [Path(path).resolve() for path, in read] == [
        (FIXTURES / "mock_llm_script.json").resolve()]


# --- argument parsing against the per-command parsers it replaced ------------

def _subcommand_parser():
    """The parser as it was: one subparser per command, each with the same
    ten options."""
    parser = argparse.ArgumentParser(prog="vmweval")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _) in cli._COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True)
        p.add_argument("--stage-in", type=Path)
        p.add_argument("--stage-out", type=Path, required=True)
        p.add_argument("--seed", type=int)
        p.add_argument("--backend")
        p.add_argument("--category", choices=["vid", "vpc", "lvc", "all"])
        p.add_argument("--target-lang", choices=list(mt_mod.TARGET_LANGS))
        p.add_argument("--controls-in", type=Path)
        p.add_argument("--controls-out", type=Path)
        p.add_argument("--classifications-in", type=Path)
    return parser


_ALL_OPTIONS = ["--config", "c.yaml", "--stage-in", "in.jsonl", "--stage-out", "out",
                "--seed", "7", "--backend", "alpha", "--category", "vid",
                "--target-lang", "de", "--controls-in", "controls.jsonl",
                "--controls-out", "sample.jsonl", "--classifications-in", "cls.jsonl"]


@pytest.mark.parametrize("command", list(cli._COMMANDS))
@pytest.mark.parametrize("options", [_ALL_OPTIONS,
                                     ["--config", "c.yaml", "--stage-out", "out"]],
                         ids=["all-options", "required-only"])
def test_parser_equals_the_subcommand_parser(command, options):
    argv = [command, *options]
    assert cli.build_parser().parse_args(argv) == _subcommand_parser().parse_args(argv)


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    for name, (_, help_text, _) in cli._COMMANDS.items():
        assert f"  {name}" in out and help_text in out, name


def test_help_lists_the_flags_each_command_reads(capsys):
    """Under each command's help text, the flags its table entry lists, with
    an input's records kind and the role --backend replaces."""
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    lines = capsys.readouterr().out.splitlines()
    for name, (_, help_text, reads) in cli._COMMANDS.items():
        listed = lines[lines.index(f"  {name:<12}{help_text}") + 1].split(", ")
        assert [part.split()[0] for part in listed] == list(reads), name
    assert ("every command reads --config, --stage-out, --seed, --category, "
            "--target-lang") in lines
    assert lines[lines.index("  translate   translate originals, paraphrases "
                             "and controls") + 1].split() == [
        "--stage-in", "paraphrase,", "--controls-in", "sentence,", "--backend", "mt"]


# every option the parser has, without its value
_FLAGS = _ALL_OPTIONS[::2]

# (command, flag) for each flag a command does not read
_UNREAD = [(command, flag) for command, (_, _, reads) in cli._COMMANDS.items()
           for flag in _FLAGS if flag not in cli._SHARED and flag not in reads]


def test_every_command_reads_the_shared_flags_and_its_own():
    assert set(cli._SHARED) <= set(_FLAGS)
    assert {flag for _, _, reads in cli._COMMANDS.values() for flag in reads} == (
        set(_FLAGS) - set(cli._SHARED))
    assert ("run-all", "--controls-out") in _UNREAD
    assert ("extract", "--controls-in") in _UNREAD
    assert len(_UNREAD) == 22


def _refused(tmp_path, capsys, command, flags, config):
    """Run `command` with `config` and each of `flags` naming a path that
    does not exist: (exit code, stderr), asserting that nothing was written."""
    argv = [command, "--config", str(config), "--stage-out", str(tmp_path / "out")]
    for flag in flags:
        argv += [flag, str(tmp_path / "nothing-here.jsonl")]
    before = [(p, p.is_file() and p.read_bytes()) for p in sorted(tmp_path.rglob("*"))]
    code = cli.main(argv)
    assert [(p, p.is_file() and p.read_bytes())
            for p in sorted(tmp_path.rglob("*"))] == before
    return code, capsys.readouterr().err


@pytest.mark.parametrize("command,flag", _UNREAD,
                         ids=[f"{command} {flag}" for command, flag in _UNREAD])
def test_main_refuses_a_flag_its_command_does_not_read(tmp_path, capsys, command,
                                                       flag):
    """Before it loads the config: the config named does not exist."""
    assert _refused(tmp_path, capsys, command, [flag],
                    tmp_path / "no-config.yaml") == (
        1, f"error: {command} does not read {flag}\n")


@pytest.mark.parametrize("command,flags,refused", [
    ("extract", ["--controls-in", "--classifications-in"], "--controls-in"),
    ("run-all", ["--controls-out"], "--controls-out"),
    ("run-all", ["--backend", "--controls-out"], "--controls-out"),
    ("classify", ["--stage-in", "--backend", "--controls-out"], "--controls-out"),
], ids=["extract-controls-and-classifications-in", "run-all-controls-out",
        "run-all-backend-and-controls-out", "classify-with-its-flags-and-another"])
def test_main_refuses_a_flag_under_a_config_that_runs(tmp_path, capsys, command,
                                                      flags, refused):
    """The first flag the command does not read is named, and nothing is
    written: run-all writes no controls to the path given or to its own."""
    assert _refused(tmp_path, capsys, command, flags, patched_config(tmp_path)) == (
        1, f"error: {command} does not read {refused}\n")


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_main_reads_every_flag_its_table_entry_lists(tmp_path, capsys, command):
    """A flag the table lists, or that every command reads, is not refused:
    with a config that does not exist, the command fails on the config."""
    _, _, reads = cli._COMMANDS[command]
    argv = [command, "--config", str(tmp_path / "no-config.yaml"),
            "--stage-out", str(tmp_path / "out"),
            "--seed", "7", "--category", "vid", "--target-lang", "de"]
    for flag in reads:
        argv += [flag, str(tmp_path / "nothing-here.jsonl")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("error: config file not found: ")
    assert list(tmp_path.iterdir()) == []
