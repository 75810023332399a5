import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
import yaml

from vmweval import cli
from vmweval import llm as llm_mod
from vmweval import mt as mt_mod
from vmweval import qe as qe_mod
from vmweval.errors import (BackendContractError, ContractViolation,
                            ParseError, SchemaVersionError, TransportError,
                            UnparseableResponse)
from vmweval.lexicon import default_verb_lemmas, normalize_idiom
from vmweval.llm import MockChatBackend
from vmweval.mt import MockMTBackend
from vmweval.qe import MockQEBackend, Orientation

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
    return json.loads(cli._manifest_path(Path(out_path)).read_text())


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
    assert cli._credential({"base_url": "http://x"}) is None


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
    records = [{"a": 1}, {"b": "ü"}]
    cli.write_jsonl(out, records)
    config = cli.load_config(patched_config(tmp_path))
    cli.write_manifest(out, "extract", config, {"corpus": config.corpus_file},
                       {"candidates": 2}, seed=42)
    assert cli.read_jsonl(out) == records
    manifest = read_manifest(out)
    assert manifest["schema_version"] == 1
    assert manifest["stage"] == "extract"
    assert manifest["seed"] == 42
    assert manifest["counts"] == {"candidates": 2}
    assert manifest["config"] == config.raw
    expected = hashlib.sha256(config.corpus_file.read_bytes()).hexdigest()
    assert manifest["inputs"]["corpus"] == expected
    # no timestamps or machine state anywhere
    assert set(manifest) == {"schema_version", "stage", "seed", "inputs",
                             "config", "counts"}


def test_manifest_path_for_directories(tmp_path):
    d = tmp_path / "report"
    d.mkdir()
    assert cli._manifest_path(d) == d / "manifest.json"
    assert cli._manifest_path(tmp_path / "x.jsonl") == \
        tmp_path / "x.jsonl.manifest.json"


@pytest.mark.parametrize("size", [0, 1, cli._HASH_BLOCK - 1, cli._HASH_BLOCK,
                                  cli._HASH_BLOCK + 1, 3 * cli._HASH_BLOCK + 7])
def test_sha256_in_blocks_equals_the_whole_file_digest(tmp_path, size):
    path = tmp_path / "data.bin"
    path.write_bytes(random.Random(size).getrandbits(8 * size).to_bytes(size, "big"))
    assert cli._sha256(path) == hashlib.sha256(path.read_bytes()).hexdigest()


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
            cli._load_lexicon(config)
        assert str(got.value) == str(exc)
        return
    lex = cli._load_lexicon(config)
    assert list(lex.surface_forms.items()) == list(expected.items())


def test_schema_version_check(tmp_path):
    data = tmp_path / "data.jsonl"
    cli.write_jsonl(data, [{"x": 1}])
    (tmp_path / "data.jsonl.manifest.json").write_text(
        json.dumps({"schema_version": 99}))
    with pytest.raises(SchemaVersionError):
        cli.read_jsonl(data)


def test_read_jsonl_missing_file(tmp_path):
    with pytest.raises(ContractViolation):
        cli.read_jsonl(tmp_path / "absent.jsonl")


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
    assert cli._manifest_path(outs[0]).read_bytes() == \
        cli._manifest_path(outs[1]).read_bytes()


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
    cli._manifest_path(paths["controls"]).write_text(json.dumps(manifest))
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
    assert not cli._manifest_path(paths[out]).exists()


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

    def counted(record, *args):
        screened.append((record.source, record.hypothesis, record.target_lang))
        return validate(record, *args)
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


# (keys, malformed value, a command, message, id); each case runs through
# its command and through run-all
_BAD_NUMBERS = [
    (["concurrency"], "two", "classify",
     "config concurrency must be an integer, not 'two'", "concurrency-not-int"),
    (["concurrency"], 0, "classify",
     "config concurrency must be at least 1, not 0", "concurrency-below-1"),
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
    (["seed"], "x", "extract", "config seed must be an integer, not 'x'",
     "seed-not-int"),
]

# (keys, malformed value, a command, message, id) of a list the stages
# iterate; each case runs through its command and through run-all
_BAD_LISTS = [
    (["target_langs"], 5, "translate",
     "config target_langs must be a list of language codes, not 5",
     "target-langs-not-list"),
    (["target_langs"], ["de", "fr"], "translate",
     "unsupported target language(s): ['fr']", "target-langs-unsupported"),
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
]

# (make_case, message, id)
_MALFORMED = [
    (_bad_yaml, "bad.yaml", "bad-yaml"),
    (_truncated_stage_in, "cands.jsonl line 2", "truncated-jsonl"),
    (_non_object_stage_in, "cands.jsonl line 1: record is not a JSON object",
     "non-object-jsonl"),
    (_controls_line("[1]"), "line 1: bad sentence record", "control-not-object"),
    (_controls_line('{"id": "c1", "tokens": [1]}'), "line 1: bad sentence record",
     "control-token-not-object"),
    (_candidate(span=5), "bad candidate record", "candidate-span-not-list"),
    (_candidate(evidence=[1]), "bad candidate record",
     "candidate-evidence-not-object"),
    *[(_config_value(keys, value, command), message, case_id)
      for keys, value, command, message, case_id
      in _BAD_NUMBERS + _BAD_LISTS + _BAD_SECTIONS],
    (_stage_in_manifest("{"), "cands.jsonl.manifest.json is not JSON",
     "manifest-not-json"),
    (_stage_in_manifest("[1]"), "cands.jsonl.manifest.json is not a JSON object",
     "manifest-not-object"),
    *[(_not_utf8(name), f"{name} is not UTF-8 text", f"{name}-not-utf8")
      for name in ("cands.jsonl", "controls.jsonl", "config.yaml",
                   "corpus.conllu", "idioms.txt")],
    (_config_value(["lexicon", "idioms"], 5, "extract"),
     "config lexicon.idioms must be a path, not 5", "idioms-path-not-string"),
    *_BAD_BACKENDS,
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
    assert not cli._manifest_path(out).exists()


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
    encode = cli._encode

    def encode_broken(record):
        if record.get("kind") == "para":
            raise _WriteFailed
        return encode(record)
    monkeypatch.setattr(cli, "_encode", encode_broken)
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
            text = cli._encode(record)
            assert json.loads(text) == record, (name, record)
            assert cli._encode(json.loads(text)) == text, (name, record)


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
        assert not cli._manifest_path(out / "controls.jsonl").exists()
    for name in ("translations.jsonl", "scored.jsonl"):
        assert (reused / name).read_bytes() == (fresh / name).read_bytes(), name

    def tables(out):
        return {p.name: p.read_bytes() for p in (out / "report").iterdir()
                if p.name != "manifest.json"}
    assert tables(reused) == tables(fresh)
    assert "control" not in {r["kind"] for r in
                             read_jsonl_plain(fresh / "translations.jsonl")}
    assert "controls" not in read_manifest(reused / "translations.jsonl")["inputs"]


def test_run_all_parses_the_corpus_once_and_reads_back_nothing_it_wrote(
        tmp_path, monkeypatch):
    loaded, read = [], []
    load_corpus, read_jsonl = cli.corpus_mod.load_corpus, cli.read_jsonl
    monkeypatch.setattr(cli.corpus_mod, "load_corpus",
                        lambda *args: loaded.append(args) or load_corpus(*args))
    monkeypatch.setattr(cli, "read_jsonl",
                        lambda path: read.append(path) or read_jsonl(path))
    assert cli.main(["run-all", "--config", str(patched_config(tmp_path)),
                     "--stage-out", str(tmp_path / "run")]) == 0
    assert [(Path(path).resolve(), fmt) for path, fmt in loaded] == [
        ((FIXTURES / "corpus_25.conllu").resolve(), "conllu")]
    assert [Path(path).resolve() for path in read] == [
        (FIXTURES / "da_annotations.jsonl").resolve(),
        (FIXTURES / "gold_labels.jsonl").resolve()]


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
    for name, (_, help_text) in cli._COMMANDS.items():
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
    for name, (_, help_text) in cli._COMMANDS.items():
        assert f"  {name}" in out and help_text in out, name
