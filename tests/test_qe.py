import json
import random
from dataclasses import dataclass
from pathlib import Path

import pytest

from vmweval import cli
from vmweval import config as config_mod
from vmweval.errors import BackendContractError, ContractViolation
from vmweval.mt import TranslationRecord, ValidityStatus
from vmweval.qe import (DeltaReport, MockQEBackend, Orientation, QEScore, deltas,
                        paraphrase_experiment, score)
from vmweval.records import check_records
from vmweval.report import delta_table
from vmweval.stats import round_half_up


class StubBackend:
    """Returns canned values keyed by the exact (source, hypothesis) pair."""

    metric_id = "stub"
    orientation = Orientation.LOWER_BETTER_0_25

    def __init__(self, mapping):
        self.mapping = dict(mapping)

    def assess(self, source, hypothesis):
        return self.mapping[(source, hypothesis)]


def _records():
    ori = TranslationRecord(
        sentence_id="s01", source="He spilled the beans about the merger.",
        target_lang="de", system_id="alpha",
        hypothesis="Er hat die Bohnen über die Fusion verschüttet.",
        validity=ValidityStatus.OK)
    para = TranslationRecord(
        sentence_id="s01", source="He revealed the secret about the merger.",
        target_lang="de", system_id="alpha",
        hypothesis="Er hat das Geheimnis über die Fusion verraten.",
        validity=ValidityStatus.OK)
    return ori, para


def _table2_backend(ori, para):
    return StubBackend({
        (ori.source, ori.hypothesis): 7.25,
        (ori.source, para.hypothesis): 5.48,
        (para.source, para.hypothesis): 5.04,
    })


def test_experiment_reproduces_published_deltas():
    ori, para = _records()
    report = paraphrase_experiment(_table2_backend(ori, para), ori, para)
    assert report.qe_ori.value == 7.25
    assert report.qe_mix.value == 5.48
    assert report.qe_para.value == 5.04
    assert round_half_up(report.delta_mix, 2) == 1.77
    assert round_half_up(report.delta_para, 2) == 2.21
    assert report.delta_mix == pytest.approx(1.77, abs=1e-12)
    assert report.delta_para == pytest.approx(2.21, abs=1e-12)


def test_experiment_pairs_mix_with_original_source():
    # the stub only knows the three intended pairs, so a wrong pairing
    # inside the experiment would KeyError
    ori, para = _records()
    report = paraphrase_experiment(_table2_backend(ori, para), ori, para)
    assert report.sentence_id == "s01"
    assert report.system_id == "alpha"
    assert report.target_lang == "de"


def test_experiment_rejects_invalid_records():
    ori, para = _records()
    broken = TranslationRecord(
        sentence_id="s01", source=para.source, target_lang="de",
        system_id="alpha", hypothesis=para.hypothesis,
        validity=ValidityStatus.REPETITIVE)
    with pytest.raises(ContractViolation):
        paraphrase_experiment(_table2_backend(ori, para), ori, broken)
    unchecked = TranslationRecord(
        sentence_id="s01", source=ori.source, target_lang="de",
        system_id="alpha", hypothesis=ori.hypothesis)
    with pytest.raises(ContractViolation):
        paraphrase_experiment(_table2_backend(ori, para), unchecked, para)


def test_experiment_rejects_mismatched_records():
    ori, para = _records()
    other_system = TranslationRecord(
        sentence_id="s01", source=para.source, target_lang="de",
        system_id="beta", hypothesis=para.hypothesis,
        validity=ValidityStatus.OK)
    with pytest.raises(ContractViolation):
        paraphrase_experiment(_table2_backend(ori, para), ori, other_system)
    other_lang = TranslationRecord(
        sentence_id="s01", source=para.source, target_lang="cs",
        system_id="alpha", hypothesis=para.hypothesis,
        validity=ValidityStatus.OK)
    with pytest.raises(ContractViolation):
        paraphrase_experiment(_table2_backend(ori, para), ori, other_lang)


def _check_scored(record):
    """Check `record` as line 1 of a scored file."""
    check_records("scored", [(1, record)], "scored.jsonl")


def _delta_record(report):
    """The score stage's delta record of `report`, a DeltaReport of s01's VID."""
    return {"type": "delta", "sentence_id": report.sentence_id,
            "candidate_ref": "s01#VID#2.3.4", "category": "VID",
            "system_id": report.system_id, "target_lang": report.target_lang,
            "metric_id": report.qe_ori.metric_id,
            "orientation": report.qe_ori.orientation.value,
            **deltas(report.qe_ori.orientation, report.qe_ori.value,
                     report.qe_mix.value, report.qe_para.value)}


def test_delta_report_recompute_consistency():
    """A delta record passes the scored file's check only with the deltas
    its scores give."""
    ori, para = _records()
    good = paraphrase_experiment(_table2_backend(ori, para), ori, para)
    record = _delta_record(good)
    _check_scored(record)
    with pytest.raises(ContractViolation, match="line 1: delta_mix must be "):
        _check_scored({**record, "delta_mix": good.delta_mix + 0.5})
    with pytest.raises(ContractViolation, match="line 1: delta_para must be "):
        _check_scored({**record, "delta_para": -good.delta_para})


def test_delta_report_from_given_scores():
    """The experiment's deltas are those `deltas` gives of its three scores."""
    ori, para = _records()
    scored = paraphrase_experiment(_table2_backend(ori, para), ori, para)
    assert deltas(Orientation.LOWER_BETTER_0_25, 7.25, 5.48, 5.04) == {
        "qe_ori": 7.25, "qe_mix": 5.48, "qe_para": 5.04,
        "delta_mix": scored.delta_mix, "delta_para": scored.delta_para}
    assert deltas(Orientation.HIGHER_BETTER_0_1, 0.6, 0.8, 0.5) == {
        "qe_ori": 0.6, "qe_mix": 0.8, "qe_para": 0.5,
        "delta_mix": 0.8 - 0.6, "delta_para": 0.5 - 0.6}
    broken = TranslationRecord(
        sentence_id="s01", source=para.source, target_lang="de",
        system_id="alpha", hypothesis=para.hypothesis,
        validity=ValidityStatus.EMPTY)
    with pytest.raises(ContractViolation):
        paraphrase_experiment(_table2_backend(ori, para), ori, broken)


def test_delta_dict_round_trip():
    ori, para = _records()
    report = paraphrase_experiment(_table2_backend(ori, para), ori, para)
    record = _delta_record(report)
    assert record == {
        "type": "delta", "sentence_id": "s01", "candidate_ref": "s01#VID#2.3.4",
        "category": "VID", "system_id": "alpha", "target_lang": "de",
        "metric_id": "stub", "orientation": "lower_better_0_25",
        "qe_ori": 7.25, "qe_mix": 5.48, "qe_para": 5.04,
        "delta_mix": report.delta_mix, "delta_para": report.delta_para}
    # the record passes the scored file's checks and the report reads its
    # scores and deltas back as they were
    check_records("scored", [(1, record)], "scored.jsonl")
    [row] = delta_table([record])
    assert (row["n"], row["ori"], row["delta_mix"], row["delta_para"]) == (
        1, 7.25, report.delta_mix, report.delta_para)


# --- the delta experiment against the functions it replaced ---------------------
#
# Before the score stage built its delta records from plain scores, it rebuilt
# a TranslationRecord and a QEScore for each side, a DeltaReport for each pair
# through delta_report, and the record through delta_to_dict.  Copied here as
# the oracle of `deltas` and of the stage.

def _old_delta_improvement(ori, other) -> float:
    if ori.orientation is not other.orientation:
        raise ContractViolation(
            f"cannot compare orientations {ori.orientation} and {other.orientation}")
    if ori.orientation.lower_is_better:
        return ori.value - other.value
    return other.value - ori.value


@dataclass(frozen=True)
class _OldDeltaReport:
    sentence_id: str
    system_id: str
    target_lang: str
    qe_ori: QEScore
    qe_mix: QEScore
    qe_para: QEScore
    delta_mix: float
    delta_para: float
    candidate_ref: str = ""
    category: str = ""


def _old_delta_report(ori, para, qe_ori, qe_mix, qe_para, *, candidate_ref="",
                      category=""):
    for rec, name in ((ori, "original"), (para, "paraphrase")):
        if rec.validity is not ValidityStatus.OK:
            raise ContractViolation(
                f"{name} record is {rec.validity and rec.validity.value}, not ok")
    if ori.system_id != para.system_id or ori.target_lang != para.target_lang:
        raise ContractViolation("records come from different systems or languages")
    return _OldDeltaReport(
        sentence_id=ori.sentence_id, system_id=ori.system_id,
        target_lang=ori.target_lang, qe_ori=qe_ori, qe_mix=qe_mix, qe_para=qe_para,
        delta_mix=_old_delta_improvement(qe_ori, qe_mix),
        delta_para=_old_delta_improvement(qe_ori, qe_para),
        candidate_ref=candidate_ref, category=category)


def _old_delta_to_dict(report):
    return {"sentence_id": report.sentence_id,
            "candidate_ref": report.candidate_ref, "category": report.category,
            "system_id": report.system_id, "target_lang": report.target_lang,
            "metric_id": report.qe_ori.metric_id,
            "orientation": report.qe_ori.orientation.value,
            "qe_ori": report.qe_ori.value, "qe_mix": report.qe_mix.value,
            "qe_para": report.qe_para.value,
            "delta_mix": report.delta_mix, "delta_para": report.delta_para}


def _random_triples(rng, orientation, n):
    """`n` score triples in range: often 0, the maximum or one value twice."""
    high = orientation.value_range[1]
    triples = []
    for _ in range(n):
        shared = rng.uniform(0.0, high)
        triples.append(tuple(rng.choice([0.0, high, shared, rng.uniform(0.0, high)])
                             for _ in range(3)))
    return triples


@pytest.mark.parametrize("orientation", list(Orientation))
def test_deltas_equal_the_delta_report_they_replaced(tmp_path, monkeypatch,
                                                     orientation):
    """On 1,000 seeded random score triples, each delta record the score
    stage writes is, as JSON text, the one delta_report and delta_to_dict
    gave, and paraphrase_experiment's scores and deltas are the oracle's."""
    rng = random.Random(f"deltas-{orientation.value}")
    triples = _random_triples(rng, orientation, 1000)
    assert {0.0, orientation.value_range[1]} <= {v for t in triples for v in t}
    assert any(len(set(t)) < 3 for t in triples)
    translations, mapping, sides = [], {}, []
    for n, (ori_value, mix_value, para_value) in enumerate(triples):
        ref, category = f"s{n}#VID#1.2", rng.choice(["VID", "VPC", "LVC"])
        pair = []
        for kind, value in (("ori", ori_value), ("para", para_value)):
            rec = {"sentence_id": f"s{n}", "candidate_ref": ref,
                   "category": category, "kind": kind, "source": f"{kind} {n}",
                   "target_lang": "de", "system_id": "alpha",
                   "hypothesis": f"{kind} hypothesis {n}", "validity": "ok"}
            translations.append(rec)
            mapping[rec["source"], rec["hypothesis"]] = value
            pair.append(TranslationRecord(
                sentence_id=rec["sentence_id"], source=rec["source"],
                target_lang="de", system_id="alpha", hypothesis=rec["hypothesis"],
                validity=ValidityStatus.OK))
        mapping[f"ori {n}", f"para hypothesis {n}"] = mix_value
        sides.append((ref, category, *pair))
    backend = StubBackend(mapping)
    backend.orientation = orientation
    monkeypatch.setattr(config_mod.Config, "backend", lambda self, kind, name=None: backend)
    config = cli.load_config(Path(__file__).parent / "fixtures" / "runall_config.yaml")
    code, records, _ = cli.stage_score(config, tmp_path / "scored.jsonl",
                                       translations, "0" * 64)
    assert code == 0
    written = {r["candidate_ref"]: json.dumps(r) for r in records
               if r["type"] == "delta"}
    assert len(written) == len(triples)
    for (ref, category, ori, para), values in zip(sides, triples):
        qe_ori, qe_mix, qe_para = (QEScore("stub", orientation, v) for v in values)
        oracle = _old_delta_report(ori, para, qe_ori, qe_mix, qe_para,
                                   candidate_ref=ref, category=category)
        assert written[ref] == json.dumps({"type": "delta",
                                           **_old_delta_to_dict(oracle)})
        report = paraphrase_experiment(backend, ori, para)
        assert repr(report) == repr(DeltaReport(
            oracle.sentence_id, oracle.system_id, oracle.target_lang,
            oracle.qe_ori, oracle.qe_mix, oracle.qe_para, oracle.delta_mix,
            oracle.delta_para))


def test_qescore_range_contract():
    """A qe record passes the scored file's check only with a value in its
    orientation's range."""
    def qe(orientation, value):
        return {"type": "qe", "kind": "control", "sentence_id": "s15",
                "candidate_ref": None, "category": None, "system_id": "alpha",
                "target_lang": "de", "metric_id": "m",
                "orientation": orientation.value, "value": value}
    for orientation, value in ((Orientation.LOWER_BETTER_0_25, 0.0),
                               (Orientation.LOWER_BETTER_0_25, 25.0),
                               (Orientation.HIGHER_BETTER_0_1, 1.0)):
        _check_scored(qe(orientation, value))
    with pytest.raises(ContractViolation,
                       match=r"value must lie in \[0.0, 25.0\], not 25.01"):
        _check_scored(qe(Orientation.LOWER_BETTER_0_25, 25.01))
    with pytest.raises(ContractViolation,
                       match=r"value must lie in \[0.0, 1.0\], not -0.1"):
        _check_scored(qe(Orientation.HIGHER_BETTER_0_1, -0.1))


def test_score_input_contracts():
    backend = MockQEBackend()
    with pytest.raises(ContractViolation):
        score(backend, "", "hyp")
    with pytest.raises(ContractViolation):
        score(backend, "src", "")


def test_score_enforces_backend_range():
    class Wild:
        metric_id = "wild"
        orientation = Orientation.LOWER_BETTER_0_25

        def assess(self, source, hypothesis):
            return 31.4

    with pytest.raises(BackendContractError):
        score(Wild(), "a", "b")

    class Stringy:
        metric_id = "stringy"
        orientation = Orientation.HIGHER_BETTER_0_1

        def assess(self, source, hypothesis):
            return "0.5"

    with pytest.raises(BackendContractError):
        score(Stringy(), "a", "b")


def test_score_wraps_value():
    backend = MockQEBackend(metric_id="overlap_qe")
    got = score(backend, "same text", "same text")
    assert got == 0.0  # identical pair is a perfect (lowest) score
    assert type(got) is float

    class Whole:
        metric_id = "whole"
        orientation = Orientation.LOWER_BETTER_0_25

        def assess(self, source, hypothesis):
            return 3

    got = score(Whole(), "a", "b")
    assert got == 3.0 and type(got) is float


def _oracle_overlap(source, hypothesis):
    # plain-list reimplementation of the 4-gram Jaccard
    if source == hypothesis:
        return 1.0

    def grams(text):
        seen = []
        for i in range(len(text) - 3):
            g = text[i:i + 4]
            if g not in seen:
                seen.append(g)
        return seen

    a, b = grams(source), grams(hypothesis)
    union = list(a)
    for g in b:
        if g not in union:
            union.append(g)
    if not union:
        return 0.0
    inter = [g for g in a if g in b]
    return len(inter) / len(union)


def test_mock_backend_matches_overlap_oracle():
    backend = MockQEBackend()
    rng = random.Random(2024)
    alphabet = "abcde "
    for _ in range(200):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 20)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 20)))
        assert backend.overlap(a, b) == pytest.approx(_oracle_overlap(a, b),
                                                      abs=1e-12)


def test_mock_backend_orientation_mapping():
    lower = MockQEBackend(orientation=Orientation.LOWER_BETTER_0_25)
    higher = MockQEBackend(orientation=Orientation.HIGHER_BETTER_0_1)
    src, hyp = "the quick brown fox", "the quick brown dog"
    ov = lower.overlap(src, hyp)
    assert 0.0 < ov < 1.0
    assert lower.assess(src, hyp) == pytest.approx(25.0 * (1.0 - ov))
    assert higher.assess(src, hyp) == pytest.approx(ov)
    assert lower.assess("x y z", "x y z") == 0.0
    assert higher.assess("x y z", "x y z") == 1.0


def test_mock_backend_disjoint_pair_scores_worst():
    backend = MockQEBackend()
    value = backend.assess("aaaa aaaa", "zzzz zzzz")
    assert value == 25.0
