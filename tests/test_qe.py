import random
from dataclasses import replace

import pytest

from vmweval.errors import BackendContractError, ContractViolation
from vmweval.mt import TranslationRecord, ValidityStatus
from vmweval.qe import (MockQEBackend, Orientation, delta_report, delta_to_dict,
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


def test_delta_report_recompute_consistency():
    """A delta record passes the scored file's check only with the deltas
    its scores give."""
    ori, para = _records()
    good = paraphrase_experiment(_table2_backend(ori, para), ori, para)
    record = {"type": "delta", **delta_to_dict(
        replace(good, candidate_ref="s01#VID#2.3.4", category="VID"))}
    _check_scored(record)
    with pytest.raises(ContractViolation, match="line 1: delta_mix must be "):
        _check_scored({**record, "delta_mix": good.delta_mix + 0.5})
    with pytest.raises(ContractViolation, match="line 1: delta_para must be "):
        _check_scored({**record, "delta_para": -good.delta_para})


def test_delta_report_from_given_scores():
    ori, para = _records()
    scored = paraphrase_experiment(_table2_backend(ori, para), ori, para)
    assert delta_report(ori, para, scored.qe_ori, scored.qe_mix,
                        scored.qe_para) == scored
    broken = TranslationRecord(
        sentence_id="s01", source=para.source, target_lang="de",
        system_id="alpha", hypothesis=para.hypothesis,
        validity=ValidityStatus.EMPTY)
    with pytest.raises(ContractViolation):
        delta_report(ori, broken, scored.qe_ori, scored.qe_mix, scored.qe_para)


def test_delta_dict_round_trip():
    ori, para = _records()
    report = paraphrase_experiment(_table2_backend(ori, para), ori, para)
    report = replace(report, candidate_ref="s01#VID#2.3.4", category="VID")
    record = delta_to_dict(report)
    assert record == {
        "sentence_id": "s01", "candidate_ref": "s01#VID#2.3.4",
        "category": "VID", "system_id": "alpha", "target_lang": "de",
        "metric_id": "stub", "orientation": "lower_better_0_25",
        "qe_ori": 7.25, "qe_mix": 5.48, "qe_para": 5.04,
        "delta_mix": report.delta_mix, "delta_para": report.delta_para}
    # the score stage tags the record; tagged, it passes the scored file's
    # checks and the report reads its scores and deltas back as they were
    tagged = {"type": "delta", **record}
    check_records("scored", [(1, tagged)], "scored.jsonl")
    [row] = delta_table([tagged])
    assert (row["n"], row["ori"], row["delta_mix"], row["delta_para"]) == (
        1, 7.25, report.delta_mix, report.delta_para)


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
    assert got.metric_id == "overlap_qe"
    assert got.orientation is Orientation.LOWER_BETTER_0_25
    assert got.value == 0.0  # identical pair is a perfect (lowest) score


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
