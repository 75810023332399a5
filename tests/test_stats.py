import math
import random
from statistics import fmean, pstdev

import pytest

from vmweval.errors import ContractViolation
from vmweval.stats import (BleuReference, ConfusionMatrix, DAAnnotation,
                           Orientation, bleu4, confusion_metrics,
                           delta_improvement, round_half_up, znormalize)


def oracle_bleu(hyp, ref):
    """Brute-force reference: list scans instead of hashed counters."""
    max_order = min(4, len(hyp))
    logs = []
    for n in range(1, max_order + 1):
        hgrams = [tuple(hyp[i:i + n]) for i in range(len(hyp) - n + 1)]
        rgrams = [tuple(ref[i:i + n]) for i in range(len(ref) - n + 1)]
        clipped = sum(min(hgrams.count(g), rgrams.count(g)) for g in set(hgrams))
        total = len(hgrams)
        if clipped == 0:
            if n == 1:
                return 0.0
            p = 1.0 / (2.0 * total)
        else:
            p = clipped / total
        logs.append(math.log(p))
    score = math.exp(sum(logs) / max_order)
    if len(hyp) < len(ref):
        score *= math.exp(1.0 - len(ref) / len(hyp))
    return score


def test_bleu_exact_match():
    assert bleu4(["spill", "the", "beans"], ["spill", "the", "beans"]) == 1.0


def test_bleu_frozen_values():
    # hand-derived: p1=2/3, p2=1/2, p3 smoothed to 1/2 -> (1/6)^(1/3)
    assert bleu4(["all", "the", "beans"],
                 ["spill", "the", "beans"]) == pytest.approx(
        0.5503212081491045, abs=1e-12)
    assert bleu4(["spill", "all", "the", "beans"],
                 ["spill", "the", "beans"]) == pytest.approx(
        0.42044820762685725, abs=1e-12)
    assert bleu4(["kick", "a", "old", "bucket"],
                 ["kick", "the", "bucket"]) == pytest.approx(
        0.31947155212313627, abs=1e-12)


def test_bleu_brevity_penalty_only_when_shorter():
    # precisions are all 1, so the score is exactly the penalty
    assert bleu4(["spill", "the"], ["spill", "the", "beans"]) == pytest.approx(
        math.exp(1.0 - 3.0 / 2.0), abs=1e-12)
    assert bleu4(["the"], ["spill", "the", "beans"]) == pytest.approx(
        math.exp(-2.0), abs=1e-12)
    # longer hypothesis gets no bonus
    assert bleu4(["spill", "the", "beans", "now"],
                 ["spill", "the", "beans"]) < 1.0


def test_bleu_zero_unigram_short_circuits():
    assert bleu4(["x", "y", "z"], ["spill", "the", "beans"]) == 0.0


def test_bleu_empty_rejected():
    with pytest.raises(ContractViolation):
        bleu4([], ["a"])
    with pytest.raises(ContractViolation):
        bleu4(["a"], [])
    with pytest.raises(ContractViolation):
        bleu4([], BleuReference(["a"]))
    with pytest.raises(ContractViolation):
        BleuReference([])


def test_bleu_matches_oracle_on_random_pairs():
    rng = random.Random(1234)
    vocab = ["a", "b", "c", "d", "e"]
    for _ in range(1000):
        hyp = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
        ref = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
        got = bleu4(hyp, ref)
        assert abs(got - oracle_bleu(hyp, ref)) < 1e-9
        assert 0.0 <= got <= 1.0


def test_bleu_identity_property():
    rng = random.Random(99)
    vocab = ["a", "b", "c"]
    for _ in range(50):
        seq = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
        assert bleu4(seq, seq) == pytest.approx(1.0, abs=1e-12)


def test_round_half_up():
    assert round_half_up(0.5, 0) == 1.0
    assert round_half_up(1.5, 0) == 2.0       # not banker's rounding
    assert round_half_up(-0.5, 0) == -1.0     # ties away from zero
    assert round_half_up(2.675, 2) == 2.68    # immune to float repr
    assert round_half_up(0.125, 2) == 0.13
    assert round_half_up(81.85, 1) == 81.9
    assert round_half_up(3.14159, 3) == 3.142


# --- z-normalization ---------------------------------------------------------

def _ann(annotator, scores, system="sys", prefix="s"):
    return [DAAnnotation(system_id=system, sentence_id=f"{prefix}{i}",
                         annotator_id=annotator, raw_score=v)
            for i, v in enumerate(scores)]


def test_znormalize_frozen_example():
    out = znormalize(_ann("a", [1.0, 2.0, 3.0]))
    expected = (1.0 - 2.0) / pstdev([1.0, 2.0, 3.0])
    assert out[0].z == pytest.approx(expected, abs=1e-12)
    assert out[1].z == 0.0
    assert out[2].z == pytest.approx(-expected, abs=1e-12)


def test_znormalize_properties_random_groups():
    rng = random.Random(4321)
    annotations = []
    for g in range(100):
        n = rng.randint(2, 12)
        scores = [rng.uniform(0, 100) for _ in range(n)]
        if len(set(scores)) < 2:
            scores[0] += 1.0
        annotations.extend(_ann(f"annotator{g}", scores))
    out = znormalize(annotations)
    by_annotator = {}
    for z in out:
        by_annotator.setdefault(z.annotator_id, []).append(z.z)
    assert len(by_annotator) == 100
    for zs in by_annotator.values():
        assert abs(fmean(zs)) <= 1e-9
        assert abs(pstdev(zs) - 1.0) <= 1e-9


def test_znormalize_degenerate_groups_are_zero():
    singleton = znormalize(_ann("solo", [73.0]))
    assert [z.z for z in singleton] == [0.0]
    constant = znormalize(_ann("flat", [50.0, 50.0, 50.0]))
    assert [z.z for z in constant] == [0.0, 0.0, 0.0]


def test_znormalize_preserves_order_and_fields():
    annotations = _ann("b", [10.0, 30.0]) + _ann("a", [20.0, 40.0])
    out = znormalize(annotations)
    assert [(z.annotator_id, z.raw_score) for z in out] == [
        ("b", 10.0), ("b", 30.0), ("a", 20.0), ("a", 40.0)]
    assert out[0].system_id == "sys"


def test_znormalize_shift_invariance():
    rng = random.Random(7)
    scores = [rng.uniform(0, 100) for _ in range(10)]
    base = znormalize(_ann("a", scores))
    shifted = znormalize(_ann("a", [v + 17.5 for v in scores]))
    for x, y in zip(base, shifted):
        assert x.z == pytest.approx(y.z, abs=1e-9)


# --- confusion metrics -------------------------------------------------------

def _percents(report):
    """Render like the tables do: percentages at one decimal."""
    return {
        "acc": round_half_up(report.accuracy * 100, 1),
        "macro": round_half_up(report.macro_f1 * 100, 1),
        "pp": round_half_up(report.positive.precision * 100, 1),
        "pr": round_half_up(report.positive.recall * 100, 1),
        "pf": round_half_up(report.positive.f1 * 100, 1),
        "np": round_half_up(report.negative.precision * 100, 1),
        "nr": round_half_up(report.negative.recall * 100, 1),
        "nf": round_half_up(report.negative.f1 * 100, 1),
    }


def test_published_vid_row():
    report = confusion_metrics(ConfusionMatrix(tp=88, fn=12, fp=27, tn=73))
    assert _percents(report) == {
        "acc": 80.5, "macro": 80.4, "pp": 76.5, "pr": 88.0, "pf": 81.8,
        "np": 85.9, "nr": 73.0, "nf": 78.9}


def test_published_vpc_row():
    report = confusion_metrics(ConfusionMatrix(tp=70, fn=30, fp=5, tn=95))
    assert _percents(report) == {
        "acc": 82.5, "macro": 82.2, "pp": 93.3, "pr": 70.0, "pf": 80.0,
        "np": 76.0, "nr": 95.0, "nf": 84.4}


def test_published_lvc_row():
    report = confusion_metrics(ConfusionMatrix(tp=89, fn=11, fp=29, tn=71))
    assert _percents(report) == {
        "acc": 80.0, "macro": 79.8, "pp": 75.4, "pr": 89.0, "pf": 81.6,
        "np": 86.6, "nr": 71.0, "nf": 78.0}


def test_f1_uses_percent_rounded_basis():
    # raw fractions give 81.872 for the VID positive F1; the tables carry
    # 81.8 because F1 is the harmonic mean of the printed P and R.
    report = confusion_metrics(ConfusionMatrix(tp=88, fn=12, fp=27, tn=73))
    p, r = report.positive.precision, report.positive.recall
    raw_f1 = 2 * p * r / (p + r)
    assert round_half_up(raw_f1 * 100, 1) == 81.9
    assert round_half_up(report.positive.f1 * 100, 1) == 81.8


def test_confusion_swap_symmetry():
    rng = random.Random(555)
    for _ in range(100):
        tp, fn, fp, tn = (rng.randint(0, 50) for _ in range(4))
        if tp + fn + fp + tn == 0:
            tp = 1
        a = confusion_metrics(ConfusionMatrix(tp=tp, fn=fn, fp=fp, tn=tn))
        b = confusion_metrics(ConfusionMatrix(tp=tn, fn=fp, fp=fn, tn=tp))
        assert a.accuracy == pytest.approx(b.accuracy, abs=1e-12)
        assert a.positive == b.negative
        assert a.negative == b.positive
        assert a.macro_f1 == pytest.approx(b.macro_f1, abs=1e-12)


def test_confusion_contracts():
    with pytest.raises(ContractViolation):
        ConfusionMatrix(tp=-1, fn=0, fp=0, tn=1)
    with pytest.raises(ContractViolation):
        ConfusionMatrix(tp=0, fn=0, fp=0, tn=0)


# --- deltas ------------------------------------------------------------------

def test_delta_sign_conventions():
    lower = Orientation.LOWER_BETTER_0_25
    higher = Orientation.HIGHER_BETTER_0_1
    # improvement: error drops from 7.25 to 5.04
    assert delta_improvement(lower, 7.25, 5.04) == pytest.approx(2.21, abs=1e-12)
    # improvement: similarity climbs from 0.6 to 0.8
    assert delta_improvement(higher, 0.6, 0.8) == pytest.approx(0.2, abs=1e-12)
    # deterioration comes out negative for both
    assert delta_improvement(lower, 5.0, 9.0) < 0
    assert delta_improvement(higher, 0.8, 0.3) < 0


def test_delta_antisymmetry():
    rng = random.Random(31)
    for orientation in Orientation:
        lo, hi = orientation.value_range
        for _ in range(50):
            a, b = rng.uniform(lo, hi), rng.uniform(lo, hi)
            assert delta_improvement(orientation, a, b) == pytest.approx(
                -delta_improvement(orientation, b, a), abs=1e-12)


def test_orientation_metadata():
    assert Orientation.LOWER_BETTER_0_25.lower_is_better
    assert Orientation.LOWER_BETTER_0_25.value_range == (0.0, 25.0)
    assert not Orientation.HIGHER_BETTER_0_1.lower_is_better
    assert Orientation.HIGHER_BETTER_0_1.value_range == (0.0, 1.0)
