"""Scoring primitives: BLEU-4, score normalization, confusion metrics.

These are deliberately dependency-free so every number in a report can be
traced to a few dozen lines of arithmetic.
"""
from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from decimal import Decimal, ROUND_HALF_UP
from enum import Enum
from statistics import fmean, pstdev
from typing import Sequence

from .errors import ContractViolation


class Orientation(Enum):
    """Score direction and range of a QE metric."""

    LOWER_BETTER_0_25 = "lower_better_0_25"
    HIGHER_BETTER_0_1 = "higher_better_0_1"

    @property
    def lower_is_better(self) -> bool:
        return self is Orientation.LOWER_BETTER_0_25

    @property
    def value_range(self) -> tuple[float, float]:
        if self is Orientation.LOWER_BETTER_0_25:
            return (0.0, 25.0)
        return (0.0, 1.0)


def round_half_up(value: float, ndigits: int) -> float:
    """Decimal rounding with ties away from zero, immune to float repr."""
    exp = Decimal(1).scaleb(-ndigits)
    return float(Decimal(repr(value)).quantize(exp, rounding=ROUND_HALF_UP))


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


class BleuReference:
    """A BLEU-4 reference built once for every hypothesis scored against
    it: its length and each order's n-gram counts."""

    __slots__ = ("length", "counts")

    def __init__(self, tokens: Sequence[str]):
        ref = list(tokens)
        if not ref:
            raise ContractViolation("bleu4 requires non-empty token sequences")
        self.length = len(ref)
        self.counts = tuple(dict(_ngrams(ref, n)) for n in range(1, 5))


def bleu4(hypothesis: Sequence[str],
          reference: Sequence[str] | BleuReference) -> float:
    """Sentence BLEU with modified n-gram precision up to order 4.

    Orders run 1..min(4, len(hypothesis)).  A zero precision at order
    n >= 2 is smoothed to 1/(2 * hypothesis n-gram count); a zero unigram
    precision short-circuits to 0.  The brevity penalty
    exp(1 - ref_len/hyp_len) applies only when the hypothesis is shorter.
    `reference` is a token sequence or the BleuReference built from one.
    """
    hyp = list(hypothesis)
    if not isinstance(reference, BleuReference):
        reference = BleuReference(reference)
    if not hyp:
        raise ContractViolation("bleu4 requires non-empty token sequences")
    max_order = min(4, len(hyp))
    log_sum = 0.0
    for n in range(1, max_order + 1):
        # a hypothesis n-gram is clipped while the reference has one left
        left = reference.counts[n - 1].copy()
        total = len(hyp) - n + 1
        clipped = 0
        for i in range(total):
            gram = tuple(hyp[i:i + n])
            if left.get(gram):
                left[gram] -= 1
                clipped += 1
        if clipped == 0:
            if n == 1:
                return 0.0
            precision = 1.0 / (2.0 * total)
        else:
            precision = clipped / total
        log_sum += math.log(precision)
    score = math.exp(log_sum / max_order)
    if len(hyp) < reference.length:
        score *= math.exp(1.0 - reference.length / len(hyp))
    return score


@dataclass(frozen=True)
class DAAnnotation:
    """One raw direct-assessment judgment."""

    system_id: str
    sentence_id: str
    annotator_id: str
    raw_score: float


@dataclass(frozen=True)
class ZScore:
    system_id: str
    sentence_id: str
    annotator_id: str
    raw_score: float
    z: float


def znormalize(annotations: Sequence[DAAnnotation]) -> list[ZScore]:
    """Standardize raw scores per annotator (population std).

    Annotators with fewer than two judgments, or with zero variance, get
    z = 0 for all their records.  Output order follows input order.
    """
    by_annotator: dict[str, list[float]] = defaultdict(list)
    for a in annotations:
        by_annotator[a.annotator_id].append(a.raw_score)
    params: dict[str, tuple[float, float]] = {}
    for annotator, scores in by_annotator.items():
        if len(scores) < 2:
            params[annotator] = (0.0, 0.0)
            continue
        params[annotator] = (fmean(scores), pstdev(scores))
    out = []
    for a in annotations:
        mean, std = params[a.annotator_id]
        z = 0.0 if std == 0.0 else (a.raw_score - mean) / std
        out.append(ZScore(system_id=a.system_id, sentence_id=a.sentence_id,
                          annotator_id=a.annotator_id, raw_score=a.raw_score, z=z))
    return out


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fn: int
    fp: int
    tn: int

    def __post_init__(self):
        counts = (self.tp, self.fn, self.fp, self.tn)
        if any(c < 0 for c in counts):
            raise ContractViolation("confusion counts must be non-negative")
        if sum(counts) == 0:
            raise ContractViolation("confusion matrix is empty")

    @property
    def total(self) -> int:
        return self.tp + self.fn + self.fp + self.tn


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class ConfusionReport:
    accuracy: float
    positive: ClassMetrics
    negative: ClassMetrics
    macro_f1: float


def _safe_div(num: float, den: float) -> float:
    return num / den if den else 0.0


def _class_metrics(correct: int, predicted: int, actual: int) -> ClassMetrics:
    precision = _safe_div(correct, predicted)
    recall = _safe_div(correct, actual)
    # F1 is taken over the percent-rounded precision/recall rather than the
    # raw fractions, so a rendered table stays arithmetically consistent
    # with its own printed cells.
    p_pct = round_half_up(precision * 100.0, 1)
    r_pct = round_half_up(recall * 100.0, 1)
    f1 = _safe_div(2.0 * p_pct * r_pct, p_pct + r_pct) / 100.0
    return ClassMetrics(precision=precision, recall=recall, f1=f1)


def confusion_metrics(matrix: ConfusionMatrix) -> ConfusionReport:
    """Accuracy plus per-class precision/recall/F1 and their macro mean."""
    positive = _class_metrics(matrix.tp, matrix.tp + matrix.fp, matrix.tp + matrix.fn)
    negative = _class_metrics(matrix.tn, matrix.tn + matrix.fn, matrix.tn + matrix.fp)
    return ConfusionReport(
        accuracy=(matrix.tp + matrix.tn) / matrix.total,
        positive=positive,
        negative=negative,
        macro_f1=(positive.f1 + negative.f1) / 2.0,
    )


def delta_improvement(orientation: Orientation, ori: float, other: float) -> float:
    """Signed quality change from score `ori` to score `other` of a metric
    with `orientation`; positive = improved.  For lower-is-better metrics
    the delta is ori - other, otherwise other - ori."""
    return ori - other if orientation.lower_is_better else other - ori
