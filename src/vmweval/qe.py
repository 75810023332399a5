"""Reference-free quality estimation and the paraphrase experiment.

A QE backend scores (source, hypothesis) pairs.  The experiment compares
three views of one candidate sentence: the original translated, the
original against the paraphrase's translation (mix), and the paraphrase
against its own translation.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from .errors import BackendContractError, ContractViolation
from .mt import TranslationRecord, ValidityStatus
from .stats import Orientation, delta_improvement
from .transport import post_json

__all__ = [
    "Orientation", "QEScore", "DeltaReport", "score", "deltas",
    "paraphrase_experiment", "HttpQEBackend", "MockQEBackend",
]


@dataclass(frozen=True)
class QEScore:
    """A value `score` returned, with the metric that checked its range."""
    metric_id: str
    orientation: Orientation
    value: float


@dataclass(frozen=True)
class DeltaReport:
    sentence_id: str
    system_id: str
    target_lang: str
    qe_ori: QEScore
    qe_mix: QEScore
    qe_para: QEScore
    delta_mix: float
    delta_para: float


class QEBackend(Protocol):
    metric_id: str
    orientation: Orientation

    def assess(self, source: str, hypothesis: str) -> float: ...


def score(backend: QEBackend, source: str, hypothesis: str) -> float:
    """Score one pair, enforcing the backend's declared range."""
    if not source or not hypothesis:
        raise ContractViolation("score requires non-empty source and hypothesis")
    value = backend.assess(source, hypothesis)
    low, high = backend.orientation.value_range
    if not isinstance(value, (int, float)) or not (low <= value <= high):
        raise BackendContractError(
            f"{backend.metric_id} returned {value!r}, outside [{low}, {high}]")
    return float(value)


def deltas(orientation: Orientation, qe_ori: float, qe_mix: float,
           qe_para: float) -> dict:
    """The ori/mix/para experiment of one candidate sentence from its three
    scores: the score fields of the score stage's delta record, in order."""
    return {"qe_ori": qe_ori, "qe_mix": qe_mix, "qe_para": qe_para,
            "delta_mix": delta_improvement(orientation, qe_ori, qe_mix),
            "delta_para": delta_improvement(orientation, qe_ori, qe_para)}


def _check_pair(ori: TranslationRecord, para: TranslationRecord):
    for rec, name in ((ori, "original"), (para, "paraphrase")):
        if rec.validity is not ValidityStatus.OK:
            raise ContractViolation(
                f"{name} record is {rec.validity and rec.validity.value}, not ok")
    if ori.system_id != para.system_id or ori.target_lang != para.target_lang:
        raise ContractViolation("records come from different systems or languages")


def paraphrase_experiment(backend: QEBackend, ori: TranslationRecord,
                          para: TranslationRecord) -> DeltaReport:
    """Score the ori/mix/para triple for one candidate sentence.

    `ori` translates the original sentence, `para` the paraphrase.  The
    mix score judges the paraphrase's translation against the original
    source, so all three deltas stay anchored to the same meaning.
    """
    _check_pair(ori, para)  # before any backend call
    values = (score(backend, ori.source, ori.hypothesis),
              score(backend, ori.source, para.hypothesis),
              score(backend, para.source, para.hypothesis))
    fields = deltas(backend.orientation, *values)
    scores = [QEScore(backend.metric_id, backend.orientation, v) for v in values]
    return DeltaReport(ori.sentence_id, ori.system_id, ori.target_lang, *scores,
                       fields["delta_mix"], fields["delta_para"])


class HttpQEBackend:
    """POST {source, hypothesis}, expect {"score": number}."""

    def __init__(self, base_url: str, metric_id: str, orientation: Orientation,
                 api_key: str | None = None, timeout: float = 60.0):
        self.base_url = base_url
        self.metric_id = metric_id
        self.orientation = orientation
        self.api_key = api_key
        self.timeout = timeout

    def assess(self, source: str, hypothesis: str) -> float:
        body = post_json(self.base_url,
                         {"source": source, "hypothesis": hypothesis},
                         self.api_key, self.timeout, "qe")
        score = body.get("score") if isinstance(body, dict) else None
        if not isinstance(score, (int, float)) or isinstance(score, bool):
            raise BackendContractError("qe response missing numeric 'score'")
        return float(score)


def _char_ngrams(text: str, n: int = 4) -> set[str]:
    return {text[i:i + n] for i in range(len(text) - n + 1)}


class MockQEBackend:
    """Deterministic oracle: character 4-gram Jaccard overlap of the pair,
    mapped affinely onto the metric's range (identical pair = best score).
    """

    def __init__(self, metric_id: str = "mock-overlap",
                 orientation: Orientation = Orientation.LOWER_BETTER_0_25):
        self.metric_id = metric_id
        self.orientation = orientation

    def overlap(self, source: str, hypothesis: str) -> float:
        if source == hypothesis:
            return 1.0
        a, b = _char_ngrams(source), _char_ngrams(hypothesis)
        union = a | b
        if not union:
            return 0.0
        return len(a & b) / len(union)

    def assess(self, source: str, hypothesis: str) -> float:
        ov = self.overlap(source, hypothesis)
        if self.orientation.lower_is_better:
            low, high = self.orientation.value_range
            return high * (1.0 - ov)
        return ov
