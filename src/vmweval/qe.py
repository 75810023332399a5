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
    "Orientation", "QEScore", "DeltaReport", "score", "mix_score",
    "delta_report", "paraphrase_experiment", "delta_to_dict", "delta_from_dict",
    "HttpQEBackend", "MockQEBackend",
]


@dataclass(frozen=True)
class QEScore:
    metric_id: str
    orientation: Orientation
    value: float

    def __post_init__(self):
        low, high = self.orientation.value_range
        if not (low <= self.value <= high):
            raise ContractViolation(
                f"{self.metric_id} value {self.value} outside [{low}, {high}]")


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
    candidate_ref: str = ""
    category: str = ""

    def __post_init__(self):
        if self.delta_mix != delta_improvement(self.qe_ori, self.qe_mix):
            raise ContractViolation("delta_mix does not match its scores")
        if self.delta_para != delta_improvement(self.qe_ori, self.qe_para):
            raise ContractViolation("delta_para does not match its scores")


class QEBackend(Protocol):
    metric_id: str
    orientation: Orientation

    def assess(self, source: str, hypothesis: str) -> float: ...


def score(backend: QEBackend, source: str, hypothesis: str) -> QEScore:
    """Score one pair, enforcing the backend's declared range."""
    if not source or not hypothesis:
        raise ContractViolation("score requires non-empty source and hypothesis")
    value = backend.assess(source, hypothesis)
    low, high = backend.orientation.value_range
    if not isinstance(value, (int, float)) or not (low <= value <= high):
        raise BackendContractError(
            f"{backend.metric_id} returned {value!r}, outside [{low}, {high}]")
    return QEScore(metric_id=backend.metric_id, orientation=backend.orientation,
                   value=float(value))


def mix_score(backend: QEBackend, ori: TranslationRecord,
              para: TranslationRecord) -> QEScore:
    """Judge the paraphrase's translation against the original source."""
    return score(backend, ori.source, para.hypothesis)


def _check_pair(ori: TranslationRecord, para: TranslationRecord):
    for rec, name in ((ori, "original"), (para, "paraphrase")):
        if rec.validity is not ValidityStatus.OK:
            raise ContractViolation(
                f"{name} record is {rec.validity and rec.validity.value}, not ok")
    if ori.system_id != para.system_id or ori.target_lang != para.target_lang:
        raise ContractViolation("records come from different systems or languages")


def delta_report(ori: TranslationRecord, para: TranslationRecord,
                 qe_ori: QEScore, qe_mix: QEScore, qe_para: QEScore, *,
                 candidate_ref: str = "", category: str = "") -> DeltaReport:
    """The ori/mix/para deltas of one candidate sentence from its scores."""
    _check_pair(ori, para)
    return DeltaReport(
        sentence_id=ori.sentence_id,
        system_id=ori.system_id,
        target_lang=ori.target_lang,
        qe_ori=qe_ori,
        qe_mix=qe_mix,
        qe_para=qe_para,
        delta_mix=delta_improvement(qe_ori, qe_mix),
        delta_para=delta_improvement(qe_ori, qe_para),
        candidate_ref=candidate_ref,
        category=category,
    )


def paraphrase_experiment(backend: QEBackend, ori: TranslationRecord,
                          para: TranslationRecord) -> DeltaReport:
    """Score the ori/mix/para triple for one candidate sentence.

    `ori` translates the original sentence, `para` the paraphrase.  The
    mix score judges the paraphrase's translation against the original
    source, so all three deltas stay anchored to the same meaning.
    """
    _check_pair(ori, para)  # before any backend call
    return delta_report(ori, para, score(backend, ori.source, ori.hypothesis),
                        mix_score(backend, ori, para),
                        score(backend, para.source, para.hypothesis))


def delta_to_dict(report: DeltaReport) -> dict:
    """The score stage's delta record, less its "type" tag."""
    return {"sentence_id": report.sentence_id,
            "candidate_ref": report.candidate_ref, "category": report.category,
            "system_id": report.system_id, "target_lang": report.target_lang,
            "metric_id": report.qe_ori.metric_id,
            "orientation": report.qe_ori.orientation.value,
            "qe_ori": report.qe_ori.value, "qe_mix": report.qe_mix.value,
            "qe_para": report.qe_para.value,
            "delta_mix": report.delta_mix, "delta_para": report.delta_para}


def delta_from_dict(rec: dict) -> DeltaReport:
    """Inverse of delta_to_dict; a "type" tag in `rec` is ignored."""
    orientation = Orientation(rec["orientation"])

    def qe(value):
        return QEScore(metric_id=rec["metric_id"], orientation=orientation,
                       value=value)
    return DeltaReport(
        sentence_id=rec["sentence_id"], system_id=rec["system_id"],
        target_lang=rec["target_lang"], qe_ori=qe(rec["qe_ori"]),
        qe_mix=qe(rec["qe_mix"]), qe_para=qe(rec["qe_para"]),
        delta_mix=rec["delta_mix"], delta_para=rec["delta_para"],
        candidate_ref=rec.get("candidate_ref") or "",
        category=rec.get("category") or "")


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
        if not isinstance(body, dict) or not isinstance(body.get("score"),
                                                        (int, float)):
            raise BackendContractError("qe response missing numeric 'score'")
        return float(body["score"])


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
