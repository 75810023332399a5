"""Aggregation tables and their CSV/JSON rendering.

All rendering is deterministic: fixed column orders, fixed row sorts,
half-up decimal rounding (1 decimal for percents, 2 for QE values), so
emitted reports can be compared byte for byte.
"""
from __future__ import annotations

import csv
import io
import json
import logging
from dataclasses import dataclass
from statistics import fmean
from typing import Iterable, Mapping, Sequence

from .errors import ContractViolation
from .extract import Category
from .llm import ClassificationResult
from .mt import error_pct
from .qe import DeltaReport, delta_from_dict
from .stats import (ConfusionMatrix, ConfusionReport, DAAnnotation,
                    Orientation, ZScore, confusion_metrics, round_half_up,
                    znormalize)

log = logging.getLogger(__name__)

SCHEMA_VERSION = 1

# Thresholds on per-cell error rates: flag noisy cells, drop unusable ones
# from rankings.
DEFAULT_FLAG_PCT = 10.0
DEFAULT_EXCLUDE_PCT = 50.0

CellKey = tuple[str, str, str]  # (category, system_id, target_lang)

# Report table name -> the kind `emit` renders it as.
TABLE_KINDS = {"gap_table": "gap", "delta_table": "delta", "ranking": "ranking",
               "error_rates": "error_rate", "z_gap_table": "gap",
               "classifier_table": "classifier"}


@dataclass(frozen=True)
class GapCell:
    category: str
    system_id: str
    target_lang: str
    metric_id: str
    gap: float
    n_vmwe: int
    n_control: int

    def __post_init__(self):
        if self.n_vmwe < 1 or self.n_control < 1:
            raise ContractViolation("gap cell needs scores on both sides")


@dataclass(frozen=True)
class RankedSystem:
    rank: int
    system_id: str
    mean_score: float
    included_pairs: tuple[str, ...]


@dataclass(frozen=True)
class Ranking:
    metric_id: str
    category: str
    orientation: Orientation
    entries: tuple[RankedSystem, ...]


def _category_key(name: str):
    order = [c.value for c in Category]
    return (order.index(name), name) if name in order else (len(order), name)


def gap_table(vmwe_scores: Mapping[CellKey, Sequence[float]],
              control_scores: Mapping[CellKey, Sequence[float]],
              orientation: Orientation, metric_id: str) -> list[GapCell]:
    """Mean score gap per cell, oriented so positive = VMWE side worse."""
    cells = []
    for key in sorted(set(vmwe_scores) | set(control_scores),
                      key=lambda k: (_category_key(k[0]), k[1], k[2])):
        if key not in vmwe_scores or key not in control_scores:
            side = "control" if key not in control_scores else "vmwe"
            log.warning("gap cell %s has no %s scores, skipping", key, side)
            continue
        vmwe, control = vmwe_scores[key], control_scores[key]
        if not vmwe or not control:
            log.warning("gap cell %s has an empty side, skipping", key)
            continue
        if orientation.lower_is_better:
            gap = fmean(vmwe) - fmean(control)
        else:  # not the negation, which turns a tie into -0.0
            gap = fmean(control) - fmean(vmwe)
        cells.append(GapCell(category=key[0], system_id=key[1], target_lang=key[2],
                             metric_id=metric_id, gap=gap,
                             n_vmwe=len(vmwe), n_control=len(control)))
    return cells


def z_gap_table(zscores: Sequence[ZScore], vmwe_ids: Iterable[str],
                control_ids: Iterable[str]) -> list[GapCell]:
    """Human-score gap per system over standardized judgments, in cells
    ("all", system, "all") of metric "da_z".

    Sentence ids decide side membership; judgments outside both sets are
    ignored.  Standardized scores are higher-better, so the gap is
    control minus VMWE.
    """
    vmwe_ids, control_ids = set(vmwe_ids), set(control_ids)
    overlap = vmwe_ids & control_ids
    if overlap:
        raise ContractViolation(f"ids on both sides: {sorted(overlap)[:5]}")
    vmwe: dict[CellKey, list[float]] = {}
    control: dict[CellKey, list[float]] = {}
    for z in zscores:
        key = ("all", z.system_id, "all")
        if z.sentence_id in vmwe_ids:
            vmwe.setdefault(key, []).append(z.z)
        elif z.sentence_id in control_ids:
            control.setdefault(key, []).append(z.z)
    return gap_table(vmwe, control, Orientation.HIGHER_BETTER_0_1, "da_z")


def da_gap_table(records: Iterable[Mapping], vmwe_ids: Iterable[str],
                 control_ids: Iterable[str]) -> list[GapCell]:
    """The z-gap table from DA-annotation records (system_id, sentence_id,
    annotator_id, raw_score), standardized per annotator."""
    annotations = [DAAnnotation(
        system_id=r["system_id"], sentence_id=r["sentence_id"],
        annotator_id=r["annotator_id"], raw_score=r["raw_score"])
        for r in records]
    return z_gap_table(znormalize(annotations), vmwe_ids, control_ids)


def rank_systems(cell_means: Mapping[tuple[str, str], float],
                 orientation: Orientation, metric_id: str,
                 category: str = "all",
                 exclusions: Iterable[tuple[str, str]] = ()) -> Ranking:
    """Order systems by their mean score over non-excluded language pairs."""
    excluded = set(exclusions)
    by_system: dict[str, dict[str, float]] = {}
    for (system_id, lang), value in cell_means.items():
        if (system_id, lang) in excluded:
            continue
        by_system.setdefault(system_id, {})[lang] = value
    dropped = {s for s, _ in cell_means} - set(by_system)
    for system_id in sorted(dropped):
        log.warning("system %s has no included pairs, dropped from ranking",
                    system_id)
    scored = [(fmean(langs.values()), system_id, tuple(sorted(langs)))
              for system_id, langs in by_system.items()]
    scored.sort(key=lambda item: (item[0] if orientation.lower_is_better
                                  else -item[0], item[1]))
    entries = tuple(
        RankedSystem(rank=i, system_id=system_id, mean_score=mean,
                     included_pairs=langs)
        for i, (mean, system_id, langs) in enumerate(scored, start=1))
    return Ranking(metric_id=metric_id, category=category,
                   orientation=orientation, entries=entries)


@dataclass(frozen=True)
class ClassifierCell:
    category: str
    matrix: ConfusionMatrix
    metrics: ConfusionReport
    n_undecided: int


def classifier_report(gold: Mapping[str, bool],
                      predictions: Iterable[ClassificationResult],
                      undecided: Iterable[tuple[str, Category]] = (),
                      ) -> list[ClassifierCell]:
    """Join predictions to gold labels and score them per category."""
    counts: dict[str, dict[str, int]] = {}
    for pred in predictions:
        if pred.candidate_ref not in gold:
            raise ContractViolation(
                f"prediction {pred.candidate_ref} has no gold label")
        cell = counts.setdefault(pred.category.value,
                                 {"tp": 0, "fn": 0, "fp": 0, "tn": 0})
        actual = gold[pred.candidate_ref]
        if pred.verdict and actual:
            cell["tp"] += 1
        elif pred.verdict and not actual:
            cell["fp"] += 1
        elif not pred.verdict and actual:
            cell["fn"] += 1
        else:
            cell["tn"] += 1
    n_undecided: dict[str, int] = {}
    for ref, category in undecided:
        if ref not in gold:
            raise ContractViolation(f"undecided candidate {ref} has no gold label")
        n_undecided[category.value] = n_undecided.get(category.value, 0) + 1
    cells = []
    for name in sorted(set(counts) | set(n_undecided), key=_category_key):
        if name not in counts:
            log.warning("category %s has only undecided predictions, skipping",
                        name)
            continue
        matrix = ConfusionMatrix(**counts[name])
        cells.append(ClassifierCell(category=name, matrix=matrix,
                                    metrics=confusion_metrics(matrix),
                                    n_undecided=n_undecided.get(name, 0)))
    return cells


def classifier_table(gold_records: Iterable[Mapping],
                     classification_records: Iterable[Mapping],
                     ) -> list[ClassifierCell]:
    """The classifier table from gold-label records (candidate_ref, label)
    and classify-stage records; a record without a verdict is undecided."""
    gold = {r["candidate_ref"]: bool(r["label"]) for r in gold_records}
    predictions = []
    undecided = []
    for rec in classification_records:
        category = Category(rec["category"])
        if rec.get("verdict") is None:
            undecided.append((rec["candidate_ref"], category))
            continue
        predictions.append(ClassificationResult(
            candidate_ref=rec["candidate_ref"], category=category,
            verdict=rec["verdict"], raw_choice=rec.get("raw_choice") or "",
            raw_response=rec.get("raw_response") or ""))
    return classifier_report(gold, predictions, undecided)


@dataclass(frozen=True)
class DeltaRow:
    category: str
    system_id: str
    target_lang: str
    metric_id: str
    n: int
    mean_ori: float
    mean_delta_mix: float
    mean_delta_para: float


def delta_table(reports: Sequence[DeltaReport]) -> list[DeltaRow]:
    """Aggregate per-sentence deltas into table rows."""
    groups: dict[tuple, list[DeltaReport]] = {}
    for rep in reports:
        key = (rep.category or "all", rep.system_id, rep.target_lang,
               rep.qe_ori.metric_id)
        groups.setdefault(key, []).append(rep)
    rows = []
    for key in sorted(groups, key=lambda k: (_category_key(k[0]), k[1:])):
        batch = groups[key]
        rows.append(DeltaRow(
            category=key[0], system_id=key[1], target_lang=key[2],
            metric_id=key[3], n=len(batch),
            mean_ori=fmean(r.qe_ori.value for r in batch),
            mean_delta_mix=fmean(r.delta_mix for r in batch),
            mean_delta_para=fmean(r.delta_para for r in batch)))
    return rows


@dataclass(frozen=True)
class ErrorRateRow:
    system_id: str
    target_lang: str
    n_total: int
    n_invalid: int
    rate: float
    flagged: bool
    excluded: bool


def error_rate_rows(counts: Mapping[tuple[str, str], tuple[int, int]],
                    flag_pct: float = DEFAULT_FLAG_PCT,
                    exclude_pct: float = DEFAULT_EXCLUDE_PCT) -> list[ErrorRateRow]:
    """Turn (invalid, total) counts per (system, lang) into judged rows."""
    rows = []
    for (system_id, lang) in sorted(counts):
        invalid, total = counts[(system_id, lang)]
        rate = error_pct(invalid, total)
        rows.append(ErrorRateRow(system_id=system_id, target_lang=lang,
                                 n_total=total, n_invalid=invalid, rate=rate,
                                 flagged=rate > flag_pct,
                                 excluded=rate > exclude_pct))
    return rows


def build_tables(scored: Sequence[dict], flag_pct: float,
                 exclude_pct: float) -> dict[str, object]:
    """Aggregate the score stage's records into report tables.

    Returns "error_rates" always; "gap_table" and "ranking" when there are
    "ori" scores; "delta_table" when there are delta records.  Cells whose
    error rate exceeds `exclude_pct` are left out of the rankings.
    """
    tallies: dict[tuple[str, str], list[int]] = {}
    for rec in scored:
        if rec["type"] in ("qe", "invalid"):
            tally = tallies.setdefault((rec["system_id"], rec["target_lang"]),
                                       [0, 0])
            tally[0] += int(rec["type"] == "invalid")
            tally[1] += 1
    error_rows = error_rate_rows({pair: tuple(t) for pair, t in tallies.items()},
                                 flag_pct, exclude_pct)
    exclusions = [(r.system_id, r.target_lang) for r in error_rows if r.excluded]
    tables: dict[str, object] = {"error_rates": error_rows}

    ori_records = [r for r in scored if r["type"] == "qe" and r["kind"] == "ori"]
    if ori_records:
        orientation = Orientation(ori_records[0]["orientation"])
        metric_id = ori_records[0]["metric_id"]
        vmwe_scores: dict[CellKey, list[float]] = {}
        for rec in ori_records:
            key = (rec["category"], rec["system_id"], rec["target_lang"])
            vmwe_scores.setdefault(key, []).append(rec["value"])
        control_pool: dict[tuple[str, str], list[float]] = {}
        for rec in scored:
            if rec["type"] == "qe" and rec["kind"] == "control":
                pair = (rec["system_id"], rec["target_lang"])
                control_pool.setdefault(pair, []).append(rec["value"])
        control_scores = {key: control_pool[key[1:]] for key in vmwe_scores
                          if key[1:] in control_pool}
        tables["gap_table"] = gap_table(vmwe_scores, control_scores,
                                        orientation, metric_id)
        rankings = []
        for category in sorted({k[0] for k in vmwe_scores}, key=_category_key):
            cell_means = {(system_id, lang): fmean(values)
                          for (cat, system_id, lang), values in vmwe_scores.items()
                          if cat == category}
            rankings.append(rank_systems(cell_means, orientation, metric_id,
                                         category=category,
                                         exclusions=exclusions))
        tables["ranking"] = rankings

    deltas = [delta_from_dict(r) for r in scored if r["type"] == "delta"]
    if deltas:
        tables["delta_table"] = delta_table(deltas)
    return tables


# --- rendering ---------------------------------------------------------------

def _fmt(value: float, ndigits: int, signed: bool = False) -> str:
    rounded = round_half_up(value, ndigits)
    if rounded == 0.0:
        rounded = 0.0  # avoid "-0.00"
    text = f"{rounded:.{ndigits}f}"
    if signed and not text.startswith("-"):
        text = "+" + text
    return text


def _pct(fraction: float) -> str:
    return _fmt(fraction * 100.0, 1)


def _csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _json_table(table: str, rows: list[dict]) -> str:
    return json.dumps({"schema_version": SCHEMA_VERSION, "table": table,
                       "rows": rows}, ensure_ascii=False, indent=2) + "\n"


def emit(rows: list, fmt: str, table: str) -> str:
    """Render a table's rows as csv or json text; `table` is its kind, one
    of the values of TABLE_KINDS."""
    if fmt not in ("csv", "json"):
        raise ContractViolation(f"unknown report format {fmt!r}")
    emitters = {
        "gap": _emit_gap,
        "delta": _emit_delta,
        "ranking": _emit_rankings,
        "error_rate": _emit_error_rates,
        "classifier": _emit_classifier,
    }
    if table not in emitters:
        raise ContractViolation(f"cannot emit table {table!r}")
    return emitters[table](rows, fmt)


def _emit_gap(cells: list[GapCell], fmt: str) -> str:
    if fmt == "csv":
        return _csv(
            ["category", "system_id", "target_lang", "metric_id", "gap",
             "n_vmwe", "n_control"],
            [[c.category, c.system_id, c.target_lang, c.metric_id,
              _fmt(c.gap, 2, signed=True), c.n_vmwe, c.n_control]
             for c in cells])
    return _json_table("gap", [{
        "category": c.category, "system_id": c.system_id,
        "target_lang": c.target_lang, "metric_id": c.metric_id,
        "gap": round_half_up(c.gap, 2), "n_vmwe": c.n_vmwe,
        "n_control": c.n_control} for c in cells])


def _emit_delta(rows: list[DeltaRow], fmt: str) -> str:
    if fmt == "csv":
        return _csv(
            ["category", "system_id", "target_lang", "metric_id", "n", "ori",
             "delta_mix", "delta_para"],
            [[r.category, r.system_id, r.target_lang, r.metric_id, r.n,
              _fmt(r.mean_ori, 2), _fmt(r.mean_delta_mix, 2, signed=True),
              _fmt(r.mean_delta_para, 2, signed=True)] for r in rows])
    return _json_table("delta", [{
        "category": r.category, "system_id": r.system_id,
        "target_lang": r.target_lang, "metric_id": r.metric_id, "n": r.n,
        "ori": round_half_up(r.mean_ori, 2),
        "delta_mix": round_half_up(r.mean_delta_mix, 2),
        "delta_para": round_half_up(r.mean_delta_para, 2)} for r in rows])


def _emit_rankings(rankings: list[Ranking], fmt: str) -> str:
    if fmt == "csv":
        rows = []
        for ranking in rankings:
            for e in ranking.entries:
                rows.append([ranking.metric_id, ranking.category, e.rank,
                             e.system_id, _fmt(e.mean_score, 2),
                             ";".join(e.included_pairs)])
        return _csv(["metric_id", "category", "rank", "system_id",
                     "mean_score", "included_pairs"], rows)
    return _json_table("ranking", [{
        "metric_id": ranking.metric_id, "category": ranking.category,
        "rank": e.rank, "system_id": e.system_id,
        "mean_score": round_half_up(e.mean_score, 2),
        "included_pairs": list(e.included_pairs)}
        for ranking in rankings for e in ranking.entries])


def _emit_error_rates(rows: list[ErrorRateRow], fmt: str) -> str:
    if fmt == "csv":
        return _csv(
            ["system_id", "target_lang", "n_total", "n_invalid", "error_rate",
             "flagged", "excluded"],
            [[r.system_id, r.target_lang, r.n_total, r.n_invalid,
              _fmt(r.rate, 2), str(r.flagged).lower(), str(r.excluded).lower()]
             for r in rows])
    return _json_table("error_rate", [{
        "system_id": r.system_id, "target_lang": r.target_lang,
        "n_total": r.n_total, "n_invalid": r.n_invalid,
        "error_rate": round_half_up(r.rate, 2), "flagged": r.flagged,
        "excluded": r.excluded} for r in rows])


def _emit_classifier(cells: list[ClassifierCell], fmt: str) -> str:
    if fmt == "csv":
        rows = []
        for c in cells:
            m = c.metrics
            rows.append([c.category, c.matrix.total, c.n_undecided,
                         _pct(m.accuracy), _pct(m.macro_f1),
                         _pct(m.positive.precision), _pct(m.positive.recall),
                         _pct(m.positive.f1), _pct(m.negative.precision),
                         _pct(m.negative.recall), _pct(m.negative.f1)])
        return _csv(["category", "n", "undecided", "accuracy", "macro_f1",
                     "pos_precision", "pos_recall", "pos_f1", "neg_precision",
                     "neg_recall", "neg_f1"], rows)
    out = []
    for c in cells:
        m = c.metrics
        out.append({
            "category": c.category, "n": c.matrix.total,
            "undecided": c.n_undecided,
            "matrix": {"tp": c.matrix.tp, "fn": c.matrix.fn,
                       "fp": c.matrix.fp, "tn": c.matrix.tn},
            "accuracy": round_half_up(m.accuracy * 100.0, 1),
            "macro_f1": round_half_up(m.macro_f1 * 100.0, 1),
            "positive": {"precision": round_half_up(m.positive.precision * 100.0, 1),
                         "recall": round_half_up(m.positive.recall * 100.0, 1),
                         "f1": round_half_up(m.positive.f1 * 100.0, 1)},
            "negative": {"precision": round_half_up(m.negative.precision * 100.0, 1),
                         "recall": round_half_up(m.negative.recall * 100.0, 1),
                         "f1": round_half_up(m.negative.f1 * 100.0, 1)},
        })
    return _json_table("classifier", out)
