"""Aggregation tables and their CSV/JSON rendering.

Each table builder returns the rows its JSON holds: dicts with the JSON
keys in JSON order and unrounded floats.  `emit` rounds each float column
half up, in one place, to the decimals its entry in _COLUMNS gives (1 for
percents, 2 for QE values), then renders the JSON or the CSV from the
rounded rows.  Column orders and row sorts are fixed, so emitted reports
can be compared byte for byte.
"""
from __future__ import annotations

import csv
import io
import json
import logging
from statistics import fmean
from typing import Iterable, Mapping, Sequence

from .errors import ContractViolation
from .extract import Category
from .mt import error_pct
from .records import SCHEMA_VERSION
from .stats import (ClassMetrics, ConfusionMatrix, DAAnnotation, Orientation,
                    confusion_metrics, round_half_up, znormalize)

log = logging.getLogger(__name__)

# Thresholds on per-cell error rates: flag noisy cells, drop unusable ones
# from rankings.
DEFAULT_FLAG_PCT = 10.0
DEFAULT_EXCLUDE_PCT = 50.0

CellKey = tuple[str, str, str]  # (category, system_id, target_lang)

# Report table name -> the kind `emit` renders it as.
TABLE_KINDS = {"gap_table": "gap", "delta_table": "delta", "ranking": "ranking",
               "error_rates": "error_rate", "z_gap_table": "gap",
               "classifier_table": "classifier"}


def _category_key(name: str):
    order = [c.value for c in Category]
    return (order.index(name), name) if name in order else (len(order), name)


def gap_table(vmwe_scores: Mapping[CellKey, Sequence[float]],
              control_scores: Mapping[CellKey, Sequence[float]],
              orientation: Orientation, metric_id: str) -> list[dict]:
    """Mean score gap per cell, oriented so positive = VMWE side worse; a
    cell without scores on both sides is skipped."""
    rows = []
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
        rows.append({"category": key[0], "system_id": key[1], "target_lang": key[2],
                     "metric_id": metric_id, "gap": gap, "n_vmwe": len(vmwe),
                     "n_control": len(control)})
    return rows


def da_gap_table(records: Iterable[Mapping], vmwe_ids: Iterable[str],
                 control_ids: Iterable[str]) -> list[dict]:
    """Human-score gap per system from DA-annotation records (system_id,
    sentence_id, annotator_id, raw_score) standardized per annotator, in
    cells ("all", system, "all") of metric "da_z".

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
    annotations = [DAAnnotation(r["system_id"], r["sentence_id"], r["annotator_id"],
                                r["raw_score"]) for r in records]
    for z in znormalize(annotations):
        key = ("all", z.system_id, "all")
        if z.sentence_id in vmwe_ids:
            vmwe.setdefault(key, []).append(z.z)
        elif z.sentence_id in control_ids:
            control.setdefault(key, []).append(z.z)
    return gap_table(vmwe, control, Orientation.HIGHER_BETTER_0_1, "da_z")


def rank_systems(cell_means: Mapping[tuple[str, str], float],
                 orientation: Orientation, metric_id: str,
                 category: str = "all",
                 exclusions: Iterable[tuple[str, str]] = ()) -> list[dict]:
    """Order systems by their mean score over non-excluded language pairs,
    one row per ranked system."""
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
    scored = [(fmean(langs.values()), system_id, sorted(langs))
              for system_id, langs in by_system.items()]
    scored.sort(key=lambda item: (item[0] if orientation.lower_is_better
                                  else -item[0], item[1]))
    return [{"metric_id": metric_id, "category": category, "rank": rank,
             "system_id": system_id, "mean_score": mean, "included_pairs": langs}
            for rank, (mean, system_id, langs) in enumerate(scored, start=1)]


def _percents(metrics: ClassMetrics) -> dict:
    return {"precision": metrics.precision * 100.0,
            "recall": metrics.recall * 100.0, "f1": metrics.f1 * 100.0}


def classifier_table(gold_records: Iterable[Mapping],
                     classification_records: Iterable[Mapping],
                     ) -> list[dict]:
    """The classifier table from gold-label records (candidate_ref, label)
    and classify-stage records, joined by candidate_ref and scored per
    category in percents; a record without a verdict is undecided."""
    gold = {r["candidate_ref"]: bool(r["label"]) for r in gold_records}
    counts: dict[str, dict[str, int]] = {}
    n_undecided: dict[str, int] = {}
    for rec in classification_records:
        ref, verdict, category = rec["candidate_ref"], rec["verdict"], rec["category"]
        if ref not in gold:
            what = "undecided candidate" if verdict is None else "prediction"
            raise ContractViolation(f"{what} {ref} has no gold label")
        if verdict is None:
            n_undecided[category] = n_undecided.get(category, 0) + 1
            continue
        cell = counts.setdefault(category, {"tp": 0, "fn": 0, "fp": 0, "tn": 0})
        # true when the verdict is the label, positive when the verdict is
        cell[("t" if verdict == gold[ref] else "f") + ("p" if verdict else "n")] += 1
    rows = []
    for name in sorted(set(counts) | set(n_undecided), key=_category_key):
        if name not in counts:
            log.warning("category %s has only undecided predictions, skipping",
                        name)
            continue
        matrix = ConfusionMatrix(**counts[name])
        metrics = confusion_metrics(matrix)
        rows.append({"category": name, "n": matrix.total,
                     "undecided": n_undecided.get(name, 0), "matrix": counts[name],
                     "accuracy": metrics.accuracy * 100.0,
                     "macro_f1": metrics.macro_f1 * 100.0,
                     "positive": _percents(metrics.positive),
                     "negative": _percents(metrics.negative)})
    return rows


def delta_table(records: Iterable[Mapping]) -> list[dict]:
    """One row per category ("all" for a record without one), system,
    language and metric of the score stage's delta records."""
    groups: dict[tuple, list[Mapping]] = {}
    for rec in records:
        key = (rec["category"] or "all", rec["system_id"], rec["target_lang"],
               rec["metric_id"])
        groups.setdefault(key, []).append(rec)
    rows = []
    for key in sorted(groups, key=lambda k: (_category_key(k[0]), k[1:])):
        batch = groups[key]
        rows.append({"category": key[0], "system_id": key[1], "target_lang": key[2],
                     "metric_id": key[3], "n": len(batch),
                     "ori": fmean(r["qe_ori"] for r in batch),
                     "delta_mix": fmean(r["delta_mix"] for r in batch),
                     "delta_para": fmean(r["delta_para"] for r in batch)})
    return rows


def error_rate_rows(counts: Mapping[tuple[str, str], Sequence[int]],
                    flag_pct: float = DEFAULT_FLAG_PCT,
                    exclude_pct: float = DEFAULT_EXCLUDE_PCT) -> list[dict]:
    """Turn (invalid, total) counts per (system, lang) into judged rows."""
    rows = []
    for (system_id, lang) in sorted(counts):
        invalid, total = counts[(system_id, lang)]
        rate = error_pct(invalid, total)
        rows.append({"system_id": system_id, "target_lang": lang, "n_total": total,
                     "n_invalid": invalid, "error_rate": rate,
                     "flagged": rate > flag_pct, "excluded": rate > exclude_pct})
    return rows


def build_tables(scored: Sequence[dict], flag_pct: float,
                 exclude_pct: float) -> dict[str, list[dict]]:
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
    error_rows = error_rate_rows(tallies, flag_pct, exclude_pct)
    exclusions = [(r["system_id"], r["target_lang"]) for r in error_rows
                  if r["excluded"]]
    tables = {"error_rates": error_rows}

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
        tables["ranking"] = []
        for category in sorted({k[0] for k in vmwe_scores}, key=_category_key):
            cell_means = {(system_id, lang): fmean(values)
                          for (cat, system_id, lang), values in vmwe_scores.items()
                          if cat == category}
            tables["ranking"] += rank_systems(cell_means, orientation, metric_id,
                                              category=category,
                                              exclusions=exclusions)

    deltas = [r for r in scored if r["type"] == "delta"]
    if deltas:
        tables["delta_table"] = delta_table(deltas)
    return tables


# --- rendering ---------------------------------------------------------------

# Table kind -> its CSV columns, and the decimals and sign of each float in
# its JSON rows.  A name is both the CSV header and the JSON row's key; a
# float column is (header, key or dotted path in the JSON row, decimals,
# whether a non-negative value carries a "+" in the CSV).
_COLUMNS = {
    "gap": ["category", "system_id", "target_lang", "metric_id",
            ("gap", "gap", 2, True), "n_vmwe", "n_control"],
    "delta": ["category", "system_id", "target_lang", "metric_id", "n",
              ("ori", "ori", 2, False), ("delta_mix", "delta_mix", 2, True),
              ("delta_para", "delta_para", 2, True)],
    "ranking": ["metric_id", "category", "rank", "system_id",
                ("mean_score", "mean_score", 2, False), "included_pairs"],
    "error_rate": ["system_id", "target_lang", "n_total", "n_invalid",
                   ("error_rate", "error_rate", 2, False), "flagged", "excluded"],
    "classifier": ["category", "n", "undecided", ("accuracy", "accuracy", 1, False),
                   ("macro_f1", "macro_f1", 1, False),
                   *[(f"{side[:3]}_{name}", f"{side}.{name}", 1, False)
                     for side in ("positive", "negative")
                     for name in ("precision", "recall", "f1")]],
}


def _cell(row: dict, path: str) -> tuple[dict, str]:
    """The mapping in `row` that holds the value at `path`, and its key."""
    outer, _, key = path.rpartition(".")
    return (row[outer] if outer else row), key


def _rounded(row: dict, floats: list[tuple]) -> dict:
    """A copy of `row` with each float column rounded half up to its
    decimals."""
    row = {key: dict(value) if isinstance(value, dict) else value
           for key, value in row.items()}
    for _, path, digits, _ in floats:
        cell, key = _cell(row, path)
        cell[key] = round_half_up(cell[key], digits)
    return row


def _csv_cell(row: dict, path: str, digits: int = 0, signed: bool = False):
    """The CSV text of the value at `path` in a rounded row."""
    cell, key = _cell(row, path)
    value = cell[key]
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return ";".join(value)
    if not isinstance(value, float):
        return value
    text = f"{value + 0.0:.{digits}f}"  # + 0.0 turns -0.0 into 0.0
    return "+" + text if signed and not text.startswith("-") else text


def emit(rows: list[dict], fmt: str, table: str) -> str:
    """Render a table's rows as csv or json text; `table` is its kind, one
    of the values of TABLE_KINDS.  Both are rendered from the same rounded
    rows."""
    if fmt not in ("csv", "json"):
        raise ContractViolation(f"unknown report format {fmt!r}")
    if table not in _COLUMNS:
        raise ContractViolation(f"cannot emit table {table!r}")
    columns = [c if isinstance(c, tuple) else (c, c) for c in _COLUMNS[table]]
    floats = [c for c in columns if len(c) > 2]
    rounded = [_rounded(row, floats) for row in rows]
    if fmt == "json":
        return json.dumps({"schema_version": SCHEMA_VERSION, "table": table,
                           "rows": rounded}, ensure_ascii=False, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([header for header, *_ in columns])
    writer.writerows([_csv_cell(row, *spec) for _, *spec in columns]
                     for row in rounded)
    return buf.getvalue()
