import csv
import io
import json
import logging
import random
from dataclasses import dataclass
from statistics import fmean

import pytest

from vmweval.errors import ContractViolation
from vmweval.extract import Category
from vmweval.mt import error_pct
from vmweval.qe import Orientation, QEScore
from vmweval.report import (TABLE_KINDS, build_tables, classifier_table,
                            da_gap_table, delta_table, emit, error_rate_rows,
                            gap_table, rank_systems)
from vmweval.stats import (ClassMetrics, ConfusionMatrix, ConfusionReport,
                           DAAnnotation, confusion_metrics, round_half_up,
                           znormalize)

LOWER = Orientation.LOWER_BETTER_0_25
HIGHER = Orientation.HIGHER_BETTER_0_1


# --- gap table ----------------------------------------------------------------

def _gap_inputs():
    vmwe = {("VID", "alpha", "de"): [10.0, 12.0],
            ("VPC", "alpha", "de"): [8.0]}
    control = {("VID", "alpha", "de"): [9.0, 9.0],
               ("VPC", "alpha", "de"): [8.5],
               ("LVC", "beta", "cs"): [1.0]}
    return vmwe, control


def test_gap_sign_lower_better(caplog):
    vmwe, control = _gap_inputs()
    with caplog.at_level(logging.WARNING, logger="vmweval.report"):
        cells = gap_table(vmwe, control, LOWER, "qe")
    assert [(c["category"], c["gap"]) for c in cells] == [("VID", 2.0),
                                                          ("VPC", -0.5)]
    assert cells[0]["n_vmwe"] == 2 and cells[0]["n_control"] == 2
    assert "LVC" in caplog.text and "no vmwe scores" in caplog.text


def test_gap_sign_higher_better():
    vmwe, control = _gap_inputs()
    cells = gap_table(vmwe, control, HIGHER, "qe")
    # positive still means the VMWE side is worse
    assert [(c["category"], c["gap"]) for c in cells] == [("VID", -2.0),
                                                          ("VPC", 0.5)]


def test_gap_grows_when_vmwe_side_degrades():
    vmwe, control = _gap_inputs()
    worse = {k: [v + 1.0 for v in vals] for k, vals in vmwe.items()}
    base = {c["category"]: c["gap"] for c in gap_table(vmwe, control, LOWER, "qe")}
    bumped = {c["category"]: c["gap"] for c in gap_table(worse, control, LOWER, "qe")}
    for category in base:
        assert bumped[category] == pytest.approx(base[category] + 1.0)


def test_gap_orders_categories_canonically():
    scores = {("VPC", "a", "de"): [1.0], ("VID", "b", "cs"): [1.0],
              ("VID", "a", "de"): [1.0], ("zz", "a", "de"): [1.0]}
    cells = gap_table(scores, scores, LOWER, "qe")
    assert [(c["category"], c["system_id"], c["target_lang"]) for c in cells] == [
        ("VID", "a", "de"), ("VID", "b", "cs"), ("VPC", "a", "de"),
        ("zz", "a", "de")]


def test_gap_skips_empty_side(caplog):
    with caplog.at_level(logging.WARNING, logger="vmweval.report"):
        cells = gap_table({("VID", "a", "de"): []},
                          {("VID", "a", "de"): [1.0]}, LOWER, "qe")
    assert cells == []
    assert "empty side" in caplog.text


# --- z gap table ---------------------------------------------------------------

def _da(system, sentence, annotator, raw):
    return {"system_id": system, "sentence_id": sentence, "annotator_id": annotator,
            "raw_score": raw}


def test_z_gap_table():
    # a1 and a2: mean 70, std 10, so each v -> -1 and each c -> +1; a3 has no
    # variance, so its judgments are 0
    records = [_da("alpha", "v1", "a1", 60), _da("alpha", "c1", "a1", 80),
               _da("alpha", "v2", "a2", 60), _da("alpha", "c2", "a2", 80),
               _da("beta", "v1", "a3", 30), _da("beta", "c1", "a3", 30),
               _da("alpha", "x9", "a3", 30)]  # in neither set, ignored
    cells = da_gap_table(records, ["v1", "v2"], ["c1", "c2"])
    assert [(c["system_id"], c["gap"]) for c in cells] == [("alpha", 2.0),
                                                           ("beta", 0.0)]
    assert cells[0]["category"] == "all" and cells[0]["target_lang"] == "all"
    assert cells[0]["metric_id"] == "da_z"
    assert cells[0]["n_vmwe"] == 2 and cells[0]["n_control"] == 2


def test_z_gap_skips_one_sided_system(caplog):
    records = [_da("alpha", "v1", "a1", 60), _da("alpha", "c1", "a1", 80),
               _da("gamma", "v1", "a1", 70)]
    with caplog.at_level(logging.WARNING, logger="vmweval.report"):
        cells = da_gap_table(records, ["v1"], ["c1"])
    assert [c["system_id"] for c in cells] == ["alpha"]
    assert "gamma" in caplog.text


def test_z_gap_rejects_overlapping_ids():
    with pytest.raises(ContractViolation, match="ids on both sides"):
        da_gap_table([], ["v1", "shared"], ["shared", "c1"])


def _z_gap_table_oracle(zscores, vmwe_ids, control_ids, category="all",
                        target_lang="all", metric_id="da_z"):
    """The z-gap table as it was before it went through gap_table: its own
    grouping by system, control mean minus VMWE mean."""
    vmwe_ids, control_ids = set(vmwe_ids), set(control_ids)
    overlap = vmwe_ids & control_ids
    if overlap:
        raise ContractViolation(f"ids on both sides: {sorted(overlap)[:5]}")
    vmwe, control = {}, {}
    for z in zscores:
        if z.sentence_id in vmwe_ids:
            vmwe.setdefault(z.system_id, []).append(z.z)
        elif z.sentence_id in control_ids:
            control.setdefault(z.system_id, []).append(z.z)
    cells = []
    for system_id in sorted(set(vmwe) | set(control)):
        if system_id not in vmwe or system_id not in control:
            continue
        cells.append({
            "category": category, "system_id": system_id, "target_lang": target_lang,
            "metric_id": metric_id,
            "gap": fmean(control[system_id]) - fmean(vmwe[system_id]),
            "n_vmwe": len(vmwe[system_id]), "n_control": len(control[system_id])})
    return cells


def _annotations(records):
    return [DAAnnotation(**{k: r[k] for k in ("system_id", "sentence_id",
                                              "annotator_id", "raw_score")})
            for r in records]


def test_z_gap_table_matches_its_oracle():
    vmwe_ids = [f"v{i}" for i in range(6)]
    control_ids = [f"c{i}" for i in range(6)]
    for seed in range(20):
        rng = random.Random(seed)
        records = []
        for system in ("alpha", "beta", "gamma", "delta", "eps"):
            for ids in rng.choice([(vmwe_ids, control_ids), (vmwe_ids,),
                                   (control_ids,)]):
                for sid in rng.sample(ids + ["x1", "x2"], rng.randint(1, 7)):
                    records.append(_da(system, sid, rng.choice(["a1", "a2", "a3"]),
                                       round(rng.uniform(0.0, 100.0),
                                             rng.choice([1, 3, 17]))))
        # an exact tie: one annotator's judgments on both sides, in another order
        tie = [rng.uniform(0.0, 100.0) for _ in range(rng.randint(1, 5))]
        records += [_da("tied", vmwe_ids[i], "t", v) for i, v in enumerate(tie)]
        records += [_da("tied", control_ids[i], "t", v)
                    for i, v in enumerate(reversed(tie))]
        rng.shuffle(records)

        cells = da_gap_table(records, vmwe_ids, control_ids)
        oracle = _z_gap_table_oracle(znormalize(_annotations(records)), vmwe_ids,
                                     control_ids)
        assert cells == oracle, seed
        assert [c["gap"] for c in cells if c["system_id"] == "tied"] == [0.0]
        # -0.0 == 0.0, so compare the rendered tables too
        for fmt in ("json", "csv"):
            assert emit(cells, fmt, "gap") == emit(oracle, fmt, "gap"), seed


def test_da_gap_table_from_dict_records():
    # a1: mean 70, std 10, so v1 -> -1 and c1 -> +1; a2 has no variance
    records = [_da("alpha", "v1", "a1", 60), _da("alpha", "c1", "a1", 80),
               _da("beta", "v1", "a2", 30), _da("beta", "c1", "a2", 30)]
    cells = da_gap_table(records, ["v1"], ["c1"])
    assert [(c["system_id"], c["gap"], c["n_vmwe"], c["n_control"])
            for c in cells] == [("alpha", 2.0, 1, 1), ("beta", 0.0, 1, 1)]
    assert cells[0]["metric_id"] == "da_z"


# --- rankings -------------------------------------------------------------------

def test_rank_lower_better():
    cells = {("alpha", "de"): 10.0, ("alpha", "cs"): 20.0,
             ("beta", "de"): 12.0, ("beta", "cs"): 12.0}
    ranking = rank_systems(cells, LOWER, "qe")
    assert [(e["rank"], e["system_id"], e["mean_score"]) for e in ranking] == [
        (1, "beta", 12.0), (2, "alpha", 15.0)]
    assert ranking[0]["included_pairs"] == ["cs", "de"]
    assert {(e["metric_id"], e["category"]) for e in ranking} == {("qe", "all")}


def test_rank_higher_better_flips():
    cells = {("alpha", "de"): 0.8, ("beta", "de"): 0.6}
    ranking = rank_systems(cells, HIGHER, "qe")
    assert [e["system_id"] for e in ranking] == ["alpha", "beta"]


def test_rank_breaks_ties_by_system_id():
    cells = {("zeta", "de"): 5.0, ("acme", "de"): 5.0}
    ranking = rank_systems(cells, LOWER, "qe")
    assert [e["system_id"] for e in ranking] == ["acme", "zeta"]
    assert [e["rank"] for e in ranking] == [1, 2]


def test_rank_applies_exclusions():
    cells = {("alpha", "de"): 10.0, ("alpha", "cs"): 20.0,
             ("beta", "de"): 12.0}
    ranking = rank_systems(cells, LOWER, "qe",
                           exclusions=[("alpha", "cs")])
    assert ranking[0]["system_id"] == "alpha"
    assert ranking[0]["mean_score"] == 10.0
    assert ranking[0]["included_pairs"] == ["de"]


def test_rank_drops_fully_excluded_system(caplog):
    cells = {("alpha", "de"): 10.0, ("beta", "de"): 12.0}
    with caplog.at_level(logging.WARNING, logger="vmweval.report"):
        ranking = rank_systems(cells, LOWER, "qe",
                               exclusions=[("alpha", "de")])
    assert [e["system_id"] for e in ranking] == ["beta"]
    assert ranking[0]["rank"] == 1
    assert "alpha" in caplog.text


def test_rank_order_is_shift_invariant():
    import random
    rng = random.Random(7)
    cells = {(f"s{i}", lang): rng.uniform(0.0, 10.0)
             for i in range(6) for lang in ("de", "cs")}
    base = [e["system_id"] for e in rank_systems(cells, LOWER, "qe")]
    shifted = {k: v + 7.0 for k, v in cells.items()}
    assert [e["system_id"] for e in rank_systems(shifted, LOWER, "qe")] == base


# --- classifier report ----------------------------------------------------------

def _cls(ref, category, verdict):
    """A classify-stage record, undecided when `verdict` is None."""
    return {"candidate_ref": ref, "category": category, "verdict": verdict,
            "raw_choice": None if verdict is None else "X",
            "raw_response": "Final Answer: X"}


def _gold(labels):
    return [{"candidate_ref": ref, "label": label} for ref, label in labels.items()]


def test_classifier_report_joins_and_counts():
    gold = _gold({"r1": True, "r2": True, "r3": False, "r4": False,
                  "r5": True, "r6": True})
    records = [_cls("r1", "VID", True), _cls("r2", "VID", False),
               _cls("r3", "VID", True), _cls("r4", "VID", False),
               _cls("r5", "VPC", True), _cls("r6", "VID", None)]
    cells = classifier_table(gold, records)
    assert [c["category"] for c in cells] == ["VID", "VPC"]
    vid = cells[0]
    assert vid["matrix"] == {"tp": 1, "fn": 1, "fp": 1, "tn": 1}
    assert (vid["n"], vid["undecided"]) == (4, 1)
    # in percents
    metrics = confusion_metrics(ConfusionMatrix(tp=1, fn=1, fp=1, tn=1))
    assert (vid["accuracy"], vid["macro_f1"]) == (metrics.accuracy * 100.0,
                                                  metrics.macro_f1 * 100.0)
    assert vid["positive"] == {"precision": metrics.positive.precision * 100.0,
                               "recall": metrics.positive.recall * 100.0,
                               "f1": metrics.positive.f1 * 100.0}
    assert cells[1]["matrix"]["tp"] == 1 and cells[1]["undecided"] == 0


def test_classifier_report_requires_gold():
    with pytest.raises(ContractViolation,
                       match="^prediction r9 has no gold label$"):
        classifier_table([], [_cls("r9", "VID", True)])
    with pytest.raises(ContractViolation,
                       match="^undecided candidate r9 has no gold label$"):
        classifier_table(_gold({"r1": True}), [_cls("r9", "VID", None)])


def test_classifier_table_from_records():
    gold = [{"candidate_ref": "r1", "label": True},
            {"candidate_ref": "r2", "label": False},
            {"candidate_ref": "r3", "label": 1}]
    records = [
        {"candidate_ref": "r1", "category": "VID", "verdict": True,
         "raw_choice": "A", "raw_response": "Final Answer: A"},
        {"candidate_ref": "r2", "category": "VID", "verdict": False,
         "raw_choice": "B", "raw_response": "Final Answer: B"},
        {"candidate_ref": "r3", "category": "VID", "verdict": None,
         "raw_choice": None, "raw_response": "mumble", "error": "unparseable"}]
    cells = classifier_table(gold, records)
    assert [c["category"] for c in cells] == ["VID"]
    vid = cells[0]
    assert vid["matrix"] == {"tp": 1, "fn": 0, "fp": 0, "tn": 1}
    assert vid["undecided"] == 1
    assert cells == _parent_classifier_report(
        {"r1": True, "r2": False, "r3": True},
        [_pred("r1", Category.VID, True), _pred("r2", Category.VID, False)],
        undecided=[("r3", Category.VID)])


def test_classifier_report_skips_undecided_only_category(caplog):
    with caplog.at_level(logging.WARNING, logger="vmweval.report"):
        cells = classifier_table(_gold({"u1": True}), [_cls("u1", "LVC", None)])
    assert cells == []
    assert "only undecided" in caplog.text


# --- delta table ----------------------------------------------------------------

def _delta(sentence, system, lang, ori, mix, para, category=""):
    """A score-stage delta record of a lower-better metric "m"."""
    return {"type": "delta", "sentence_id": sentence,
            "candidate_ref": f"{sentence}#VID#1.2", "category": category,
            "system_id": system, "target_lang": lang, "metric_id": "m",
            "orientation": LOWER.value, "qe_ori": ori, "qe_mix": mix,
            "qe_para": para, "delta_mix": ori - mix, "delta_para": ori - para}


def test_delta_table_groups_and_averages():
    records = [_delta("s1", "alpha", "de", 10.0, 8.0, 7.0, category="VID"),
               _delta("s2", "alpha", "de", 12.0, 10.0, 11.0, category="VID"),
               _delta("s3", "beta", "de", 5.0, 5.0, 5.0, category="VID"),
               _delta("s4", "alpha", "cs", 1.0, 1.0, 1.0)]
    rows = delta_table(records)
    assert [(r["category"], r["system_id"], r["target_lang"], r["n"])
            for r in rows] == [("VID", "alpha", "de", 2), ("VID", "beta", "de", 1),
                               ("all", "alpha", "cs", 1)]
    assert rows[0] == {"category": "VID", "system_id": "alpha", "target_lang": "de",
                       "metric_id": "m", "n": 2, "ori": 11.0, "delta_mix": 2.0,
                       "delta_para": 2.0}


# --- error rates -----------------------------------------------------------------

def test_error_rate_rows_thresholds():
    counts = {("b", "cs"): (10, 100), ("a", "de"): (1, 10),
              ("a", "cs"): (0, 4), ("b", "de"): (51, 100),
              ("c", "de"): (50, 100)}
    rows = error_rate_rows(counts)
    assert [(r["system_id"], r["target_lang"]) for r in rows] == [
        ("a", "cs"), ("a", "de"), ("b", "cs"), ("b", "de"), ("c", "de")]
    by_key = {(r["system_id"], r["target_lang"]): r for r in rows}
    # thresholds are strict: exactly 10% is not flagged, exactly 50% not excluded
    assert not by_key[("a", "de")]["flagged"]
    assert not by_key[("b", "cs")]["flagged"]
    assert by_key[("b", "de")]["flagged"] and by_key[("b", "de")]["excluded"]
    assert by_key[("c", "de")]["flagged"] and not by_key[("c", "de")]["excluded"]
    assert by_key[("a", "cs")]["error_rate"] == 0.0
    assert by_key[("b", "de")] == {"system_id": "b", "target_lang": "de",
                                   "n_total": 100, "n_invalid": 51,
                                   "error_rate": 51.0, "flagged": True,
                                   "excluded": True}


def test_error_rate_rows_published_value():
    rows = error_rate_rows({("sys", "zh"): (9989, 10000)})
    assert rows[0]["error_rate"] == pytest.approx(99.89, abs=1e-12)
    assert rows[0]["excluded"]


def test_error_rate_rows_contracts():
    with pytest.raises(ContractViolation):
        error_rate_rows({("a", "de"): (0, 0)})
    with pytest.raises(ContractViolation):
        error_rate_rows({("a", "de"): (5, 4)})


# --- tables from score-stage records ----------------------------------------------

def _scored(record_type, kind, system, lang, **fields):
    candidate = kind != "control"
    return {"type": record_type, "kind": kind, "sentence_id": "s1",
            "candidate_ref": "s1#VID#1.2" if candidate else None,
            "category": "VID" if candidate else None, "system_id": system,
            "target_lang": lang, **fields}


def _qe_rec(kind, system, lang, value):
    return _scored("qe", kind, system, lang, metric_id="qe",
                   orientation=LOWER.value, value=value)


def test_build_tables_skips_gap_cell_without_controls(caplog):
    scored = [_qe_rec("ori", "alpha", "de", 10.0),
              _qe_rec("ori", "alpha", "cs", 12.0),
              _qe_rec("control", "alpha", "de", 9.0)]
    with caplog.at_level(logging.WARNING, logger="vmweval.report"):
        tables = build_tables(scored, 10.0, 50.0)
    assert [(c["system_id"], c["target_lang"], c["gap"])
            for c in tables["gap_table"]] == [("alpha", "de", 1.0)]
    assert "no control scores" in caplog.text
    assert "delta_table" not in tables


def test_build_tables_drops_excluded_pair_from_ranking():
    scored = [_qe_rec("ori", "alpha", "de", 10.0),
              _qe_rec("ori", "beta", "de", 1.0),
              _qe_rec("ori", "beta", "cs", 20.0),
              _scored("invalid", "ori", "beta", "de", validity="empty"),
              _scored("invalid", "para", "beta", "de", validity="empty")]
    tables = build_tables(scored, 10.0, 50.0)
    rates = {(r["system_id"], r["target_lang"]): (r["n_invalid"], r["n_total"],
                                                  r["excluded"])
             for r in tables["error_rates"]}
    assert rates == {("alpha", "de"): (0, 1, False),
                     ("beta", "cs"): (0, 1, False),
                     ("beta", "de"): (2, 3, True)}
    # one row per ranked system, beta's cheap de cell would rank it first;
    # excluded, it ranks last on cs
    assert [(e["category"], e["rank"], e["system_id"], e["included_pairs"])
            for e in tables["ranking"]] == [("VID", 1, "alpha", ["de"]),
                                            ("VID", 2, "beta", ["cs"])]


def test_build_tables_rebuilds_delta_rows():
    records = [_delta("s1", "alpha", "de", 10.0, 8.0, 7.0, category="VID"),
               _delta("s2", "alpha", "de", 12.0, 10.0, 11.0, category="VID")]
    tables = build_tables(records, 10.0, 50.0)
    assert tables["error_rates"] == []
    assert "gap_table" not in tables and "ranking" not in tables
    assert tables["delta_table"] == delta_table(records) == _parent_delta_table(
        [_delta_from_dict(r) for r in records])
    row = tables["delta_table"][0]
    assert (row["n"], row["ori"], row["delta_mix"], row["delta_para"]) == (
        2, 11.0, 2.0, 2.0)


# --- rendering -------------------------------------------------------------------

def test_emit_gap_csv_format():
    vmwe, control = _gap_inputs()
    text = emit(gap_table(vmwe, control, LOWER, "qe"), "csv", "gap")
    lines = text.splitlines()
    assert lines[0] == ("category,system_id,target_lang,metric_id,gap,"
                        "n_vmwe,n_control")
    assert lines[1] == "VID,alpha,de,qe,+2.00,2,2"
    assert lines[2] == "VPC,alpha,de,qe,-0.50,1,1"


def test_emit_never_renders_negative_zero():
    cell = {"category": "VID", "system_id": "a", "target_lang": "de",
            "metric_id": "qe", "gap": -0.004, "n_vmwe": 1, "n_control": 1}
    text = emit([cell], "csv", "gap")
    assert "+0.00" in text
    assert "-0.00" not in text


def test_emit_delta_csv_signs():
    rows = delta_table([_delta("s1", "alpha", "de", 10.0, 8.0, 12.0)])
    text = emit(rows, "csv", "delta")
    assert text.splitlines()[1] == "all,alpha,de,m,1,10.00,+2.00,-2.00"


def test_emit_ranking_csv_format():
    ranking = rank_systems({("alpha", "de"): 10.0, ("alpha", "cs"): 11.0},
                           LOWER, "qe", category="VID")
    text = emit(ranking, "csv", "ranking")
    lines = text.splitlines()
    assert lines[0] == ("metric_id,category,rank,system_id,mean_score,"
                        "included_pairs")
    assert lines[1] == "qe,VID,1,alpha,10.50,cs;de"


def test_emit_error_rate_csv_booleans():
    text = emit(error_rate_rows({("b", "de"): (51, 100)}), "csv", "error_rate")
    assert text.splitlines()[1] == "b,de,100,51,51.00,true,true"


def test_emit_classifier_csv_row():
    gold = _gold({f"p{i}": i < 4 for i in range(5)})
    records = [_cls(f"p{i}", "VPC", True) for i in range(5)]
    text = emit(classifier_table(gold, records), "csv", "classifier")
    lines = text.splitlines()
    assert lines[0] == ("category,n,undecided,accuracy,macro_f1,pos_precision,"
                        "pos_recall,pos_f1,neg_precision,neg_recall,neg_f1")
    assert lines[1] == "VPC,5,0,80.0,44.4,80.0,100.0,88.9,0.0,0.0,0.0"


def test_emit_json_envelope():
    vmwe, control = _gap_inputs()
    text = emit(gap_table(vmwe, control, LOWER, "qe"), "json", "gap")
    body = json.loads(text)
    assert body["schema_version"] == 1
    assert body["table"] == "gap"
    assert body["rows"][0] == {"category": "VID", "system_id": "alpha",
                               "target_lang": "de", "metric_id": "qe",
                               "gap": 2.0, "n_vmwe": 2, "n_control": 2}
    assert text.endswith("\n")


def test_emit_empty_list_needs_table_hint():
    header_only = emit([], "csv", table="gap")
    assert header_only.splitlines() == [
        "category,system_id,target_lang,metric_id,gap,n_vmwe,n_control"]
    assert json.loads(emit([], "json", table="delta"))["rows"] == []


def test_emit_rejects_unknown_kinds():
    with pytest.raises(ContractViolation):
        emit([], "xml", table="gap")
    with pytest.raises(ContractViolation):
        emit([], "csv", table="bogus")


# --- rendering against the per-format emitters it replaced -----------------------

def _oracle_fmt(value, ndigits, signed=False):
    rounded = round_half_up(value, ndigits)
    if rounded == 0.0:
        rounded = 0.0  # avoid "-0.00"
    text = f"{rounded:.{ndigits}f}"
    if signed and not text.startswith("-"):
        text = "+" + text
    return text


def _oracle_pct(fraction):
    return _oracle_fmt(fraction * 100.0, 1)


def _oracle_csv(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _oracle_json_table(table, rows):
    return json.dumps({"schema_version": 1, "table": table, "rows": rows},
                      ensure_ascii=False, indent=2) + "\n"


def _oracle_gap(cells, fmt):
    if fmt == "csv":
        return _oracle_csv(
            ["category", "system_id", "target_lang", "metric_id", "gap",
             "n_vmwe", "n_control"],
            [[c.category, c.system_id, c.target_lang, c.metric_id,
              _oracle_fmt(c.gap, 2, signed=True), c.n_vmwe, c.n_control]
             for c in cells])
    return _oracle_json_table("gap", [{
        "category": c.category, "system_id": c.system_id,
        "target_lang": c.target_lang, "metric_id": c.metric_id,
        "gap": round_half_up(c.gap, 2), "n_vmwe": c.n_vmwe,
        "n_control": c.n_control} for c in cells])


def _oracle_delta(rows, fmt):
    if fmt == "csv":
        return _oracle_csv(
            ["category", "system_id", "target_lang", "metric_id", "n", "ori",
             "delta_mix", "delta_para"],
            [[r.category, r.system_id, r.target_lang, r.metric_id, r.n,
              _oracle_fmt(r.mean_ori, 2), _oracle_fmt(r.mean_delta_mix, 2, signed=True),
              _oracle_fmt(r.mean_delta_para, 2, signed=True)] for r in rows])
    return _oracle_json_table("delta", [{
        "category": r.category, "system_id": r.system_id,
        "target_lang": r.target_lang, "metric_id": r.metric_id, "n": r.n,
        "ori": round_half_up(r.mean_ori, 2),
        "delta_mix": round_half_up(r.mean_delta_mix, 2),
        "delta_para": round_half_up(r.mean_delta_para, 2)} for r in rows])


def _oracle_rankings(rankings, fmt):
    if fmt == "csv":
        rows = []
        for ranking in rankings:
            for e in ranking.entries:
                rows.append([ranking.metric_id, ranking.category, e.rank,
                             e.system_id, _oracle_fmt(e.mean_score, 2),
                             ";".join(e.included_pairs)])
        return _oracle_csv(["metric_id", "category", "rank", "system_id",
                            "mean_score", "included_pairs"], rows)
    return _oracle_json_table("ranking", [{
        "metric_id": ranking.metric_id, "category": ranking.category,
        "rank": e.rank, "system_id": e.system_id,
        "mean_score": round_half_up(e.mean_score, 2),
        "included_pairs": list(e.included_pairs)}
        for ranking in rankings for e in ranking.entries])


def _oracle_error_rates(rows, fmt):
    if fmt == "csv":
        return _oracle_csv(
            ["system_id", "target_lang", "n_total", "n_invalid", "error_rate",
             "flagged", "excluded"],
            [[r.system_id, r.target_lang, r.n_total, r.n_invalid,
              _oracle_fmt(r.rate, 2), str(r.flagged).lower(), str(r.excluded).lower()]
             for r in rows])
    return _oracle_json_table("error_rate", [{
        "system_id": r.system_id, "target_lang": r.target_lang,
        "n_total": r.n_total, "n_invalid": r.n_invalid,
        "error_rate": round_half_up(r.rate, 2), "flagged": r.flagged,
        "excluded": r.excluded} for r in rows])


def _oracle_classifier(cells, fmt):
    if fmt == "csv":
        rows = []
        for c in cells:
            m = c.metrics
            rows.append([c.category, c.matrix.total, c.n_undecided,
                         _oracle_pct(m.accuracy), _oracle_pct(m.macro_f1),
                         _oracle_pct(m.positive.precision),
                         _oracle_pct(m.positive.recall), _oracle_pct(m.positive.f1),
                         _oracle_pct(m.negative.precision),
                         _oracle_pct(m.negative.recall), _oracle_pct(m.negative.f1)])
        return _oracle_csv(["category", "n", "undecided", "accuracy", "macro_f1",
                            "pos_precision", "pos_recall", "pos_f1",
                            "neg_precision", "neg_recall", "neg_f1"], rows)
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
    return _oracle_json_table("classifier", out)


# The emitters `emit` replaced, one per table kind.  Their JSON keeps a
# rounded negative zero as -0.0 while their CSV prints it as 0.00; `emit`
# keeps both until the JSON tables fold it too (ROADMAP item 1), which then
# changes the oracle's JSON with them.
_ORACLES = {"gap": _oracle_gap, "delta": _oracle_delta, "ranking": _oracle_rankings,
            "error_rate": _oracle_error_rates, "classifier": _oracle_classifier}

# exact ties that round half up (0.125 -> 0.13, 80.45 -> 80.5), of 1 and 2
# decimals and of either sign
_TIES = [0.125, -0.125, 2.675, -2.675, 0.005, -0.005, 80.45, -80.45, 0.05, 99.95]


def _random_float(rng, scale=1.0):
    pick = rng.randrange(6)
    if pick == 0:
        return rng.choice(_TIES) * scale
    if pick == 1:  # rounds to zero from below
        return -rng.uniform(0.0, 0.0049) * scale
    if pick == 2:
        return rng.uniform(-1e7, 1e7)
    if pick == 3:
        return float(rng.randint(-3, 3))
    return rng.uniform(-3.0, 3.0) * scale


def _random_name(rng):
    return rng.choice(["VID", "alpha", "de", "cs", "qe", "all", "a,b", 'say "x"',
                       "ß"])


def _random_fraction(rng):
    return rng.choice([0.0, 1.0, 0.8045, 0.00125, 0.5, rng.random()])


# --- the row dataclasses, builders and _json_rows the row dicts replaced ------
#
# Before the builders returned their JSON rows, each returned frozen row
# objects, and `_json_rows` turned them into the rows `emit` rendered,
# rounded.  Copied here, less their log lines, as the oracle of the builders
# and of `emit`, with the llm.ClassificationResult they counted, which
# classify_candidate returned until it returned the record's fields.

@dataclass(frozen=True)
class ClassificationResult:
    candidate_ref: str
    category: Category
    verdict: bool
    raw_choice: str
    raw_response: str


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


@dataclass(frozen=True)
class ClassifierCell:
    category: str
    matrix: ConfusionMatrix
    metrics: ConfusionReport
    n_undecided: int


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


@dataclass(frozen=True)
class ErrorRateRow:
    system_id: str
    target_lang: str
    n_total: int
    n_invalid: int
    rate: float
    flagged: bool
    excluded: bool


def _old_category_key(name):
    order = [c.value for c in Category]
    return (order.index(name), name) if name in order else (len(order), name)


def _old_gap_table(vmwe_scores, control_scores, orientation, metric_id):
    cells = []
    for key in sorted(set(vmwe_scores) | set(control_scores),
                      key=lambda k: (_old_category_key(k[0]), k[1], k[2])):
        if key not in vmwe_scores or key not in control_scores:
            continue
        vmwe, control = vmwe_scores[key], control_scores[key]
        if not vmwe or not control:
            continue
        if orientation.lower_is_better:
            gap = fmean(vmwe) - fmean(control)
        else:
            gap = fmean(control) - fmean(vmwe)
        cells.append(GapCell(category=key[0], system_id=key[1], target_lang=key[2],
                             metric_id=metric_id, gap=gap,
                             n_vmwe=len(vmwe), n_control=len(control)))
    return cells


def _old_z_gap_table(zscores, vmwe_ids, control_ids):
    vmwe_ids, control_ids = set(vmwe_ids), set(control_ids)
    overlap = vmwe_ids & control_ids
    if overlap:
        raise ContractViolation(f"ids on both sides: {sorted(overlap)[:5]}")
    vmwe, control = {}, {}
    for z in zscores:
        key = ("all", z.system_id, "all")
        if z.sentence_id in vmwe_ids:
            vmwe.setdefault(key, []).append(z.z)
        elif z.sentence_id in control_ids:
            control.setdefault(key, []).append(z.z)
    return _old_gap_table(vmwe, control, Orientation.HIGHER_BETTER_0_1, "da_z")


def _old_da_gap_table(records, vmwe_ids, control_ids):
    annotations = [DAAnnotation(
        system_id=r["system_id"], sentence_id=r["sentence_id"],
        annotator_id=r["annotator_id"], raw_score=r["raw_score"])
        for r in records]
    return _old_z_gap_table(znormalize(annotations), vmwe_ids, control_ids)


def _old_rank_systems(cell_means, orientation, metric_id, category="all",
                      exclusions=()):
    excluded = set(exclusions)
    by_system = {}
    for (system_id, lang), value in cell_means.items():
        if (system_id, lang) in excluded:
            continue
        by_system.setdefault(system_id, {})[lang] = value
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


def _old_classifier_report(gold, predictions, undecided=()):
    counts = {}
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
    n_undecided = {}
    for ref, category in undecided:
        if ref not in gold:
            raise ContractViolation(f"undecided candidate {ref} has no gold label")
        n_undecided[category.value] = n_undecided.get(category.value, 0) + 1
    cells = []
    for name in sorted(set(counts) | set(n_undecided), key=_old_category_key):
        if name not in counts:
            continue
        matrix = ConfusionMatrix(**counts[name])
        cells.append(ClassifierCell(category=name, matrix=matrix,
                                    metrics=confusion_metrics(matrix),
                                    n_undecided=n_undecided.get(name, 0)))
    return cells


def _old_classifier_table(gold_records, classification_records):
    gold = {r["candidate_ref"]: bool(r["label"]) for r in gold_records}
    predictions = []
    undecided = []
    for rec in classification_records:
        category = Category(rec["category"])
        if rec["verdict"] is None:
            undecided.append((rec["candidate_ref"], category))
            continue
        predictions.append(ClassificationResult(
            candidate_ref=rec["candidate_ref"], category=category,
            verdict=rec["verdict"], raw_choice=rec["raw_choice"],
            raw_response=rec["raw_response"]))
    return _old_classifier_report(gold, predictions, undecided)


def _old_delta_table(reports):
    groups = {}
    for rep in reports:
        key = (rep.category or "all", rep.system_id, rep.target_lang,
               rep.qe_ori.metric_id)
        groups.setdefault(key, []).append(rep)
    rows = []
    for key in sorted(groups, key=lambda k: (_old_category_key(k[0]), k[1:])):
        batch = groups[key]
        rows.append(DeltaRow(
            category=key[0], system_id=key[1], target_lang=key[2],
            metric_id=key[3], n=len(batch),
            mean_ori=fmean(r.qe_ori.value for r in batch),
            mean_delta_mix=fmean(r.delta_mix for r in batch),
            mean_delta_para=fmean(r.delta_para for r in batch)))
    return rows


def _old_error_rate_rows(counts, flag_pct, exclude_pct):
    rows = []
    for (system_id, lang) in sorted(counts):
        invalid, total = counts[(system_id, lang)]
        rate = error_pct(invalid, total)
        rows.append(ErrorRateRow(system_id=system_id, target_lang=lang,
                                 n_total=total, n_invalid=invalid, rate=rate,
                                 flagged=rate > flag_pct,
                                 excluded=rate > exclude_pct))
    return rows


def _old_build_tables(scored, flag_pct, exclude_pct):
    tallies = {}
    for rec in scored:
        if rec["type"] in ("qe", "invalid"):
            tally = tallies.setdefault((rec["system_id"], rec["target_lang"]),
                                       [0, 0])
            tally[0] += int(rec["type"] == "invalid")
            tally[1] += 1
    error_rows = _old_error_rate_rows(
        {pair: tuple(t) for pair, t in tallies.items()}, flag_pct, exclude_pct)
    exclusions = [(r.system_id, r.target_lang) for r in error_rows if r.excluded]
    tables = {"error_rates": error_rows}
    ori_records = [r for r in scored if r["type"] == "qe" and r["kind"] == "ori"]
    if ori_records:
        orientation = Orientation(ori_records[0]["orientation"])
        metric_id = ori_records[0]["metric_id"]
        vmwe_scores = {}
        for rec in ori_records:
            key = (rec["category"], rec["system_id"], rec["target_lang"])
            vmwe_scores.setdefault(key, []).append(rec["value"])
        control_pool = {}
        for rec in scored:
            if rec["type"] == "qe" and rec["kind"] == "control":
                pair = (rec["system_id"], rec["target_lang"])
                control_pool.setdefault(pair, []).append(rec["value"])
        control_scores = {key: control_pool[key[1:]] for key in vmwe_scores
                          if key[1:] in control_pool}
        tables["gap_table"] = _old_gap_table(vmwe_scores, control_scores,
                                             orientation, metric_id)
        rankings = []
        for category in sorted({k[0] for k in vmwe_scores}, key=_old_category_key):
            cell_means = {(system_id, lang): fmean(values)
                          for (cat, system_id, lang), values in vmwe_scores.items()
                          if cat == category}
            rankings.append(_old_rank_systems(cell_means, orientation, metric_id,
                                              category=category,
                                              exclusions=exclusions))
        tables["ranking"] = rankings
    deltas = [_delta_from_dict(r) for r in scored if r["type"] == "delta"]
    if deltas:
        tables["delta_table"] = _old_delta_table(deltas)
    return tables


def _unrounded(value, ndigits):
    return value


def _old_json_rows(rows, table, rnd=round_half_up):
    """A table's rows as the objects its JSON holds, each float rounded by
    `rnd`; with `_unrounded`, the rows the builders now return."""
    if table == "gap":
        return [{"category": c.category, "system_id": c.system_id,
                 "target_lang": c.target_lang, "metric_id": c.metric_id,
                 "gap": rnd(c.gap, 2), "n_vmwe": c.n_vmwe,
                 "n_control": c.n_control} for c in rows]
    if table == "delta":
        return [{"category": r.category, "system_id": r.system_id,
                 "target_lang": r.target_lang, "metric_id": r.metric_id, "n": r.n,
                 "ori": rnd(r.mean_ori, 2),
                 "delta_mix": rnd(r.mean_delta_mix, 2),
                 "delta_para": rnd(r.mean_delta_para, 2)} for r in rows]
    if table == "ranking":
        return [{"metric_id": ranking.metric_id, "category": ranking.category,
                 "rank": e.rank, "system_id": e.system_id,
                 "mean_score": rnd(e.mean_score, 2),
                 "included_pairs": list(e.included_pairs)}
                for ranking in rows for e in ranking.entries]
    if table == "error_rate":
        return [{"system_id": r.system_id, "target_lang": r.target_lang,
                 "n_total": r.n_total, "n_invalid": r.n_invalid,
                 "error_rate": rnd(r.rate, 2), "flagged": r.flagged,
                 "excluded": r.excluded} for r in rows]

    def pct(fraction):
        return rnd(fraction * 100.0, 1)

    def sides(report):
        return {"precision": pct(report.precision), "recall": pct(report.recall),
                "f1": pct(report.f1)}
    return [{"category": c.category, "n": c.matrix.total, "undecided": c.n_undecided,
             "matrix": {"tp": c.matrix.tp, "fn": c.matrix.fn, "fp": c.matrix.fp,
                        "tn": c.matrix.tn},
             "accuracy": pct(c.metrics.accuracy), "macro_f1": pct(c.metrics.macro_f1),
             "positive": sides(c.metrics.positive),
             "negative": sides(c.metrics.negative)} for c in rows]


def _random_table(rng, kind):
    n_rows = rng.choice([0, 1, 2, 5])
    if kind == "gap":
        return [GapCell(category=_random_name(rng), system_id=_random_name(rng),
                        target_lang=_random_name(rng), metric_id=_random_name(rng),
                        gap=_random_float(rng), n_vmwe=rng.randint(1, 9),
                        n_control=rng.randint(1, 9)) for _ in range(n_rows)]
    if kind == "delta":
        return [DeltaRow(category=_random_name(rng), system_id=_random_name(rng),
                         target_lang=_random_name(rng), metric_id=_random_name(rng),
                         n=rng.randint(1, 50), mean_ori=_random_float(rng),
                         mean_delta_mix=_random_float(rng),
                         mean_delta_para=_random_float(rng)) for _ in range(n_rows)]
    if kind == "ranking":
        return [Ranking(metric_id=_random_name(rng), category=_random_name(rng),
                        orientation=rng.choice([LOWER, HIGHER]),
                        entries=tuple(RankedSystem(
                            rank=i, system_id=_random_name(rng),
                            mean_score=_random_float(rng),
                            included_pairs=tuple(rng.sample(
                                ["cs", "de", "es", "tr"], rng.randint(0, 3))))
                            for i in range(1, rng.randint(0, 4) + 1)))
                for _ in range(n_rows)]
    if kind == "error_rate":
        return [ErrorRateRow(system_id=_random_name(rng), target_lang=_random_name(rng),
                             n_total=rng.randint(0, 9999), n_invalid=rng.randint(0, 99),
                             rate=abs(_random_float(rng, scale=100.0)),
                             flagged=rng.random() < 0.5, excluded=rng.random() < 0.5)
                for _ in range(n_rows)]
    cells = []
    for _ in range(n_rows):
        # zero denominators: no predicted or no actual positives/negatives
        counts = [rng.choice([0, 0, 1, 3, 7]) for _ in range(4)]
        counts[rng.randrange(4)] += 1
        matrix = ConfusionMatrix(*counts)
        metrics = confusion_metrics(matrix)
        if rng.random() < 0.5:
            sides = [ClassMetrics(*(_random_fraction(rng) for _ in range(3)))
                     for _ in range(2)]
            metrics = ConfusionReport(accuracy=_random_fraction(rng),
                                      positive=sides[0], negative=sides[1],
                                      macro_f1=_random_fraction(rng))
        cells.append(ClassifierCell(category=_random_name(rng), matrix=matrix,
                                    metrics=metrics, n_undecided=rng.randint(0, 4)))
    return cells


@pytest.mark.parametrize("kind", sorted(_ORACLES))
def test_emit_equals_the_per_format_emitters(kind):
    for seed in range(200):
        table = _random_table(random.Random(seed), kind)
        rows = _old_json_rows(table, kind, _unrounded)
        for fmt in ("csv", "json"):
            assert emit(rows, fmt, kind) == _ORACLES[kind](table, fmt), (seed, fmt)


# --- the builders against the row objects they replaced ---------------------------

def _qe_value(rng, orientation):
    """A score in range, often one that recurs, so means and gaps tie."""
    high = orientation.value_range[1]
    return rng.choice([0.0, 0.125, 0.5, 0.5, 0.805, rng.random()]) * high


def _random_scored(rng):
    """Score-stage records over several categories, systems and languages,
    with delta records, failed calls and at least one excluded pair."""
    orientation = rng.choice([LOWER, HIGHER])
    systems = rng.sample(["alpha", "beta", "gamma", "a,b"], rng.randint(2, 4))
    langs = rng.sample(["cs", "de", "es", "tr"], rng.randint(2, 4))
    records = []
    for system in systems:
        for lang in langs:
            def qe(kind, category, n):
                return {"type": "qe", "kind": kind, "sentence_id": f"s{n}",
                        "candidate_ref": category and f"s{n}#{category}#1.2",
                        "category": category, "system_id": system,
                        "target_lang": lang, "metric_id": "qe",
                        "orientation": orientation.value,
                        "value": _qe_value(rng, orientation)}
            records += [qe("control", None, n) for n in range(rng.randint(0, 3))]
            for category in rng.sample(["VID", "VPC", "LVC"], rng.randint(1, 3)):
                for n in range(rng.randint(0, 3)):
                    ori = qe("ori", category, n)
                    records.append(ori)
                    if rng.random() < 0.6:
                        scores = [QEScore("qe", orientation, v) for v in (
                            ori["value"], _qe_value(rng, orientation),
                            _qe_value(rng, orientation))]
                        records.append({
                            "type": "delta", "sentence_id": ori["sentence_id"],
                            "candidate_ref": ori["candidate_ref"],
                            "category": rng.choice([category, ""]),
                            "system_id": system, "target_lang": lang,
                            "metric_id": "qe", "orientation": orientation.value,
                            "qe_ori": scores[0].value, "qe_mix": scores[1].value,
                            "qe_para": scores[2].value,
                            "delta_mix": _old_delta_improvement(*scores[:2]),
                            "delta_para": _old_delta_improvement(*scores[::2])})
            n_scored = sum(r["type"] == "qe" for r in records
                           if (r["system_id"], r["target_lang"]) == (system, lang))
            # the first pair is excluded at any threshold below 50%
            n_invalid = (n_scored + 1 if (system, lang) == (systems[0], langs[0])
                         else rng.choice([0, 0, 1, n_scored]))
            records += [{"type": "invalid", "kind": rng.choice(["ori", "control"]),
                         "system_id": system, "target_lang": lang,
                         "validity": "empty"} for _ in range(n_invalid)]
            if rng.random() < 0.3:
                records.append({"type": "failed", "kind": "ori", "system_id": system,
                                "target_lang": lang, "error": "transport"})
    rng.shuffle(records)
    return records


def _random_da(rng):
    """DA records over vmwe, control and other sentences, with ties."""
    sentences = ["v1", "v2", "v3", "c1", "c2", "c3", "x1"]
    return [{"system_id": rng.choice(["alpha", "beta", "gamma"]),
             "sentence_id": rng.choice(sentences),
             "annotator_id": rng.choice(["a1", "a2", "a3"]),
             "raw_score": rng.choice([0, 50, 50, 75, 100, rng.uniform(0.0, 100.0)])}
            for _ in range(rng.randint(0, 24))]


def _random_classifications(rng):
    """Gold labels and classify-stage records, some undecided."""
    gold, records = [], []
    for n in range(rng.randint(0, 20)):
        ref = f"s{n}#x"
        gold.append({"candidate_ref": ref, "label": rng.choice([True, False, 1, 0])})
        verdict = rng.choice([True, False, None])
        records.append({"candidate_ref": ref,
                        "category": rng.choice(["VID", "VPC", "LVC"]),
                        "verdict": verdict,
                        "raw_choice": None if verdict is None else "A",
                        "raw_response": "Final Answer: A"})
    return gold, records


def test_builders_render_what_their_row_objects_rendered():
    """Every table the builders return renders, in both formats, the text
    the row objects rendered through `_json_rows`."""
    for seed in range(100):
        rng = random.Random(seed)
        scored = _random_scored(rng)
        flag_pct, exclude_pct = rng.choice([(10.0, 50.0), (0.0, 20.0), (25.0, 25.0)])
        da = _random_da(rng)
        gold, classifications = _random_classifications(rng)
        ids = (["v1", "v2", "v3"], ["c1", "c2", "c3"])
        tables = build_tables(scored, flag_pct, exclude_pct)
        tables["z_gap_table"] = da_gap_table(da, *ids)
        tables["classifier_table"] = classifier_table(gold, classifications)
        oracle = _old_build_tables(scored, flag_pct, exclude_pct)
        oracle["z_gap_table"] = _old_da_gap_table(da, *ids)
        oracle["classifier_table"] = _old_classifier_table(gold, classifications)
        assert tables.keys() == oracle.keys(), seed
        for name, rows in tables.items():
            kind = TABLE_KINDS[name]
            assert emit(rows, "json", kind) == _oracle_json_table(
                kind, _old_json_rows(oracle[name], kind)), (seed, name)
            assert emit(rows, "csv", kind) == _ORACLES[kind](oracle[name], "csv"), (
                seed, name)
            assert rows == _old_json_rows(oracle[name], kind, _unrounded), (seed, name)


# --- the builders that rebuilt objects from the records -------------------------
#
# Before the builders read the records as given, delta_table averaged the
# DeltaReports that qe.delta_from_dict rebuilt, classifier_table counted
# llm.ClassificationResults through classifier_report, and da_gap_table went
# through z_gap_table.  Copied here, less their log lines, as the oracle of the
# builders that replaced them, with the DeltaReport and the delta_improvement
# on two scores of that time.

def _pred(ref, category, verdict):
    return ClassificationResult(candidate_ref=ref, category=category,
                                verdict=verdict, raw_choice="X",
                                raw_response="Final Answer: X")


def _old_delta_improvement(ori, other):
    """stats.delta_improvement as it was, on two QEScores."""
    if ori.orientation is not other.orientation:
        raise ContractViolation(
            f"cannot compare orientations {ori.orientation} and {other.orientation}")
    if ori.orientation.lower_is_better:
        return ori.value - other.value
    return other.value - ori.value


@dataclass(frozen=True)
class DeltaReport:
    """qe.DeltaReport as it was, with the record's candidate_ref and category."""
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


def _delta_from_dict(rec):
    orientation = Orientation(rec["orientation"])

    def qe(value):
        return QEScore(metric_id=rec["metric_id"], orientation=orientation,
                       value=value)
    return DeltaReport(
        sentence_id=rec["sentence_id"], system_id=rec["system_id"],
        target_lang=rec["target_lang"], qe_ori=qe(rec["qe_ori"]),
        qe_mix=qe(rec["qe_mix"]), qe_para=qe(rec["qe_para"]),
        delta_mix=rec["delta_mix"], delta_para=rec["delta_para"],
        candidate_ref=rec["candidate_ref"], category=rec["category"])


def _parent_delta_table(reports):
    groups = {}
    for rep in reports:
        key = (rep.category or "all", rep.system_id, rep.target_lang,
               rep.qe_ori.metric_id)
        groups.setdefault(key, []).append(rep)
    rows = []
    for key in sorted(groups, key=lambda k: (_old_category_key(k[0]), k[1:])):
        batch = groups[key]
        rows.append({"category": key[0], "system_id": key[1], "target_lang": key[2],
                     "metric_id": key[3], "n": len(batch),
                     "ori": fmean(r.qe_ori.value for r in batch),
                     "delta_mix": fmean(r.delta_mix for r in batch),
                     "delta_para": fmean(r.delta_para for r in batch)})
    return rows


def _parent_percents(metrics):
    return {"precision": metrics.precision * 100.0,
            "recall": metrics.recall * 100.0, "f1": metrics.f1 * 100.0}


def _parent_classifier_report(gold, predictions, undecided=()):
    counts = {}
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
    n_undecided = {}
    for ref, category in undecided:
        if ref not in gold:
            raise ContractViolation(f"undecided candidate {ref} has no gold label")
        n_undecided[category.value] = n_undecided.get(category.value, 0) + 1
    rows = []
    for name in sorted(set(counts) | set(n_undecided), key=_old_category_key):
        if name not in counts:
            continue
        matrix = ConfusionMatrix(**counts[name])
        metrics = confusion_metrics(matrix)
        rows.append({"category": name, "n": matrix.total,
                     "undecided": n_undecided.get(name, 0), "matrix": counts[name],
                     "accuracy": metrics.accuracy * 100.0,
                     "macro_f1": metrics.macro_f1 * 100.0,
                     "positive": _parent_percents(metrics.positive),
                     "negative": _parent_percents(metrics.negative)})
    return rows


def _parent_classifier_table(gold_records, classification_records):
    gold = {r["candidate_ref"]: bool(r["label"]) for r in gold_records}
    predictions = []
    undecided = []
    for rec in classification_records:
        category = Category(rec["category"])
        if rec["verdict"] is None:
            undecided.append((rec["candidate_ref"], category))
            continue
        predictions.append(ClassificationResult(
            candidate_ref=rec["candidate_ref"], category=category,
            verdict=rec["verdict"], raw_choice=rec["raw_choice"],
            raw_response=rec["raw_response"]))
    return _parent_classifier_report(gold, predictions, undecided)


def _parent_z_gap_table(zscores, vmwe_ids, control_ids):
    vmwe_ids, control_ids = set(vmwe_ids), set(control_ids)
    overlap = vmwe_ids & control_ids
    if overlap:
        raise ContractViolation(f"ids on both sides: {sorted(overlap)[:5]}")
    vmwe = {}
    control = {}
    for z in zscores:
        key = ("all", z.system_id, "all")
        if z.sentence_id in vmwe_ids:
            vmwe.setdefault(key, []).append(z.z)
        elif z.sentence_id in control_ids:
            control.setdefault(key, []).append(z.z)
    return gap_table(vmwe, control, Orientation.HIGHER_BETTER_0_1, "da_z")


def _parent_da_gap_table(records, vmwe_ids, control_ids):
    return _parent_z_gap_table(znormalize(_annotations(records)), vmwe_ids,
                               control_ids)


def test_builders_equal_the_builders_that_rebuilt_objects():
    """On seeded random records, each builder returns the rows, and renders
    the text, of the builder that rebuilt objects from those records, and a
    classification without a gold label fails both with one message."""
    ids = (["v1", "v2", "v3"], ["c1", "c2", "c3"])
    for seed in range(200):
        rng = random.Random(seed)
        deltas = [r for r in _random_scored(rng) if r["type"] == "delta"]
        da = _random_da(rng)
        gold, classifications = _random_classifications(rng)
        built = {
            "delta": (delta_table(deltas),
                      _parent_delta_table(map(_delta_from_dict, deltas))),
            "gap": (da_gap_table(da, *ids), _parent_da_gap_table(da, *ids)),
            "classifier": (classifier_table(gold, classifications),
                           _parent_classifier_table(gold, classifications))}
        for kind, (rows, oracle) in built.items():
            assert rows == oracle, (seed, kind)
            for fmt in ("csv", "json"):
                assert emit(rows, fmt, kind) == emit(oracle, fmt, kind), (seed, kind)
        if gold:
            del gold[rng.randrange(len(gold))]
            messages = []
            for build in (classifier_table, _parent_classifier_table):
                with pytest.raises(ContractViolation) as exc:
                    build(gold, classifications)
                messages.append(str(exc.value))
            assert messages[0] == messages[1], seed
