"""Staged command-line pipeline.

    extract -> classify -> paraphrase -> translate -> score -> report

Each stage takes the config, its output path and its input records with
their sha256.  It writes its output as JSON Lines with a manifest beside it
(input hashes, config snapshot, record counts, seed; nothing else
non-deterministic) and returns the records with the sha256 of the bytes it
wrote.  A single-stage command reads its inputs from such files, checked
against their manifests and records tables, so a stage can be rerun or
inspected alone; `run-all` hands each stage's records and digest to the next.
`main` refuses any flag outside `_SHARED` and its command's `_COMMANDS` entry,
and an output that would write over an input.

Exit codes: 0 success, 1 contract violation, 2 transport failures.
"""
from __future__ import annotations

import argparse
import dataclasses
import itertools
import logging
import sys
import threading
from pathlib import Path

from . import corpus as corpus_mod
from . import extract as extract_mod
from . import llm as llm_mod
from . import mt as mt_mod
from . import qe as qe_mod
from . import report as report_mod
from .config import FILE_KEYS, Config, load_config, load_lexicon, pipeline_roles
from .errors import ContractViolation, TransportError, UnparseableResponse
from .rundir import manifest_path, read_jsonl, write_file, write_jsonl, write_manifest
from .transport import kept_connections

# the package's logger, whose warnings main prints to stderr; `python -m
# vmweval.cli` runs this module as __main__, so it is named here
log = logging.getLogger("vmweval")


def _finish(config: Config, stage: str, out: Path, records: list[dict],
            inputs: dict[str, str], counts: dict, kept: tuple = ()):
    """Write a stage's records and manifest, with each `kept` failure counted
    from the records; (exit code, records, the sha256 of their bytes), the
    code 2 when a call failed in transport."""
    for _, tag, counter in kept:
        counts[counter] = sum(r.get("error") == tag for r in records)
    sha256 = write_jsonl(out, records)
    write_manifest(out, stage, config, inputs, counts, sha256)
    return (2 if counts.get("transport_failures") else 0), records, sha256


def _map_ordered(fn, items, max_workers: int, key=None):
    """Run fn over items concurrently, (result, exc) pairs in input order.

    fn runs once per distinct key(item), by default its position, on the
    first item that has it; every item sharing the key gets that outcome.
    The calling thread and at most max_workers - 1 more take the distinct
    items in turn, so with one worker no thread starts.  Each keeps its
    HTTP connections open until it runs out of items.  A BaseException
    in any of them stops the others taking items and is raised here.
    """
    keys = [key(item) for item in items] if key is not None else range(len(items))
    first: dict = {}
    for k, item in zip(keys, items):
        first.setdefault(k, item)
    distinct = list(first.values())
    outcomes: list = [None] * len(distinct)
    taken = itertools.count()  # next() on it is atomic under the GIL
    aborted: list[BaseException] = []

    def work():
        try:
            with kept_connections():
                for i in taken:
                    if i >= len(distinct) or aborted:
                        return
                    try:
                        outcomes[i] = (fn(distinct[i]), None)
                    except Exception as exc:  # noqa: BLE001 - recorded per item
                        outcomes[i] = (None, exc)
        except BaseException as exc:  # re-raised by the calling thread
            aborted.append(exc)

    extra = [threading.Thread(target=work, daemon=True)
             for _ in range(min(max_workers, len(distinct)) - 1)]
    for thread in extra:
        thread.start()
    work()
    for thread in extra:
        thread.join()
    if aborted:
        raise aborted[0]
    by_key = dict(zip(first, outcomes))
    return [by_key[k] for k in keys]


# The failed backend calls a stage keeps as records: (error, record tag, count).
_KEPT_TRANSPORT = ((TransportError, "transport", "transport_failures"),)
_KEPT_LLM = ((UnparseableResponse, "unparseable", "undecided"), *_KEPT_TRANSPORT)


def _call_each(config: Config, call, jobs: list, ok, failed, kept: tuple,
               key=None) -> list[dict]:
    """One record per job, in order: ok(job, result) when call(job) worked,
    else failed(job, exc) with its `error` tag from `kept`, which must hold
    the failure's kind or it is re-raised.  Calls are shared by `key`."""
    records = []
    outcomes = _map_ordered(call, jobs, config.concurrency, key=key)
    for job, (result, exc) in zip(jobs, outcomes):
        if exc is None:
            records.append(ok(job, result))
            continue
        tag = next((tag for kind, tag, _ in kept if isinstance(exc, kind)), None)
        if tag is None:
            raise exc
        records.append({**failed(job, exc), "error": tag})
    return records


def _candidate_jobs(config: Config, records: list[dict]) -> list[tuple]:
    """(category, candidate, sentence) of each candidate record in one of
    config.categories, the token indices it names checked in its sentence."""
    corpus, _ = config.corpus
    jobs = []
    for cand in map(extract_mod.candidate_from_dict, records):
        if cand.category in config.categories:
            sentence = corpus.by_id(cand.sentence_id)
            extract_mod.check_in_range(sentence, cand.token_indices())
            jobs.append((cand.category, cand, sentence))
    return jobs


# --- stages ------------------------------------------------------------------

def stage_extract(config: Config, out: Path, controls_out: Path | None = None):
    """(exit code, candidates, their sha256, the control sample's (records,
    sha256) or None); the sample goes to `controls_out` or beside `out`."""
    lex, inputs = load_lexicon(config)
    corpus, inputs["corpus"] = config.corpus

    # Controls are the sentences no extractor matches, so with a control
    # sample every sentence goes through all three, once.
    scanned = tuple(extract_mod.Category) if config.control_n else config.categories
    records = []
    clean = []
    for sentence in corpus:
        found = extract_mod.extract_all(sentence, lex, config.light_verbs,
                                        config.vid_threshold, scanned)
        if not found:
            clean.append(sentence)
        records += [extract_mod.candidate_to_dict(cand) for cand in found
                    if cand.category in config.categories]

    found_categories = [r["category"] for r in records]
    counts = {"candidates": len(records),
              **{c.value: found_categories.count(c.value)
                 for c in extract_mod.Category}}
    if config.control_n:
        controls, shortfall = extract_mod.sample_sentences(
            clean, config.control_n, config.seed)
        control_counts = {"controls": len(controls),
                          "controls_shortfall": shortfall}
        counts.update(control_counts)
        if shortfall:
            log.warning("only %d of %d requested control sentences qualify",
                        len(controls), config.control_n)
    # the candidates first, so an --stage-out that cannot be written fails
    # the stage before it writes anything
    finished = _finish(config, "extract", out, records, inputs, counts)
    controls_out = controls_out or out.with_name(out.stem + ".controls.jsonl")
    if not config.control_n:  # an earlier run's sample is not this run's
        for path in (controls_out, manifest_path(controls_out)):
            path.unlink(missing_ok=True)
        return (*finished, None)
    return (*finished, _finish(config, "extract", controls_out,
                               [corpus_mod.sentence_to_dict(s) for s in controls],
                               inputs, control_counts)[1:])


def stage_classify(config: Config, out: Path, candidates: list[dict], sha256: str):
    backend = config.backend("llm")
    jobs = _candidate_jobs(config, candidates)

    def record(job, verdict=None, raw_choice=None, raw_response=None):
        return {**extract_mod.candidate_to_dict(job[1]), "verdict": verdict,
                "raw_choice": raw_choice, "raw_response": raw_response}
    records = _call_each(
        config, lambda job: llm_mod.classify_candidate(backend, *job), jobs,
        lambda job, answer: record(job, **answer),
        lambda job, exc: record(job, raw_response=getattr(exc, "raw_response", None)),
        _KEPT_LLM)
    verdicts = [r["verdict"] for r in records]
    counts = {"total": len(jobs), "accepted": verdicts.count(True),
              "rejected": verdicts.count(False)}
    return _finish(config, "classify", out, records,
                   {"candidates": sha256, "corpus": config.corpus[1]},
                   counts, _KEPT_LLM)


def stage_paraphrase(config: Config, out: Path, classifications: list[dict],
                     sha256: str):
    backend = config.backend("llm")
    jobs = _candidate_jobs(config, [r for r in classifications
                                    if r["verdict"] is True])

    def record(job, **fields):
        cand = job[1]
        return {"candidate_ref": cand.ref, "sentence_id": cand.sentence_id,
                "category": cand.category.value, **fields}
    records = _call_each(
        config, lambda job: llm_mod.paraphrase_candidate(backend, *job[1:]), jobs,
        lambda job, answer: record(job, **answer),
        lambda job, exc: record(job, original=None, paraphrased=None,
                                raw_response=getattr(exc, "raw_response", None)),
        _KEPT_LLM)
    counts = {"total": len(jobs),
              "paraphrased": sum("error" not in r for r in records),
              "retained_candidate": sum(r.get("retains_candidate", False)
                                        for r in records)}
    return _finish(config, "paraphrase", out, records,
                   {"classifications": sha256, "corpus": config.corpus[1]},
                   counts, _KEPT_LLM)


def stage_translate(config: Config, out: Path, paraphrases: list[dict],
                    sha256: str, controls=None):
    """`controls` are the control sentences' records and their sha256, or None."""
    paraphrases = [r for r in paraphrases if r["paraphrased"]]
    backends = {name: config.backend("mt", name) for name in config.role("mt")}

    inputs = {"paraphrases": sha256}
    if controls is not None:
        records, inputs["controls"] = controls
        controls = corpus_mod.corpus_from_records(records)

    jobs = []
    for name, backend in sorted(backends.items()):
        for lang in config.target_langs:
            for rec in paraphrases:
                jobs.append((backend, lang, "ori", rec["original"], rec))
                jobs.append((backend, lang, "para", rec["paraphrased"], rec))
            for sentence in controls or ():
                jobs.append((backend, lang, "control", sentence.text,
                             {"sentence_id": sentence.id, "candidate_ref": None,
                              "category": None}))

    for _, _, _, text, rec in jobs:  # refuse a bad source before any call
        mt_mod.check_source(text, rec["sentence_id"])

    def run(job):
        backend, lang, kind, text, rec = job
        return mt_mod.translate(backend, text, lang, sentence_id=rec["sentence_id"])

    screened = {}  # (source, hypothesis, language) -> ValidityStatus value

    def record(job, hypothesis=None):  # screened unless the call failed
        backend, lang, kind, text, rec = job
        triple = (text, hypothesis, lang)
        if hypothesis is not None and triple not in screened:
            screened[triple] = mt_mod.validate_translation(
                *triple, config.min_repeats, config.max_unit).value
        return {"sentence_id": rec["sentence_id"],
                "candidate_ref": rec["candidate_ref"],
                "category": rec["category"], "kind": kind, "source": text,
                "target_lang": lang, "system_id": backend.system_id,
                "hypothesis": hypothesis, "validity": screened.get(triple)}
    # one call per (system, language, source)
    records = _call_each(
        config, run, jobs, record, lambda job, exc: record(job), _KEPT_TRANSPORT,
        key=lambda job: (job[0].system_id, job[1], job[3]))
    validity = [r["validity"] for r in records]
    counts = {"total": len(jobs),
              **{v.value: validity.count(v.value) for v in mt_mod.ValidityStatus}}
    return _finish(config, "translate", out, records, inputs, counts,
                   _KEPT_TRANSPORT)


def _scored_record(record_type: str, rec: dict, **fields) -> dict:
    return {"type": record_type, "kind": rec["kind"],
            "sentence_id": rec["sentence_id"],
            "candidate_ref": rec["candidate_ref"],
            "category": rec["category"], "system_id": rec["system_id"],
            "target_lang": rec["target_lang"], **fields}


def stage_score(config: Config, out: Path, translations: list[dict], sha256: str):
    backend = config.backend("qe")
    orientation = backend.orientation
    metric = {"metric_id": backend.metric_id, "orientation": orientation.value}

    valid = []
    records = []
    for rec in translations:
        if rec["validity"] == mt_mod.ValidityStatus.OK.value and "error" not in rec:
            valid.append(rec)
            continue
        records.append(_scored_record(
            "invalid", rec, validity=rec["validity"] or "transport"))

    scores = _call_each(
        config, lambda rec: qe_mod.score(backend, rec["source"], rec["hypothesis"]),
        valid, lambda rec, value: _scored_record("qe", rec, **metric, value=value),
        lambda rec, exc: _scored_record("failed", rec),
        _KEPT_TRANSPORT, key=lambda rec: (rec["source"], rec["hypothesis"]))
    records += scores
    sides = {  # (ref, system, lang, kind) -> (translation record, its qe value)
        (rec["candidate_ref"], rec["system_id"], rec["target_lang"], rec["kind"]):
        (rec, out["value"]) for rec, out in zip(valid, scores)
        if out["type"] == "qe" and rec["kind"] in ("ori", "para")}

    # the delta experiment: ori and para are scored above, mix here
    expected = sorted({(r["candidate_ref"], r["system_id"], r["target_lang"])
                       for r in translations
                       if r["candidate_ref"] and r["kind"] in ("ori", "para")})
    pairs = [(sides[key + ("ori",)], sides[key + ("para",)]) for key in expected
             if key + ("ori",) in sides and key + ("para",) in sides]

    def delta(pair, qe_mix):
        (ori, qe_ori), (_, qe_para) = pair
        return {"type": "delta", "sentence_id": ori["sentence_id"],
                "candidate_ref": ori["candidate_ref"], "category": ori["category"],
                "system_id": ori["system_id"], "target_lang": ori["target_lang"],
                **metric, **qe_mod.deltas(orientation, qe_ori, qe_mix, qe_para)}

    def mix(pair):  # the paraphrase's translation against the original source
        (ori, _), (para, _) = pair
        return ori["source"], para["hypothesis"]

    # one call per distinct mix pair
    records += _call_each(
        config, lambda pair: qe_mod.score(backend, *mix(pair)), pairs, delta,
        lambda pair, exc: _scored_record("failed", {**pair[0][0], "kind": "mix"}),
        _KEPT_TRANSPORT, key=mix)
    types = [r["type"] for r in records]
    counts = {"qe_scores": types.count("qe"), "deltas": types.count("delta"),
              "invalid": types.count("invalid"),
              "delta_pairs_skipped": len(expected) - types.count("delta")}
    return _finish(config, "score", out, records, {"translations": sha256},
                   counts, _KEPT_TRANSPORT)


def _da_and_gold(config: Config) -> list:
    """The DA annotations and gold labels the config names, each (records,
    sha256) or None."""
    return [config.da_file and read_jsonl(config.da_file, "da"),
            config.gold_file and read_jsonl(config.gold_file, "gold")]


def stage_report(config: Config, out: Path, scored: list[dict], sha256: str,
                 classifications=None, da=None, gold=None):
    """(exit code, the tables); each optional input is (records, sha256) or
    None, and the classifier table needs `classifications` and `gold`."""
    inputs = {"scored": sha256}
    tables = report_mod.build_tables(scored, config.flag_pct,
                                     config.rank_exclude_pct)

    if da is not None:
        annotations, inputs["da_annotations"] = da
        tables["z_gap_table"] = report_mod.da_gap_table(
            annotations, config.da_vmwe_ids, config.da_control_ids)

    if gold is not None and classifications is not None:
        labels, inputs["gold"] = gold
        predicted, inputs["classifications"] = classifications
        tables["classifier_table"] = report_mod.classifier_table(labels, predicted)

    # every table rendered and encoded before the first file is replaced
    files = {f"{name}.{fmt}": report_mod.emit(
        rows, fmt, report_mod.TABLE_KINDS[name]).encode("utf-8")
        for name, rows in sorted(tables.items()) for fmt in ("csv", "json")}
    written = {name: write_file(out / name, data) for name, data in files.items()}
    # a table this run did not build is an earlier run's
    for name in report_mod.TABLE_KINDS.keys() - tables.keys():
        for fmt in ("csv", "json"):
            (out / f"{name}.{fmt}").unlink(missing_ok=True)
    write_manifest(out, "report", config, inputs,
                   {name: len(rows) for name, rows in tables.items()}, written)
    return 0, tables


def stage_run_all(config: Config, out_dir: Path):
    """Chain the stages in memory, each handed the records and sha256 the
    one before returned: (worst exit code, the report's tables)."""
    codes = []

    def run(stage, name, *handed):
        code, *outputs = stage(config, out_dir / name, *handed)
        codes.append(code)
        return outputs

    # A backend that cannot be built, or a report input that cannot be read,
    # fails the run before its first write.
    config.backend("llm")
    for name in config.role("mt"):
        config.backend("mt", name)
    config.backend("qe")
    da_and_gold = _da_and_gold(config)
    *candidates, controls = run(stage_extract, "candidates.jsonl",
                                out_dir / "controls.jsonl")
    classified = run(stage_classify, "classifications.jsonl", *candidates)
    paraphrases = run(stage_paraphrase, "paraphrases.jsonl", *classified)
    translations = run(stage_translate, "translations.jsonl", *paraphrases,
                       controls)
    scored = run(stage_score, "scored.jsonl", *translations)
    [tables] = run(stage_report, "report", *scored, classified, *da_and_gold)
    return max(codes), tables


# --- argument parsing ---------------------------------------------------------

# the flags every command reads, as they narrow the config manifests record
_SHARED = ("--config", "--stage-out", "--seed", "--category", "--target-lang")
# command -> (stage function, help text, the other flags it reads: each input,
# in stage order, with its records kind; --controls-out; --backend with its role)
_COMMANDS = {
    "extract": (stage_extract, "find VMWE candidates and sample a control set",
                {"--controls-out": None}),
    "classify": (stage_classify, "ask the LLM backend to confirm candidates",
                 {"--stage-in": "candidate", "--backend": "llm"}),
    "paraphrase": (stage_paraphrase, "rewrite confirmed candidates without the VMWE",
                   {"--stage-in": "classification", "--backend": "llm"}),
    "translate": (stage_translate, "translate originals, paraphrases and controls",
                  {"--stage-in": "paraphrase", "--controls-in": "sentence",
                   "--backend": "mt"}),
    "score": (stage_score, "run quality estimation and the delta experiment",
              {"--stage-in": "translation", "--backend": "qe"}),
    "report": (stage_report, "aggregate scores into tables",
               {"--stage-in": "scored", "--classifications-in": "classification"}),
    "run-all": (stage_run_all, "run every stage into one output directory",
                {"--backend": None}),  # the config keeps every role
}


def build_parser() -> argparse.ArgumentParser:
    epilog = ["every command reads " + ", ".join(_SHARED),
              "commands and the other flags each reads, with its records kind or role:"]
    for name, (_, help_text, reads) in _COMMANDS.items():
        epilog += [f"  {name:<12}{help_text}", " " * 14 + ", ".join(
            f"{flag} {value}" if value else flag for flag, value in reads.items())]
    parser = argparse.ArgumentParser(
        prog="vmweval", formatter_class=argparse.RawDescriptionHelpFormatter,
        description="VMWE extraction, paraphrasing and MT quality pipeline",
        epilog="\n".join(epilog))
    add = parser.add_argument
    add("command", choices=_COMMANDS, metavar="command",
        help="one of the commands below")
    add("--config", required=True, help="pipeline config (YAML)")
    add("--stage-in", type=Path, help="JSON Lines input from the previous stage")
    add("--stage-out", type=Path, required=True,
        help="output path (directory for report/run-all)")
    add("--seed", type=int, help="override the config seed")
    add("--backend", help="backend name from the config")
    add("--category", choices=["vid", "vpc", "lvc", "all"],
        help="restrict to one VMWE category")
    add("--target-lang", choices=list(mt_mod.TARGET_LANGS),
        help="restrict translation to one target language")
    add("--controls-in", type=Path, help="control sentences (JSON Lines)")
    add("--controls-out", type=Path, help="where extract writes controls")
    add("--classifications-in", type=Path,
        help="classification records for the classifier table")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    stage, _, reads = _COMMANDS[args.command]
    handler = logging.StreamHandler(sys.stderr)  # for this command's run
    handler.setFormatter(logging.Formatter("warning: %(message)s"))
    handler.setLevel(logging.WARNING)
    log.addHandler(handler)
    try:
        given = {"--" + dest.replace("_", "-"): value
                 for dest, value in vars(args).items()
                 if dest != "command" and value is not None}
        for flag in given:
            if flag not in {*_SHARED, *reads}:
                raise ContractViolation(f"{args.command} does not read {flag}")
        if "--stage-in" in reads and not args.stage_in:
            raise ContractViolation(f"{args.command} requires --stage-in")
        config = load_config(args.config)
        # the files each output and input flag names, with its manifest, then the
        # config and each file it names: an output may name no later entry's
        files = {flag: {path.resolve(), manifest_path(path.resolve())}
                 for flag in ("--controls-out", "--stage-out", *reads)
                 if flag.endswith(("-out", "-in")) and (path := given.get(flag))}
        named = {"--config": Path(args.config),
                 **{key: getattr(config, attr) for attr, key in FILE_KEYS.items()}}
        files.update((key, {path.resolve()}) for key, path in named.items() if path)
        for (out, written), (other, paths) in itertools.combinations(files.items(), 2):
            if out.endswith("-out") and written & paths:
                raise ContractViolation(f"{out} and {other}, or their manifests, "
                                        "name one file")
        if args.classifications_in and not config.gold_file:
            raise ContractViolation("--classifications-in needs classifier_eval.gold "
                                    "in the config")
        raw, fields = dict(config.raw), {}
        if args.seed is not None:
            raw["seed"] = fields["seed"] = args.seed
        if args.target_lang:
            raw["target_langs"] = [args.target_lang]
            fields["target_langs"] = (args.target_lang,)
        if args.category not in (None, "all"):
            raw["categories"] = [args.category.upper()]  # only the snapshot has it
            fields["categories"] = (extract_mod.Category(args.category.upper()),)
        if args.backend and (role := reads["--backend"]):
            raw["pipeline"] = {**raw.get("pipeline", {}),
                               role: [args.backend] if role == "mt" else args.backend}
            fields["pipeline"] = pipeline_roles(raw["pipeline"], config.backends)
        config = dataclasses.replace(config, raw=raw, **fields)
        # each input's (records, sha256) or None, --stage-in's spread
        inputs = []
        for flag, kind in reads.items():
            value = given.get(flag)
            if flag.endswith("-in"):
                value = value and read_jsonl(value, kind)
            if flag != "--backend":
                inputs += value if flag == "--stage-in" else [value]
        if args.command == "report":
            inputs += _da_and_gold(config)
        return stage(config, args.stage_out, *inputs)[0]
    except (ContractViolation, TransportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ContractViolation) else 2
    finally:
        log.removeHandler(handler)


if __name__ == "__main__":
    sys.exit(main())
