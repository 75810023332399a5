"""Seeded workload generator for the pipeline benchmark.

Every input is built from the repository's test fixtures plus a seed:

* the corpus is copies of ``tests/fixtures/corpus_25.conllu``; each copy of
  a sentence gets a new id and the extra tokens "in <Name>" before its final
  punctuation, so every sentence text is distinct;
* the LLM script keeps the fixture's classification rules and adds one
  paraphrase rule per (sentence, candidate), so paraphrases differ per
  sentence, and unparseable answers for the copies of one sentence that the
  workload names;
* gold labels and DA judgments follow the copied sentences;
* the config and, for the HTTP workload, the stub's backend spec.

The seed draws the sentence ids and the line order of the lexicon, gold and
DA files.  The sentence texts, their order and therefore every backend
payload stay the same for every seed, so the report tables, the request
count and the failure share are fixed per workload and size.
"""
from __future__ import annotations

import json
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
VERB_LEMMAS = ROOT / "src" / "vmweval" / "data" / "verb_lemmas.txt"

WORKLOADS = ("vid-2k", "screen-7lang", "http-latency")
SIZES = ("full", "tiny")

TARGET_LANGS = {"vid-2k": ["de"],
                "screen-7lang": ["cs", "de", "zh", "ru", "ja", "es", "tr"],
                "http-latency": ["de", "cs"]}

# Per workload and size:
#   sentences   fixture sentence ids in one copy (None = all 25)
#   copies      how many times that set is copied
#   lexicon     idiom entries (fixture idioms plus "verb the noun" ones)
#   controls    control_sample.n
#   undecided   (fixture id, n): every n-th copy of that sentence gets an
#               unparseable classification answer
SPECS = {
    "vid-2k": {
        "full": {"sentences": ["s01", "s12", "s15", "s21"], "copies": 1,
                 "lexicon": 2000, "controls": 1, "undecided": ("s12", 1)},
        "tiny": {"sentences": ["s01", "s12", "s15", "s21"], "copies": 1,
                 "lexicon": 100, "controls": 1, "undecided": ("s12", 1)},
    },
    "screen-7lang": {
        "full": {"sentences": None, "copies": 24, "lexicon": 5,
                 "controls": 30, "undecided": ("s06", 2)},
        "tiny": {"sentences": None, "copies": 1, "lexicon": 5,
                 "controls": 5, "undecided": ("s06", 1)},
    },
    "http-latency": {
        "full": {"sentences": None, "copies": 3, "lexicon": 5,
                 "controls": 5, "undecided": ("s06", 1)},
        "tiny": {"sentences": None, "copies": 1, "lexicon": 5,
                 "controls": 3, "undecided": ("s06", 1)},
    },
}

STUB_PLACEHOLDER = "http://stub.invalid"
UNDECIDED_RESPONSE = "The construction is ambiguous here and I cannot decide."
CLOSING_PUNCT = set(".,;:!?)]}")
_SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]


def read_conllu(path: Path) -> list[dict]:
    """Sentences as {"id", "tokens": [10-column lists]}, in file order."""
    sentences, tokens, sid = [], [], None
    for line in path.read_text("utf-8").splitlines() + [""]:
        if not line.strip():
            if tokens:
                sentences.append({"id": sid, "tokens": tokens})
            tokens, sid = [], None
        elif line.startswith("#"):
            key, _, value = line[1:].partition("=")
            if key.strip() == "sent_id":
                sid = value.strip()
        else:
            tokens.append(line.split("\t"))
    return sentences


def render(tokens: list[list[str]]) -> str:
    """Sentence text as the pipeline renders it from token surfaces."""
    parts: list[str] = []
    for cols in tokens:
        surface = cols[1]
        if parts and all(c in CLOSING_PUNCT for c in surface):
            parts[-1] += surface
        else:
            parts.append(surface)
    return " ".join(parts)


def name_for(index: int) -> str:
    """A distinct made-up place name per sentence index ("Bakex")."""
    n = len(_SYLLABLES)
    if index >= n * n:
        raise ValueError(f"no name for sentence index {index}")
    return (_SYLLABLES[index // n] + _SYLLABLES[index % n] + "x").capitalize()


def add_place(tokens: list[list[str]], name: str) -> list[list[str]]:
    """Insert "in <name>" before the final punctuation, attached to the root."""
    pos = len(tokens) - 1 if tokens[-1][3] == "PUNCT" else len(tokens)
    root = next(int(c[0]) for c in tokens if c[6] == "0")

    def shift(i: int) -> int:
        return i + 2 if i > pos else i

    out = []
    for cols in tokens[:pos]:
        cols = list(cols)
        cols[6] = str(shift(int(cols[6])))
        out.append(cols)
    out.append([str(pos + 1), "in", "in", "ADP", "_", "_", str(pos + 2), "case",
                "_", "_"])
    out.append([str(pos + 2), name, name.lower(), "PROPN", "_", "_",
                str(shift(root)), "obl", "_", "_"])
    for cols in tokens[pos:]:
        cols = list(cols)
        cols[0] = str(int(cols[0]) + 2)
        cols[6] = str(shift(int(cols[6])))
        out.append(cols)
    return out


def _read_jsonl(path: Path) -> list[dict]:
    return [json.loads(l) for l in path.read_text("utf-8").splitlines() if l.strip()]


def _write_jsonl(path: Path, records: list[dict]):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), "utf-8")


def _lexicon_lines(size: int) -> list[str]:
    """The fixture idioms plus "verb the noun" entries up to `size`."""
    lines = (FIXTURES / "idioms.txt").read_text("utf-8").splitlines()
    verbs = [l.strip() for l in VERB_LEMMAS.read_text("utf-8").splitlines()
             if l.strip() and not l.startswith("#")]
    fixture = {tuple(l.lower().split()) for l in lines if l.strip()}
    # The entry pool is fixed; the seed only reorders the file.
    pool = random.Random("vid-lexicon")
    extra: set[str] = set()
    target = size - 5  # the fixture holds five verbal idioms
    while len(extra) < target:
        entry = f"{pool.choice(verbs)} the {pool.choice(verbs)}"
        if tuple(entry.split()) not in fixture:
            extra.add(entry)
    return lines + sorted(extra)


def _paraphrase_responses(script: dict) -> dict[str, str]:
    """Fixture paraphrase text keyed by candidate phrase."""
    out = {}
    for rule in script["rules"]:
        if rule["match"].startswith("|| Phrase: "):
            text = rule["response"].split("Rephrased Sentence:", 1)[1].strip()
            out[rule["match"][len("|| Phrase: "):]] = text
    return out


def _with_place(paraphrase: str, name: str) -> str:
    if paraphrase and paraphrase[-1] in CLOSING_PUNCT:
        return f"{paraphrase[:-1]} in {name}{paraphrase[-1]}"
    return f"{paraphrase} in {name}"


def generate(workload: str, seed: int, out: Path, size: str = "full") -> dict:
    """Write one workload into `out` and return its input sizes.

    The HTTP workload's config points at STUB_PLACEHOLDER until
    `point_at_stub` names the running stub.
    """
    spec = SPECS[workload][size]
    rng = random.Random(seed)
    out.mkdir(parents=True, exist_ok=True)

    fixture = read_conllu(FIXTURES / "corpus_25.conllu")
    by_fixture_id = {s["id"]: s for s in fixture}
    wanted = spec["sentences"] or [s["id"] for s in fixture]
    script = json.loads((FIXTURES / "mock_llm_script.json").read_text("utf-8"))
    paraphrases = _paraphrase_responses(script)
    # the fixture's gold labels name every candidate it holds
    candidates: dict[str, list[tuple[str, list[int], bool]]] = {}
    for row in _read_jsonl(FIXTURES / "gold_labels.jsonl"):
        sid, category, span = row["candidate_ref"].split("#")
        candidates.setdefault(sid, []).append(
            (category, [int(i) for i in span.split(".")], row["label"]))

    ids: set[str] = set()

    def new_id() -> str:
        while True:
            sid = f"x{rng.getrandbits(40):010x}"
            if sid not in ids:
                ids.add(sid)
                return sid

    # copy 0 of every fixture sentence gets an id, so DA judgments can
    # refer to it even when the workload uses a subset
    first_copy = {s["id"]: new_id() for s in fixture}
    undecided_id, undecided_every = spec["undecided"]
    blocks, gold, undecided_rules, para_rules = [], [], [], []
    index = 0
    for copy in range(spec["copies"]):
        for fid in wanted:
            sid = first_copy[fid] if copy == 0 else new_id()
            tokens = add_place(by_fixture_id[fid]["tokens"], name_for(index))
            text = render(tokens)
            blocks.append(f"# sent_id = {sid}\n"
                          + "".join("\t".join(c) + "\n" for c in tokens))
            undecided = fid == undecided_id and copy % undecided_every == 0
            if undecided and fid in candidates:
                # classification prompts carry the sentence then a newline
                undecided_rules.append({"match": text + "\n",
                                        "response": UNDECIDED_RESPONSE})
            for category, span, label in candidates.get(fid, []):
                ref = f"{sid}#{category}#{'.'.join(map(str, span))}"
                gold.append({"candidate_ref": ref, "label": label})
                phrase = " ".join(tokens[i - 1][1] for i in span)
                if phrase in paraphrases and not undecided:
                    para_rules.append({
                        "match": f"Sentence: {text} || Phrase: {phrase}",
                        "response": "Rephrased Sentence: " + _with_place(
                            paraphrases[phrase], name_for(index))})
            index += 1
    (out / "corpus.conllu").write_text("\n".join(blocks) + "\n", "utf-8")

    classify_rules = [r for r in script["rules"]
                      if not r["match"].startswith("|| Phrase: ")]
    llm_script = {"rules": undecided_rules + classify_rules + para_rules}
    (out / "llm_script.json").write_text(json.dumps(llm_script, indent=1), "utf-8")

    lexicon = _lexicon_lines(spec["lexicon"])
    rng.shuffle(lexicon)
    (out / "idioms.txt").write_text("\n".join(lexicon) + "\n", "utf-8")

    rng.shuffle(gold)
    _write_jsonl(out / "gold_labels.jsonl", gold)
    da = _read_jsonl(FIXTURES / "da_annotations.jsonl")
    for row in da:
        row["sentence_id"] = first_copy[row["sentence_id"]]
    rng.shuffle(da)
    _write_jsonl(out / "da_annotations.jsonl", da)

    backends, stub = _backends(workload)
    if stub is not None:
        (out / "stub.json").write_text(json.dumps(stub, indent=1), "utf-8")
    config = {
        "seed": 42,
        # The mocks answer in-process without waiting, so a second worker
        # would only contend for the interpreter lock; over HTTP two
        # requests (nproc) overlap their waiting.
        "concurrency": 2 if workload == "http-latency" else 1,
        "corpus": {"path": "corpus.conllu", "format": "conllu"},
        "lexicon": {"idioms": "idioms.txt"},
        "light_verbs": "dataset_six",
        "vid_threshold": 0.6,
        "control_sample": {"n": spec["controls"]},
        "target_langs": TARGET_LANGS[workload],
        "repetition": {"min_repeats": 8, "max_unit": 6},
        "exclusion": {"flag_pct": 10.0, "rank_exclude_pct": 50.0},
        "pipeline": {"llm": "llm", "qe": "qe",
                     "mt": [n for n, e in backends.items() if e["kind"] == "mt"]},
        "backends": backends,
        "da": {"annotations": "da_annotations.jsonl",
               "vmwe_ids": [first_copy[f] for f in ("s01", "s03", "s04", "s05", "s24")],
               "control_ids": [first_copy[f] for f in ("s15", "s16", "s17", "s18", "s19")]},
        "classifier_eval": {"gold": "gold_labels.jsonl"},
    }
    # JSON is valid YAML, so the pipeline reads this file as it is
    (out / "config.yaml").write_text(json.dumps(config, indent=1) + "\n", "utf-8")
    return {"sentences": len(blocks), "idiom_lines": len(lexicon),
            "llm_rules": len(llm_script["rules"]), "gold_labels": len(gold),
            "target_langs": len(config["target_langs"]),
            "mt_systems": len(config["pipeline"]["mt"]),
            "controls": spec["controls"]}


def _backends(workload: str) -> tuple[dict, dict | None]:
    """Backend config, plus the stub's spec of the same mocks over HTTP."""
    beta_rules = {
        "screen-7lang": [{"target_lang": "cs", "failure": "untranslated"},
                         {"target_lang": "de", "failure": "repetitive"},
                         {"target_lang": "es", "failure": "wrong_language"},
                         {"target_lang": "tr", "failure": "empty"}],
        "http-latency": [{"target_lang": "cs", "failure": "untranslated"}],
    }.get(workload, [])
    mocks = {
        "llm": {"kind": "llm", "mode": "mock", "script": "llm_script.json",
                "model_id": "scripted-chat"},
        "alpha": {"kind": "mt", "mode": "mock", "system_id": "alpha"},
        "beta": {"kind": "mt", "mode": "mock", "system_id": "beta",
                 "break_rules": beta_rules},
        "qe": {"kind": "qe", "mode": "mock", "metric_id": "overlap_qe",
               "orientation": "lower_better_0_25"},
    }
    if workload == "vid-2k":
        del mocks["beta"]
    if workload != "http-latency":
        return mocks, None
    paths = {"llm": "/llm", "alpha": "/mt/alpha", "beta": "/mt/beta", "qe": "/qe"}
    http = {}
    for name, entry in mocks.items():
        entry = {k: v for k, v in entry.items()
                 if k not in ("mode", "script", "break_rules")}
        entry.update(mode="http", base_url=STUB_PLACEHOLDER + paths[name],
                     timeout=30.0)
        http[name] = entry
    return http, {"paths": paths, "backends": mocks}


def point_at_stub(out: Path, stub_url: str):
    """Point the HTTP backends in `out`/config.yaml at the running stub."""
    path = out / "config.yaml"
    config = json.loads(path.read_text("utf-8"))
    for entry in config["backends"].values():
        if "base_url" in entry:
            entry["base_url"] = entry["base_url"].replace(STUB_PLACEHOLDER, stub_url)
    path.write_text(json.dumps(config, indent=1) + "\n", "utf-8")

