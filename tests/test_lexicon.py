import math
import random
from collections import Counter

import pytest

from vmweval import extract as extract_mod
from vmweval.errors import ContractViolation, ParseError
from vmweval.extract import (Category, VidEvidence, VMWECandidate, _min_present,
                             candidate_to_dict, match_idioms)
from vmweval.lexicon import (IdiomEntry, IdiomLexicon, LightVerbVariant,
                             default_verb_lemmas, light_verb_set,
                             load_idiom_lexicon, normalize_idiom)
from vmweval.stats import BleuReference, bleu4


def test_normalize_idiom_basic():
    assert normalize_idiom("Spill the Beans") == ("spill", "the", "beans")


def test_normalize_idiom_possessive_clitic():
    assert normalize_idiom("take the lion's share") == (
        "take", "the", "lion", "'s", "share")
    # the clitic split is mechanical: any >2-char word ending in 's
    assert normalize_idiom("it's") == ("it", "'s")
    assert normalize_idiom("'s") == ("'s",)


def test_load_lexicon_from_fixture(fixtures_dir):
    verbs = default_verb_lemmas()
    with open(fixtures_dir / "idioms.txt", encoding="utf-8") as fh:
        lex = load_idiom_lexicon(fh, verbs)
    # "at arm's length" holds no verb and is dropped; the duplicate
    # "spill the beans" collapses.
    assert len(lex) == 5
    canonicals = set(lex.surface_forms)
    assert ("at", "arm", "'s", "length") not in canonicals
    assert ("spill", "the", "beans") in canonicals


def test_verb_flag_forces_retention():
    lex = load_idiom_lexicon(["at arm's length\tv"], ["take"])
    assert len(lex) == 1
    lex = load_idiom_lexicon(["at arm's length"], ["take"])
    assert len(lex) == 0


def test_flag_only_line_rejected():
    with pytest.raises(ParseError, match="line 2"):
        load_idiom_lexicon(["spill the beans", "\tv"], ["spill"])


def test_blank_lines_skipped():
    lex = load_idiom_lexicon(["", "spill the beans", "  "], ["spill"])
    assert len(lex) == 1


def test_ordered_is_stable():
    lex = load_idiom_lexicon(["kick the bucket", "hit the road"],
                             ["kick", "hit"])
    assert [canonical[0] for canonical in lex.canonicals] == ["hit", "kick"]


def test_empty_canonical_rejected():
    with pytest.raises(ContractViolation):
        IdiomEntry(canonical=(), surface_form="")


@pytest.mark.parametrize("canonical", [(), ("x", ""), ("", "y")])
def test_lexicon_rejects_an_empty_canonical_form(canonical):
    with pytest.raises(ContractViolation, match="empty canonical form"):
        IdiomLexicon({("a", "b"): "a b", canonical: "x"})


def test_light_verb_sets():
    six = light_verb_set("dataset_six")
    assert six.verbs == frozenset({"do", "get", "give", "have", "make", "take"})
    ten = light_verb_set(LightVerbVariant.WMT_TEN)
    assert six.verbs < ten.verbs
    assert {"put", "pay", "offer", "raise"} <= ten.verbs


def test_light_verb_unknown_variant():
    with pytest.raises(ContractViolation):
        light_verb_set("dataset_seven")


def test_default_verb_lemmas_shipped():
    verbs = default_verb_lemmas()
    assert {"spill", "kick", "take", "hit", "let", "give"} <= verbs
    # nouns from the non-verbal test idiom must stay out
    assert "arm" not in verbs and "length" not in verbs


# --- the lexicon index against the Counter-based one it replaced ---------------

def _normalize_oracle(text):
    parts = []
    for chunk in text.lower().split():
        if len(chunk) > 2 and chunk.endswith("'s"):
            parts += [chunk[:-2], "'s"]
        else:
            parts.append(chunk)
    return tuple(parts)


def _entries_oracle(lines, verbs):
    """load_idiom_lexicon's entries as it built them: every line normalized
    and tested for a verb, the first kept line per canonical form winning."""
    verbs = {v.strip().lower() for v in verbs if v.strip()}
    entries = {}
    for raw in lines:
        surface, _, flag = raw.rstrip("\n").partition("\t")
        surface = surface.strip()
        if not surface:
            continue
        canonical = _normalize_oracle(surface)
        if flag.strip().lower() in {"v", "verb"} or any(p in verbs for p in canonical):
            entries.setdefault(canonical, IdiomEntry(canonical, surface))
    return frozenset(entries.values())


class _CounterLexicon(IdiomLexicon):
    """The lexicon with its former index: (position, Counter count) pairs
    per lemma, summed into a dense count list."""

    def ordered(self):
        return tuple(sorted(self.surface_forms))

    def present_positions(self, lemmas):
        index = {}
        for pos, canonical in enumerate(self.ordered()):
            for lemma, count in Counter(canonical).items():
                index.setdefault(lemma, []).append((pos, count))
        counts = [0] * len(self.surface_forms)
        for lemma in set(lemmas):
            for pos, count in index.get(lemma, ()):
                counts[pos] += count
        return counts


def _generated_idioms(corpus25, size=2000):
    """ "verb the noun" lines drawn from the verb list and the corpus lemmas,
    with duplicates, flagged verbless lines, 's clitics, a repeated lemma
    and blank lines among them; and flagged runs of 2 to 6 lemmas cut from
    a corpus sentence, as they are or with one lemma replaced, so that
    idioms of every length match some sentence."""
    rng = random.Random(7)
    verbs = sorted(default_verb_lemmas())
    nouns = sorted({lemma for s in corpus25 for lemma in s.lemmas()})
    sentences = [s.lemmas() for s in corpus25]
    lines = ["an eye for an eye\tv", "give an eye for an eye", "at arm's length",
             "at arm's length\tv", "the cat's pyjamas\tverb", "", "  "]
    while len(lines) < size:
        verb, noun, other = rng.choice(verbs), rng.choice(nouns), rng.choice(nouns)
        lemmas = rng.choice(sentences)
        length = rng.randint(2, min(6, len(lemmas)))
        start = rng.randrange(len(lemmas) - length + 1)
        run = lemmas[start:start + length]
        changed = list(run)
        changed[rng.randrange(length)] = noun
        lines.append(rng.choice([
            f"{verb} the {noun}", f"{verb} the {noun}", f"{verb.upper()} The {noun}",
            f"{verb} the {noun}'s {other}", f"{noun} of {other}\tv",
            f"{noun} of {other}", f"{verb} {noun} {verb} {noun}", "",
            " ".join(run) + "\tv", " ".join(changed) + "\tv"]))
    return lines


@pytest.mark.parametrize("source", ["fixture", "generated"])
def test_lexicon_index_equals_the_counter_oracle(fixtures_dir, corpus25, source):
    if source == "fixture":
        lines = (fixtures_dir / "idioms.txt").read_text("utf-8").splitlines()
    else:
        lines = _generated_idioms(corpus25)
    verbs = default_verb_lemmas()
    lex = load_idiom_lexicon(lines, verbs)
    oracle = _CounterLexicon({entry.canonical: entry.surface_form
                              for entry in _entries_oracle(lines, verbs)})
    assert lex.surface_forms == oracle.surface_forms
    assert lex.canonicals == oracle.ordered()
    for sentence in corpus25:
        assert lex.present_positions(sentence.lemmas()) == \
            oracle.present_positions(sentence.lemmas()), sentence.id
    if source == "generated":
        assert len(lex) > 1000
        assert ("an", "eye", "for", "an", "eye") in lex.surface_forms
        surfaces = {}
        for line in lines:
            surfaces.setdefault(_normalize_oracle(line.partition("\t")[0]),
                                set()).add(line)
        assert any(len(s) > 1 for s in surfaces.values())  # first line wins
    # At a threshold of 0 or below nothing is pruned and every idiom is
    # scored in every window, so the generated list is matched at those
    # on the shortest sentence only.
    shortest = min(corpus25, key=lambda s: len(s.lemmas()))
    for threshold in (0.6, 0, -1):
        sentences = corpus25 if source == "fixture" or threshold > 0 else [shortest]
        for sentence in sentences:
            assert match_idioms(sentence, lex, threshold) == \
                match_idioms(sentence, oracle, threshold), (sentence.id, threshold)


# --- the matcher against the one it replaced ------------------------------------

class _EntryLexicon:
    """The lexicon as it was: a frozenset of entries, their sorted order and
    a dense count per entry."""

    def __init__(self, entries):
        self.entries = entries
        self._order = tuple(sorted(entries, key=lambda e: e.canonical))
        self._index = {}
        for pos, entry in enumerate(self._order):
            for lemma in entry.canonical:
                self._index.setdefault(lemma, []).append(pos)

    def ordered(self):
        return self._order

    def present_positions(self, lemmas):
        counts = [0] * len(self._order)
        for lemma in set(lemmas):
            for pos in self._index.get(lemma, ()):
                counts[pos] += 1
        return counts


def _match_idioms_oracle(sentence, lexicon, threshold):
    """match_idioms as it was, every idiom of lexicon.ordered() in turn and
    each with its own bound: (candidates, number of bleu4 calls)."""
    lemmas = sentence.lemmas()
    candidates = []
    calls = 0
    for idiom, present in zip(lexicon.ordered(),
                              lexicon.present_positions(lemmas)):
        size = len(idiom.canonical)
        if present < _min_present(size, threshold):
            continue
        best = None
        for length in range(size, min(size + 2, len(lemmas)) + 1):
            for start in range(0, len(lemmas) - length + 1):
                score = bleu4(lemmas[start:start + length], list(idiom.canonical))
                calls += 1
                if best is None or score > best[0]:
                    best = (score, start, length)
        if best is None or best[0] < threshold:
            continue
        score, start, length = best
        candidates.append(VMWECandidate(
            sentence_id=sentence.id,
            category=Category.VID,
            span=tuple(range(start + 1, start + length + 1)),
            evidence=VidEvidence(idiom=idiom, match_score=score),
        ))
    candidates.sort(key=lambda c: (c.span[0], len(c.span), c.evidence.idiom.canonical))
    return candidates, calls


@pytest.mark.parametrize("source", ["fixture", "generated"])
def test_match_idioms_equals_the_entry_lexicon_oracle(monkeypatch, fixtures_dir,
                                                      corpus25, source):
    """Equal candidates from an equal number of bleu4 calls: the same idioms
    are scored, none pruned that the per-idiom bound kept."""
    calls = []

    def counted_bleu4(hypothesis, reference):
        calls.append(None)
        return bleu4(hypothesis, reference)
    monkeypatch.setattr(extract_mod, "bleu4", counted_bleu4)

    if source == "fixture":
        lines = (fixtures_dir / "idioms.txt").read_text("utf-8").splitlines()
    else:
        lines = _generated_idioms(corpus25)
    verbs = default_verb_lemmas()
    lex = load_idiom_lexicon(lines, verbs)
    oracle = _EntryLexicon(_entries_oracle(lines, verbs))
    if source == "generated":
        assert set(lex.by_length) == {2, 3, 4, 5, 6}
    # Below 0.6, and at NaN, nothing is pruned and every idiom is scored in
    # every window, so the generated list is matched there on the shortest
    # sentence only.
    shortest = min(corpus25, key=lambda s: len(s.lemmas()))
    found = 0
    for threshold in (0.6, 0, -1, float("nan")):
        sentences = corpus25 if source == "fixture" or threshold == 0.6 else [shortest]
        for sentence in sentences:
            calls.clear()
            got = [candidate_to_dict(c) for c in match_idioms(sentence, lex, threshold)]
            expected, expected_calls = _match_idioms_oracle(sentence, oracle, threshold)
            assert got == [candidate_to_dict(c) for c in expected], \
                (sentence.id, threshold)
            assert len(calls) == expected_calls, (sentence.id, threshold)
            found += len(got)
    assert found > len(lex)  # every idiom at a threshold of 0, and more


# --- BLEU-4 against a prebuilt reference, and the per-call counting it replaced --

def _bleu4_oracle(hypothesis, reference):
    """stats.bleu4 as it was: both sides' n-grams counted on every call."""
    hyp, ref = list(hypothesis), list(reference)
    if not hyp or not ref:
        raise ContractViolation("bleu4 requires non-empty token sequences")
    max_order = min(4, len(hyp))
    log_sum = 0.0
    for n in range(1, max_order + 1):
        hyp_counts = Counter(tuple(hyp[i:i + n]) for i in range(len(hyp) - n + 1))
        ref_counts = Counter(tuple(ref[i:i + n]) for i in range(len(ref) - n + 1))
        total = sum(hyp_counts.values())
        clipped = sum(min(count, ref_counts[gram])
                      for gram, count in hyp_counts.items())
        if clipped == 0:
            if n == 1:
                return 0.0
            precision = 1.0 / (2.0 * total)
        else:
            precision = clipped / total
        log_sum += math.log(precision)
    score = math.exp(log_sum / max_order)
    if len(hyp) < len(ref):
        score *= math.exp(1.0 - len(ref) / len(hyp))
    return score


@pytest.mark.parametrize("source", ["fixture", "generated"])
def test_bleu4_against_a_reference_equals_its_oracle(monkeypatch, fixtures_dir,
                                                     corpus25, source):
    """Every (window, idiom) pair the matcher scores gets the oracle's float,
    bit for bit, whether bleu4 is handed the idiom's BleuReference or its
    tokens; and the candidates equal those the oracle picks."""
    if source == "fixture":
        lines = (fixtures_dir / "idioms.txt").read_text("utf-8").splitlines()
    else:
        lines = _generated_idioms(corpus25)
    lex = load_idiom_lexicon(lines, default_verb_lemmas())
    shortest = min(corpus25, key=lambda s: len(s.lemmas()))
    # at 0 nothing is pruned, so the generated list is matched there on the
    # shortest sentence only
    runs = [(sentence, threshold) for threshold in (0.6, 0)
            for sentence in (corpus25 if source == "fixture" or threshold
                             else [shortest])]
    scored = []

    def recorded(hypothesis, reference):
        score = bleu4(hypothesis, reference)
        scored.append((list(hypothesis), reference, score))
        return score
    monkeypatch.setattr(extract_mod, "bleu4", recorded)
    got = [[candidate_to_dict(c) for c in match_idioms(sentence, lex, threshold)]
           for sentence, threshold in runs]
    tokens = {id(lex.references[pos]): canonical
              for pos, canonical in enumerate(lex.canonicals) if pos in lex.references}
    assert len(scored) > (5000 if source == "generated" else 1000)
    for hypothesis, reference, score in scored:
        assert isinstance(reference, BleuReference)
        canonical = tokens[id(reference)]
        expected = _bleu4_oracle(hypothesis, canonical)
        assert score.hex() == expected.hex(), (hypothesis, canonical)
        assert bleu4(hypothesis, canonical).hex() == expected.hex()

    monkeypatch.setattr(extract_mod, "bleu4", lambda hypothesis, reference:
                        _bleu4_oracle(hypothesis, tokens[id(reference)]))
    assert got == [[candidate_to_dict(c) for c in match_idioms(sentence, lex, threshold)]
                   for sentence, threshold in runs]
    assert any(got)
