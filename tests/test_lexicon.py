import random
from collections import Counter

import pytest

from vmweval.errors import ContractViolation, ParseError
from vmweval.extract import match_idioms
from vmweval.lexicon import (IdiomEntry, IdiomLexicon, LightVerbVariant,
                             default_verb_lemmas, light_verb_set,
                             load_idiom_lexicon, normalize_idiom)


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
    canonicals = {e.canonical for e in lex.entries}
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
    assert [e.canonical[0] for e in lex.ordered()] == ["hit", "kick"]


def test_empty_canonical_rejected():
    with pytest.raises(ContractViolation):
        IdiomEntry(canonical=(), surface_form="", contains_verb=True)


def test_duplicate_canonical_rejected():
    a = IdiomEntry(canonical=("x", "y"), surface_form="x y", contains_verb=True)
    b = IdiomEntry(canonical=("x", "y"), surface_form="X Y", contains_verb=True)
    with pytest.raises(ContractViolation):
        IdiomLexicon(entries=frozenset({a, b}))


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
            entries.setdefault(canonical, IdiomEntry(canonical, surface, True))
    return frozenset(entries.values())


class _CounterLexicon(IdiomLexicon):
    """The lexicon with its former index: (position, Counter count) pairs
    per lemma, summed into a dense count list."""

    def ordered(self):
        return tuple(sorted(self.entries, key=lambda e: e.canonical))

    def present_positions(self, lemmas):
        index = {}
        for pos, entry in enumerate(self.ordered()):
            for lemma, count in Counter(entry.canonical).items():
                index.setdefault(lemma, []).append((pos, count))
        counts = [0] * len(self.entries)
        for lemma in set(lemmas):
            for pos, count in index.get(lemma, ()):
                counts[pos] += count
        return counts


def _generated_idioms(corpus25, size=2000):
    """ "verb the noun" lines drawn from the verb list and the corpus lemmas,
    with duplicates, flagged verbless lines, 's clitics, a repeated lemma
    and blank lines among them."""
    rng = random.Random(7)
    verbs = sorted(default_verb_lemmas())
    nouns = sorted({lemma for s in corpus25 for lemma in s.lemmas()})
    lines = ["an eye for an eye\tv", "give an eye for an eye", "at arm's length",
             "at arm's length\tv", "the cat's pyjamas\tverb", "", "  "]
    while len(lines) < size:
        verb, noun, other = rng.choice(verbs), rng.choice(nouns), rng.choice(nouns)
        lines.append(rng.choice([
            f"{verb} the {noun}", f"{verb} the {noun}", f"{verb.upper()} The {noun}",
            f"{verb} the {noun}'s {other}", f"{noun} of {other}\tv",
            f"{noun} of {other}", f"{verb} {noun} {verb} {noun}", ""]))
    return lines


@pytest.mark.parametrize("source", ["fixture", "generated"])
def test_lexicon_index_equals_the_counter_oracle(fixtures_dir, corpus25, source):
    if source == "fixture":
        lines = (fixtures_dir / "idioms.txt").read_text("utf-8").splitlines()
    else:
        lines = _generated_idioms(corpus25)
    verbs = default_verb_lemmas()
    lex = load_idiom_lexicon(lines, verbs)
    oracle = _CounterLexicon(entries=_entries_oracle(lines, verbs))
    assert lex.entries == oracle.entries
    assert lex.ordered() == oracle.ordered()
    for sentence in corpus25:
        assert lex.present_positions(sentence.lemmas()) == \
            oracle.present_positions(sentence.lemmas()), sentence.id
    if source == "generated":
        assert len(lex) > 1000
        assert ("an", "eye", "for", "an", "eye") in {e.canonical for e in lex.entries}
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
