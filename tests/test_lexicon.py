import pytest

from vmweval.errors import ContractViolation, ParseError
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
