import itertools
import random

import pytest

from vmweval.corpus import load_plain
from vmweval.errors import ContractViolation
from vmweval.extract import (Category, VidEvidence, VMWECandidate,
                             VpcEvidence, _bleu4_bound,
                             candidate_from_dict, candidate_to_dict,
                             extract_all, extract_lvc, extract_vpc,
                             is_non_vmwe, match_idioms,
                             sample_sentences)
from vmweval.lexicon import (IdiomEntry, IdiomLexicon, default_verb_lemmas,
                             light_verb_set, load_idiom_lexicon)
from vmweval.stats import bleu4

CLEAN_IDS = {"s02", "s08", "s15", "s16", "s17", "s18", "s19", "s20", "s21", "s25"}


@pytest.fixture(scope="module")
def lexicon(fixtures_dir):
    with open(fixtures_dir / "idioms.txt", encoding="utf-8") as fh:
        return load_idiom_lexicon(fh, default_verb_lemmas())


@pytest.fixture(scope="module")
def light_verbs():
    return light_verb_set("dataset_six")


def _all_candidates(corpus, lexicon, light_verbs):
    out = []
    for sentence in corpus:
        out.extend(extract_all(sentence, lexicon, light_verbs))
    return out


def test_vid_planted_set(corpus25, lexicon):
    hits = {}
    for sentence in corpus25:
        for cand in match_idioms(sentence, lexicon):
            hits[cand.ref] = cand
    assert set(hits) == {
        "s01#VID#2.3.4", "s03#VID#2.3.4.5.6.7.8", "s04#VID#2.3.4.5.6",
        "s05#VID#4.5.6", "s24#VID#5.6.7"}
    for cand in hits.values():
        assert cand.evidence.match_score == pytest.approx(1.0, abs=1e-12)


def test_vid_near_misses_rejected(corpus25, lexicon):
    """The engineered near-misses sit below 0.6 (frozen oracle scores)."""
    assert match_idioms(corpus25.by_id("s02"), lexicon) == []
    assert match_idioms(corpus25.by_id("s25"), lexicon) == []
    # best windows, verified against the brute-force BLEU oracle
    s02_hits = match_idioms(corpus25.by_id("s02"), lexicon,
                            threshold=0.55)
    assert [c.evidence.idiom.canonical[0] for c in s02_hits] == ["spill"]
    assert s02_hits[0].evidence.match_score == pytest.approx(
        0.5503212081491045, abs=1e-12)
    s25_hits = match_idioms(corpus25.by_id("s25"), lexicon, threshold=0.3)
    kick = [c for c in s25_hits
            if c.evidence.idiom.canonical == ("kick", "the", "bucket")]
    assert kick[0].evidence.match_score == pytest.approx(
        0.3466806371753174, abs=1e-12)


def test_vid_tie_break_prefers_shorter_window(lexicon):
    # lemma sequence where a 3-window and a 4-window score equally is rare;
    # instead check the documented ordering contract directly: strict
    # improvement is required to replace the current best.
    corpus = load_plain(["spill the beans spill the beans"])
    hits = match_idioms(corpus.sentences[0], lexicon)
    assert len(hits) == 1
    assert hits[0].span == (1, 2, 3)


def test_vpc_planted_set(corpus25):
    refs = []
    for sentence in corpus25:
        refs.extend(c.ref for c in extract_vpc(sentence))
    assert refs == ["s06#VPC#2.3", "s07#VPC#2.3", "s09#VPC#2.3",
                    "s22#VPC#2.3", "s23#VPC#2.3"]


def test_vpc_requires_verb_governor_and_prt_arc(corpus25):
    # s08 "climbed up the hill": up is a case marker, not a particle
    assert extract_vpc(corpus25.by_id("s08")) == []


def test_lvc_planted_set(corpus25, light_verbs):
    refs = []
    for sentence in corpus25:
        refs.extend(c.ref for c in extract_lvc(sentence, light_verbs))
    assert refs == ["s04#LVC#2.6", "s10#LVC#2.4", "s11#LVC#3.5",
                    "s12#LVC#3.5", "s13#LVC#2.4", "s14#LVC#2.4"]


def test_lvc_respects_light_verb_inventory(corpus25):
    # "put up a shelf" becomes an LVC candidate only under the wider set
    ten = light_verb_set("wmt_ten")
    refs = [c.ref for c in extract_lvc(corpus25.by_id("s22"), ten)]
    assert refs == ["s22#LVC#2.5"]


def test_dependency_requirement():
    corpus = load_plain(["He gave up smoking"])
    sentence = corpus.sentences[0]
    with pytest.raises(ContractViolation):
        extract_vpc(sentence)
    with pytest.raises(ContractViolation):
        extract_lvc(sentence, light_verb_set("dataset_six"))


def test_match_idioms_works_without_parse(lexicon):
    corpus = load_plain(["He spill the beans"])
    hits = match_idioms(corpus.sentences[0], lexicon)
    assert [c.span for c in hits] == [(2, 3, 4)]


def brute_force_match_idioms(sentence, lexicon, threshold):
    """The matcher before pruning: every idiom, every window, scored."""
    lemmas = sentence.lemmas()
    candidates = []
    for canonical, surface in lexicon.surface_forms.items():
        idiom = IdiomEntry(canonical=canonical, surface_form=surface)
        size = len(idiom.canonical)
        best = None
        for length in range(size, min(size + 2, len(lemmas)) + 1):
            for start in range(0, len(lemmas) - length + 1):
                score = bleu4(lemmas[start:start + length], list(idiom.canonical))
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
    return candidates


def _lexicon_of(*idioms):
    return IdiomLexicon({tuple(words): " ".join(words) for words in idioms})


def test_bleu4_bound_is_an_upper_bound():
    # Every idiom of up to 3 lemmas and every window it is matched against,
    # over a 3-lemma alphabet.  Bounding by unigram overlap alone fails
    # here: idiom "a b a", window "b a b" shares 2 unigrams and 2 bigrams.
    assert _bleu4_bound(3, 3, 2) < bleu4(["b", "a", "b"], ["a", "b", "a"]) \
        <= _bleu4_bound(3, 3, 3)
    for size in (1, 2, 3):
        for idiom in itertools.product("abc", repeat=size):
            for length in range(size, size + 3):
                for window in itertools.product("abc", repeat=length):
                    present = sum(1 for lemma in idiom if lemma in window)
                    assert bleu4(window, idiom) <= _bleu4_bound(
                        length, size, present), (idiom, window)


def test_pruned_matching_equals_brute_force():
    rng = random.Random(3)
    vocab = ["a", "b", "c", "d", "e", "f"]
    bounds = sorted({_bleu4_bound(length, size, present)
                     for size in range(1, 6) for present in range(size + 1)
                     for length in range(size, size + 3)})
    cases = [(["b", "a", "b"], [("a", "b", "a")], 0.6)]
    for _ in range(500):
        vocab_size = rng.choice((5, 6))
        idioms = {tuple(rng.choice(vocab[:vocab_size])
                        for _ in range(rng.randint(1, 5)))
                  for _ in range(rng.randint(1, 8))}
        # Fewer lemmas in the sentence than in the lexicon, so some idioms
        # lack some of theirs and pruning has work to do.
        in_sentence = vocab[:rng.randint(2, vocab_size)]
        lemmas = [rng.choice(in_sentence) for _ in range(rng.randint(1, 9))]
        threshold = rng.choice((
            rng.choice((-1.0, -0.25, 0.0)), 0.5, rng.choice(bounds),
            1.0 - rng.random(), 1.0 + rng.random(), None))
        cases.append((lemmas, sorted(idioms), threshold))
    for lemmas, idioms, threshold in cases:
        sentence = load_plain([" ".join(lemmas)]).sentences[0]
        lexicon = _lexicon_of(*idioms)
        if threshold is None:
            # A score some idiom's best window reaches exactly.
            scores = [c.evidence.match_score for c in
                      brute_force_match_idioms(sentence, lexicon, 0.0)]
            threshold = rng.choice(scores) if scores else 0.0
        assert match_idioms(sentence, lexicon, threshold) == \
            brute_force_match_idioms(sentence, lexicon, threshold), \
            (lemmas, idioms, threshold)


def test_clean_set_is_exact(corpus25, lexicon, light_verbs):
    clean = {s.id for s in corpus25 if is_non_vmwe(s, lexicon, light_verbs)}
    assert clean == CLEAN_IDS


def test_threshold_monotonicity(corpus25, lexicon):
    rng = random.Random(17)
    for _ in range(20):
        lo = rng.uniform(0.0, 0.9)
        hi = rng.uniform(lo, 1.0)
        for sentence in corpus25:
            strict = {c.ref for c in match_idioms(sentence, lexicon, hi)}
            loose = {c.ref for c in match_idioms(sentence, lexicon, lo)}
            assert strict <= loose


def _non_vmwe(corpus, lexicon, light_verbs):
    return [s for s in corpus if is_non_vmwe(s, lexicon, light_verbs)]


def test_sample_non_vmwe_deterministic(corpus25, lexicon, light_verbs):
    clean = _non_vmwe(corpus25, lexicon, light_verbs)
    a, short_a = sample_sentences(clean, 5, 42)
    b, short_b = sample_sentences(clean, 5, 42)
    assert [s.id for s in a] == [s.id for s in b]
    assert not short_a and not short_b
    ids = [s.id for s in a]
    assert set(ids) <= CLEAN_IDS
    assert ids == sorted(ids, key=lambda i: int(i[1:]))  # corpus order


def test_sample_non_vmwe_seed_matters(corpus25, lexicon, light_verbs):
    clean = _non_vmwe(corpus25, lexicon, light_verbs)
    seeds = {tuple(s.id for s in sample_sentences(clean, 5, seed)[0])
             for seed in range(8)}
    assert len(seeds) > 1


def test_sample_non_vmwe_shortfall(corpus25, lexicon, light_verbs):
    clean = _non_vmwe(corpus25, lexicon, light_verbs)
    picked, shortfall = sample_sentences(clean, 99, 0)
    assert shortfall
    assert {s.id for s in picked} == CLEAN_IDS
    with pytest.raises(ContractViolation):
        sample_sentences(clean, -1, 0)


def test_candidate_ref_and_surface(corpus25, lexicon):
    cand = match_idioms(corpus25.by_id("s01"), lexicon)[0]
    assert cand.ref == "s01#VID#2.3.4"
    assert cand.surface(corpus25.by_id("s01")) == "spilled the beans"


def test_candidate_span_contract():
    from vmweval.extract import VMWECandidate
    with pytest.raises(ContractViolation):
        VMWECandidate(sentence_id="x", category=Category.VPC, span=(3, 2),
                      evidence=VpcEvidence(verb_index=3, particle_index=2))


def test_candidate_dict_round_trip(corpus25, lexicon, light_verbs):
    for cand in _all_candidates(corpus25, lexicon, light_verbs):
        assert candidate_from_dict(candidate_to_dict(cand)) == cand


def test_extract_all_category_filter(corpus25, lexicon, light_verbs):
    s04 = corpus25.by_id("s04")
    only_lvc = extract_all(s04, lexicon, light_verbs,
                           categories=(Category.LVC,))
    assert [c.category for c in only_lvc] == [Category.LVC]
    everything = extract_all(s04, lexicon, light_verbs)
    assert {c.category for c in everything} == {Category.VID, Category.LVC}
