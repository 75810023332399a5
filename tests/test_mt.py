import dataclasses
import importlib.util
import json
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from vmweval import cli
from vmweval import mt as mt_mod
from vmweval.corpus import load_corpus
from vmweval.errors import BackendContractError, ContractViolation
from vmweval.mt import (DEFAULT_MAX_UNIT, DEFAULT_MIN_REPEATS, TARGET_LANGS,
                        MockMTBackend, TranslationRecord, ValidityStatus,
                        classify_validity, detect_language, error_rate,
                        translate, validate_translation)

# One natural sentence per in-scope language (the sources are English, so
# "en" rounds out the set).  None of these appear in the profile corpora.
DETECT_FIXTURES = {
    "en": "The committee will meet again next week to review the budget.",
    "cs": "Příští týden pojedeme vlakem do Prahy na návštěvu k babičce.",
    "de": "Die Regierung hat heute ein neues Gesetz zum Schutz der Umwelt beschlossen.",
    "es": "El gobierno aprobó ayer una nueva ley para proteger el medio ambiente.",
    "tr": "Hükümet bugün çevreyi korumak için yeni bir yasa kabul etti.",
    "zh": "政府今天通过了一项保护环境的新法律。",
    "ru": "Правительство сегодня приняло новый закон об охране природы.",
    "ja": "政府は今日、環境を守るための新しい法律を可決しました。",
}


def test_target_langs():
    assert TARGET_LANGS == ("cs", "de", "zh", "ru", "ja", "es", "tr")


@pytest.mark.parametrize("lang", sorted(DETECT_FIXTURES))
def test_detect_language_per_language(lang):
    got, confidence = detect_language(DETECT_FIXTURES[lang])
    assert got == lang
    assert confidence > 0.1


def test_detect_language_edge_inputs():
    assert detect_language("12345 !!!") == ("unknown", 0.0)
    assert detect_language("")[0] == "unknown"
    # kana anywhere wins over han mass
    assert detect_language("漢字漢字漢字は")[0] == "ja"
    assert detect_language("xq zv qx vz")[0] == "unknown"  # below threshold


# --- the detector against its oracle -----------------------------------------

def _script_of_oracle(ch):
    cp = ord(ch)
    if 0x3040 <= cp <= 0x30FF:
        return "kana"
    if 0x4E00 <= cp <= 0x9FFF or 0x3400 <= cp <= 0x4DBF:
        return "han"
    if 0x0400 <= cp <= 0x04FF:
        return "cyrillic"
    return "other"


def _cosine_oracle(a, norm_a, b, norm_b):
    if not a or not b:
        return 0.0
    dot = sum(weight * b[gram] for gram, weight in a.items() if gram in b)
    return dot / (norm_a * norm_b)


def _detect_language_oracle(text):
    """detect_language as it was before the one-pass index: a script per
    letter, then one cosine per language profile."""
    letters = [ch for ch in text if ch.isalpha()]
    if not letters:
        return ("unknown", 0.0)
    scripts = [_script_of_oracle(ch) for ch in letters]
    kana = scripts.count("kana")
    han = scripts.count("han")
    cyrillic = scripts.count("cyrillic")
    if kana:
        return ("ja", (kana + han) / len(letters))
    if han / len(letters) >= 0.5:
        return ("zh", han / len(letters))
    if cyrillic / len(letters) >= 0.5:
        return ("ru", cyrillic / len(letters))
    profile = mt_mod._trigram_profile(text)
    best_lang, best_sim = "unknown", 0.0
    norm = mt_mod._norm(profile)
    for lang, (reference, ref_norm) in mt_mod._language_profiles().items():
        sim = _cosine_oracle(profile, norm, reference, ref_norm)
        if sim > best_sim:
            best_lang, best_sim = lang, sim
    if best_sim < mt_mod.DETECT_THRESHOLD:
        return ("unknown", best_sim)
    return (best_lang, best_sim)


def _fixture_hypotheses():
    """What the mock systems make of the fixture corpus in every language,
    broken or not, plus the detector fixtures."""
    corpus = load_corpus((Path(__file__).parent / "fixtures" / "corpus_25.conllu")
                         .read_text("utf-8"), "conllu")
    systems = [MockMTBackend("ok")] + [
        MockMTBackend(failure, break_rules=[{"target_lang": "*",
                                             "failure": failure}])
        for failure in ("untranslated", "repetitive", "wrong_language")]
    hypotheses = list(DETECT_FIXTURES.values())
    for sentence in corpus:
        for lang in TARGET_LANGS:
            hypotheses += [s.translate_text(sentence.text, lang) for s in systems]
    return hypotheses


# Letters of every script the detector tells apart, the first and last
# letters of each script range and letters just outside them, and
# characters that are not letters: kana marks, a superscript, a Roman
# numeral, digits and "_".
_MIXED = ("abcdefghijklmnopqrstuvwxyz ABCXYZ äöüßčěřšžůñçğışé "
          "абвгдежзийклмнопрстуя 政府法律环境語 ぁあいうかきアイウカキー "
          "\u0400\u04ff\u0500\u3041\u30ff\u31f0\u3005 "
          "\u3400\u4dbf\u4e00\u9fff\ua000 "
          "・゙²Ⅳ0123456789_.,!?'-   ")


def _mixed_script_text(rng, hypotheses):
    """Random characters, or two hypothesis slices spliced with some."""
    noise = "".join(rng.choice(_MIXED) for _ in range(rng.randrange(12)))
    if rng.random() < 0.4:
        return noise + "".join(rng.choice(_MIXED) for _ in range(rng.randrange(40)))
    a, b = rng.choice(hypotheses), rng.choice(hypotheses)
    return (a[rng.randrange(len(a) + 1):] + noise
            + b[:rng.randrange(len(b) + 1)])


def test_detect_language_matches_its_oracle():
    hypotheses = _fixture_hypotheses()
    rng = random.Random(20250610)
    probes = hypotheses + ["", " ", "・゙²Ⅳ", "_12_", "Ⅳ²・゙ka"] + [
        _mixed_script_text(rng, hypotheses) for _ in range(1500)]
    labels = set()
    for text in probes:
        got = detect_language(text)
        assert got == _detect_language_oracle(text), text
        labels.add(got[0])
    # every branch ran: each script rule, each profile and "unknown"
    assert labels == {"unknown", "en", *TARGET_LANGS}


ROOT = Path(__file__).parents[1]
BUILD_SCRIPT = ROOT / "scripts" / "build_language_profiles.py"


def _weight_profiles_oracle():
    """The profiles as the shipped file held them when it stored weights:
    per sample, the top 400 trigrams of _trigram_profile by (-weight,
    trigram), in trigram order."""
    profiles = {}
    for path in sorted((ROOT / "scripts" / "language_samples").glob("*.txt")):
        full = mt_mod._trigram_profile(path.read_text(encoding="utf-8"))
        top = sorted(full.items(), key=lambda kv: (-kv[1], kv[0]))[:400]
        profiles[path.stem] = dict(sorted(top))
    return profiles


def test_language_profiles_equal_the_weight_oracle():
    oracle = _weight_profiles_oracle()
    loaded = mt_mod._language_profiles()
    assert list(loaded) == list(oracle)
    for lang, reference in oracle.items():
        profile, norm = loaded[lang]
        assert list(profile) == list(reference), lang
        # equal floats, not close ones: the cosine sums them in this order
        assert list(profile.values()) == list(reference.values()), lang
        assert norm == mt_mod._norm(reference), lang


def test_shipped_profiles_are_what_the_samples_give():
    done = subprocess.run([sys.executable, str(BUILD_SCRIPT), "--check"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_profile_check_fails_on_a_stale_file(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("build_profiles", BUILD_SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    stale = tmp_path / "lang_profiles.json"
    text = script.OUT.read_text(encoding="utf-8").replace('"total": ', '"total": 1', 1)
    stale.write_text(text, encoding="utf-8")
    monkeypatch.setattr(script, "OUT", stale)
    assert script.main(["--check"]) == 1
    assert stale.read_text(encoding="utf-8") == text
    assert script.main([]) == 0
    assert script.main(["--check"]) == 0


# --- validity taxonomy -------------------------------------------------------

def test_validity_empty():
    assert classify_validity("Hello there.", "", "de") is ValidityStatus.EMPTY
    assert classify_validity("Hello there.", "   ", "de") is ValidityStatus.EMPTY


def test_validity_untranslated_ignores_whitespace():
    src = "He spilled the beans."
    assert classify_validity(src, "He spilled  the beans. ",
                             "de") is ValidityStatus.UNTRANSLATED


def test_validity_repetitive_token_run():
    hyp = " ".join(["ha"] * DEFAULT_MIN_REPEATS)
    assert classify_validity("src text", hyp, "de") is ValidityStatus.REPETITIVE
    below = " ".join(["ha"] * (DEFAULT_MIN_REPEATS - 1))
    assert classify_validity("src text", below,
                             "de") is not ValidityStatus.REPETITIVE


def test_validity_repetitive_character_unit():
    # the fixture from real broken MT output: a short unit looped 20x
    assert classify_validity("He left early.", "この、" * 20,
                             "ja") is ValidityStatus.REPETITIVE
    assert classify_validity("He left early.", "abcabcabcabcabcabcabcabc",
                             "de") is ValidityStatus.REPETITIVE


def test_validity_wrong_language():
    spanish = DETECT_FIXTURES["es"]
    assert classify_validity("The law passed.", spanish,
                             "tr") is ValidityStatus.WRONG_LANGUAGE
    assert classify_validity("The law passed.", spanish,
                             "es") is ValidityStatus.OK


def test_validity_order_untranslated_before_repetitive():
    text = " ".join(["no"] * 12)
    assert classify_validity(text, text, "de") is ValidityStatus.UNTRANSLATED


def test_validity_ok():
    assert classify_validity("The train leaves.", DETECT_FIXTURES["de"],
                             "de") is ValidityStatus.OK


def test_validate_translation_sets_status():
    record = TranslationRecord(sentence_id="x", source="Hello.",
                               target_lang="de", system_id="sys",
                               hypothesis=DETECT_FIXTURES["de"])
    assert record.validity is None
    assert validate_translation(record.source, record.hypothesis,
                                record.target_lang) is ValidityStatus.OK


def _has_repetition_oracle(text, min_repeats, max_unit):
    """_has_repetition as it was: no memo, its pattern compiled per call."""
    tokens = text.split()
    run = 1
    for prev, cur in zip(tokens, tokens[1:]):
        run = run + 1 if cur == prev else 1
        if run >= min_repeats:
            return True
    pattern = re.compile(r"(.{1,%d}?)\1{%d,}" % (max_unit, min_repeats - 1),
                         re.DOTALL)
    return pattern.search(text) is not None


def _validate_translation_oracle(record, min_repeats, max_unit):
    """validate_translation as it was: every check run for every record,
    and the status set through dataclasses.replace."""
    hypothesis = record.hypothesis
    if not hypothesis.strip():
        status = ValidityStatus.EMPTY
    elif " ".join(hypothesis.split()) == " ".join(record.source.split()):
        status = ValidityStatus.UNTRANSLATED
    elif _has_repetition_oracle(hypothesis, min_repeats, max_unit):
        status = ValidityStatus.REPETITIVE
    elif _detect_language_oracle(hypothesis)[0] != record.target_lang:
        status = ValidityStatus.WRONG_LANGUAGE
    else:
        status = ValidityStatus.OK
    return dataclasses.replace(record, validity=status)


def _screened_triples(tmp_path):
    """(source, hypothesis, language) of every translation of the fixture
    run, of each mock failure mode on the fixture corpus in every language,
    and of criterion 7's cases."""
    out = tmp_path / "run"
    assert cli.main(["run-all", "--config",
                     str(Path(__file__).parent / "fixtures" / "runall_config.yaml"),
                     "--seed", "42", "--stage-out", str(out)]) == 0
    with open(out / "translations.jsonl", encoding="utf-8") as fh:
        triples = [(r["source"], r["hypothesis"], r["target_lang"])
                   for r in map(json.loads, fh)]
    corpus = load_corpus((Path(__file__).parent / "fixtures" / "corpus_25.conllu")
                         .read_text("utf-8"), "conllu")
    systems = [MockMTBackend("ok")] + [
        MockMTBackend(failure, break_rules=[{"target_lang": "*", "failure": failure}])
        for failure in mt_mod.BREAK_FAILURES]
    triples += [(sentence.text, system.translate_text(sentence.text, lang), lang)
                for sentence in corpus for lang in TARGET_LANGS for system in systems]
    source = "He spilled the beans."
    triples += [(source, source, "de"), (source, "この、" * 20, "ja"),
                (source, DETECT_FIXTURES["es"], "tr"),
                ("src", "abcabcabcabcabcabcabcabc", "de"), ("src", "abcdefg" * 20, "de"),
                ("src", " ".join(["ha"] * DEFAULT_MIN_REPEATS), "de")]
    triples += [(source, text, lang) for text in DETECT_FIXTURES.values()
                for lang in TARGET_LANGS]
    return triples


def test_screening_equals_its_oracle(tmp_path):
    """The memoized checks give every record what the unmemoized ones gave,
    with empty memos and with full ones."""
    triples = _screened_triples(tmp_path)
    assert len(set(triples)) < len(triples)  # hypotheses repeat
    mt_mod.detect_language.cache_clear()
    mt_mod._has_repetition.cache_clear()
    statuses = set()
    for _ in range(2):
        for min_repeats, max_unit in [(DEFAULT_MIN_REPEATS, DEFAULT_MAX_UNIT),
                                      (2, 1), (3, 3), (4, 10)]:
            for source, hypothesis, lang in triples:
                record = TranslationRecord("s", source, lang, "sys", hypothesis)
                expected = _validate_translation_oracle(record, min_repeats, max_unit)
                assert validate_translation(record.source, record.hypothesis,
                                            record.target_lang, min_repeats,
                                            max_unit) is expected.validity
                assert mt_mod._has_repetition(hypothesis, min_repeats, max_unit) is \
                    _has_repetition_oracle(hypothesis, min_repeats, max_unit)
                statuses.add(expected.validity)
        for _, hypothesis, _ in triples:
            assert detect_language(hypothesis) == _detect_language_oracle(hypothesis)
    assert statuses == set(ValidityStatus)
    assert mt_mod.detect_language.cache_info().hits > 0
    assert mt_mod._has_repetition.cache_info().hits > 0


def test_translation_record_contracts():
    with pytest.raises(ContractViolation):
        TranslationRecord(sentence_id="x", source="Hi", target_lang="fr",
                          system_id="s", hypothesis="Salut")
    with pytest.raises(ContractViolation):
        TranslationRecord(sentence_id="x", source="", target_lang="de",
                          system_id="s", hypothesis="Hallo")
    with pytest.raises(ContractViolation):
        TranslationRecord(sentence_id="x", source="Hi", target_lang="de",
                          system_id="s", hypothesis="",
                          validity=ValidityStatus.OK)


# --- error rate --------------------------------------------------------------

def _record(validity):
    return TranslationRecord(sentence_id="x", source="s", target_lang="de",
                             system_id="sys", hypothesis="h",
                             validity=validity)


def test_error_rate_published_value():
    records = ([_record(ValidityStatus.REPETITIVE)] * 9989
               + [_record(ValidityStatus.OK)] * 11)
    assert error_rate(records) == pytest.approx(99.89, abs=1e-12)


def test_error_rate_contracts():
    with pytest.raises(ContractViolation):
        error_rate([])
    with pytest.raises(ContractViolation):
        error_rate([_record(None)])


# --- mock backend ------------------------------------------------------------

def test_mock_backend_is_deterministic_and_valid():
    backend = MockMTBackend(system_id="alpha")
    sources = ["He revealed the secret.", "She quit smoking last year.",
               "They registered at the hotel."]
    for lang in TARGET_LANGS:
        for src in sources:
            first = backend.translate_text(src, lang)
            assert first == backend.translate_text(src, lang)
            assert classify_validity(src, first, lang) is ValidityStatus.OK


def test_mock_backend_distinguishes_sources():
    backend = MockMTBackend(system_id="alpha")
    a = backend.translate_text("He revealed the secret.", "de")
    b = backend.translate_text("She quit smoking last year.", "de")
    assert a != b


def test_mock_backend_break_rules():
    backend = MockMTBackend(system_id="beta", break_rules=[
        {"target_lang": "cs", "failure": "untranslated"},
        {"target_lang": "de", "failure": "empty"},
        {"target_lang": "ru", "failure": "repetitive"},
        {"target_lang": "tr", "failure": "wrong_language"},
    ])
    src = "The train leaves at dawn."
    assert backend.translate_text(src, "cs") == src
    assert backend.translate_text(src, "de") == ""
    rep = backend.translate_text(src, "ru")
    assert classify_validity(src, rep, "ru") is ValidityStatus.REPETITIVE
    wrong = backend.translate_text(src, "tr")
    assert classify_validity(src, wrong, "tr") is ValidityStatus.WRONG_LANGUAGE
    # unbroken languages still work
    ok = backend.translate_text(src, "es")
    assert classify_validity(src, ok, "es") is ValidityStatus.OK


def test_mock_backend_wildcard_and_unknown_rule():
    backend = MockMTBackend(system_id="beta", break_rules=[
        {"target_lang": "*", "failure": "empty"}])
    assert backend.translate_text("Hi there.", "zh") == ""
    bad = MockMTBackend(system_id="beta", break_rules=[
        {"target_lang": "de", "failure": "exploded"}])
    with pytest.raises(ContractViolation):
        bad.translate_text("Hi there.", "de")


def test_mock_backend_rejects_unknown_language():
    backend = MockMTBackend(system_id="alpha")
    with pytest.raises(BackendContractError):
        backend.translate_text("Hi", "fr")


def test_translate_wraps_backend():
    backend = MockMTBackend(system_id="alpha")
    hypothesis = translate(backend, "He revealed the secret.", "de",
                           sentence_id="s01")
    assert hypothesis == backend.translate_text("He revealed the secret.", "de")
    assert type(hypothesis) is str
    with pytest.raises(ContractViolation):
        translate(backend, "Hi", "fr")


def test_repetition_unit_bound():
    # units longer than max_unit are not folded by the character check
    long_unit = "abcdefg"  # 7 chars > DEFAULT_MAX_UNIT
    text = long_unit * 20
    assert DEFAULT_MAX_UNIT == 6
    status = classify_validity("src", text, "de")
    # still caught? no token run, no short unit: detector sees gibberish
    assert status in (ValidityStatus.WRONG_LANGUAGE, ValidityStatus.REPETITIVE)
    assert classify_validity("src", "abcdef" * 20, "de") is \
        ValidityStatus.REPETITIVE
