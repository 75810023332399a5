"""Machine translation records, validity checks and language detection.

Hypotheses are screened before any quality estimation: empty output,
copies of the source, degenerate repetition loops and output in the
wrong language are all real failure modes of current systems and would
otherwise contaminate score aggregates.
"""
from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from importlib import resources
from typing import Iterable, Protocol, Sequence

from .errors import BackendContractError, ContractViolation
from .transport import post_json

TARGET_LANGS = ("cs", "de", "zh", "ru", "ja", "es", "tr")

DEFAULT_MIN_REPEATS = 8
DEFAULT_MAX_UNIT = 6

# Cosine similarity below this is treated as "no idea".
DETECT_THRESHOLD = 0.12


class ValidityStatus(Enum):
    OK = "ok"
    WRONG_LANGUAGE = "wrong_language"
    UNTRANSLATED = "untranslated"
    REPETITIVE = "repetitive"
    EMPTY = "empty"


@dataclass(frozen=True)
class TranslationRecord:
    sentence_id: str
    source: str
    target_lang: str
    system_id: str
    hypothesis: str
    validity: ValidityStatus | None = None

    def __post_init__(self):
        if self.target_lang not in TARGET_LANGS:
            raise ContractViolation(f"unsupported target language "
                                    f"{self.target_lang!r}")
        if not self.source:
            raise ContractViolation("translation source must be non-empty")
        if not self.hypothesis and self.validity is ValidityStatus.OK:
            raise ContractViolation("empty hypothesis cannot be ok")


class MTBackend(Protocol):
    system_id: str

    def translate_text(self, text: str, target_lang: str) -> str: ...


def check_source(text: str | None, sentence_id: str = ""):
    """Raise unless `text` is a source that translate accepts."""
    if not text:
        raise ContractViolation(f"sentence {sentence_id!r}: translate requires "
                                f"a non-empty source text, not {text!r}")


def translate(backend: MTBackend, text: str, target_lang: str,
              sentence_id: str = "") -> str:
    """The backend's hypothesis for one translation, not yet screened."""
    if target_lang not in TARGET_LANGS:
        raise ContractViolation(f"unsupported target language {target_lang!r}")
    check_source(text, sentence_id)
    return backend.translate_text(text, target_lang)


# --- language detection ----------------------------------------------------

# Script classes of the letters detect_language counts.
_KANA = re.compile("[\u3040-\u30ff]")
_HAN = re.compile("[\u4e00-\u9fff\u3400-\u4dbf]")
_CYRILLIC = re.compile("[\u0400-\u04ff]")


def _trigram_counts(text: str) -> dict[str, int]:
    """How often each character trigram of the padded lowercase words of
    `text` occurs, in first-seen order."""
    counts: dict[str, int] = {}
    cleaned = "".join(ch if ch.isalpha() else " " for ch in text.lower())
    for word in cleaned.split():
        padded = f" {word} "
        for i in range(len(padded) - 2):
            gram = padded[i:i + 3]
            counts[gram] = counts.get(gram, 0) + 1
    return counts


def _trigram_profile(text: str) -> dict[str, float]:
    counts = _trigram_counts(text)
    total = sum(counts.values())
    if not total:
        return {}
    return {gram: n / total for gram, n in counts.items()}


def _norm(profile: dict[str, float]) -> float:
    return math.sqrt(sum(w * w for w in profile.values()))


@lru_cache(maxsize=1)
def _language_profiles() -> dict[str, tuple[dict[str, float], float]]:
    """Reference trigram profile and its norm, per language.

    The shipped file holds, per language, the sample's trigram `total`, the
    kept trigrams concatenated in sorted order (each is 3 characters) and
    their `counts`; a weight is count / total, as _trigram_profile gives it.
    Norms are computed here, not stored, so they round as this Python's
    sum() rounds.
    """
    text = resources.files("vmweval").joinpath("data/lang_profiles.json").read_text("utf-8")
    profiles = {}
    for lang, stored in json.loads(text).items():
        grams, total = stored["grams"], stored["total"]
        profile = {grams[i:i + 3]: n / total
                   for i, n in zip(range(0, len(grams), 3), stored["counts"])}
        profiles[lang] = (profile, _norm(profile))
    return profiles


# Trigram -> (position in _language_profiles(), reference weight) for every
# language whose profile holds it, () for none.  detect_language fills it as
# it meets trigrams; it depends on the shipped profiles alone.
_GRAM_ENTRIES: dict[str, tuple[tuple[int, float], ...]] = {}


# A broken system returns the same few outputs for many sources, so the
# checks that read the hypothesis alone keep their last answers.
_MEMO_SIZE = 1024


@lru_cache(maxsize=_MEMO_SIZE)
def detect_language(text: str) -> tuple[str, float]:
    """Guess the language of `text` as (code, confidence).

    Script membership settles the non-Latin cases: any kana means
    Japanese, dominant Han means Chinese, dominant Cyrillic means
    Russian.  Latin-script text is matched against shipped character
    trigram profiles; a weak best match comes back as ("unknown", ...).
    """
    letters = "".join(filter(str.isalpha, text))
    if not letters:
        return ("unknown", 0.0)
    kana = len(_KANA.findall(letters))
    han = len(_HAN.findall(letters))
    cyrillic = len(_CYRILLIC.findall(letters))
    if kana:
        return ("ja", (kana + han) / len(letters))
    if han / len(letters) >= 0.5:
        return ("zh", han / len(letters))
    if cyrillic / len(letters) >= 0.5:
        return ("ru", cyrillic / len(letters))
    # Cosine similarity against every language in one pass over the
    # profile: each language's products are summed in the profile's order,
    # so sum() rounds them exactly as a per-language dot product would.
    profile = _trigram_profile(text)
    references = _language_profiles()
    products: list[list[float]] = [[] for _ in references]
    for gram, weight in profile.items():
        # subscript and catch the rare miss: cheaper than get() on the hits,
        # which are nearly all lookups
        try:
            entries = _GRAM_ENTRIES[gram]
        except KeyError:
            entries = _GRAM_ENTRIES[gram] = tuple(
                (position, reference[gram])
                for position, (reference, _) in enumerate(references.values())
                if gram in reference)
        for position, ref_weight in entries:
            products[position].append(weight * ref_weight)
    best_lang, best_sim = "unknown", 0.0
    norm = _norm(profile)
    for (lang, (_, ref_norm)), terms in zip(references.items(), products):
        if not terms:
            continue
        sim = sum(terms) / (norm * ref_norm)
        if sim > best_sim:
            best_lang, best_sim = lang, sim
    if best_sim < DETECT_THRESHOLD:
        return ("unknown", best_sim)
    return (best_lang, best_sim)


# --- validity --------------------------------------------------------------

def _squash_ws(text: str) -> str:
    return " ".join(text.split())


@lru_cache(maxsize=64)
def _repetition_pattern(min_repeats: int, max_unit: int) -> re.Pattern:
    """A unit of 1..max_unit characters repeated min_repeats times in a row."""
    return re.compile(r"(.{1,%d}?)\1{%d,}" % (max_unit, min_repeats - 1),
                      re.DOTALL)


@lru_cache(maxsize=_MEMO_SIZE)
def _has_repetition(text: str, min_repeats: int, max_unit: int) -> bool:
    tokens = text.split()
    run = 1
    for prev, cur in zip(tokens, tokens[1:]):
        run = run + 1 if cur == prev else 1
        if run >= min_repeats:
            return True
    return _repetition_pattern(min_repeats, max_unit).search(text) is not None


def classify_validity(source: str, hypothesis: str, target_lang: str,
                      min_repeats: int = DEFAULT_MIN_REPEATS,
                      max_unit: int = DEFAULT_MAX_UNIT) -> ValidityStatus:
    """Apply the validity checks in their fixed order; first hit wins."""
    if not hypothesis.strip():
        return ValidityStatus.EMPTY
    if _squash_ws(hypothesis) == _squash_ws(source):
        return ValidityStatus.UNTRANSLATED
    if _has_repetition(hypothesis, min_repeats, max_unit):
        return ValidityStatus.REPETITIVE
    detected, _ = detect_language(hypothesis)
    if detected != target_lang:
        return ValidityStatus.WRONG_LANGUAGE
    return ValidityStatus.OK


# the name perfbench/tracing.py times screening under, until the package traces
# itself; the translate stage calls it once per distinct (source, hypothesis, language)
validate_translation = classify_validity


def error_pct(invalid: int, total: int) -> float:
    """`invalid` out of `total` outputs, as a percentage."""
    if total < 1 or not 0 <= invalid <= total:
        raise ContractViolation(f"bad error counts: {invalid} invalid of {total}")
    return 100.0 * invalid / total


def error_rate(records: Sequence[TranslationRecord]) -> float:
    """Percentage of records whose validity is not ok."""
    if any(r.validity is None for r in records):
        raise ContractViolation("error_rate saw unvalidated records")
    return error_pct(sum(1 for r in records if r.validity is not ValidityStatus.OK),
                     len(records))


# --- backends ---------------------------------------------------------------

class HttpMTBackend:
    """POST {text, source_lang, target_lang}, expect {"translation": ...}."""

    def __init__(self, base_url: str, system_id: str, api_key: str | None = None,
                 timeout: float = 60.0):
        self.base_url = base_url
        self.system_id = system_id
        self.api_key = api_key
        self.timeout = timeout

    def translate_text(self, text: str, target_lang: str) -> str:
        body = post_json(self.base_url, {"text": text, "source_lang": "en",
                                         "target_lang": target_lang},
                         self.api_key, self.timeout, "mt")
        if not isinstance(body, dict) or not isinstance(body.get("translation"),
                                                        str):
            raise BackendContractError("mt response missing string 'translation'")
        return body["translation"]


def _stable_index(text: str, modulus: int) -> int:
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % modulus


# Small stock of genuine target-language sentences for the mock backend;
# whatever it "translates" must still pass the language detector.
_PHRASEBOOK: dict[str, tuple[str, ...]] = {
    "cs": (
        "Dnes večer půjdeme do divadla na novou hru.",
        "Řeka protéká středem starého města a mostů je tu mnoho.",
        "Příští týden začne škola a děti se těší na spolužáky.",
        "V zimě rádi jezdíme na hory a večer pijeme čaj.",
        "Stará knihovna na náměstí je otevřena každý všední den.",
        "Počasí se rychle změnilo a začalo hustě pršet.",
    ),
    "de": (
        "Der Zug fährt heute leider erst am späten Abend ab.",
        "Wir haben gestern einen langen Spaziergang durch den Wald gemacht.",
        "Die Kinder spielen im Garten hinter dem alten Haus.",
        "Im Sommer fahren viele Familien ans Meer oder in die Berge.",
        "Das Museum ist wegen Renovierung bis zum Frühjahr geschlossen.",
        "Sie liest jeden Morgen die Zeitung bei einer Tasse Kaffee.",
    ),
    "zh": (
        "今天的天气非常好，我们决定去公园散步。",
        "他每天早上坐地铁去公司上班。",
        "这家餐厅的菜很有名，周末常常要排队。",
        "图书馆里非常安静，学生们都在认真学习。",
        "春天来了，院子里的花都开了。",
        "我们打算下个月去南方旅行。",
    ),
    "ru": (
        "Сегодня вечером мы пойдём в театр на новый спектакль.",
        "Поезд отправляется рано утром с центрального вокзала.",
        "Дети играют во дворе, несмотря на холодную погоду.",
        "Библиотека находится рядом с площадью, возле старого парка.",
        "Летом мы часто ездим на дачу к бабушке.",
        "Он читает газету каждое утро за чашкой чая.",
    ),
    "ja": (
        "今日は天気がいいので、公園まで歩いて行きましょう。",
        "電車は朝の八時に駅を出発します。",
        "図書館はとても静かで、学生たちが勉強しています。",
        "週末に友達と映画を見に行く予定です。",
        "春になると、庭の花がきれいに咲きます。",
        "彼は毎朝コーヒーを飲みながら新聞を読みます。",
    ),
    "es": (
        "Esta noche iremos al teatro a ver una obra nueva.",
        "El tren sale temprano desde la estación central de la ciudad.",
        "Los niños juegan en el jardín detrás de la casa vieja.",
        "En verano muchas familias viajan a la costa o a la montaña.",
        "La biblioteca está abierta todos los días menos el domingo.",
        "Ella lee el periódico cada mañana con una taza de café.",
    ),
    "tr": (
        "Bu akşam tiyatroda yeni bir oyun izlemeye gideceğiz.",
        "Tren sabah erken saatte merkez istasyondan kalkıyor.",
        "Çocuklar eski evin arkasındaki bahçede oynuyorlar.",
        "Yazın birçok aile deniz kenarına ya da dağlara gidiyor.",
        "Kütüphane pazar günü dışında her gün açık oluyor.",
        "O her sabah bir fincan kahveyle gazete okuyor.",
    ),
}


# the failure modes a MockMTBackend break rule can force
BREAK_FAILURES = ("untranslated", "empty", "repetitive", "wrong_language")


class MockMTBackend:
    """Deterministic stand-in translator.

    Picks a canned target-language sentence keyed by a hash of the
    source, with a numeric tag so distinct sources stay distinguishable.
    `break_rules` forces a failure mode for chosen target languages,
    which is how tests engineer high error-rate cells.
    """

    def __init__(self, system_id: str, break_rules: Iterable[dict] | None = None):
        self.system_id = system_id
        self.break_rules = list(break_rules or [])

    def _broken(self, target_lang: str) -> str | None:
        for rule in self.break_rules:
            if rule.get("target_lang") in (target_lang, "*"):
                return rule["failure"]
        return None

    def translate_text(self, text: str, target_lang: str) -> str:
        if target_lang not in _PHRASEBOOK:
            raise BackendContractError(f"mock mt has no phrasebook for "
                                       f"{target_lang!r}")
        failure = self._broken(target_lang)
        if failure == "untranslated":
            return text
        if failure == "empty":
            return ""
        if failure == "repetitive":
            return "この、" * 20
        if failure == "wrong_language":
            other = "es" if target_lang != "es" else "de"
            phrases = _PHRASEBOOK[other]
            return phrases[_stable_index(text, len(phrases))]
        if failure is not None:
            raise ContractViolation(f"unknown break rule failure {failure!r}")
        phrases = _PHRASEBOOK[target_lang]
        pick = phrases[_stable_index(text, len(phrases))]
        tag = _stable_index(text + target_lang, 997)
        return f"{pick} ({tag})"
