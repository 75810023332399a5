"""Idiom lexicon and light-verb inventories.

Idiom lists arrive as flat text, one expression per line.  Entries are
kept only when they plausibly contain a verb, since downstream matching
targets verbal idioms; non-verbal fixed expressions ("at arm's length")
would only produce noise.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from typing import Iterable

from .errors import ContractViolation, ParseError


class LightVerbVariant(Enum):
    DATASET_SIX = "dataset_six"
    WMT_TEN = "wmt_ten"


_LIGHT_VERBS = {
    LightVerbVariant.DATASET_SIX: frozenset(
        {"do", "get", "give", "have", "make", "take"}),
    LightVerbVariant.WMT_TEN: frozenset(
        {"have", "take", "make", "get", "put", "give", "pay", "do", "offer", "raise"}),
}


@dataclass(frozen=True)
class LightVerbSet:
    variant: LightVerbVariant
    verbs: frozenset[str]


def light_verb_set(variant: LightVerbVariant | str) -> LightVerbSet:
    if isinstance(variant, str):
        try:
            variant = LightVerbVariant(variant)
        except ValueError:
            raise ContractViolation(f"unknown light-verb variant {variant!r}") from None
    return LightVerbSet(variant=variant, verbs=_LIGHT_VERBS[variant])


@dataclass(frozen=True)
class IdiomEntry:
    canonical: tuple[str, ...]
    surface_form: str
    contains_verb: bool

    def __post_init__(self):
        if not self.canonical or any(not part for part in self.canonical):
            raise ContractViolation(
                f"idiom {self.surface_form!r} has an empty canonical form")


@dataclass(frozen=True)
class IdiomLexicon:
    entries: frozenset[IdiomEntry]
    # Built once here for every sentence matched against the lexicon: the
    # entries in ordered() order, and lemma -> [position in that order, ...]
    # with a position listed once per occurrence of the lemma in its entry.
    _order: tuple[IdiomEntry, ...] = field(init=False, repr=False, compare=False)
    _index: dict[str, list[int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        order = tuple(sorted(self.entries, key=lambda e: e.canonical))
        index: dict[str, list[int]] = {}
        for pos, entry in enumerate(order):
            if pos and entry.canonical == order[pos - 1].canonical:
                raise ContractViolation(
                    f"duplicate canonical form {entry.canonical!r}")
            for lemma in entry.canonical:
                index.setdefault(lemma, []).append(pos)
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_index", index)

    def __len__(self):
        return len(self.entries)

    def ordered(self) -> tuple[IdiomEntry, ...]:
        """Entries in a stable order for deterministic matching."""
        return self._order

    def present_positions(self, lemmas: Iterable[str]) -> list[int]:
        """Per entry of ordered(): how many of its positions hold a lemma
        from `lemmas`."""
        counts = [0] * len(self._order)
        for lemma in set(lemmas):
            for pos in self._index.get(lemma, ()):
                counts[pos] += 1
        return counts


def normalize_idiom(text: str) -> tuple[str, ...]:
    """Lowercase and split an idiom line, detaching possessive clitics."""
    lowered = text.lower()
    if "'s" not in lowered:  # no chunk can end in 's
        return tuple(lowered.split())
    parts: list[str] = []
    for chunk in lowered.split():
        if len(chunk) > 2 and chunk.endswith("'s"):
            parts.append(chunk[:-2])
            parts.append("'s")
        else:
            parts.append(chunk)
    return tuple(parts)


def load_idiom_lexicon(lines: Iterable[str],
                       verb_lemmas: Iterable[str]) -> IdiomLexicon:
    """Read one idiom per line, keeping only verb-containing entries.

    A line may carry a tab-separated "verb" flag to force retention when
    none of its words is in `verb_lemmas`.  Duplicates (after
    normalization) collapse silently; verbless entries are dropped.
    """
    verbs = {v.strip().lower() for v in verb_lemmas if v.strip()}
    entries: dict[tuple[str, ...], IdiomEntry] = {}
    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        surface, _, flag = line.partition("\t")
        surface = surface.strip()
        marked = flag.strip().lower() in {"v", "verb"}
        if not surface:
            raise ParseError("idiom line holds only a flag", line=line_no)
        canonical = normalize_idiom(surface)
        # the first kept line of a canonical form wins
        if canonical in entries:
            continue
        if not marked and verbs.isdisjoint(canonical):
            continue
        entries[canonical] = IdiomEntry(
            canonical=canonical, surface_form=surface, contains_verb=True)
    return IdiomLexicon(entries=frozenset(entries.values()))


def parse_verb_lemmas(text: str) -> frozenset[str]:
    """Verb lemmas from a file's text: one per line, blank lines and
    lines starting with "#" skipped."""
    return frozenset(
        line.strip() for line in text.splitlines()
        if line.strip() and not line.startswith("#"))


def default_verb_lemmas() -> frozenset[str]:
    """English verb lemmas shipped with the package."""
    path = resources.files("vmweval").joinpath("data/verb_lemmas.txt")
    return parse_verb_lemmas(path.read_text("utf-8"))

