"""Candidate extraction for the three targeted VMWE categories.

VID candidates come from fuzzy idiom-lexicon matching over lemmas, VPC
and LVC candidates from dependency arcs.  Extraction is deliberately
recall-oriented: a downstream classifier decides which candidates are
genuine, so borderline hits are kept.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable, Union

from .corpus import Sentence
from .errors import ContractViolation, ParseError
from .lexicon import IdiomEntry, IdiomLexicon, LightVerbSet
from .stats import bleu4

DEFAULT_VID_THRESHOLD = 0.6

# Both the spaCy-style and UD-style labels for verb particles occur in
# parsed English corpora.
PARTICLE_RELATIONS = frozenset({"prt", "compound:prt"})
OBJECT_RELATIONS = frozenset({"obj", "dobj"})


class Category(Enum):
    VID = "VID"
    VPC = "VPC"
    LVC = "LVC"


@dataclass(frozen=True)
class VidEvidence:
    idiom: IdiomEntry
    match_score: float


@dataclass(frozen=True)
class VpcEvidence:
    verb_index: int
    particle_index: int


@dataclass(frozen=True)
class LvcEvidence:
    verb_index: int
    noun_index: int


Evidence = Union[VidEvidence, VpcEvidence, LvcEvidence]


@dataclass(frozen=True)
class VMWECandidate:
    sentence_id: str
    category: Category
    span: tuple[int, ...]
    evidence: Evidence

    def __post_init__(self):
        if not self.span or list(self.span) != sorted(set(self.span)):
            raise ContractViolation(
                f"candidate span must be strictly increasing, got {self.span}")

    @property
    def ref(self) -> str:
        """Stable identifier used to join stage outputs."""
        joined = ".".join(str(i) for i in self.span)
        return f"{self.sentence_id}#{self.category.value}#{joined}"

    def surface(self, sentence: Sentence) -> str:
        return " ".join(sentence.tokens[i - 1].surface for i in self.span)

    def token_indices(self) -> tuple[int, ...]:
        """The span plus the token indices its evidence names."""
        ev = self.evidence
        if isinstance(ev, VpcEvidence):
            return self.span + (ev.verb_index, ev.particle_index)
        if isinstance(ev, LvcEvidence):
            return self.span + (ev.verb_index, ev.noun_index)
        return self.span


def check_in_range(sentence: Sentence, indices: Iterable[int]):
    """Raise ContractViolation unless every 1-based token index in
    `indices` names a token of `sentence`."""
    bad = [i for i in indices if not 1 <= i <= len(sentence.tokens)]
    if bad:
        raise ContractViolation(
            f"token index {bad[0]} is out of range for sentence "
            f"{sentence.id!r} ({len(sentence.tokens)} tokens)")


def _bleu4_bound(length: int, size: int, present: int) -> float:
    """Upper bound on `bleu4(window, idiom)` for any window of `length`
    lemmas (length >= size) when at most `present` of the idiom's `size`
    positions hold a lemma that occurs in the window.

    Clipped n-gram matches map to distinct idiom n-gram starts, which
    cover at least (matches + n - 1) idiom positions, each holding a
    window lemma; so matches <= present - n + 1.  The bound takes the
    most matches each order allows and follows bleu4's own arithmetic,
    smoothing included; with length >= size there is no brevity penalty.
    """
    max_order = min(4, length)
    log_sum = 0.0
    for n in range(1, max_order + 1):
        total = length - n + 1
        clipped = max(0, min(present - n + 1, total, size - n + 1))
        if clipped == 0:
            if n == 1:
                return 0.0
            precision = 1.0 / (2.0 * total)
        else:
            precision = clipped / total
        log_sum += math.log(precision)
    return math.exp(log_sum / max_order)


@lru_cache(maxsize=256)
def _min_present(size: int, threshold: float) -> int:
    """Fewest present idiom positions with which some window of a
    `size`-lemma idiom can avoid scoring below `threshold`; size + 1
    when none can."""
    for present in range(size + 1):
        if not all(_bleu4_bound(length, size, present) < threshold
                   for length in range(size, size + 3)):
            return present
    return size + 1


def match_idioms(sentence: Sentence, lexicon: IdiomLexicon,
                 threshold: float = DEFAULT_VID_THRESHOLD) -> list[VMWECandidate]:
    """Fuzzy-match lexicon idioms against the sentence lemmas.

    For each idiom, windows of the idiom length up to two extra tokens
    slide over the lemmas and are scored with BLEU-4 against the idiom's
    canonical form.  Only the best window per idiom survives, and only if
    it reaches `threshold`.  Ties prefer the shorter, then leftmost
    window.  Idioms with too few lemmas in the sentence to reach
    `threshold` in any window are skipped unscored (see _bleu4_bound),
    one bound per idiom length.
    """
    lemmas = sentence.lemmas()
    counts = lexicon.present_positions(lemmas)
    candidates = []
    for size, positions in lexicon.by_length.items():
        need = _min_present(size, threshold)
        for pos in [pos for pos in positions if counts[pos] >= need]:
            canonical = lexicon.canonicals[pos]
            best = None
            for length in range(size, min(size + 2, len(lemmas)) + 1):
                for start in range(0, len(lemmas) - length + 1):
                    score = bleu4(lemmas[start:start + length], canonical)
                    if best is None or score > best[0]:
                        best = (score, start, length)
            if best is None or best[0] < threshold:
                continue
            score, start, length = best
            entry = IdiomEntry(canonical=canonical,
                               surface_form=lexicon.surface_forms[canonical])
            candidates.append(VMWECandidate(
                sentence_id=sentence.id,
                category=Category.VID,
                span=tuple(range(start + 1, start + length + 1)),
                evidence=VidEvidence(idiom=entry, match_score=score),
            ))
    candidates.sort(key=lambda c: (c.span[0], len(c.span), c.evidence.idiom.canonical))
    return candidates


def _require_dependencies(sentence: Sentence, op: str):
    if not sentence.has_dependencies:
        raise ContractViolation(f"{op} needs a dependency-parsed sentence "
                                f"(sentence {sentence.id!r} has none)")


def extract_vpc(sentence: Sentence,
                relations: frozenset[str] = PARTICLE_RELATIONS) -> list[VMWECandidate]:
    """One candidate per particle arc whose governor is a verb."""
    _require_dependencies(sentence, "extract_vpc")
    candidates = []
    for tok in sentence.tokens:
        if tok.deprel not in relations or tok.head == 0:
            continue
        head = sentence.tokens[tok.head - 1]
        if head.upos != "VERB":
            continue
        span = tuple(sorted((head.index, tok.index)))
        candidates.append(VMWECandidate(
            sentence_id=sentence.id,
            category=Category.VPC,
            span=span,
            evidence=VpcEvidence(verb_index=head.index, particle_index=tok.index),
        ))
    candidates.sort(key=lambda c: c.span)
    return candidates


def extract_lvc(sentence: Sentence, light_verbs: LightVerbSet) -> list[VMWECandidate]:
    """Light verb + noun object pairs.

    Any noun whose object arc points at a light verb qualifies; no
    attempt is made to verify the noun is eventive, that is the
    classifier's job.
    """
    _require_dependencies(sentence, "extract_lvc")
    candidates = []
    for tok in sentence.tokens:
        if tok.upos != "NOUN" or tok.deprel not in OBJECT_RELATIONS or tok.head == 0:
            continue
        head = sentence.tokens[tok.head - 1]
        if head.upos != "VERB" or head.lemma not in light_verbs.verbs:
            continue
        span = tuple(sorted((head.index, tok.index)))
        candidates.append(VMWECandidate(
            sentence_id=sentence.id,
            category=Category.LVC,
            span=span,
            evidence=LvcEvidence(verb_index=head.index, noun_index=tok.index),
        ))
    candidates.sort(key=lambda c: c.span)
    return candidates


def is_non_vmwe(sentence: Sentence, lexicon: IdiomLexicon, light_verbs: LightVerbSet,
                threshold: float = DEFAULT_VID_THRESHOLD) -> bool:
    """True when no extractor finds anything: what makes a sentence a
    control."""
    return (not match_idioms(sentence, lexicon, threshold)
            and not extract_vpc(sentence)
            and not extract_lvc(sentence, light_verbs))


def sample_sentences(qualifying: list[Sentence], n: int, seed: int,
                     ) -> tuple[list[Sentence], bool]:
    """Seeded uniform sample of `n` of the `qualifying` sentences, without
    replacement.

    Returns the sample in the order of `qualifying` plus a shortfall flag
    that is True when fewer than `n` sentences qualified (in which case
    all of them are returned).
    """
    if n < 0:
        raise ContractViolation(f"sample size must be >= 0, got {n}")
    if len(qualifying) <= n:
        return list(qualifying), len(qualifying) < n
    order = {s.id: i for i, s in enumerate(qualifying)}
    picked = random.Random(seed).sample(qualifying, n)
    picked.sort(key=lambda s: order[s.id])
    return picked, False


def extract_all(sentence: Sentence, lexicon: IdiomLexicon, light_verbs: LightVerbSet,
                threshold: float = DEFAULT_VID_THRESHOLD,
                categories: Iterable[Category] = tuple(Category),
                ) -> list[VMWECandidate]:
    wanted = set(categories)
    out: list[VMWECandidate] = []
    if Category.VID in wanted:
        out.extend(match_idioms(sentence, lexicon, threshold))
    if Category.VPC in wanted:
        out.extend(extract_vpc(sentence))
    if Category.LVC in wanted:
        out.extend(extract_lvc(sentence, light_verbs))
    return out


def rebuild_candidate(sentence: Sentence, category: Category,
                      span: tuple[int, ...]) -> VMWECandidate:
    """Reconstruct a candidate from its span, for downstream stages.

    Stage outputs carry only (sentence_id, category, span); the evidence
    is recovered from the sentence itself.
    """
    check_in_range(sentence, span)
    tokens = [sentence.tokens[i - 1] for i in span]
    if category is Category.VID:
        canonical = tuple(t.lemma for t in tokens)
        evidence: Evidence = VidEvidence(
            idiom=IdiomEntry(canonical=canonical,
                             surface_form=" ".join(canonical)),
            match_score=1.0)
    elif category is Category.VPC:
        if len(span) != 2:
            raise ContractViolation(f"VPC span must have 2 indices, got {span}")
        particle = next((t for t in tokens if t.deprel in PARTICLE_RELATIONS),
                        tokens[1])
        verb = tokens[0] if particle is tokens[1] else tokens[1]
        evidence = VpcEvidence(verb_index=verb.index,
                               particle_index=particle.index)
    else:
        if len(span) != 2:
            raise ContractViolation(f"LVC span must have 2 indices, got {span}")
        noun = next((t for t in tokens if t.upos == "NOUN"), tokens[1])
        verb = tokens[0] if noun is tokens[1] else tokens[1]
        evidence = LvcEvidence(verb_index=verb.index, noun_index=noun.index)
    return VMWECandidate(sentence_id=sentence.id, category=category,
                         span=tuple(span), evidence=evidence)


def candidate_to_dict(c: VMWECandidate) -> dict:
    obj = {
        "candidate_ref": c.ref,
        "sentence_id": c.sentence_id,
        "category": c.category.value,
        "span": list(c.span),
    }
    if isinstance(c.evidence, VidEvidence):
        obj["evidence"] = {
            "idiom": {
                "canonical": list(c.evidence.idiom.canonical),
                "surface_form": c.evidence.idiom.surface_form,
            },
        }
        obj["match_score"] = c.evidence.match_score
    elif isinstance(c.evidence, VpcEvidence):
        obj["evidence"] = {
            "verb_index": c.evidence.verb_index,
            "particle_index": c.evidence.particle_index,
        }
    else:
        obj["evidence"] = {
            "verb_index": c.evidence.verb_index,
            "noun_index": c.evidence.noun_index,
        }
    return obj


def candidate_from_dict(obj: dict) -> VMWECandidate:
    try:
        category = Category(obj["category"])
        span = tuple(obj["span"])
        ev = obj["evidence"]
        if category is Category.VID:
            idiom = IdiomEntry(canonical=tuple(ev["idiom"]["canonical"]),
                               surface_form=ev["idiom"]["surface_form"])
            evidence: Evidence = VidEvidence(idiom=idiom,
                                             match_score=obj["match_score"])
        elif category is Category.VPC:
            evidence = VpcEvidence(verb_index=ev["verb_index"],
                                   particle_index=ev["particle_index"])
        else:
            evidence = LvcEvidence(verb_index=ev["verb_index"],
                                   noun_index=ev["noun_index"])
        return VMWECandidate(sentence_id=obj["sentence_id"], category=category,
                             span=span, evidence=evidence)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad candidate record: {exc}") from exc

