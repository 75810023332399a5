"""Corpus model and loaders.

Two input shapes are supported: CoNLL-U (10-column TSV with dependency
arcs) and plain text (one sentence per line, no syntax).  Both produce the
same Sentence records; `has_dependencies` tells downstream extractors
whether head/deprel information is available.  Sentences also go to and
from the JSON records extract writes as controls.
"""
from __future__ import annotations

import string
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import ParseError, ContractViolation

# Tokens made only of these characters attach to the previous token when a
# sentence is rendered back to text.  Quote characters are ambiguous
# (opening or closing) and stay space-separated; so does anything
# non-ASCII, which keeps pre-spaced corpus text like "He 's dead" intact.
_CLOSING_PUNCT = set(".,;:!?)]}")

# load_plain splits these off the edges of whitespace chunks.  The
# apostrophe is exempt so clitics ("'s", "n't") survive as single tokens.
_SPLIT_PUNCT = set(string.punctuation) - {"'"}


@dataclass(frozen=True)
class Token:
    """One token; head/deprel/upos are None when no parse is available."""

    index: int
    surface: str
    lemma: str
    upos: str | None = None
    head: int | None = None
    deprel: str | None = None

    def __post_init__(self):
        if self.index < 1:
            raise ContractViolation(f"token index must be >= 1, got {self.index}")
        if not self.surface:
            raise ContractViolation("token surface must be non-empty")
        if self.head is not None:
            if self.head < 0:
                raise ContractViolation(f"token head must be >= 0, got {self.head}")
            if self.head == self.index:
                raise ContractViolation(f"token {self.index} governs itself")
            if self.head > 0 and not self.deprel:
                raise ContractViolation(f"token {self.index} has a head but no deprel")


@dataclass(frozen=True)
class Sentence:
    id: str
    tokens: tuple[Token, ...]
    text: str = ""

    def __post_init__(self):
        if not self.tokens:
            raise ContractViolation(f"sentence {self.id!r} has no tokens")
        for pos, tok in enumerate(self.tokens, start=1):
            if tok.index != pos:
                raise ContractViolation(
                    f"sentence {self.id!r}: token indices must run 1..n, "
                    f"found {tok.index} at position {pos}")
        if self.has_dependencies:
            n = len(self.tokens)
            roots = [t.index for t in self.tokens if t.head == 0]
            if len(roots) != 1:
                raise ContractViolation(
                    f"sentence {self.id!r}: expected exactly one root, got {roots}")
            for t in self.tokens:
                if t.head > n:
                    raise ContractViolation(
                        f"sentence {self.id!r}: token {t.index} points outside "
                        f"the sentence (head {t.head})")
        rendered = sentence_text(self.tokens)
        if not self.text:
            object.__setattr__(self, "text", rendered)
        elif self.text != rendered:
            raise ContractViolation(
                f"sentence {self.id!r}: text does not match its tokens")

    @property
    def has_dependencies(self) -> bool:
        return all(t.head is not None and t.deprel is not None for t in self.tokens)

    def lemmas(self) -> list[str]:
        return [t.lemma for t in self.tokens]


@dataclass(frozen=True)
class Corpus:
    sentences: tuple[Sentence, ...]
    _by_id: dict[str, Sentence] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        by_id: dict[str, Sentence] = {}
        for s in self.sentences:
            if s.id in by_id:
                raise ContractViolation(f"duplicate sentence id {s.id!r}")
            by_id[s.id] = s
        object.__setattr__(self, "_by_id", by_id)

    def __len__(self):
        return len(self.sentences)

    def __iter__(self) -> Iterator[Sentence]:
        return iter(self.sentences)

    def by_id(self, sentence_id: str) -> Sentence:
        try:
            return self._by_id[sentence_id]
        except KeyError:
            raise ContractViolation(
                f"unknown sentence id {sentence_id!r}") from None


def sentence_text(tokens: Iterable[Token]) -> str:
    """Render token surfaces back to a single line.

    Joins with single spaces, except that closing punctuation attaches to
    the preceding token.  Spacing is reconstructed, never read from the
    input, so the result is stable under repeated tokenize/render cycles.
    """
    parts: list[str] = []
    for tok in tokens:
        surface = tok.surface
        if parts and surface and all(c in _CLOSING_PUNCT for c in surface):
            parts[-1] += surface
        else:
            parts.append(surface)
    return " ".join(parts)


def _split_chunk(chunk: str) -> list[str]:
    lead: list[str] = []
    trail: list[str] = []
    while len(chunk) > 1 and chunk[0] in _SPLIT_PUNCT:
        lead.append(chunk[0])
        chunk = chunk[1:]
    while len(chunk) > 1 and chunk[-1] in _SPLIT_PUNCT:
        trail.append(chunk[-1])
        chunk = chunk[:-1]
    return lead + [chunk] + trail[::-1]


def tokenize_plain(line: str) -> list[str]:
    """Whitespace split, then peel leading/trailing ASCII punctuation."""
    out: list[str] = []
    for chunk in line.split():
        out.extend(_split_chunk(chunk))
    return out


def load_plain(lines: Iterable[str]) -> Corpus:
    """Build an unparsed corpus from raw text, one sentence per line.

    Lemmas are lowercased surfaces; blank lines are skipped; ids are the
    1-based positions of the non-blank lines.
    """
    sentences = []
    counter = 0
    for line in lines:
        line = line.strip()
        if not line:
            continue
        counter += 1
        tokens = tuple(
            Token(index=i, surface=surf, lemma=surf.lower())
            for i, surf in enumerate(tokenize_plain(line), start=1))
        sentences.append(Sentence(id=str(counter), tokens=tokens))
    return Corpus(sentences=tuple(sentences))


def _is_int(value: str) -> bool:
    try:
        int(value)
    except ValueError:
        return False
    return True


def parse_conllu(lines: Iterable[str]) -> Corpus:
    """Parse CoNLL-U text into a dependency corpus.

    Keeps columns 1-2 (index, surface), 3 (lemma), 4 (upos), 7 (head) and
    8 (deprel).  Multiword-token ranges ("3-4") and empty nodes ("5.1")
    are skipped.  A `# sent_id = ...` comment names the sentence;
    otherwise a running counter does.
    """
    sentences: list[Sentence] = []
    pending: list[Token] = []
    pending_id: str | None = None
    counter = 0

    def flush(line_no):
        nonlocal pending, pending_id, counter
        if not pending:
            pending_id = None
            return
        counter += 1
        sid = pending_id if pending_id is not None else str(counter)
        try:
            sentences.append(Sentence(id=sid, tokens=tuple(pending)))
        except ContractViolation as exc:
            raise ParseError(str(exc), line=line_no) from exc
        pending = []
        pending_id = None

    line_no = 0
    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            flush(line_no)
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("sent_id"):
                _, _, value = body.partition("=")
                if value.strip():
                    pending_id = value.strip()
            continue
        cols = line.split("\t")
        if len(cols) != 10:
            raise ParseError(f"expected 10 columns, got {len(cols)}", line=line_no)
        idx = cols[0]
        if "-" in idx or "." in idx:
            continue
        if not _is_int(idx):
            raise ParseError(f"bad token index {idx!r}", line=line_no)
        if not _is_int(cols[6]):
            raise ParseError(f"bad head {cols[6]!r}", line=line_no)
        surface = cols[1]
        lemma = cols[2] if cols[2] != "_" else surface.lower()
        try:
            pending.append(Token(
                index=int(idx),
                surface=surface,
                lemma=lemma,
                upos=cols[3],
                head=int(cols[6]),
                deprel=cols[7],
            ))
        except ContractViolation as exc:
            raise ParseError(str(exc), line=line_no) from exc
    flush(line_no + 1)
    return Corpus(sentences=tuple(sentences))


def load_corpus(text: str, fmt: str) -> Corpus:
    """The corpus in `text`, a file's text with "\n" newlines, in one of the
    formats conllu and plain."""
    lines = text.split("\n")  # not splitlines(): "\x85" may sit in a field
    if fmt == "conllu":
        return parse_conllu(lines)
    if fmt == "plain":
        return load_plain(lines)
    raise ContractViolation(f"unknown corpus format {fmt!r}")


def token_to_dict(tok: Token) -> dict:
    return {
        "index": tok.index,
        "surface": tok.surface,
        "lemma": tok.lemma,
        "upos": tok.upos,
        "head": tok.head,
        "deprel": tok.deprel,
    }


def sentence_to_dict(s: Sentence) -> dict:
    return {"id": s.id, "text": s.text, "tokens": [token_to_dict(t) for t in s.tokens]}


def sentence_from_dict(obj: dict) -> Sentence:
    """The sentence of a record its records table passed."""
    tokens = tuple(
        Token(
            index=t["index"],
            surface=t["surface"],
            lemma=t["lemma"],
            upos=t["upos"],
            head=t["head"],
            deprel=t["deprel"],
        )
        for t in obj["tokens"])
    return Sentence(id=obj["id"], tokens=tokens, text=obj.get("text", ""))


def corpus_from_records(records: Iterable[dict]) -> Corpus:
    """The corpus of sentence records its records table passed."""
    return Corpus(sentences=tuple(map(sentence_from_dict, records)))
