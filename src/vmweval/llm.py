"""Prompted classification and paraphrasing of VMWE candidates.

Prompt templates ship as package data and are rendered by plain
placeholder substitution; nothing is added or reordered, so rendered
prompts are reproducible byte for byte.  Responses are parsed from the
trailing marker conventions the templates ask for ("Final Answer: ...",
"Rephrased Sentence: ...").
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cache
from importlib import resources
from typing import Protocol

from .corpus import Sentence
from .errors import (BackendContractError, ContractViolation, TransportError,
                     UnparseableResponse)
from .extract import (Category, LvcEvidence, VMWECandidate, VidEvidence,
                      VpcEvidence)
from .transport import post_json

CLASSIFY_TEMPERATURE = 0.0
CLASSIFY_TOP_P = 1.0
PARAPHRASE_TEMPERATURE = 0.9
PARAPHRASE_TOP_P = 0.9

# The choice that means "this candidate really is the category".
ACCEPT_CHOICE = {Category.LVC: "C", Category.VPC: "D", Category.VID: "Yes"}
_ALPHABET = {
    Category.LVC: ("A", "B", "C", "D", "E", "F"),
    Category.VPC: ("A", "B", "C", "D"),
    Category.VID: ("Yes", "No"),
}

_FINAL_ANSWER = re.compile(r"final\s+answer", re.IGNORECASE)
_REPHRASED = re.compile(r"rephrased\s+sentence\s*:", re.IGNORECASE)
_FIRST_WORD = re.compile(r"[A-Za-z]+")


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str


@dataclass(frozen=True)
class ChatRequest:
    model_id: str
    messages: tuple[ChatMessage, ...]
    temperature: float
    top_p: float

    def __post_init__(self):
        if not (0.0 <= self.temperature <= 2.0):
            raise ContractViolation(f"temperature out of range: {self.temperature}")
        if not (0.0 <= self.top_p <= 1.0):
            raise ContractViolation(f"top_p out of range: {self.top_p}")

    def payload(self) -> dict:
        return {
            "model": self.model_id,
            "messages": [{"role": m.role, "content": m.content} for m in self.messages],
            "temperature": self.temperature,
            "top_p": self.top_p,
        }

    def last_user_content(self) -> str:
        for message in reversed(self.messages):
            if message.role == "user":
                return message.content
        return ""


class ChatBackend(Protocol):
    model_id: str

    def complete(self, request: ChatRequest) -> str: ...


@cache  # six templates, each read once per process
def _load_template(name: str) -> str:
    return resources.files("vmweval").joinpath(f"templates/{name}.txt").read_text("utf-8")


def _render(template: str, values: dict[str, str]) -> str:
    rendered = template
    for key, value in values.items():
        rendered = rendered.replace("{" + key + "}", value)
    leftover = [key for key in ("sentence", "verb_lemma", "noun_lemma",
                                "particle", "candidate")
                if "{" + key + "}" in rendered]
    if leftover:
        raise ContractViolation(f"no value for placeholder(s) {leftover}")
    return rendered


def _prompt(step: str, category: Category, candidate: VMWECandidate,
            sentence: Sentence) -> str:
    """The `step` ("classify" or "paraphrase") prompt of `candidate` as a
    `category` candidate, checked to belong to `sentence` before any value
    is read from it."""
    if candidate.sentence_id != sentence.id:
        raise ContractViolation(
            f"candidate {candidate.ref} does not belong to sentence {sentence.id!r}")
    values = {"sentence": sentence.text}
    ev = candidate.evidence
    if step == "paraphrase" or (category is Category.VID
                                and isinstance(ev, VidEvidence)):
        values["candidate"] = candidate.surface(sentence)
    elif category is Category.LVC and isinstance(ev, LvcEvidence):
        values["verb_lemma"] = sentence.tokens[ev.verb_index - 1].lemma
        values["noun_lemma"] = sentence.tokens[ev.noun_index - 1].lemma
    elif category is Category.VPC and isinstance(ev, VpcEvidence):
        values["verb_lemma"] = sentence.tokens[ev.verb_index - 1].lemma
        values["particle"] = sentence.tokens[ev.particle_index - 1].surface
    else:
        raise ContractViolation(
            f"candidate {candidate.ref} carries {type(ev).__name__}, "
            f"not {category.value} evidence")
    return _render(_load_template(f"{step}_{category.value.lower()}"), values)


def render_classification_prompt(category: Category, candidate: VMWECandidate,
                                 sentence: Sentence) -> str:
    return _prompt("classify", category, candidate, sentence)


def render_paraphrase_prompt(category: Category, candidate: VMWECandidate,
                             sentence: Sentence) -> str:
    return _prompt("paraphrase", category, candidate, sentence)


def parse_final_answer(response: str, category: Category) -> tuple[bool, str]:
    """Read the choice after the last "Final Answer" marker.

    The first alphabetic token after the marker is the choice; anything
    outside the category's alphabet is unparseable.  Returns
    (verdict, canonical choice).
    """
    matches = list(_FINAL_ANSWER.finditer(response))
    if not matches:
        raise UnparseableResponse("no Final Answer marker", raw_response=response)
    tail = response[matches[-1].end():]
    word = _FIRST_WORD.search(tail)
    if not word:
        raise UnparseableResponse("no choice after Final Answer", raw_response=response)
    token = word.group(0)
    if category is Category.VID:
        canonical = token.capitalize()
    else:
        canonical = token.upper()
    if canonical not in _ALPHABET[category]:
        raise UnparseableResponse(f"choice {token!r} outside the "
                                  f"{category.value} alphabet", raw_response=response)
    return canonical == ACCEPT_CHOICE[category], canonical


def parse_rephrased(response: str) -> str:
    """Text after the last "Rephrased Sentence:" marker, to end of line."""
    matches = list(_REPHRASED.finditer(response))
    if not matches:
        raise UnparseableResponse("no Rephrased Sentence marker",
                                  raw_response=response)
    line = response[matches[-1].end():].split("\n", 1)[0].strip()
    if not line:
        raise UnparseableResponse("empty rephrased sentence", raw_response=response)
    return line


def _chat(client: ChatBackend, prompt: str, temperature: float, top_p: float) -> str:
    request = ChatRequest(
        model_id=getattr(client, "model_id", "default"),
        messages=(ChatMessage(role="user", content=prompt),),
        temperature=temperature,
        top_p=top_p,
    )
    return client.complete(request)


def classify_candidate(client: ChatBackend, category: Category,
                       candidate: VMWECandidate, sentence: Sentence) -> dict:
    """The classification record's answer fields: verdict, raw_choice and
    raw_response."""
    prompt = render_classification_prompt(category, candidate, sentence)
    response = _chat(client, prompt, CLASSIFY_TEMPERATURE, CLASSIFY_TOP_P)
    verdict, choice = parse_final_answer(response, category)
    return {"verdict": verdict, "raw_choice": choice, "raw_response": response}


def paraphrase_candidate(client: ChatBackend, candidate: VMWECandidate,
                         sentence: Sentence) -> dict:
    """The paraphrase record's answer fields, in its order: original,
    paraphrased, retains_candidate and raw_response."""
    prompt = render_paraphrase_prompt(candidate.category, candidate, sentence)
    response = _chat(client, prompt, PARAPHRASE_TEMPERATURE, PARAPHRASE_TOP_P)
    paraphrased = parse_rephrased(response)
    return {"original": sentence.text, "paraphrased": paraphrased,
            "retains_candidate": candidate.surface(sentence) in paraphrased,
            "raw_response": response}


class HttpChatBackend:
    """POSTs the familiar chat-completion JSON shape and retries once."""

    def __init__(self, base_url: str, model_id: str, api_key: str | None = None,
                 timeout: float = 60.0):
        self.base_url = base_url
        self.model_id = model_id
        self.api_key = api_key
        self.timeout = timeout

    def complete(self, request: ChatRequest) -> str:
        body = post_json(self.base_url, request.payload(), self.api_key,
                         self.timeout, "chat")
        try:
            content = body["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise BackendContractError(
                f"chat response missing choices[0].message.content: {exc}")
        if not isinstance(content, str):
            raise BackendContractError(
                "chat response choices[0].message.content is not a string")
        return content


class MockChatBackend:
    """Scripted stand-in: substring rules against the user prompt.

    The script is JSON: {"rules": [{"match": ..., "response": ...}],
    "default": ...}.  A rule may carry "fail": true to simulate a
    transport failure instead of answering.
    """

    def __init__(self, script: dict, model_id: str = "mock-chat"):
        self.model_id = model_id
        self.rules = script.get("rules", [])
        self.default = script.get("default")

    @classmethod
    def from_file(cls, path, model_id: str = "mock-chat"):
        with open(path, encoding="utf-8") as fh:
            try:
                script = json.load(fh)
            except ValueError as exc:  # not JSON, or not UTF-8
                raise ContractViolation(
                    f"mock chat script {path} is not JSON: {exc}") from None
        rules = script.get("rules", []) if isinstance(script, dict) else None
        if not isinstance(rules, list) or not all(
                isinstance(rule, dict) and isinstance(rule.get("match"), str)
                and (isinstance(rule.get("response"), str) or rule.get("fail") is True)
                for rule in rules) or not isinstance(script.get("default", ""), str):
            raise ContractViolation(
                f"mock chat script {path} must be an object whose rules each hold "
                'a string "match" and a string "response" or "fail": true, and '
                'whose "default", if any, is a string')
        return cls(script, model_id=model_id)

    def complete(self, request: ChatRequest) -> str:
        prompt = request.last_user_content()
        for rule in self.rules:
            if rule["match"] in prompt:
                if rule.get("fail"):
                    raise TransportError("scripted transport failure")
                return rule["response"]
        if self.default is not None:
            return self.default
        raise BackendContractError("mock chat script has no rule for this prompt")
