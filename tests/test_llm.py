from collections import Counter
from types import SimpleNamespace

import pytest

from vmweval import llm
from vmweval.errors import (BackendContractError, ContractViolation,
                            TransportError, UnparseableResponse)
from vmweval.extract import (Category, extract_all, extract_lvc, extract_vpc,
                             match_idioms)
from vmweval.lexicon import (default_verb_lemmas, light_verb_set,
                             load_idiom_lexicon)
from vmweval.llm import (ACCEPT_CHOICE, CLASSIFY_TEMPERATURE, CLASSIFY_TOP_P,
                         PARAPHRASE_TEMPERATURE, PARAPHRASE_TOP_P, ChatMessage,
                         ChatRequest, MockChatBackend, classify_candidate,
                         paraphrase_candidate, parse_final_answer,
                         parse_rephrased, render_classification_prompt,
                         render_paraphrase_prompt)


class RecordingBackend:
    """Echoes a canned response and remembers the request."""

    model_id = "recorder"

    def __init__(self, response):
        self.response = response
        self.requests = []

    def complete(self, request):
        self.requests.append(request)
        return self.response


@pytest.fixture(scope="module")
def lexicon(fixtures_dir):
    with open(fixtures_dir / "idioms.txt", encoding="utf-8") as fh:
        return load_idiom_lexicon(fh, default_verb_lemmas())


def _golden(fixtures_dir, name):
    return (fixtures_dir / "golden_prompts" / name).read_bytes()


def test_classification_prompts_match_goldens(corpus25, lexicon, fixtures_dir):
    s01 = corpus25.by_id("s01")
    vid = match_idioms(s01, lexicon)[0]
    rendered = render_classification_prompt(Category.VID, vid, s01)
    assert rendered.encode("utf-8") == _golden(fixtures_dir,
                                               "classify_vid_s01.txt")

    s06 = corpus25.by_id("s06")
    vpc = extract_vpc(s06)[0]
    rendered = render_classification_prompt(Category.VPC, vpc, s06)
    assert rendered.encode("utf-8") == _golden(fixtures_dir,
                                               "classify_vpc_s06.txt")

    s10 = corpus25.by_id("s10")
    lvc = extract_lvc(s10, light_verb_set("dataset_six"))[0]
    rendered = render_classification_prompt(Category.LVC, lvc, s10)
    assert rendered.encode("utf-8") == _golden(fixtures_dir,
                                               "classify_lvc_s10.txt")


def test_paraphrase_prompts_match_goldens(corpus25, lexicon, fixtures_dir):
    s01 = corpus25.by_id("s01")
    vid = match_idioms(s01, lexicon)[0]
    assert render_paraphrase_prompt(Category.VID, vid, s01).encode("utf-8") == \
        _golden(fixtures_dir, "paraphrase_vid_s01.txt")

    s06 = corpus25.by_id("s06")
    vpc = extract_vpc(s06)[0]
    assert render_paraphrase_prompt(Category.VPC, vpc, s06).encode("utf-8") == \
        _golden(fixtures_dir, "paraphrase_vpc_s06.txt")

    s10 = corpus25.by_id("s10")
    lvc = extract_lvc(s10, light_verb_set("dataset_six"))[0]
    assert render_paraphrase_prompt(Category.LVC, lvc, s10).encode("utf-8") == \
        _golden(fixtures_dir, "paraphrase_lvc_s10.txt")


def test_prompt_rejects_foreign_candidate(corpus25, lexicon):
    s01 = corpus25.by_id("s01")
    vid = match_idioms(s01, lexicon)[0]
    with pytest.raises(ContractViolation):
        render_classification_prompt(Category.VID, vid, corpus25.by_id("s02"))
    # tokens past the end of the sentence given: refused as foreign before
    # either renderer reads that sentence
    s03_vid = match_idioms(corpus25.by_id("s03"), lexicon)[0]
    assert max(s03_vid.token_indices()) > len(s01.tokens)
    for render in (render_classification_prompt, render_paraphrase_prompt):
        with pytest.raises(ContractViolation, match="does not belong to sentence"):
            render(Category.VID, s03_vid, s01)


def test_prompt_rejects_mismatched_evidence(corpus25, lexicon):
    s01 = corpus25.by_id("s01")
    vid = match_idioms(s01, lexicon)[0]
    with pytest.raises(ContractViolation):
        render_classification_prompt(Category.LVC, vid, s01)


# --- answer parsing ----------------------------------------------------------

def test_accept_choices():
    assert ACCEPT_CHOICE == {Category.LVC: "C", Category.VPC: "D",
                             Category.VID: "Yes"}


@pytest.mark.parametrize("choice,expected", [
    ("A", False), ("B", False), ("C", True), ("D", False), ("E", False),
    ("F", False)])
def test_parse_lvc_alphabet(choice, expected):
    verdict, canonical = parse_final_answer(f"Final Answer: {choice}",
                                            Category.LVC)
    assert verdict is expected
    assert canonical == choice


@pytest.mark.parametrize("choice,expected", [
    ("A", False), ("B", False), ("C", False), ("D", True)])
def test_parse_vpc_alphabet(choice, expected):
    verdict, _ = parse_final_answer(f"Final Answer: {choice}", Category.VPC)
    assert verdict is expected


@pytest.mark.parametrize("choice,expected", [("Yes", True), ("No", False)])
def test_parse_vid_alphabet(choice, expected):
    verdict, _ = parse_final_answer(f"Final Answer: {choice}", Category.VID)
    assert verdict is expected


def test_parse_is_case_insensitive():
    assert parse_final_answer("FINAL ANSWER: yes", Category.VID) == (True, "Yes")
    assert parse_final_answer("final answer: c", Category.LVC) == (True, "C")
    # intervening words are not skipped, only non-alphabetic noise is
    with pytest.raises(UnparseableResponse):
        parse_final_answer("Final  Answer is D", Category.VPC)


def test_parse_uses_last_marker():
    response = ("Reasoning about Final Answer: A for a while...\n"
                "Final Answer: C")
    assert parse_final_answer(response, Category.LVC) == (True, "C")


def test_parse_takes_first_alphabetic_token():
    # bracket noise is skipped, words are not
    assert parse_final_answer("Final Answer: [C]", Category.LVC) == (True, "C")
    with pytest.raises(UnparseableResponse):
        parse_final_answer("Final Answer: the answer is C", Category.LVC)


def test_parse_unparseable_cases():
    with pytest.raises(UnparseableResponse):
        parse_final_answer("I refuse to answer.", Category.VID)
    with pytest.raises(UnparseableResponse):
        parse_final_answer("Final Answer: 42", Category.VPC)
    with pytest.raises(UnparseableResponse):
        parse_final_answer("Final Answer: G", Category.LVC)
    with pytest.raises(UnparseableResponse):
        parse_final_answer("Final Answer: Maybe", Category.VID)
    try:
        parse_final_answer("Final Answer: Q", Category.LVC)
    except UnparseableResponse as exc:
        assert exc.raw_response == "Final Answer: Q"


def test_parse_rephrased():
    text = "Sure.\nRephrased Sentence: He revealed the secret.\nDone."
    assert parse_rephrased(text) == "He revealed the secret."
    two = ("Rephrased Sentence: first try\n"
           "Actually better:\nRephrased Sentence:   second try  ")
    assert parse_rephrased(two) == "second try"
    with pytest.raises(UnparseableResponse):
        parse_rephrased("No marker here.")
    with pytest.raises(UnparseableResponse):
        parse_rephrased("Rephrased Sentence:\nnext line")


# --- request plumbing --------------------------------------------------------

def test_chat_request_validation():
    msg = (ChatMessage(role="user", content="hi"),)
    with pytest.raises(ContractViolation):
        ChatRequest(model_id="m", messages=msg, temperature=-0.1, top_p=1.0)
    with pytest.raises(ContractViolation):
        ChatRequest(model_id="m", messages=msg, temperature=0.0, top_p=1.5)
    req = ChatRequest(model_id="m", messages=msg, temperature=0.5, top_p=0.9)
    assert req.payload()["messages"] == [{"role": "user", "content": "hi"}]
    assert req.last_user_content() == "hi"


def test_classify_candidate_request_parameters(corpus25, lexicon):
    s01 = corpus25.by_id("s01")
    vid = match_idioms(s01, lexicon)[0]
    backend = RecordingBackend("Final Answer: Yes")
    assert vid.ref == "s01#VID#2.3.4"
    assert classify_candidate(backend, Category.VID, vid, s01) == {
        "verdict": True, "raw_choice": "Yes", "raw_response": "Final Answer: Yes"}
    request = backend.requests[0]
    assert request.temperature == CLASSIFY_TEMPERATURE == 0.0
    assert request.top_p == CLASSIFY_TOP_P == 1.0
    assert request.model_id == "recorder"
    assert len(request.messages) == 1 and request.messages[0].role == "user"
    assert "spilled the beans" in request.messages[0].content


def test_paraphrase_candidate_request_parameters(corpus25, lexicon):
    s01 = corpus25.by_id("s01")
    vid = match_idioms(s01, lexicon)[0]
    backend = RecordingBackend("Rephrased Sentence: He revealed the secret.")
    answer = paraphrase_candidate(backend, vid, s01)
    assert list(answer.items()) == [
        ("original", "He spilled the beans."),
        ("paraphrased", "He revealed the secret."),
        ("retains_candidate", False),
        ("raw_response", "Rephrased Sentence: He revealed the secret.")]
    request = backend.requests[0]
    assert request.temperature == PARAPHRASE_TEMPERATURE == 0.9
    assert request.top_p == PARAPHRASE_TOP_P == 0.9


def test_paraphrase_retention_flag(corpus25, lexicon):
    s01 = corpus25.by_id("s01")
    vid = match_idioms(s01, lexicon)[0]
    backend = RecordingBackend(
        "Rephrased Sentence: He spilled the beans again.")
    assert paraphrase_candidate(backend, vid, s01)["retains_candidate"] is True


def test_each_template_is_read_once(monkeypatch, corpus25, lexicon):
    reads = Counter()
    files = llm.resources.files

    class CountingPath:
        def __init__(self, path):
            self.path = path

        def joinpath(self, name):
            return CountingPath(self.path.joinpath(name))

        def read_text(self, encoding):
            reads[self.path.name] += 1
            return self.path.read_text(encoding)

    monkeypatch.setattr(llm, "resources", SimpleNamespace(
        files=lambda package: CountingPath(files(package))))
    llm._load_template.cache_clear()
    candidates = [(cand, sentence) for sentence in corpus25 for cand in
                  extract_all(sentence, lexicon, light_verb_set("dataset_six"))]
    assert all(n > 1 for n in Counter(c.category for c, _ in candidates).values())
    for cand, sentence in candidates:
        backend = RecordingBackend(f"Final Answer: {ACCEPT_CHOICE[cand.category]}\n"
                                   f"Rephrased Sentence: Something else.")
        assert classify_candidate(backend, cand.category, cand, sentence)["verdict"]
        assert paraphrase_candidate(backend, cand, sentence)["paraphrased"]
    assert reads == {f"{step}_{category.value.lower()}.txt": 1
                     for step in ("classify", "paraphrase") for category in Category}


# --- mock backend ------------------------------------------------------------

def _request(content):
    return ChatRequest(model_id="m",
                       messages=(ChatMessage(role="user", content=content),),
                       temperature=0.0, top_p=1.0)


def test_mock_backend_first_match_wins():
    backend = MockChatBackend({"rules": [
        {"match": "alpha", "response": "one"},
        {"match": "alp", "response": "two"},
    ]})
    assert backend.complete(_request("the alpha case")) == "one"


def test_mock_backend_default_and_missing_rule():
    with_default = MockChatBackend({"rules": [], "default": "fallback"})
    assert with_default.complete(_request("anything")) == "fallback"
    bare = MockChatBackend({"rules": []})
    with pytest.raises(BackendContractError):
        bare.complete(_request("anything"))


def test_mock_backend_scripted_failure():
    backend = MockChatBackend({"rules": [
        {"match": "boom", "response": "", "fail": True}]})
    with pytest.raises(TransportError):
        backend.complete(_request("boom goes the backend"))


def test_mock_backend_from_file(fixtures_dir):
    backend = MockChatBackend.from_file(fixtures_dir / "mock_llm_script.json",
                                        model_id="scripted")
    assert backend.model_id == "scripted"
    out = backend.complete(_request("... Combination: give up ..."))
    assert out.endswith("Final Answer: D")
