import io
import json

import pytest

from vmweval.corpus import (Corpus, Sentence, Token, corpus_from_jsonl,
                            load_plain, parse_conllu,
                            sentence_from_dict, sentence_text,
                            sentence_to_dict, tokenize_plain)
from vmweval.errors import ContractViolation, ParseError


def test_fixture_parses(corpus25):
    assert len(corpus25) == 25
    assert [s.id for s in corpus25] == [f"s{i:02d}" for i in range(1, 26)]
    assert all(s.has_dependencies for s in corpus25)


def test_fixture_text_rendering(corpus25):
    assert corpus25.by_id("s01").text == "He spilled the beans."
    assert corpus25.by_id("s04").text == "He took the lion 's share of the profit."
    assert corpus25.by_id("s24").text == "After the meeting they hit the road."


def test_by_id_unknown(corpus25):
    with pytest.raises(ContractViolation):
        corpus25.by_id("s99")


def test_lemmas(corpus25):
    assert corpus25.by_id("s01").lemmas() == ["he", "spill", "the", "beans", "."]


def test_token_contracts():
    with pytest.raises(ContractViolation):
        Token(index=0, surface="x", lemma="x")
    with pytest.raises(ContractViolation):
        Token(index=1, surface="", lemma="x")
    with pytest.raises(ContractViolation):
        Token(index=2, surface="x", lemma="x", head=2, deprel="obj")
    with pytest.raises(ContractViolation):
        Token(index=1, surface="x", lemma="x", head=2)  # head without deprel


def test_sentence_contracts():
    t1 = Token(index=1, surface="Dogs", lemma="dog", upos="NOUN", head=2,
               deprel="nsubj")
    t2 = Token(index=2, surface="bark", lemma="bark", upos="VERB", head=0,
               deprel="root")
    s = Sentence(id="x", tokens=(t1, t2))
    assert s.text == "Dogs bark"
    with pytest.raises(ContractViolation):
        Sentence(id="x", tokens=(t2,))  # indices must run 1..n
    with pytest.raises(ContractViolation):
        Sentence(id="x", tokens=(t1, t2), text="Dogs bark loudly")
    # two roots
    r2 = Token(index=2, surface="bark", lemma="bark", upos="VERB", head=0,
               deprel="root")
    r1 = Token(index=1, surface="Dogs", lemma="dog", upos="NOUN", head=0,
               deprel="root")
    with pytest.raises(ContractViolation):
        Sentence(id="x", tokens=(r1, r2))
    # head outside the sentence
    o1 = Token(index=1, surface="Dogs", lemma="dog", upos="NOUN", head=5,
               deprel="nsubj")
    with pytest.raises(ContractViolation):
        Sentence(id="x", tokens=(o1, t2))


def test_sentence_text_attachment():
    toks = [Token(index=1, surface="He", lemma="he"),
            Token(index=2, surface="ran", lemma="run"),
            Token(index=3, surface=".", lemma=".")]
    assert sentence_text(toks) == "He ran."
    toks = [Token(index=1, surface="(", lemma="("),
            Token(index=2, surface="yes", lemma="yes"),
            Token(index=3, surface=")", lemma=")"),
            Token(index=4, surface="!", lemma="!")]
    # opening paren stays detached, closers attach leftward
    assert sentence_text(toks) == "( yes)!"


def test_tokenize_plain():
    assert tokenize_plain("Hello, world!") == ["Hello", ",", "world", "!"]
    assert tokenize_plain("(yes)") == ["(", "yes", ")"]
    assert tokenize_plain("arm's length") == ["arm's", "length"]
    assert tokenize_plain("...") == [".", ".", "."]
    assert tokenize_plain("") == []


def test_load_plain():
    corpus = load_plain(["The cat sat.", "", "Dogs bark!"])
    assert [s.id for s in corpus] == ["1", "2"]
    first = corpus.sentences[0]
    assert [t.surface for t in first.tokens] == ["The", "cat", "sat", "."]
    assert [t.lemma for t in first.tokens] == ["the", "cat", "sat", "."]
    assert not any(s.has_dependencies for s in corpus)


def test_parse_conllu_column_count():
    bad = "1\tHe\the\tPRON\t_\t_\t2\tnsubj\t_\n"  # 9 columns
    with pytest.raises(ParseError, match="line 1.*columns"):
        parse_conllu(io.StringIO(bad))


def test_parse_conllu_bad_head():
    bad = "1\tHe\the\tPRON\t_\t_\tX\tnsubj\t_\t_\n"
    with pytest.raises(ParseError, match="line 1"):
        parse_conllu(io.StringIO(bad))


def test_parse_conllu_skips_ranges_and_empty_nodes():
    text = (
        "# sent_id = a\n"
        "1-2\tdon't\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "1\tdo\tdo\tAUX\t_\t_\t2\taux\t_\t_\n"
        "1.1\tghost\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "2\tgo\tgo\tVERB\t_\t_\t0\troot\t_\t_\n"
    )
    corpus = parse_conllu(io.StringIO(text))
    assert [t.surface for t in corpus.sentences[0].tokens] == ["do", "go"]


def test_parse_conllu_underscore_lemma_falls_back():
    text = "1\tBeans\t_\tNOUN\t_\t_\t0\troot\t_\t_\n"
    corpus = parse_conllu(io.StringIO(text))
    assert corpus.sentences[0].tokens[0].lemma == "beans"


def test_parse_conllu_counter_ids():
    text = ("1\tHi\thi\tINTJ\t_\t_\t0\troot\t_\t_\n\n"
            "1\tBye\tbye\tINTJ\t_\t_\t0\troot\t_\t_\n")
    corpus = parse_conllu(io.StringIO(text))
    assert [s.id for s in corpus] == ["1", "2"]


def test_duplicate_sentence_ids_rejected():
    t = Token(index=1, surface="x", lemma="x")
    s1 = Sentence(id="a", tokens=(t,))
    with pytest.raises(ContractViolation):
        Corpus(sentences=(s1, s1))


def test_jsonl_round_trip(corpus25):
    # the lines stage_extract writes for its control sentences
    text = "".join(json.dumps(sentence_to_dict(s), ensure_ascii=False) + "\n"
                   for s in corpus25)
    back = corpus_from_jsonl(io.StringIO(text))
    assert back.sentences == corpus25.sentences


def test_sentence_dict_round_trip(corpus25):
    s = corpus25.by_id("s10")
    assert sentence_from_dict(sentence_to_dict(s)) == s


def test_corpus_from_jsonl_bad_record():
    with pytest.raises(ParseError, match="line 1"):
        corpus_from_jsonl(io.StringIO('{"id": "a"}\n'))
