from pathlib import Path

import pytest

from vmweval.corpus import load_corpus

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def corpus25():
    return load_corpus((FIXTURES / "corpus_25.conllu").read_text("utf-8"), "conllu")


# One summary line per acceptance criterion, whatever else the run did.
ACCEPTANCE_LABELS = {
    "test_criterion_1_table1_reproduction":
        "criterion 1: published classifier table reproduced cell for cell",
    "test_criterion_2_bleu_oracle_equivalence":
        "criterion 2: BLEU-4 matches the brute-force oracle on 1000 pairs",
    "test_criterion_3_znormalization_properties":
        "criterion 3: z-normalization mean-0/std-1 plus degenerate groups",
    "test_criterion_4_delta_conventions":
        "criterion 4: delta signs for both orientations and the published fixture",
    "test_criterion_5_extraction_fixture":
        "criterion 5: exact planted extraction sets on the 25-sentence corpus",
    "test_criterion_6_prompt_fidelity":
        "criterion 6: byte-identical prompts and final-answer parsing",
    "test_criterion_7_validity_taxonomy":
        "criterion 7: validity fixtures, 99.89 error rate, language detector",
    "test_criterion_8_end_to_end_determinism":
        "criterion 8: byte-identical run-all, golden report, exclusion rule",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = {}
    for outcome in ("passed", "failed"):
        for rep in terminalreporter.stats.get(outcome, []):
            if getattr(rep, "when", None) != "call":
                continue
            name = rep.nodeid.rsplit("::", 1)[-1]
            if name in ACCEPTANCE_LABELS:
                results[name] = "PASS" if outcome == "passed" else "FAIL"
    for rep in terminalreporter.stats.get("error", []):
        name = getattr(rep, "nodeid", "").rsplit("::", 1)[-1]
        if name in ACCEPTANCE_LABELS:
            results[name] = "FAIL"
    if not results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, label in ACCEPTANCE_LABELS.items():
        if name in results:
            terminalreporter.write_line(f"{results[name]}  {label}")
