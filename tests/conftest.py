"""Shared fixtures: a synthetic benchmark small enough to push through the
whole pipeline in-process, a corpus cache of each test's own, plus the
acceptance summary printer."""

import json

import pytest
from layouts import corpus_record


@pytest.fixture(autouse=True)
def corpus_cache(tmp_path_factory, monkeypatch):
    """An empty corpus cache for each test, outside its tmp_path, so no test
    reads or writes the user's cache; subprocesses inherit it."""
    root = tmp_path_factory.mktemp("xdg-cache")
    monkeypatch.setenv("XDG_CACHE_HOME", str(root))
    return root / "docqa" / "corpus"


def phrase_words(name, d, j):
    """The two-word gold phrase for QA j of document d."""
    return (f"g{name}{d}x{j}", f"h{name}{d}x{j}")


def toy_document(name, d, words_per_doc, qa_per_doc):
    """One synthetic page as a corpus record, words on a single
    left-to-right line.

    Gold phrases sit adjacently at the front; the rest is filler with
    globally unique texts, so a phrase is findable in the context iff
    the serialization kept its two words next to each other.
    """
    texts = []
    for j in range(qa_per_doc):
        texts.extend(phrase_words(name, d, j))
    k = 0
    while len(texts) < words_per_doc:
        texts.append(f"f{name}{d}w{k}")
        k += 1
    boxes = [(10.0 * i, 0.0, 10.0 * i + 8.0, 8.0) for i in range(len(texts))]
    return corpus_record(f"{name}-d{d}", texts, boxes, reading_ordered=True)


def toy_benchmark(name, n_docs, words_per_doc, qa_per_doc=2):
    """Corpus records plus QA dicts whose answers sit verbatim in the text."""
    docs = []
    qa = []
    for d in range(n_docs):
        docs.append(toy_document(name, d, words_per_doc, qa_per_doc))
        for j in range(qa_per_doc):
            qa.append(
                {
                    "example_id": f"{name}-e{d}-{j}",
                    "doc_id": f"{name}-d{d}",
                    "question": f"{name} q{d} {j}?",
                    "answers": [" ".join(phrase_words(name, d, j))],
                    "flags": [],
                }
            )
    return docs, qa


def write_dataset_config(path, names, metric="exact_match", context_budget=1024,
                         target_budget=32, anls_tau=0.5):
    payload = {
        "version": 1,
        "datasets": {
            name: {
                "metric": metric,
                "context_budget": context_budget,
                "target_budget": target_budget,
                "anls_tau": anls_tau,
            }
            for name in names
        },
    }
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def write_records(path, records):
    """A JSONL file with one line per record, written as given: no header is
    added, and no value is checked."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False))
            handle.write("\n")


_OUTCOME_LABELS = {"passed": "PASS", "failed": "FAIL", "skipped": "SKIP"}
_acceptance_outcomes = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py::" not in report.nodeid:
        return
    # A setup/teardown error should surface as a failure, not vanish.
    if report.when == "call" or report.outcome != "passed":
        _acceptance_outcomes.setdefault(report.nodeid, report.outcome)


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for nodeid in sorted(_acceptance_outcomes):
        name = nodeid.split("::")[-1].removeprefix("test_").replace("_", " ")
        label = _OUTCOME_LABELS.get(_acceptance_outcomes[nodeid], "FAIL")
        terminalreporter.write_line(f"{label}  {name}")
