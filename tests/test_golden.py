"""Every stage file, byte for byte, against committed golden outputs.

The fixture in tests/golden/input is three reading-ordered documents:

- invoice-a has two columns whose rows share baselines, so the provided
  order (column by column) differs from the raster scan (row by row); it
  also carries the OCR word "new york" with an internal space;
- invoice-b asks the same "what is the total?" question as invoice-a, and
  each document holds only its own gold;
- memo-c is longer than the 19-token budget, and the word "los angeles"
  straddles the cut, so truncation must drop it whole.

The pipeline runs order, serialize, predict and eval for every strategy
with both mock backends, then analyze per backend and reference strategy.
tests/golden/expected holds what the pipeline wrote; any change to a stage's
bytes has to update those files in the same change.
"""

import json
from pathlib import Path

from docqa.cli import main

GOLDEN = Path(__file__).parent / "golden"
INPUT = GOLDEN / "input"
EXPECTED = GOLDEN / "expected"
STRATEGIES = ("standard", "raster_scan", "shuffled")
BACKENDS = ("mock-echo", "mock-answer-key")
BUDGET = 19
SEED = 7


def _run(*argv):
    code = main([str(a) for a in argv])
    assert code == 0, argv


def run_stages(out: Path) -> None:
    """Write every stage file of the fixture pipeline into `out`."""
    corpus, qa, config = INPUT / "corpus.jsonl", INPUT / "qa.jsonl", INPUT / "benchmarks.json"
    dataset = ("--dataset", "golden", "--datasets-config", config, "--seed", SEED)
    for strategy in STRATEGIES:
        orders = out / f"orders-{strategy}.jsonl"
        contexts = out / f"contexts-{strategy}.jsonl"
        _run("order", "--corpus", corpus, "--strategy", strategy, "--seed", SEED,
             "--out", orders)
        _run("serialize", "--corpus", corpus, "--orders", orders, "--budget", BUDGET,
             *dataset, "--out", contexts)
        for backend in BACKENDS:
            predictions = out / f"predictions-{strategy}-{backend}.jsonl"
            _run("predict", "--qa", qa, "--contexts", contexts, "--backend", backend,
                 *dataset, "--out", predictions)
            _run("eval", "--qa", qa, "--predictions", predictions, "--contexts", contexts,
                 *dataset, "--out", out / f"eval-{strategy}-{backend}.jsonl")
    for backend in BACKENDS:
        for reference in ("standard", "raster_scan"):
            _run("analyze", "--qa", qa,
                 "--eval", out / f"eval-{reference}-{backend}.jsonl",
                 "--eval", out / f"eval-shuffled-{backend}.jsonl",
                 "--seed", SEED, "--out", out / f"analysis-{reference}-{backend}.json")


def _rows(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()[1:]]


def test_stage_outputs_match_goldens(tmp_path):
    run_stages(tmp_path)
    expected = sorted(p.name for p in EXPECTED.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
    differing = [
        name for name in expected
        if (tmp_path / name).read_bytes() != (EXPECTED / name).read_bytes()
    ]
    assert differing == []


def test_fixture_covers_its_edge_cases():
    docs = [json.loads(line) for line in (INPUT / "corpus.jsonl").read_text().splitlines()]
    assert len(docs) >= 3 and all(doc["reading_ordered"] for doc in docs)
    assert any(" " in word["text"] for doc in docs for word in doc["words"])

    standard = {r["doc_id"]: r for r in _rows(EXPECTED / "contexts-standard.jsonl")}
    raster = {r["doc_id"]: r for r in _rows(EXPECTED / "contexts-raster_scan.jsonl")}
    assert any(raster[d]["context"] != standard[d]["context"] for d in standard)
    words_per_doc = {doc["doc_id"]: sum(len(w["text"].split()) for w in doc["words"])
                     for doc in docs}
    assert any(r["token_count"] < words_per_doc[d] for d, r in standard.items())
    assert all(r["token_count"] <= BUDGET for r in standard.values())

    records = [json.loads(line) for line in (INPUT / "qa.jsonl").read_text().splitlines()]
    by_question = {}
    for record in records:
        by_question.setdefault(record["question"], []).append(record)
    shared = [group for group in by_question.values() if len({r["doc_id"] for r in group}) > 1]
    assert shared
    for group in shared:
        for record in group:
            for other in group:
                present = other["answers"][0] in standard[record["doc_id"]]["context"]
                assert present == (other is record)
