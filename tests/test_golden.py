"""Every stage file, byte for byte, against committed golden outputs.

golden/plan.txt holds the golden run, one docqa command per line, and
golden/replay.py replays it and compares what it writes with
golden/expected. The fixture in golden/input is three reading-ordered
documents:

- invoice-a has two columns whose rows share baselines, so the provided
  order (column by column) differs from the raster scan (row by row); it
  also carries the OCR word "new york" with an internal space;
- invoice-b asks the same "what is the total?" question as invoice-a, and
  each document holds only its own gold;
- memo-c is longer than the 19-token budget, and the word "los angeles"
  straddles the cut, so truncation must drop it whole.

The plan orders the corpus by raster scan at a line threshold factor of 4.0
as well, whose 48-point tolerance for 12-point words merges rows 30 points
apart (every factor from 0.1 to 2.0 gives the default's order), and draws a
training schedule with each mixture kind over two datasets of unequal size.

A second config, input/metrics.json, holds one dataset per remaining metric,
each with its own QA file over the same corpus, serialized with the budget
its config gives and predicted with the answer-key mock:

- ocrvqa (exact_match) has a genre question, which its answer-presence
  report must drop, and a yes/no question;
- chartqa (relaxed_accuracy) is also scored on a hand-written predictions
  file holding an error row and numbers within 5% of their golds;
- textvqa (vqa_accuracy) has panels where fewer than 3 answers match, and
  is predicted once more without logprobs.

analyze then contrasts ocrvqa and chartqa, whose median context lengths
differ. The whole plan then runs a second time against the corpus cache the
first run filled, parsing neither the corpus nor a QA file, and must write
the same bytes. Any change to a stage's bytes has to update golden/expected
in the same change.
"""

import json

import pytest
from golden import replay

from docqa import datasets, geometry
from docqa.cli import main

INPUT = replay.INPUT
EXPECTED = replay.EXPECTED
BUDGET = 19


def _rows(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()[1:]]


def test_stage_outputs_match_goldens(tmp_path, corpus_cache, monkeypatch):
    cold, warm = tmp_path / "cold", tmp_path / "warm"
    cold.mkdir()
    warm.mkdir()
    assert replay.replay(cold, main) == []
    # One entry per file loaded as a corpus or a QA file: every load but the
    # first of each file was a hit.
    loaded = {argv[i + 1] for _, _, _, argv in replay.read_plan()
              for i, arg in enumerate(argv) if arg in ("--corpus", "--qa")}
    assert len(loaded) == 5
    assert len(list(corpus_cache.iterdir())) == len(loaded)

    def refuse_to_parse(path):
        raise AssertionError(f"{path} was parsed with a warm cache")

    monkeypatch.setattr(geometry, "read_records", refuse_to_parse)
    monkeypatch.setattr(datasets, "read_records", refuse_to_parse)
    assert replay.replay(warm, main) == []


ORDER = "order --corpus {input}/corpus.jsonl --seed 7 --strategy"
STANDARD = f"{ORDER} standard --out orders-standard.jsonl"
REFUSED = f"{ORDER} standard --threshold-factor 4.0 --out refused.jsonl"


# Small plans against a copy of expected files, each with one mistake the
# replay must name, by file or by plan line.
@pytest.mark.parametrize("lines, expected, flip, problem", [
    ([STANDARD, f"exit=1 {REFUSED}"], ["orders-standard.jsonl"], False, None),
    ([STANDARD], ["orders-standard.jsonl"], True, "orders-standard.jsonl: differs from "),
    ([STANDARD, f"exit=2 {REFUSED}"], ["orders-standard.jsonl"], False,
     f"plan.txt line 2: exit 1, expected 2: exit=2 {REFUSED}"),
    ([STANDARD, f"{ORDER} shuffled --out orders-shuffled.jsonl"], ["orders-standard.jsonl"],
     False, "orders-shuffled.jsonl: not in "),
    ([STANDARD], ["orders-standard.jsonl", "orders-shuffled.jsonl"], False,
     "orders-shuffled.jsonl: missing from "),
], ids=["match", "flipped-byte", "wrong-exit", "stray-file", "missing-file"])
def test_replay_reports_each_mismatch(tmp_path, lines, expected, flip, problem):
    plan, golden, out = tmp_path / "plan.txt", tmp_path / "expected", tmp_path / "out"
    plan.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    golden.mkdir()
    out.mkdir()
    for name in expected:
        data = bytearray((EXPECTED / name).read_bytes())
        if flip:
            data[len(data) // 2] ^= 1
        (golden / name).write_bytes(data)
    problems = replay.replay(out, main, plan, golden)
    if problem is None:
        assert problems == []
    else:
        [found] = problems
        assert found.startswith(problem)


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
    config = json.loads((INPUT / "benchmarks.json").read_text())
    assert config["datasets"]["golden"]["context_budget"] == BUDGET

    def permutations(name):
        return [r["permutation"] for r in _rows(EXPECTED / name)]
    assert permutations("orders-raster_scan-4.0.jsonl") != permutations(
        "orders-raster_scan.jsonl")

    def draws_of_large(kind):
        return sum(r["dataset"] == "large" for r in _rows(EXPECTED / f"schedule-{kind}.jsonl"))
    assert draws_of_large("uniform") < draws_of_large("normalized")

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


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def test_metric_fixture_covers_its_edge_cases():
    datasets = json.loads((INPUT / "metrics.json").read_text())["datasets"]
    assert {name: d["metric"] for name, d in datasets.items()} == {
        "ocrvqa": "exact_match", "chartqa": "relaxed_accuracy", "textvqa": "vqa_accuracy",
    }
    qa = {
        name: [json.loads(line) for line in (INPUT / f"qa-{name}.jsonl").read_text().splitlines()]
        for name in datasets
    }
    ids = [json.loads(line)["example_id"]
           for path in INPUT.glob("qa*.jsonl") for line in path.read_text().splitlines()]
    assert len(ids) == len(set(ids))
    assert {"genre", "yes_no"} <= {flag for r in qa["ocrvqa"] for flag in r["flags"]}

    for name in datasets:
        for contexts in EXPECTED.glob(f"contexts-{name}-*.jsonl"):
            strategy = contexts.stem.removeprefix(f"contexts-{name}-")
            header = json.loads(contexts.read_text().splitlines()[0])
            assert (header["dataset"], header["budget"]) == (name, BUDGET)
            assert _rows(contexts) == _rows(EXPECTED / f"contexts-{strategy}.jsonl")

    predictions = _rows(EXPECTED / "predictions-textvqa-standard.jsonl")
    said = {r["example_id"]: r["text"] for r in predictions}
    assert any(0 < r["answers"].count(said[r["example_id"]]) < 3 for r in qa["textvqa"])

    golds = {r["example_id"]: r["answers"] for r in qa["chartqa"]}
    handwritten = _rows(INPUT / "predictions-chartqa-handwritten.jsonl")
    assert any("error" in r for r in handwritten)
    near = [
        r for r in handwritten if "text" in r
        for gold in map(_number, golds[r["example_id"]])
        if gold is not None and _number(r["text"]) not in (None, gold)
        and abs(_number(r["text"]) - gold) <= 0.05 * abs(gold)
    ]
    assert near
