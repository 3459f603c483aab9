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
It also orders the corpus by raster scan at a line threshold factor of 4.0,
whose 48-point tolerance for 12-point words merges rows 30 points apart
(every factor from 0.1 to 2.0 gives the default's order), and draws a
training schedule with each mixture kind over two datasets of unequal size.

A second config, input/metrics.json, holds one dataset per remaining metric,
each with its own QA file over the same corpus. Each dataset serializes the
standard and shuffled orders with the budget its config gives, and is
predicted with the answer-key mock:

- ocrvqa (exact_match) has a genre question, which its answer-presence
  report must drop, and a yes/no question;
- chartqa (relaxed_accuracy) is also scored on a hand-written predictions
  file holding an error row and numbers within 5% of their golds;
- textvqa (vqa_accuracy) has panels where fewer than 3 answers match, and
  is predicted once more without logprobs.

analyze then contrasts ocrvqa and chartqa, whose median context lengths
differ. The whole pipeline then runs a second time against the corpus cache
the first run filled, parsing neither the corpus nor a QA file, and must
write the same bytes.
tests/golden/expected holds what the pipeline wrote; any change to a stage's
bytes has to update those files in the same change.
"""

import json
from pathlib import Path

from docqa import datasets, geometry
from docqa.cli import main

GOLDEN = Path(__file__).parent / "golden"
INPUT = GOLDEN / "input"
EXPECTED = GOLDEN / "expected"
STRATEGIES = ("standard", "raster_scan", "shuffled")
BACKENDS = ("mock-echo", "mock-answer-key")
BUDGET = 19
SEED = 7
THRESHOLD_FACTOR = 4.0
# Dataset sizes for the sample runs: under the normalized mixture the larger
# one is drawn far more often than under the uniform one.
SAMPLE_SIZES = ("small=3", "large=40")
SAMPLE_DRAWS = 12
# The metrics fixture's predict and eval runs: (dataset, contexts strategy,
# extra predict flags).
METRIC_RUNS = (
    ("ocrvqa", "standard", ()),
    ("ocrvqa", "shuffled", ()),
    ("chartqa", "standard", ()),
    ("chartqa", "shuffled", ()),
    ("textvqa", "standard", ()),
    ("textvqa", "standard", ("--no-logprobs",)),
)


def _run(*argv):
    code = main([str(a) for a in argv])
    assert code == 0, argv


def run_stages(out: Path) -> None:
    """Write every stage file of the fixture pipeline into `out`."""
    corpus, qa, config = INPUT / "corpus.jsonl", INPUT / "qa.jsonl", INPUT / "benchmarks.json"
    dataset = ("--dataset", "golden", "--datasets-config", config, "--seed", SEED)
    for strategy in STRATEGIES:
        orders = out / f"orders-{strategy}.jsonl"
        _run("order", "--corpus", corpus, "--strategy", strategy, "--seed", SEED,
             "--out", orders)
        _run("serialize", "--corpus", corpus, "--orders", orders, *dataset,
             "--out", out / f"contexts-{strategy}.jsonl")
    _run("order", "--corpus", corpus, "--strategy", "raster_scan",
         "--threshold-factor", THRESHOLD_FACTOR, "--seed", SEED,
         "--out", out / f"orders-raster_scan-{THRESHOLD_FACTOR}.jsonl")
    for name, strategy in dict.fromkeys((d, s) for d, s, _ in METRIC_RUNS):
        _run("serialize", "--corpus", corpus, "--orders", out / f"orders-{strategy}.jsonl",
             "--dataset", name, "--datasets-config", INPUT / "metrics.json",
             "--seed", SEED, "--out", out / f"contexts-{name}-{strategy}.jsonl")
    for strategy in STRATEGIES:
        contexts = out / f"contexts-{strategy}.jsonl"
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
    sizes = [flag for size in SAMPLE_SIZES for flag in ("--datasets", size)]
    for kind in ("uniform", "normalized"):
        _run("sample", *sizes, "--strategy", kind, "--draws", SAMPLE_DRAWS, "--seed", SEED,
             "--out", out / f"schedule-{kind}.jsonl")


def run_metric_stages(out: Path) -> None:
    """Score the metrics fixture on the contexts `run_stages` wrote into `out`."""
    config = INPUT / "metrics.json"
    for dataset, strategy, extra in METRIC_RUNS:
        qa = INPUT / f"qa-{dataset}.jsonl"
        contexts = out / f"contexts-{dataset}-{strategy}.jsonl"
        flags = ("--dataset", dataset, "--datasets-config", config, "--seed", SEED)
        name = f"{dataset}-{strategy}{'-no-logprobs' if extra else ''}.jsonl"
        _run("predict", "--qa", qa, "--contexts", contexts, "--backend", "mock-answer-key",
             *extra, *flags, "--out", out / f"predictions-{name}")
        _run("eval", "--qa", qa, "--predictions", out / f"predictions-{name}",
             "--contexts", contexts, *flags, "--out", out / f"eval-{name}")
    _run("eval", "--qa", INPUT / "qa-chartqa.jsonl",
         "--predictions", INPUT / "predictions-chartqa-handwritten.jsonl",
         "--contexts", out / "contexts-chartqa-standard.jsonl", "--dataset", "chartqa",
         "--datasets-config", config, "--seed", SEED,
         "--out", out / "eval-chartqa-handwritten.jsonl")
    analyze = ["analyze", "--seed", SEED, "--out", out / "analysis-ocrvqa-chartqa.json"]
    for dataset in ("ocrvqa", "chartqa"):
        analyze += ["--qa", INPUT / f"qa-{dataset}.jsonl"]
        for strategy in ("standard", "shuffled"):
            analyze += ["--eval", out / f"eval-{dataset}-{strategy}.jsonl"]
    _run(*analyze)


def _rows(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()[1:]]


def _differing(out):
    """Names of the files in `out` whose bytes differ from their golden file."""
    return [
        p.name for p in sorted(out.iterdir()) if p.read_bytes() != (EXPECTED / p.name).read_bytes()
    ]


def test_stage_outputs_match_goldens(tmp_path, corpus_cache, monkeypatch):
    cold, warm = tmp_path / "cold", tmp_path / "warm"
    cold.mkdir()
    warm.mkdir()
    run_stages(cold)
    run_metric_stages(cold)
    assert sorted(p.name for p in cold.iterdir()) == sorted(p.name for p in EXPECTED.iterdir())
    assert _differing(cold) == []
    # One entry for the corpus and one per QA file: every load but the first
    # of each file was a hit.
    qa_files = {"qa.jsonl", *(f"qa-{dataset}.jsonl" for dataset, _, _ in METRIC_RUNS)}
    assert len(list(corpus_cache.iterdir())) == 1 + len(qa_files)

    def refuse_to_parse(path):
        raise AssertionError(f"{path} was parsed with a warm cache")

    monkeypatch.setattr(geometry, "read_records", refuse_to_parse)
    monkeypatch.setattr(datasets, "read_records", refuse_to_parse)
    run_stages(warm)
    run_metric_stages(warm)
    assert sorted(p.name for p in warm.iterdir()) == sorted(p.name for p in EXPECTED.iterdir())
    assert _differing(warm) == []


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
    assert permutations(f"orders-raster_scan-{THRESHOLD_FACTOR}.jsonl") != permutations(
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

    for dataset, strategy, _ in METRIC_RUNS:
        contexts = EXPECTED / f"contexts-{dataset}-{strategy}.jsonl"
        header = json.loads(contexts.read_text().splitlines()[0])
        assert (header["dataset"], header["budget"]) == (dataset, BUDGET)
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
