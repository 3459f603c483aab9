"""Seeded inputs and stage plans for the pipeline benchmark.

A workload is a corpus JSONL, a QA JSONL and a dataset config, all made from
the seed alone, plus the list of `docqa` commands that run over them. The
program under test only ever sees the generated files.

Pages are grids of cells: `columns` columns side by side, each column a stack
of rows holding `words_per_cell` words. The reading order is column-major
(down the first column, then the next); a raster scan instead reads each row
across all columns. Gold answers are multi-word phrases that sit inside one
cell row, so they are contiguous in both orders. A fixed share of each page's
questions comes from a small pool of stock questions ("what is the total?"),
so the same question text recurs across documents as it does in real DocVQA
data.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from pathlib import Path

DATASET = "bench"
ANLS_TAU = 0.5

# Stock questions shared across documents.
SHARED_QUESTIONS = (
    "what is the total?",
    "what is the date?",
    "who is the sender?",
    "what is the invoice number?",
    "what is the address?",
    "what is the subtotal?",
    "who signed the form?",
    "what is the due date?",
    "what is the account number?",
    "who is the recipient?",
    "what is the phone number?",
    "what is the tax amount?",
)

# Page geometry in pixels. Centroids jitter by at most JITTER_Y, so two words
# of one row differ by at most 2 * JITTER_Y < HEIGHT / 2, the default raster
# line tolerance, while neighbouring rows are ROW_PITCH apart.
CHAR_W = 6.0
GAP = 6.0
HEIGHT = 10.0
ROW_PITCH = 16.0
JITTER_Y = 1.5
MAX_WORD_CHARS = 12
COLUMN_GUTTER = 40.0


@dataclass(frozen=True)
class Shape:
    """Size and layout of one workload's inputs.

    shared_per_page of each page's qa_per_page questions are stock questions
    (about a quarter in every workload); the rest are unique to their page.
    """

    pages: int
    words_per_page: int
    qa_per_page: int
    columns: int
    words_per_cell: int
    reading_ordered: bool
    shared_per_page: int
    budget: int = 1024


SHAPES = {
    # Dense multi-column pages in shuffled file order: raster scan and corpus
    # ingestion dominate, every context exceeds the 1024-word budget.
    "raster_dense": Shape(
        pages=8, words_per_page=3000, qa_per_page=50, columns=4, words_per_cell=5,
        reading_ordered=False, shared_per_page=12,
    ),
    # The shuffle ablation: many short reading-ordered pages with many
    # questions each; no truncation, no raster scan.
    "qa_heavy": Shape(
        pages=100, words_per_page=300, qa_per_page=20, columns=1, words_per_cell=10,
        reading_ordered=True, shared_per_page=5,
    ),
    # A small corpus with many questions, answered by the mock HTTP endpoint.
    "http_predict": Shape(
        pages=20, words_per_page=400, qa_per_page=20, columns=1, words_per_cell=10,
        reading_ordered=True, shared_per_page=5,
    ),
}


def tiny(shape: Shape) -> Shape:
    """The same layout at a size that runs in well under a second."""
    return replace(
        shape,
        pages=3,
        words_per_page=min(shape.words_per_page, 120),
        qa_per_page=min(shape.qa_per_page, 4),
        shared_per_page=min(shape.shared_per_page, 2),
        budget=min(shape.budget, 60),
    )


_ONSETS = "b c d f g h k l m n p r s t v w z br ch cl dr fl gr pl pr sh st th tr".split()
_NUCLEI = "a e i o u ai ea oo ou".split()
_CODAS = "n r s t l k m".split()


def _vocabulary(rng: random.Random, size: int = 4000) -> list[str]:
    words: set[str] = set()
    while len(words) < size:
        word = "".join(
            rng.choice(_ONSETS) + rng.choice(_NUCLEI) for _ in range(rng.choice((1, 2, 2, 3)))
        )
        if rng.random() < 0.3:
            word += rng.choice(_CODAS)
        if len(word) <= MAX_WORD_CHARS:
            words.add(word)
    return sorted(words)


def _token(rng: random.Random, vocab: list[str]) -> str:
    roll = rng.random()
    if roll < 0.06:
        return f"{rng.randrange(1, 100000):,}"
    if roll < 0.09:
        return f"${rng.randrange(1, 10000)}.{rng.randrange(100):02d}"
    if roll < 0.11:
        return f"20{rng.randrange(10, 30)}-{rng.randrange(1, 13):02d}-{rng.randrange(1, 29):02d}"
    return rng.choice(vocab)


def _page(rng: random.Random, vocab: list[str], shape: Shape, doc_no: int):
    """One page: (corpus record, reading-order texts, cell-row spans)."""
    n = shape.words_per_page
    per_cell = shape.words_per_cell
    rows = -(-n // (shape.columns * per_cell))
    column_width = per_cell * (MAX_WORD_CHARS * CHAR_W + GAP) + COLUMN_GUTTER
    texts = [_token(rng, vocab) for _ in range(n)]
    words = []
    spans = []
    x = 0.0
    for position, text in enumerate(texts):
        column, rest = divmod(position, rows * per_cell)
        row, slot = divmod(rest, per_cell)
        if slot == 0:
            x = column * column_width + rng.uniform(0.0, 4.0)
            spans.append((position, min(position + per_cell, n)))
        y = row * ROW_PITCH + rng.uniform(-JITTER_Y, JITTER_Y)
        width = CHAR_W * len(text)
        words.append({"text": text, "box": [round(x, 2), round(y, 2),
                                            round(x + width, 2), round(y + HEIGHT, 2)]})
        x += width + GAP
    if not shape.reading_ordered:
        rng.shuffle(words)
    record = {
        "doc_id": f"doc{doc_no:04d}",
        "reading_ordered": shape.reading_ordered,
        "words": words,
    }
    return record, texts, spans


def _questions(rng, shape: Shape, doc_id: str, doc_no: int, texts, spans, vocab):
    shared = rng.sample(SHARED_QUESTIONS, shape.shared_per_page)
    out = []
    for j in range(shape.qa_per_page):
        start, end = rng.choice(spans)
        length = min(rng.choice((2, 2, 3, 3, 4)), end - start)
        first = start + rng.randrange(end - start - length + 1)
        phrase = texts[first : first + length]
        answers = [" ".join(phrase)]
        if length > 2 and rng.random() < 0.3:
            answers.append(" ".join(phrase[1:]))
        if j < len(shared):
            question = shared[j]
        else:
            question = (
                f"what is listed under {rng.choice(vocab)} {rng.choice(vocab)} "
                f"on page {doc_no} item {j}?"
            )
        out.append(
            {
                "example_id": f"{doc_id}-q{j:02d}",
                "doc_id": doc_id,
                "question": question,
                "answers": answers,
                "flags": [],
            }
        )
    return out


def _write_jsonl(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, separators=(",", ":")))
            handle.write("\n")


def generate(workload: str, seed: int, shape: Shape, out_dir: Path) -> dict:
    """Write corpus.jsonl, qa.jsonl and datasets.json; return their paths."""
    rng = random.Random(f"{workload}/{seed}")
    vocab = _vocabulary(rng)
    corpus = []
    qa = []
    for doc_no in range(shape.pages):
        record, texts, spans = _page(rng, vocab, shape, doc_no)
        corpus.append(record)
        qa.extend(_questions(rng, shape, record["doc_id"], doc_no, texts, spans, vocab))
    paths = {
        "corpus": out_dir / "corpus.jsonl",
        "qa": out_dir / "qa.jsonl",
        "datasets": out_dir / "datasets.json",
    }
    _write_jsonl(paths["corpus"], corpus)
    _write_jsonl(paths["qa"], qa)
    config = {
        "version": 1,
        "datasets": {
            DATASET: {
                "metric": "anls",
                "context_budget": shape.budget,
                "target_budget": 32,
                "anls_tau": ANLS_TAU,
            }
        },
    }
    paths["datasets"].write_text(json.dumps(config), encoding="utf-8")
    # Retries back off from 10 ms so injected connection drops cost little.
    run_config = {"backoff_base": 0.01, "max_attempts": 3, "timeout": 10.0}
    (out_dir / "run-config.json").write_text(json.dumps(run_config), encoding="utf-8")
    return paths


@dataclass(frozen=True)
class Stage:
    """One `docqa` command: its argv, the file it writes, and the exit codes
    it may end with."""

    argv: tuple[str, ...]
    output: str
    ok_codes: frozenset[int] = frozenset({0})

    @property
    def name(self) -> str:
        return self.argv[0]


def _arm(seed: int, strategy: str, suffix: str, predict_extra=(), predict_codes=(0,)):
    data = ("--dataset", DATASET, "--datasets-config", "datasets.json", "--seed", str(seed))
    orders, contexts = f"orders{suffix}.jsonl", f"contexts{suffix}.jsonl"
    predictions, evals = f"predictions{suffix}.jsonl", f"eval{suffix}.jsonl"
    return [
        Stage(("order", "--corpus", "corpus.jsonl", "--strategy", strategy,
               "--seed", str(seed), "--out", orders), orders),
        Stage(("serialize", "--corpus", "corpus.jsonl", "--orders", orders, *data,
               "--out", contexts), contexts),
        Stage(("predict", "--qa", "qa.jsonl", "--contexts", contexts, *data,
               *predict_extra, "--out", predictions), predictions,
              frozenset(predict_codes)),
        Stage(("eval", "--qa", "qa.jsonl", "--predictions", predictions,
               "--contexts", contexts, *data, "--out", evals), evals),
    ]


def stage_plan(workload: str, seed: int, endpoint: str | None = None) -> list[Stage]:
    """The commands one repetition of the workload runs, in order."""
    mock = ("--backend", "mock-answer-key")
    if workload == "raster_dense":
        return _arm(seed, "raster_scan", "", mock)
    if workload == "qa_heavy":
        plan = _arm(seed, "standard", "-standard", mock) + _arm(seed, "shuffled", "-shuffled", mock)
        plan.append(
            Stage(("analyze", "--qa", "qa.jsonl", "--eval", "eval-standard.jsonl",
                   "--eval", "eval-shuffled.jsonl", "--seed", str(seed),
                   "--out", "analysis.json"), "analysis.json")
        )
        return plan
    if workload == "http_predict":
        http = ("--backend", "http", "--parallelism", "2", "--endpoint", endpoint,
                "--config", "run-config.json")
        # Exit code 3 is how predict reports that some requests failed, which
        # the injected 503s make expected.
        return _arm(seed, "standard", "", http, predict_codes=(0, 3))
    raise ValueError(f"unknown workload {workload!r}")
