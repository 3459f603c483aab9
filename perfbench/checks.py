"""Output checks that share no code with the package under test.

Each check re-derives what a stage file must hold from the generated inputs
and the stage contracts: a plain-loop raster scan, whole-word budget prefixes,
a literal full-matrix ANLS, and the mock endpoint's own fault rules. A check
that fails raises CheckError. Known open defects (the answer key keyed by
question text, substring answer-in-text) are deliberately not pinned: the
checks accept both the current and the fixed behaviour there.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import statistics
from pathlib import Path

import mock_server

HEADER_KEY = "config_digest"
RASTER_FACTOR = 0.5
RASTER_SAMPLE = 2


class CheckError(Exception):
    """A stage output disagrees with what its inputs require."""


def read_jsonl(path: Path):
    """(header or None, rows) of a JSONL stage or input file."""
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]
    if rows and HEADER_KEY in rows[0]:
        return rows[0], rows[1:]
    return None, rows


def digest_files(workdir: Path, names) -> dict[str, str]:
    return {name: hashlib.sha256((workdir / name).read_bytes()).hexdigest() for name in names}


def raster_oracle(words, factor: float = RASTER_FACTOR) -> list[int]:
    """The raster-scan contract restated with plain loops.

    Repeatedly take the remaining word with the smallest (centroid y,
    centroid x, index), collect every remaining word whose centroid y lies
    within factor * that word's height of it, emit them by (centroid x,
    index), and remove them.
    """
    remaining = []
    for index, word in enumerate(words):
        x0, y0, x1, y1 = (float(v) for v in word["box"])
        remaining.append(((y0 + y1) / 2.0, (x0 + x1) / 2.0, index, y1 - y0))
    emitted: list[int] = []
    while remaining:
        seed = remaining[0]
        for word in remaining[1:]:
            if word[:3] < seed[:3]:
                seed = word
        tolerance = factor * seed[3]
        line = [w for w in remaining if abs(w[0] - seed[0]) <= tolerance]
        line.sort(key=lambda w: (w[1], w[2]))
        emitted.extend(w[2] for w in line)
        taken = {w[2] for w in line}
        remaining = [w for w in remaining if w[2] not in taken]
    return emitted


def levenshtein_matrix(a: str, b: str) -> int:
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        table[i][0] = i
    for j in range(len(b) + 1):
        table[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return table[len(a)][len(b)]


def _norm(text: str) -> str:
    return re.sub(r"\s+", " ", text.strip()).lower()


def anls(pred: str, golds, tau: float) -> float:
    pred_n = _norm(pred)
    best = 0.0
    for gold in golds:
        gold_n = _norm(gold)
        if not pred_n and not gold_n:
            similarity = 1.0
        else:
            similarity = 1.0 - levenshtein_matrix(pred_n, gold_n) / max(len(pred_n), len(gold_n))
        best = max(best, similarity)
    return best if best >= tau else 0.0


def prompt_text(context: str, question: str) -> str:
    return f"{mock_server.CONTEXT_PREFIX}{context}{mock_server.QUESTION_SEP}{question}" \
        f"{mock_server.ANSWER_SUFFIX}"


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _by_doc(path: Path, what: str, doc_ids) -> tuple[dict, dict]:
    header, rows = read_jsonl(path)
    _expect(header is not None, f"{path.name}: no provenance header")
    by_doc = {}
    for row in rows:
        _expect(row["doc_id"] not in by_doc, f"{path.name}: two {what} for {row['doc_id']}")
        by_doc[row["doc_id"]] = row
    _expect(set(by_doc) == set(doc_ids), f"{path.name}: {what} do not cover the corpus")
    return header, by_doc


def check_orders(path: Path, corpus: dict, strategy: str, rng: random.Random) -> dict:
    _, orders = _by_doc(path, "orders", corpus)
    for doc_id, row in orders.items():
        n = len(corpus[doc_id]["words"])
        perm = row["permutation"]
        _expect(sorted(perm) == list(range(n)), f"{path.name}: {doc_id} is not a permutation")
        if strategy == "standard":
            _expect(perm == list(range(n)), f"{path.name}: {doc_id} standard order is not identity")
    if strategy == "raster_scan":
        for doc_id in rng.sample(sorted(corpus), min(RASTER_SAMPLE, len(corpus))):
            expected = raster_oracle(corpus[doc_id]["words"])
            _expect(orders[doc_id]["permutation"] == expected,
                    f"{path.name}: {doc_id} differs from the raster oracle")
    return {doc_id: row["permutation"] for doc_id, row in orders.items()}


def check_contexts(path: Path, corpus: dict, orders: dict, budget: int) -> dict:
    _, contexts = _by_doc(path, "contexts", corpus)
    for doc_id, row in contexts.items():
        words = corpus[doc_id]["words"]
        ordered = [words[i]["text"] for i in orders[doc_id]]
        keep = min(budget, len(ordered))
        _expect(row["context"] == " ".join(ordered[:keep]),
                f"{path.name}: {doc_id} is not the longest whole-word prefix within budget")
        _expect(row["token_count"] == keep, f"{path.name}: {doc_id} token_count is wrong")
    return {doc_id: row["context"] for doc_id, row in contexts.items()}


def check_predictions(path: Path, qa: list, contexts: dict, backend: str) -> dict:
    header, rows = read_jsonl(path)
    _expect(header is not None, f"{path.name}: no provenance header")
    preds = {}
    for row in rows:
        _expect(row["example_id"] not in preds, f"{path.name}: duplicate {row['example_id']}")
        preds[row["example_id"]] = row
    _expect(set(preds) == {r["example_id"] for r in qa}, f"{path.name}: examples missing")
    golds_by_question: dict[str, set] = {}
    for record in qa:
        golds_by_question.setdefault(record["question"], set()).update(record["answers"])
    for record in qa:
        row = preds[record["example_id"]]
        if backend == "http":
            prompt = prompt_text(contexts[record["doc_id"]], record["question"])
            if mock_server.unavailable(prompt):
                _expect("error" in row, f"{path.name}: {record['example_id']} should have failed")
            else:
                _expect("error" not in row,
                        f"{path.name}: {record['example_id']} failed without an injected fault")
                _expect(row["text"] == mock_server.answer(prompt),
                        f"{path.name}: {record['example_id']} is not the endpoint's answer")
        else:
            _expect("error" not in row, f"{path.name}: {record['example_id']} failed")
            allowed = golds_by_question[record["question"]] | {"unknown"}
            _expect(row["text"] in allowed,
                    f"{path.name}: {record['example_id']} answer is neither a gold nor unknown")
    return preds


def check_eval(path: Path, qa: list, preds: dict, tau: float) -> float:
    header, rows = read_jsonl(path)
    _expect(header is not None, f"{path.name}: no provenance header")
    by_id = {row["example_id"]: row for row in rows}
    _expect(set(by_id) == set(preds) and len(rows) == len(qa), f"{path.name}: rows do not match")
    scores = []
    for record in qa:
        pred = preds[record["example_id"]]
        value = anls("" if "error" in pred else pred["text"], record["answers"], tau)
        _expect(abs(by_id[record["example_id"]]["score"] - value) < 1e-9,
                f"{path.name}: {record['example_id']} score differs from literal ANLS")
        scores.append(value)
    aggregate = 100.0 * sum(scores) / len(scores)
    _expect(header.get("n") == len(qa), f"{path.name}: header n is wrong")
    _expect(abs(header["aggregate"] - aggregate) < 1e-6,
            f"{path.name}: aggregate {header['aggregate']} != recomputed {aggregate}")
    return aggregate


def check_analysis(path: Path, dataset: str, standard: float, shuffled: float,
                   reference_lengths: list[int]) -> None:
    report = json.loads(path.read_text(encoding="utf-8"))["report"]
    rows = [r for r in report["order_sensitivity"] if r["dataset"] == dataset]
    _expect(len(rows) == 1, f"{path.name}: no order-sensitivity row for {dataset}")
    _expect(abs(rows[0]["delta"] - (standard - shuffled)) < 1e-6,
            f"{path.name}: order-sensitivity delta is not standard minus shuffled")
    _expect(rows[0]["median_len"] == statistics.median(reference_lengths),
            f"{path.name}: median context length is wrong")


def check_workload(workdir: Path, plan, inputs: dict, budget: int, tau: float,
                   dataset: str, seed: int) -> dict:
    """Check every stage file of the last repetition; return eval aggregates."""
    corpus = {}
    for record in read_jsonl(inputs["corpus"])[1]:
        corpus[record["doc_id"]] = record
    qa = read_jsonl(inputs["qa"])[1]
    rng = random.Random(seed)
    orders = contexts = preds = None
    token_lens: dict[str, list[int]] = {}
    aggregates = {}
    for stage in plan:
        argv = list(stage.argv)
        out = workdir / stage.output
        if stage.name == "order":
            strategy = argv[argv.index("--strategy") + 1]
            orders = check_orders(out, corpus, strategy, rng)
        elif stage.name == "serialize":
            contexts = check_contexts(out, corpus, orders, budget)
            doc_len = {d: min(budget, len(corpus[d]["words"])) for d in corpus}
            token_lens[strategy] = [doc_len[r["doc_id"]] for r in qa]
        elif stage.name == "predict":
            preds = check_predictions(out, qa, contexts, argv[argv.index("--backend") + 1])
        elif stage.name == "eval":
            aggregates[strategy] = check_eval(out, qa, preds, tau)
        elif stage.name == "analyze":
            check_analysis(out, dataset, aggregates["standard"], aggregates["shuffled"],
                           token_lens["standard"])
    return aggregates
