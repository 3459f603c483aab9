"""Command-line pipeline over the library modules.

Each subcommand is one stage (order, serialize, predict, eval, analyze,
sample) and stages talk through JSONL files, so any single stage can be
swapped while the rest of a run is held fixed. Every output file starts
with a header line carrying a digest of the semantic settings that
produced it; paths never enter the digest, which keeps reruns in a
different directory byte-identical.

Exit codes: 0 success, 1 usage, 2 data validation, 3 endpoint failure.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import random
import sys
from pathlib import Path
from typing import Any, Mapping, Sequence

from . import __version__
from .analysis import (
    Prediction,
    answer_presence_report,
    context_length_report,
    eval_row_to_record,
    evaluate_rows,
    load_eval,
    load_predictions,
    order_sensitivity_report,
    prediction_to_record,
    zero_shot_perplexity,
)
from .datasets import MixtureKind, load_dataset_configs, load_qa, sample_mixture
from .errors import DataError, EndpointError
from .geometry import load_ocr_corpus
from .jsonl import read_json, write_atomically, write_stage_file
from .llmclient import HTTPBackend, InferenceRequest, MockBackend, check_endpoint, predict_batch
from .metrics import dataset_score
from .ordering import (
    OrderStrategy,
    check_strategy,
    load_orders,
    raster_scan_order,
    shuffled_order,
    standard_order,
)
from .serialize import (
    build_context,
    build_prompt,
    context_to_record,
    load_contexts,
    prompt_parts,
    truncate_context,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_ENDPOINT = 3

# HTTPBackend keywords a --config file may carry; anything else is a typo.
RUN_CONFIG_KEYS = frozenset({"timeout", "max_attempts", "backoff_base"})


class UsageError(Exception):
    """Bad invocation discovered after argument parsing."""


def derive_seed(seed: int, stage: str) -> int:
    """Stage-specific seed from the run seed, stable across platforms."""
    digest = hashlib.sha256(f"{seed}/{stage}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def config_digest(settings: Mapping[str, Any]) -> str:
    """Short fingerprint of a stage's semantic settings."""
    canon = json.dumps(settings, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def load_run_config(path: str | None) -> dict[str, Any]:
    if path is None:
        return {}
    payload = read_json(path)
    if not isinstance(payload, dict):
        raise DataError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(payload) - RUN_CONFIG_KEYS)
    if unknown:
        raise DataError(f"config file {path} has unknown keys: {unknown}")
    return payload


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures on exit code 1 instead of 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _positive_finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not math.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


def _endpoint(text: str) -> str:
    try:
        return check_endpoint(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _dataset_size(text: str) -> tuple[str, int]:
    name, sep, size = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"expected NAME=SIZE, got {text!r}")
    try:
        return name, int(size)
    except ValueError:
        raise argparse.ArgumentTypeError(f"size in {text!r} is not an integer")


def _dataset_config(args):
    configs = load_dataset_configs(args.datasets_config)
    if args.dataset not in configs:
        raise DataError(
            f"unknown dataset {args.dataset!r}, expected one of {sorted(configs)}"
        )
    return configs[args.dataset]


def _check_header(path, header, **expected) -> None:
    """Refuse a stage input whose header was written for another dataset or
    budget than this run's."""
    found = {key: header.get(key) for key in expected}
    if found != expected:
        def show(fields):
            return ", ".join(f"{key} {value!r}" for key, value in fields.items())
        raise DataError(
            f"{path} line 1: header has {show(found)}, this run needs {show(expected)}"
        )


def _write_stage(args, stage, default_name, settings, rows, **fields) -> Path:
    """Write a stage file whose header digests the run seed plus `settings`."""
    out = Path(args.out or default_name)
    header = {
        "config_digest": config_digest({"stage": stage, "seed": args.seed, **settings}),
        "stage": stage,
        "seed": derive_seed(args.seed, stage),
        **fields,
    }
    write_stage_file(out, header, rows)
    return out


def cmd_order(args) -> int:
    if args.threshold_factor is not None and args.strategy != "raster_scan":
        raise UsageError(
            "--threshold-factor applies only to --strategy raster_scan, "
            f"not --strategy {args.strategy}"
        )
    docs = load_ocr_corpus(args.corpus)
    stage_seed = derive_seed(args.seed, "order")
    settings = {"strategy": args.strategy}
    if args.strategy == "standard":
        orders = [standard_order(doc) for doc in docs]
    elif args.strategy == "raster_scan":
        factor = 0.5 if args.threshold_factor is None else args.threshold_factor
        settings["threshold_factor"] = factor
        orders = [raster_scan_order(doc, factor) for doc in docs]
    else:
        # Per-document seeds keep same-length documents from sharing a
        # permutation.
        orders = [
            shuffled_order(doc, derive_seed(stage_seed, doc.doc_id)) for doc in docs
        ]
    out = _write_stage(
        args, "order", "orders.jsonl", settings, (o.to_record() for o in orders)
    )
    print(f"wrote {len(orders)} orders to {out}")
    return EXIT_OK


def cmd_serialize(args) -> int:
    docs = load_ocr_corpus(args.corpus)
    _, orders = load_orders(args.orders)
    budget = _dataset_config(args).context_budget

    corpus_ids = {doc.doc_id for doc in docs}
    order_by_doc = {order.doc_id: order for order in orders}
    unknown = [doc_id for doc_id in order_by_doc if doc_id not in corpus_ids]
    if unknown:
        raise DataError(f"orders reference docs missing from the corpus: {unknown[:5]}")
    missing = [doc.doc_id for doc in docs if doc.doc_id not in order_by_doc]
    if missing:
        raise DataError(f"corpus docs have no order: {missing[:5]}")

    contexts = []
    for doc in docs:
        ctx = build_context(doc, order_by_doc[doc.doc_id])
        ctx = truncate_context(ctx, budget)
        contexts.append(ctx)

    strategies = sorted({o.strategy for o in orders})
    out = _write_stage(
        args, "serialize", "contexts.jsonl", {"budget": budget, "dataset": args.dataset},
        (context_to_record(c) for c in contexts),
        strategy=strategies[0] if len(strategies) == 1 else None,
        dataset=args.dataset,
        budget=budget,
    )
    print(f"wrote {len(contexts)} contexts to {out}")
    return EXIT_OK


def _build_backend(args, records, contexts_by_doc):
    if args.backend != "http":
        for flag, value in (("--endpoint", args.endpoint), ("--config", args.config)):
            if value is not None:
                raise UsageError(
                    f"{flag} applies only to --backend http, not --backend {args.backend}"
                )
    if args.backend == "mock-echo":
        return MockBackend(rule="echo_last_word")
    if args.backend == "mock-answer-key":
        # Keyed by the (context, question) pair the mock parses out of each
        # record's prompt, so documents that share a question keep their own
        # golds; records with identical prompts pool.
        key: dict[tuple[str, str], list[str]] = {}
        for record in records:
            parts = prompt_parts(contexts_by_doc[record.doc_id], record.question)
            key.setdefault(parts, []).extend(record.answers)
        return MockBackend(rule="answer_key", answer_key=key)
    if not args.endpoint:
        raise UsageError("the http backend needs an endpoint: pass --endpoint")
    run_config = load_run_config(args.config)
    try:
        return HTTPBackend(
            args.endpoint,
            jitter_rng=random.Random(derive_seed(args.seed, "predict")),
            **run_config,
        )
    except ValueError as exc:
        raise DataError(f"config file {args.config}: {exc}") from exc


def _prediction(record, result) -> Prediction:
    if isinstance(result, EndpointError):
        return Prediction(example_id=record.example_id, text="", error=str(result))
    return Prediction(example_id=record.example_id, text=result.text, tokens=result.tokens)


def cmd_predict(args) -> int:
    records = load_qa(args.qa)
    ctx_header, contexts = load_contexts(args.contexts)
    config = _dataset_config(args)
    _check_header(args.contexts, ctx_header, dataset=args.dataset, budget=config.context_budget)
    max_new_tokens = config.target_budget
    want_logprobs = not args.no_logprobs

    contexts_by_doc = {c.doc_id: c for c in contexts}
    for record in records:
        if record.doc_id not in contexts_by_doc:
            raise DataError(
                f"no context for doc {record.doc_id!r} (example {record.example_id!r})"
            )

    backend = _build_backend(args, records, contexts_by_doc)
    # Each prompt is built as predict_batch pulls its request, so only the
    # requests in flight hold one.
    requests = (
        InferenceRequest(
            prompt=build_prompt(contexts_by_doc[record.doc_id], record.question).text,
            max_new_tokens=max_new_tokens,
            want_logprobs=want_logprobs,
        )
        for record in records
    )
    try:
        results = predict_batch(backend, requests, max_in_flight=args.parallelism)
    finally:
        if isinstance(backend, HTTPBackend):
            backend.close()
    failures = sum(isinstance(result, EndpointError) for result in results)

    settings = {
        "dataset": args.dataset,
        "backend": args.backend,
        "max_new_tokens": max_new_tokens,
        "logprobs": want_logprobs,
    }
    out = _write_stage(
        args, "predict", "predictions.jsonl", settings,
        (prediction_to_record(_prediction(r, result)) for r, result in zip(records, results)),
        dataset=args.dataset,
        backend=args.backend,
    )
    print(f"wrote {len(results)} predictions to {out}")
    if failures:
        print(f"{failures} of {len(results)} requests failed", file=sys.stderr)
        return EXIT_ENDPOINT
    return EXIT_OK


def cmd_eval(args) -> int:
    records = load_qa(args.qa)
    pred_header, predictions = load_predictions(args.predictions)
    ctx_header, contexts = load_contexts(args.contexts)
    # analyze tells reference runs from shuffled ones by this field alone.
    if "strategy" not in ctx_header:
        raise DataError(f"{args.contexts} line 1: header is missing 'strategy'")
    strategy = ctx_header["strategy"]
    check_strategy(strategy, f"{args.contexts} line 1: header")
    config = _dataset_config(args)
    _check_header(args.predictions, pred_header, dataset=args.dataset)
    _check_header(args.contexts, ctx_header, dataset=args.dataset, budget=config.context_budget)

    rows = evaluate_rows(records, predictions, contexts, config)
    aggregate = dataset_score([r.score for r in rows])
    metric = config.metric
    _write_stage(
        args, "eval", "eval.jsonl",
        {"dataset": args.dataset, "metric": metric, "anls_tau": config.anls_tau},
        (eval_row_to_record(r) for r in rows),
        dataset=args.dataset,
        metric=metric,
        strategy=strategy,
        aggregate=aggregate,
        n=len(rows),
    )
    print(f"{args.dataset} {metric}: {aggregate} ({len(rows)} examples)")
    return EXIT_OK


def cmd_analyze(args) -> int:
    records = {}
    for qa_path in args.qa:
        for record in load_qa(qa_path):
            if record.example_id in records:
                raise DataError(f"duplicate example {record.example_id!r} across QA files")
            records[record.example_id] = record

    # Each dataset has one reference run, its non-shuffled eval file, whatever
    # ordering that run used; a shuffled run exists only to be contrasted
    # against it.
    reference: dict[str, list] = {}
    shuffled: dict[str, list] = {}
    strategies = set()
    for path in args.eval:
        header, rows = load_eval(path)
        dataset, strategy = header["dataset"], header["strategy"]
        runs = shuffled if strategy == "shuffled" else reference
        if dataset in runs:
            if strategy == "shuffled":
                raise DataError(f"two eval files cover dataset {dataset!r} strategy 'shuffled'")
            raise DataError(
                f"dataset {dataset!r} has more than one non-shuffled eval file; "
                "pass a single reference run per dataset"
            )
        runs[dataset] = rows
        if strategy:
            strategies.add(strategy)

    perplexity, presence, lengths = {}, {}, {}
    for dataset, rows in sorted(reference.items()):
        perplexity[dataset] = zero_shot_perplexity(rows)._asdict()
        pct_correct, pct_incorrect = answer_presence_report(rows, records.values(), dataset)
        presence[dataset] = {"pct_correct": pct_correct, "pct_incorrect": pct_incorrect}
        norm_correct, norm_incorrect = context_length_report(rows)
        lengths[dataset] = {
            "normalized_median_correct": norm_correct,
            "normalized_median_incorrect": norm_incorrect,
        }

    sensitivity = [row._asdict() for row in order_sensitivity_report(reference, shuffled)]

    settings = {
        "stage": "analyze",
        "seed": args.seed,
        "datasets": sorted(reference),
        "strategies": sorted(strategies),
    }
    payload = {
        "config_digest": config_digest(settings),
        "stage": "analyze",
        "report": {
            "perplexity": perplexity,
            "answer_presence": presence,
            "context_length": lengths,
            "order_sensitivity": sensitivity,
        },
    }
    out = Path(args.out or "analysis.json")
    write_atomically(out, [json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)])
    print(f"wrote analysis report to {out}")
    return EXIT_OK


def cmd_sample(args) -> int:
    stage_seed = derive_seed(args.seed, "sample")
    schedule = sample_mixture(args.datasets, args.strategy, stage_seed, args.draws)
    settings = {
        "strategy": args.strategy,
        "draws": args.draws,
        "sizes": {name: size for name, size in args.datasets},
    }
    out = _write_stage(
        args, "sample", "schedule.jsonl", settings,
        ({"dataset": name, "index": index} for name, index in schedule),
    )
    print(f"wrote {len(schedule)} draws to {out}")
    return EXIT_OK


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="run seed (default 0)")
    common.add_argument("--out", help="output file (default: the stage's file name)")

    parser = _Parser(
        prog="docqa",
        description="Serialize OCR documents into text prompts and score QA predictions.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    order = sub.add_parser("order", parents=[common], help="compute reading orders")
    order.add_argument("--corpus", required=True, help="OCR corpus JSONL")
    order.add_argument(
        "--strategy", required=True,
        choices=OrderStrategy,
    )
    order.add_argument(
        "--threshold-factor", type=_positive_finite_float,
        help="raster_scan only: line grouping tolerance as a fraction of seed word "
        "height (default 0.5)",
    )
    order.set_defaults(func=cmd_order)

    serialize_cmd = sub.add_parser(
        "serialize", parents=[common], help="join corpus and orders into contexts"
    )
    serialize_cmd.add_argument("--corpus", required=True)
    serialize_cmd.add_argument("--orders", required=True)
    serialize_cmd.add_argument(
        "--dataset", required=True, help="dataset whose context_budget cuts each context"
    )
    serialize_cmd.add_argument("--datasets-config", help="dataset config JSON override")
    serialize_cmd.set_defaults(func=cmd_serialize)

    predict = sub.add_parser(
        "predict", parents=[common], help="run contexts and questions through a model"
    )
    predict.add_argument("--qa", required=True)
    predict.add_argument("--contexts", required=True, help="contexts serialized for --dataset")
    predict.add_argument("--dataset", required=True)
    predict.add_argument("--datasets-config")
    predict.add_argument(
        "--backend", choices=["http", "mock-echo", "mock-answer-key"], default="http"
    )
    predict.add_argument("--config", help="JSON file: timeout, max_attempts, backoff_base")
    predict.add_argument("--endpoint", type=_endpoint, help="completion endpoint URL")
    predict.add_argument("--no-logprobs", action="store_true")
    predict.add_argument(
        "--parallelism", type=_positive_int, default=1,
        help="maximum concurrent endpoint requests",
    )
    predict.set_defaults(func=cmd_predict)

    eval_cmd = sub.add_parser(
        "eval", parents=[common], help="score predictions with the dataset metric"
    )
    eval_cmd.add_argument("--qa", required=True)
    eval_cmd.add_argument("--predictions", required=True, help="predictions for --dataset")
    eval_cmd.add_argument("--contexts", required=True, help="contexts serialized for --dataset")
    eval_cmd.add_argument("--dataset", required=True)
    eval_cmd.add_argument("--datasets-config")
    eval_cmd.set_defaults(func=cmd_eval)

    analyze = sub.add_parser(
        "analyze", parents=[common], help="compose diagnostic reports from eval files"
    )
    analyze.add_argument("--qa", action="append", required=True)
    analyze.add_argument("--eval", action="append", required=True)
    analyze.set_defaults(func=cmd_analyze)

    sample = sub.add_parser(
        "sample", parents=[common], help="draw a multi-dataset training schedule"
    )
    sample.add_argument(
        "--datasets", action="append", required=True, type=_dataset_size,
        metavar="NAME=SIZE",
    )
    sample.add_argument(
        "--strategy", required=True, choices=MixtureKind
    )
    sample.add_argument("--draws", type=_positive_int, required=True)
    sample.set_defaults(func=cmd_sample)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    # A corpus load parses a dict, a list and strings per word, and the
    # cyclic collector would re-walk them all as they are allocated; the stage
    # records form no cycles, so reference counting frees them. The
    # collector is paused for the command, and the caller's setting is put
    # back on every way out.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv: Sequence[str] | None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except EndpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ENDPOINT


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
