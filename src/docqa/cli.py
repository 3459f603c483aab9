"""Command-line pipeline over the library modules.

Each subcommand is one stage (order, serialize, predict, eval, analyze,
sample) and stages talk through JSONL files, so any single stage can be
swapped while the rest of a run is held fixed. Every output file starts
with a provenance header, which docqa.jsonl builds from each stage's
settings and alone checks; paths never enter it, which keeps reruns in a
different directory byte-identical.

Exit codes: 0 success, 1 usage, 2 data validation, 3 endpoint failure.
Numeric arguments are checked by the value rules of docqa.errors.
"""

from __future__ import annotations

import argparse
import gc
import random
import sys
from pathlib import Path
from typing import Sequence

from . import __version__
from .analysis import (
    PAIRED_SETTINGS,
    Prediction,
    answer_presence_report,
    context_length_report,
    evaluate_rows,
    load_eval,
    load_predictions,
    order_sensitivity_report,
    prediction_to_record,
    zero_shot_perplexity,
)
from .datasets import MixtureKind, load_dataset_configs, load_qa, sample_mixture
from .errors import DataError, EndpointError, check_choice, check_int, check_number
from .geometry import load_ocr_corpus
from .jsonl import derive_seed, match_header, write_report, write_stage_file
from .llmclient import HTTPBackend, InferenceRequest, MockBackend, check_endpoint, predict_batch
from .metrics import dataset_score
from .ordering import (
    OrderStrategy,
    load_orders,
    raster_scan_order,
    shuffled_order,
    standard_order,
)
from .serialize import build_context, build_prompt, load_contexts, record_contexts

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_ENDPOINT = 3

class UsageError(Exception):
    """Bad invocation discovered after argument parsing."""


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures on exit code 1 instead of 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _checked(convert, rule, *bounds, **options):
    """An argparse type: the argument `convert`ed, which `rule` must then
    admit; text that `convert` refuses goes to the rule as it is, so every
    fault is worded by the rule."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = text
        try:
            return rule("value", value, *bounds, **options)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
    return parse


_positive_int = _checked(int, check_int, 1)
_positive_finite_float = _checked(float, check_number, 0, above=True)


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
        # Undecodable argv bytes arrive as lone surrogates, which no file can hold.
        name.encode("utf-8")
    except UnicodeEncodeError:
        raise argparse.ArgumentTypeError(f"name in {text!r} is not valid Unicode")
    try:
        return name, int(size)
    except ValueError:
        raise argparse.ArgumentTypeError(f"size in {text!r} is not an integer")


def _dataset_config(args):
    configs = load_dataset_configs(args.datasets_config)
    try:
        return configs[check_choice("dataset", args.dataset, configs)]
    except ValueError as exc:
        raise DataError(str(exc)) from None


def _write_stage(args, stage, default_name, settings, rows, **counts) -> Path:
    """Write a stage file to --out or `default_name` for the run seed."""
    out = Path(args.out or default_name)
    write_stage_file(out, stage, args.seed, settings, rows, **counts)
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
    out = _write_stage(args, "order", "orders.jsonl", settings, (o._asdict() for o in orders))
    print(f"wrote {len(orders)} orders to {out}")
    return EXIT_OK


def cmd_serialize(args) -> int:
    docs = load_ocr_corpus(args.corpus)
    orders_header, orders = load_orders(args.orders)
    budget = _dataset_config(args).context_budget

    corpus_ids = {doc.doc_id for doc in docs}
    order_by_doc = {order.doc_id: order for order in orders}
    unknown = [doc_id for doc_id in order_by_doc if doc_id not in corpus_ids]
    if unknown:
        raise DataError(f"orders reference docs missing from the corpus: {unknown[:5]}")
    missing = [doc.doc_id for doc in docs if doc.doc_id not in order_by_doc]
    if missing:
        raise DataError(f"corpus docs have no order: {missing[:5]}")

    contexts = [build_context(doc, order_by_doc[doc.doc_id], budget) for doc in docs]

    settings = {"strategy": orders_header["strategy"], "dataset": args.dataset,
                "budget": budget, "orders": orders_header["config_digest"]}
    out = _write_stage(args, "serialize", "contexts.jsonl", settings,
                       (c._asdict() for c in contexts))
    print(f"wrote {len(contexts)} contexts to {out}")
    return EXIT_OK


def _build_backend(args, records, contexts):
    if args.backend != "http":
        for flag, value in (("--endpoint", args.endpoint), ("--config", args.config)):
            if value is not None:
                raise UsageError(
                    f"{flag} applies only to --backend http, not --backend {args.backend}"
                )
    if args.backend == "mock-echo":
        return MockBackend()
    if args.backend == "mock-answer-key":
        return MockBackend((c, r.question, r.answers) for r, c in zip(records, contexts))
    if not args.endpoint:
        raise UsageError("the http backend needs an endpoint: pass --endpoint")
    return HTTPBackend.from_config(
        args.endpoint, args.config, random.Random(derive_seed(args.seed, "predict"))
    )


def _prediction(record, result) -> Prediction:
    if isinstance(result, EndpointError):
        return Prediction(example_id=record.example_id, text="", error=str(result))
    return Prediction(example_id=record.example_id, text=result.text, tokens=result.tokens)


def cmd_predict(args) -> int:
    config = _dataset_config(args)
    records = load_qa(args.qa)
    ctx_header, contexts = load_contexts(
        args.contexts, dataset=args.dataset, budget=config.context_budget
    )
    contexts = record_contexts(records, contexts)
    settings = {
        "dataset": args.dataset,
        "backend": args.backend,
        "max_new_tokens": config.target_budget,
        "logprobs": not args.no_logprobs,
        "contexts": ctx_header["config_digest"],
    }

    backend = _build_backend(args, records, contexts)
    # Each prompt is built as predict_batch pulls its request, so only the
    # requests in flight hold one.
    requests = (
        InferenceRequest(
            prompt=build_prompt(ctx, record.question).text,
            max_new_tokens=settings["max_new_tokens"],
            want_logprobs=settings["logprobs"],
        )
        for record, ctx in zip(records, contexts)
    )
    try:
        results = predict_batch(backend, requests, max_in_flight=args.parallelism)
    finally:
        if isinstance(backend, HTTPBackend):
            backend.close()
    failures = sum(isinstance(result, EndpointError) for result in results)
    out = _write_stage(
        args, "predict", "predictions.jsonl", settings,
        (prediction_to_record(_prediction(r, result)) for r, result in zip(records, results)),
    )
    print(f"wrote {len(results)} predictions to {out}")
    if failures:
        print(f"{failures} of {len(results)} requests failed", file=sys.stderr)
        return EXIT_ENDPOINT
    return EXIT_OK


def cmd_eval(args) -> int:
    config = _dataset_config(args)
    records = load_qa(args.qa)
    ctx_header, contexts = load_contexts(
        args.contexts, dataset=args.dataset, budget=config.context_budget
    )
    pred_header, predictions = load_predictions(
        args.predictions, dataset=args.dataset, contexts=ctx_header["config_digest"]
    )

    rows = evaluate_rows(records, predictions, contexts, config)
    aggregate = dataset_score([r.score for r in rows])
    settings = {
        "dataset": args.dataset,
        "metric": config.metric,
        "anls_tau": config.anls_tau,
        # analyze tells reference runs from shuffled ones by this field alone.
        "strategy": ctx_header["strategy"],
        "backend": pred_header["backend"],
        "budget": config.context_budget,
        "max_new_tokens": pred_header["max_new_tokens"],
    }
    _write_stage(args, "eval", "eval.jsonl", settings, (r._asdict() for r in rows),
                 aggregate=aggregate, n=len(rows))
    print(f"{args.dataset} {config.metric}: {aggregate} ({len(rows)} examples)")
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
    runs = {}  # (dataset, shuffled?): (path, header, rows), in --eval order
    for path in args.eval:
        header, rows = load_eval(path)
        dataset, is_shuffled = header["dataset"], header["strategy"] == "shuffled"
        if (dataset, is_shuffled) in runs:
            if is_shuffled:
                raise DataError(f"two eval files cover dataset {dataset!r} strategy 'shuffled'")
            raise DataError(
                f"dataset {dataset!r} has more than one non-shuffled eval file; "
                "pass a single reference run per dataset"
            )
        runs[dataset, is_shuffled] = path, header, rows
    reference, shuffled = {}, {}
    for (dataset, is_shuffled), (path, header, rows) in runs.items():
        (shuffled if is_shuffled else reference)[dataset] = rows
        if is_shuffled and (dataset, False) in runs:
            ref_path, ref_header, _ = runs[dataset, False]
            needs = {name: ref_header[name] for name in PAIRED_SETTINGS}
            match_header(path, header, needs, f"its reference run {ref_path} has")

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

    strategies = sorted({header["strategy"] for _, header, _ in runs.values()})
    settings = {"datasets": sorted(reference), "strategies": strategies}
    report = {
        "perplexity": perplexity,
        "answer_presence": presence,
        "context_length": lengths,
        "order_sensitivity": sensitivity,
    }
    out = Path(args.out or "analysis.json")
    write_report(out, "analyze", args.seed, settings, report)
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
    dataset = _Parser(add_help=False)
    dataset.add_argument("--dataset", required=True, help="dataset whose config the run uses")
    dataset.add_argument("--datasets-config", help="dataset config JSON override")

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
        "serialize", parents=[common, dataset], help="join corpus and orders into contexts"
    )
    serialize_cmd.add_argument("--corpus", required=True)
    serialize_cmd.add_argument("--orders", required=True)
    serialize_cmd.set_defaults(func=cmd_serialize)

    predict = sub.add_parser(
        "predict", parents=[common, dataset], help="run contexts and questions through a model"
    )
    predict.add_argument("--qa", required=True)
    predict.add_argument("--contexts", required=True, help="contexts serialized for --dataset")
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
        "eval", parents=[common, dataset], help="score predictions with the dataset metric"
    )
    eval_cmd.add_argument("--qa", required=True)
    eval_cmd.add_argument("--predictions", required=True, help="predictions for --dataset")
    eval_cmd.add_argument("--contexts", required=True, help="contexts serialized for --dataset")
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
