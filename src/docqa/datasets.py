"""QA records, per-benchmark configuration, and training mixture samplers.

The six benchmark configs ship as a versioned JSON file next to this module
so a reproduction run has one source of truth for metric choice and budgets.
Mixture sampling is with replacement: each draw is independent, matching how
training schedules consume them. The loaders check every record with the
value rules of docqa.errors, a metric, a flag and a mixture kind by
check_choice, and a missing field by that field's rule; the records
themselves, plain named tuples, do not. `load_qa` keeps each QA file it
validated in the corpus cache (`jsonl.load_cached`), so a QA file that this
code already loaded once comes back from there unparsed.
"""

from __future__ import annotations

import bisect
import os
import random
from typing import Any, NamedTuple, Sequence

from .errors import DataError, check_choice, check_int, check_number, check_str, check_type
from .jsonl import load_cached, parse_rows, read_json, read_records
from .metrics import MetricKind

# The only question flags with defined behavior downstream.
KNOWN_FLAGS = frozenset({"yes_no", "genre"})

# Every record without flags shares this one set instead of holding its own.
NO_FLAGS: frozenset[str] = frozenset()


class QARecord(NamedTuple):
    example_id: str
    doc_id: str
    question: str
    answers: tuple[str, ...]
    flags: frozenset[str] = NO_FLAGS


def qa_record_from_dict(record: dict[str, Any]) -> QARecord:
    # A string would pass tuple() as one answer per character.
    answers = check_type("answers", record.get("answers"), list)
    flags = check_type("flags", record.get("flags", []), list)
    example_id = check_str("example_id", record.get("example_id"))
    doc_id = check_str("doc_id", record.get("doc_id"))
    question = check_str("question", record.get("question"))
    if not answers or not all(type(a) is str for a in answers):
        raise ValueError("answers must be a non-empty list of strings")
    for answer in answers:
        # A blank gold normalizes to "", the text a failed request is scored on.
        if not answer.strip():
            raise ValueError(f"answer must hold a non-whitespace character, got {answer!r}")
    for flag in flags:
        check_choice("flag", flag, KNOWN_FLAGS)
    flags = frozenset(flags) if flags else NO_FLAGS
    return QARecord(example_id, doc_id, question, tuple(answers), flags)


def _unpack(fields: tuple) -> QARecord:
    example_id, doc_id, question, answers, flags = fields
    # marshal gives each empty set it reads a frozenset of its own.
    return QARecord(example_id, doc_id, question, answers, flags or NO_FLAGS)


def load_qa(path: str | os.PathLike[str]) -> list[QARecord]:
    """Read a QA file (one record per line) into validated QARecords, from
    the corpus cache when these bytes were validated before; a file that
    raises is never cached."""
    return load_cached(
        path,
        __file__,
        lambda: parse_rows(path, read_records(path), qa_record_from_dict, "example_id"),
        tuple,
        _unpack,
    )


class DatasetConfig(NamedTuple):
    """Metric (one of MetricKind) and budget defaults for one benchmark;
    load_dataset_configs keys each by its dataset's name."""

    metric: str
    context_budget: int
    target_budget: int
    anls_tau: float


# The bundled defaults are read as a plain file next to this module, so
# docqa must be installed as files on disk; zip imports are unsupported.
BUNDLED_CONFIGS = os.path.join(os.path.dirname(__file__), "data", "benchmarks.json")


def load_dataset_configs(path: str | os.PathLike[str] | None = None) -> dict[str, DatasetConfig]:
    """Read a dataset config file; with no path, the bundled benchmark defaults."""
    if path is None:
        path = BUNDLED_CONFIGS
    payload = read_json(path)
    if not isinstance(payload, dict) or not isinstance(payload.get("datasets"), dict):
        raise DataError(f"{path}: expected an object with a 'datasets' object")
    configs: dict[str, DatasetConfig] = {}
    for name, entry in payload["datasets"].items():
        if not isinstance(entry, dict):
            raise DataError(f"{path}: dataset {name!r} must be an object, got {entry!r}")
        try:
            metric = check_choice("metric", entry.get("metric"), MetricKind)
            context_budget = check_int("context_budget", entry.get("context_budget"), 1)
            target_budget = check_int("target_budget", entry.get("target_budget"), 1)
            tau = check_number("anls_tau", entry.get("anls_tau"), 0, 1)
        except ValueError as exc:
            raise DataError(f"{path}: dataset {name!r}: {exc}") from exc
        configs[name] = DatasetConfig(metric, context_budget, target_budget, tau)
    return configs


MixtureKind = ("uniform", "normalized")


def sample_mixture(
    datasets: Sequence[tuple[str, int]],
    kind: str,
    seed: int,
    n_draws: int,
) -> list[tuple[str, int]]:
    """Draw (dataset name, record index) pairs, with replacement.

    uniform picks the dataset with probability 1/K and then an index within
    it; normalized picks uniformly over the pooled records, so a dataset's
    probability is its share of the total size. The stream is a single
    sequential PRNG: identical inputs and seed give the identical schedule.
    Workers wanting parallel draws should each pass a derived seed.
    """
    check_choice("mixture kind", kind, MixtureKind)
    check_int("seed", seed, 0)
    if not datasets:
        raise DataError("dataset list is empty")
    names = [name for name, _ in datasets]
    if len(set(names)) != len(names):
        raise DataError("dataset names must be unique")
    try:
        sizes = [check_int(f"size of dataset {name!r}", size, 1) for name, size in datasets]
    except ValueError as exc:
        raise DataError(str(exc)) from None
    check_int("n_draws", n_draws, 1)

    rng = random.Random(seed)
    draws: list[tuple[str, int]] = []
    if kind == "uniform":
        for _ in range(n_draws):
            which = rng.randrange(len(datasets))
            draws.append((names[which], rng.randrange(sizes[which])))
    else:
        cumulative: list[int] = []
        running = 0
        for size in sizes:
            running += size
            cumulative.append(running)
        for _ in range(n_draws):
            pooled = rng.randrange(running)
            which = bisect.bisect_right(cumulative, pooled)
            offset = cumulative[which - 1] if which else 0
            draws.append((names[which], pooled - offset))
    return draws
