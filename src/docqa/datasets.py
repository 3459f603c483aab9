"""QA records, per-benchmark configuration, and training mixture samplers.

The six benchmark configs ship as a versioned JSON file next to this module
so a reproduction run has one source of truth for metric choice and budgets.
Mixture sampling is with replacement: each draw is independent, matching how
training schedules consume them. The loaders check every record; the
records themselves, plain named tuples, do not. `load_qa` keeps each QA file
it validated in the corpus cache (`jsonl.load_cached`), so a QA file that
this code already loaded once comes back from there unparsed.
"""

from __future__ import annotations

import bisect
import os
import random
from typing import Any, NamedTuple, Sequence

from .errors import DataError
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
    try:
        example_id = record["example_id"]
        doc_id = record["doc_id"]
        question = record["question"]
        answers = record["answers"]
    except KeyError as exc:
        raise ValueError(f"QA record is missing {exc.args[0]!r}") from exc
    flags = record.get("flags", [])
    # A string would pass tuple() as one answer per character.
    for name, value in (("answers", answers), ("flags", flags)):
        if not isinstance(value, list):
            raise ValueError(f"{name} must be a list, got {value!r}")
    for name, value in (("example_id", example_id), ("doc_id", doc_id)):
        if not isinstance(value, str) or not value:
            raise ValueError(f"{name} must be a non-empty string")
    if not isinstance(question, str) or not question:
        raise ValueError("question must be a non-empty string")
    if not answers or not all(isinstance(a, str) for a in answers):
        raise ValueError("answers must be a non-empty list of strings")
    flags = frozenset(flags) if flags else NO_FLAGS
    unknown = flags - KNOWN_FLAGS
    if unknown:
        raise ValueError(f"unknown flag {sorted(unknown)[0]!r}")
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
    """Metric (one of MetricKind) and budget defaults for one benchmark."""

    name: str
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
            metric = entry["metric"]
            context_budget = entry["context_budget"]
            target_budget = entry["target_budget"]
            tau = entry["anls_tau"]
            if metric not in MetricKind:
                raise ValueError(f"unknown metric {metric!r}, expected one of {MetricKind}")
            budgets = (("context_budget", context_budget), ("target_budget", target_budget))
            for key, value in budgets:
                if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                    raise ValueError(f"{key} must be a positive integer, got {value!r}")
            if not isinstance(tau, (int, float)) or isinstance(tau, bool) or not 0.0 <= tau <= 1.0:
                raise ValueError(f"anls_tau must be a number in [0, 1], got {tau!r}")
        except KeyError as exc:
            raise DataError(f"{path}: dataset {name!r} is missing {exc.args[0]!r}") from exc
        except ValueError as exc:
            raise DataError(f"{path}: dataset {name!r}: {exc}") from exc
        configs[name] = DatasetConfig(name, metric, context_budget, target_budget, tau)
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
    if kind not in MixtureKind:
        raise ValueError(f"unknown mixture kind {kind!r}, expected one of {MixtureKind}")
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ValueError(f"seed must be an unsigned integer, got {seed!r}")
    if not datasets:
        raise DataError("dataset list is empty")
    names = [name for name, _ in datasets]
    if len(set(names)) != len(names):
        raise DataError("dataset names must be unique")
    sizes = [size for _, size in datasets]
    for name, size in datasets:
        if not isinstance(size, int) or isinstance(size, bool) or size < 1:
            raise DataError(f"dataset {name!r} must have size >= 1, got {size!r}")
    if not isinstance(n_draws, int) or isinstance(n_draws, bool) or n_draws < 1:
        raise ValueError(f"n_draws must be a positive integer, got {n_draws!r}")

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
