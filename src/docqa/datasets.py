"""QA records, per-benchmark configuration, and training mixture samplers.

The six benchmark configs ship as a versioned JSON file next to this module
so a reproduction run has one source of truth for metric choice and budgets.
Mixture sampling is with replacement: each draw is independent, matching how
training schedules consume them.
"""

from __future__ import annotations

import bisect
import json
import os
import random
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from typing import Any, Sequence

from .errors import DataError
from .jsonl import parse_rows, read_records
from .metrics import MetricKind

# The only question flags with defined behavior downstream.
KNOWN_FLAGS = frozenset({"yes_no", "genre"})


@dataclass(frozen=True)
class QARecord:
    example_id: str
    doc_id: str
    question: str
    answers: tuple[str, ...]
    flags: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        for name in ("example_id", "doc_id"):
            value = getattr(self, name)
            if not isinstance(value, str) or not value:
                raise ValueError(f"{name} must be a non-empty string")
        if not isinstance(self.question, str):
            raise ValueError("question must be a string")
        object.__setattr__(self, "answers", tuple(self.answers))
        if not self.answers or not all(isinstance(a, str) for a in self.answers):
            raise ValueError("answers must be a non-empty list of strings")
        object.__setattr__(self, "flags", frozenset(self.flags))
        unknown = self.flags - KNOWN_FLAGS
        if unknown:
            raise ValueError(f"unknown flag {sorted(unknown)[0]!r}")


def qa_record_from_dict(record: dict[str, Any]) -> QARecord:
    try:
        answers = record["answers"]
        flags = record.get("flags", [])
        # A string would pass tuple() as one answer per character.
        for name, value in (("answers", answers), ("flags", flags)):
            if not isinstance(value, list):
                raise ValueError(f"{name} must be a list, got {value!r}")
        return QARecord(
            example_id=record["example_id"],
            doc_id=record["doc_id"],
            question=record["question"],
            answers=answers,
            flags=flags,
        )
    except KeyError as exc:
        raise ValueError(f"QA record is missing {exc.args[0]!r}") from exc


def load_qa(path: str | os.PathLike[str]) -> list[QARecord]:
    """Read a QA file (one record per line) into validated QARecords."""
    return parse_rows(path, read_records(path), qa_record_from_dict, "example_id")


@dataclass(frozen=True)
class DatasetConfig:
    """Metric and budget defaults for one benchmark."""

    name: str
    metric: MetricKind
    context_budget: int
    target_budget: int
    anls_tau: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "metric", MetricKind(self.metric))
        for field_name in ("context_budget", "target_budget"):
            value = getattr(self, field_name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValueError(f"{field_name} must be a positive integer, got {value!r}")
        tau = self.anls_tau
        if not isinstance(tau, (int, float)) or isinstance(tau, bool) or not 0.0 <= tau <= 1.0:
            raise ValueError(f"anls_tau must be a number in [0, 1], got {tau!r}")


def _configs_from_payload(payload: Any, source: str) -> dict[str, DatasetConfig]:
    if not isinstance(payload, dict) or not isinstance(payload.get("datasets"), dict):
        raise DataError(f"{source}: expected an object with a 'datasets' object")
    configs: dict[str, DatasetConfig] = {}
    for name, entry in payload["datasets"].items():
        if not isinstance(entry, dict):
            raise DataError(f"{source}: dataset {name!r} must be an object, got {entry!r}")
        try:
            configs[name] = DatasetConfig(
                name=name,
                metric=entry["metric"],
                context_budget=entry["context_budget"],
                target_budget=entry["target_budget"],
                anls_tau=entry["anls_tau"],
            )
        except KeyError as exc:
            raise DataError(f"{source}: dataset {name!r} is missing {exc.args[0]!r}") from exc
        except ValueError as exc:
            raise DataError(f"{source}: dataset {name!r}: {exc}") from exc
    return configs


def load_dataset_configs(path: str | os.PathLike[str] | None = None) -> dict[str, DatasetConfig]:
    """Read a dataset config file; with no path, the bundled benchmark defaults."""
    if path is None:
        text = resources.files("docqa").joinpath("data/benchmarks.json").read_text("utf-8")
        source = "bundled benchmarks.json"
    else:
        if not os.path.exists(path):
            raise DataError(f"file not found: {path}")
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        source = str(path)
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"{source}: invalid JSON: {exc.msg}") from exc
    return _configs_from_payload(payload, source)


class MixtureKind(str, Enum):
    UNIFORM = "uniform"
    NORMALIZED = "normalized"


@dataclass(frozen=True)
class MixtureStrategy:
    kind: MixtureKind
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", MixtureKind(self.kind))
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise ValueError(f"seed must be an unsigned integer, got {self.seed!r}")


def sample_mixture(
    datasets: Sequence[tuple[str, int]],
    strategy: MixtureStrategy,
    n_draws: int,
) -> list[tuple[str, int]]:
    """Draw (dataset name, record index) pairs, with replacement.

    uniform picks the dataset with probability 1/K and then an index within
    it; normalized picks uniformly over the pooled records, so a dataset's
    probability is its share of the total size. The stream is a single
    sequential PRNG: identical inputs and seed give the identical schedule.
    Workers wanting parallel draws should each build their own strategy with
    a derived seed.
    """
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

    rng = random.Random(strategy.seed)
    draws: list[tuple[str, int]] = []
    if strategy.kind is MixtureKind.UNIFORM:
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
