"""The benchmark's own arithmetic: percentiles, failure tallies, results.

Kept free of any ``repro`` import so the self-tests
(``perfbench/test_perfbench_ledger.py``) run without the program.
"""

from __future__ import annotations

import json
import math
import re
import statistics
from dataclasses import dataclass, field
from typing import Dict, Iterable, Sequence

#: Metric names: a letter or digit, then letters, digits, ``_ . -``;
#: at most 64 characters.
METRIC_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: A reported tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """Too few samples lie beyond the requested percentile."""


def validate_metric_name(name: str) -> str:
    if not isinstance(name, str) or not METRIC_NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def median(values: Iterable[float]) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def samples_needed(q: float, min_beyond: int = MIN_BEYOND) -> int:
    """Fewest samples for which :func:`tail_percentile` accepts ``q``."""
    n = 1
    while _beyond(n, q) < min_beyond:
        n += 1
    return n


def _rank(n: int, q: float) -> int:
    """0-based nearest-rank index of the ``q``-th percentile of ``n``."""
    return max(0, math.ceil(q / 100.0 * n) - 1)


def _beyond(n: int, q: float) -> int:
    return n - _rank(n, q) - 1


def tail_percentile(
    samples: Sequence[float], q: float, min_beyond: int = MIN_BEYOND
) -> float:
    """Nearest-rank ``q``-th percentile, refusing an unsupported tail.

    Raises :class:`InsufficientSamples` unless at least ``min_beyond``
    samples rank strictly above the reported one.
    """
    n = len(samples)
    if n == 0 or _beyond(n, q) < min_beyond:
        raise InsufficientSamples(
            f"p{q:g} of {n} samples leaves {max(_beyond(n, q), 0) if n else 0} "
            f"beyond it; need {min_beyond} ({samples_needed(q, min_beyond)} "
            f"samples)"
        )
    return float(sorted(samples)[_rank(n, q)])


class Tally:
    """Attempted operations and failures by kind.

    Kinds are free-form; the ones the workloads use are ``refused``
    (non-200 or shed), ``reset`` (connection error or exception) and
    ``mismatch`` (output differs from the oracle).  Every failure
    counts against ``failed_share`` whatever its kind.
    """

    def __init__(self):
        self.attempted = 0
        self.failures: Dict[str, int] = {}

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, kind: str) -> None:
        self.attempted += 1
        self.failures[kind] = self.failures.get(kind, 0) + 1

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        for kind, count in other.failures.items():
            self.failures[kind] = self.failures.get(kind, 0) + count

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``.

    ``values`` holds the metrics the run measured; ``report`` extra
    figures printed for people (sample counts, raw figures behind the
    slot metrics, faults seen).
    """

    correct: bool
    tally: Tally
    values: Dict[str, float]
    report: dict = field(default_factory=dict)


def pool_parts(parts: Sequence[dict]) -> dict:
    """Pool the results of a run's measuring processes.

    Per key: tallies merge into one :class:`Tally`, dicts of lists
    concatenate per inner key, lists concatenate, and anything else
    becomes the list of the parts' values.
    """
    pooled: dict = {}
    for part in parts:
        for key, value in part.items():
            if isinstance(value, Tally):
                pooled.setdefault(key, Tally()).merge(value)
            elif isinstance(value, dict):
                into = pooled.setdefault(key, {})
                for inner, items in value.items():
                    into.setdefault(inner, []).extend(items)
            elif isinstance(value, list):
                pooled.setdefault(key, []).extend(value)
            else:
                pooled.setdefault(key, []).append(value)
    return pooled


def result_line(
    correct: bool,
    tally: Tally,
    values: Dict[str, float],
    expected: Sequence[str],
    units: Dict[str, str],
) -> str:
    """The final JSON line: exactly the ``expected`` metrics, with units.

    Raises ``ValueError`` on a missing, extra, badly named or
    non-finite metric — a result the ledger could not use is a bug in
    the benchmark, not a measurement.
    """
    missing = sorted(set(expected) - set(values))
    extra = sorted(set(values) - set(expected))
    if missing or extra:
        raise ValueError(f"metrics missing {missing}, unexpected {extra}")
    metrics: Dict[str, dict] = {}
    for name in expected:
        validate_metric_name(name)
        value = float(values[name])
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        metrics[name] = {"value": value, "unit": units[name]}
    if tally.attempted < 1:
        raise ValueError("a run must attempt at least one operation")
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(tally.attempted),
            "failed": int(tally.failed),
            "metrics": metrics,
        }
    )
