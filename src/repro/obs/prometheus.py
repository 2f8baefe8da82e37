"""Prometheus text exposition: a renderer and a stdlib-only linter.

``GET /metrics?format=prometheus`` turns the daemon's telemetry into
the `text exposition format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_ so a
standard scraper can ingest it — counters for requests/rows/errors,
gauges for admission and batching state, and histograms whose buckets
come straight from the shared store's fixed log-spaced layout
(:mod:`repro.obs.histogram`), so PromQL's ``histogram_quantile`` over
summed worker series computes the same estimate the JSON snapshot
reports.

The linter is the CI half: ``promtool check metrics`` is the
canonical validator but is not installable in this environment, so
:func:`lint_exposition` re-implements its load-bearing checks —
name/label syntax, ``TYPE``/``HELP`` placement, family grouping,
duplicate series, counter naming, and histogram invariants
(cumulative buckets, ``le="+Inf"`` present and equal to ``_count``).
It returns a list of problems; CI asserts the list is empty.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

_VALID_TYPES = ("counter", "gauge", "histogram", "summary", "untyped")


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
class MetricFamily:
    """One family: ``# HELP`` / ``# TYPE`` plus its sample lines."""

    def __init__(self, name: str, mtype: str, help_text: str):
        if not _METRIC_NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        if mtype not in _VALID_TYPES:
            raise ValueError(f"invalid metric type {mtype!r}")
        if mtype == "counter" and not name.endswith("_total"):
            # OpenMetrics naming; promtool warns on it, we refuse it.
            raise ValueError(
                f"counter {name!r} must end with '_total'"
            )
        self.name = name
        self.mtype = mtype
        self.help_text = help_text
        self._lines: List[str] = []

    def add_sample(
        self,
        value: float,
        labels: Optional[Mapping[str, str]] = None,
        suffix: str = "",
    ) -> None:
        self._lines.append(
            f"{self.name}{suffix}{_render_labels(labels)} "
            f"{_format_value(value)}"
        )

    def add_histogram(
        self,
        bucket_counts: Sequence[float],
        total_sum: float,
        bounds: Sequence[float],
        labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        """Cumulative ``_bucket``/``_sum``/``_count`` series for one
        label set.  ``bucket_counts`` are per-bucket (not cumulative)
        with one trailing overflow bucket, as the metrics store keeps
        them (:mod:`repro.server.metrics`)."""
        if len(bucket_counts) != len(bounds) + 1:
            raise ValueError(
                f"expected {len(bounds) + 1} buckets "
                f"(finite bounds + overflow), got {len(bucket_counts)}"
            )
        labels = dict(labels or {})
        cumulative = 0.0
        for count, bound in zip(bucket_counts, bounds):
            cumulative += float(count)
            self.add_sample(
                cumulative,
                {**labels, "le": _format_bound(bound)},
                suffix="_bucket",
            )
        cumulative += float(bucket_counts[-1])
        self.add_sample(
            cumulative, {**labels, "le": "+Inf"}, suffix="_bucket"
        )
        self.add_sample(float(total_sum), labels, suffix="_sum")
        self.add_sample(cumulative, labels, suffix="_count")

    def render(self) -> str:
        head = (
            f"# HELP {self.name} {_escape_help(self.help_text)}\n"
            f"# TYPE {self.name} {self.mtype}\n"
        )
        return head + "".join(line + "\n" for line in self._lines)


def render_exposition(families: Sequence[MetricFamily]) -> str:
    """Families concatenated into one scrape body (trailing newline)."""
    return "".join(family.render() for family in families)


def _render_labels(labels: Optional[Mapping[str, str]]) -> str:
    if not labels:
        return ""
    parts = []
    for name, value in labels.items():
        if not _LABEL_NAME_RE.match(name):
            raise ValueError(f"invalid label name {name!r}")
        parts.append(f'{name}="{_escape_label(str(value))}"')
    return "{" + ",".join(parts) + "}"


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_bound(bound: float) -> str:
    return f"{float(bound):.6g}"


def _format_value(value: float) -> str:
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


# ----------------------------------------------------------------------
# Linting
# ----------------------------------------------------------------------
def lint_exposition(text: str) -> List[str]:
    """Validate a scrape body; returns problems (empty = clean).

    Covers the checks ``promtool check metrics`` fails or warns on
    that our renderer could plausibly violate; see the module
    docstring for the list.
    """
    problems: List[str] = []
    if text and not text.endswith("\n"):
        problems.append("exposition must end with a newline")
    types: Dict[str, str] = {}
    helps: Dict[str, str] = {}
    # name -> finished flag (samples must be contiguous per family)
    finished: Dict[str, bool] = {}
    current_family: Optional[str] = None
    series_seen = set()
    samples: List[Tuple[str, Dict[str, str], float, int]] = []

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                continue  # free-form comment: legal, ignored
            kind, name = parts[1], parts[2]
            if not _METRIC_NAME_RE.match(name):
                problems.append(
                    f"line {lineno}: invalid metric name {name!r} in "
                    f"{kind}"
                )
                continue
            target = types if kind == "TYPE" else helps
            if name in target:
                problems.append(
                    f"line {lineno}: duplicate {kind} for {name}"
                )
            if kind == "TYPE":
                mtype = parts[3].strip() if len(parts) > 3 else ""
                if mtype not in _VALID_TYPES:
                    problems.append(
                        f"line {lineno}: unknown type {mtype!r} for {name}"
                    )
                if any(base(sample[0]) == name for sample in samples):
                    problems.append(
                        f"line {lineno}: TYPE for {name} appears after "
                        f"its samples"
                    )
                types[name] = mtype
            else:
                helps[name] = parts[3] if len(parts) > 3 else ""
            continue
        parsed = _parse_sample(line)
        if parsed is None:
            problems.append(f"line {lineno}: unparseable sample {line!r}")
            continue
        name, labels, value = parsed
        family = base(name)
        if current_family is not None and family != current_family:
            finished[current_family] = True
        if finished.get(family):
            problems.append(
                f"line {lineno}: samples of {family} are not contiguous"
            )
        current_family = family
        key = (name, tuple(sorted(labels.items())))
        if key in series_seen:
            problems.append(
                f"line {lineno}: duplicate series {name}{labels}"
            )
        series_seen.add(key)
        samples.append((name, labels, value, lineno))

    problems.extend(_check_families(samples, types))
    return problems


def base(sample_name: str) -> str:
    """Family name of a sample line (strips histogram suffixes)."""
    for suffix in ("_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            return sample_name[: -len(suffix)]
    return sample_name


def _check_families(samples, types) -> List[str]:
    problems: List[str] = []
    for name, labels, value, lineno in samples:
        family = base(name)
        mtype = types.get(family) or types.get(name)
        if mtype is None:
            problems.append(
                f"line {lineno}: sample {name} has no TYPE declaration"
            )
            continue
        if mtype == "counter":
            if not base(name).endswith("_total"):
                problems.append(
                    f"line {lineno}: counter {name} should end in _total"
                )
            if value < 0:
                problems.append(
                    f"line {lineno}: counter {name} is negative"
                )
    # Histogram invariants, grouped by (family, non-le labels).
    hist_groups: Dict[Tuple[str, tuple], Dict[str, object]] = {}
    for name, labels, value, lineno in samples:
        family = base(name)
        if types.get(family) != "histogram":
            continue
        group_key = (
            family,
            tuple(
                sorted(
                    (k, v) for k, v in labels.items() if k != "le"
                )
            ),
        )
        group = hist_groups.setdefault(
            group_key, {"buckets": [], "sum": None, "count": None}
        )
        if name.endswith("_bucket"):
            group["buckets"].append((labels.get("le"), value, lineno))
        elif name.endswith("_sum"):
            group["sum"] = value
        elif name.endswith("_count"):
            group["count"] = value
    for (family, label_key), group in hist_groups.items():
        where = f"histogram {family}{dict(label_key)}"
        buckets = group["buckets"]
        if not buckets:
            problems.append(f"{where}: no _bucket series")
            continue
        inf_value = None
        previous = None
        previous_bound = -math.inf
        for le, value, lineno in buckets:
            if le is None:
                problems.append(
                    f"line {lineno}: {where}: _bucket without an "
                    f"'le' label"
                )
                continue
            bound = math.inf if le == "+Inf" else _parse_float(le)
            if bound is None:
                problems.append(
                    f"line {lineno}: {where}: bad le value {le!r}"
                )
                continue
            if bound <= previous_bound:
                problems.append(
                    f"line {lineno}: {where}: le values not ascending"
                )
            previous_bound = bound
            if previous is not None and value < previous:
                problems.append(
                    f"line {lineno}: {where}: bucket counts are not "
                    f"cumulative"
                )
            previous = value
            if le == "+Inf":
                inf_value = value
        if inf_value is None:
            problems.append(f'{where}: missing le="+Inf" bucket')
        if group["sum"] is None:
            problems.append(f"{where}: missing _sum")
        if group["count"] is None:
            problems.append(f"{where}: missing _count")
        elif inf_value is not None and group["count"] != inf_value:
            problems.append(
                f"{where}: _count ({group['count']}) != +Inf bucket "
                f"({inf_value})"
            )
    return problems


def _parse_sample(line: str):
    """``(name, labels, value)`` of one sample line, or ``None``."""
    rest = line.strip()
    match = re.match(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)", rest)
    if not match:
        return None
    name = match.group(1)
    rest = rest[match.end():]
    labels: Dict[str, str] = {}
    if rest.startswith("{"):
        end = _find_label_end(rest)
        if end is None:
            return None
        parsed = _parse_labels(rest[1:end])
        if parsed is None:
            return None
        labels = parsed
        rest = rest[end + 1:]
    fields = rest.split()
    if not fields or len(fields) > 2:  # value [timestamp]
        return None
    value = _parse_float(fields[0])
    if value is None:
        return None
    if len(fields) == 2 and _parse_float(fields[1]) is None:
        return None
    return name, labels, value


def _find_label_end(rest: str) -> Optional[int]:
    in_quotes = False
    escaped = False
    for i, ch in enumerate(rest):
        if i == 0:
            continue
        if escaped:
            escaped = False
        elif ch == "\\":
            escaped = True
        elif ch == '"':
            in_quotes = not in_quotes
        elif ch == "}" and not in_quotes:
            return i
    return None


def _parse_labels(body: str) -> Optional[Dict[str, str]]:
    labels: Dict[str, str] = {}
    rest = body.strip()
    while rest:
        match = re.match(r'^([a-zA-Z_][a-zA-Z0-9_]*)="', rest)
        if not match:
            return None
        name = match.group(1)
        i = match.end()
        value_chars = []
        while i < len(rest):
            ch = rest[i]
            if ch == "\\":
                if i + 1 >= len(rest):
                    return None
                nxt = rest[i + 1]
                value_chars.append(
                    {"n": "\n", "\\": "\\", '"': '"'}.get(nxt)
                )
                if value_chars[-1] is None:
                    return None
                i += 2
            elif ch == '"':
                break
            else:
                value_chars.append(ch)
                i += 1
        else:
            return None
        labels[name] = "".join(value_chars)
        rest = rest[i + 1:].lstrip()
        if rest.startswith(","):
            rest = rest[1:].lstrip()
        elif rest:
            return None
    return labels


def _parse_float(token: str) -> Optional[float]:
    if token == "+Inf":
        return math.inf
    if token == "-Inf":
        return -math.inf
    try:
        return float(token)
    except ValueError:
        return None
