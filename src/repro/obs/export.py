"""Exporters: Prometheus text exposition and JSON trace artifacts.

:func:`render_prometheus` merges any number of registries into one
text exposition (version 0.0.4 — ``# HELP`` / ``# TYPE`` comments,
one sample per line); :func:`parse_prometheus` is the small
validating inverse that the tests and the CI chaos scrape use to
assert the endpoint stays well-formed. :func:`trace_to_dict` turns a
flat span list into the serve-response artifact: flat spans, a
nested tree, and per-stage duration totals.
"""

from __future__ import annotations

import math
import re
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Tuple, Union

from .metrics import MetricFamily, MetricsRegistry, Sample
from .trace import Span

__all__ = [
    "parse_prometheus", "render_families", "render_prometheus",
    "span_tree", "trace_to_dict",
]


def _escape_help(text: str) -> str:
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _escape_label_value(text: str) -> str:
    return (text.replace("\\", r"\\").replace('"', r'\"')
            .replace("\n", r"\n"))


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _render_sample(sample: Sample) -> str:
    if sample.labels:
        inner = ",".join(
            f'{key}="{_escape_label_value(str(val))}"'
            for key, val in sample.labels)
        return f"{sample.name}{{{inner}}} {_format_value(sample.value)}"
    return f"{sample.name} {_format_value(sample.value)}"


def render_families(families: Iterable[MetricFamily]) -> str:
    """Render families as Prometheus text, merging same-name rows.

    Multiple registries may expose samples for the same family name
    (e.g. a daemon registry layered over the process registry); their
    samples concatenate under a single HELP/TYPE header, first
    registration's metadata winning.
    """
    order: List[str] = []
    merged: Dict[str, MetricFamily] = {}
    for family in families:
        seen = merged.get(family.name)
        if seen is None:
            merged[family.name] = family
            order.append(family.name)
        else:
            merged[family.name] = seen._replace(
                samples=seen.samples + family.samples)
    lines: List[str] = []
    for name in order:
        family = merged[name]
        if family.help:
            lines.append(f"# HELP {name} {_escape_help(family.help)}")
        lines.append(f"# TYPE {name} {family.kind}")
        lines.extend(_render_sample(s) for s in family.samples)
    return "\n".join(lines) + "\n" if lines else ""


def render_prometheus(
        registries: Iterable[MetricsRegistry]) -> str:
    """One text exposition over several registries."""
    families: List[MetricFamily] = []
    for registry in registries:
        families.extend(registry.collect())
    return render_families(families)


#: A quoted label value's body: any character but a quote or a
#: backslash, or a backslash escape. A ``}`` inside the quotes does not
#: end the label block.
_LABEL_VALUE = r'(?:[^"\\]|\\.)*'
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    rf'(?:\{{(?P<labels>(?:[^"}}]|"{_LABEL_VALUE}")*)\}})?'
    r"\s+(?P<value>\S+)\s*$")
_LABEL_PAIR_RE = re.compile(
    rf'([a-zA-Z_][a-zA-Z0-9_]*)="({_LABEL_VALUE})"')
_ESCAPE_RE = re.compile(r"\\(.)")
_UNESCAPED = {"\\": "\\", '"': '"', "n": "\n"}


def _unescape_label_value(text: str) -> str:
    """Undo :func:`_escape_label_value`, one escape at a time."""
    return _ESCAPE_RE.sub(
        lambda m: _UNESCAPED.get(m.group(1), m.group(0)), text)


def parse_prometheus(
        text: str
) -> Dict[str, Dict[Tuple[Tuple[str, str], ...], float]]:
    """Parse a text exposition back into ``{name: {labels: value}}``.

    Strict enough to catch real formatting bugs: every non-comment,
    non-blank line must match the sample grammar and carry a float
    value, and label blocks must be well-formed pairs. Raises
    :class:`ValueError` naming the offending line.
    """
    series: Dict[str, Dict[Tuple[Tuple[str, str], ...], float]] = \
        defaultdict(dict)
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        match = _SAMPLE_RE.match(stripped)
        if match is None:
            raise ValueError(
                f"line {number}: malformed sample {line!r}")
        raw_value = match.group("value")
        if raw_value in ("+Inf", "-Inf", "NaN"):
            value = float(raw_value.replace("Inf", "inf"))
        else:
            try:
                value = float(raw_value)
            except ValueError:
                raise ValueError(
                    f"line {number}: bad value {raw_value!r}") \
                    from None
        labels: Tuple[Tuple[str, str], ...] = ()
        raw_labels = match.group("labels")
        if raw_labels:
            pairs = _LABEL_PAIR_RE.findall(raw_labels)
            reassembled = ",".join(f'{k}="{v}"' for k, v in pairs)
            if reassembled != raw_labels:
                raise ValueError(
                    f"line {number}: malformed labels "
                    f"{raw_labels!r}")
            labels = tuple((k, _unescape_label_value(v))
                           for k, v in pairs)
        series[match.group("name")][labels] = value
    return dict(series)


def _as_dict(item: Union[Span, Dict[str, Any]]) -> Dict[str, Any]:
    if isinstance(item, dict):
        return dict(item)
    return item.to_dict()


def span_tree(
        spans: Iterable[Union[Span, Dict[str, Any]]]
) -> List[Dict[str, Any]]:
    """Nest flat spans into parent → ``children`` dicts.

    Spans whose parent is absent from the list (or ``None``) become
    roots — the daemon re-parents worker and batch spans under a
    synthetic request root before calling this.
    """
    flat = [_as_dict(s) for s in spans]
    flat.sort(key=lambda d: (d.get("start_unix", 0.0),
                             d.get("span_id", "")))
    by_parent: Dict[Any, List[Dict[str, Any]]] = defaultdict(list)
    ids = {d["span_id"] for d in flat}
    roots: List[Dict[str, Any]] = []
    for node in flat:
        parent = node.get("parent_id")
        if parent is None or parent not in ids:
            roots.append(node)
        else:
            by_parent[parent].append(node)

    def nest(node: Dict[str, Any]) -> Dict[str, Any]:
        children = by_parent.get(node["span_id"], [])
        made = dict(node)
        made["children"] = [nest(child) for child in children]
        return made

    return [nest(root) for root in roots]


def trace_to_dict(
        trace_id: str,
        spans: Iterable[Union[Span, Dict[str, Any]]]
) -> Dict[str, Any]:
    """The JSON trace artifact attached to serve responses.

    ``stages`` sums wall duration by span name (so "where did the
    time go" is one dict away); ``wall_s`` is the root spans' total.
    """
    flat = [_as_dict(s) for s in spans]
    flat.sort(key=lambda d: (d.get("start_unix", 0.0),
                             d.get("span_id", "")))
    tree = span_tree(flat)
    stages: Dict[str, float] = defaultdict(float)
    for node in flat:
        stages[node["name"]] += float(node.get("duration_s", 0.0))
    return {
        "trace_id": trace_id,
        "spans": flat,
        "tree": tree,
        "stages": dict(stages),
        "wall_s": sum(float(r.get("duration_s", 0.0))
                      for r in tree),
    }
