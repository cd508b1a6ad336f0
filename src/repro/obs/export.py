"""Render a metrics snapshot as Prometheus text or JSON.

Input is the JSON-ready dict :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`
returns (or several of them merged via
:func:`~repro.obs.metrics.merge_snapshots`).  The Prometheus rendering
follows the text exposition format: ``# HELP`` / ``# TYPE`` headers,
histogram ``_bucket{le=...}`` series with a ``+Inf`` bucket, ``_sum`` and
``_count``.
"""

from __future__ import annotations

import json

from .metrics import quantile_from_buckets


def _format_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_prometheus(snapshot: dict[str, dict]) -> str:
    """The snapshot in Prometheus text exposition format."""
    lines: list[str] = []
    for name, data in sorted(snapshot.items()):
        lines.append(f"# HELP {name} {data.get('help', '')}")
        lines.append(f"# TYPE {name} {data['type']}")
        if data["type"] == "histogram":
            for bound, cumulative in data["buckets"]:
                lines.append(
                    f'{name}_bucket{{le="{_format_value(bound)}"}} {cumulative}'
                )
            lines.append(f'{name}_bucket{{le="+Inf"}} {data["count"]}')
            lines.append(f"{name}_sum {_format_value(data['sum'])}")
            lines.append(f"{name}_count {data['count']}")
        else:
            lines.append(f"{name} {_format_value(data['value'])}")
    return "\n".join(lines) + "\n"


def render_json(snapshot: dict[str, dict]) -> str:
    """The snapshot as stable, indented JSON."""
    return json.dumps(snapshot, indent=2, sort_keys=True) + "\n"


def _seconds(value: float) -> str:
    if value >= 1.0:
        return f"{value:.2f}s"
    if value >= 0.001:
        return f"{value * 1e3:.2f}ms"
    return f"{value * 1e6:.0f}µs"


def _number(value: float) -> str:
    return str(int(value)) if value == int(value) else f"{value:.2f}"


def render_table(snapshot: dict[str, dict]) -> str:
    """The snapshot as an aligned human-readable table.

    Counters and gauges print their value; histograms print count, sum
    and the p50/p99 quantiles estimated from the buckets: interpolated
    durations for ``*_seconds`` histograms, and bucket upper bounds for
    count histograms."""
    rows: list[tuple[str, str, str]] = []
    for name, data in sorted(snapshot.items()):
        if data["type"] == "histogram":
            count = data["count"]
            bounds = [bound for bound, _ in data["buckets"]]
            cumulative = [cum for _, cum in data["buckets"]]
            timed = name.endswith("_seconds")
            p50 = quantile_from_buckets(bounds, cumulative, count, 0.50, timed)
            p99 = quantile_from_buckets(bounds, cumulative, count, 0.99, timed)
            unit = _seconds if timed else _number
            value = (
                f"count {count}  sum {unit(data['sum'])}  "
                f"p50 {unit(p50)}  p99 {unit(p99)}"
            )
        else:
            value = _format_value(data["value"])
        rows.append((name, data["type"], value))
    name_width = max((len(name) for name, _, _ in rows), default=0)
    type_width = max((len(kind) for _, kind, _ in rows), default=0)
    return (
        "\n".join(
            f"{name:<{name_width}}  {kind:<{type_width}}  {value}"
            for name, kind, value in rows
        )
        + "\n"
    )
