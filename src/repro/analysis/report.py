"""Result formatting: the rows/series the paper's tables and figures report.

Benchmarks print their reproduced data through these helpers so every
table and series has one format.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.serving.metrics import RunMetrics


@dataclass(frozen=True)
class SeriesPoint:
    """One (x, system) cell of a figure."""

    x: float
    system: str
    attainment: float
    goodput: float
    violation_rate: float
    mean_accepted: float


def format_table(header, rows, markdown: bool = False) -> str:
    """Aligned plain-text table with a dash rule under the header, or a
    GitHub markdown table with ``markdown`` (e.g. for a CI job summary)."""
    if markdown:
        lines = ["| " + " | ".join(header) + " |", "|" + "|".join("---" for _ in header) + "|"]
        lines += ["| " + " | ".join(row) + " |" for row in rows]
        return "\n".join(lines)
    widths = [max(len(cell) for cell in column) for column in zip(header, *rows)]

    def fmt(cells) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    return "\n".join([fmt(header), fmt(["-" * w for w in widths]), *map(fmt, rows)])


def point_from_metrics(x: float, system: str, metrics: RunMetrics) -> SeriesPoint:
    """Build a figure cell from run metrics."""
    return SeriesPoint(
        x=x,
        system=system,
        attainment=metrics.attainment,
        goodput=metrics.goodput,
        violation_rate=metrics.violation_rate,
        mean_accepted=metrics.mean_accepted_per_verify,
    )


def series_table(
    points: list[SeriesPoint],
    value: str = "attainment",
    x_label: str = "RPS",
) -> str:
    """Pivot points into an x-by-system table of one metric.

    ``value`` is any :class:`SeriesPoint` field name.
    """
    systems = sorted({p.system for p in points})
    xs = sorted({p.x for p in points})
    lookup = {(p.x, p.system): getattr(p, value) for p in points}
    headers = [x_label, *systems]
    rows = []
    for x in xs:
        row = [f"{x:g}"]
        for s in systems:
            v = lookup.get((x, s))
            row.append("-" if v is None else f"{v:.3f}")
        rows.append(row)
    return format_table(headers, rows)


def best_baseline(
    points: list[SeriesPoint], x: float, value: str, exclude: str = "AdaServe"
) -> SeriesPoint | None:
    """The strongest non-AdaServe system at a given x (by ``value``)."""
    candidates = [p for p in points if p.x == x and p.system != exclude]
    if not candidates:
        return None
    return max(candidates, key=lambda p: getattr(p, value))


def improvement_summary(points: list[SeriesPoint]) -> dict[str, float]:
    """Headline ratios the paper quotes (best over the sweep).

    - ``max_violation_reduction``: max over x of
      best-baseline violation rate / AdaServe violation rate;
    - ``max_goodput_ratio``: max over x of
      AdaServe goodput / best-baseline goodput.
    """
    xs = sorted({p.x for p in points})
    max_vr = 0.0
    max_gp = 0.0
    for x in xs:
        ada = next((p for p in points if p.x == x and p.system == "AdaServe"), None)
        if ada is None:
            continue
        bb_v = best_baseline(points, x, "attainment")
        if bb_v is not None and ada.violation_rate > 0:
            max_vr = max(max_vr, bb_v.violation_rate / ada.violation_rate)
        elif bb_v is not None and bb_v.violation_rate > 0:
            max_vr = float("inf")
        bb_g = best_baseline(points, x, "goodput")
        if bb_g is not None and bb_g.goodput > 0:
            max_gp = max(max_gp, ada.goodput / bb_g.goodput)
    return {"max_violation_reduction": max_vr, "max_goodput_ratio": max_gp}
