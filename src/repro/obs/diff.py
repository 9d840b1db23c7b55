"""Component-by-component diffing of attribution exports.

``repro explain --baseline OTHER.json`` compares the current run's
attribution payload (see :mod:`repro.obs.attrib`) against a previously
exported one: fleet-wide totals per latency component, the violation
count, and the root-cause histogram.  A component *regresses* when its
total grows by more than **both** thresholds — an absolute floor (so
microscopic scenarios can't trip percentage noise) and a relative
fraction of the baseline (so big scenarios can't hide real growth under
the floor); improvements use the same rule mirrored.  Requiring both is
what lets CI pin a same-seed rerun to a *zero* diff while a genuinely
changed scheduler still trips the gate.

The verdict drives the CLI exit code: any regression exits nonzero, so
CI's explain-smoke job gets a where-did-the-time-go gate.
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.obs.attrib import COMPONENTS
from repro.obs.spec import DEFAULT_ABS_THRESHOLD_S, DEFAULT_REL_THRESHOLD


def diff_attributions(
    baseline: dict,
    current: dict,
    rel_threshold: float = DEFAULT_REL_THRESHOLD,
    abs_threshold_s: float = DEFAULT_ABS_THRESHOLD_S,
) -> dict:
    """Compare two attribution payloads' fleet-wide component totals.

    Returns ``{"rows": [...], "regressions": [...], "improvements":
    [...], "violations": {...}}`` — one row per component with baseline/
    current/delta seconds and the relative delta (``None`` on a zero
    baseline), plus a violation-count row that flags **any** increase as
    a regression (a violated request is a binary outcome; thresholds
    are for seconds, not counts).
    """
    rows = []
    regressions = []
    improvements = []
    for comp in COMPONENTS:
        base = baseline["totals"].get(comp, 0.0)
        cur = current["totals"].get(comp, 0.0)
        delta = cur - base
        rel = delta / base if base > 0.0 else None
        worse = delta > abs_threshold_s and delta > rel_threshold * base
        better = -delta > abs_threshold_s and -delta > rel_threshold * base
        row = {
            "component": comp,
            "baseline_s": base,
            "current_s": cur,
            "delta_s": delta,
            "delta_rel": rel,
            "regression": worse,
            "improvement": better,
        }
        rows.append(row)
        if worse:
            regressions.append(comp)
        if better:
            improvements.append(comp)

    base_viol = baseline.get("num_violated", 0)
    cur_viol = current.get("num_violated", 0)
    violations = {
        "baseline": base_viol,
        "current": cur_viol,
        "delta": cur_viol - base_viol,
        "regression": cur_viol > base_viol,
    }
    if violations["regression"]:
        regressions.append("num_violated")

    return {
        "rows": rows,
        "violations": violations,
        "regressions": regressions,
        "improvements": improvements,
        "rel_threshold": rel_threshold,
        "abs_threshold_s": abs_threshold_s,
    }


def format_diff_table(diff: dict, markdown: bool = False) -> str:
    """Render a diff result as a table plus a one-line verdict."""
    header = ("component", "baseline_s", "current_s", "delta_s", "delta", "verdict")
    body = []
    for row in diff["rows"]:
        rel = row["delta_rel"]
        verdict = (
            "REGRESSION"
            if row["regression"]
            else "improvement"
            if row["improvement"]
            else "ok"
        )
        body.append(
            (
                row["component"],
                f"{row['baseline_s']:.3f}",
                f"{row['current_s']:.3f}",
                f"{row['delta_s']:+.3f}",
                f"{rel * 100:+.1f}%" if rel is not None else "-",
                verdict,
            )
        )
    viol = diff["violations"]
    body.append(
        (
            "num_violated",
            str(viol["baseline"]),
            str(viol["current"]),
            f"{viol['delta']:+d}",
            "-",
            "REGRESSION" if viol["regression"] else "ok",
        )
    )

    if diff["regressions"]:
        verdict = "REGRESSION: " + ", ".join(diff["regressions"])
    elif diff["improvements"]:
        verdict = "improved: " + ", ".join(diff["improvements"])
    else:
        verdict = "no significant attribution change"
    return format_table(header, body, markdown) + "\n\n" + verdict
