"""``python -m benchmarks.e2e compare A.json B.json``.

For every workload in both results files and every end-to-end metric
it prints both medians with their quartiles, the change, and a verdict
against the metric's bound (B is the candidate, A the baseline):

``worse``      even B's better quartile is worse than A's median by
               more than the bound;
``unresolved`` B's quartiles straddle the bound;
``better``     B's worse quartile beats A's median by more than A's own
               quartile spread;
``within``     otherwise.

``failed_ratio`` is worse on any increase.  Per-layer metrics, when
both files carry them, are listed with their change and no verdict,
except ``lost`` when B's traced pass could not find the function the
metric times (it then reads 0, which is not an improvement).
The exit code is 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import json

from .layers import lost_metrics
from .metrics import END_TO_END, PER_LAYER


def _relative(value: float, base: float, better: str) -> float:
    """Change from ``base``, positive when worse."""
    if not base:
        return 0.0
    change = (value - base) / base
    return change if better == "lower" else -change


def verdict(a: dict, b: dict, bound: float, better: str) -> str:
    """Judge summary ``b`` against summary ``a`` (each with value, q1,
    q3)."""
    base = a["value"]
    band = sorted(_relative(x, base, better) for x in (
        min(b["q1"], b["value"]), max(b["q3"], b["value"])))
    if band[0] > bound:
        return "worse"
    if band[1] > bound:
        return "unresolved"
    spread_a = abs(a["q3"] - a["q1"]) / base if base else 0.0
    if band[1] < -spread_a:
        return "better"
    return "within"


def _fmt(summary: dict) -> str:
    return (f"{summary['value']:.4g} "
            f"[{summary['q1']:.4g}-{summary['q3']:.4g}]")


def compare(a_doc: dict, b_doc: dict) -> tuple[list[str], bool]:
    """The report lines and whether any metric got worse."""
    lines = [f"{'workload':16} {'metric':26} {'A median [q1-q3]':24} "
             f"{'B median [q1-q3]':24} {'change':>8} {'bound':>6}  verdict"]
    any_worse = False
    for name, a in a_doc["workloads"].items():
        b = b_doc["workloads"].get(name)
        if b is None:
            continue
        for metric in END_TO_END:
            sa, sb = a["end_to_end"][metric.name], b["end_to_end"][
                metric.name]
            result = verdict(sa, sb, metric.bound, metric.better)
            any_worse |= result == "worse"
            change = _relative(sb["value"], sa["value"], metric.better)
            lines.append(f"{name:16} {metric.name:26} {_fmt(sa):24} "
                         f"{_fmt(sb):24} {change:+8.1%} "
                         f"{metric.bound:6.0%}  {result}")
        worse = b["failed_ratio"] > a["failed_ratio"]
        any_worse |= worse
        lines.append(f"{name:16} {'failed_ratio':26} "
                     f"{a['failed_ratio']:<24.4g} {b['failed_ratio']:<24.4g}"
                     f" {'':>8} {'0':>6}  {'worse' if worse else 'within'}")
        if "per_layer" in a and "per_layer" in b:
            lost = lost_metrics(b["per_layer_missing"])
            for metric in PER_LAYER:
                va = a["per_layer"][metric.name]
                vb = b["per_layer"][metric.name]
                change = _relative(vb, va, metric.better)
                mark = "lost" if metric.name in lost else "-"
                lines.append(f"{name:16} {metric.name:26} {va:<24.4g} "
                             f"{vb:<24.4g} {change:+8.1%} {'-':>6}  {mark}")
    return lines, any_worse


def main(a_path: str, b_path: str) -> int:
    with open(a_path, encoding="utf-8") as handle:
        a_doc = json.load(handle)
    with open(b_path, encoding="utf-8") as handle:
        b_doc = json.load(handle)
    lines, any_worse = compare(a_doc, b_doc)
    print("\n".join(lines))
    return 1 if any_worse else 0
