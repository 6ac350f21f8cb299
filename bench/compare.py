"""Compare two benchmark result sets, metric by metric and workload by workload.

Usage::

    python3 bench/compare.py PARENT.json CHANGE.json

Each file is a result set written by ``bench/run.py --runs N``. Run ``i``
of the parent is paired with run ``i`` of the change (alternate which
commit runs first when making them). For every end-to-end metric and
workload this prints both medians and quartiles, the share of pairs the
change won, the metric's bound from ``BENCHMARK.json``, and a verdict:

* ``better``: the change wins at least nine tenths of the pairs (ties
  count for neither) and its median beats the parent's by more than the
  parent's interquartile range;
* ``worse``: the change's median is worse than the parent's by more than
  the bound, however wide the spread;
* ``unresolved``: the median is within the bound but the run-to-run
  spread is wider than the bound, so "no worse" cannot be shown (unless
  every change run beats every parent run, which is ``better``);
* ``unchanged``: otherwise.

It also compares each workload's failure share (failed / attempted).
The exit code is 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> Tuple[str, float]:
    """The verdict for one metric on one workload, and the share of pairs won."""
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    pairs = list(zip(parent, change))
    won = sum(1 for p, c in pairs if sign * (c - p) > 0) / len(pairs)
    gain = sign * (c_med - p_med)
    scale = abs(p_med) or 1.0
    worse_by = -gain / scale
    spread = max(p_q3 - p_q1, c_q3 - c_q1) / scale
    if won >= 0.9 and gain > p_q3 - p_q1:
        return "better", won
    if worse_by > bound:
        return "worse", won
    if spread > bound:
        best_parent = max(sign * p for p in parent)
        if all(sign * c > best_parent for c in change):
            return "better", won
        return "unresolved", won
    return "unchanged", won


def spread(runs: List[dict]) -> Dict[str, Dict[str, dict]]:
    """Per workload and end-to-end metric: median, quartiles and the
    interquartile range as a share of the median."""
    out: Dict[str, Dict[str, dict]] = {}
    for workload in runs[0]:
        for metric in runs[0][workload]["end_to_end"]:
            values = [run[workload]["end_to_end"][metric] for run in runs]
            q1, med, q3 = quartiles(values)
            out.setdefault(workload, {})[metric] = {
                "median": med,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / abs(med) if med else 0.0,
            }
    return out


def _cell(values: Sequence[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def compare(parent: dict, change: dict) -> Tuple[List[str], bool]:
    """Report lines, and whether any pairing got worse."""
    lines = [
        f"{'workload':<15} {'metric':<13} {'parent median [q1, q3]':>36} "
        f"{'change median [q1, q3]':>36} {'won':>5} {'bound':>6}  verdict"
    ]
    any_worse = False
    workloads = [w for w in parent["runs"][0] if w in change["runs"][0]]
    for workload in workloads:
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            p = [run[workload]["end_to_end"][name] for run in parent["runs"]]
            c = [run[workload]["end_to_end"][name] for run in change["runs"]]
            result, won = verdict(p, c, metric["better"], metric["bound"])
            any_worse |= result == "worse"
            lines.append(
                f"{workload:<15} {name:<13} {_cell(p):>36} {_cell(c):>36} "
                f"{won:>5.2f} {metric['bound']:>6.2f}  {result}"
            )
        shares = []
        for runs in (parent["runs"], change["runs"]):
            failed = sum(run[workload]["failed"] for run in runs)
            attempted = sum(run[workload]["attempted"] for run in runs)
            shares.append(failed / attempted if attempted else 0.0)
        result = "worse" if shares[1] > shares[0] else "unchanged"
        any_worse |= result == "worse"
        lines.append(
            f"{workload:<15} {'failed share':<13} {shares[0]:>36.6g} "
            f"{shares[1]:>36.6g} {'':>5} {'':>6}  {result}"
        )
    return lines, any_worse


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent, change = (json.loads(Path(p).read_text()) for p in argv)
    lines, any_worse = compare(parent, change)
    print("\n".join(lines))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
