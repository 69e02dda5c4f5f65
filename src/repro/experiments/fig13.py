"""Figure 13: yield of the redesigned chip vs number of random faults.

"To analyze the improvement in yield, we randomly introduce m cell
failures, and then apply local reconfiguration to avoid them ... For up to
35 faults, the redundant design can provide a yield of at least 0.90."

Faults land uniformly on all 343 cells (used and unused primaries, and
spares); the chip survives iff every faulty *assay-used* primary is matched
to an adjacent fault-free spare.  Unused primaries absorb faults for free —
that, plus two spares per used cell, is what keeps yield above 0.90 deep
into double-digit fault counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.assays.chipspec import DiagnosticsChip, redesigned_chip
from repro.experiments.registry import DEFAULT_STOP_RULE, BudgetPolicy, register
from repro.experiments.report import format_table
from repro.viz.plot import ascii_chart
from repro.yieldsim.engine import SweepEngine
from repro.yieldsim.stats import StopRule
from repro.yieldsim.sweeps import DEFAULT_RUNS, DefectCountPoint, defect_count_sweep

__all__ = ["Fig13Result", "run", "PAPER_PLATEAU_FAULTS", "PAPER_PLATEAU_YIELD"]

PAPER_PLATEAU_FAULTS = 35
PAPER_PLATEAU_YIELD = 0.90

DEFAULT_MS: Tuple[int, ...] = (5, 10, 15, 20, 25, 30, 35, 40, 45, 50)


@dataclass(frozen=True)
class Fig13Result:
    """Yield-vs-m sweep on the Figure 12 redesign."""

    layout: DiagnosticsChip
    points: Tuple[DefectCountPoint, ...]

    def yield_at(self, m: int) -> float:
        for point in self.points:
            if point.m == m:
                return point.yield_value
        raise KeyError(f"no sweep point at m={m}")

    def series(self) -> Dict[str, List[Tuple[float, float]]]:
        return {
            "DTMB(2,6) redesign": [
                (float(pt.m), pt.yield_value) for pt in self.points
            ]
        }

    @property
    def headers(self) -> List[str]:
        return ["m (faults)", "yield", "ci lo", "ci hi"]

    @property
    def rows(self) -> List[Tuple[object, ...]]:
        return [
            (
                pt.m,
                f"{pt.yield_value:.4f}",
                f"{pt.estimate.lo:.4f}",
                f"{pt.estimate.hi:.4f}",
            )
            for pt in self.points
        ]

    def format_report(self) -> str:
        return format_table(self.headers, self.rows)

    def format_chart(self) -> str:
        return ascii_chart(
            self.series(),
            title="Figure 13: yield vs number of random cell faults",
            y_label="yield",
            x_label="faults m",
        )


@register(
    "fig13",
    title="Yield of the redesigned chip vs number of random faults",
    paper_ref="Figure 13",
    order=90,
    budget=BudgetPolicy(stop_rule=DEFAULT_STOP_RULE),
    charts=lambda raw: (("yield-vs-m", raw.format_chart()),),
)
def run(
    *,
    runs: int = DEFAULT_RUNS,
    seed: int = 2005,
    engine: Optional[SweepEngine] = None,
    ms: Sequence[int] = DEFAULT_MS,
    stop: Optional[StopRule] = None,
) -> Fig13Result:
    """The Figure 13 sweep on the 252+91-cell redesigned chip."""
    layout = redesigned_chip()
    points = defect_count_sweep(
        layout.chip, ms, needed=layout.used, runs=runs, seed=seed, engine=engine,
        stop=stop,
    )
    return Fig13Result(layout=layout, points=tuple(points))
