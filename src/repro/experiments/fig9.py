"""Figure 9: Monte-Carlo yield of DTMB(2,6), DTMB(3,6) and DTMB(4,4).

For designs with s > 1 the spare assignment is a matching problem, so the
paper estimates yield by simulation: 10 000 fault maps per point, repair
checked by maximum bipartite matching.  Yield is reported against survival
probability p for several array sizes n; the expected shape is
DTMB(4,4) >= DTMB(3,6) >= DTMB(2,6) at every point, with yield falling as
n grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.designs.catalog import DTMB_2_6, DTMB_3_6, DTMB_4_4
from repro.designs.spec import DesignSpec
from repro.experiments.registry import DEFAULT_STOP_RULE, BudgetPolicy, register
from repro.experiments.report import format_table
from repro.viz.plot import ascii_chart
from repro.yieldsim.engine import SweepEngine
from repro.yieldsim.stats import StopRule
from repro.yieldsim.sweeps import (
    DEFAULT_P_GRID,
    DEFAULT_RUNS,
    SurvivalPoint,
    survival_sweep,
)

__all__ = ["Fig9Result", "run", "DEFAULT_DESIGNS", "DEFAULT_NS"]

DEFAULT_DESIGNS: Tuple[DesignSpec, ...] = (DTMB_2_6, DTMB_3_6, DTMB_4_4)
DEFAULT_NS: Tuple[int, ...] = (60, 120, 240)


@dataclass(frozen=True)
class Fig9Result:
    """All sweep points plus convenient series views."""

    points: Tuple[SurvivalPoint, ...]

    def series(self, n: int) -> Dict[str, List[Tuple[float, float]]]:
        """Per-design (p, yield) series at one array size."""
        out: Dict[str, List[Tuple[float, float]]] = {}
        for point in self.points:
            if point.n == n:
                out.setdefault(point.design, []).append(
                    (point.p, point.yield_value)
                )
        return out

    def yield_at(self, design: str, n: int, p: float) -> float:
        for point in self.points:
            if point.design == design and point.n == n and abs(point.p - p) < 1e-9:
                return point.yield_value
        raise KeyError(f"no point for {design} n={n} p={p}")

    @property
    def headers(self) -> List[str]:
        return ["design", "n", "p", "yield", "ci lo", "ci hi"]

    @property
    def rows(self) -> List[Tuple[object, ...]]:
        return [
            (
                pt.design,
                pt.n,
                f"{pt.p:.2f}",
                f"{pt.yield_value:.4f}",
                f"{pt.estimate.lo:.4f}",
                f"{pt.estimate.hi:.4f}",
            )
            for pt in self.points
        ]

    def format_report(self) -> str:
        return format_table(self.headers, self.rows)

    def format_chart(self, n: int) -> str:
        return ascii_chart(
            self.series(n),
            title=f"Figure 9: Monte-Carlo yield, n={n} primary cells",
            y_label="yield",
            x_label="cell survival probability p",
        )


@register(
    "fig9",
    title="Monte-Carlo yield of DTMB(2,6), DTMB(3,6) and DTMB(4,4)",
    paper_ref="Figure 9",
    order=50,
    budget=BudgetPolicy(stop_rule=DEFAULT_STOP_RULE),
    model_knob=True,
    criterion_knob=True,
    charts=lambda raw: tuple(
        (f"n-{n}", raw.format_chart(n)) for n in sorted({pt.n for pt in raw.points})
    ),
)
def run(
    *,
    runs: int = DEFAULT_RUNS,
    seed: int = 2005,
    engine: Optional[SweepEngine] = None,
    designs: Sequence[DesignSpec] = DEFAULT_DESIGNS,
    ns: Sequence[int] = DEFAULT_NS,
    ps: Sequence[float] = DEFAULT_P_GRID,
    stop: Optional[StopRule] = None,
    model=None,
    criterion=None,
) -> Fig9Result:
    """The Figure 9 sweep (paper defaults: 10 000 runs per point).

    Pass a configured :class:`SweepEngine` to shard the 99 points across
    worker processes and/or reuse an on-disk result cache; pass a
    :class:`StopRule` to let each point stop as soon as its Wilson
    interval is as narrow as the figure needs; pass a defect-model family
    (``model``, e.g. ``family_from_spec("spot:radius=1")`` — the CLI's
    ``--defect-model``) to rerun the figure under a spatial defect regime;
    pass a success criterion (``criterion``, e.g.
    ``criterion_from_spec("routing:assay=glucose")`` — the CLI's
    ``--criterion``) to report functional yield instead of matching yield.
    """
    points = survival_sweep(
        designs, ns, ps, runs=runs, seed=seed, engine=engine, stop=stop,
        model=model, criterion=criterion,
    )
    return Fig9Result(points=tuple(points))
