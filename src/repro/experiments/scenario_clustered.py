"""Scenario pack: the paper's figures under realistic spatial defect models.

The paper's yield model assumes independent cell failures, "valid for
random and small spot defects"; the defect literature it cites (Koren &
Koren) says exactly when that fails — clustered spot defects, per-chip
rate variation, wafer gradients.  These experiments rerun the paper's
Monte-Carlo figures under those regimes via the pluggable
:mod:`repro.yieldsim.defects` subsystem, all through the standard sweep
engine (sharding, caching and adaptive budgets included), and each one's
manifest provenance names the defect model and its content digest.

* ``fig7-clustered`` — the DTMB(1,6) flower array under spot defects
  calibrated to the same expected number of dead cells as the i.i.d.
  model: how optimistic is the analytical cluster model when defects
  actually cluster?
* ``fig9-clustered`` — the full Figure 9 sweep (three designs, three
  array sizes) under severity-matched spot defects.
* ``scenario-gradient`` — one design under three matched regimes: i.i.d.,
  a center-to-edge survival gradient, and Stapper-style negative-binomial
  rate mixing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.designs.catalog import DTMB_2_6
from repro.designs.interstitial import build_flower_chip
from repro.designs.spec import DesignSpec
from repro.experiments.fig9 import DEFAULT_DESIGNS, DEFAULT_NS
from repro.experiments.registry import DEFAULT_STOP_RULE, BudgetPolicy, register
from repro.experiments.report import format_table
from repro.viz.plot import ascii_chart
from repro.yieldsim.defects import (
    IIDBernoulli,
    NegativeBinomialClustered,
    RadialGradient,
    SpotDefects,
    family_from_spec,
    geometry_for,
)
from repro.yieldsim.engine import SweepEngine
from repro.yieldsim.stats import StopRule
from repro.yieldsim.sweeps import (
    DEFAULT_P_GRID,
    DEFAULT_RUNS,
    SurvivalPoint,
    defect_model_sweep,
    survival_sweep,
)

__all__ = [
    "Fig7ClusteredResult",
    "Fig9ClusteredResult",
    "GradientScenarioResult",
    "run_fig7_clustered",
    "run_fig9_clustered",
    "run_gradient",
]


# -- fig7-clustered -----------------------------------------------------------

@dataclass(frozen=True)
class Fig7ClusteredResult:
    """i.i.d. vs severity-matched spot defects on the flower array."""

    n: int
    radius: int
    ps: Tuple[float, ...]
    iid: Dict[float, float]
    clustered: Dict[float, float]

    @property
    def headers(self) -> List[str]:
        return ["p", "yield (iid)", f"yield (spot r={self.radius})", "gap"]

    @property
    def rows(self) -> List[Tuple[object, ...]]:
        return [
            (
                f"{p:.2f}",
                f"{self.iid[p]:.4f}",
                f"{self.clustered[p]:.4f}",
                f"{self.iid[p] - self.clustered[p]:.4f}",
            )
            for p in self.ps
        ]

    def gaps(self) -> List[float]:
        return [self.iid[p] - self.clustered[p] for p in self.ps]

    def format_report(self) -> str:
        return format_table(self.headers, self.rows)

    def format_chart(self) -> str:
        series = {
            "iid": [(p, self.iid[p]) for p in self.ps],
            f"spot r={self.radius}": [(p, self.clustered[p]) for p in self.ps],
        }
        return ascii_chart(
            series,
            title=f"Figure 7 scenario: DTMB(1,6) n={self.n}, "
            "independent vs clustered defects",
            y_label="yield",
            x_label="cell survival probability p (matched expected faults)",
        )


@register(
    "fig7-clustered",
    title="DTMB(1,6) flower array under severity-matched spot defects",
    paper_ref="Figure 7 (clustered scenario)",
    order=140,
    aliases=("fig7c",),
    budget=BudgetPolicy(stop_rule=DEFAULT_STOP_RULE),
    charts=lambda raw: (("iid-vs-clustered", raw.format_chart()),),
    epilogue=lambda raw: (
        "",
        f"max independence-assumption gap: {max(raw.gaps()):.4f}",
    ),
)
def run_fig7_clustered(
    *,
    runs: int = DEFAULT_RUNS,
    seed: int = 2005,
    engine: Optional[SweepEngine] = None,
    n: int = 60,
    ps: Sequence[float] = DEFAULT_P_GRID,
    radius: int = 1,
    stop: Optional[StopRule] = None,
) -> Fig7ClusteredResult:
    """Monte-Carlo yield of the flower array, i.i.d. vs spot defects.

    At each p the spot model is calibrated (closed form, no sampling) to
    kill the same expected number of cells as ``IIDBernoulli(p)``, so any
    yield gap is purely the *spatial* effect of clustering — a spot that
    covers a primary and its only spare defeats the flower repair.
    """
    chip = build_flower_chip(n)
    geometry = geometry_for(chip)
    # One engine call for both regimes: one worker pool, full-width load
    # balancing, and per-point seeds identical to separate calls.
    models = [IIDBernoulli(p) for p in ps] + [
        SpotDefects.calibrate(geometry, 1.0 - p, radius) for p in ps
    ]
    points = defect_model_sweep(
        chip, models, runs=runs, seed=seed, engine=engine, stop=stop
    )
    return Fig7ClusteredResult(
        n=n,
        radius=radius,
        ps=tuple(ps),
        iid={p: pt.yield_value for p, pt in zip(ps, points[: len(ps)])},
        clustered={p: pt.yield_value for p, pt in zip(ps, points[len(ps):])},
    )


# -- fig9-clustered -----------------------------------------------------------

@dataclass(frozen=True)
class Fig9ClusteredResult:
    """The Figure 9 sweep rerun under a clustered defect model."""

    radius: int
    points: Tuple[SurvivalPoint, ...]

    def series(self, n: int) -> Dict[str, List[Tuple[float, float]]]:
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
        return ["design", "n", "p", "model", "yield", "ci lo", "ci hi"]

    @property
    def rows(self) -> List[Tuple[object, ...]]:
        return [
            (
                pt.design,
                pt.n,
                f"{pt.p:.2f}",
                pt.model,
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
            title=f"Figure 9 scenario: spot-defect yield, n={n} primary cells",
            y_label="yield",
            x_label="cell survival probability p (matched expected faults)",
        )


@register(
    "fig9-clustered",
    title="Monte-Carlo yield of the s > 1 designs under spot defects",
    paper_ref="Figure 9 (clustered scenario)",
    order=141,
    aliases=("fig9c",),
    budget=BudgetPolicy(stop_rule=DEFAULT_STOP_RULE),
    charts=lambda raw: tuple(
        (f"n-{n}", raw.format_chart(n)) for n in sorted({pt.n for pt in raw.points})
    ),
)
def run_fig9_clustered(
    *,
    runs: int = DEFAULT_RUNS,
    seed: int = 2005,
    engine: Optional[SweepEngine] = None,
    designs: Sequence[DesignSpec] = DEFAULT_DESIGNS,
    ns: Sequence[int] = DEFAULT_NS,
    ps: Sequence[float] = DEFAULT_P_GRID,
    radius: int = 1,
    stop: Optional[StopRule] = None,
) -> Fig9ClusteredResult:
    """Figure 9's grid with spot defects replacing i.i.d. failures.

    Every (design, n, p) point samples from a per-chip calibrated
    :class:`~repro.yieldsim.defects.SpotDefects` killing ``1 - p`` of
    cells in expectation, using the same ``seed + counter`` point seeds as
    the classic sweep, so the clustered figure is directly comparable to
    ``fig9`` at equal budget and seed.
    """
    points = survival_sweep(
        designs,
        ns,
        ps,
        runs=runs,
        seed=seed,
        engine=engine,
        stop=stop,
        model=family_from_spec(f"spot:radius={radius}"),
    )
    return Fig9ClusteredResult(radius=radius, points=tuple(points))


# -- scenario-gradient --------------------------------------------------------

@dataclass(frozen=True)
class GradientScenarioResult:
    """One design under i.i.d., radial-gradient and rate-mixing regimes."""

    design: str
    n: int
    spread: float
    alpha: float
    ps: Tuple[float, ...]
    yields: Dict[str, Dict[float, float]]  # regime -> p -> yield

    REGIMES = ("iid", "gradient", "negbin")

    @property
    def headers(self) -> List[str]:
        return [
            "p",
            "yield (iid)",
            f"yield (gradient Δ{self.spread:g})",
            f"yield (negbin α={self.alpha:g})",
        ]

    @property
    def rows(self) -> List[Tuple[object, ...]]:
        return [
            (
                f"{p:.2f}",
                *(f"{self.yields[regime][p]:.4f}" for regime in self.REGIMES),
            )
            for p in self.ps
        ]

    def gap(self, regime: str) -> float:
        """Worst yield shortfall of a regime vs the i.i.d. assumption."""
        return max(
            self.yields["iid"][p] - self.yields[regime][p] for p in self.ps
        )

    def format_report(self) -> str:
        return format_table(self.headers, self.rows)

    def format_chart(self) -> str:
        series = {
            regime: [(p, self.yields[regime][p]) for p in self.ps]
            for regime in self.REGIMES
        }
        return ascii_chart(
            series,
            title=f"Gradient scenario: {self.design} n={self.n} "
            "under matched spatial regimes",
            y_label="yield",
            x_label="mean cell survival probability p",
        )


@register(
    "scenario-gradient",
    title="Wafer-gradient and rate-mixing defect scenarios",
    paper_ref="Section 5 (scenario pack)",
    order=142,
    aliases=("gradient",),
    budget=BudgetPolicy(stop_rule=DEFAULT_STOP_RULE),
    charts=lambda raw: (("regimes", raw.format_chart()),),
    epilogue=lambda raw: (
        "",
        f"worst gradient gap vs iid: {raw.gap('gradient'):.4f}; "
        f"worst negbin gap vs iid: {raw.gap('negbin'):.4f}",
    ),
)
def run_gradient(
    *,
    runs: int = DEFAULT_RUNS,
    seed: int = 2005,
    engine: Optional[SweepEngine] = None,
    spec: DesignSpec = DTMB_2_6,
    n: int = 120,
    ps: Sequence[float] = DEFAULT_P_GRID,
    spread: float = 0.06,
    alpha: float = 1.0,
    stop: Optional[StopRule] = None,
) -> GradientScenarioResult:
    """Compare i.i.d., gradient and negative-binomial regimes at equal mean.

    All three regimes are calibrated to the same mean cell survival p at
    every sweep point — the gradient drops by ``spread`` total from chip
    center to edge and the negative-binomial model mixes the failure rate
    across runs — so the table isolates how the *shape* of the failure
    distribution moves yield at constant average severity.
    """
    from repro.designs.interstitial import build_with_primary_count

    chip = build_with_primary_count(spec, n).build()
    geometry = geometry_for(chip)
    regimes = {
        "iid": [IIDBernoulli(p) for p in ps],
        "gradient": [
            RadialGradient.calibrate(geometry, p, spread) for p in ps
        ],
        "negbin": [NegativeBinomialClustered(p, alpha) for p in ps],
    }
    # All regimes in one engine call (one pool, one load-balanced batch);
    # per-point seeds are shared either way, so the split is cosmetic.
    flat = [model for models in regimes.values() for model in models]
    points = defect_model_sweep(
        chip, flat, runs=runs, seed=seed, engine=engine, stop=stop
    )
    yields: Dict[str, Dict[float, float]] = {}
    for i, regime in enumerate(regimes):
        block = points[i * len(ps): (i + 1) * len(ps)]
        yields[regime] = {p: pt.yield_value for p, pt in zip(ps, block)}
    return GradientScenarioResult(
        design=spec.name,
        n=n,
        spread=spread,
        alpha=alpha,
        ps=tuple(ps),
        yields=yields,
    )
