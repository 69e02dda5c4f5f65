"""Manufacturing-fault models and seeded injection.

* :mod:`repro.faults.model` — the catastrophic/parametric taxonomy of
  Section 4 and the :class:`~repro.faults.model.FaultMap` container;
* :mod:`repro.faults.injection` — Bernoulli (the paper's assumption) and
  fixed-count (Figure 13) injectors;
* :mod:`repro.faults.parametric` — geometric-deviation process model.
"""

from repro.faults.injection import (
    CATASTROPHIC_KINDS,
    BernoulliInjector,
    FixedCountInjector,
    make_rng,
)
from repro.faults.model import Fault, FaultClass, FaultKind, FaultMap
from repro.faults.parametric import (
    DEFAULT_PROCESS,
    ELECTRODE_LENGTH,
    PARYLENE_THICKNESS,
    PLATE_GAP,
    TEFLON_THICKNESS,
    GeometricParameter,
    ParametricProcess,
)

__all__ = [
    "Fault",
    "FaultClass",
    "FaultKind",
    "FaultMap",
    "BernoulliInjector",
    "FixedCountInjector",
    "CATASTROPHIC_KINDS",
    "make_rng",
    "GeometricParameter",
    "ParametricProcess",
    "DEFAULT_PROCESS",
    "PARYLENE_THICKNESS",
    "TEFLON_THICKNESS",
    "ELECTRODE_LENGTH",
    "PLATE_GAP",
]
