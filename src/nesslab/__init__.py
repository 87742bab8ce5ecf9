"""Finite-volume laboratory for quantum spin systems coupled to reservoirs.

A small system is connected to finitely truncated reservoirs held at
different inverse temperatures. The package assembles the finite-volume
operators, evolves observables exactly, averages them over a time horizon
in the initial product state, and evaluates reservoir energy fluxes and
entropy production, whose finite-volume nonnegativity is exact.
"""

from .model import (
    InteractionTerm,
    ModelSpec,
    PerturbationFamily,
    lambda_norm,
    load_model,
    model_from_dict,
    redraw,
    tail_norm,
    validate,
)
from .opalg import (
    DenseOperator,
    commutator,
    embed,
    observable_lambda_norm_upper,
    op_norm,
    spectral,
)
from .volume import VolumeOperators, build, current_bound_check
from .dynamics import (
    ConvergenceSweepReport,
    EvolutionPlan,
    convergence_sweep,
    derivation_growth_bound,
    dyson_evolve,
    exact_evolve,
    make_plan,
    series_radius,
)
from .thermo import (
    EntropyReport,
    KleinWitness,
    boundary_redraw_check,
    gibbs,
    heat_direction_check,
    horizon_reports,
    klein_check,
    kms_check,
)

__version__ = "0.1.0"
