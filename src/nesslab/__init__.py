"""Finite-volume laboratory for quantum spin systems coupled to reservoirs.

A small system is connected to finitely truncated reservoirs held at
different inverse temperatures. The package assembles the finite-volume
operators, evolves observables exactly, forms time-averaged steady-state
proxies, and evaluates reservoir energy fluxes and entropy production,
whose finite-volume nonnegativity is exact.
"""

from .model import (
    InteractionTerm,
    ModelSpec,
    PerturbationEntry,
    PerturbationFamily,
    RegionMap,
    SiteSpec,
    ValidationReport,
    lambda_norm,
    load_model,
    model_from_dict,
    model_to_dict,
    redraw,
    restrict,
    save_model,
    tail_norm,
    validate,
)
from .opalg import (
    DenseOperator,
    SpectralData,
    apply_function,
    commutator,
    embed,
    observable_lambda_norm_upper,
    op_norm,
    spectral,
    trace,
    unitary_conj,
)
from .volume import VolumeOperators, build, current_bound_check, interface_operator
from .dynamics import (
    ConvergenceSweepReport,
    DysonConfig,
    EvolutionPlan,
    convergence_sweep,
    derivation,
    dyson_evolve,
    exact_evolve,
    make_plan,
    series_radius,
)
from .thermo import (
    EntropyReport,
    KleinWitness,
    StateRep,
    boundary_redraw_check,
    entropy_production,
    gibbs,
    heat_direction_check,
    horizon_reports,
    initial_state,
    klein_check,
    kms_check,
    time_avg_expectation,
    time_averaged_state,
)

__version__ = "0.1.0"
