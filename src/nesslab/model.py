"""Lattice models: sites, region decomposition, interaction terms.

A model declares a finite set of sites with local dimensions, a region map
splitting the sites into a small system (region 0) and reservoirs (regions
1, 2, ...), a list of selfadjoint interaction terms on finite supports, a
decay rate ``lam`` for the exponentially weighted interaction norm, and one
inverse temperature per reservoir. Structural problems raise at load;
physical assumption violations are collected by :func:`validate` so a caller
can report all of them at once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import opalg


@dataclass(frozen=True)
class SiteSpec:
    """One lattice site: integer label and local Hilbert space dimension."""

    id: int
    local_dim: int

    def __post_init__(self):
        if self.local_dim < 2:
            raise ValueError(f"site {self.id}: local_dim must be >= 2")


@dataclass(frozen=True)
class RegionMap:
    """Assignment of every site to region 0 (small system) or a reservoir a >= 1."""

    assignment: Mapping[int, int]

    def __post_init__(self):
        object.__setattr__(self, "assignment", dict(self.assignment))
        for site, region in self.assignment.items():
            if region < 0:
                raise ValueError(f"site {site}: region index must be >= 0")

    @property
    def small_system(self) -> frozenset[int]:
        return frozenset(s for s, r in self.assignment.items() if r == 0)

    @property
    def reservoirs(self) -> tuple[int, ...]:
        return tuple(sorted({r for r in self.assignment.values() if r > 0}))

    def sites_in(self, region: int) -> frozenset[int]:
        return frozenset(s for s, r in self.assignment.items() if r == region)

    def region_of(self, site: int) -> int:
        return self.assignment[site]


@dataclass(frozen=True)
class InteractionTerm:
    """A selfadjoint matrix on a finite ordered support.

    The matrix is kept exactly as supplied; Hermiticity is a validation
    concern (tolerance 1e-12 entrywise) and consumers use :meth:`symmetrized`
    to guard against text-format rounding.
    """

    support: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        support = tuple(self.support)
        if not support:
            raise ValueError("interaction term must have nonempty support")
        if len(set(support)) != len(support):
            raise ValueError(f"duplicate site in support {support}")
        if tuple(sorted(support)) != support:
            raise ValueError(f"support {support} must be sorted ascending")
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"term on {support}: matrix must be square")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "matrix", mat)

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))

    def symmetrized(self) -> np.ndarray:
        return 0.5 * (self.matrix + self.matrix.conj().T)

    def norm(self) -> float:
        """Operator norm of the symmetrized matrix (largest |eigenvalue|)."""
        return opalg.op_norm(self.symmetrized())


def _merge_terms(terms: Iterable[InteractionTerm]) -> tuple[InteractionTerm, ...]:
    # the interaction is a function of the support set: duplicates add up
    merged: dict[tuple[int, ...], np.ndarray] = {}
    for t in terms:
        if t.support in merged:
            merged[t.support] = merged[t.support] + t.matrix
        else:
            merged[t.support] = t.matrix
    return tuple(InteractionTerm(s, m) for s, m in sorted(merged.items(),
                                                          key=lambda kv: (len(kv[0]), kv[0])))


@dataclass(frozen=True)
class ModelSpec:
    """Sites, regions, interaction, decay rate, inverse temperatures."""

    sites: tuple[SiteSpec, ...]
    regions: RegionMap
    terms: tuple[InteractionTerm, ...]
    lam: float
    betas: Mapping[int, float]

    def __post_init__(self):
        sites = tuple(self.sites)
        ids = [s.id for s in sites]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate site ids")
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "terms", _merge_terms(self.terms))
        object.__setattr__(self, "betas", {int(k): float(v) for k, v in dict(self.betas).items()})
        if self.lam <= 0:
            raise ValueError("lam must be > 0")
        declared = set(ids)
        assigned = set(self.regions.assignment)
        if assigned != declared:
            raise ValueError(
                f"region map must assign every declared site exactly once "
                f"(missing {sorted(declared - assigned)}, extra {sorted(assigned - declared)})"
            )
        dim_by_id = {s.id: s.local_dim for s in sites}
        for t in self.terms:
            unknown = [x for x in t.support if x not in declared]
            if unknown:
                raise ValueError(f"term on {t.support}: unknown sites {unknown}")
            want = int(np.prod([dim_by_id[x] for x in t.support]))
            if t.matrix.shape[0] != want:
                raise ValueError(
                    f"term on {t.support}: matrix dimension {t.matrix.shape[0]} "
                    f"!= product of local dims {want}"
                )

    @property
    def site_ids(self) -> tuple[int, ...]:
        return tuple(sorted(s.id for s in self.sites))

    def dim_of(self, site: int) -> int:
        for s in self.sites:
            if s.id == site:
                return s.local_dim
        raise KeyError(site)

    def dims_for(self, sites: Sequence[int]) -> tuple[int, ...]:
        return tuple(self.dim_of(s) for s in sites)

    @property
    def small_system(self) -> frozenset[int]:
        return self.regions.small_system

    @property
    def reservoirs(self) -> tuple[int, ...]:
        return self.regions.reservoirs

    def term_operator(self, term: InteractionTerm) -> opalg.DenseOperator:
        """The term's symmetrized matrix as an operator on its own support."""
        return opalg.DenseOperator(term.support, self.dims_for(term.support),
                                   term.symmetrized())

    def term_sum(self, terms: Iterable[InteractionTerm],
                 sites: Iterable[int] | None = None) -> opalg.DenseOperator:
        """The sum of ``terms``, each embedded into the ordered volume ``sites``.

        ``sites`` defaults to the union of the terms' supports, so no terms
        give a 1x1 zero on no sites.
        """
        terms = tuple(terms)
        if sites is None:
            sites = set().union(*(t.support for t in terms))
        sites = tuple(sorted(sites))
        dims = self.dims_for(sites)
        dim = self.volume_dim(sites)
        ops = [self.term_operator(term) for term in terms]
        acc = np.zeros((dim, dim), dtype=np.result_type(float, *(op.matrix for op in ops)))
        for op in ops:
            acc += opalg.embed(op, sites, dims).matrix
        return opalg.DenseOperator(sites, dims, acc)

    def volume_dim(self, sites: Sequence[int]) -> int:
        return int(np.prod(self.dims_for(sites))) if len(sites) else 1


@dataclass(frozen=True)
class Violation:
    kind: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "\n".join(f"[{v.kind}] {v.message}" for v in self.violations)


def validate(spec: ModelSpec) -> ValidationReport:
    """Check the model assumptions; every problem becomes a report entry.

    Flags non-Hermitian terms, terms that couple two reservoirs without
    passing through the small system, an empty small system, and reservoirs
    with missing or nonpositive inverse temperatures.
    """
    found: list[Violation] = []
    if not spec.small_system:
        found.append(Violation("empty-s", "region 0 (small system) has no sites"))
    if not spec.reservoirs:
        found.append(Violation("no-reservoir", "no reservoir region declared"))
    for t in spec.terms:
        defect = t.hermiticity_defect()
        if defect > opalg.TERM_HERMITICITY_TOL:
            found.append(Violation(
                "hermiticity",
                f"term on {t.support} is not selfadjoint (defect {defect:.3e})"))
    s_sites = spec.small_system
    for t in spec.terms:
        touched = {spec.regions.region_of(x) for x in t.support}
        touched_reservoirs = {r for r in touched if r > 0}
        if len(touched_reservoirs) >= 2 and not (set(t.support) & s_sites):
            found.append(Violation(
                "reservoir-coupling",
                f"term on {t.support} couples reservoirs "
                f"{sorted(touched_reservoirs)} without meeting the small system"))
    for a in spec.reservoirs:
        if a not in spec.betas:
            found.append(Violation("missing-beta", f"reservoir {a} has no inverse temperature"))
        elif spec.betas[a] <= 0:
            found.append(Violation("bad-beta", f"reservoir {a}: beta must be > 0"))
    return ValidationReport(tuple(found))


def interaction_lambda_norm(terms: Sequence[InteractionTerm], lam: float,
                            sites: Iterable[int]) -> float:
    """sup over sites of the exponentially weighted sum of term norms.

    Each term's norm is computed once; the per-site sums keep term order.
    """
    weighted = [(t.support, math.exp(lam * (len(t.support) - 1)) * t.norm()) for t in terms]
    return max((sum((w for support, w in weighted if x in support), 0.0) for x in sites),
               default=0.0)


def lambda_norm(spec: ModelSpec) -> float:
    """Exponentially weighted interaction norm controlling the dynamics.

    Returns sup_x sum_{X ni x} e^{(card X - 1) lam} ||Phi(X)||, the sup taken
    over the declared sites (the finite truncation stands in for the full
    lattice).
    """
    return interaction_lambda_norm(spec.terms, spec.lam, spec.site_ids)


def tail_norm(spec: ModelSpec, region: Iterable[int]) -> float:
    """Weighted norm of the interaction terms escaping a site set.

    Returns sup_{x in X} sum over terms Y containing x but not contained in
    X of e^{(card Y - 1) lam} ||Phi(Y)||. Zero for the full site set and for
    empty X (empty sup convention). Nonincreasing along nested exhaustions.
    """
    region = set(region)
    escaping = [t for t in spec.terms if not set(t.support) <= region]
    return interaction_lambda_norm(escaping, spec.lam, region)


def restrict(spec: ModelSpec, reservoir: int) -> tuple[InteractionTerm, ...]:
    """The interaction terms supported entirely inside reservoir ``a``."""
    if reservoir not in spec.reservoirs:
        raise ValueError(f"unknown reservoir index {reservoir}")
    inside = spec.regions.sites_in(reservoir)
    return tuple(t for t in spec.terms if set(t.support) <= inside)


def redraw(spec: ModelSpec, new_small_system: Iterable[int]) -> ModelSpec:
    """Enlarge the small system; reservoirs shrink correspondingly.

    The site set, local dimensions and term list are untouched; only the
    region map changes. The new small system must contain the old one and
    draw only from declared sites, and the result must still validate.
    """
    new_s = frozenset(new_small_system)
    if not new_s >= spec.small_system:
        raise ValueError("new small system must contain the current one")
    unknown = new_s - set(spec.site_ids)
    if unknown:
        raise ValueError(f"new small system contains unknown sites {sorted(unknown)}")
    assignment = {s: (0 if s in new_s else r) for s, r in spec.regions.assignment.items()}
    out = ModelSpec(spec.sites, RegionMap(assignment), spec.terms, spec.lam, spec.betas)
    report = validate(out)
    if not report.ok:
        raise ValueError(f"redraw produces an invalid model:\n{report}")
    return out


@dataclass(frozen=True)
class PerturbationEntry:
    """Reservoir-interior extra terms attached to one specific volume."""

    volume: frozenset[int]
    terms: tuple[InteractionTerm, ...]

    def __post_init__(self):
        object.__setattr__(self, "volume", frozenset(self.volume))
        object.__setattr__(self, "terms", tuple(self.terms))


@dataclass(frozen=True)
class PerturbationFamily:
    """A volume-indexed family of reservoir perturbations.

    Every term must live inside a single reservoir, each volume's term list
    stays below the uniform weighted-norm bound ``bound_K``, and each
    protected site set is untouched by all entries from its threshold index
    on. :meth:`check` verifies all three against a model.
    """

    entries: tuple[PerturbationEntry, ...] = ()
    bound_K: float = 0.0
    protected: tuple[tuple[frozenset[int], int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        object.__setattr__(
            self, "protected",
            tuple((frozenset(x), int(i)) for x, i in self.protected))
        if self.bound_K < 0:
            raise ValueError("bound_K must be >= 0")

    def terms_for(self, volume: Iterable[int]) -> tuple[InteractionTerm, ...]:
        key = frozenset(volume)
        for entry in self.entries:
            if entry.volume == key:
                return entry.terms
        return ()

    def check(self, spec: ModelSpec) -> list[str]:
        problems: list[str] = []
        for idx, entry in enumerate(self.entries):
            for t in entry.terms:
                regions = {spec.regions.region_of(x) for x in t.support}
                if len(regions) != 1 or 0 in regions:
                    problems.append(
                        f"entry {idx}: term on {t.support} is not inside a single reservoir")
            norm = interaction_lambda_norm(entry.terms, spec.lam, spec.site_ids)
            if norm > self.bound_K + opalg.BOUND_K_SLACK:
                problems.append(
                    f"entry {idx}: weighted norm {norm:.6g} exceeds bound_K {self.bound_K:.6g}")
        for x, threshold in self.protected:
            for idx, entry in enumerate(self.entries[threshold:], start=threshold):
                for t in entry.terms:
                    if set(t.support) & x:
                        problems.append(
                            f"protected set {sorted(x)}: entry {idx} term on "
                            f"{t.support} meets it past threshold {threshold}")
        return problems


ZERO_FAMILY = PerturbationFamily()


# ---------------------------------------------------------------------------
# JSON model files


def _matrix_to_json(mat: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(mat, dtype=complex)]


def _matrix_from_json(rows, where: str) -> np.ndarray:
    try:
        return np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: matrix entries must be [re, im] pairs") from exc


def term_from_dict(obj, where: str = "term") -> InteractionTerm:
    try:
        support = tuple(sorted(int(x) for x in obj["support"]))
        rows = obj["matrix"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{where}: each term needs 'support' and 'matrix'") from exc
    return InteractionTerm(support, _matrix_from_json(rows, where))


def model_from_dict(doc: Mapping) -> ModelSpec:
    """Build a model from the JSON document structure."""
    try:
        sites = tuple(SiteSpec(int(s["id"]), int(s["dim"])) for s in doc["sites"])
        regions = RegionMap({int(k): int(v) for k, v in doc["regions"].items()})
        lam = float(doc["lambda"])
        betas = {int(k): float(v) for k, v in doc["betas"].items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"model document malformed: {exc}") from exc
    terms = tuple(term_from_dict(t, f"terms[{i}]") for i, t in enumerate(doc.get("terms", [])))
    return ModelSpec(sites, regions, terms, lam, betas)


def model_to_dict(spec: ModelSpec) -> dict:
    return {
        "sites": [{"id": s.id, "dim": s.local_dim} for s in spec.sites],
        "regions": {str(s): r for s, r in sorted(spec.regions.assignment.items())},
        "lambda": spec.lam,
        "betas": {str(a): b for a, b in sorted(spec.betas.items())},
        "terms": [{"support": list(t.support), "matrix": _matrix_to_json(t.matrix)}
                  for t in spec.terms],
    }


def load_model(path) -> ModelSpec:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return model_from_dict(doc)


def family_from_dict(doc: Mapping) -> PerturbationFamily:
    entries = []
    for i, entry in enumerate(doc.get("volumes", [])):
        try:
            vol = frozenset(int(x) for x in entry["sites"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"volumes[{i}]: needs a 'sites' list") from exc
        terms = tuple(term_from_dict(t, f"volumes[{i}].terms[{j}]")
                      for j, t in enumerate(entry.get("terms", [])))
        entries.append(PerturbationEntry(vol, terms))
    protected = tuple(
        (frozenset(int(x) for x in p["sites"]), int(p["threshold"]))
        for p in doc.get("protected", []))
    return PerturbationFamily(tuple(entries), float(doc.get("bound_K", 0.0)), protected)


def load_family(path) -> PerturbationFamily:
    with open(path, "r", encoding="utf-8") as fh:
        return family_from_dict(json.load(fh))
