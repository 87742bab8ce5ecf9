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
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import opalg


@dataclass(frozen=True)
class InteractionTerm:
    """A selfadjoint matrix on a finite ordered support.

    The matrix is kept exactly as supplied; Hermiticity is a validation
    concern (:meth:`hermiticity_problem`) and consumers use :meth:`symmetrized`
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
        if not np.all(np.isfinite(mat)):
            raise ValueError(f"term on {support}: matrix entries must be finite")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "matrix", mat)

    def hermiticity_problem(self) -> str:
        """Why the matrix is not selfadjoint within TERM_HERMITICITY_TOL entrywise, or ''."""
        defect = float(np.max(np.abs(self.matrix - self.matrix.conj().T)))
        return (f"term on {self.support} is not selfadjoint (defect {defect:.3e})"
                if defect > opalg.TERM_HERMITICITY_TOL else "")

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
    """Sites, regions, interaction, decay rate, inverse temperatures.

    ``sites`` maps each site id to its local dimension (at least 2), and
    ``regions`` maps each site id to its region: 0 for the small system, a
    for reservoir a >= 1. ``lam`` times the number of sites is at most
    log(max float), so every weight e^{lam card X} on the sites is finite.
    """

    sites: Mapping[int, int]
    regions: Mapping[int, int]
    terms: tuple[InteractionTerm, ...]
    lam: float
    betas: Mapping[int, float]

    def __post_init__(self):
        object.__setattr__(self, "sites", dict(self.sites))
        object.__setattr__(self, "regions", dict(self.regions))
        for site, dim in self.sites.items():
            if dim < 2:
                raise ValueError(f"site {site}: local_dim must be >= 2")
        for site, region in self.regions.items():
            if region < 0:
                raise ValueError(f"site {site}: region index must be >= 0")
        object.__setattr__(self, "terms", _merge_terms(self.terms))
        object.__setattr__(self, "betas", {int(k): float(v) for k, v in dict(self.betas).items()})
        if not (0 < self.lam and self.lam * len(self.sites) <= opalg.LOG_MAX_FLOAT):
            raise ValueError(f"lam must be > 0, with lam * {len(self.sites)} sites at most "
                             f"{opalg.LOG_MAX_FLOAT:.6g} so that every e^(lam card X) is finite")
        if not all(map(math.isfinite, self.betas.values())):
            raise ValueError("betas must be finite")
        declared, assigned = set(self.sites), set(self.regions)
        if assigned != declared:
            raise ValueError(
                f"region map must assign every declared site exactly once "
                f"(missing {sorted(declared - assigned)}, extra {sorted(assigned - declared)})"
            )
        if problem := next(filter(None, map(self.term_problem, self.terms)), ""):
            raise ValueError(problem)

    def term_problem(self, term: InteractionTerm) -> str:
        """Why ``term`` does not fit the declared sites, or '': a site not declared,
        or a matrix dimension other than the product of its sites' local dimensions."""
        undeclared = sorted(set(term.support) - set(self.sites))
        if undeclared:
            return f"term on {term.support} names undeclared sites {undeclared}"
        want = self.volume_dim(term.support)
        return (f"term on {term.support} has matrix dimension {term.matrix.shape[0]}, not "
                f"{want}, the product of its sites' local dimensions"
                if term.matrix.shape[0] != want else "")

    def volume_problem(self, sites: Iterable[int]) -> str:
        """Why ``sites`` is not a volume, or '': an undeclared site, or no small system."""
        sites, small = sorted(set(sites)), sorted(self.small_system)
        if undeclared := sorted(set(sites) - set(self.sites)):
            return f"volume {sites} names undeclared sites {undeclared}"
        return ("" if set(small) <= set(sites)
                else f"volume {sites} leaves out the small system {small}")

    @property
    def site_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.sites))

    def dims_for(self, sites: Sequence[int]) -> tuple[int, ...]:
        return tuple(self.sites[s] for s in sites)

    def sites_in(self, region: int) -> frozenset[int]:
        return frozenset(s for s, r in self.regions.items() if r == region)

    @property
    def small_system(self) -> frozenset[int]:
        return self.sites_in(0)

    @property
    def reservoirs(self) -> tuple[int, ...]:
        return tuple(sorted({r for r in self.regions.values() if r > 0}))

    def reservoir_of(self, support: Iterable[int]) -> int | None:
        """The one reservoir holding every site of ``support``; None if the
        sites meet the small system or two regions."""
        regions = {self.regions[x] for x in support}
        return None if len(regions) != 1 or 0 in regions else next(iter(regions))

    def term_operator(self, term: InteractionTerm) -> opalg.DenseOperator:
        """The term's symmetrized matrix as an operator on its own support."""
        return opalg.DenseOperator(term.support, self.dims_for(term.support),
                                   term.symmetrized())

    def term_sum(self, terms: Iterable[InteractionTerm],
                 sites: Iterable[int] | None = None) -> opalg.DenseOperator:
        """The sum of ``terms``, each embedded into the ordered volume ``sites``.

        ``sites`` defaults to the union of the terms' supports, so no terms
        give a 1x1 zero on no sites. The sum is :func:`opalg.embed_sum` of the
        terms' operators, in term order, on the volume as one sector, so the
        only volume-sized array is the result.
        """
        terms = tuple(terms)
        if sites is None:
            sites = set().union(*(t.support for t in terms))
        sites = tuple(sorted(sites))
        dims = self.dims_for(sites)
        (matrix,) = opalg.embed_sum([self.term_operator(t) for t in terms], sites, dims,
                                    [np.arange(self.volume_dim(sites))])
        return opalg.DenseOperator(sites, dims, matrix)

    def volume_dim(self, sites: Sequence[int]) -> int:
        return math.prod(self.dims_for(sites))


def validate(spec: ModelSpec) -> tuple[str, ...]:
    """Check the model assumptions; every problem becomes one "[kind] message" line.

    Flags non-Hermitian terms, terms that couple two reservoirs without
    passing through the small system, an empty small system, and reservoirs
    with missing or nonpositive inverse temperatures. Empty when the model
    is valid.
    """
    found: list[str] = []
    if not spec.small_system:
        found.append("[empty-s] region 0 (small system) has no sites")
    if not spec.reservoirs:
        found.append("[no-reservoir] no reservoir region declared")
    found += [f"[hermiticity] {p}" for p in map(InteractionTerm.hermiticity_problem, spec.terms)
              if p]
    s_sites = spec.small_system
    for t in spec.terms:
        touched = {spec.regions[x] for x in t.support}
        touched_reservoirs = {r for r in touched if r > 0}
        if len(touched_reservoirs) >= 2 and not (set(t.support) & s_sites):
            found.append(f"[reservoir-coupling] term on {t.support} couples reservoirs "
                         f"{sorted(touched_reservoirs)} without meeting the small system")
    for a in spec.reservoirs:
        if a not in spec.betas:
            found.append(f"[missing-beta] reservoir {a} has no inverse temperature")
        elif spec.betas[a] <= 0:
            found.append(f"[bad-beta] reservoir {a}: beta must be > 0")
    return tuple(found)


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
    regions = {s: (0 if s in new_s else r) for s, r in spec.regions.items()}
    out = ModelSpec(spec.sites, regions, spec.terms, spec.lam, spec.betas)
    problems = validate(out)
    if problems:
        raise ValueError("redraw produces an invalid model: " + "; ".join(problems))
    return out


@dataclass(frozen=True)
class PerturbationFamily:
    """A volume-indexed family of reservoir perturbations.

    ``entries`` pairs a volume (a site set) with the reservoir-interior
    terms its generator adds. Every term must fit the model
    (:meth:`ModelSpec.term_problem`), live on sites of its own volume inside a
    single reservoir and be selfadjoint, each volume's term
    list stays below the uniform weighted-norm bound ``bound_K`` (finite), and
    each protected site set is untouched by all entries from its threshold
    index on. :meth:`check` verifies all three against a model.
    """

    entries: tuple[tuple[frozenset[int], tuple[InteractionTerm, ...]], ...] = ()
    bound_K: float = 0.0
    protected: tuple[tuple[frozenset[int], int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "entries",
                           tuple((frozenset(v), tuple(terms)) for v, terms in self.entries))
        object.__setattr__(
            self, "protected",
            tuple((frozenset(x), int(i)) for x, i in self.protected))
        if not 0 <= self.bound_K < math.inf:
            raise ValueError("bound_K must be >= 0 and finite")

    def terms_for(self, volume: Iterable[int]) -> tuple[InteractionTerm, ...]:
        key = frozenset(volume)
        return next((terms for v, terms in self.entries if v == key), ())

    def check(self, spec: ModelSpec) -> list[str]:
        problems: list[str] = []
        for idx, (volume, terms) in enumerate(self.entries):
            for t in terms:
                if problem := spec.term_problem(t) or t.hermiticity_problem():
                    problems.append(f"entry {idx}: {problem}")
                elif not set(t.support) <= volume:
                    problems.append(f"entry {idx}: term on {t.support} lies outside its "
                                    f"volume {sorted(volume)}")
                elif spec.reservoir_of(t.support) is None:
                    problems.append(
                        f"entry {idx}: term on {t.support} is not inside a single reservoir")
            norm = interaction_lambda_norm(terms, spec.lam, spec.site_ids)
            if norm > self.bound_K + opalg.BOUND_K_SLACK:
                problems.append(
                    f"entry {idx}: weighted norm {norm:.6g} exceeds bound_K {self.bound_K:.6g}")
        for x, threshold in self.protected:
            for idx, (_, terms) in enumerate(self.entries[threshold:], start=threshold):
                for t in terms:
                    if set(t.support) & x:
                        problems.append(
                            f"protected set {sorted(x)}: entry {idx} term on "
                            f"{t.support} meets it past threshold {threshold}")
        return problems


# ---------------------------------------------------------------------------
# JSON model files

# an integer is a number written with no fraction and no exponent, which json.load gives as int
_KINDS = {"array": list, "object": dict, "string": str, "number": (int, float), "integer": int}


def _checked(value, kind: str, where: str):
    """``value``, at ``where`` in its file, if of ``kind``: a key of _KINDS, the types json.load
    gives each JSON kind (no boolean), or '<array or object> of <kind>'; else ValueError."""
    outer, _, inner = kind.partition(" of ")
    if isinstance(value, bool) or not isinstance(value, _KINDS[outer]):
        raise ValueError(f"{where} must be a JSON {outer}")
    for key, item in (value.items() if outer == "object" else enumerate(value)) if inner else ():
        _checked(item, inner, f"{where}.{key}" if outer == "object" else f"{where}[{key}]")
    return value


def read_object(doc, keys: Mapping[str, str | tuple[str, object]], where: str = "") -> list:
    """The values of the JSON object ``doc``, at ``where`` in its file, under ``keys``,
    which maps each key ``doc`` may hold to its kind (as :func:`_checked` takes it) or,
    if optional, to (kind, default). ValueError, naming the key and ``where``, for a
    non-object ``doc``, an unknown or missing key, or a value of another kind."""
    _checked(doc, "object", where or "the document")
    place = f" in {where}" if where else ""
    if unknown := sorted(set(doc) - set(keys)):
        raise ValueError(f"unknown key {unknown[0]!r}{place}; known keys: {', '.join(keys)}")
    values = []
    for key, spec in keys.items():
        kind, *default = (spec,) if isinstance(spec, str) else spec
        if key not in doc and not default:
            raise ValueError(f"missing key {key!r}{place}")
        values.append(_checked(doc[key], kind, f"{where}.{key}" if where else key)
                      if key in doc else default[0])
    return values


def _integer_keys(obj: dict, where: str) -> dict:
    """``obj``, the object at ``where`` in its file, keyed by the integers its keys
    write; ValueError naming the first key that is not an integer in canonical decimal
    form, digits with no leading zero and no sign but '-', as json writes an int."""
    for key in obj:
        if not re.fullmatch(r"0|-?[1-9][0-9]*", key):
            raise ValueError(f"key {key!r} in {where} must be an integer in canonical "
                             "decimal form, as 12 or -3")
    return {int(key): value for key, value in obj.items()}


def term_from_dict(obj, where: str = "term") -> InteractionTerm:
    support, rows = read_object(
        obj, {"support": "array of integer", "matrix": "array of array of array of number"}, where)
    if any(len(row) != len(rows) for row in rows):
        raise ValueError(f"{where}.matrix must be square: as many entries in each row as rows")
    if any(len(entry) != 2 for row in rows for entry in row):
        raise ValueError(f"{where}.matrix entries must be [re, im] pairs")
    if support != sorted(support):   # sorting would reorder the sites, not the matrix's factors
        raise ValueError(f"{where}.support must list its sites in ascending order")
    return InteractionTerm(support, np.array([[complex(re, im) for re, im in row] for row in rows]))


def model_from_dict(doc) -> ModelSpec:
    """Build a model from the JSON document structure."""
    site_docs, regions, lam, betas, terms = read_object(doc, {
        "sites": "array", "regions": "object of integer", "lambda": "number",
        "betas": "object of number", "terms": ("array", [])})
    sites = dict(read_object(x, {"id": "integer", "dim": "integer"}, f"sites[{i}]")
                 for i, x in enumerate(site_docs))
    if len(sites) != len(site_docs):
        raise ValueError("duplicate site ids")
    return ModelSpec(sites, _integer_keys(regions, "regions"),
                     tuple(term_from_dict(t, f"terms[{i}]") for i, t in enumerate(terms)),
                     float(lam), _integer_keys(betas, "betas"))


def load_model(path) -> ModelSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))


def family_from_dict(doc) -> PerturbationFamily:
    """Build a family from the JSON document structure."""
    volumes, bound_K, protected_docs = read_object(doc, {
        "volumes": ("array", []), "bound_K": ("number", 0.0), "protected": ("array", [])})
    entries = []
    for i, entry in enumerate(volumes):
        sites, terms = read_object(entry, {"sites": "array of integer", "terms": ("array", [])},
                                   f"volumes[{i}]")
        entries.append((frozenset(sites),
                        tuple(term_from_dict(t, f"volumes[{i}].terms[{j}]")
                              for j, t in enumerate(terms))))
    protected = [read_object(p, {"sites": "array of integer", "threshold": "integer"},
                             f"protected[{i}]") for i, p in enumerate(protected_docs)]
    return PerturbationFamily(tuple(entries), float(bound_K),
                              tuple((frozenset(x), t) for x, t in protected))


def load_family(path) -> PerturbationFamily:
    with open(path, "r", encoding="utf-8") as fh:
        return family_from_dict(json.load(fh))
