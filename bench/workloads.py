"""Seeded inputs and output checks for the nesslab benchmark.

Every workload is an open qubit chain whose middle site is the small system
and whose left and right halves are reservoirs 1 and 2 (beta 2.0 and 1.0).
The seed draws the field and coupling values only: site count, volume
dimensions, horizons, evolution times and observables are fixed per
workload, so every seed does the same amount of work.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
BETAS = {1: 2.0, 2: 1.0}
LAMBDA = 0.5

# The sweep's evolution times, as multiples of the series radius of the
# generated model: three inside it (each gets a Dyson row, so the number of
# dyson_evolve calls does not depend on the seed) and three outside it.
SWEEP_T_FRACTIONS = (0.2, 0.5, 0.8, 2.0, 8.0, 32.0)
SWEEP_T_INSIDE = sum(1 for f in SWEEP_T_FRACTIONS if f < 1.0)

# Slack on the checks that hold exactly in exact arithmetic, in units of
# the quantity each one is computed from (see _check_simulate_rows).
ROUNDOFF = 1e-10
# Agreement with the recorded reference CSVs: |got - ref| <= REF_TOL * (1 + |ref|).
REF_TOL = 1e-8
REFERENCE_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass(frozen=True)
class Workload:
    """One benchmark input family: a chain, its nested volumes and a command."""

    name: str
    command: str                       # "simulate" or "sweep-convergence"
    sites: int
    volume_sizes: tuple[int, ...]      # nested volumes, sites per volume
    complex_terms: bool                # sigma_y fields and DM bonds
    horizons: tuple[float, ...] = ()   # simulate only
    observables: tuple[str, ...] = ("mid_z", "left_x")

    @property
    def middle(self) -> int:
        return self.sites // 2

    def volumes(self) -> list[list[int]]:
        out = []
        for k in self.volume_sizes:
            lo = min(max(self.middle - k // 2, 0), self.sites - k)
            out.append(list(range(lo, lo + k)))
        return out

    def volume_dims(self) -> list[int]:
        return [2 ** k for k in self.volume_sizes]


WORKLOADS = {
    w.name: w for w in (
        # per-volume setup dominates: one horizon per volume
        Workload("ladder", "simulate", 9, (5, 7, 9), False, (100.0,)),
        # per-horizon contraction dominates: one volume, many horizons
        Workload("horizons", "simulate", 9, (9,), True,
                 tuple(float(x) for x in np.logspace(0.0, 3.0, 16))),
        # derivation / Dyson path; never enters thermo
        Workload("sweep", "sweep-convergence", 9, (5, 7, 8, 9), False,
                 observables=("mid_x",)),
        # D <= 64 variants, run end to end by the benchmark's own test
        Workload("ladder-smoke", "simulate", 6, (3, 5, 6), False, (100.0,)),
        Workload("horizons-smoke", "simulate", 5, (5,), True, (1.0, 10.0, 1000.0)),
        Workload("sweep-smoke", "sweep-convergence", 6, (3, 4, 5, 6), False,
                 observables=("mid_x",)),
    )
}


def _term(support, matrix) -> dict:
    return {"support": list(support),
            "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in matrix]}


def _chain_terms(w: Workload, rng: np.random.Generator) -> list[tuple[tuple[int, ...], np.ndarray]]:
    terms = []
    for i in range(w.sites):
        mat = rng.uniform(0.3, 0.7) * SZ
        if w.complex_terms:
            mat = mat + rng.uniform(0.1, 0.3) * SY
        terms.append(((i,), mat))
    for i in range(w.sites - 1):
        mat = rng.uniform(0.8, 1.2) * np.kron(SX, SX) + rng.uniform(0.0, 0.3) * np.kron(SZ, SZ)
        if w.complex_terms:
            mat = mat + rng.uniform(0.1, 0.3) * (np.kron(SX, SY) - np.kron(SY, SX))
        terms.append(((i, i + 1), mat))
    return terms


def series_radius(terms, lam: float = LAMBDA) -> float:
    """lam / (2 ||Phi||_lam), the radius of the truncated-series evolution."""
    per_site: dict[int, float] = {}
    for support, mat in terms:
        norm = float(np.max(np.abs(np.linalg.eigvalsh(mat))))
        for x in support:
            per_site[x] = per_site.get(x, 0.0) + math.exp(lam * (len(support) - 1)) * norm
    return lam / (2.0 * max(per_site.values()))


def g_norm_bound(w: Workload, terms) -> float:
    """Upper bound on ||G|| for every volume of the workload.

    G = K + log Z with K = sum_a beta_a H_a and exp(-G) of unit trace, so
    0 <= G <= (k_max - k_min) + log D <= 2 ||K|| + log D.
    """
    total = 0.0
    for support, mat in terms:
        regions = {_region(w, x) for x in support}
        if len(regions) == 1 and 0 not in regions:
            total += BETAS[regions.pop()] * float(np.max(np.abs(np.linalg.eigvalsh(mat))))
    return 2.0 * total + math.log(max(w.volume_dims()))


def _region(w: Workload, site: int) -> int:
    return 0 if site == w.middle else (1 if site < w.middle else 2)


def _observables(w: Workload) -> dict:
    table = {"mid_z": ((w.middle,), SZ), "mid_x": ((w.middle,), SX),
             "left_x": ((w.middle - 1,), SX)}
    return {name: [_term(*table[name])] for name in w.observables}


@dataclass(frozen=True)
class Inputs:
    """What the generator wrote, plus what the checks need to know."""

    workload: Workload
    seed: int
    times: tuple[float, ...]     # horizons (simulate) or evolution times (sweep)
    g_norm_bound: float


def generate(w: Workload, seed: int, out_dir: Path) -> Inputs:
    """Write model.json and config.json for ``w`` under ``out_dir``."""
    rng = np.random.Generator(np.random.PCG64(seed))
    terms = _chain_terms(w, rng)
    if w.command == "simulate":
        times = w.horizons
    else:
        radius = series_radius(terms)
        times = tuple(f * radius for f in SWEEP_T_FRACTIONS)
    model = {
        "sites": [{"id": i, "dim": 2} for i in range(w.sites)],
        "regions": {str(i): _region(w, i) for i in range(w.sites)},
        "lambda": LAMBDA,
        "betas": {str(a): b for a, b in BETAS.items()},
        "terms": [_term(s, m) for s, m in terms],
    }
    config = {
        "model": "model.json",
        "exhaustion": w.volumes(),
        "horizons": list(times),
        "observables": _observables(w),
        "seed": seed,
        "output_dir": "out",
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "model.json").write_text(json.dumps(model), encoding="utf-8")
    (out_dir / "config.json").write_text(json.dumps(config), encoding="utf-8")
    return Inputs(w, seed, times, g_norm_bound(w, terms))


def output_name(w: Workload) -> str:
    return "entropy.csv" if w.command == "simulate" else "convergence.csv"


def expected_rows(inp: Inputs) -> int:
    w = inp.workload
    nvol = len(w.volume_sizes)
    if w.command == "simulate":
        return nvol * len(inp.times)
    # evolution rows per pair and time, 4 derivation orders per pair,
    # Dyson rows per volume and time inside the radius
    return (nvol - 1) * len(inp.times) + (nvol - 1) * 4 + nvol * SWEEP_T_INSIDE


def expected_header(inp: Inputs) -> list[str]:
    w = inp.workload
    if w.command == "simulate":
        return (["volume_index", "T", "flux_1", "flux_2", "e", "e_telescoped",
                 "sum_rule_residual", "tol"]
                + [f"avg_{n}" for n in sorted(w.observables)] + ["config_hash"])
    return ["volume_index", "t", "discrepancy", "dyson_order", "bound", "config_hash"]


class Checks:
    """Counts output checks attempted and failed, keeping the first failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)

    def fail_all(self, count: int, what: str) -> None:
        self.attempted += count
        self.failed += count
        if len(self.messages) < 20:
            self.messages.append(what)


def checks_per_command(inp: Inputs) -> int:
    """How many checks check_output makes on one well-formed CSV."""
    if inp.workload.command == "simulate":
        row_checks = 3 * expected_rows(inp)
    else:
        row_checks = len(inp.workload.volume_sizes) * SWEEP_T_INSIDE  # Dyson rows
    # header, row count, config hash, rerun identity, reference
    return 4 + (inp.seed == REFERENCE_SEED) + row_checks


def _parse(blob: bytes) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(blob.decode("utf-8"))))
    return rows[0], rows[1:]


def check_output(inp: Inputs, blob: bytes, first: bytes | None, checks: Checks,
                 label: str) -> None:
    """Check one command's CSV; ``first`` is the same seed's first CSV."""
    header, rows = _parse(blob)
    checks.check(header == expected_header(inp), f"{label}: header {header}")
    checks.check(len(rows) == expected_rows(inp),
                 f"{label}: {len(rows)} rows, expected {expected_rows(inp)}")
    hashes = {r[-1] for r in rows if r}
    checks.check(len(hashes) == 1 and all(len(r) == len(header) for r in rows),
                 f"{label}: config_hash values {sorted(hashes)} or ragged rows")
    checks.check(first is None or blob == first,
                 f"{label}: CSV differs from the first run with the same seed")
    if inp.seed == REFERENCE_SEED:
        ref = (REFERENCE_DIR / f"{inp.workload.name}.csv").read_bytes()
        checks.check(_matches_reference(blob, ref),
                     f"{label}: CSV differs from reference beyond {REF_TOL}")
    col = {name: i for i, name in enumerate(header)}
    if inp.workload.command == "simulate":
        _check_simulate_rows(inp, rows, col, checks, label)
    else:
        _check_sweep_rows(rows, col, checks, label)


def _check_simulate_rows(inp: Inputs, rows, col, checks: Checks, label: str) -> None:
    # Nonnegativity of e_telescoped and the identity e == e_telescoped
    # (B = 0) hold exactly; both are differences of expectations of G over
    # T, so their roundoff is measured in units of ||G|| / T.
    for r in rows:
        t = float(r[col["T"]])
        e, e_tel = float(r[col["e"]]), float(r[col["e_telescoped"]])
        scale = ROUNDOFF * inp.g_norm_bound / t
        checks.check(e_tel >= -scale, f"{label}: e_telescoped {e_tel} < 0 at T={t}")
        checks.check(abs(float(r[col["sum_rule_residual"]])) <= float(r[col["tol"]]),
                     f"{label}: sum rule residual above tol at T={t}")
        checks.check(abs(e - e_tel) <= scale, f"{label}: |e - e_telescoped| = "
                     f"{abs(e - e_tel)} above {scale} at T={t}")


def _check_sweep_rows(rows, col, checks: Checks, label: str) -> None:
    for r in rows:
        if r[col["bound"]]:
            checks.check(float(r[col["discrepancy"]]) <= float(r[col["bound"]]),
                         f"{label}: Dyson error above its bound at t={r[col['t']]}")


def _matches_reference(blob: bytes, ref: bytes) -> bool:
    got_header, got = _parse(blob)
    ref_header, want = _parse(ref)
    if got_header != ref_header or len(got) != len(want):
        return False
    for g_row, w_row in zip(got, want):
        if len(g_row) != len(w_row):
            return False
        for g, w in zip(g_row, w_row):
            if g == w:
                continue
            try:
                gf, wf = float(g), float(w)
            except ValueError:
                return False
            if not abs(gf - wf) <= REF_TOL * (1.0 + abs(wf)):
                return False
    return True

