"""Command-line driver: validation, simulation sweeps, fuzzing, CSV output.

All outputs are deterministic for a fixed config and seed: rows are emitted
in a fixed order, floats are printed with 17 significant digits, and every
CSV row echoes a hash of the config it came from. The random generator is
numpy's PCG64, seeded explicitly and recorded in report headers.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

# CPython's built-in SHA-256, as random.py takes _sha512: hashlib would load
# OpenSSL's libcrypto, about 3.5 MiB of resident memory, for one digest
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

import numpy as np

from . import dynamics, model, opalg, thermo, volume

DEFAULT_DIM_CAP = 4096
RNG_NAME = "numpy PCG64"

_PHI_FAMILIES: tuple[tuple[str, object, object], ...] = (
    ("identity", lambda s: s, lambda s: 0.5 * s * s),
    ("cubic", lambda s: s**3, lambda s: 0.25 * s**4),
    ("neg-exp", lambda s: -math.exp(-s), lambda s: math.exp(-s)),
    ("tanh", lambda s: math.tanh(s),
     lambda s: abs(s) + math.log1p(math.exp(-2.0 * abs(s))) - math.log(2.0)),
)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell if isinstance(cell, str) else _fmt(cell) for cell in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: model file, volume exhaustion, horizons, outputs."""

    model_path: str
    exhaustion: tuple[tuple[int, ...], ...]
    horizons: tuple[float, ...]
    observables: dict = field(default_factory=dict)
    seed: int = 0
    output_dir: str = "out"
    perturbation_path: str | None = None
    redraw_new_s: tuple[int, ...] | None = None

    def __post_init__(self):
        for small, large in zip(self.exhaustion, self.exhaustion[1:]):
            if not set(small) < set(large):
                raise ValueError("exhaustion must be strictly nested ascending")
        for t in self.horizons:
            if t <= 0:
                raise ValueError("horizons must be positive")
        if any(b > a for a, b in zip(self.horizons[1:], self.horizons)):
            raise ValueError("horizons must be ascending")


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    base = Path(path).parent
    try:
        model_path = str(doc["model"])
        exhaustion = tuple(tuple(sorted(int(x) for x in v)) for v in doc["exhaustion"])
        horizons = tuple(float(t) for t in doc["horizons"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"config malformed: {exc}") from exc
    if not Path(model_path).is_absolute():
        model_path = str(base / model_path)
    pert = doc.get("perturbation")
    if pert is not None and not Path(pert).is_absolute():
        pert = str(base / pert)
    redraw_new_s = doc.get("redraw_new_s")
    return ExperimentConfig(
        model_path=model_path,
        exhaustion=exhaustion,
        horizons=horizons,
        observables=dict(doc.get("observables", {})),
        seed=int(doc.get("seed", 0)),
        output_dir=str(doc.get("output_dir", "out")),
        perturbation_path=pert,
        redraw_new_s=tuple(int(x) for x in redraw_new_s) if redraw_new_s else None,
    )


def config_hash(cfg: ExperimentConfig) -> str:
    doc = {
        "model": cfg.model_path,
        "exhaustion": [list(v) for v in cfg.exhaustion],
        "horizons": list(cfg.horizons),
        "observables": cfg.observables,
        "seed": cfg.seed,
        "perturbation": cfg.perturbation_path,
        "redraw_new_s": list(cfg.redraw_new_s) if cfg.redraw_new_s else None,
    }
    blob = json.dumps(doc, sort_keys=True).encode("utf-8")
    return sha256(blob).hexdigest()[:12]


def _observable_operators(spec: model.ModelSpec,
                          cfg: ExperimentConfig) -> dict[str, opalg.DenseOperator]:
    """Each named observable on the union of its terms' supports.

    Every term must be selfadjoint within TERM_HERMITICITY_TOL, as model
    validation asks of the interaction terms; the averages and the series
    are only defined for selfadjoint observables, so any other is refused,
    as is one on a site outside the first volume.
    """
    out = {}
    for name in sorted(cfg.observables):
        terms = [model.term_from_dict(doc, f"observables[{name}][{i}]")
                 for i, doc in enumerate(cfg.observables[name])]
        for i, term in enumerate(terms):
            defect = term.hermiticity_defect()
            if defect > opalg.TERM_HERMITICITY_TOL:
                raise SystemExit(f"refusing observable {name}: term {i} on "
                                 f"{list(term.support)} is not selfadjoint "
                                 f"(defect {defect:.3e})")
        out[name] = spec.term_sum(terms)
        if not set(out[name].sites) <= set(cfg.exhaustion[0]):
            raise SystemExit(f"refusing observable {name}: sites {list(out[name].sites)} "
                             f"not inside the first volume {list(cfg.exhaustion[0])}")
    return out


def _check_dim_cap(spec: model.ModelSpec, sites: Sequence[int], cap: int) -> None:
    dim = spec.volume_dim(sites)
    if dim > cap:
        raise SystemExit(
            f"refusing volume {list(sites)}: dimension {dim} exceeds cap {cap} "
            f"(raise --dim-cap to override)")


class _Unreadable(Exception):
    """A missing, non-JSON or refused input file: the command prints why and returns 2."""


def _loaded(load, path):
    """``load(path)``, or _Unreadable naming ``path`` if unreadable, not JSON or refused."""
    try:
        return load(path)
    except json.JSONDecodeError as exc:
        raise _Unreadable(f"parse error in {path}: {exc}") from None
    except (OSError, ValueError) as exc:
        raise _Unreadable(f"cannot load {path}: {exc}") from None


def cmd_validate(args) -> int:
    spec = _loaded(model.load_model, args.model)
    report = model.validate(spec)
    print(report)
    return 0 if report.ok else 1


def _load_spec_and_family(cfg: ExperimentConfig):
    spec = _loaded(model.load_model, cfg.model_path)
    report = model.validate(spec)
    if not report.ok:
        raise SystemExit(f"model does not validate:\n{report}")
    family = None
    if cfg.perturbation_path:
        family = _loaded(model.load_family, cfg.perturbation_path)
        problems = family.check(spec)
        if problems:
            raise SystemExit("perturbation family rejected:\n" + "\n".join(problems))
    return spec, family


def cmd_simulate(args) -> int:
    cfg = _loaded(load_config, args.config)
    if args.out:
        cfg = ExperimentConfig(**{**cfg.__dict__, "output_dir": args.out})
    spec, family = _load_spec_and_family(cfg)
    for sites in cfg.exhaustion:
        _check_dim_cap(spec, sites, args.dim_cap)
    observables = _observable_operators(spec, cfg)
    digest = config_hash(cfg)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    obs_names = sorted(cfg.observables)
    header = (["volume_index", "T"] + [f"flux_{a}" for a in spec.reservoirs]
              + ["e", "e_telescoped", "sum_rule_residual", "tol"]
              + [f"avg_{n}" for n in obs_names] + ["config_hash"])
    rows = []
    for vol_idx, sites in enumerate(cfg.exhaustion):
        vols = volume.build(spec, sites, family)
        for rep, averaged in thermo.horizon_reports(vols, cfg.horizons, observables=observables):
            rows.append([str(vol_idx)] + rep.csv_row() + [averaged[n] for n in obs_names]
                        + [digest])
    _write_csv(out_dir / "entropy.csv", header, rows)
    print(f"wrote {out_dir / 'entropy.csv'} ({len(rows)} rows, config {digest})")
    return 0


def run_klein_fuzz(trials: int, max_dim: int, seed: int) -> dict:
    """Seeded random instances of the monotone trace inequality.

    Hermitian matrices come from symmetrized complex Gaussians, unitaries
    from the QR orthonormalization of a complex Gaussian (phases fixed by
    the R diagonal), and phi cycles through a fixed monotone family.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    passes = 0
    max_violation = 0.0
    max_row_dev = 0.0
    max_col_dev = 0.0
    failures: list[str] = []
    for trial in range(trials):
        n = int(rng.integers(1, max_dim + 1))
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = 0.5 * (m + m.conj().T)
        q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        u = q * (np.diag(r) / np.abs(np.diag(r)))
        name, phi, anti = _PHI_FAMILIES[trial % len(_PHI_FAMILIES)]
        witness = thermo.klein_check(a, u, phi, anti)
        tol = opalg.KLEIN_VIOLATION_REL_TOL * witness.scale
        violation = witness.violation
        max_violation = max(max_violation, violation)
        max_row_dev = max(max_row_dev, witness.row_sum_deviation)
        max_col_dev = max(max_col_dev, witness.col_sum_deviation)
        ok = (violation <= tol
              and witness.row_sum_deviation <= opalg.KLEIN_STOCHASTIC_TOL
              and witness.col_sum_deviation <= opalg.KLEIN_STOCHASTIC_TOL
              and witness.min_entry >= -opalg.KLEIN_MIN_ENTRY_TOL)
        if ok:
            passes += 1
        else:
            failures.append(f"trial {trial} (dim {n}, phi {name}): violation {violation:.3e}")
    return {
        "rng": RNG_NAME,
        "seed": seed,
        "trials": trials,
        "max_dim": max_dim,
        "passes": passes,
        "max_violation": max_violation,
        "max_row_sum_deviation": max_row_dev,
        "max_col_sum_deviation": max_col_dev,
        "failures": failures,
    }


def cmd_klein_fuzz(args) -> int:
    report = run_klein_fuzz(args.trials, args.max_dim, args.seed)
    print(f"# rng={report['rng']} seed={report['seed']} trials={report['trials']} "
          f"max_dim={report['max_dim']}")
    print(f"passes: {report['passes']}/{report['trials']}")
    print(f"max violation: {_fmt(report['max_violation'])}")
    print(f"max row-sum deviation: {_fmt(report['max_row_sum_deviation'])}")
    print(f"max col-sum deviation: {_fmt(report['max_col_sum_deviation'])}")
    for line in report["failures"]:
        print("FAIL " + line)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1), encoding="utf-8")
    return 0 if report["passes"] == report["trials"] else 1


def cmd_sweep_convergence(args) -> int:
    cfg = _loaded(load_config, args.config)
    if args.out:
        cfg = ExperimentConfig(**{**cfg.__dict__, "output_dir": args.out})
    if len(cfg.exhaustion) < 3:
        raise SystemExit("sweep-convergence needs an exhaustion of at least 3 volumes")
    spec, family = _load_spec_and_family(cfg)
    for sites in cfg.exhaustion:
        _check_dim_cap(spec, sites, args.dim_cap)
    if not cfg.observables:
        raise SystemExit("sweep-convergence needs at least one named observable")
    digest = config_hash(cfg)
    name = sorted(cfg.observables)[0]
    a = _observable_operators(spec, cfg)[name]

    report = dynamics.convergence_sweep(spec, cfg.exhaustion, a, cfg.horizons,
                                        perturbation=family)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    header = ["volume_index", "t", "discrepancy", "dyson_order", "bound", "config_hash"]
    rows: list[list] = []
    for r in report.evolution_rows:
        rows.append([str(r.pair_index), r.t, r.discrepancy, "", "", digest])
    for r in report.order_rows:
        rows.append([str(r.pair_index), "", r.discrepancy, str(r.order), "", digest])
    for r in report.dyson_rows:
        rows.append([str(r.volume_index), r.t, r.error, "", r.bound, digest])
    _write_csv(out_dir / "convergence.csv", header, rows)
    print(f"wrote {out_dir / 'convergence.csv'} ({len(rows)} rows, config {digest})")
    return 0


def cmd_redraw_check(args) -> int:
    cfg = _loaded(load_config, args.config)
    if cfg.redraw_new_s is None:
        raise SystemExit("config needs a 'redraw_new_s' site list for redraw-check")
    if cfg.perturbation_path:   # the redraw bound is derived for the unperturbed model only
        raise SystemExit("redraw-check refuses a config with a 'perturbation'")
    spec, _ = _load_spec_and_family(cfg)
    sites = cfg.exhaustion[-1]
    _check_dim_cap(spec, sites, args.dim_cap)
    ok = True
    for rep in thermo.boundary_redraw_check(spec, cfg.redraw_new_s, sites, cfg.horizons):
        ok = ok and rep.ok
        print(f"T={_fmt(rep.horizon)} e={_fmt(rep.e_original)} e'={_fmt(rep.e_redrawn)} "
              f"|e-e'|={_fmt(rep.difference)} bound={_fmt(rep.bound)} "
              f"{'ok' if rep.ok else 'VIOLATED'}")
    return 0 if ok else 1


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="nesslab",
        description="finite-volume laboratory for open spin systems between reservoirs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a model file")
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("simulate", help="entropy production sweep over volumes and horizons")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="override the config output directory")
    p.add_argument("--dim-cap", type=int, default=DEFAULT_DIM_CAP)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("klein-fuzz", help="randomized monotone trace-inequality trials")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--max-dim", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="optional JSON report path")
    p.set_defaults(func=cmd_klein_fuzz)

    p = sub.add_parser("sweep-convergence", help="volume-convergence and series-bound sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--dim-cap", type=int, default=DEFAULT_DIM_CAP)
    p.set_defaults(func=cmd_sweep_convergence)

    p = sub.add_parser("redraw-check", help="entropy production under a moved boundary")
    p.add_argument("--config", required=True)
    p.add_argument("--dim-cap", type=int, default=DEFAULT_DIM_CAP)
    p.set_defaults(func=cmd_redraw_check)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _Unreadable as exc:
        print(exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
