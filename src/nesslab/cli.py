"""Command-line driver: validation, simulation sweeps, fuzzing, CSV output.

All outputs are deterministic for a fixed config and seed: rows are emitted
in a fixed order, floats are printed with 17 significant digits, and every
CSV row echoes a hash of the config it came from. The random generator is
numpy's PCG64, seeded explicitly and recorded in report headers.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

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
# the largest accepted E, max |beta| E and max T E, for E the sum of the largest
# absolute row sums of the model's, family's and observables' terms (so |w| <= E for
# every eigenvalue w of any volume's H_B): a run multiplies a few of them, the
# sweep's fourth commutator (2E)^4 ||a|| <= 2^1004 the most, below the largest float
SCALE_LIMIT = 2.0 ** 200
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


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence],
               cfg: ExperimentConfig) -> None:
    """Write ``rows`` under ``header``, each ending in the ``config_hash`` of ``cfg``."""
    digest = config_hash(cfg)
    lines = [",".join([*header, "config_hash"])]
    for row in rows:
        lines.append(",".join([*(c if isinstance(c, str) else _fmt(c) for c in row), digest]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {path} ({len(rows)} rows, config {digest})")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: model file, volume exhaustion, horizons, outputs."""

    model_path: str
    exhaustion: tuple[tuple[int, ...], ...]
    horizons: tuple[float, ...]
    observables: dict
    seed: int
    output_dir: str
    perturbation_path: str | None
    redraw_new_s: tuple[int, ...] | None

    def __post_init__(self):
        if not self.exhaustion:
            raise ValueError("exhaustion must name at least one volume")
        if not all(set(a) < set(b) for a, b in zip(self.exhaustion, self.exhaustion[1:])):
            raise ValueError("exhaustion must be strictly nested ascending")
        if not all(0 < t < math.inf for t in self.horizons):
            raise ValueError("horizons must be positive and finite")
        if any(b > a for a, b in zip(self.horizons[1:], self.horizons)):
            raise ValueError("horizons must be ascending")


def load_config(path) -> ExperimentConfig:
    """The config at ``path``, its model and perturbation paths resolved against its directory."""
    with open(path, "r", encoding="utf-8") as fh:
        model_path, exhaustion, horizons, observables, seed, output_dir, pert, redraw_new_s = (
            model.read_object(json.load(fh), {
                "model": "string", "exhaustion": "array of array of integer",
                "horizons": "array of number", "observables": ("object of array", {}),
                "seed": ("integer", 0), "output_dir": ("string", "out"),
                "perturbation": ("string", None), "redraw_new_s": ("array of integer", None)}))
    base = Path(path).parent
    return ExperimentConfig(   # the fields in the keys' order
        str(base / model_path), tuple(tuple(sorted(v)) for v in exhaustion),
        tuple(map(float, horizons)), observables, seed, output_dir,
        None if pert is None else str(base / pert),
        tuple(redraw_new_s) if redraw_new_s else None)


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

    Every term must fit the model and be selfadjoint, as a family term must: the
    averages and the series are only defined for selfadjoint observables, so any
    other is refused (ValueError), as is one on a site outside the first volume,
    before its terms are summed.
    """
    out = {}
    for name in sorted(cfg.observables):
        terms = [model.term_from_dict(doc, f"observables.{name}[{i}]")
                 for i, doc in enumerate(cfg.observables[name])]
        if problem := next(filter(None, (spec.term_problem(t) or t.hermiticity_problem()
                                         for t in terms)), ""):
            raise ValueError(f"refusing observable {name}: {problem}")
        sites = sorted(set().union(*(t.support for t in terms)))
        if not set(sites) <= set(cfg.exhaustion[0]):
            raise ValueError(f"refusing observable {name}: sites {sites} "
                             f"not inside the first volume {list(cfg.exhaustion[0])}")
        out[name] = spec.term_sum(terms)
    return out


# what a command's input step raises for an input it refuses: main reports it
# on one stderr line with status 2, and lets any other exception through
_REFUSED = (OSError, ValueError, TypeError, KeyError, AttributeError, IndexError, OverflowError)


@contextlib.contextmanager
def _reading(path):
    """Raise a refusal raised inside as the ValueError ``cannot load <path>: <reason>``,
    the reason an OSError's or ValueError's message, else the exception's repr."""
    try:
        yield
    except _REFUSED as exc:
        reason = exc if isinstance(exc, (OSError, ValueError)) else repr(exc)
        raise ValueError(f"cannot load {path}: {reason}") from None


def cmd_validate(args):
    with _reading(args.model):
        problems = model.validate(model.load_model(args.model))

    def run() -> int:
        print("\n".join(problems) or "ok")
        return 1 if problems else 0
    return run


def _load_inputs(args):
    """The config ``args.config`` names, with its validated model, checked
    perturbation family (or None) and observables; ValueError, naming the file
    at fault, for any of them that cannot be read or is refused (a family entry
    for a volume the exhaustion does not name among them), for a scale above
    ``SCALE_LIMIT`` and for a largest volume above ``args.dim_cap``."""
    with _reading(args.config):
        cfg = load_config(args.config)
    with _reading(cfg.model_path):
        spec = model.load_model(cfg.model_path)
        problems = model.validate(spec)
        if problems:
            raise ValueError("; ".join(problems))
    family = None
    if cfg.perturbation_path:
        with _reading(cfg.perturbation_path):
            family = model.load_family(cfg.perturbation_path)
            # build looks up only the volume it builds: any other entry would do nothing
            volumes = set(map(frozenset, cfg.exhaustion))
            problems = family.check(spec) + [
                f"entry {i}: volume {sorted(v)} is none of the exhaustion's volumes"
                for i, (v, _) in enumerate(family.entries) if v not in volumes]
            if problems:
                raise ValueError("; ".join(problems))
    with _reading(args.config):
        if problem := next(filter(None, map(spec.volume_problem, cfg.exhaustion)), ""):
            raise ValueError(problem)
        if cfg.redraw_new_s:
            model.redraw(spec, cfg.redraw_new_s)
        observables = _observable_operators(spec, cfg)
        matrices = [t.matrix for t in spec.terms] + [x.matrix for x in observables.values()]
        if family is not None:
            matrices += [t.matrix for _, terms in family.entries for t in terms]
        with np.errstate(over="ignore"):   # an infinite E is refused below
            energy = sum(float(np.abs(m).sum(axis=1).max()) for m in matrices)
        for what, scale in (("E", energy),
                            ("max |beta| E", max(map(abs, spec.betas.values()), default=0.0)
                             * energy),
                            ("max T E", max(cfg.horizons, default=0.0) * energy)):
            if not scale <= SCALE_LIMIT:
                raise ValueError(f"refusing {what} = {scale:.6g} (E = {energy:.6g}, the terms' "
                                 f"energy bound) above 2^200: a run's products could overflow")
    dim = spec.volume_dim(cfg.exhaustion[-1])   # the largest of the nested volumes
    if dim > args.dim_cap:
        raise ValueError(f"refusing volume {list(cfg.exhaustion[-1])}: dimension {dim} exceeds "
                         f"cap {args.dim_cap} (raise --dim-cap to override)")
    return cfg, spec, family, observables


def cmd_simulate(args):
    cfg, spec, family, observables = _load_inputs(args)
    out_dir = Path(args.out or cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def run() -> int:
        obs_names = sorted(cfg.observables)
        header = (["volume_index", "T"] + [f"flux_{a}" for a in spec.reservoirs]
                  + ["e", "e_telescoped", "sum_rule_residual", "tol"]
                  + [f"avg_{n}" for n in obs_names])
        rows = []
        for vol_idx, sites in enumerate(cfg.exhaustion):
            vols = volume.build(spec, sites, family)
            for rep, averaged in thermo.horizon_reports(vols, cfg.horizons,
                                                        observables=observables):
                rows.append([str(vol_idx)] + rep.csv_row() + [averaged[n] for n in obs_names])
        _write_csv(out_dir / "entropy.csv", header, rows, cfg)
        return 0
    return run


def run_klein_fuzz(trials: int, max_dim: int, seed: int) -> dict:
    """Seeded random instances of the monotone trace inequality.

    Hermitian matrices come from symmetrized complex Gaussians, unitaries
    from the QR orthonormalization of a complex Gaussian (phases fixed by
    the R diagonal), and phi cycles through a fixed monotone family.
    """
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
        ok = (violation <= tol and witness.footnote_value >= -tol
              and witness.row_sum_deviation <= opalg.KLEIN_STOCHASTIC_TOL
              and witness.col_sum_deviation <= opalg.KLEIN_STOCHASTIC_TOL
              and witness.min_entry >= -opalg.KLEIN_MIN_ENTRY_TOL)
        if ok:
            passes += 1
        else:
            failures.append(f"trial {trial} (dim {n}, phi {name}): violation {violation:.3e}, "
                            f"convex form {witness.footnote_value:.3e}")
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


def cmd_klein_fuzz(args):
    if args.trials < 1 or args.max_dim < 1:
        raise ValueError("klein-fuzz needs --trials and --max-dim of at least 1")
    if args.out and (Path(args.out).is_dir() or not Path(args.out).parent.is_dir()):
        raise ValueError(f"cannot write {args.out}: not a file in an existing directory")

    def run() -> int:
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
    return run


def cmd_sweep_convergence(args):
    cfg, spec, family, observables = _load_inputs(args)
    if len(cfg.exhaustion) < 3:
        raise ValueError("sweep-convergence needs an exhaustion of at least 3 volumes")
    if not observables:
        raise ValueError("sweep-convergence needs at least one named observable")
    if len(observables) > 1:
        raise ValueError(f"sweep-convergence sweeps one named observable, not {len(observables)} "
                         f"({', '.join(sorted(observables))})")
    (observable,) = observables.values()
    out_dir = Path(args.out or cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def run() -> int:
        report = dynamics.convergence_sweep(spec, cfg.exhaustion, observable, cfg.horizons,
                                            perturbation=family)
        header = ["volume_index", "t", "discrepancy", "dyson_order", "bound"]
        rows: list[list] = []
        for r in report.evolution_rows:
            rows.append([str(r.pair_index), r.t, r.discrepancy, "", ""])
        for r in report.order_rows:
            rows.append([str(r.pair_index), "", r.discrepancy, str(r.order), ""])
        for r in report.dyson_rows:
            rows.append([str(r.volume_index), r.t, r.error, "", r.bound])
        _write_csv(out_dir / "convergence.csv", header, rows, cfg)
        return 0
    return run


def cmd_redraw_check(args):
    cfg, spec, _, _ = _load_inputs(args)
    sites = cfg.exhaustion[-1]
    if cfg.redraw_new_s is None:
        raise ValueError("config needs a 'redraw_new_s' site list for redraw-check")
    if cfg.perturbation_path:   # the redraw bound is derived for the unperturbed model only
        raise ValueError("redraw-check refuses a config with a 'perturbation'")
    if not set(cfg.redraw_new_s) <= set(sites):
        raise ValueError(f"redraw_new_s {sorted(set(cfg.redraw_new_s))} is not inside "
                         f"the largest volume {list(sites)}")

    def run() -> int:
        ok = True
        for rep in thermo.boundary_redraw_check(spec, cfg.redraw_new_s, sites, cfg.horizons):
            ok = ok and rep.ok
            print(f"T={_fmt(rep.horizon)} e={_fmt(rep.e_original)} e'={_fmt(rep.e_redrawn)} "
                  f"|e-e'|={_fmt(rep.difference)} bound={_fmt(rep.bound)} "
                  f"{'ok' if rep.ok else 'VIOLATED'}")
        return 0 if ok else 1
    return run


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
    # exit status: 0 done; 1 the command ran and a check it reports failed;
    # 2 an input refused, on one stderr line, before any volume is built
    try:
        run = args.func(args)   # the input step, which returns the run step
    except _REFUSED as exc:
        print(exc, file=sys.stderr)
        return 2
    return run()


if __name__ == "__main__":
    sys.exit(main())
