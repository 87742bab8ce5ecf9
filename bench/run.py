"""nesslab benchmark: seeded CLI runs, end-to-end metrics, traced per-module split.

Usage:
    python3 bench/run.py --workload ladder --seed 0 --seconds 35 --trace 0

Each run writes a model and config generated from ``--seed`` (see
workloads.py), runs the workload's ``nesslab`` command once untimed on the
workload's D <= 64 variant to warm the file cache and the bytecode cache,
and then runs the real command again and again, one fresh process at a
time (a closed loop with one client), for ``--seconds`` seconds and at
least MIN_COMMANDS times. Every command's CSV is checked (see
workloads.check_output) outside the timed region.

With ``--trace 0`` the metrics are the medians over the commands of
``wall_s`` (process start to exit), ``setup_s`` (process start to the first
call into ``volume.build`` or ``dynamics.convergence_sweep``) and
``peak_rss_mb`` (``ru_maxrss`` of the command's process). With
``--trace 1`` untraced and traced commands alternate; the metrics are the
per-module call counts and self times of the traced commands (medians) and
``trace.overhead_s``, the traced minus the untraced median wall time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` and ``failed`` (output checks; their ratio is
the benchmark's ``fail_frac``) and ``metrics``. The lines before it give
every metric with its unit and sample count, and the environment.
Everything the run writes goes to ``.bench_work/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
# one BLAS thread: steadier timings on a shared machine, and never more
# threads than processors
BLAS_THREADS = 1
MIN_COMMANDS = 3
# a command that has not ended by then is killed and counted as failed
COMMAND_TIMEOUT_S = 75.0

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))
PER_LAYER = (
    ("opalg.spectral.calls", "count"), ("opalg.spectral.self_s", "s"),
    ("opalg.op_norm.calls", "count"), ("opalg.op_norm.self_s", "s"),
    ("opalg.embed.calls", "count"), ("opalg.embed.self_s", "s"),
    ("linalg.eig.calls", "count"), ("linalg.eig.self_s", "s"),
    ("linalg.eig_full_d.per_volume", "count"),
    ("volume.build.calls", "count"), ("volume.build.self_s", "s"),
    ("thermo.initial_state.self_s", "s"),
    ("thermo.entropy_production.calls", "count"),
    ("thermo.entropy_production.self_s", "s"),
    ("thermo.time_averaged_state.calls", "count"),
    ("thermo.time_averaged_state.self_s", "s"),
    ("thermo.horizon_s.p50", "s"), ("thermo.horizon_s.p90", "s"),
    ("dynamics.make_plan.self_s", "s"),
    ("dynamics.exact_evolve.calls", "count"), ("dynamics.exact_evolve.self_s", "s"),
    ("dynamics.dyson_evolve.calls", "count"), ("dynamics.dyson_evolve.self_s", "s"),
    ("dynamics.convergence_sweep.self_s", "s"),
    ("model.load.self_s", "s"),
    ("model.lambda_norm.calls", "count"), ("model.lambda_norm.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"),
)


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_command(inp: wl.Inputs, work: Path, index: int, trace: bool, env: dict) -> dict:
    """One CLI command in a fresh process; returns its timings and output."""
    out_dir = work / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    sidecar = work / f"sidecar-{index}.json"
    args = [sys.executable, str(HERE / "launch.py"), str(sidecar), "1" if trace else "0",
            inp.workload.command, "--config", "config.json"]
    with open(work / f"stdout-{index}.txt", "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen(args, cwd=work, env=env, stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = {"trace": trace, "wall_s": end - start, "peak_rss_mb": usage.ru_maxrss / 1024.0,
              "exit": proc.returncode, "csv": None, "setup_s": None, "spans": None}
    csv_path = out_dir / wl.output_name(inp.workload)
    if proc.returncode == 0 and csv_path.is_file():
        result["csv"] = csv_path.read_bytes()
    if sidecar.is_file():
        record = json.loads(sidecar.read_text(encoding="utf-8"))
        if record["setup_mark"] is not None:
            result["setup_s"] = record["setup_mark"] - start
        result["spans"] = record.get("spans")
    return result


def check_command(inp: wl.Inputs, result: dict, first_csv: bytes | None,
                  checks: wl.Checks, label: str) -> None:
    if result["csv"] is None:
        checks.fail_all(wl.checks_per_command(inp),
                        f"{label}: exit code {result['exit']}, no CSV")
        return
    try:
        wl.check_output(inp, result["csv"], first_csv, checks, label)
    except (IndexError, KeyError, ValueError) as exc:
        checks.fail_all(1, f"{label}: malformed CSV ({exc!r})")


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def layer_metrics(spans: list, volume_dims: set[int], volumes: int) -> dict[str, float]:
    """Call counts and self times per traced function of one command."""
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    child_time = [0.0] * len(spans)
    for _name, start, end, parent, _dim in spans:
        if parent >= 0:
            child_time[parent] += end - start
    full_d = 0
    horizon_times = []
    for i, (name, start, end, _parent, dim) in enumerate(spans):
        if name.startswith("linalg."):
            name = "linalg.eig"
            full_d += dim in volume_dims
        calls[name] = calls.get(name, 0) + 1
        self_time[name] = self_time.get(name, 0.0) + (end - start) - child_time[i]
        if name == "thermo.entropy_production":
            horizon_times.append(end - start)
    self_time["model.load"] = (self_time.get("model.load_model", 0.0)
                               + self_time.get("model.validate", 0.0))
    out: dict[str, float] = {}
    for metric, _unit in PER_LAYER:
        base, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = float(calls.get(base, 0))
        elif kind == "self_s":
            out[metric] = self_time.get(base, 0.0)
    out["linalg.eig_full_d.per_volume"] = full_d / volumes
    out["thermo.horizon_s.p50"] = _quantile(horizon_times, 0.5)
    out["thermo.horizon_s.p90"] = _quantile(horizon_times, 0.9)
    return out


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_bytes().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
        "src_lines": src_lines,
    }


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text(encoding="utf-8").strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text(encoding="utf-8").strip() if ref_file.is_file() else "unknown"
    return ref


def measure(inp: wl.Inputs, work: Path, seconds: float, trace: bool,
            checks: wl.Checks) -> list[dict]:
    """Closed loop: commands back to back until the time is up.

    A command that fails ends the loop: its checks all count as failed.
    """
    env = child_env()
    pattern = (False, True) if trace else (False,)
    results: list[dict] = []
    first_csv = None
    start = time.monotonic()
    while True:
        for traced in pattern:
            res = run_command(inp, work, len(results), traced, env)
            check_command(inp, res, first_csv, checks, f"command {len(results)}")
            first_csv = first_csv or res["csv"]
            results.append(res)
            if res["csv"] is None:
                return results
        elapsed = time.monotonic() - start
        per_round = elapsed / (len(results) // len(pattern))
        if len(results) >= MIN_COMMANDS and elapsed + per_round > seconds:
            return results


def warm_up(w: wl.Workload, seed: int) -> None:
    smoke = wl.WORKLOADS.get(f"{w.name}-smoke", w)
    work = WORK / w.name / "warmup"
    inp = wl.generate(smoke, seed, work)
    run_command(inp, work, 0, False, child_env())


def summarize(results: list[dict], inp: wl.Inputs, trace: bool) -> tuple[dict, dict]:
    """Metric medians and sample counts: end-to-end from the untraced
    commands, and per-layer from the traced ones if there are any."""
    untraced = [r for r in results if not r["trace"]]
    values = {name: [r[name] for r in untraced if r[name] is not None]
              for name, _unit in END_TO_END}
    if trace:
        traced = [r for r in results if r["trace"] and r["spans"] is not None]
        dims = set(inp.workload.volume_dims())
        per_cmd = [layer_metrics(r["spans"], dims, len(dims)) for r in traced]
        values.update({name: [m[name] for m in per_cmd] for name, _unit in PER_LAYER
                       if name != "trace.overhead_s"})
        walls = [r["wall_s"] for r in traced]
        base = [r["wall_s"] for r in untraced]
        values["trace.overhead_s"] = ([statistics.median(walls) - statistics.median(base)]
                                      if walls and base else [])
    medians = {name: statistics.median(v) for name, v in values.items() if v}
    counts = {name: len(v) for name, v in values.items()}
    return medians, counts


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "nesslab" / "cli.py").is_file():
        print(f"no nesslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    w = wl.WORKLOADS[args.workload]
    work = WORK / w.name
    shutil.rmtree(work, ignore_errors=True)
    inp = wl.generate(w, args.seed, work)
    warm_up(w, args.seed)

    checks = wl.Checks()
    trace = bool(args.trace)
    results = measure(inp, work, args.seconds, trace, checks)
    medians, counts = summarize(results, inp, trace)
    reported = dict(PER_LAYER if trace else END_TO_END)
    for name in reported:
        if name not in medians:
            checks.fail_all(1, f"metric {name} has no sample")

    env = environment()
    samples = [{k: r[k] for k in ("trace", "wall_s", "setup_s", "peak_rss_mb", "exit")}
               for r in results]
    (work / "result.json").write_text(json.dumps(
        {"environment": env, "samples": samples, "medians": medians}, indent=1),
        encoding="utf-8")
    print(f"# workload={w.name} seed={args.seed} trace={args.trace} "
          f"commands={len(results)} volume_dims={w.volume_dims()}")
    print("# env " + json.dumps(env, sort_keys=True))
    for name, unit in END_TO_END + (PER_LAYER if trace else ()):
        if name in medians:
            print(f"# {name:36s} {medians[name]:14.6g} {unit:6s} median of {counts[name]}")
    fail_frac = checks.failed / max(checks.attempted, 1)
    print(f"# {'fail_frac':36s} {fail_frac:14.6g} {'':6s} {checks.failed} of "
          f"{checks.attempted} checks failed")
    for message in checks.messages:
        print(f"# FAILED {message}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": medians[name], "unit": unit}
                    for name, unit in reported.items() if name in medians},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
