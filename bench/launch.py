"""Run one nesslab CLI command in this process, as the ``nesslab`` script would.

Usage: python3 bench/launch.py <sidecar.json> <trace 0|1> <cli args...>

The package is imported from the ``src/`` directory next to this one. With
trace 0 the only instrumentation is a first-call marker on the functions
that end set-up (``volume.build`` and ``dynamics.convergence_sweep``). With
trace 1 the public functions listed in ``TRACED`` and the numpy/scipy
Hermitian eigensolvers are wrapped, and every call becomes a span
(name, start, end, parent, matrix dimension). The sidecar receives the
set-up mark and the spans when the command ends.
"""

import functools
import importlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (module, function) pairs traced; a name missing from the commit under
# test is skipped and shows up as zero calls.
TRACED = (
    ("cli", "main"),
    ("model", "load_model"), ("model", "validate"), ("model", "lambda_norm"),
    ("volume", "build"),
    ("opalg", "spectral"), ("opalg", "op_norm"), ("opalg", "embed"),
    ("thermo", "initial_state"), ("thermo", "entropy_production"),
    ("thermo", "time_averaged_state"),
    ("dynamics", "make_plan"), ("dynamics", "exact_evolve"),
    ("dynamics", "dyson_evolve"), ("dynamics", "convergence_sweep"),
)
SETUP_ENDS = (("volume", "build"), ("dynamics", "convergence_sweep"))
EIGENSOLVERS = ("eigh", "eigvalsh")


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, dim]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, dim_of_first_arg=False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            dim = args[0].shape[-1] if dim_of_first_arg and args else None
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1, dim])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return functools.wraps(fn)(traced)


def _install_linalg(tracer: Tracer) -> None:
    import numpy.linalg
    import scipy.linalg

    for mod, prefix in ((numpy.linalg, "numpy"), (scipy.linalg, "scipy")):
        for fname in EIGENSOLVERS:
            setattr(mod, fname, tracer.wrap(f"linalg.{prefix}.{fname}",
                                            getattr(mod, fname), dim_of_first_arg=True))


def _rebind(pairs, make_wrapper) -> None:
    """Replace each function everywhere the package holds a reference to it.

    Modules that did ``from .x import f`` keep their own binding of ``f``,
    so every ``nesslab`` module is searched, not only the defining one.
    """
    package = [m for n, m in sys.modules.items() if n == "nesslab" or n.startswith("nesslab.")]
    for modname, fname in pairs:
        try:
            mod = importlib.import_module(f"nesslab.{modname}")
        except ImportError:
            continue
        original = getattr(mod, fname, None)
        if original is None:
            continue
        wrapper = make_wrapper(f"{modname}.{fname}", original)
        for m in package:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapper)


def main(argv) -> int:
    sidecar, trace, cli_args = Path(argv[0]), argv[1] == "1", argv[2:]
    sys.path.insert(0, str(ROOT / "src"))
    record: dict = {"setup_mark": None}
    tracer = Tracer() if trace else None
    if tracer is not None:
        _install_linalg(tracer)

    import nesslab.cli

    def mark_setup_end(name, fn):
        def marked(*args, **kwargs):
            if record["setup_mark"] is None:
                record["setup_mark"] = time.monotonic()
            return fn(*args, **kwargs)
        return marked

    if tracer is not None:
        _rebind(TRACED, tracer.wrap)
    _rebind(SETUP_ENDS, mark_setup_end)
    try:
        return nesslab.cli.main(cli_args)
    finally:
        if tracer is not None:
            record["spans"] = tracer.spans
        sidecar.write_text(json.dumps(record), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
