"""Every input either runs to finite results or is refused on one line, before any build.

A valid chain model, config and perturbation family are changed one
mutation at a time, and ``validate``, ``simulate``, ``sweep-convergence``,
``redraw-check`` and ``klein-fuzz`` run in process on the result. Each run
returns 0 with finite numbers; or 1, for a check the command reports, with
an empty stderr; or 2 with one stderr line, an empty stdout and no
``volume.build`` call. No exception leaves ``main``.
"""

import copy
import io
import json
import math
import os
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from nesslab import thermo, volume
from nesslab.cli import main

from conftest import make_chain, model_to_dict

SZ = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
DOCS = {
    "model": model_to_dict(make_chain(5, {0: 1, 1: 1, 2: 0, 3: 2, 4: 2}, {1: 2.0, 2: 1.0})),
    "config": {
        "model": "model.json",
        "exhaustion": [[1, 2, 3], [0, 1, 2, 3], [0, 1, 2, 3, 4]],
        "horizons": [0.05, 5.0],
        "observables": {"left_z": [{"support": [1], "matrix": SZ}]},
        "seed": 3,
        "output_dir": "out",
        "perturbation": "family.json",
        "redraw_new_s": [1, 2, 3],
    },
    "family": {
        "bound_K": 0.5,
        "volumes": [{"sites": [0, 1, 2, 3, 4],
                     "terms": [{"support": [4], "matrix": [[[0.1, 0.0], [0.0, 0.0]],
                                                          [[0.0, 0.0], [-0.1, 0.0]]]}]}],
        "protected": [{"sites": [2], "threshold": 0}],
    },
}
# values of the wrong JSON type, an undeclared site, numbers no input may hold, and
# finite numbers whose exponential or products overflow
VALUES = [5, 2.5, "x", True, None, {}, {"a": 1}, [], [1, 2], 99, 0, -1,
          math.nan, math.inf, -math.inf, 800.0, 1e308]
ABOVE_CAP = 8192   # the default --dim-cap is 4096
# the keys under which a document names sites
SITE_KEYS = ("id", "support", "sites", "exhaustion", "redraw_new_s")


def _paths(node, path=()):
    """Every position in a JSON document, a matrix counted as one."""
    yield path
    if path and path[-1] == "matrix":
        return
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _paths(child, path + (key,))


def _at(doc, path):
    """The node at ``path``."""
    for key in path:
        doc = doc[key]
    return doc


POSITIONS = [(name, path) for name, doc in DOCS.items() for path in _paths(doc)]
MATRICES = [(n, p) for n, p in POSITIONS if p and p[-1] == "matrix"]
LISTS = [(n, p) for n, p in POSITIONS if isinstance(_at(DOCS[n], p), list) and _at(DOCS[n], p)]
DICT_KEYS = [(n, p) for n, p in POSITIONS if p and isinstance(_at(DOCS[n], p[:-1]), dict)]
SITES = [(n, p) for n, p in POSITIONS
         if any(k in SITE_KEYS for k in p) and isinstance(_at(DOCS[n], p), int)]
DIMS = [(n, p) for n, p in POSITIONS if p and p[-1] == "dim"]


def _mutation(op, positions, values=(None,)):
    return st.tuples(st.just(op), st.sampled_from(positions), st.sampled_from(values)).map(
        lambda t: (t[0], t[1][0], t[1][1], t[2]))


MUTATIONS = st.one_of(
    _mutation("drop", POSITIONS),              # a key, a list item, or a whole file
    _mutation("set", POSITIONS, VALUES),       # a wrong type, empty list, NaN or infinity
    _mutation("set", SITES, [99]),             # an undeclared site
    _mutation("rekey", DICT_KEYS, ["99"]),     # an undeclared site or region as a key
    _mutation("duplicate", LISTS),             # a site id, term, volume or entry twice
    _mutation("set", DIMS, [ABOVE_CAP]),       # a site dimension above the cap
    _mutation("big-site", [("model", ())]),    # a volume dimension above the cap
    _mutation("ragged", MATRICES),             # a matrix of the wrong shape
    _mutation("skew", MATRICES),               # a non-Hermitian matrix
    _mutation("scale", MATRICES, [1e80]),      # finite entries whose products overflow
)


def _mutated(mutation):
    """The three documents with one mutation; a dropped file is absent."""
    op, name, path, value = mutation
    docs = copy.deepcopy(DOCS)
    holder, key = docs, name
    for step in path:
        holder, key = holder[key], step
    if op == "drop":
        del holder[key]
    elif op == "set":
        holder[key] = value
    elif op == "rekey":
        holder[value] = holder.pop(key)
    elif op == "duplicate":
        holder[key].append(copy.deepcopy(holder[key][0]))
    elif op == "big-site":
        docs["model"]["sites"].append({"id": 5, "dim": ABOVE_CAP})
        docs["model"]["regions"]["5"] = 2
        docs["config"]["exhaustion"][-1].append(5)
    elif op == "ragged":
        holder[key] = holder[key][:-1]
    elif op == "skew":
        holder[key][0][-1] = [3.0, 0.0]
    elif op == "scale":
        holder[key] = [[[value * re, value * im] for re, im in row] for row in holder[key]]
    return docs


def _run(argv):
    """main(argv) as (status, stdout, stderr, the volumes built)."""
    built, real = [], volume.build

    def build(*args, **kwargs):
        built.append(args[1])
        return real(*args, **kwargs)

    out, err = io.StringIO(), io.StringIO()
    volume.build = thermo.build = build
    try:
        with redirect_stdout(out), redirect_stderr(err):
            status = main(argv)
    finally:
        volume.build = thermo.build = real
    return status, out.getvalue(), err.getvalue(), built


def _check(argv, checks_fail=False, csv=None):
    """Run ``argv`` and assert the status rule: status 1 only where
    ``checks_fail``, and on status 0 finite numbers in its stdout and in the
    CSV ``csv`` = (output_dir, file name) names, if given."""
    status, out, err, built = _run(argv)
    if status == 2:
        assert out == "" and built == [] and err.endswith("\n") and err.count("\n") == 1, (
            argv, out, err, built)
        return
    assert status == 0 or (status == 1 and checks_fail), (argv, status, out, err)
    assert err == "", (argv, err)
    texts = [out]
    if csv is not None and status == 0:
        out_dir, name = csv
        assert isinstance(out_dir, str), (argv, f"status 0 on output_dir {out_dir!r}")
        texts.append(Path(out_dir, name).read_text(encoding="utf-8"))
    for text in texts:
        assert not re.search(r"\b(nan|inf)\b", text, re.I), (argv, text)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(mutation=MUTATIONS, klein=st.tuples(st.integers(-1, 2), st.integers(-1, 3)))
@example(mutation=("set", "model", ("betas",), []), klein=(1, 2))
@example(mutation=("set", "model", ("regions",), [1, 2]), klein=(1, 2))
@example(mutation=("set", "model", ("terms",), 5), klein=(1, 2))
@example(mutation=("set", "config", ("redraw_new_s",), 5), klein=(1, 2))
@example(mutation=("set", "config", ("perturbation",), 5), klein=(1, 2))
@example(mutation=("drop", "family", ("protected", 0, "threshold"), None), klein=(1, 2))
@example(mutation=("set", "config", ("exhaustion", 0), [1, 3]), klein=(1, 2))
@example(mutation=("set", "config", ("output_dir",), [1]), klein=(1, 2))
@example(mutation=("set", "model", ("lambda",), 800.0), klein=(1, 2))
@example(mutation=("set", "model", ("betas", "1"), 1e308), klein=(1, 2))
@example(mutation=("set", "config", ("horizons", 1), 1e308), klein=(1, 2))
@example(mutation=("scale", "model", ("terms", 5, "matrix"), 1e80), klein=(1, 2))
@example(mutation=("set", "config", ("seed",), 3), klein=(0, 2))
@example(mutation=("set", "config", ("seed",), 3), klein=(2, 0))
def test_every_input_runs_or_is_refused_on_one_line(mutation, klein):
    docs = _mutated(mutation)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, doc in docs.items():
                Path(f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
            config = docs.get("config")
            # redraw-check refuses a perturbation, so it reads the config without one
            if isinstance(config, dict):
                config = {k: v for k, v in config.items() if k != "perturbation"}
            Path("redraw.json").write_text(json.dumps(config), encoding="utf-8")
            # a status 0 writes where the config says
            out_dir = config.get("output_dir", "out") if isinstance(config, dict) else None

            _check(["validate", "--model", "model.json"], checks_fail=True)
            _check(["simulate", "--config", "config.json"], csv=(out_dir, "entropy.csv"))
            _check(["sweep-convergence", "--config", "config.json"],
                   csv=(out_dir, "convergence.csv"))
            _check(["redraw-check", "--config", "redraw.json"], checks_fail=True)
            _check(["klein-fuzz", "--trials", str(klein[0]), "--max-dim", str(klein[1])],
                   checks_fail=True)
        finally:
            os.chdir(cwd)
