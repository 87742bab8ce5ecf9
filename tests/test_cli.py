import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nesslab import boundary_redraw_check
from nesslab.cli import config_hash, load_config, main, run_klein_fuzz

from conftest import make_chain, model_to_dict, record_solves


def write_model(tmp_path, spec, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(model_to_dict(spec)), encoding="utf-8")
    return path


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


# observables whose terms the chain_files model cannot hold
INVALID_OBSERVABLES = {
    "observable-on-undeclared-site": [{"support": [99],
                                       "matrix": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]}],
    "term-without-matrix": [{"support": [1]}],
    "one-by-one-matrix-on-a-qubit": [{"support": [1], "matrix": [[[1, 0]]]}],
    "observable-not-a-term-list": 5,
}
MID_Z = [{"support": [1], "matrix": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]}]
# kron(Z, X), whose first tensor factor is the first site of its support
Z_X = [[[0, 0], [1, 0], [0, 0], [0, 0]], [[1, 0], [0, 0], [0, 0], [0, 0]],
       [[0, 0], [0, 0], [0, 0], [-1, 0]], [[0, 0], [0, 0], [-1, 0], [0, 0]]]
# changes to the chain_files model document that its loader refuses
INVALID_MODELS = {
    "model-without-sites": lambda doc: doc.pop("sites"),
    "nan-model-entry": lambda doc: doc["terms"][0]["matrix"][0][0].__setitem__(0, math.nan),
    "nan-lambda": lambda doc: doc.update({"lambda": math.nan}),
    "infinite-beta": lambda doc: doc["betas"].update({"1": math.inf}),
}


@pytest.fixture
def chain_files(tmp_path):
    spec = make_chain(4, {0: 1, 1: 0, 2: 0, 3: 2}, {1: 2.0, 2: 1.0})
    model_path = write_model(tmp_path, spec)
    config_path = write_config(tmp_path, {
        "model": model_path.name,
        "exhaustion": [[1, 2], [0, 1, 2], [0, 1, 2, 3]],
        "horizons": [5.0, 10.0, 20.0, 40.0],
        "seed": 7,
        "output_dir": str(tmp_path / "out"),
    })
    return spec, model_path, config_path, tmp_path


def _fresh_python(code, *args):
    """The stdout of ``code`` run by a new interpreter that imports the package from src/."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return done.stdout


def test_import_brings_in_no_scipy():
    # scipy's import alone costs about as much as a small command's work, and
    # OpenSSL's libcrypto (behind _hashlib and ssl) 3.5 MiB of its resident memory
    code = ("import sys, nesslab, nesslab.cli; "
            "print(' '.join(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', '_hashlib', 'ssl')))")
    assert _fresh_python(code).split() == []


@pytest.mark.parametrize("route", ["builtin", "hashlib-fallback"])
def test_config_hash_is_sha256_of_the_canonical_json(chain_files, route):
    _, model_path, config_path, _ = chain_files
    canonical = json.dumps({
        "model": str(model_path),
        "exhaustion": [[1, 2], [0, 1, 2], [0, 1, 2, 3]],
        "horizons": [5.0, 10.0, 20.0, 40.0],
        "observables": {},
        "seed": 7,
        "perturbation": None,
        "redraw_new_s": None,
    }, sort_keys=True)
    expected = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]
    if route == "builtin":
        assert config_hash(load_config(config_path)) == expected
        return
    # with neither built-in module importable, the digest comes from hashlib
    code = ("import sys; sys.modules['_sha2'] = sys.modules['_sha256'] = None; "
            "from nesslab.cli import config_hash, load_config; "
            "print(config_hash(load_config(sys.argv[1])), 'hashlib' in sys.modules)")
    assert _fresh_python(code, str(config_path)).split() == [expected, "True"]


def test_hashlib_fallback_in_process(chain_files, monkeypatch):
    # a second copy of the module, loaded where neither built-in module imports
    path = Path(sys.modules["nesslab.cli"].__file__)
    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setitem(sys.modules, "_sha256", None)
    spec = importlib.util.spec_from_file_location("nesslab.cli_without_sha2", path)
    copy = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, copy)
    spec.loader.exec_module(copy)
    assert copy.sha256 is hashlib.sha256
    cfg = load_config(chain_files[2])
    assert copy.config_hash(cfg) == config_hash(cfg)


def test_module_runs_as_a_script(chain_files, monkeypatch, capsys):
    # python -m nesslab.cli: the __main__ guard exits with main's status
    monkeypatch.delitem(sys.modules, "nesslab.cli")   # runpy warns of a module imported twice
    monkeypatch.setattr(sys, "argv", ["nesslab", "validate", "--model", str(chain_files[1])])
    with pytest.raises(SystemExit) as done:
        runpy.run_module("nesslab.cli", run_name="__main__")
    assert done.value.code == 0
    assert capsys.readouterr() == ("ok\n", "")


class TestValidateCommand:
    def test_valid_model_exits_zero(self, chain_files, capsys):
        _, model_path, _, _ = chain_files
        assert main(["validate", "--model", str(model_path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_violating_model_exits_one(self, tmp_path, capsys):
        spec = make_chain(3, {0: 1, 1: 0, 2: 2}, {1: 1.0, 2: 1.0})
        doc = model_to_dict(spec)
        bad_bond = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2))
        doc["terms"].append({
            "support": [0, 2],
            "matrix": [[[float(z), 0.0] for z in row] for row in bad_bond],
        })
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", "--model", str(path)]) == 1
        assert "reservoir" in capsys.readouterr().out

    def test_truncated_json_reports_location(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"sites": [{"id": 0, "dim": 2}', encoding="utf-8")
        assert main(["validate", "--model", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"cannot load {path}: ") and err.count("\n") == 1
        assert "line" in err and "column" in err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", "--model", str(tmp_path / "nope.json")]) == 2

    def test_misspelled_key_exits_two(self, chain_files, capsys):
        # "term" for "terms" once loaded a model with no terms, which validated as ok
        _, model_path, _, tmp_path = chain_files
        doc = json.loads(model_path.read_text())
        doc["term"] = doc.pop("terms")
        path = write_config(tmp_path, doc, name="term_model.json")
        assert main(["validate", "--model", str(path)]) == 2
        assert capsys.readouterr() == ("", f"cannot load {path}: unknown key 'term'; known "
                                           "keys: sites, regions, lambda, betas, terms\n")

    @pytest.mark.parametrize("part, key, written", [
        ("regions", "1", " 1"), ("regions", "2", "02"), ("regions", "1", "1.0"),
        ("regions", "0", "-0"), ("betas", "2", "+2"), ("betas", "1", "\u0661")],
        ids=["padded", "leading-zero", "fraction", "minus-zero", "plus", "arabic-indic-digit"])
    def test_site_or_reservoir_key_not_in_canonical_decimal_exits_two(
            self, chain_files, capsys, part, key, written):
        # int() read " 1" and "02" as 1 and 2, and the model validated as ok;
        # "1.0" ended in int()'s own message, naming neither the key nor its place
        _, model_path, _, tmp_path = chain_files
        doc = json.loads(model_path.read_text())
        doc[part][written] = doc[part].pop(key)
        path = write_config(tmp_path, doc, name="keyed_model.json")
        assert main(["validate", "--model", str(path)]) == 2
        assert capsys.readouterr() == ("", f"cannot load {path}: key {written!r} in {part} "
                                           "must be an integer in canonical decimal form, "
                                           "as 12 or -3\n")

    def test_support_out_of_ascending_order_exits_two(self, chain_files, capsys):
        # sorting [1, 0] would load kron(Z, X) as Z on site 0 and X on site 1, and
        # validate would print ok: the sites' order is the factors' order
        _, model_path, _, tmp_path = chain_files
        doc = json.loads(model_path.read_text())
        doc["terms"][4] = {"support": [1, 0], "matrix": Z_X}
        bad = write_config(tmp_path, doc, name="unsorted.json")
        assert main(["validate", "--model", str(bad)]) == 2
        assert capsys.readouterr() == ("", f"cannot load {bad}: terms[4].support must list "
                                           "its sites in ascending order\n")

    @pytest.mark.parametrize("invalid", ["nan-model-entry", "nan-lambda", "infinite-beta"])
    def test_non_finite_model_exits_two(self, chain_files, capsys, invalid):
        # a NaN entry used to validate as ok and then fail the build
        _, model_path, _, tmp_path = chain_files
        doc = json.loads(model_path.read_text())
        INVALID_MODELS[invalid](doc)
        path = write_config(tmp_path, doc, name="non_finite.json")
        assert main(["validate", "--model", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"cannot load {path}: ") and "finite" in err


class TestSimulateCommand:
    def test_writes_expected_columns(self, chain_files):
        _, _, config_path, tmp_path = chain_files
        assert main(["simulate", "--config", str(config_path)]) == 0
        lines = (tmp_path / "out" / "entropy.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[:2] == ["volume_index", "T"]
        assert "flux_1" in header and "flux_2" in header
        assert {"e", "e_telescoped", "sum_rule_residual", "tol", "config_hash"} <= set(header)
        assert len(lines) == 1 + 3 * 4  # three volumes, four horizons

    def test_entropy_column_nonnegative_on_thermal_gradient(self, chain_files):
        _, _, config_path, tmp_path = chain_files
        main(["simulate", "--config", str(config_path)])
        lines = (tmp_path / "out" / "entropy.csv").read_text().splitlines()
        header = lines[0].split(",")
        e_idx = header.index("e_telescoped")
        for line in lines[1:]:
            assert float(line.split(",")[e_idx]) >= -1e-10

    def test_decoupled_model_all_zero_fluxes(self, tmp_path, decoupled_model):
        model_path = write_model(tmp_path, decoupled_model)
        config_path = write_config(tmp_path, {
            "model": model_path.name,
            "exhaustion": [[0, 1, 2]],
            "horizons": [5.0],
            "output_dir": str(tmp_path / "out"),
        })
        main(["simulate", "--config", str(config_path)])
        lines = (tmp_path / "out" / "entropy.csv").read_text().splitlines()
        header = lines[0].split(",")
        for line in lines[1:]:
            cells = line.split(",")
            for col in ("flux_1", "flux_2", "e"):
                assert abs(float(cells[header.index(col)])) <= 1e-12

    def test_rerun_is_byte_identical(self, chain_files):
        _, _, config_path, tmp_path = chain_files
        main(["simulate", "--config", str(config_path)])
        first = (tmp_path / "out" / "entropy.csv").read_bytes()
        main(["simulate", "--config", str(config_path)])
        assert (tmp_path / "out" / "entropy.csv").read_bytes() == first

    def test_dim_cap_refusal_names_volume(self, chain_files, capsys):
        # volumes have D = 4, 8, 16: the largest is named, with the cap it needs
        _, _, config_path, _ = chain_files
        assert main(["simulate", "--config", str(config_path), "--dim-cap", "4"]) == 2
        assert capsys.readouterr() == ("", "refusing volume [0, 1, 2, 3]: dimension 16 "
                                           "exceeds cap 4 (raise --dim-cap to override)\n")

    def test_dim_cap_refuses_before_any_build(self, chain_files, capsys, monkeypatch):
        # volumes have D = 4, 8, 16: only the last exceeds the cap
        _, _, config_path, _ = chain_files
        built = []
        monkeypatch.setattr("nesslab.volume.build", lambda *a, **k: built.append(a))
        assert main(["simulate", "--config", str(config_path), "--dim-cap", "8"]) == 2
        assert capsys.readouterr() == ("", "refusing volume [0, 1, 2, 3]: dimension 16 "
                                           "exceeds cap 8 (raise --dim-cap to override)\n")
        assert built == []

    def test_dim_cap_holds_past_the_int64_range(self, tmp_path, capsys):
        # 2 * 2^32 * 2^32 = 2^65, which a product in int64 wraps to 0
        write_config(tmp_path, {
            "sites": [{"id": 0, "dim": 2}, {"id": 1, "dim": 2**32}, {"id": 2, "dim": 2**32}],
            "regions": {"0": 0, "1": 1, "2": 2}, "lambda": 0.5,
            "betas": {"1": 1.0, "2": 1.0}, "terms": []}, name="model.json")
        config_path = write_config(tmp_path, {"model": "model.json",
                                              "exhaustion": [[0, 1, 2]], "horizons": [1.0]})
        assert main(["simulate", "--config", str(config_path)]) == 2
        assert capsys.readouterr() == ("", f"refusing volume [0, 1, 2]: dimension {2**65} "
                                           "exceeds cap 4096 (raise --dim-cap to override)\n")

    def test_observable_outside_first_volume_refused_before_any_build(
            self, chain_files, capsys, monkeypatch):
        # site 3 lies in the last volume only
        _, model_path, _, tmp_path = chain_files
        config_path = write_config(tmp_path, {
            "model": model_path.name,
            "exhaustion": [[1, 2], [0, 1, 2], [0, 1, 2, 3]],
            "horizons": [5.0],
            "observables": {"far_z": [{"support": [3],
                                       "matrix": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]}]},
            "output_dir": str(tmp_path / "out"),
        }, name="far.json")
        built = []
        monkeypatch.setattr("nesslab.volume.build", lambda *a, **k: built.append(a))
        assert main(["simulate", "--config", str(config_path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"cannot load {config_path}: ") and "far_z" in err
        assert built == []

    @pytest.mark.parametrize("command", ["simulate", "sweep-convergence", "redraw-check"])
    def test_missing_model_file_exits_two(self, chain_files, capsys, command):
        _, _, _, tmp_path = chain_files
        config_path = write_config(tmp_path, {
            "model": "missing.json",
            "exhaustion": [[1, 2], [0, 1, 2], [0, 1, 2, 3]],
            "horizons": [5.0],
            "redraw_new_s": [0, 1, 2],
        }, name="missing_model.json")
        assert main([command, "--config", str(config_path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"cannot load {tmp_path / 'missing.json'}: ")

    @pytest.mark.parametrize("command", ["simulate", "sweep-convergence"])
    @pytest.mark.parametrize("invalid", ["descending-horizons", *INVALID_MODELS,
                                         *INVALID_OBSERVABLES, "undeclared-volume-site",
                                         "empty-exhaustion", "infinite-horizon",
                                         "infinite-bound-K", "volume-without-small-system",
                                         "output-dir-not-a-string"])
    def test_invalid_content_exits_two_before_any_build(
            self, chain_files, capsys, monkeypatch, command, invalid):
        # JSON that its loader refuses, or that names what the model does not
        # hold, is reported as a file that cannot be loaded, on one line, as a
        # missing file is; not as a traceback, nor as rows of NaN
        _, model_path, _, tmp_path = chain_files
        doc = {"model": model_path.name, "exhaustion": [[1, 2], [0, 1, 2], [0, 1, 2, 3]],
               "horizons": [5.0, 1.0] if invalid == "descending-horizons" else [1.0, 5.0]}
        if invalid in INVALID_OBSERVABLES:
            doc["observables"] = {"x": INVALID_OBSERVABLES[invalid]}
        if invalid == "undeclared-volume-site":
            doc["exhaustion"][-1].append(99)
        if invalid == "empty-exhaustion":
            doc.update(exhaustion=[], observables={"mid_z": MID_Z})
        if invalid == "infinite-horizon":
            doc["horizons"].append(math.inf)
        if invalid == "volume-without-small-system":   # the small system is {1, 2}
            doc["exhaustion"][0] = [1]
        if invalid == "output-dir-not-a-string":
            doc["output_dir"] = [1]
        bad_path = tmp_path / "invalid.json"
        if invalid in INVALID_MODELS:
            model_doc = json.loads(model_path.read_text())
            INVALID_MODELS[invalid](model_doc)
            bad_path = write_config(tmp_path, model_doc, name="bad_model.json")
            doc["model"] = bad_path.name
        if invalid == "infinite-bound-K":
            bad_path = write_config(tmp_path, {"bound_K": math.inf}, name="family.json")
            doc["perturbation"] = bad_path.name
        config_path = write_config(tmp_path, doc, name="invalid.json")
        built = []
        monkeypatch.setattr("nesslab.volume.build", lambda *a, **k: built.append(a))
        assert main([command, "--config", str(config_path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"cannot load {bad_path}: ") and err.count("\n") == 1
        assert built == []

    @pytest.mark.parametrize("command", ["simulate", "sweep-convergence"])
    def test_family_term_on_undeclared_site_refused_before_any_build(
            self, chain_files, capsys, monkeypatch, command):
        # one of the family check's problem lines, not a KeyError traceback
        _, model_path, _, tmp_path = chain_files
        family_path = write_config(tmp_path, {"bound_K": 1.0, "volumes": [
            {"sites": [0, 1, 2, 3], "terms": [{**MID_Z[0], "support": [99]}]}]},
            name="family.json")
        config_path = write_config(tmp_path, {
            "model": model_path.name, "exhaustion": [[1, 2], [0, 1, 2], [0, 1, 2, 3]],
            "horizons": [1.0], "observables": {"mid_z": MID_Z},
            "perturbation": family_path.name, "output_dir": str(tmp_path / "out"),
        }, name="family_config.json")
        built = []
        monkeypatch.setattr("nesslab.volume.build", lambda *a, **k: built.append(a))
        assert main([command, "--config", str(config_path)]) == 2
        assert capsys.readouterr() == ("", f"cannot load {family_path}: entry 0: term on (99,) "
                                           "names undeclared sites [99]\n")
        assert built == []

    @pytest.mark.parametrize("command", ["simulate", "sweep-convergence"])
    def test_family_term_outside_its_volume_refused_before_any_build(
            self, chain_files, capsys, monkeypatch, command):
        # site 0 lies in reservoir 1 but not in the entry's volume [1, 2]: refused, not dropped
        _, model_path, _, tmp_path = chain_files
        family_path = write_config(tmp_path, {"bound_K": 1.0, "volumes": [
            {"sites": [1, 2], "terms": [{**MID_Z[0], "support": [0]}]}]},
            name="family.json")
        config_path = write_config(tmp_path, {
            "model": model_path.name, "exhaustion": [[1, 2], [0, 1, 2], [0, 1, 2, 3]],
            "horizons": [1.0], "observables": {"mid_z": MID_Z},
            "perturbation": family_path.name, "output_dir": str(tmp_path / "out"),
        }, name="family_config.json")
        built = []
        monkeypatch.setattr("nesslab.volume.build", lambda *a, **k: built.append(a))
        assert main([command, "--config", str(config_path)]) == 2
        assert capsys.readouterr() == ("", f"cannot load {family_path}: entry 0: term on (0,) "
                                           "lies outside its volume [1, 2]\n")
        assert built == []

    @pytest.mark.parametrize("command", ["simulate", "sweep-convergence"])
    def test_non_selfadjoint_family_term_refused_before_any_build(
            self, tmp_path, capsys, monkeypatch, command):
        # sigma^+ times 5 on site 0 of a three-site chain: refused as a model term or
        # an observable term would be, not run with its Hermitian part
        spec = make_chain(3, {0: 1, 1: 0, 2: 2}, {1: 2.0, 2: 1.0})
        family_path = write_config(tmp_path, {"bound_K": 10.0, "volumes": [
            {"sites": [0, 1, 2], "terms": [{"support": [0], "matrix": [[[0, 0], [5, 0]],
                                                                      [[0, 0], [0, 0]]]}]}]},
            name="family.json")
        config_path = write_config(tmp_path, {
            "model": write_model(tmp_path, spec).name, "exhaustion": [[1], [0, 1], [0, 1, 2]],
            "horizons": [1.0], "observables": {"mid_z": MID_Z},
            "perturbation": family_path.name, "output_dir": str(tmp_path / "out"),
        }, name="family_config.json")
        built = []
        monkeypatch.setattr("nesslab.volume.build", lambda *a, **k: built.append(a))
        assert main([command, "--config", str(config_path)]) == 2
        assert capsys.readouterr() == ("", f"cannot load {family_path}: entry 0: term on (0,) "
                                           "is not selfadjoint (defect 5.000e+00)\n")
        assert built == []

    @pytest.mark.parametrize("command", ["simulate", "sweep-convergence"])
    def test_family_term_of_the_wrong_dimension_refused_before_any_build(
            self, tmp_path, capsys, monkeypatch, command):
        # a 3 x 3 matrix on qubit site 0: refused by the model's own term check, not
        # left to fail inside build
        spec = make_chain(3, {0: 1, 1: 0, 2: 2}, {1: 2.0, 2: 1.0})
        identity = [[[float(i == j), 0.0] for j in range(3)] for i in range(3)]
        family_path = write_config(tmp_path, {"bound_K": 10.0, "volumes": [
            {"sites": [0, 1, 2], "terms": [{"support": [0], "matrix": identity}]}]},
            name="family.json")
        config_path = write_config(tmp_path, {
            "model": write_model(tmp_path, spec).name, "exhaustion": [[1], [0, 1], [0, 1, 2]],
            "horizons": [1.0], "observables": {"mid_z": MID_Z},
            "perturbation": family_path.name, "output_dir": str(tmp_path / "out"),
        }, name="family_config.json")
        built = []
        monkeypatch.setattr("nesslab.volume.build", lambda *a, **k: built.append(a))
        assert main([command, "--config", str(config_path)]) == 2
        assert capsys.readouterr() == ("", f"cannot load {family_path}: entry 0: term on (0,) "
                                           "has matrix dimension 3, not 2, the product of its "
                                           "sites' local dimensions\n")
        assert built == []

    @staticmethod
    def _refused_input(chain_files, monkeypatch, command, file, change):
        """Run ``command`` on the chain_files model, a family and a config that names
        both, after ``change`` of the one named ``file``: the path of that file, with
        the status and the no-build check asserted."""
        _, model_path, _, tmp_path = chain_files
        docs = {"model": json.loads(model_path.read_text()),
                "family": {"bound_K": 1.0, "volumes": [
                    {"sites": [0, 1, 2, 3], "terms": [{**MID_Z[0], "support": [0]}]}]},
                "config": {"model": "changed_model.json",
                           "exhaustion": [[1, 2], [0, 1, 2], [0, 1, 2, 3]],
                           "horizons": [1.0], "observables": {"mid_z": MID_Z},
                           "perturbation": "family.json", "output_dir": str(tmp_path / "out")}}
        change(docs[file])
        paths = {"model": write_config(tmp_path, docs["model"], name="changed_model.json"),
                 "family": write_config(tmp_path, docs["family"], name="family.json"),
                 "config": write_config(tmp_path, docs["config"], name="changed_config.json")}
        built = []
        monkeypatch.setattr("nesslab.volume.build", lambda *a, **k: built.append(a))
        assert main([command, "--config", str(paths["config"])]) == 2
        assert built == []
        return paths[file]

    @pytest.mark.parametrize("command", ["simulate", "sweep-convergence"])
    @pytest.mark.parametrize("file, place, key, new_key, refusal", [
        ("config", (), "observables", "observabels",
         "unknown key 'observabels'; known keys: model, exhaustion, horizons, observables, "
         "seed, output_dir, perturbation, redraw_new_s"),
        ("family", (), "volumes", "entries",
         "unknown key 'entries'; known keys: volumes, bound_K, protected"),
        ("model", (), "terms", "term",
         "unknown key 'term'; known keys: sites, regions, lambda, betas, terms"),
        ("model", ("sites", 2), "dim", "dimm",
         "unknown key 'dimm' in sites[2]; known keys: id, dim"),
        ("model", ("terms", 1), None, "weight",
         "unknown key 'weight' in terms[1]; known keys: support, matrix")],
        ids=["config", "family", "model", "site", "term"])
    def test_misspelled_key_refused_before_any_build(
            self, chain_files, capsys, monkeypatch, command, file, place, key, new_key,
            refusal):
        # the misspelled part would otherwise be left out (the model's terms, leaving
        # every flux 0) or read with a default, and the run end in status 0
        def rename(doc):
            for step in place:
                doc = doc[step]
            doc[new_key] = doc.pop(key) if key else 1.0
        path = self._refused_input(chain_files, monkeypatch, command, file, rename)
        assert capsys.readouterr() == ("", f"cannot load {path}: {refusal}\n")

    @pytest.mark.parametrize("command", ["simulate", "sweep-convergence"])
    @pytest.mark.parametrize("file, change, refusal", [
        ("model", lambda doc: doc.pop("lambda"), "missing key 'lambda'"),
        ("model", lambda doc: doc.update({"lambda": True}), "lambda must be a JSON number"),
        ("model", lambda doc: doc["sites"].__setitem__(1, [1, 2]),
         "sites[1] must be a JSON object"),
        ("config", lambda doc: doc.update({"horizons": "15"}),
         "horizons must be a JSON array"),
        ("config", lambda doc: doc["exhaustion"].__setitem__(1, "012"),
         "exhaustion[1] must be a JSON array"),
        ("family", lambda doc: doc["volumes"][0].update({"sites": "0123"}),
         "volumes[0].sites must be a JSON array"),
        ("model", lambda doc: doc["sites"][1].update({"id": 1.7, "dim": 2.9}),
         "sites[1].id must be a JSON integer"),
        ("model", lambda doc: doc["terms"][4].update({"support": [0.6, 1]}),
         "terms[4].support[0] must be a JSON integer"),
        ("model", lambda doc: doc["sites"][0].update({"dim": math.inf}),
         "sites[0].dim must be a JSON integer"),
        ("config", lambda doc: doc["exhaustion"][0].__setitem__(1, 2.0),
         "exhaustion[0][1] must be a JSON integer"),
        ("config", lambda doc: doc.update({"seed": 7.5}), "seed must be a JSON integer"),
        ("model", lambda doc: doc["terms"][0].update({"matrix": [[[1, 0], [0, 0]], [[0, 0]]]}),
         "terms[0].matrix must be square: as many entries in each row as rows"),
        ("model", lambda doc: doc["terms"][0].update(
            {"matrix": [[[1, 0, 0], [0, 0]], [[0, 0], [1, 0]]]}),
         "terms[0].matrix entries must be [re, im] pairs")],
        ids=["no-lambda", "boolean-lambda", "site-not-an-object", "horizons-string",
             "exhaustion-volume-string", "family-volume-string", "fractional-site",
             "fractional-support", "infinite-dim", "float-exhaustion-site", "fractional-seed",
             "ragged-matrix", "matrix-entry-not-a-pair"])
    def test_value_of_the_wrong_kind_refused_before_any_build(
            self, chain_files, capsys, monkeypatch, command, file, change, refusal):
        # "15" once ran as the horizons 1 and 5, and "012" as the volume [0, 1, 2];
        # a fraction was dropped ("id": 1.7 ran as site 1 of dimension 2), and an
        # infinite dimension (1e400 reads as inf, as Infinity does) overflowed int()
        path = self._refused_input(chain_files, monkeypatch, command, file, change)
        assert capsys.readouterr() == ("", f"cannot load {path}: {refusal}\n")

    @pytest.mark.parametrize("command", ["simulate", "sweep-convergence"])
    @pytest.mark.parametrize("file, change, place", [
        ("model", lambda doc: doc["terms"].__setitem__(4, {"support": [1, 0], "matrix": Z_X}),
         "terms[4]"),
        ("family", lambda doc: doc["volumes"][0]["terms"].__setitem__(
            0, {"support": [1, 0], "matrix": Z_X}), "volumes[0].terms[0]"),
        ("config", lambda doc: doc["observables"].__setitem__(
            "mid_z", [{"support": [2, 1], "matrix": Z_X}]), "observables.mid_z[0]")],
        ids=["model", "family", "observable"])
    def test_support_out_of_ascending_order_refused_before_any_build(
            self, chain_files, capsys, monkeypatch, command, file, change, place):
        # a sorted copy of the support would put the matrix's factors on the wrong sites
        path = self._refused_input(chain_files, monkeypatch, command, file, change)
        assert capsys.readouterr() == ("", f"cannot load {path}: {place}.support must list "
                                           "its sites in ascending order\n")

    @pytest.mark.parametrize("command", ["simulate", "sweep-convergence"])
    def test_family_entry_for_no_volume_of_the_exhaustion_refused_before_any_build(
            self, tmp_path, capsys, monkeypatch, command):
        # the middle-site chain of six: build looks up only the volumes it builds, so an
        # entry for [1, 2, 3, 4] would leave every flux and average as without the family
        spec = make_chain(6, {0: 1, 1: 1, 2: 1, 3: 0, 4: 2, 5: 2}, {1: 2.0, 2: 1.0})
        family_path = write_config(tmp_path, {"bound_K": 10.0, "volumes": [
            {"sites": [1, 2, 3, 4], "terms": [{**MID_Z[0], "support": [1]}]}]},
            name="family.json")
        config_path = write_config(tmp_path, {
            "model": write_model(tmp_path, spec).name,
            "exhaustion": [[2, 3, 4], [1, 2, 3, 4, 5], [0, 1, 2, 3, 4, 5]],
            "horizons": [100.0], "observables": {"mid_z": [{**MID_Z[0], "support": [3]}]},
            "perturbation": family_path.name, "output_dir": str(tmp_path / "out"),
        }, name="family_config.json")
        built = []
        monkeypatch.setattr("nesslab.volume.build", lambda *a, **k: built.append(a))
        assert main([command, "--config", str(config_path)]) == 2
        assert capsys.readouterr() == ("", f"cannot load {family_path}: entry 0: volume "
                                           "[1, 2, 3, 4] is none of the exhaustion's volumes\n")
        assert built == []

    @pytest.mark.parametrize("command", ["simulate", "sweep-convergence"])
    def test_non_selfadjoint_observable_refused_before_any_build(
            self, chain_files, capsys, monkeypatch, command):
        # averages and series of a non-selfadjoint observable are undefined:
        # the run must stop and name it rather than report its Hermitian part
        skew = np.kron([[1.0, 0.7], [0.1, -0.3]], [[0.2, 1.0], [0.4, 0.5]])
        _, model_path, _, tmp_path = chain_files
        config_path = write_config(tmp_path, {
            "model": model_path.name,
            "exhaustion": [[1, 2], [0, 1, 2], [0, 1, 2, 3]],
            "horizons": [0.01, 5.0],
            "observables": {
                "mid_z": [{"support": [1], "matrix": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]}],
                "skew": [{"support": [1, 2],
                          "matrix": [[[float(x), 0.0] for x in row] for row in skew]}]},
            "output_dir": str(tmp_path / "out"),
        }, name="skew.json")
        built = []
        monkeypatch.setattr("nesslab.volume.build", lambda *a, **k: built.append(a))
        assert main([command, "--config", str(config_path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"cannot load {config_path}: ")
        assert err.count("\n") == 1 and "skew" in err and "selfadjoint" in err
        assert built == []

    @pytest.mark.parametrize("command", ["simulate", "sweep-convergence"])
    def test_observable_of_the_wrong_dimension_refused_before_any_build(
            self, chain_files, capsys, monkeypatch, command):
        # a 3 x 3 matrix on qubit site 1: the family terms' fit check, naming the observable
        _, model_path, _, tmp_path = chain_files
        identity = [[[float(i == j), 0.0] for j in range(3)] for i in range(3)]
        config_path = write_config(tmp_path, {
            "model": model_path.name, "exhaustion": [[1, 2], [0, 1, 2], [0, 1, 2, 3]],
            "horizons": [1.0], "observables": {"wide": [{"support": [1], "matrix": identity}]},
            "output_dir": str(tmp_path / "out"),
        }, name="wide.json")
        built = []
        monkeypatch.setattr("nesslab.volume.build", lambda *a, **k: built.append(a))
        assert main([command, "--config", str(config_path)]) == 2
        assert capsys.readouterr() == ("", f"cannot load {config_path}: refusing observable "
                                           "wide: term on (1,) has matrix dimension 3, not 2, "
                                           "the product of its sites' local dimensions\n")
        assert built == []

    def test_observable_columns(self, tmp_path):
        spec = make_chain(3, {0: 1, 1: 0, 2: 2}, {1: 2.0, 2: 1.0})
        model_path = write_model(tmp_path, spec)
        config_path = write_config(tmp_path, {
            "model": model_path.name,
            "exhaustion": [[0, 1, 2]],
            "horizons": [5.0],
            "observables": {
                "mid_z": [{"support": [1],
                           "matrix": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]}],
            },
            "output_dir": str(tmp_path / "out"),
        })
        main(["simulate", "--config", str(config_path)])
        lines = (tmp_path / "out" / "entropy.csv").read_text().splitlines()
        assert "avg_mid_z" in lines[0].split(",")


class TestEigensolveCount:
    """``simulate`` diagonalizes H_B once per conserved sector and takes no
    other eigensolve at a volume's dimension, apart from ||W||.

    These chains conserve the parity prod sigma_z, so H_B is solved as two
    sectors of D/2 and never at D. The initial state comes from the
    reservoir blocks, ``simulate`` reads neither log Z nor ||G||, and ||W||
    is normed once per volume on the interface terms' own support, which is
    the whole volume only when every site is in S or next to it; then ||W||
    costs an eigensolve at the volume's dimension.
    """

    @staticmethod
    def _interface_spans_volume(spec, sites):
        inside = [spec.sites_in(a) for a in spec.reservoirs]
        touched = set()
        for t in spec.terms:
            if set(t.support) <= set(sites) and not any(set(t.support) <= r for r in inside):
                touched |= set(t.support)
        return touched == set(sites)

    def _count(self, monkeypatch, config_path):
        """For each volume, the number of solves at D/2 and at D, by dimension."""
        from nesslab import volume

        current = []
        counts = {}
        real_build = volume.build

        def build(spec, sites, *args, **kwargs):
            current[:] = [tuple(sorted(sites)), spec.volume_dim(tuple(sites))]
            counts.setdefault(current[0], {})
            return real_build(spec, sites, *args, **kwargs)

        def counted(name, a):
            dim = np.shape(a)[-1]
            if current and dim in (current[1], current[1] // 2):
                counts[current[0]][dim] = counts[current[0]].get(dim, 0) + 1

        monkeypatch.setattr(volume, "build", build)
        record_solves(monkeypatch, counted)
        assert main(["simulate", "--config", str(config_path)]) == 0
        return counts

    def test_chain_files_config(self, chain_files, monkeypatch):
        spec, _, config_path, _ = chain_files
        counts = self._count(monkeypatch, config_path)
        assert len(counts) == 3
        for sites, count in counts.items():
            dim = spec.volume_dim(sites)
            expected = {dim // 2: 2, dim: int(self._interface_spans_volume(spec, sites))}
            assert count == {d: n for d, n in expected.items() if n}, sites

    def test_interface_inside_every_volume(self, tmp_path, monkeypatch):
        spec = make_chain(6, {0: 1, 1: 1, 2: 0, 3: 2, 4: 2, 5: 2}, {1: 2.0, 2: 1.0})
        model_path = write_model(tmp_path, spec)
        config_path = write_config(tmp_path, {
            "model": model_path.name,
            "exhaustion": [[0, 1, 2, 3, 4], [0, 1, 2, 3, 4, 5]],
            "horizons": [5.0, 50.0],
            "output_dir": str(tmp_path / "out"),
        })
        assert self._count(monkeypatch, config_path) == {(0, 1, 2, 3, 4): {16: 2},
                                                          (0, 1, 2, 3, 4, 5): {32: 2}}


    def test_every_solve_in_opalg(self, tmp_path, eigensolves):
        spec = make_chain(5, {0: 1, 1: 1, 2: 0, 3: 2, 4: 2}, {1: 2.0, 2: 1.0}, coup=0.6)
        model_path = write_model(tmp_path, spec)
        bond = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2))
        family = tmp_path / "family.json"
        family.write_text(json.dumps({"bound_K": 1.0, "volumes": [{
            "sites": [0, 1, 2, 3, 4],
            "terms": [{"support": [0, 1],
                       "matrix": [[[0.2 * float(z), 0.0] for z in row] for row in bond]}],
        }]}), encoding="utf-8")
        doc = {
            "model": model_path.name,
            "exhaustion": [[1, 2, 3], [0, 1, 2, 3], [0, 1, 2, 3, 4]],
            "horizons": [0.01, 0.5, 5.0],
            "observables": {"mid_x": [{"support": [2],
                                       "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}]},
            "redraw_new_s": [1, 2, 3],
            "output_dir": str(tmp_path / "out"),
        }
        unperturbed = write_config(tmp_path, doc, name="unperturbed.json")
        config_path = write_config(tmp_path, {**doc, "perturbation": family.name})
        for argv in (["simulate", "--config", str(config_path)],
                     ["sweep-convergence", "--config", str(config_path)],
                     ["redraw-check", "--config", str(unperturbed)],
                     ["klein-fuzz", "--trials", "8", "--max-dim", "4"]):
            eigensolves.clear()
            assert main(argv) == 0, argv
            assert eigensolves, argv
            callers = {Path(f).parent.name + "/" + Path(f).name for _, f, _ in eigensolves}
            assert callers == {"nesslab/opalg.py"}, argv


class TestKleinFuzzCommand:
    def test_report_contents(self):
        report = run_klein_fuzz(trials=64, max_dim=8, seed=123)
        assert report["passes"] == 64
        assert report["rng"] == "numpy PCG64"
        assert report["max_violation"] <= 1e-10
        assert report["max_row_sum_deviation"] <= 1e-10
        assert report["max_col_sum_deviation"] <= 1e-10

    def test_negative_convex_form_fails_the_trial(self, monkeypatch):
        from nesslab import thermo

        check = thermo.klein_check
        monkeypatch.setattr(thermo, "klein_check", lambda *args: dataclasses.replace(
            check(*args), footnote_value=-1.0))
        report = run_klein_fuzz(trials=4, max_dim=4, seed=0)
        assert report["passes"] == 0
        assert all(line.endswith("convex form -1.000e+00") for line in report["failures"])

    def test_scalar_dimension_gives_equality(self):
        report = run_klein_fuzz(trials=32, max_dim=1, seed=5)
        assert report["passes"] == 32
        assert report["max_violation"] <= 1e-14

    def test_seeded_reports_are_identical(self):
        a = run_klein_fuzz(trials=40, max_dim=6, seed=99)
        b = run_klein_fuzz(trials=40, max_dim=6, seed=99)
        assert a == b

    def test_failed_trial_prints_fail_and_exits_one(self, monkeypatch, capsys):
        from nesslab import thermo

        check = thermo.klein_check
        monkeypatch.setattr(thermo, "klein_check", lambda *args: dataclasses.replace(
            check(*args), footnote_value=-1.0))
        assert main(["klein-fuzz", "--trials", "2", "--max-dim", "2", "--seed", "0"]) == 1
        out, err = capsys.readouterr()
        fails = [line for line in out.splitlines() if line.startswith("FAIL ")]
        assert "passes: 0/2" in out and err == ""
        assert [line.split(" (")[0] for line in fails] == ["FAIL trial 0", "FAIL trial 1"]

    def test_cli_exit_and_json(self, tmp_path, capsys):
        out = tmp_path / "klein.json"
        code = main(["klein-fuzz", "--trials", "16", "--max-dim", "4",
                     "--seed", "3", "--out", str(out)])
        assert code == 0
        assert "passes: 16/16" in capsys.readouterr().out
        assert json.loads(out.read_text())["trials"] == 16

    @pytest.mark.parametrize("max_dim", ["4097", "1000000000000"])
    def test_max_dim_above_the_cap_refused_before_any_trial(self, capsys, monkeypatch,
                                                            max_dim):
        # a trial of dimension 10^12 once ended in numpy's "array is too big" traceback
        from nesslab import cli

        trials = []
        monkeypatch.setattr(cli, "run_klein_fuzz", lambda *args: trials.append(args))
        assert main(["klein-fuzz", "--trials", "1", "--max-dim", max_dim]) == 2
        assert capsys.readouterr() == ("", "klein-fuzz needs --max-dim of at most 4096\n")
        assert trials == []

    @pytest.mark.parametrize("out", ["missing/k.json", "."])
    def test_unwritable_out_refused_before_any_trial(self, tmp_path, capsys, monkeypatch, out):
        from nesslab import cli

        trials = []
        monkeypatch.setattr(cli, "run_klein_fuzz", lambda *args: trials.append(args))
        out = tmp_path / out
        assert main(["klein-fuzz", "--trials", "4", "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", f"cannot write {out}: not a file in an existing directory\n")
        assert trials == [] and not (tmp_path / "missing").exists()


class TestSweepConvergenceCommand:
    def test_writes_convergence_csv(self, tmp_path):
        spec = make_chain(5, {0: 1, 1: 1, 2: 0, 3: 2, 4: 2}, {1: 2.0, 2: 1.0},
                          coup=0.6)
        model_path = write_model(tmp_path, spec)
        config_path = write_config(tmp_path, {
            "model": model_path.name,
            "exhaustion": [[1, 2, 3], [0, 1, 2, 3], [0, 1, 2, 3, 4]],
            "horizons": [0.01, 0.02],
            "observables": {
                "mid_x": [{"support": [2],
                           "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}],
            },
            "output_dir": str(tmp_path / "sweep"),
        })
        assert main(["sweep-convergence", "--config", str(config_path)]) == 0
        lines = (tmp_path / "sweep" / "convergence.csv").read_text().splitlines()
        assert lines[0].split(",") == ["volume_index", "t", "discrepancy",
                                       "dyson_order", "bound", "config_hash"]
        rows = [line.split(",") for line in lines[1:]]
        # series-bound rows must dominate the observed error
        dyson_rows = [r for r in rows if r[4] != ""]
        assert dyson_rows
        for r in dyson_rows:
            assert float(r[2]) <= float(r[4])
        # pairwise evolution discrepancies nonincreasing with the volume index
        evo = {}
        for r in rows:
            if r[3] == "" and r[4] == "":
                evo.setdefault(int(r[0]), []).append(float(r[2]))
        sups = [max(v) for _, v in sorted(evo.items())]
        assert all(a >= b - 1e-14 for a, b in zip(sups, sups[1:]))

    def test_observable_outside_first_volume_refused_before_any_build(
            self, chain_files, capsys, monkeypatch):
        # the refusal and message of simulate: site 3 lies in the last volume only
        _, model_path, _, tmp_path = chain_files
        config_path = write_config(tmp_path, {
            "model": model_path.name,
            "exhaustion": [[1, 2], [0, 1, 2], [0, 1, 2, 3]],
            "horizons": [0.01],
            "observables": {"far_z": [{"support": [3],
                                       "matrix": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]}]},
            "output_dir": str(tmp_path / "out"),
        }, name="far.json")
        built = []
        monkeypatch.setattr("nesslab.volume.build", lambda *a, **k: built.append(a))
        assert main(["sweep-convergence", "--config", str(config_path)]) == 2
        assert capsys.readouterr() == ("", f"cannot load {config_path}: refusing observable "
                                           "far_z: sites [3] not inside the first volume [1, 2]\n")
        assert built == []

    def test_needs_three_volumes(self, tmp_path, capsys):
        spec = make_chain(3, {0: 1, 1: 0, 2: 2}, {1: 1.0, 2: 1.0})
        model_path = write_model(tmp_path, spec)
        config_path = write_config(tmp_path, {
            "model": model_path.name,
            "exhaustion": [[1, 2], [0, 1, 2]],
            "horizons": [0.01],
            "observables": {"x": [{"support": [1],
                                   "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}]},
            "output_dir": str(tmp_path / "s"),
        })
        assert main(["sweep-convergence", "--config", str(config_path)]) == 2
        assert capsys.readouterr() == (
            "", "sweep-convergence needs an exhaustion of at least 3 volumes\n")

    def test_needs_a_named_observable(self, chain_files, capsys, monkeypatch):
        _, _, config_path, _ = chain_files   # three volumes, no observables
        built = []
        monkeypatch.setattr("nesslab.volume.build", lambda *a, **k: built.append(a))
        assert main(["sweep-convergence", "--config", str(config_path)]) == 2
        assert capsys.readouterr() == (
            "", "sweep-convergence needs at least one named observable\n")
        assert built == []


    def test_refuses_more_than_one_observable(self, chain_files, capsys, monkeypatch):
        # only one would be swept, and the others left out without a word
        _, model_path, _, tmp_path = chain_files
        config_path = write_config(tmp_path, {
            "model": model_path.name, "exhaustion": [[1, 2], [0, 1, 2], [0, 1, 2, 3]],
            "horizons": [0.01], "output_dir": str(tmp_path / "s"),
            "observables": {"mid_z": MID_Z, "right_z": [{**MID_Z[0], "support": [2]}]},
        }, name="two_observables.json")
        built = []
        monkeypatch.setattr("nesslab.volume.build", lambda *a, **k: built.append(a))
        assert main(["sweep-convergence", "--config", str(config_path)]) == 2
        assert capsys.readouterr() == (
            "", "sweep-convergence sweeps one named observable, not 2 (mid_z, right_z)\n")
        assert built == []


class TestRedrawCheckCommand:
    def test_runs_and_reports(self, tmp_path, capsys):
        spec = make_chain(5, {0: 1, 1: 1, 2: 0, 3: 2, 4: 2}, {1: 2.0, 2: 1.0})
        model_path = write_model(tmp_path, spec)
        config_path = write_config(tmp_path, {
            "model": model_path.name,
            "exhaustion": [[0, 1, 2, 3, 4]],
            "horizons": [10.0, 20.0],
            "redraw_new_s": [1, 2, 3],
            "output_dir": str(tmp_path / "r"),
        })
        assert main(["redraw-check", "--config", str(config_path)]) == 0
        out = capsys.readouterr().out
        assert "|e-e'|" in out and "ok" in out

    def test_builds_each_decomposition_once(self, tmp_path, monkeypatch):
        # the original decomposition and the redrawn one, whose currents alone
        # are read; that only the original is solved is held by
        # test_shift_norm_on_moved_terms_support
        from nesslab import thermo, volume

        spec = make_chain(5, {0: 1, 1: 1, 2: 0, 3: 2, 4: 2}, {1: 2.0, 2: 1.0})
        model_path = write_model(tmp_path, spec)
        config_path = write_config(tmp_path, {
            "model": model_path.name,
            "exhaustion": [[0, 1, 2, 3, 4]],
            "horizons": [10.0, 20.0],
            "redraw_new_s": [1, 2, 3],
        })
        built = []
        real_build = volume.build

        def build(*args, **kwargs):
            built.append((sorted(args[0].small_system), args[1]))
            return real_build(*args, **kwargs)

        monkeypatch.setattr(volume, "build", build)
        monkeypatch.setattr(thermo, "build", build)
        assert main(["redraw-check", "--config", str(config_path)]) == 0
        assert built == [([2], (0, 1, 2, 3, 4)), ([1, 2, 3], (0, 1, 2, 3, 4))]

    def test_shift_norm_on_moved_terms_support(self, tmp_path, monkeypatch):
        # moving site 2 into S takes the field on 2 and the bond (1, 2) out
        # of reservoir 1: the bound's norm lives on sites {1, 2}, so the
        # only eigensolves at the volume's dimension D or at D/2 are those of
        # H_B, one per parity sector at D/2
        from nesslab import boundary_redraw_check, build, embed, op_norm, redraw

        spec = make_chain(7, {0: 1, 1: 1, 2: 1, 3: 0, 4: 2, 5: 2, 6: 2}, {1: 2.0, 2: 1.0})
        dim = spec.volume_dim(tuple(range(7)))
        model_path = write_model(tmp_path, spec)
        config_path = write_config(tmp_path, {
            "model": model_path.name,
            "exhaustion": [list(range(7))],
            "horizons": [10.0, 20.0],
            "redraw_new_s": [2, 3],
        })
        solves = []

        def counted(name, a):
            if np.shape(a)[-1] in (dim, dim // 2):
                solves.append((name, np.shape(a)[-1]))

        record_solves(monkeypatch, counted)
        assert main(["redraw-check", "--config", str(config_path)]) == 0
        assert solves == [("eigh", dim // 2)] * 2
        monkeypatch.undo()

        vols = build(spec, range(7))
        redrawn = build(redraw(spec, {2, 3}), range(7))
        shift = sum(vols.betas[a] * (embed(vols.H_a[a], vols.sites, vols.dims).matrix
                                     - embed(redrawn.H_a[a], vols.sites, vols.dims).matrix)
                    for a in vols.reservoirs)
        full = op_norm(shift)
        assert full > 0.0
        for report in boundary_redraw_check(spec, {2, 3}, range(7), (10.0, 20.0)):
            assert abs(report.bound - (2.0 * full / report.horizon + 1e-9)) <= 1e-12

    def test_perturbation_refused_before_any_build(self, tmp_path, capsys, monkeypatch):
        # the redraw bound covers the unperturbed model: a configured family
        # must not be dropped silently
        spec = make_chain(5, {0: 1, 1: 1, 2: 0, 3: 2, 4: 2}, {1: 2.0, 2: 1.0})
        model_path = write_model(tmp_path, spec)
        family = tmp_path / "family.json"
        family.write_text(json.dumps({"bound_K": 1.0, "volumes": [{
            "sites": [0, 1, 2, 3, 4],
            "terms": [{"support": [0], "matrix": [[[0.3, 0], [0, 0]], [[0, 0], [-0.3, 0]]]}],
        }]}), encoding="utf-8")
        config_path = write_config(tmp_path, {
            "model": model_path.name,
            "exhaustion": [[0, 1, 2, 3, 4]],
            "horizons": [10.0],
            "redraw_new_s": [1, 2, 3],
            "perturbation": family.name,
        })
        built = []
        monkeypatch.setattr("nesslab.volume.build", lambda *a, **k: built.append(a))
        monkeypatch.setattr("nesslab.thermo.build", lambda *a, **k: built.append(a))
        assert main(["redraw-check", "--config", str(config_path)]) == 2
        assert capsys.readouterr() == ("", "redraw-check refuses a config with a 'perturbation'\n")
        assert built == []

    @pytest.mark.parametrize("new_s,reason", [
        ([3], "new small system must contain the current one"),   # leaves out {1, 2}
        ([0, 1, 2, 3], "redraw produces an invalid model: [no-reservoir] no reservoir "
                       "region declared"),
    ], ids=["leaves-out-the-small-system", "leaves-no-reservoir"])
    def test_refused_redraw_exits_two_on_one_line_before_any_build(
            self, chain_files, capsys, monkeypatch, new_s, reason):
        _, model_path, _, tmp_path = chain_files
        config_path = write_config(tmp_path, {
            "model": model_path.name, "exhaustion": [[0, 1, 2, 3]], "horizons": [10.0],
            "redraw_new_s": new_s,
        }, name="redraw.json")
        built = []
        monkeypatch.setattr("nesslab.volume.build", lambda *a, **k: built.append(a))
        monkeypatch.setattr("nesslab.thermo.build", lambda *a, **k: built.append(a))
        assert main(["redraw-check", "--config", str(config_path)]) == 2
        assert capsys.readouterr() == ("", f"cannot load {config_path}: {reason}\n")
        assert built == []

    def test_redraw_outside_the_largest_volume_refused_before_any_build(
            self, chain_files, capsys, monkeypatch):
        _, model_path, _, tmp_path = chain_files
        config_path = write_config(tmp_path, {
            "model": model_path.name, "exhaustion": [[1, 2], [0, 1, 2]], "horizons": [10.0],
            "redraw_new_s": [1, 2, 3],
        }, name="redraw.json")
        built = []
        monkeypatch.setattr("nesslab.volume.build", lambda *a, **k: built.append(a))
        monkeypatch.setattr("nesslab.thermo.build", lambda *a, **k: built.append(a))
        assert main(["redraw-check", "--config", str(config_path)]) == 2
        assert capsys.readouterr() == ("", "redraw_new_s [1, 2, 3] is not inside the largest "
                                           "volume [0, 1, 2]\n")
        assert built == []

    def test_library_refuses_the_redraw_before_any_build(self, chain_files, monkeypatch):
        built = []
        monkeypatch.setattr("nesslab.thermo.build", lambda *a, **k: built.append(a))
        with pytest.raises(ValueError, match="must contain the current one"):
            boundary_redraw_check(chain_files[0], {3}, range(4), (10.0,))
        assert built == []

    def test_requires_redraw_sites(self, chain_files, capsys):
        _, _, config_path, _ = chain_files
        assert main(["redraw-check", "--config", str(config_path)]) == 2
        assert capsys.readouterr() == (
            "", "config needs a 'redraw_new_s' site list for redraw-check\n")


class TestConfigValidation:
    def test_non_nested_exhaustion_rejected(self, tmp_path):
        spec = make_chain(3, {0: 1, 1: 0, 2: 2}, {1: 1.0, 2: 1.0})
        model_path = write_model(tmp_path, spec)
        config_path = write_config(tmp_path, {
            "model": model_path.name,
            "exhaustion": [[0, 1], [1, 2]],
            "horizons": [1.0],
        })
        with pytest.raises(ValueError):
            load_config(config_path)
        assert main(["simulate", "--config", str(config_path)]) == 2

    def test_descending_horizons_rejected(self, tmp_path):
        spec = make_chain(3, {0: 1, 1: 0, 2: 2}, {1: 1.0, 2: 1.0})
        model_path = write_model(tmp_path, spec)
        config_path = write_config(tmp_path, {
            "model": model_path.name,
            "exhaustion": [[0, 1, 2]],
            "horizons": [5.0, 1.0],
        })
        with pytest.raises(ValueError):
            load_config(config_path)
        assert main(["simulate", "--config", str(config_path)]) == 2
