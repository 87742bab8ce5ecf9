import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nesslab.cli import config_hash, load_config, main, run_klein_fuzz

from conftest import make_chain, model_to_dict


def write_model(tmp_path, spec, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(model_to_dict(spec)), encoding="utf-8")
    return path


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


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
        out = capsys.readouterr().out
        assert "line" in out and "column" in out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", "--model", str(tmp_path / "nope.json")]) == 2


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
        _, _, config_path, _ = chain_files
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--config", str(config_path), "--dim-cap", "4"])
        assert "exceeds cap" in str(err.value)

    def test_dim_cap_refuses_before_any_build(self, chain_files, monkeypatch):
        # volumes have D = 4, 8, 16: only the last exceeds the cap
        _, _, config_path, _ = chain_files
        built = []
        monkeypatch.setattr("nesslab.volume.build", lambda *a, **k: built.append(a))
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--config", str(config_path), "--dim-cap", "8"])
        assert "exceeds cap" in str(err.value)
        assert built == []

    def test_observable_outside_first_volume_refused_before_any_build(
            self, chain_files, monkeypatch):
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
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--config", str(config_path)])
        assert "far_z" in str(err.value)
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
        out = capsys.readouterr().out
        assert out.startswith(f"cannot load {tmp_path / 'missing.json'}: ")

    @pytest.mark.parametrize("command", ["simulate", "sweep-convergence"])
    @pytest.mark.parametrize("invalid", ["descending-horizons", "model-without-sites"])
    def test_invalid_content_exits_two_before_any_build(
            self, chain_files, capsys, monkeypatch, command, invalid):
        # JSON that its loader refuses is reported as a file that cannot be
        # loaded, on one line, as a missing file is; not as a traceback
        _, model_path, _, tmp_path = chain_files
        doc = {"model": model_path.name, "exhaustion": [[1, 2], [0, 1, 2], [0, 1, 2, 3]],
               "horizons": [5.0, 1.0] if invalid == "descending-horizons" else [1.0, 5.0]}
        bad_path = tmp_path / "invalid.json"
        if invalid == "model-without-sites":
            model_doc = json.loads(model_path.read_text())
            del model_doc["sites"]
            bad_path = write_config(tmp_path, model_doc, name="no_sites.json")
            doc["model"] = bad_path.name
        config_path = write_config(tmp_path, doc, name="invalid.json")
        built = []
        monkeypatch.setattr("nesslab.volume.build", lambda *a, **k: built.append(a))
        assert main([command, "--config", str(config_path)]) == 2
        out = capsys.readouterr().out
        assert out.startswith(f"cannot load {bad_path}: ") and out.count("\n") == 1
        assert built == []

    @pytest.mark.parametrize("command", ["simulate", "sweep-convergence"])
    def test_non_selfadjoint_observable_refused_before_any_build(
            self, chain_files, monkeypatch, command):
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
        with pytest.raises(SystemExit) as err:
            main([command, "--config", str(config_path)])
        assert "skew" in str(err.value) and "selfadjoint" in str(err.value)
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
    sectors of D/2 and never at D. The initial state, log Z and ||G|| come
    from the reservoir blocks and ||W|| from the interface terms on their own
    support, which is the whole volume only when every site is in S or next
    to it; then ||W|| costs an eigensolve at the volume's dimension.
    """

    @staticmethod
    def _interface_spans_volume(spec, sites):
        inside = [spec.regions.sites_in(a) for a in spec.reservoirs]
        touched = set()
        for t in spec.terms:
            if set(t.support) <= set(sites) and not any(set(t.support) <= r for r in inside):
                touched |= set(t.support)
        return touched == set(sites)

    def _count(self, monkeypatch, config_path):
        """For each volume, the number of solves at D/2 and at D, by dimension."""
        import numpy.linalg
        import scipy.linalg
        from nesslab import volume

        current = []
        counts = {}
        real_build = volume.build

        def build(spec, sites, *args, **kwargs):
            current[:] = [tuple(sorted(sites)), spec.volume_dim(tuple(sites))]
            counts.setdefault(current[0], {})
            return real_build(spec, sites, *args, **kwargs)

        def counted(fn):
            def solve(a, *args, **kwargs):
                dim = np.shape(a)[-1]
                if current and dim in (current[1], current[1] // 2):
                    counts[current[0]][dim] = counts[current[0]].get(dim, 0) + 1
                return fn(a, *args, **kwargs)
            return solve

        monkeypatch.setattr(volume, "build", build)
        for mod in (numpy.linalg, scipy.linalg):
            for name in ("eigh", "eigvalsh"):
                monkeypatch.setattr(mod, name, counted(getattr(mod, name)))
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

    def test_scalar_dimension_gives_equality(self):
        report = run_klein_fuzz(trials=32, max_dim=1, seed=5)
        assert report["passes"] == 32
        assert report["max_violation"] <= 1e-14

    def test_seeded_reports_are_identical(self):
        a = run_klein_fuzz(trials=40, max_dim=6, seed=99)
        b = run_klein_fuzz(trials=40, max_dim=6, seed=99)
        assert a == b

    def test_cli_exit_and_json(self, tmp_path, capsys):
        out = tmp_path / "klein.json"
        code = main(["klein-fuzz", "--trials", "16", "--max-dim", "4",
                     "--seed", "3", "--out", str(out)])
        assert code == 0
        assert "passes: 16/16" in capsys.readouterr().out
        assert json.loads(out.read_text())["trials"] == 16


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
            self, chain_files, monkeypatch):
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
        with pytest.raises(SystemExit) as err:
            main(["sweep-convergence", "--config", str(config_path)])
        assert str(err.value) == ("refusing observable far_z: sites [3] not inside "
                                  "the first volume [1, 2]")
        assert built == []

    def test_needs_three_volumes(self, tmp_path):
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
        with pytest.raises(SystemExit):
            main(["sweep-convergence", "--config", str(config_path)])


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
            built.append(args[1])
            return real_build(*args, **kwargs)

        monkeypatch.setattr(volume, "build", build)
        monkeypatch.setattr(thermo, "build", build)
        assert main(["redraw-check", "--config", str(config_path)]) == 0
        assert len(built) == 2

    def test_shift_norm_on_moved_terms_support(self, tmp_path, monkeypatch):
        # moving site 2 into S takes the field on 2 and the bond (1, 2) out
        # of reservoir 1: the bound's norm lives on sites {1, 2}, so the
        # only eigensolves at the volume's dimension D or at D/2 are those of
        # H_B, one per parity sector at D/2
        import numpy.linalg
        import scipy.linalg
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

        def counted(fn):
            def solve(a, *args, **kwargs):
                if np.shape(a)[-1] in (dim, dim // 2):
                    solves.append((fn.__name__, np.shape(a)[-1]))
                return fn(a, *args, **kwargs)
            return solve

        for mod in (numpy.linalg, scipy.linalg):
            for name in ("eigh", "eigvalsh"):
                monkeypatch.setattr(mod, name, counted(getattr(mod, name)))
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

    def test_perturbation_refused_before_any_build(self, tmp_path, monkeypatch):
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
        with pytest.raises(SystemExit) as err:
            main(["redraw-check", "--config", str(config_path)])
        assert "'perturbation'" in str(err.value)
        assert built == []

    def test_requires_redraw_sites(self, chain_files):
        _, _, config_path, _ = chain_files
        with pytest.raises(SystemExit):
            main(["redraw-check", "--config", str(config_path)])


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
