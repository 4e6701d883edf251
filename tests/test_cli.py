import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import onofri
from onofri import HarmonicField, dilation, field_to_json, psi_field, build_extremal, build_grid
from onofri import checks
from onofri.cli import main
from onofri.sampling import random_field


_NO_SCIPY = """
import sys
from importlib.abc import MetaPathFinder

class Refuse(MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"refused: {name}")

sys.meta_path.insert(0, Refuse())
sys.path.insert(0, SRC)
import numpy as np
import onofri, onofri.cli
from onofri import build_extremal, build_grid, dilation, distance_to_manifold, psi_field, rotation, stability_check
from onofri.sampling import random_field

rng = np.random.default_rng(3)
stability_check(random_field(rng, 6, 0.4))
tau = rotation(np.array([1.0, 2.0, 2.0]), 0.7).compose(dilation(3.0))
distance_to_manifold(psi_field(build_extremal(tau), 32, build_grid(72)).field, 32, build_grid(72))
psi_field(build_extremal(tau), 64, tail_threshold=None)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_run_time_loads_no_scipy():
    # a CLI run is a fresh process: in one whose every scipy import fails,
    # the library and its CLI import, and the distance at bands 6 and 32
    # and a band-64 psi_field run, without any scipy module
    src = str(Path(onofri.__file__).resolve().parents[1])
    code = _NO_SCIPY.replace("SRC", repr(src))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.fixture
def zero_field_file(tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(field_to_json(HarmonicField.zero(2)))
    return str(path)


@pytest.fixture
def random_field_file(tmp_path):
    path = tmp_path / "u.json"
    path.write_text(field_to_json(random_field(np.random.default_rng(9), 6, 0.3)))
    return str(path)


@pytest.fixture
def extremal_field_file(tmp_path):
    grid = build_grid(72)
    proj = psi_field(build_extremal(dilation(2.0)), 32, grid)
    path = tmp_path / "psi.json"
    path.write_text(field_to_json(proj.field))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_geometry_exit_zero(capsys):
    code, out = run(capsys, "verify", "geometry")
    assert code == 0
    assert "round trip" in out and "pass" in out and "PASS" in out


def test_verify_mass_com_table(capsys):
    code, out = run(capsys, "verify", "mass_com")
    assert code == 0
    assert "1.25" in out  # the dilation(2) closed-form row


def test_verify_usage_error(capsys):
    assert main(["verify", "nonsense"]) == 2


@pytest.mark.parametrize("suite", ["mass_com", "lorentz"])
def test_verify_prints_registry_rows(capsys, tmp_path, suite):
    target = tmp_path / "verify.json"
    code, out = run(capsys, "--out", str(target), "verify", suite)
    rows = [row for check in checks.CHECKS if check.suite == suite for row in check.rows()]
    assert code == 0
    assert json.loads(target.read_text())["suites"][suite] == [row.to_dict() for row in rows]
    lines = out.splitlines()
    assert len(lines) == len(rows) + 2
    assert lines[0] == f"[{suite}]" and lines[-1] == "PASS"
    assert all(line.startswith(f"  {row.name} ") for row, line in zip(rows, lines[1:-1]))


def test_violated_flag_fails_at_any_tol_scale(monkeypatch, capsys):
    # a time-reversed lift violates the 0/1 future-cone flag, which no
    # tolerance scale may forgive
    lift = checks.lorentz_lift
    monkeypatch.setattr(checks, "lorentz_lift", lambda m: -lift(m))
    monkeypatch.setenv("ONOFRI_TOL_SCALE", "1e6")
    code, out = run(capsys, "verify", "lorentz")
    assert code == 1
    flag = next(line for line in out.splitlines() if "future cone preserved" in line)
    assert flag.endswith("FAIL")


def test_verify_out_report(capsys, tmp_path):
    target = tmp_path / "verify.json"
    code, _ = run(capsys, "--out", str(target), "verify", "lorentz")
    assert code == 0
    payload = json.loads(target.read_text())
    rows = payload["suites"]["lorentz"]
    assert all(row["pass"] for row in rows)
    assert {"check", "residual", "tolerance", "pass"} == set(rows[0])


def test_eval_zero_field(capsys, zero_field_file):
    code, out = run(capsys, "eval", zero_field_file, "--alpha", "0.6666666666666666")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["report"]["value"]) < 1e-12
    assert payload["config"]["seed"] == 0


def test_eval_extremal_field(capsys, extremal_field_file):
    code, out = run(capsys, "eval", extremal_field_file)
    assert code == 0
    assert abs(json.loads(out)["report"]["value"]) < 1e-8


def test_eval_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["eval", str(bad)]) == 2
    assert main(["eval", str(tmp_path / "missing.json")]) == 2


def test_eval_cg_bound(capsys, random_field_file):
    code, out = run(capsys, "eval", random_field_file, "--alpha", "1.0")
    rep = json.loads(out)["report"]
    assert rep["value"] >= (1.0 - 2.0 / 3.0) * rep["energy"] - 1e-8


def test_normalize_zero_field(capsys, zero_field_file, tmp_path):
    code, out = run(capsys, "normalize", zero_field_file)
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["result"]["lambda0"] - 1.0) < 1e-10
    assert payload["result"]["residual_com_norm"] < 1e-10


def test_normalize_writes_field(capsys, random_field_file):
    code, out = run(capsys, "normalize", random_field_file)
    assert code == 0
    payload = json.loads(out)
    emitted = payload["transformed_field"]
    from onofri import exp_moments, field_from_json
    from pathlib import Path

    moved = field_from_json(Path(emitted).read_text())
    assert moved.l_max == 32
    mom = exp_moments(moved)
    assert np.linalg.norm(mom.moment / mom.mass) < 1e-4  # band-limited projection only


def test_normalize_refuses_a_band_that_keeps_no_energy(tmp_path, capsys):
    # a band-0 projection keeps none of the transported field's energy, so its tail is 1
    path = tmp_path / "u.json"
    path.write_text(field_to_json(random_field(np.random.default_rng(1), 8, 0.5)))
    assert main(["--lmax", "0", "normalize", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: transform tail energy fraction 1.000e+00 exceeds threshold\n"


def test_normalize_method_flag_is_rejected(capsys, random_field_file):
    # normalize has one path, the closed form; the old switch is a usage error
    assert main(["normalize", random_field_file, "--method", "hybrid"]) == 2
    assert "--method" in capsys.readouterr().err
    code, out = run(capsys, "normalize", random_field_file)
    assert code == 0
    assert set(json.loads(out)["result"]) == {"x0", "lambda0", "tau", "residual_com_norm", "com_error_estimate"}


def test_normalize_extremal_near_constant(capsys, extremal_field_file):
    code, out = run(capsys, "normalize", extremal_field_file)
    assert code == 0
    payload = json.loads(out)
    from onofri import field_from_json
    from pathlib import Path

    moved = field_from_json(Path(payload["transformed_field"]).read_text())
    c = moved.coeffs.copy()
    c[0] = 0.0
    l = moved.degrees()
    assert float(np.sum(l * (l + 1) * c * c)) < 1e-7


def test_stability_zero_row(capsys, zero_field_file, tmp_path):
    csv_path = tmp_path / "out.csv"
    code, out = run(capsys, "stability", zero_field_file, "--csv", str(csv_path))
    assert code == 0
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "seed,deficit,distance,slack,log_lambda,beta1,beta2"
    values = rows[1].split(",")
    assert abs(float(values[1])) < 1e-10
    assert abs(float(values[2])) < 1e-10


def test_stability_random_sweep(capsys, tmp_path):
    csv_path = tmp_path / "sweep.csv"
    code, out = run(capsys, "--seed", "42", "stability", "--random", "2", "--csv", str(csv_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["min_slack"] >= -1e-8
    assert all(0 <= rep["trace"]["distance"]["scanned"] <= 60 for rep in payload["reports"])
    assert all(rep["trace"]["distance"]["start"] in {"degree-1", "scan", "origin"} for rep in payload["reports"])
    assert len(csv_path.read_text().strip().splitlines()) == 3


def test_stability_random_rows_rerun_alone(capsys, tmp_path):
    # the row labelled 43 of a sweep from seed 42 is the sweep of one from seed 43
    pair, single = tmp_path / "pair.csv", tmp_path / "single.csv"
    assert main(["--seed", "42", "stability", "--random", "2", "--csv", str(pair)]) == 0
    assert main(["--seed", "43", "stability", "--random", "1", "--csv", str(single)]) == 0
    capsys.readouterr()
    rows = pair.read_text().splitlines()
    assert rows[2].startswith("43,")
    assert rows[2] == single.read_text().splitlines()[1]


def test_stability_usage(capsys):
    assert main(["stability"]) == 2
    assert main(["stability", "--random", "0"]) == 2
    assert main(["stability", "--random", "-3"]) == 2


def test_stability_takes_a_field_or_random_not_both(capsys, zero_field_file):
    # the field used to be ignored, and the random rows written beside it
    assert main(["stability", zero_field_file, "--random", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "field file" in err and "--random" in err
    assert not Path(zero_field_file).with_suffix(".stability.csv").exists()


def test_lift_identity(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"a": [1, 0], "b": [0, 0], "c": [0, 0], "d": [1, 0]}))
    code, out = run(capsys, "lift", str(path))
    assert code == 0
    payload = json.loads(out)
    assert np.allclose(np.array(payload["matrix"]).reshape(4, 4), np.eye(4))


def test_lift_boost(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(
        json.dumps({"a": [math.sqrt(2), 0], "b": [0, 0], "c": [0, 0], "d": [1 / math.sqrt(2), 0]})
    )
    code, out = run(capsys, "lift", str(path))
    assert code == 0
    m = np.array(json.loads(out)["matrix"]).reshape(4, 4)
    assert abs(m[0, 0] - 1.25) < 1e-12 and abs(m[0, 3] - 0.75) < 1e-12


def test_lift_minus_identity(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"a": [-1, 0], "b": [0, 0], "c": [0, 0], "d": [-1, 0]}))
    code, out = run(capsys, "lift", str(path))
    assert code == 0
    assert np.allclose(np.array(json.loads(out)["matrix"]).reshape(4, 4), np.eye(4))


def test_lift_renormalizes_with_warning(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"a": [2, 0], "b": [0, 0], "c": [0, 0], "d": [2, 0]}))
    code = main(["lift", str(path)])
    captured = capsys.readouterr()
    assert code == 0
    assert "renormalized" in captured.err


def test_lift_rejects_reflect(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(
        json.dumps({"a": [0, 0], "b": [0, 1], "c": [0, 1], "d": [0, 0], "reflect": True})
    )
    assert main(["lift", str(path)]) == 2


@pytest.mark.parametrize("flag", ["false", 0, 1, None], ids=["a string", "zero", "one", "null"])
def test_lift_refuses_a_reflect_that_is_not_a_boolean(tmp_path, capsys, flag):
    # "false" used to read as reflected, and 0 or null as not
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"a": [1, 0], "b": [0, 0], "c": [0, 0], "d": [1, 0], "reflect": flag}))
    assert main(["lift", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: cannot read Mobius file") and "reflect" in err


@pytest.mark.parametrize("flag, code", [({}, 0), ({"reflect": False}, 0), ({"reflect": True}, 2)])
def test_lift_reads_a_boolean_reflect(tmp_path, capsys, flag, code):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"a": [1, 0], "b": [0, 0], "c": [0, 0], "d": [1, 0], **flag}))
    assert main(["lift", str(path)]) == code
    err = capsys.readouterr().err
    assert ("orientation-preserving" in err) == (code == 2)


def test_lift_singular_matrix_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"a": [1, 0], "b": [2, 0], "c": [1, 0], "d": [2, 0]}))
    assert main(["lift", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "singular" in err and "renormalized" not in err


def test_lift_nonfinite_matrix_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"a": [float("nan"), 0], "b": [0, 0], "c": [0, 0], "d": [1, 0]}))
    assert main(["lift", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "finite" in err


@pytest.mark.parametrize("entry", [[2], ["1+2j"]], ids=["one number", "a complex string"])
def test_lift_reads_the_map_json_format_only(tmp_path, capsys, entry):
    # each entry is one [re, im] pair, as ConformalMap.to_dict writes it; the
    # reader used to take complex(*entry) and accept both of these
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"a": entry, "b": [0, 0], "c": [0, 0], "d": [1, 0]}))
    assert main(["lift", str(path)]) == 2
    assert capsys.readouterr().err.startswith("usage error: cannot read Mobius file")


def test_tol_scale_env(monkeypatch, tmp_path, capsys):
    # a microscopic tolerance scale makes even machine-precision lifts fail
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"a": [math.sqrt(2), 0], "b": [0, 0], "c": [0, 0], "d": [1 / math.sqrt(2), 0]}))
    monkeypatch.setenv("ONOFRI_TOL_SCALE", "1e-20")
    code = main(["lift", str(path)])
    capsys.readouterr()
    assert code == 1
    monkeypatch.setenv("ONOFRI_TOL_SCALE", "1.0")
    assert main(["lift", str(path)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("raw", ["nan", "inf", "abc", "-1"])
def test_bad_tol_scale_is_a_usage_error(monkeypatch, capsys, raw):
    # a NaN scale would fail every row and an infinite one pass every row
    monkeypatch.setenv("ONOFRI_TOL_SCALE", raw)
    code = main(["verify", "geometry"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("usage error: ") and "ONOFRI_TOL_SCALE" in err and repr(raw) in err


def test_deterministic_output(capsys, random_field_file, tmp_path):
    code1, out1 = run(capsys, "--seed", "7", "eval", random_field_file)
    code2, out2 = run(capsys, "--seed", "7", "eval", random_field_file)
    assert code1 == code2 == 0
    assert out1 == out2

    csv1 = tmp_path / "a.csv"
    csv2 = tmp_path / "b.csv"
    _, sweep1 = run(capsys, "--seed", "5", "stability", "--random", "2", "--csv", str(csv1))
    _, sweep2 = run(capsys, "--seed", "5", "stability", "--random", "2", "--csv", str(csv2))
    assert sweep1 == sweep2
    assert csv1.read_bytes() == csv2.read_bytes()

    json1 = tmp_path / "a.json"
    json2 = tmp_path / "b.json"
    run(capsys, "--seed", "5", "--out", str(json1), "verify", "lorentz")
    run(capsys, "--seed", "5", "--out", str(json2), "verify", "lorentz")
    assert json1.read_bytes() == json2.read_bytes()


def test_config_embedded_and_seed_recorded(capsys, zero_field_file):
    _, out = run(capsys, "--seed", "123", "eval", zero_field_file)
    payload = json.loads(out)
    assert payload["config"]["seed"] == 123
    assert payload["config"]["tol_scale"] == 1.0


def test_out_flag_writes_file(tmp_path, capsys, zero_field_file):
    target = tmp_path / "report.json"
    code, out = run(capsys, "--out", str(target), "eval", zero_field_file)
    assert code == 0
    assert out == ""
    report = json.loads(target.read_text())["report"]
    assert set(report) == {"alpha", "energy", "mean", "log_mass", "lorentzian", "value", "grid"}
    assert report["value"] == 0.0


def test_jobs_flag_is_rejected(capsys):
    # the distance search is a closed form with no worker pool to size
    assert main(["--jobs", "2", "verify", "geometry"]) == 2
    capsys.readouterr()
    # an unknown option with a value is named, not its value as a subcommand
    assert main(["--grid-band", "48", "verify", "geometry"]) == 2
    assert "--grid-band" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "normalize", "stability"])
@pytest.mark.parametrize(
    "document",
    [
        pytest.param({"l_max": 1, "coeffs": [0.0, float("nan"), 0.0, 0.0]}, id="nan"),
        pytest.param({"l_max": 1, "coeffs": [0.0, float("inf"), 0.0, 0.0]}, id="inf"),
        pytest.param([1, 2], id="not-an-object"),
        pytest.param({"l_max": -1, "coeffs": []}, id="negative-lmax"),
        pytest.param({"l_max": 1.7, "coeffs": [0, 0, 0, 0]}, id="float-lmax"),
        pytest.param({"l_max": True, "coeffs": [0, 0, 0, 0]}, id="bool-lmax"),
        pytest.param({"l_max": 1, "coeffs": {}}, id="object-coeffs"),
    ],
)
def test_nonfinite_field_is_a_usage_error(capsys, tmp_path, command, document):
    # not a quadrature that fails to converge, nor a traceback or a band read
    # off a truncated float: the file itself is invalid
    path = tmp_path / "u.json"
    path.write_text(json.dumps(document))
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err.startswith("usage error: ")


@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
def test_nonfinite_alpha_is_a_usage_error(capsys, zero_field_file, alpha):
    # the report would print NaN or Infinity, which strict JSON parsers reject
    assert main(["eval", zero_field_file, f"--alpha={alpha}"]) == 2
    assert capsys.readouterr().err.startswith("usage error: ")


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_theta_cap_below_one_is_a_usage_error(capsys, zero_field_file, cap):
    for argv in (["eval", zero_field_file], ["verify", "geometry"]):
        assert main(["--theta-cap", cap, *argv]) == 2
        assert capsys.readouterr().err.startswith("usage error: ")


def test_eval_nonconvergence_exit_one(capsys, random_field_file, tmp_path):
    # a starved refinement cap cannot certify the exponential integrals
    code = main(["--theta-cap", "16", "eval", random_field_file])
    capsys.readouterr()
    assert code == 1
    # nor can any grid hold e^{2u} of a field this large: a refusal too
    huge = tmp_path / "huge.json"
    huge.write_text(field_to_json(random_field(np.random.default_rng(0), 8, 400.0)))
    code = main(["eval", str(huge)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "overflow" in err


@pytest.mark.parametrize("mean, words", [(400.0, "e^(2u) overflows"), (200.0, "Lorentzian quantity overflows")])
def test_eval_of_a_large_mean_exits_one(capsys, tmp_path, mean, words):
    # e^(2 mean) is not a float at 400, and the squared mass is not at 200
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"l_max": 0, "coeffs": [mean]}))
    code = main(["eval", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and words in err


def test_verify_nonconvergence_exit_one(capsys):
    # a starved cap stops the conformal-map moments short of convergence
    code = main(["--theta-cap", "10", "verify", "mass_com"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "grid cap" in err
