"""End-to-end checks of the toda-census command line."""

import json
import math
import subprocess
import warnings

import pytest

from todacensus import monodromy, solver
from todacensus.cli import main, parse_tau


def run_cli(capsys, *argv):
    """Invoke main() in-process; returns (exit_code, stdout, stderr)."""
    try:
        code = main(list(argv))
    except SystemExit as e:  # argparse usage errors
        code = e.code
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# tau parsing

def test_parse_tau_forms():
    assert parse_tau("0.2,1.3") == complex(0.2, 1.3)
    assert parse_tau("i") == 1j
    assert abs(parse_tau("rho") - complex(0.5, 3 ** 0.5 / 2)) < 1e-15
    import argparse

    for bad in ("1.0", "0.2;1.3", "0.5,-1.0", "0.5,0", "a,b",
                "nan,1", "inf,1", "0,inf", "0,nan"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_tau(bad)


def test_bad_tau_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "solve", "--n1", "0", "--n2", "1", "--tau", "nope")
    assert code == 2
    assert "usage" in err or "tau" in err


# ---------------------------------------------------------------------------
# happy paths

def test_solve_example(capsys):
    code, out, _ = run_cli(capsys, "solve", "--n1", "0", "--n2", "1",
                           "--tau", "0.2,1.3")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "toda-census/1"
    assert (doc["total"], doc["even_total"], doc["bound"]) == (1, 1, 1)
    (cl,) = doc["clusters"]
    assert abs(complex(*cl["B"])) <= 1e-8
    assert cl["is_even"] is True


def test_invariants(capsys):
    code, out, _ = run_cli(capsys, "invariants", "--tau", "i")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "toda-census/1"
    g2 = complex(*doc["g2"])
    assert abs(g2 - 189.07272012923383) <= 1e-9 * abs(g2)
    assert abs(complex(*doc["g3"])) <= 1e-9


def test_polys_text(capsys):
    code, out, _ = run_cli(capsys, "polys", "--n1", "0", "--n2", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["bound"] == 2
    assert "D0" in doc["text"]


def test_even_poly_only(capsys):
    code, out, _ = run_cli(capsys, "even", "--n1", "0", "--n2", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["Ne"] == 2
    assert "B" in doc["poly"] and "g2" in doc["poly"]


def test_even_with_tau_solves(capsys):
    code, out, _ = run_cli(capsys, "even", "--n1", "0", "--n2", "2",
                           "--tau", "0.2,1.3")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["roots"]) == 2
    assert all(r["residual"] <= 1e-8 for r in doc["roots"])


def _punctures_file(tmp_path, punctures):
    path = tmp_path / "punctures.json"
    path.write_text(json.dumps({"punctures": [{"p": [p.real, p.imag], "n1": n1, "n2": n2}
                                              for p, n1, n2 in punctures]}))
    return str(path)


def test_even_reads_a_punctures_file(tmp_path, capsys):
    path = _punctures_file(tmp_path, [(0j, 0, 2)])
    want = run_cli(capsys, "even", "--n1", "0", "--n2", "2", "--tau", "0.2,1.3")
    got = run_cli(capsys, "even", "--tau", "0.2,1.3", "--punctures", path)
    assert got == want and want[0] == 0


def test_even_refuses_two_punctures_as_solve_does(tmp_path, capsys):
    path = _punctures_file(tmp_path, [(0j, 0, 1), (0.5 + 0j, 0, 1)])
    code, out, err = run_cli(capsys, "even", "--tau", "0.2,1.3", "--punctures", path)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == "toda-census: error: this census handles a single puncture"
    assert run_cli(capsys, "solve", "--tau", "0.2,1.3", "--punctures", path) == (code, out, err)


def test_even_odd_odd_file_is_exit_3_before_critical(tmp_path, capsys):
    # (1,7) is odd/odd and critical: the empty sector is the answer, from a
    # file as from --n1/--n2
    path = _punctures_file(tmp_path, [(0j, 1, 7)])
    want = run_cli(capsys, "even", "--n1", "1", "--n2", "7", "--tau", "0.2,1.3")
    assert want[0] == 3 and "even sector" in want[2]
    assert run_cli(capsys, "even", "--tau", "0.2,1.3", "--punctures", path) == want


def test_probe_degenerate_example(capsys):
    code, out, _ = run_cli(capsys, "probe-degenerate", "--n1", "0", "--n2", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["tau"] is None
    assert doc["total"] == 1
    (cl,) = doc["clusters"]
    assert abs(complex(*cl["B"])) + abs(complex(*cl["D0"])) + abs(complex(*cl["D"])) <= 1e-8
    assert cl["degenerate"] is True


def test_monodromy_command(capsys):
    code, out, _ = run_cli(capsys, "monodromy", "--n1", "0", "--n2", "1",
                           "--tau", "0.2,1.3")
    assert code == 0
    doc = json.loads(out)
    assert doc["census"]["total"] == 1
    (root,) = doc["roots"]
    assert root["unitarizable"] is True
    assert root["eps_residual"] <= 1e-6
    assert root["pde_residual"] <= 1e-4


def test_solve_tol_is_the_acceptance_tolerance(capsys):
    code, out, _ = run_cli(capsys, "solve", "--n1", "0", "--n2", "2",
                           "--tau", "0.2,1.1", "--tol", "1e-9")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["accept_tol"] == 1e-9
    assert doc["total"] == doc["bound"] == 2
    assert all(cl["residual"] <= 1e-9 for cl in doc["clusters"])


def test_monodromy_tol_is_transport_rtol_only(capsys):
    # --tol is the transport rtol of monodromy; the census keeps its default
    code, out, _ = run_cli(capsys, "monodromy", "--n1", "0", "--n2", "1",
                           "--tau", "0.2,1.3", "--tol", "1e-9")
    assert code == 0
    doc = json.loads(out)
    assert doc["census"]["config"]["accept_tol"] == 1e-10
    assert doc["roots"][0]["rtol"] == 1e-9


# ---------------------------------------------------------------------------
# refusal exit codes

def test_even_odd_odd_is_exit_3(capsys):
    code, _, err = run_cli(capsys, "even", "--n1", "1", "--n2", "1")
    assert code == 3
    assert "even sector" in err and "odd" in err


def test_solve_critical_is_exit_2(capsys):
    code, _, err = run_cli(capsys, "solve", "--n1", "0", "--n2", "3",
                           "--tau", "0.2,1.3")
    assert code == 2
    assert "critical" in err
    assert "(mod 3)" in err


GRID = ("--re0", "0", "--re1", "0.1", "--nre", "2", "--im0", "1", "--im1", "1.1", "--nim", "2")


@pytest.mark.parametrize("argv,problem", [
    (("polys", "--n1", "0"), "--n1 and --n2 are required"),
    (("even", "--n1", "0"), "--n1 and --n2 are required"),
    (("scan", "--n1", "0", *GRID), "--n1 and --n2 are required"),
    (("probe-degenerate", "--n1", "0"), "--n1 and --n2 are required"),
    (("solve", "--n1", "0", "--tau", "0.2,1.3"), "either --punctures or --n1/--n2 is required"),
    (("scan", "--n1", "0", "--n2", "2", *GRID[:5], "0", *GRID[6:]),
     "grid sizes must be positive"),
    (("invariants",), "--tau is required for this command"),
    (("solve", "--n1", "0", "--n2", "1"), "--tau is required for this command"),
], ids=["polys", "even", "scan", "probe-degenerate", "solve", "scan-nre-0", "invariants-no-tau",
        "solve-no-tau"])
def test_incomplete_input_is_usage_error(capsys, argv, problem):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == "toda-census: error: " + problem


@pytest.mark.parametrize("command", ["invariants", "solve"])
def test_numerical_give_up_is_exit_4(capsys, command):
    # Eisenstein series at Im tau = 5e-4 need far more terms than allowed
    code, out, err = run_cli(capsys, command, "--n1", "0", "--n2", "1",
                             "--tau", "0.1,0.0005")
    assert code == 4
    assert err == "inconclusive: tau too close to the real axis\n"
    assert out == ""


@pytest.mark.parametrize("content,problem", [
    (None, "No such file or directory"),
    ("{not json", "not valid JSON"),
    ('{"punctures": [{"p": [0.0, 0.0], "n1": 0}]}', "missing key 'n2'"),
    ('{"punctures": [{"p": [0.0, 0.0], "n1": 0, "n2": 2}],'
     ' "params": {"A": [[0.0, 0.0]], "B": [1.0, 0.5], "Dk": [[0.3, 0.1]], "D": [0.2, 0.0]}}',
     "missing key 'Bk'"),
    ('{"punctures": [{"p": [0.0, 0.0], "n1": -1, "n2": 2}]}',
     "multiplicities must be non-negative integers"),
    ('{"punctures": [{"p": 3, "n1": 0, "n2": 2}]}', "malformed entry"),
], ids=["missing", "not-json", "no-n2", "no-Bk", "negative-n1", "scalar-p"])
def test_bad_punctures_file_is_usage_error(tmp_path, capsys, content, problem):
    path = tmp_path / "punctures.json"
    if content is not None:
        path.write_text(content)
    code, out, err = run_cli(capsys, "monodromy", "--tau", "0.2,1.3", "--punctures", str(path))
    assert code == 2 and out == ""
    assert err.splitlines()[-1].startswith("toda-census: error: --punctures %s: %s" % (path, problem))


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
@pytest.mark.parametrize("command", ["solve", "even", "monodromy", "scan"])
def test_bad_tol_is_usage_error(capsys, command, tol):
    # a tolerance that is not positive and finite is refused before any
    # work, not spent on a search that cannot accept a point
    args = {"scan": SCAN_ARGS[1:]}.get(command, ("--n1", "0", "--n2", "2", "--tau", "0.2,1.3"))
    code, out, err = run_cli(capsys, command, *args, "--tol", tol)
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == (
        "toda-census: error: argument --tol: tolerance must be positive and finite")


def test_non_numeric_tol_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "solve", "--n1", "0", "--n2", "2", "--tau", "0.2,1.3",
                             "--tol", "abc")
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == "toda-census: error: argument --tol: tolerance must be a number"


def test_unwritable_out_is_usage_error(tmp_path, capsys):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "solve", "--n1", "0", "--n2", "1",
                             "--tau", "0.2,1.3", "--out", str(path))
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == (
        "toda-census: error: --out %s: No such file or directory" % path)
    assert not path.parent.exists()


def test_csv_refused_outside_scan(capsys):
    code, _, err = run_cli(capsys, "solve", "--n1", "0", "--n2", "1",
                           "--tau", "0.2,1.3", "--format", "csv")
    assert code == 2
    assert "csv" in err


def test_scan_missing_grid_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "scan", "--n1", "0", "--n2", "1",
                           "--re0", "0.0", "--re1", "0.1", "--nre", "2")
    assert code == 2
    assert "--im0" in err


@pytest.mark.parametrize("key,value", [("--re0", "nan"), ("--im1", "inf"), ("--re1", "-inf"),
                                       ("--im0", "x")])
def test_non_finite_scan_bound_is_usage_error(capsys, key, value):
    # as a non-finite --tau is: refused before any lattice is built
    args = list(GRID)
    i = args.index(key)
    args[i:i + 2] = ["%s=%s" % (key, value)]  # '=': "-inf" does not read as an option
    code, out, err = run_cli(capsys, "scan", "--n1", "0", "--n2", "2", *args)
    assert code == 2 and out == ""
    problem = "numbers" if value == "x" else "finite"
    assert err.splitlines()[-1] == (
        "toda-census: error: argument %s: scan grid bounds must be %s" % (key, problem))


@pytest.mark.parametrize("command", ["solve", "monodromy", "even"])
@pytest.mark.parametrize("p", [complex(math.nan, 0.0), complex(0.0, math.inf)], ids=str)
def test_non_finite_puncture_position_is_usage_error(tmp_path, capsys, command, p):
    path = _punctures_file(tmp_path, [(0j, 0, 1), (p, 0, 1)])
    code, out, err = run_cli(capsys, command, "--tau", "0.2,1.3", "--punctures", path)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == (
        "toda-census: error: --punctures %s: puncture 1 has a non-finite position" % path)


def test_non_finite_parameter_is_usage_error(tmp_path, capsys):
    # refused where the parameter vector is read, not transported until
    # the step size underflows, and named by its file as a bad position is
    path = tmp_path / "punctures.json"
    path.write_text('{"punctures": [{"p": [0, 0], "n1": 0, "n2": 4}], "params": {"A": [[0, 0]],'
                    ' "Bk": [[0, 0]], "B": [NaN, 0], "Dk": [[0.5, 0]], "D": [0.7, 0.2]}}')
    code, out, err = run_cli(capsys, "monodromy", "--tau", "0.2,1.3", "--punctures", str(path))
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == (
        "toda-census: error: --punctures %s: parameters must be finite" % path)


def test_parameter_arity_is_usage_error(tmp_path, capsys):
    # one A_k, B_k and D_k per puncture: a vector for one puncture on a
    # two-puncture file is refused with the file's name
    path = tmp_path / "punctures.json"
    path.write_text('{"punctures": [{"p": [0, 0], "n1": 0, "n2": 1}, {"p": [0.3, 0.2], "n1": 0,'
                    ' "n2": 1}], "params": {"A": [[0, 0]], "Bk": [[0, 0]], "B": [1.1, 0],'
                    ' "Dk": [[0.5, 0]], "D": [0.7, 0.2]}}')
    code, out, err = run_cli(capsys, "monodromy", "--tau", "0.2,1.3", "--punctures", str(path))
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == (
        "toda-census: error: --punctures %s: parameter arity does not match puncture count"
        % path)


def test_scan_grid_below_the_real_axis_is_usage_error(capsys):
    # as --tau with Im <= 0 is; a grid clipped to no row is no scan
    code, out, err = run_cli(capsys, "scan", "--n1", "0", "--n2", "2",
                             "--re0", "0", "--re1", "0.1", "--nre", "2",
                             "--im0", "-1", "--im1", "-0.5", "--nim", "2")
    assert code == 2
    assert out == ""
    assert "Im tau > 0" in err


def test_overflowing_frame_gives_up_at_once(tmp_path, monkeypatch, capsys):
    # B = 1e200 overflows the first Taylor frame to NaN: the transport gives
    # up on that step instead of taking NaN steps until its budget runs out,
    # and no numpy warning reaches stderr
    path = tmp_path / "big.json"
    path.write_text(json.dumps({
        "punctures": [{"p": [0.0, 0.0], "n1": 0, "n2": 2}],
        "params": {"A": [[0.0, 0.0]], "Bk": [[0.0, 0.0]], "B": [1e200, 0.0],
                   "Dk": [[0.0, 0.0]], "D": [0.0, 0.0]},
    }))
    frames = [0]  # frame points: the period paths and the loop start in one sweep
    orig = monodromy._frames

    def counted(coeffs, zs, Y):
        frames[0] += len(zs)
        return orig(coeffs, zs, Y)

    monkeypatch.setattr(monodromy, "_frames", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "monodromy", "--tau=0.21,1.13", "--punctures", str(path))
    assert code == 4
    assert out == ""
    assert err == "inconclusive: transport step size underflow\n"
    assert frames[0] <= 5


# ---------------------------------------------------------------------------
# output plumbing

SCAN_ARGS = ("scan", "--n1", "0", "--n2", "1",
             "--re0", "-0.1", "--re1", "0.1", "--nre", "2",
             "--im0", "0.9", "--im1", "1.1", "--nim", "2")


def test_scan_csv_default(capsys):
    code, out, _ = run_cli(capsys, *SCAN_ARGS)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "tau_re,tau_im,bound,total,even_total,max_residual,degenerate,error"
    assert len(lines) == 5
    # row-major: imag varies slowest
    ims = [float(l.split(",")[1]) for l in lines[1:]]
    assert ims == sorted(ims)


def test_scan_error_rows_in_csv(monkeypatch, capsys):
    # the cells at Im tau = 0.0005 have no invariants: their rows hold the
    # error and empty numeric cells, and the first cell above them, whose
    # warm-start neighbour failed, runs the full census
    warm = []
    census = solver._census

    def recording(*args):
        warm.append(args[-1] is not None)
        return census(*args)

    monkeypatch.setattr(solver, "_census", recording)
    code, out, _ = run_cli(capsys, "scan", "--n1", "0", "--n2", "2",
                           "--re0", "0.1", "--re1", "0.2", "--nre", "2",
                           "--im0", "0.0005", "--im1", "1.0", "--nim", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[1:3] == ["0.1,0.0005,,,,,,tau too close to the real axis",
                          "0.2,0.0005,,,,,,tau too close to the real axis"]
    cells = [line.split(",") for line in lines[3:]]
    assert [c[1:4] + c[-1:] for c in cells] == [["1.0", "2", "2", ""]] * 2
    assert warm == [False, True]


def test_scan_json_wraps_rows(capsys):
    code, out, _ = run_cli(capsys, *SCAN_ARGS, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "toda-census/1"
    assert len(doc["rows"]) == 4
    assert doc["rows"][0]["total"] == 1


def test_out_file_and_determinism(tmp_path, capsys):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    for f in (f1, f2):
        code, out, _ = run_cli(capsys, "solve", "--n1", "1", "--n2", "2",
                               "--tau", "0.2,1.3", "--seed", "7",
                               "--out", str(f))
        assert code == 0
        assert out == ""  # everything went to the file
    b1, b2 = f1.read_bytes(), f2.read_bytes()
    assert b1 == b2
    assert json.loads(b1)["total"] == 5


def test_console_script_installed():
    proc = subprocess.run(
        ["toda-census", "--version"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout.strip()
