"""Tests of the benchmark's own output checks and tracer.

    python3 -m pytest bench
"""

import json
import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import tasks  # noqa: E402
from tracer import Tracer  # noqa: E402

cli = tasks.load_cli()
TAU = complex(0.21, 1.13)


@pytest.fixture(scope="module")
def census_04():
    out = tasks.run_cli(cli, ("solve", "--n1", "0", "--n2", "4", tasks.tau_arg(TAU)))
    assert out.rc == 0
    return json.loads(out.stdout)


def _verdict(kind, doc):
    return checks.check_output(kind, 0, json.dumps(doc))


def test_truncated_census_lowers_roots_found_frac(census_04):
    full = _verdict("solve", census_04)
    assert full.problems == [] and checks.roots_found_frac([full]) == 1.0
    short = dict(census_04, clusters=census_04["clusters"][:-1], total=census_04["total"] - 1)
    v = _verdict("solve", short)
    # an undercount is not a failed task, but it must show in the metric
    assert v.problems == []
    assert checks.roots_found_frac([v]) < checks.roots_found_frac([full])


def test_census_violations_fail(census_04):
    over = dict(census_04, bound=census_04["total"] - 1)
    assert _verdict("solve", over).problems
    loose = json.loads(json.dumps(census_04))
    loose["clusters"][0]["residual"] = 1e-6
    assert _verdict("solve", loose).problems
    assert checks.check_output("solve", 4, "").problems
    assert checks.check_output("solve", 0, "not json").problems


def test_perturbed_root_counts_as_failed(census_04, tmp_path):
    control = tasks.Task("control", "control", tau=TAU)
    out = tasks.run_cli(cli, tasks.control_argv(control, {"census": census_04}, tmp_path))
    assert out.rc == 0
    doc = json.loads(out.stdout)
    # as the negative control the nudged root is correctly rejected ...
    assert checks.check_output("control", out.rc, out.stdout).problems == []
    # ... and reported as a census root it is a failed verification
    one = dict(census_04, clusters=census_04["clusters"][:1], total=1)
    v = _verdict("verify", {"census": one, "roots": doc["roots"]})
    assert v.problems and v.verified == 0


def test_accepted_control_fails():
    root = {"eps_residual": 1e-12, "local_scalar_residuals": [1e-12],
            "unitarizable": True, "pde_residual": 1e-7}
    assert checks.root_problems(root) == []
    assert _verdict("control", {"census": None, "roots": [root]}).problems


def test_scan_row_error_fails():
    head = "tau_re,tau_im,bound,total,even_total,max_residual,degenerate,error\n"
    good = head + "0.1,1.1,5,5,3,1e-14,0,\n"
    bad = head + "0.1,1.1,,,,,,no roots found\n"
    assert checks.check_output("scan", 0, good, rows_expected=1).problems == []
    assert checks.check_output("scan", 0, bad, rows_expected=1).problems
    assert checks.check_output("scan", 0, good, rows_expected=2).problems


def test_output_change_between_passes_fails(tmp_path):
    class Drifting:
        calls = 0

        def main(self, argv):
            self.calls += 1
            print("run %d" % self.calls)
            return 0

    fake, digests = Drifting(), {}
    plan = [tasks.Task("drift", "solve", ("solve",))]
    first = run.run_pass(fake, plan, tmp_path, digests).verdicts[0][2]
    second = run.run_pass(fake, plan, tmp_path, digests).verdicts[0][2]
    assert run.DIFFERS not in first.problems
    assert run.DIFFERS in second.problems


def test_missing_entry_point_fails_loudly():
    with pytest.raises(LookupError):
        Tracer(layers=(("todacensus.solver", "_no_such_layer", "x", False, None),)).install()
    with pytest.raises(LookupError):
        Tracer(layers=(("todacensus.elliptic", "EllipticContext.no_such", "x", True, None),)).install()


def test_traced_solve_reports_layers_and_restores():
    import todacensus.solver as solver

    orig = solver._newton_m0_batch
    tracer = Tracer()
    tracer.install()
    try:
        out = tasks.run_cli(cli, ("solve", "--n1", "0", "--n2", "2", tasks.tau_arg(TAU)))
    finally:
        tracer.uninstall()
    assert out.rc == 0 and solver._newton_m0_batch is orig
    m = tracer.layer_metrics(out.seconds, out.seconds, out.seconds, 0.0)
    assert m["solver.newton.starts"][0] > 0 and m["solver.cluster.points"][0] > 0
    newton = [s for s in tracer.spans if s.name == "solver.newton"]
    assert 0 < m["solver.newton.self_s"][0] <= sum(s.end - s.start for s in newton)
    assert m["apparency.m0_value_batch.points"][0] > 0
    assert 0 <= m["trace.unattributed_s"][0] < out.seconds


def test_speed_probe_samples_and_restores():
    before = signal.getsignal(signal.SIGALRM)
    with run.SpeedProbe() as speed:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(speed.samples) >= 3
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert run.probe_scale(speed.samples) > 0 and run.probe_scale([]) == 1.0
