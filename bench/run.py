"""Benchmark of the toda-census CLI.

    python3 bench/run.py --workload census|verify|scan --seed N --seconds S --trace 0|1

Runs the workload's task list through `todacensus.cli.main` in this process,
pass after pass until another pass would end after S seconds (at least one
pass), and checks every output.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json; with --trace 1 the same untraced
passes are followed by one traced pass, and the metrics are the per-layer
ones (tracer.py).  README.md explains the workloads and metrics.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import checks
import tasks
from tracer import Tracer

SETUP_REPS = 7
# Runs in a child pinned to the benchmark's CPU.  It reads /proc/stat itself:
# importing tasks.steal_seconds would import numpy before the timer starts.
SETUP_CODE = """
import os, sys, time
def steal():
    try:
        with open("/proc/stat") as fh:
            for line in fh:
                if line.startswith("cpu%s " % sys.argv[2]):
                    f = line.split()
                    return int(f[8]) / os.sysconf("SC_CLK_TCK") if len(f) > 8 else 0.0
    except OSError:
        pass
    return 0.0
s0 = steal()
t0 = time.perf_counter()
import todacensus.cli
from todacensus.elliptic import compute_invariants
compute_invariants(complex(sys.argv[1]))
print(repr(time.perf_counter() - t0 - (steal() - s0)))
"""
# Speed probe: the time of `probe`, sampled every PROBE_PERIOD_S while a pass
# runs, tracks how fast this machine runs Python at the moment.  Pass and
# set-up times are scaled to PROBE_NOMINAL_S, the probe's time on the
# 2-vCPU VM the benchmark was written on when it ran fast.  See README.md.
PROBE_PERIOD_S = 0.05
PROBE_NOMINAL_S = 2.5e-4
DIFFERS = "stdout differs between repetitions"
WARMUP_ARGV = ("solve", "--n1", "0", "--n2", "2", "--tau=0.2,1.3")


def probe():
    """Fixed pure-Python work.  The program never runs it, so no change to
    the program changes its cost; only the machine's speed does."""
    s = 0
    for i in range(3000):
        s += i * i % 7
    return s


def probe_scale(samples):
    """PROBE_NOMINAL_S over the median probe time (1 without samples)."""
    return PROBE_NOMINAL_S / statistics.median(samples) if samples else 1.0


class SpeedProbe:
    """Times `probe` from a SIGALRM handler every PROBE_PERIOD_S, i.e. at
    bytecode boundaries of whatever the main thread runs meanwhile."""

    def __enter__(self):
        self.samples = []
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        probe()
        self.samples.append(time.perf_counter() - t0)

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)


@dataclass
class Pass:
    wall: float     # summed CLI time of the pass's tasks, steal excluded
    steal: float    # steal time excluded from wall
    scale: float    # probe_scale of the samples taken during the pass
    roots: int      # roots found (solve, scan) or verified (verify)
    verdicts: list  # (task, run, verdict)

    @property
    def scaled(self):
        return self.wall * self.scale


def run_pass(cli, plan, workdir, digests, cpu=None):
    """Run every task once; checks include stdout identity across passes."""
    with SpeedProbe() as speed:
        verdicts, wall, steal, roots = _run_tasks(cli, plan, workdir, digests, cpu)
    return Pass(wall=wall, steal=steal, scale=probe_scale(speed.samples), roots=roots,
                verdicts=verdicts)


def _run_tasks(cli, plan, workdir, digests, cpu):
    verdicts, docs = [], {}
    wall = steal = 0.0
    roots = 0
    for task in plan:
        argv = task.argv
        if task.kind == "control":
            if task.source not in docs:
                verdicts.append((task, None, checks.Verdict(problems=["no source census"])))
                continue
            argv = tasks.control_argv(task, docs[task.source], workdir)
        run = tasks.run_cli(cli, argv, cpu)
        wall += run.seconds
        steal += run.steal
        v = checks.check_output(task.kind, run.rc, run.stdout, task.rows)
        if run.rc != 0 and run.error:
            v.problems.append(run.error.strip().splitlines()[-1])
        if digests.setdefault(task.label, run.digest) != run.digest:
            v.problems.append(DIFFERS)
        if task.kind == "verify" and not v.problems:
            docs[task.label] = json.loads(run.stdout)
        roots += v.verified if task.kind == "verify" else v.found
        verdicts.append((task, run, v))
    return verdicts, wall, steal, roots


def run_passes(cli, plan, workdir, digests, seconds, cpu):
    """Passes until the next one would end after `seconds` (at least one)."""
    out = []
    t0 = time.perf_counter()
    while True:
        out.append(run_pass(cli, plan, workdir, digests, cpu))
        spent = time.perf_counter() - t0
        if spent * (len(out) + 1) / len(out) > seconds:
            return out


def measure_setup(tau, cpu):
    """Median over fresh processes of importing the CLI plus the first
    compute_invariants, timed inside the child and scaled by probes timed
    just before it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tasks.SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(SETUP_REPS):
        samples = []
        for _ in range(20):
            t0 = time.perf_counter()
            probe()
            samples.append(time.perf_counter() - t0)
        r = subprocess.run([sys.executable, "-c", SETUP_CODE, repr(tau), str(cpu)], env=env,
                           cwd=tasks.ROOT, capture_output=True, text=True, timeout=120,
                           check=True)
        times.append(float(r.stdout.split()[-1]) * probe_scale(samples))
    return statistics.median(times)


def _blas_threads():
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return fn()
    except OSError:
        pass
    return "unknown"


def _git_commit():
    try:
        top = subprocess.run(["git", "-C", str(tasks.ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    lines = top.stdout.split()
    if top.returncode or len(lines) != 2 or os.path.realpath(lines[0]) != str(tasks.ROOT):
        return "unknown"
    return lines[1]


def machine():
    import mpmath
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(tasks.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli = tasks.load_cli()
    from todacensus.solver import WORKERS_ENV

    os.environ.pop(WORKERS_ENV, None)  # the CLI default: no scan thread pool
    plan = tasks.WORKLOADS[args.workload](args.seed)
    info = machine()
    info["pinned_cpu"] = cpu = tasks.pin_to_one_cpu()
    print("machine " + json.dumps(info, sort_keys=True))

    digests = {}
    with tempfile.TemporaryDirectory(dir=tasks.ROOT, prefix=".bench-") as workdir:
        tasks.run_cli(cli, WARMUP_ARGV)
        setup_s = None if args.trace else measure_setup(tasks.random_tau(args.seed), cpu)
        passes = run_passes(cli, plan, workdir, digests, args.seconds, cpu)
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_pass(cli, plan, workdir, digests, cpu)
            finally:
                tracer.uninstall()
            layer = tracer.layer_metrics(traced.scaled, statistics.median(p.scaled for p in passes),
                                         traced.wall + traced.steal, traced.steal)
            passes.append(traced)

    verdicts = [tv for p in passes for tv in p.verdicts]
    failed = 0
    for task, run, v in verdicts:
        if v.problems:
            failed += 1
            print("FAILED %s: %s" % (task.label, "; ".join(v.problems)))
    for p in passes:
        print("pass %.3fs (steal %.3fs excluded), speed scale %.4f" % (p.wall, p.steal, p.scale))
    for task, run, v in passes[0].verdicts:
        print("task %-28s rc=%s %7.3fs found=%d/%d verified=%d" % (
            task.label, run.rc if run else "-", run.seconds if run else 0.0,
            v.found, v.bound, v.verified))

    if args.trace:
        metrics = layer
    else:
        metrics = {
            "wall_s": (statistics.median(p.scaled for p in passes), "s"),
            "setup_s": (setup_s, "s"),
            "roots_per_s": (statistics.median(p.roots / p.scaled for p in passes), "1/s"),
            "roots_found_frac": (checks.roots_found_frac([v for _, _, v in verdicts]), "frac"),
            "ok_frac": (1.0 - failed / len(verdicts), "frac"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(verdicts),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
