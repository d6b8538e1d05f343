"""Workload task lists and the in-process driver of the `toda-census` CLI.

Every task is one `todacensus.cli.main(argv)` call whose stdout is captured
and parsed, exactly as a user of the command line would see it.  The task
lists are built from the benchmark seed; see README.md for why each
workload exists and which layers it loads.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# Lattices.  The seed moves an anchor by at most JITTER in Re and Im:
# every seed gives new lattices, invariants and roots, but the same search
# difficulty.  Drawn from the whole random-tau box instead, a multi-start
# census flips between complete (~1 s) and underfull (~20 s, the budget
# plus three box doublings) from tau to tau, and from Halton seed to Halton
# seed at one tau.  README.md has the measurements.
JITTER = 0.002
CENSUS_TAU = complex(-0.373, 0.992)
CENSUS_JITTERED = ((3, 5), (2, 7))  # complete within 5 chunks in 17 draws
# Fixed inputs, so that their cost and count never move with the seed:
# (2,6) at the anchor itself, because 3 of 14 draws even 1e-5 away from it
# left (2,6) underfull, and (1,8) at the known undercount, 31/33 after 16.5k
# starts and 3 doublings.
CENSUS_FIXED = (((2, 6), CENSUS_TAU), ((1, 8), complex(0.05, 0.88)))
VERIFY_PAIRS = ((0, 2), (0, 4))
VERIFY_TAU = complex(0.21, 1.13)
CONTROL_SHIFT = 0.1
# scan: a seeded shift of a 6x6 grid over the random-tau box of the tests
SCAN_PAIR = (0, 4)
SCAN_N = 6
TAU_BOX = ((-0.45, 0.45), (0.85, 1.45))
SPECIAL_TAUS = (1j, complex(0.5, 0.8660254))


def load_cli():
    """Import this checkout's `todacensus.cli`; refuse any other copy."""
    pkg = SRC / "todacensus"
    if not (pkg / "cli.py").is_file():
        raise SystemExit("bench: %s does not hold the todacensus sources" % pkg)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import todacensus.cli as cli

    if Path(cli.__file__).resolve().parent != pkg.resolve():
        raise SystemExit("bench: imported todacensus from %s, not %s" % (cli.__file__, pkg))
    return cli


def _away_from_special(tau):
    return all(abs(tau - s) > 0.05 for s in SPECIAL_TAUS)


def random_tau(seed):
    """One modulus drawn as the test suite's random_taus draws them."""
    rng = np.random.default_rng(seed)
    (r0, r1), (i0, i1) = TAU_BOX
    while True:
        tau = complex(rng.uniform(r0, r1), rng.uniform(i0, i1))
        if _away_from_special(tau):
            return tau


def tau_arg(tau):
    # the '=' form keeps a negative real part from reading as an option
    return "--tau=%r,%r" % (tau.real, tau.imag)


@dataclass(frozen=True)
class Task:
    """One CLI invocation.  kind selects the output check."""

    label: str
    kind: str          # "solve" | "verify" | "control" | "scan"
    argv: tuple = ()
    source: str = None  # control: label of the verify task whose root is nudged
    tau: complex = None
    rows: int = 0       # scan: expected row count


def jittered(anchor, seed):
    d = np.random.default_rng(seed).uniform(-JITTER, JITTER, size=2)
    return complex(anchor.real + d[0], anchor.imag + d[1])


def _solve(n1, n2, tau):
    return Task("solve(%d,%d)@%r" % (n1, n2, tau), "solve",
                ("solve", "--n1", str(n1), "--n2", str(n2), tau_arg(tau)))


def census_tasks(seed):
    tau = jittered(CENSUS_TAU, seed)
    return ([_solve(n1, n2, tau) for n1, n2 in CENSUS_JITTERED]
            + [_solve(n1, n2, fixed) for (n1, n2), fixed in CENSUS_FIXED])


def verify_tasks(seed):
    tau = jittered(VERIFY_TAU, seed)
    out = [Task("monodromy(%d,%d)" % (n1, n2), "verify",
                ("monodromy", "--n1", str(n1), "--n2", str(n2), tau_arg(tau)), tau=tau)
           for n1, n2 in VERIFY_PAIRS]
    out.append(Task("control(%d,%d)" % VERIFY_PAIRS[-1], "control", source=out[-1].label, tau=tau))
    return out


def scan_tasks(seed):
    """A 6x6 grid spread over the whole box, shifted by the seed: every seed
    samples every part of the box, so a pass's cost does not depend on where
    a small window would have landed."""
    rng = np.random.default_rng(seed)
    (r0, r1), (i0, i1) = TAU_BOX
    hr, hi = (r1 - r0) / SCAN_N, (i1 - i0) / SCAN_N
    while True:
        re0, im0 = r0 + rng.uniform(0, hr), i0 + rng.uniform(0, hi)
        grid = [complex(re0 + a * hr, im0 + b * hi) for a in range(SCAN_N) for b in range(SCAN_N)]
        if all(_away_from_special(t) for t in grid):
            break
    n1, n2 = SCAN_PAIR
    argv = ("scan", "--n1", str(n1), "--n2", str(n2),
            "--re0=%r" % re0, "--re1=%r" % (re0 + (SCAN_N - 1) * hr), "--nre", str(SCAN_N),
            "--im0=%r" % im0, "--im1=%r" % (im0 + (SCAN_N - 1) * hi), "--nim", str(SCAN_N))
    return [Task("scan(%d,%d)" % (n1, n2), "scan", argv, rows=SCAN_N * SCAN_N)]


WORKLOADS = {
    "census": census_tasks,
    "verify": verify_tasks,
    "scan": scan_tasks,
}


def control_argv(task, source_doc, workdir):
    """argv of the negative control: the first root of the source census
    with B moved by CONTROL_SHIFT, verified directly via --punctures."""
    cl = source_doc["census"]["clusters"][0]
    n1, n2 = source_doc["census"]["n1"], source_doc["census"]["n2"]
    spec = {
        "punctures": [{"p": [0.0, 0.0], "n1": n1, "n2": n2}],
        "params": {"A": [[0.0, 0.0]], "Bk": [[0.0, 0.0]],
                   "B": [cl["B"][0] + CONTROL_SHIFT, cl["B"][1]],
                   "Dk": [cl["D0"]], "D": cl["D"]},
    }
    path = Path(workdir) / "control.json"
    path.write_text(json.dumps(spec, sort_keys=True))
    return ("monodromy", tau_arg(task.tau), "--punctures", str(path))


def pin_to_one_cpu():
    """Pin this process (and the children it starts) to one CPU, so that the
    steal time of that CPU is the time taken from the benchmark."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def steal_seconds(cpu):
    """Hypervisor steal time of one CPU so far, from /proc/stat; 0 where the
    kernel does not report it."""
    try:
        with open("/proc/stat") as fh:
            for line in fh:
                if line.startswith("cpu%d " % cpu):
                    fields = line.split()
                    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0
    except OSError:
        pass
    return 0.0


@dataclass
class Run:
    """What one CLI invocation returned.  seconds is wall time minus the
    steal time of the pinned CPU (wall time alone when cpu is None)."""

    rc: int
    seconds: float
    stdout: str
    error: str = ""
    steal: float = 0.0
    digest: str = field(init=False)

    def __post_init__(self):
        self.digest = hashlib.sha256(self.stdout.encode()).hexdigest()


def run_cli(cli, argv, cpu=None):
    """Call the CLI in-process, capturing stdout/stderr and the exit code."""
    out, err = io.StringIO(), io.StringIO()
    s0 = 0.0 if cpu is None else steal_seconds(cpu)
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as e:  # argparse errors
            rc = e.code if isinstance(e.code, int) else 1
        except Exception as e:  # an escaped exception is a failed task, not a crash
            rc, err = 1, io.StringIO("%s: %s" % (type(e).__name__, e))
    wall = time.perf_counter() - t0
    steal = 0.0 if cpu is None else steal_seconds(cpu) - s0
    return Run(rc=rc, seconds=wall - steal, stdout=out.getvalue(), error=err.getvalue(),
               steal=steal)
