"""Command-line front end.

Commands: invariants, polys, even, solve, monodromy, scan, probe-degenerate.
Output is canonical JSON (or CSV for scans) and is byte-identical for
identical configuration and seed.

Exit codes: 0 success, 2 critical parameters, 3 even-sector nonexistence,
4 numerically inconclusive.
"""

import argparse
import json
import math
import sys

from . import __version__
from .apparency import (
    ParamVec,
    build_even_poly,
    build_m0_system,
    derive_problem,
    even_count_Ne,
    problem_m0,
)
from .elliptic import compute_invariants
from .errors import (
    CriticalParametersError,
    EvaluationError,
    EvenNonexistenceError,
    InconclusiveError,
    NearPoleError,
    PathClearanceError,
    StructuralError,
)
from .jsonio import dumps_canonical, rows_to_csv, to_jsonable
from .monodromy import TRANSPORT_RTOL, verify_roots
from .solver import (
    SCAN_COLUMNS,
    SolverConfig,
    scan_tau,
    solve_even,
    solve_m0,
    solve_m0_degenerate,
)

__all__ = ["main", "build_parser"]

_SPECIAL_TAU = {
    "i": complex(0.0, 1.0),
    "rho": complex(0.5, math.sqrt(3.0) / 2.0),
}


def parse_tau(text):
    """'re,im' pair or one of the named points 'i', 'rho'."""
    if text in _SPECIAL_TAU:
        return _SPECIAL_TAU[text]
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            "expected 're,im' or one of: " + ", ".join(sorted(_SPECIAL_TAU))
        )
    try:
        re, im = float(parts[0]), float(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError("tau components must be numbers")
    if not (math.isfinite(re) and math.isfinite(im)):
        raise argparse.ArgumentTypeError("tau components must be finite")
    if im <= 0:
        raise argparse.ArgumentTypeError("tau must satisfy Im > 0")
    return complex(re, im)


def parse_tol(text):
    """A positive finite tolerance."""
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("tolerance must be a number")
    if not (math.isfinite(tol) and tol > 0):
        raise argparse.ArgumentTypeError("tolerance must be positive and finite")
    return tol


def parse_bound(text):
    """A finite scan grid bound."""
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("scan grid bounds must be numbers")
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError("scan grid bounds must be finite")
    return x


def _load_punctures(path):
    """(p, n1, n2) triples (and optional parameter vector) from a JSON file.

    A file that cannot be read, is not JSON or lacks an entry raises
    StructuralError, a usage error that names the file; derive_problem
    judges the multiplicities."""
    def cplx(v):
        return complex(v[0], v[1])

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        items = data["punctures"] if isinstance(data, dict) else data
        punctures = [(cplx(it["p"]), it["n1"], it["n2"]) for it in items]
        params = None
        if isinstance(data, dict) and "params" in data:
            pr = data["params"]
            params = ParamVec(
                A=tuple(map(cplx, pr["A"])),
                Bk=tuple(map(cplx, pr["Bk"])),
                B=cplx(pr["B"]),
                Dk=tuple(map(cplx, pr["Dk"])),
                D=cplx(pr["D"]),
            )
        return punctures, params
    except OSError as e:
        problem = e.strerror or str(e)
    except json.JSONDecodeError as e:
        problem = "not valid JSON (%s)" % e
    except KeyError as e:
        problem = "missing key %s" % e
    except (TypeError, ValueError, IndexError) as e:
        problem = "malformed entry (%s)" % e
    raise StructuralError("--punctures %s: %s" % (path, problem))


def _tau(args):
    """--tau of a command that needs it."""
    if args.tau is None:
        raise StructuralError("--tau is required for this command")
    return args.tau


def _problem_from_args(args):
    tau = _tau(args)
    if args.punctures:
        punctures, params = _load_punctures(args.punctures)
        try:
            problem = derive_problem(tau, punctures)
        except StructuralError as e:
            raise StructuralError("--punctures %s: %s" % (args.punctures, e))
        return problem, params
    if args.n1 is None or args.n2 is None:
        raise StructuralError("either --punctures or --n1/--n2 is required")
    return problem_m0(tau, args.n1, args.n2), None


def _pair(args):
    """(n1, n2) of a command that takes the pair from --n1 and --n2 only."""
    if args.n1 is None or args.n2 is None:
        raise StructuralError("--n1 and --n2 are required")
    return args.n1, args.n2


def _solver_config(args):
    kw = {"seed": args.seed}
    if args.tol is not None:
        kw["accept_tol"] = args.tol
    return SolverConfig(**kw)


def cmd_invariants(args):
    return compute_invariants(_tau(args))


def cmd_polys(args):
    system = build_m0_system(*_pair(args))
    out = to_jsonable(system)
    out["text"] = system.text()
    return out


def cmd_even(args):
    if args.tau is None:
        ep = build_even_poly(*_pair(args))
        return {
            "n1": ep.n1,
            "n2": ep.n2,
            "Ne": ep.Ne,
            "poly": ep.poly.text(),
        }
    problem, _ = _problem_from_args(args)
    # the sector-existence check comes first so odd/odd pairs get the
    # dedicated signal even when they are also critical
    if problem.m == 0:
        even_count_Ne(problem.punctures[0].n1, problem.punctures[0].n2)
    problem.require_noncritical()
    return solve_even(problem, config=_solver_config(args))


def cmd_solve(args):
    problem, _ = _problem_from_args(args)
    problem.require_noncritical()
    return solve_m0(problem, config=_solver_config(args))


def cmd_monodromy(args):
    problem, params = _problem_from_args(args)
    problem.require_noncritical()
    ctx = compute_invariants(problem.lattice)
    rtol = args.tol if args.tol is not None else TRANSPORT_RTOL
    if params is not None:
        census = None
        roots = [params]
    else:
        # --tol is the transport rtol here, not the census acceptance
        census = solve_m0(problem, ctx, config=SolverConfig(seed=args.seed))
        roots = [ParamVec.m0(cl.B, cl.D0, cl.D) for cl in census.clusters]
    return {"census": census, "roots": verify_roots(problem, ctx, roots, rtol=rtol)}


def cmd_scan(args):
    n1, n2 = _pair(args)
    grid = {
        "re0": args.re0,
        "re1": args.re1,
        "nre": args.nre,
        "im0": args.im0,
        "im1": args.im1,
        "nim": args.nim,
    }
    rows = scan_tau(n1, n2, grid, config=_solver_config(args))
    return rows


def cmd_probe_degenerate(args):
    return solve_m0_degenerate(*_pair(args), config=_solver_config(args))


_DISPATCH = {
    "invariants": cmd_invariants,
    "polys": cmd_polys,
    "even": cmd_even,
    "solve": cmd_solve,
    "monodromy": cmd_monodromy,
    "scan": cmd_scan,
    "probe-degenerate": cmd_probe_degenerate,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="toda-census",
        description="Census of apparent-singularity parameters on flat tori",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "command",
        choices=sorted(_DISPATCH),
        help="what to compute",
    )
    parser.add_argument("--tau", type=parse_tau, default=None,
                        help="torus modulus: 're,im', 'i', or 'rho'")
    parser.add_argument("--n1", type=int, default=None, help="first multiplicity")
    parser.add_argument("--n2", type=int, default=None, help="second multiplicity")
    parser.add_argument("--punctures", default=None, metavar="FILE",
                        help="JSON file with a puncture list (and optional params)")
    parser.add_argument("--seed", type=int, default=0, help="multi-start seed")
    parser.add_argument("--tol", type=parse_tol, default=None,
                        help="acceptance tolerance (solver) / rtol (monodromy)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write the artifact here instead of stdout")
    parser.add_argument("--format", choices=("json", "csv"), default=None,
                        help="output format (csv only for scan)")
    for key in ("re0", "re1", "im0", "im1"):
        parser.add_argument("--" + key, type=parse_bound, default=None,
                            help="scan grid bound")
    for key in ("nre", "nim"):
        parser.add_argument("--" + key, type=int, default=None,
                            help="scan grid count")
    return parser


def _emit(args, payload):
    fmt = args.format
    if args.command == "scan":
        if fmt is None:
            fmt = "csv"
    elif fmt == "csv":
        raise StructuralError("csv output is only available for scan")
    if fmt == "csv":
        text = rows_to_csv(payload, columns=SCAN_COLUMNS)
    else:
        if isinstance(payload, list):
            payload = {"rows": payload}
        text = dumps_canonical(payload)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as e:
            raise StructuralError("--out %s: %s" % (args.out, e.strerror or e))
    else:
        sys.stdout.write(text)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "scan":
        missing = [k for k in ("re0", "re1", "nre", "im0", "im1", "nim")
                   if getattr(args, k) is None]
        if missing:
            parser.error("scan requires --" + " --".join(missing))
    try:
        payload = _DISPATCH[args.command](args)
        _emit(args, payload)
    except CriticalParametersError as e:
        print("critical parameters: %s" % e, file=sys.stderr)
        return 2
    except EvenNonexistenceError as e:
        print("even sector: %s" % e, file=sys.stderr)
        return 3
    except (InconclusiveError, EvaluationError, PathClearanceError, NearPoleError) as e:
        print("inconclusive: %s" % e, file=sys.stderr)
        return 4
    except StructuralError as e:
        parser.error(str(e))
    return 0


if __name__ == "__main__":
    sys.exit(main())
