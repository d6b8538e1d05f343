"""Output checks.  Each checker takes parsed CLI output and returns a list of
problems (empty when the output is correct) plus the root tallies the
end-to-end metrics are built from.

Thresholds are those of acceptance criteria 7 and 8.
"""

import csv
import io
import json
from dataclasses import dataclass, field

EPS_RESIDUAL_MAX = 1e-6
LOCAL_SCALAR_MAX = 1e-6
PDE_RESIDUAL_MAX = 1e-4
CONTROL_LOCAL_MIN = 1e-2
# scan CSV rows do not carry the solver config; this is the CLI default
SCAN_ACCEPT_TOL = 1e-10


@dataclass
class Verdict:
    problems: list = field(default_factory=list)
    found: int = 0       # clusters found by censuses in this output
    bound: int = 0       # their weighted-Bezout bounds, summed
    verified: int = 0    # roots that passed the monodromy checks


def check_census(rep, v):
    """total <= bound and every cluster within the acceptance tolerance."""
    tol = rep["config"]["accept_tol"]
    if rep["total"] > rep["bound"]:
        v.problems.append("total %d exceeds bound %d" % (rep["total"], rep["bound"]))
    if rep["total"] != len(rep["clusters"]):
        v.problems.append("total %d != %d clusters" % (rep["total"], len(rep["clusters"])))
    worst = max((c["residual"] for c in rep["clusters"]), default=0.0)
    if not worst <= tol:
        v.problems.append("cluster residual %.3g > accept_tol %.3g" % (worst, tol))
    v.found += rep["total"]
    v.bound += rep["bound"]


def root_problems(root):
    """Why a monodromy report does not certify its root (criteria 7, 8)."""
    out = []
    if not root["eps_residual"] <= EPS_RESIDUAL_MAX:
        out.append("eps_residual %.3g" % root["eps_residual"])
    worst_local = max(root["local_scalar_residuals"])
    if not worst_local <= LOCAL_SCALAR_MAX:
        out.append("local_scalar_residual %.3g" % worst_local)
    if root["unitarizable"] is not True:
        out.append("not unitarizable")
    pde = root["pde_residual"]
    if pde is None or not pde <= PDE_RESIDUAL_MAX:
        out.append("pde_residual %s" % pde)
    return out


def check_solve(doc):
    v = Verdict()
    check_census(doc, v)
    return v


def check_verify(doc):
    v = Verdict()
    check_census(doc["census"], v)
    if len(doc["roots"]) != doc["census"]["total"]:
        v.problems.append("%d reports for %d roots" % (len(doc["roots"]), doc["census"]["total"]))
    for i, root in enumerate(doc["roots"]):
        bad = root_problems(root)
        if bad:
            v.problems.append("root %d: %s" % (i, ", ".join(bad)))
        else:
            v.verified += 1
    return v


def check_control(doc):
    """The nudged root must be rejected by its local monodromy."""
    v = Verdict()
    if doc["census"] is not None or len(doc["roots"]) != 1:
        v.problems.append("control must verify exactly one given parameter vector")
        return v
    worst_local = max(doc["roots"][0]["local_scalar_residuals"])
    if not worst_local >= CONTROL_LOCAL_MIN:
        v.problems.append("control accepted: local_scalar_residual %.3g" % worst_local)
    return v


def check_scan(text, rows_expected):
    v = Verdict()
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != rows_expected:
        v.problems.append("%d rows, expected %d" % (len(rows), rows_expected))
    for row in rows:
        where = "tau=%s,%s" % (row["tau_re"], row["tau_im"])
        if row["error"]:
            v.problems.append("%s: %s" % (where, row["error"]))
            continue
        total, bound = int(row["total"]), int(row["bound"])
        if total > bound:
            v.problems.append("%s: total %d exceeds bound %d" % (where, total, bound))
        if not float(row["max_residual"]) <= SCAN_ACCEPT_TOL:
            v.problems.append("%s: max_residual %s" % (where, row["max_residual"]))
        v.found += total
        v.bound += bound
    return v


def check_output(kind, rc, stdout, rows_expected=0):
    """Verdict for one task's exit code and stdout."""
    if rc != 0:
        return Verdict(problems=["exit code %s" % rc])
    try:
        if kind == "scan":
            return check_scan(stdout, rows_expected)
        doc = json.loads(stdout)
        return {"solve": check_solve, "verify": check_verify,
                "control": check_control}[kind](doc)
    except (ValueError, KeyError, TypeError) as e:
        return Verdict(problems=["unreadable output: %s: %s" % (type(e).__name__, e)])


def roots_found_frac(verdicts):
    """Clusters found over the summed bound of every census in verdicts."""
    bound = sum(v.bound for v in verdicts)
    return sum(v.found for v in verdicts) / bound if bound else 0.0
