"""Numerical root census for the single-puncture apparency system.

solve_m0 runs a multi-start damped-Newton search over the three accessory
parameters (B, D0, D), polishes every convergent trajectory with pure Newton
steps, merges results into clusters in weight-scaled coordinates, and reports
the count next to the weighted-Bezout bound.  Newton drops a point as soon as
its relative residual (see _relative_residual) is <= 1e-13 in the damped
loop or <= 1e-15 in the polish; max_iter and polish_iter only cap the two
phases.  Starts run in chunks, and each chunk's accepted points are merged
into the clusters kept from the chunks before; the points are clustered
afresh only when a box doubling changes the metric.  Starting points combine a
low-discrepancy Halton cloud (deterministic for a fixed seed) with structured
seeds: the origin and the even-sector roots lifted to (B, 0, 0).  The even
sector is additionally solved on its own by an Aberth-Ehrlich iteration, so
the two counts can be compared independently by callers and tests.

scan_tau runs the census cell by cell over a tau grid, as one chain: each
cell first runs Newton from the roots of its neighbour, and stops there if
they reach the weighted-Bezout bound, which no census can exceed; only a
cell left short runs the full multi-start search.

Scaling convention: under z -> lam * z the parameters transform with weights
B: lam^-2, D0: lam^-1, D: lam^-3, so search boxes, step caps and the cluster
metric all live in coordinates (B / r, D0 / sqrt(r), D / r^1.5) for a box
radius r.
"""

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .apparency import (
    ProblemSpec,
    bezout_bound,
    build_even_poly,
    m0_residual_batch,
    m0_value_batch,
)
from .elliptic import compute_invariants
from .errors import (
    EvaluationError,
    EvenNonexistenceError,
    InconclusiveError,
    InconclusiveWarning,
    StructuralError,
)

__all__ = [
    "SolverConfig",
    "RootCluster",
    "CensusReport",
    "EvenRoot",
    "EvenReport",
    "solve_m0",
    "solve_even",
    "solve_m0_degenerate",
    "scan_tau",
    "roots_univariate",
]

# read by nothing since scans run as one warm-started chain; bench/run.py imports it
WORKERS_ENV = "TODA_CENSUS_WORKERS"


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the multi-start census.

    box_radius / starts default to None, meaning "derive from the lattice
    invariants and the root bound".  seed offsets the Halton sequence.
    """

    box_radius: float = None
    starts: int = None
    max_iter: int = 60
    polish_iter: int = 40
    accept_tol: float = 1e-10
    even_tol: float = 1e-8
    merge_tol: float = 1e-6
    seed: int = 0
    chunk: int = 512
    max_doublings: int = 3

    def resolved(self, g2, g3, bound):
        box = self.box_radius
        if box is None:
            box = 10.0 * (1.0 + abs(g2) ** 0.5 + abs(g3) ** (1.0 / 3.0))
        n = self.starts
        if n is None:
            n = 200 * bound
        return replace(self, box_radius=float(box), starts=int(n))

    def to_json_dict(self):
        return {
            "box_radius": self.box_radius,
            "starts": self.starts,
            "max_iter": self.max_iter,
            "polish_iter": self.polish_iter,
            "accept_tol": self.accept_tol,
            "even_tol": self.even_tol,
            "merge_tol": self.merge_tol,
            "seed": self.seed,
            "chunk": self.chunk,
            "max_doublings": self.max_doublings,
        }


@dataclass(frozen=True)
class RootCluster:
    """One merged solution of the apparency system.

    residual is the relative residual of the representative point (see
    _relative_residual); the census accepts points with residual <=
    SolverConfig.accept_tol."""

    B: complex
    D0: complex
    D: complex
    residual: float
    is_even: bool
    degenerate: bool
    hits: int
    sigma_min: float

    def to_json_dict(self):
        return {
            "B": [self.B.real, self.B.imag],
            "D0": [self.D0.real, self.D0.imag],
            "D": [self.D.real, self.D.imag],
            "residual": self.residual,
            "is_even": self.is_even,
            "degenerate": self.degenerate,
            "hits": self.hits,
            "sigma_min": self.sigma_min,
        }


@dataclass(frozen=True)
class CensusReport:
    """Census outcome for one lattice and multiplicity pair."""

    tau: complex
    n1: int
    n2: int
    g2: complex
    g3: complex
    bound: int
    total: int
    even_total: int
    clusters: tuple
    starts_used: int
    box_radius: float
    doublings: int
    config: SolverConfig
    notes: tuple = ()

    def to_json_dict(self):
        return {
            "tau": None if self.tau is None else [self.tau.real, self.tau.imag],
            "n1": self.n1,
            "n2": self.n2,
            "g2": [self.g2.real, self.g2.imag],
            "g3": [self.g3.real, self.g3.imag],
            "bound": self.bound,
            "total": self.total,
            "even_total": self.even_total,
            "clusters": [c.to_json_dict() for c in self.clusters],
            "starts_used": self.starts_used,
            "box_radius": self.box_radius,
            "doublings": self.doublings,
            "config": self.config.to_json_dict(),
            "notes": list(self.notes),
        }


@dataclass(frozen=True)
class EvenRoot:
    B: complex
    multiplicity: int
    residual: float

    def to_json_dict(self):
        return {
            "B": [self.B.real, self.B.imag],
            "multiplicity": self.multiplicity,
            "residual": self.residual,
        }


@dataclass(frozen=True)
class EvenReport:
    """Roots of the even-sector polynomial on one lattice."""

    tau: complex
    n1: int
    n2: int
    Ne: int
    g2: complex
    g3: complex
    poly_text: str
    roots: tuple

    def to_json_dict(self):
        return {
            "tau": None if self.tau is None else [self.tau.real, self.tau.imag],
            "n1": self.n1,
            "n2": self.n2,
            "Ne": self.Ne,
            "g2": [self.g2.real, self.g2.imag],
            "g3": [self.g3.real, self.g3.imag],
            "poly": self.poly_text,
            "roots": [r.to_json_dict() for r in self.roots],
        }


# ---------------------------------------------------------------------------
# low-discrepancy starts

_HALTON_BASES = (2, 3, 5, 7, 11, 13)


def _halton_block(offset, count):
    """Rows offset .. offset+count-1 of the Halton sequence in _HALTON_BASES.

    Each column is the radical inverse of the row index, digit by digit
    (f /= base; r += f * digit), over all rows at once; a row out of digits
    adds +0.0, so every entry is the same double as the one-row loop gives."""
    i0 = np.arange(offset, offset + count, dtype=np.int64)
    out = np.empty((count, len(_HALTON_BASES)))
    for c, b in enumerate(_HALTON_BASES):
        i = i0.copy()
        f = 1.0
        r = np.zeros(count)
        while i.any():
            f /= b
            r += f * (i % b)
            i //= b
        out[:, c] = r
    return out


def _starts_from_unit(u, scales):
    """Map (count, 6) unit-cube points to complex (B, D0, D) triples."""
    sB, sD0, sD = scales
    x = 2.0 * u - 1.0
    out = np.empty((len(u), 3), complex)
    out[:, 0] = sB * (x[:, 0] + 1j * x[:, 1])
    out[:, 1] = sD0 * (x[:, 2] + 1j * x[:, 3])
    out[:, 2] = sD * (x[:, 4] + 1j * x[:, 5])
    return out


# ---------------------------------------------------------------------------
# univariate roots (Aberth-Ehrlich)


def _horner_pair(coeffs, z):
    """p(z) and p'(z) for ascending coeffs, z an ndarray."""
    p = np.zeros_like(z)
    dp = np.zeros_like(z)
    for c in reversed(coeffs):
        dp = dp * z + p
        p = p * z + c
    return p, dp


def roots_univariate(coeffs, tol=1e-12, max_iter=200):
    """All complex roots of a polynomial with multiplicities.

    coeffs is ascending (coeffs[k] multiplies z**k).  Exactly-zero leading
    entries are stripped.  Returns a list of (root, multiplicity) pairs,
    sorted by (real, imag); nearby approximations within sqrt(tol)*(1+|z|)
    are merged and their multiplicity is the merged count.  Non-convergence
    emits InconclusiveWarning and returns the current (partial) state.
    """
    c = [complex(v) for v in coeffs]
    while c and c[-1] == 0:
        c.pop()
    n = len(c) - 1
    if n < 0:
        raise StructuralError("zero polynomial has no well-defined roots")
    if n == 0:
        return []
    lead = c[-1]
    cn = [v / lead for v in c]
    arr = np.array(cn, complex)
    radius = 1.0 + max(abs(v) for v in cn[:-1]) if n >= 1 else 1.0
    k = np.arange(n)
    z = 0.8 * radius * np.exp(2j * np.pi * (k / n + 0.1237))
    converged = False
    for _ in range(max_iter):
        p, dp = _horner_pair(arr, z)
        nr = np.where(dp != 0, p / np.where(dp != 0, dp, 1.0), tol)
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, 1.0)
        s = np.sum(1.0 / diff, axis=1) - 1.0  # undo the diagonal fill
        w = nr / (1.0 - nr * s)
        z = z - w
        if np.all(np.abs(w) <= tol * (1.0 + np.abs(z))):
            converged = True
            break
    if not converged:
        p, _ = _horner_pair(arr, z)
        if np.max(np.abs(p)) > math.sqrt(tol):
            warnings.warn(
                "root iteration did not converge; returning partial result",
                InconclusiveWarning,
            )
    # merge clusters; a multiplicity-mu root is only located to about
    # eps^(1/mu), so the radius must cover that scatter (single linkage
    # handles the chain where approximations straddle the true root)
    order = np.lexsort((z.imag, z.real))
    z = z[order]
    groups = []
    for zi in z:
        rad = (math.sqrt(tol) + 1e-5) * (1.0 + abs(zi))
        placed = False
        for g in groups:
            if any(abs(zi - m) <= rad for m in g):
                g.append(zi)
                placed = True
                break
        if not placed:
            groups.append([zi])
    out = []
    for members in groups:
        center = sum(members) / len(members)
        out.append((complex(center), len(members)))
    out.sort(key=lambda t: (t[0].real, t[0].imag))
    return out


# ---------------------------------------------------------------------------
# Newton engine


def _scaled_mag(B, D0, D, scales):
    sB, sD0, sD = scales
    return np.maximum(
        np.abs(B) / sB, np.maximum(np.abs(D0) / sD0, np.abs(D) / sD)
    )


# Newton drops a point once its relative residual (see _relative_residual)
# reaches these, in the damped loop and in the polish.  Converged points sit
# near 1e-16, the rounding floor of that measure.
_DAMPED_STOP = 1e-13
_POLISH_STOP = 1e-15


def _solve_steps(J, F):
    dets = np.abs(np.linalg.det(J))
    bad = ~np.isfinite(dets) | (dets < 1e-250)
    if bad.any():
        J = J.copy()
        J[bad] += np.eye(3) * 1e-8
    try:
        return np.linalg.solve(J, -F[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        out = np.zeros_like(F)
        for i in range(len(F)):
            try:
                out[i] = np.linalg.solve(J[i], -F[i])
            except np.linalg.LinAlgError:
                out[i] = np.linalg.lstsq(J[i], -F[i], rcond=None)[0]
        return out


def _newton_m0_batch(n1, n2, bnum, X0, scales, cfg):
    """Damped Newton + pure-Newton polish on a batch of starts.

    A point leaves each phase as soon as it has converged: when its relative
    residual (see _relative_residual), taken from the F and J that the
    iteration computes anyway, is <= _DAMPED_STOP in the damped loop or
    <= _POLISH_STOP in the polish.  Its absolute residual, known from the
    line search before J is computed, bounds the relative one from above
    and stops it at the same thresholds.  cfg.max_iter and cfg.polish_iter
    cap the phases.

    Returns (X, res, tail_prev, tail_last): best-so-far points, their
    residuals, and the last two scaled polish step sizes (for tail
    diagnostics; Inf when never polished)."""
    B = X0[:, 0].copy()
    D0 = X0[:, 1].copy()
    D = X0[:, 2].copy()
    S = len(B)

    def vres(B_, D0_, D_):
        with np.errstate(all="ignore"):
            F = m0_value_batch(n1, n2, bnum, B_, D0_, D_)
            return np.max(np.abs(F), axis=-1)

    rel = np.full(S, np.inf)  # relative residual at the current point, once known

    def moving(act, stop):
        """Indices of act still above stop, with their F and J; records
        the relative residual of every point in act."""
        idx = np.nonzero(act)[0]
        Ba, D0a, Da = B[idx], D0[idx], D[idx]
        with np.errstate(all="ignore"):
            F, J = m0_residual_batch(n1, n2, bnum, Ba, D0a, Da)
            rel[idx] = _relative(F, J, np.stack([Ba, D0a, Da], axis=1))
        go = ~(rel[idx] <= stop)
        return idx[go], F[go], J[go]

    res = vres(B, D0, D)
    for _ in range(cfg.max_iter):
        with np.errstate(all="ignore"):
            mag = _scaled_mag(B, D0, D, scales)
        act = (np.isfinite(res) & (res > _DAMPED_STOP) & ~(rel <= _DAMPED_STOP)
               & (mag < 1e8))
        if not act.any():
            break
        idx, F, J = moving(act, _DAMPED_STOP)
        if not len(idx):
            break
        Ba, D0a, Da = B[idx], D0[idx], D[idx]
        with np.errstate(all="ignore"):
            step = _solve_steps(J, F)
            sn = _scaled_mag(step[:, 0], step[:, 1], step[:, 2], scales)
        cap = np.where(sn > 2.0, 2.0 / np.maximum(sn, 1e-300), 1.0)
        step = step * cap[:, None]
        ra = res[idx]
        Bn = Ba + step[:, 0]
        D0n = D0a + step[:, 1]
        Dn = Da + step[:, 2]
        rn = vres(Bn, D0n, Dn)
        for _ in range(2):
            # only the points whose step grew the residual take a halved one
            w = np.flatnonzero(~(rn <= np.maximum(ra, cfg.accept_tol)))
            if not len(w):
                break
            step[w] *= 0.5
            Bn[w] = Ba[w] + step[w, 0]
            D0n[w] = D0a[w] + step[w, 1]
            Dn[w] = Da[w] + step[w, 2]
            rn[w] = vres(Bn[w], D0n[w], Dn[w])
        B[idx], D0[idx], D[idx] = Bn, D0n, Dn
        res[idx] = rn
        rel[idx] = np.inf

    # polish: pure Newton, keep the best visited point
    Bb, D0b, Db, rb = B.copy(), D0.copy(), D.copy(), res.copy()
    tail_prev = np.full(S, np.inf)
    tail_last = np.full(S, np.inf)
    near = np.isfinite(res) & (res <= max(cfg.accept_tol * 1e4, 1e-6))
    for _ in range(cfg.polish_iter):
        act = near & np.isfinite(res) & (res > _POLISH_STOP) & ~(rel <= _POLISH_STOP)
        if not act.any():
            break
        idx, F, J = moving(act, _POLISH_STOP)
        if not len(idx):
            break
        with np.errstate(all="ignore"):
            step = _solve_steps(J, F)
        Bn, D0n, Dn = B[idx] + step[:, 0], D0[idx] + step[:, 1], D[idx] + step[:, 2]
        rn = vres(Bn, D0n, Dn)
        sn = _scaled_mag(step[:, 0], step[:, 1], step[:, 2], scales)
        tail_prev[idx] = tail_last[idx]
        tail_last[idx] = sn
        B[idx], D0[idx], D[idx], res[idx] = Bn, D0n, Dn, rn
        rel[idx] = np.inf
        better = np.isfinite(res) & (res < rb)
        Bb[better], D0b[better], Db[better], rb[better] = (
            B[better], D0[better], D[better], res[better],
        )
    return np.stack([Bb, D0b, Db], axis=1), rb, tail_prev, tail_last


def _relative(F, J, X):
    size = np.sum(np.abs(J) * np.abs(X)[:, None, :], axis=-1)
    return np.max(np.abs(F) / np.maximum(size, 1.0), axis=-1)


def _relative_residual(n1, n2, bnum, X):
    """Residual of the census points X (S, 3) against the size of the
    equations there: max_i |F_i| / max(1, sum_k |dF_i/dx_k| |x_k|).

    The denominator is how far F_i moves when every parameter moves by its
    own size, so the ratio is about the relative change of (B, D0, D) that
    the residual amounts to.  It is the plain |F_i| wherever that sum is
    below 1.  An absolute tolerance would sit under the rounding floor at
    the largest roots: at |D| ~ 600 the double nearest a root already has
    |F| ~ 3e-10, while its relative residual stays near 1e-16.
    """
    with np.errstate(all="ignore"):
        F, J = m0_residual_batch(n1, n2, bnum, X[:, 0], X[:, 1], X[:, 2])
        return _relative(F, J, X)


# ---------------------------------------------------------------------------
# clustering


class _Clusters:
    """Greedy clusters of accepted census points in the scaled max-metric.

    A point joins the first cluster, in order of creation, whose centre lies
    within merge_tol of it, max_k |x_k - c_k| / scales_k <= merge_tol, and
    otherwise opens a new one.  A cluster's centre is its representative,
    the minimum-residual member.  Points come in by _cluster_points, a chunk
    at a time, each chunk in residual order: all points in one call give the
    from-scratch greedy merge, and chunk by chunk give the same clusters
    wherever no point lies within merge_tol of two centres."""

    def __init__(self, scales, merge_tol):
        self.inv_scales = 1.0 / np.array(scales)
        self.merge_tol = merge_tol
        self.centres = np.empty((0, 3), complex)  # scaled by 1 / scales
        self.rep = []                     # point index of each representative
        self.rep_res = []
        self.label = np.empty(0, int)     # cluster of each point added so far

    def __len__(self):
        return len(self.rep)


def _cluster_points(pts, res, clusters):
    """Add the points pts (S, 3) with residuals res to clusters, as the point
    indices that follow those added before; returns clusters."""
    c = clusters
    base = len(c.label)
    label = np.empty(len(pts), int)
    scaled = pts * c.inv_scales
    for i in np.argsort(res, kind="stable"):
        near = np.flatnonzero(np.abs(c.centres - scaled[i]).max(axis=1) <= c.merge_tol)
        if len(near):
            k = near[0]
            if res[i] < c.rep_res[k]:
                c.rep[k], c.rep_res[k], c.centres[k] = base + i, res[i], scaled[i]
        else:
            k = len(c.rep)
            c.rep.append(base + i)
            c.rep_res.append(res[i])
            c.centres = np.vstack([c.centres, scaled[i]])
        label[i] = k
    c.label = np.concatenate([c.label, label])
    return c


def _even_points(pts, even_tol):
    lim = even_tol * (1.0 + np.abs(pts[:, 0]))
    return (np.abs(pts[:, 1]) <= lim) & (np.abs(pts[:, 2]) <= lim)


def _structured_starts(n1, n2, g2, g3):
    """The origin and the even-sector roots lifted to (B, 0, 0)."""
    out = [np.zeros(3, complex)]
    try:
        ep = build_even_poly(n1, n2)
        asg = {"B": 0.0, "g2": complex(g2), "g3": complex(g3)}
        coeffs = [c.eval(asg) for c in ep.coeffs_in_B()]
        for r, _ in roots_univariate(coeffs, tol=1e-12):
            out.append(np.array([r, 0.0, 0.0], complex))
    except EvenNonexistenceError:
        pass
    return np.array(out)


def _run_census(n1, n2, bnum, g2, g3, cfg, warm=None):
    """Shared census engine; returns (clusters, starts_used, box, doublings,
    notes, cfg, bound).

    warm, an (S, 3) array of (B, D0, D), is Newton-solved as a first batch
    before any other start.  Theorem (i) bounds the number of solutions by
    the weighted-Bezout bound, so if that batch alone reaches it the census
    is complete; otherwise it goes on as without warm starts."""
    bound = bezout_bound([(n1, n2)])
    cfg = cfg.resolved(g2, g3, bound)
    box = cfg.box_radius
    budget = cfg.starts
    offset = 101 + 7919 * (cfg.seed % 1000003)

    # accepted points, their relative residuals and polish tails (prev, last)
    pts = np.empty((0, 3), complex)
    res = np.empty(0)
    tails = np.empty((0, 2))
    starts_used = 0
    doublings = 0
    notes = []

    def do_batch(X, sample_scales, metric_scales):
        nonlocal starts_used, pts, res, tails
        starts_used += len(X)
        Xb, rb, tp, tl = _newton_m0_batch(n1, n2, bnum, X, metric_scales, cfg)
        with np.errstate(all="ignore"):
            mag = _scaled_mag(Xb[:, 0], Xb[:, 1], Xb[:, 2], sample_scales)
        inside = np.isfinite(rb) & (mag < 5.0)
        rb = np.full(len(Xb), np.inf)
        rb[inside] = _relative_residual(n1, n2, bnum, Xb[inside])
        keep = rb <= cfg.accept_tol
        pts = np.concatenate([pts, Xb[keep]])
        res = np.concatenate([res, rb[keep]])
        tails = np.concatenate([tails, np.stack([tp[keep], tl[keep]], axis=1)])
        _cluster_points(Xb[keep], rb[keep], clusters)

    while True:
        # the cluster metric respects the scaling weights of the parameters;
        # the sampling box for D0 is deliberately wider (empirically the
        # largest |D0| among roots runs near |B|, not sqrt(|B|)); a new box
        # changes the metric, so the points so far are merged afresh
        metric_scales = (box, math.sqrt(box), box ** 1.5)
        sample_scales = (box, box, box ** 1.5)
        clusters = _Clusters(metric_scales, cfg.merge_tol)
        if doublings == 0 and warm is not None and len(warm):
            do_batch(warm, sample_scales, metric_scales)
        elif len(pts):
            _cluster_points(pts, res, clusters)
        consumed = 0
        first = True
        while consumed < budget and len(clusters) < bound:
            take = min(cfg.chunk, budget - consumed)
            u = _halton_block(offset, take)
            offset += take
            consumed += take
            X = _starts_from_unit(u, sample_scales)
            if first and doublings == 0:
                X = np.vstack([_structured_starts(n1, n2, g2, g3), X])
                first = False
            do_batch(X, sample_scales, metric_scales)
        if len(clusters) >= bound or doublings >= cfg.max_doublings:
            break
        doublings += 1
        box *= 2.0
        budget = max(cfg.chunk, cfg.starts // 2)
        notes.append("box doubled to %.3g after underfull census" % box)

    if not len(clusters):
        raise InconclusiveError(
            "no roots found within the start budget; the census is inconclusive"
        )
    if len(clusters) > bound:
        notes.append("cluster count exceeds the bound; spurious splits likely")

    # final diagnostics on cluster centers
    rep = np.array(clusters.rep)
    hits = np.bincount(clusters.label, minlength=len(rep))
    is_even = np.zeros(len(rep), bool)
    np.logical_or.at(is_even, clusters.label, _even_points(pts, cfg.even_tol))
    with np.errstate(all="ignore"):
        _, J = m0_residual_batch(
            n1, n2, bnum, pts[rep, 0], pts[rep, 1], pts[rep, 2]
        )
        sig = np.linalg.svd(J, compute_uv=False)

    out = []
    for gi, i in enumerate(rep):
        c = pts[i]
        tail_prev, tail_last = tails[i]
        smin, smax = sig[gi, -1], sig[gi, 0]
        tail_bad = bool(
            np.isfinite(tail_last) and tail_last > 1e-9
            and np.isfinite(tail_prev) and tail_last > 0.2 * tail_prev
        )
        degenerate = bool(smin <= 1e-8 * (1.0 + smax)) or tail_bad
        out.append(
            RootCluster(
                B=complex(c[0]),
                D0=complex(c[1]),
                D=complex(c[2]),
                residual=float(res[i]),
                is_even=bool(is_even[gi]),
                degenerate=degenerate,
                hits=int(hits[gi]),
                sigma_min=float(smin),
            )
        )
    out.sort(
        key=lambda cl: (
            round(cl.B.real, 9), round(cl.B.imag, 9),
            round(cl.D0.real, 9), round(cl.D0.imag, 9),
            round(cl.D.real, 9), round(cl.D.imag, 9),
        )
    )
    return tuple(out), starts_used, box, doublings, tuple(notes), cfg, bound


def _ordered_pair(n1, n2):
    if not (0 <= n1 < n2):
        raise StructuralError("need 0 <= n1 < n2")


def _m0_pair(problem):
    if not isinstance(problem, ProblemSpec):
        raise StructuralError("expected a ProblemSpec")
    if problem.m != 0:
        raise StructuralError("this census handles a single puncture")
    problem.require_noncritical()
    pk = problem.punctures[0]
    _ordered_pair(pk.n1, pk.n2)
    return pk.n1, pk.n2


def _census(n1, n2, tau, bnum, g2, g3, config, warm=None):
    clusters, used, box, doublings, notes, cfg, bound = _run_census(
        n1, n2, bnum, g2, g3, config or SolverConfig(), warm
    )
    return CensusReport(
        tau=tau,
        n1=n1,
        n2=n2,
        g2=g2,
        g3=g3,
        bound=bound,
        total=len(clusters),
        even_total=sum(1 for c in clusters if c.is_even),
        clusters=clusters,
        starts_used=used,
        box_radius=box,
        doublings=doublings,
        config=cfg,
        notes=notes,
    )


def solve_m0(problem, ctx=None, config=None):
    """Count and compute all solutions of the single-puncture system."""
    n1, n2 = _m0_pair(problem)
    if ctx is None:
        ctx = compute_invariants(problem.lattice)
    return _census(n1, n2, ctx.tau, ctx._bn_ext, ctx.g2, ctx.g3, config)


def solve_m0_degenerate(n1, n2, config=None):
    """Census on the fully degenerate lattice limit (g2 = g3 = 0).

    The system becomes weight-homogeneous, so the origin is the only
    candidate; this probe demonstrates how multiplicity collapses there and
    exercises the degenerate-root diagnostics."""
    n1, n2 = int(n1), int(n2)
    _ordered_pair(n1, n2)
    bnum = np.zeros(max(48, n1 + n2 + 5), complex)
    cfg = config or SolverConfig()
    if cfg.box_radius is None:
        cfg = replace(cfg, box_radius=10.0)
    return _census(n1, n2, None, bnum, 0j, 0j, cfg)


def solve_even(problem, ctx=None, config=None):
    """Roots (with multiplicity) of the even-sector polynomial."""
    n1, n2 = _m0_pair(problem)
    if ctx is None:
        ctx = compute_invariants(problem.lattice)
    cfg = config or SolverConfig()
    ep = build_even_poly(n1, n2)
    asg = {"B": 0.0, "g2": ctx.g2, "g3": ctx.g3}
    coeffs = [c.eval(asg) for c in ep.coeffs_in_B()]
    tol = min(1e-12, cfg.accept_tol)
    roots = []
    arr = np.array(coeffs, complex)
    for r, mult in roots_univariate(coeffs, tol=tol):
        pv, _ = _horner_pair(arr, np.array([r]))
        roots.append(EvenRoot(B=complex(r), multiplicity=mult, residual=float(abs(pv[0]))))
    return EvenReport(
        tau=ctx.tau,
        n1=n1,
        n2=n2,
        Ne=ep.Ne,
        g2=ctx.g2,
        g3=ctx.g3,
        poly_text=ep.poly.text(),
        roots=tuple(roots),
    )


# ---------------------------------------------------------------------------
# parameter scans


def _scan_cell(n1, n2, tau, config, warm):
    """One scan row, and the cell's cluster representatives (S, 3) as warm
    starts for the next cell (None when the census failed)."""
    row = {
        "tau_re": tau.real,
        "tau_im": tau.imag,
        "bound": None,
        "total": None,
        "even_total": None,
        "max_residual": None,
        "degenerate": None,
        "error": None,
    }
    try:
        ctx = compute_invariants(tau)
        rep = _census(n1, n2, ctx.tau, ctx._bn_ext, ctx.g2, ctx.g3, config, warm)
    except (InconclusiveError, EvaluationError) as e:
        row["error"] = str(e)
        return row, None
    row["bound"] = rep.bound
    row["total"] = rep.total
    row["even_total"] = rep.even_total
    row["max_residual"] = max((c.residual for c in rep.clusters), default=0.0)
    row["degenerate"] = sum(1 for c in rep.clusters if c.degenerate)
    return row, np.array([[c.B, c.D0, c.D] for c in rep.clusters], complex)


def scan_tau(n1, n2, grid, config=None):
    """Census over a rectangular lattice-parameter grid.

    grid = {re0, re1, nre, im0, im1, nim}; points with non-positive
    imaginary part are dropped.  Cells are solved, and rows come back, in
    row-major order (imag outer, real inner).

    The roots move continuously with tau, so each cell's census first runs
    Newton from the roots of a neighbour: cell (i, j) from those of
    (i, j - 1), and the first cell of a row from those of the first cell of
    the row before.  Once these warm starts reach the weighted-Bezout bound
    the cell is complete, since no census can find more; otherwise (the
    first cell, a cell after a failed one, or where roots collide, as for
    (0,4) at tau = i) the cell runs the full census of solve_m0 after them.
    """
    bezout_bound([(n1, n2)])  # validates the pair once, incl. criticality
    _ordered_pair(n1, n2)
    try:
        re0, re1, nre = grid["re0"], grid["re1"], int(grid["nre"])
        im0, im1, nim = grid["im0"], grid["im1"], int(grid["nim"])
    except KeyError as e:
        raise StructuralError("scan grid is missing %s" % e)
    if nre < 1 or nim < 1:
        raise StructuralError("grid sizes must be positive")
    rows = []
    row_start = None  # roots of the first cell of the row before
    for im in np.linspace(im0, im1, nim):
        if not im > 1e-9:
            continue
        warm = row_start
        for j, re in enumerate(np.linspace(re0, re1, nre)):
            row, warm = _scan_cell(n1, n2, complex(re, im), config, warm)
            rows.append(row)
            if j == 0:
                row_start = warm
    return rows
