"""Numerical root census for the single-puncture apparency system.

solve_m0 runs a multi-start damped-Newton search over the three accessory
parameters (B, D0, D), polishes every convergent trajectory with pure Newton
steps, merges results into clusters in weight-scaled coordinates, and reports
the count next to the weighted-Bezout bound.  Newton holds the points as one
(S, 3) array with F and J current at each: every move evaluates the new
points with their Jacobians, which the next step from there reuses.  An
iterate costs one kernel call, and a line search two more: the half step
is judged by value, and the step picked, the half step if it passes, else
the quarter step, is evaluated with its Jacobian.  Newton drops a point as
soon as its relative residual (see _relative) is <= 1e-13 in the damped
loop or <= 1e-15 in the polish, and returns it for every point, so
acceptance costs no further kernel call; _MAX_ITER and _POLISH_ITER only
cap the two phases.  The census keeps its accepted
points in one store, a record array with one record per point (its
residual, polish tails and Jacobian, and whether it is a Newton endpoint),
and runs its search boxes, the first and up to _MAX_DOUBLINGS doublings of
it, in one loop.  Halton starts run in
chunks sized by the bound: 7 starts per root, then twice the chunk before,
up to 2048, each cut to what is left of its box's budget.  Each chunk's
accepted points join the store and are merged into the clusters kept from
the chunks before; a new box changes the metric, so it clusters the store
afresh.  Theorem (i) bounds the number
of solutions by the weighted-Bezout bound, so a Halton chunk stops its
damped loop once its converged points, their mirrors (below) and the
clusters so far hold that many distinct roots; the polish and the
acceptance then run as for any batch.  The system is invariant under z -> -z, which maps a
solution (B, D0, D) to (B, -D0, -D) and fixes the even ones: while a
census is short of the bound, each non-even root found brings in its
mirror, whose residual and Jacobian follow from the root's by signs alone,
so the starts need to reach only one root of each pair.  Starting points
combine a low-discrepancy Halton cloud (deterministic for a fixed seed) with
structured seeds: the origin and the even-sector roots lifted to (B, 0, 0).
The seeds run first, as a Newton batch of their own, whenever their
endpoints and the mirrors of those could complete the census (bound - found
<= 2 * seeds), and the smallest pairs need no Halton start at all;
otherwise they join the first Halton chunk.  A start's endpoint does not
depend on its batch, and the Halton starts are drawn in the same order
either way.  The even sector is additionally solved on its own, from the
eigenvalues of the companion matrix of its polynomial, so the two counts
can be compared independently by callers and tests.

scan_tau runs the census over a tau grid: each cell first runs Newton from
the roots of its neighbour, and stops there if they reach the
weighted-Bezout bound, which no census can exceed; only a cell left short
runs the full multi-start search.  A cell whose warm starts land bound
distinct points skips the store and the clustering: its report is built
from those points directly.  A cell's neighbour lies on the
anti-diagonal before its own, so the cells are solved in waves, one
anti-diagonal at a time, and the warm starts of a whole wave are one Newton
batch: the kernels take a Laurent table per point, and Newton a metric
scale per point, so each start is solved as in a batch of its own lattice
and the rows are those of the cell-by-cell chain.  The census keeps
Newton's Jacobian at every accepted point, for sigma_min.  Every census
hands the kernels its lattice's Laurent table to b_{n1+n2+2}, the last
entry they read (EllipticContext.laurent), so a cell builds no more of it.

Scaling convention: under z -> lam * z the parameters transform with weights
B: lam^-2, D0: lam^-1, D: lam^-3, so step caps and the cluster metric live in
coordinates (B / r, D0 / sqrt(r), D / r^1.5) for a box radius r.  The box
radius is 10 times a size of the invariants, and the sample box, where
starts are drawn and points accepted, gives only that size the weight:
radii (r, r, 10 (r / 10)^1.5), with D0 as wide as B (see _sample_scales).
"""

import math
from dataclasses import dataclass

import numpy as np

from .apparency import (
    ProblemSpec,
    _weights,
    bezout_bound,
    build_even_poly,
    m0_pair,
    m0_residual_batch,
    m0_value_batch,
)
from .elliptic import compute_invariants
from .errors import (
    EvaluationError,
    EvenNonexistenceError,
    InconclusiveError,
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
    "SCAN_COLUMNS",
]

# read by nothing since scans run as one warm-started chain; bench/run.py imports it
WORKERS_ENV = "TODA_CENSUS_WORKERS"


# Fixed settings of the census: Newton's iteration caps in the damped loop
# and the polish, the tolerances that judge a point even and merge two
# points, the box doublings of an underfull census, the Halton starts of the
# first box per root of the bound, the fewest Halton starts a later box
# draws however small the bound, and the starts of the first Halton chunk
# per root and of the largest chunk (see _census).  The config block of a
# report records the knobs, these settings and the sizes they give the
# census (starts, chunk), all but _MIN_BOX_STARTS.
_MAX_ITER = 60
_POLISH_ITER = 40
_EVEN_TOL = 1e-8
_MERGE_TOL = 1e-6
_MAX_DOUBLINGS = 3
_HALTON_PER_ROOT = 200
_MIN_BOX_STARTS = 512
_CHUNK_PER_ROOT = 7
_MAX_CHUNK = 2048


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the multi-start census: the relative residual at which a
    point is accepted, and the offset of the Halton sequence.

    The first box is _first_box(g2, g3), and its Halton budget
    _HALTON_PER_ROOT * bound (a later box gets max(_MIN_BOX_STARTS,
    budget // 2)), drawn in chunks of _CHUNK_PER_ROOT * bound starts,
    doubling to _MAX_CHUNK; the structured seeds and a scan's warm starts
    run besides the budget, and the report's starts_used counts every start.
    """

    accept_tol: float = 1e-10
    seed: int = 0


# the safety factor of the first box over the size of the invariants
_BOX_FACTOR = 10.0


def _first_box(g2, g3):
    """Radius of the first search box, from the size of the invariants."""
    return _BOX_FACTOR * (1.0 + abs(g2) ** 0.5 + abs(g3) ** (1.0 / 3.0))


@dataclass(frozen=True)
class RootCluster:
    """One merged solution of the apparency system.

    residual is the relative residual of the representative point (see
    _relative); the census accepts points with residual <=
    SolverConfig.accept_tol.  hits counts the Newton endpoints in the
    cluster: the starts that Newton ran to acceptance before their chunk
    completed the census (a chunk's other starts stop where they are, and
    are not accepted unless the polish brings them there).  The mirrors
    (B, -D0, -D) of other clusters' roots that the census adds are members
    too, but not hits, so a cluster first reached as a mirror has hits 0."""

    B: complex
    D0: complex
    D: complex
    residual: float
    is_even: bool
    degenerate: bool
    hits: int
    sigma_min: float


@dataclass(frozen=True)
class CensusReport:
    """Census outcome for one lattice and multiplicity pair.

    config holds the eleven settings of the census: the knobs of
    SolverConfig, the first box (box_radius), its Halton budget (starts)
    and the first Halton chunk (chunk), and the fixed settings of solver."""

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
    config: dict
    notes: tuple = ()


@dataclass(frozen=True)
class EvenRoot:
    """One root of the even-sector polynomial P_Ne.  residual is
    |P_Ne(B)| / sum_k |c_k| |B|^k, relative to the size of the terms, as
    the census measures its roots (see _relative)."""

    B: complex
    multiplicity: int
    residual: float


@dataclass(frozen=True)
class EvenReport:
    """Roots of the even-sector polynomial on one lattice."""

    tau: complex
    n1: int
    n2: int
    Ne: int
    g2: complex
    g3: complex
    poly: str
    roots: tuple


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
# univariate roots (companion matrix)


def _horner_pair(coeffs, z):
    """p(z) and p'(z) for ascending coeffs, z an ndarray."""
    p = np.zeros_like(z)
    dp = np.zeros_like(z)
    for c in reversed(coeffs):
        dp = dp * z + p
        p = p * z + c
    return p, dp


def roots_univariate(coeffs, tol=1e-12):
    """All complex roots of a polynomial with multiplicities.

    coeffs is ascending (coeffs[k] multiplies z**k).  Exactly-zero leading
    entries are stripped.  The roots are the eigenvalues of the companion
    matrix of the monic polynomial (numpy.roots), a backward-stable method
    at these degrees (Edelman-Murakami, Math. Comp. 64, 1995).  Roots within
    (sqrt(tol) + 1e-5)*(1+|z|) of each other are merged into one, at their
    mean, whose multiplicity is the merged count; tol sets only this
    radius.  A root left alone by the merge takes one Newton step, kept
    where it lowers |p|.  Returns a list of (root, multiplicity) pairs,
    sorted by (real, imag).  Non-finite monic coefficients, or a failure of
    the eigenvalue solver, raise InconclusiveError.
    """
    c = [complex(v) for v in coeffs]
    while c and c[-1] == 0:
        c.pop()
    n = len(c) - 1
    if n < 0:
        raise StructuralError("zero polynomial has no well-defined roots")
    if n == 0:
        return []
    with np.errstate(all="ignore"):
        arr = np.array(c, complex) / c[-1]
    if not np.isfinite(arr).all():
        raise InconclusiveError("the monic polynomial has non-finite coefficients")
    try:
        z = np.roots(arr[::-1])
    except np.linalg.LinAlgError as e:
        raise InconclusiveError("companion matrix eigenvalues failed: %s" % e)
    # merge clusters; a multiplicity-mu root is only located to about
    # eps^(1/mu), so the radius must cover that scatter (single linkage
    # handles the chain where approximations straddle the true root)
    order = np.lexsort((z.imag, z.real))
    z = z[order]
    groups = []
    for zi in z:
        rad = (math.sqrt(tol) + 1e-5) * (1.0 + abs(zi))
        near = [g for g in groups if any(abs(zi - m) <= rad for m in g)]
        if near:
            near[0].append(zi)
        else:
            groups.append([zi])
    centre = np.array([sum(g) / len(g) for g in groups], complex)
    mult = np.array([len(g) for g in groups])
    with np.errstate(all="ignore"):
        p, dp = _horner_pair(arr, centre)
        step = centre - p / dp
        better = (mult == 1) & (np.abs(_horner_pair(arr, step)[0]) < np.abs(p))
    centre[better] = step[better]
    out = [(complex(r), int(m)) for r, m in zip(centre, mult)]
    out.sort(key=lambda t: (t[0].real, t[0].imag))
    return out


# ---------------------------------------------------------------------------
# Newton engine


def _scaled_mag(X, scales):
    """max_k |x_k| / scales_k of the points X (S, 3), for scales (3,) or one
    row per point (S, 3)."""
    a = np.abs(X) / scales
    return np.maximum(a[:, 0], np.maximum(a[:, 1], a[:, 2]))


# Newton drops a point once its relative residual (see _relative)
# reaches these, in the damped loop and in the polish.  Converged points sit
# near 1e-16, the rounding floor of that measure.
_DAMPED_STOP = 1e-13
_POLISH_STOP = 1e-15


def _det3(J):
    """Determinants of a stack of 3x3 matrices, by cofactors along the
    first row."""
    a, b, c, d, e, f, g, h, i = J.reshape(-1, 9).T
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _solve_steps(J, F):
    # the determinant only flags (near-)singular or non-finite J, which get
    # a small shift of the diagonal; the step itself comes from solve
    dets = np.abs(_det3(J))
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


def _newton_m0_batch(n1, n2, bnum, X0, scales, cfg, complete=None):
    """Damped Newton + pure-Newton polish on a batch of starts.

    The points are one (S, 3) array, and F, J and the relative residual (see
    _relative) are known at every point at every moment: each move of a
    point evaluates it with m0_residual_batch, and the next step from there
    reuses them.  A point whose full step grew its residual is judged at the
    half step, all such points in one m0_value_batch call, and takes the
    half step if that does not grow the residual, else the quarter step
    unjudged, evaluated in the same iterate.

    A point leaves each phase as soon as it has converged: when its relative
    residual is <= _DAMPED_STOP in the damped loop or <= _POLISH_STOP in the
    polish.  Its absolute residual bounds the relative one from above and
    stops it at the same thresholds.  _MAX_ITER and _POLISH_ITER cap the
    phases.  complete, when given, ends the damped loop early: after each
    iterate it gets the points (k, 3) that have just reached a relative
    residual <= min(_DAMPED_STOP, cfg.accept_tol), and once it returns True
    the remaining starts stop where they are and the polish runs.

    bnum is the Laurent table of the lattice (L,), or one column per start
    (L, S), and scales the metric scales (sB, sD0, sD), or one row per start
    (S, 3).  Every kernel call gets the columns of the points it evaluates,
    so one batch solves the starts of several lattices, each bit for bit as
    a batch of its own would.

    Returns (X, res, rel, J, tail_prev, tail_last): best-so-far points,
    their absolute and relative residuals and Jacobians (rel and J are
    known wherever res is finite), and the last two scaled polish step sizes
    (for tail diagnostics; Inf when never polished)."""
    X = np.array(X0, complex)
    S = len(X)
    sc = np.asarray(scales, float)
    F = np.empty((S, 3), complex)
    J = np.empty((S, 3, 3), complex)
    res = np.empty(S)
    rel = np.empty(S)
    # the points handed to complete so far, and the relative residual at
    # which a point is handed
    handed = np.zeros(S, bool)
    done = min(_DAMPED_STOP, cfg.accept_tol)

    def table(idx):
        return bnum if np.ndim(bnum) == 1 else bnum[:, idx]

    def scales_at(idx):
        return sc if sc.ndim == 1 else sc[idx]

    def move(idx, Xn):
        """Move the points idx to Xn, with F, J and residuals there."""
        with np.errstate(all="ignore"):
            Fn, Jn = m0_residual_batch(n1, n2, table(idx), *Xn.T)
            X[idx], F[idx], J[idx] = Xn, Fn, Jn
            res[idx] = np.max(np.abs(Fn), axis=-1)
            rel[idx] = _relative(Fn, Jn, Xn)

    move(slice(None), X)
    for _ in range(_MAX_ITER):
        with np.errstate(all="ignore"):
            mag = _scaled_mag(X, sc)
        idx = np.flatnonzero(np.isfinite(res) & (res > _DAMPED_STOP) & (mag < 1e8)
                             & ~(rel <= _DAMPED_STOP))
        if not len(idx):
            break
        Xa, ra = X[idx], res[idx]
        with np.errstate(all="ignore"):
            step = _solve_steps(J[idx], F[idx])
            sn = _scaled_mag(step, scales_at(idx))
        cap = np.where(sn > 2.0, 2.0 / np.maximum(sn, 1e-300), 1.0)
        step = step * cap[:, None]
        move(idx, Xa + step)
        # only the points whose step grew the residual take a shorter one:
        # the half step if one value call finds that it does not grow it,
        # else the quarter step, unjudged
        w = np.flatnonzero(~(res[idx] <= np.maximum(ra, cfg.accept_tol)))
        if len(w):
            half = step[w] * 0.5
            T = Xa[w] + half
            with np.errstate(all="ignore"):
                Ft = m0_value_batch(n1, n2, table(idx[w]), *T.T)
                rt = np.max(np.abs(Ft), axis=-1)
            fail = ~(rt <= np.maximum(ra[w], cfg.accept_tol))
            T[fail] = Xa[w][fail] + half[fail] * 0.5
            move(idx[w], T)
        if complete is not None:
            new = np.flatnonzero(~handed & (rel <= done))
            handed[new] = True
            if len(new) and complete(X[new]):
                break

    # polish: pure Newton, keep the best visited point
    Xb, rb, relb, Jb = X.copy(), res.copy(), rel.copy(), J.copy()
    tail_prev = np.full(S, np.inf)
    tail_last = np.full(S, np.inf)
    near = np.isfinite(res) & (res <= max(cfg.accept_tol * 1e4, 1e-6))
    for _ in range(_POLISH_ITER):
        idx = np.flatnonzero(near & np.isfinite(res) & (res > _POLISH_STOP)
                             & ~(rel <= _POLISH_STOP))
        if not len(idx):
            break
        with np.errstate(all="ignore"):
            step = _solve_steps(J[idx], F[idx])
            sn = _scaled_mag(step, scales_at(idx))
        move(idx, X[idx] + step)
        tail_prev[idx] = tail_last[idx]
        tail_last[idx] = sn
        better = np.isfinite(res) & (res < rb)
        Xb[better], rb[better], relb[better], Jb[better] = (
            X[better], res[better], rel[better], J[better])
    return Xb, rb, relb, Jb, tail_prev, tail_last


def _relative(F, J, X):
    """Residual of the points X (S, 3), with F and J there, against the size
    of the equations: max_i |F_i| / max(1, sum_k |dF_i/dx_k| |x_k|).

    The denominator is how far F_i moves when every parameter moves by its
    own size, so the ratio is about the relative change of (B, D0, D) that
    the residual amounts to.  It is the plain |F_i| wherever that sum is
    below 1.  An absolute tolerance would sit under the rounding floor at
    the largest roots: at |D| ~ 600 the double nearest a root already has
    |F| ~ 3e-10, while its relative residual stays near 1e-16.
    """
    size = np.sum(np.abs(J) * np.abs(X)[:, None, :], axis=-1)
    return np.max(np.abs(F) / np.maximum(size, 1.0), axis=-1)


# ---------------------------------------------------------------------------
# clustering


class _Clusters:
    """Greedy clusters of accepted census points in the scaled max-metric.

    A point joins the first cluster, in order of creation, whose centre lies
    within _MERGE_TOL of it, max_k |x_k - c_k| / scales_k <= _MERGE_TOL, and
    otherwise opens a new one.  A cluster's centre is its representative,
    the minimum-residual member.  Points come in by _cluster_points, a chunk
    at a time, each chunk in residual order: all points in one call give the
    from-scratch greedy merge, and chunk by chunk give the same clusters
    wherever no point lies within _MERGE_TOL of two centres."""

    def __init__(self, scales):
        self.inv_scales = 1.0 / np.array(scales)
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
        near = np.flatnonzero(np.abs(c.centres - scaled[i]).max(axis=1) <= _MERGE_TOL)
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


def _even_points(pts):
    lim = _EVEN_TOL * (1.0 + np.abs(pts[:, 0]))
    return (np.abs(pts[:, 1]) <= lim) & (np.abs(pts[:, 2]) <= lim)


def _in_sample_box(X, sample_scales):
    """Which points X (S, 3) lie close enough to the sample box to be
    accepted: within five times its scales."""
    with np.errstate(all="ignore"):
        return _scaled_mag(X, sample_scales) < 5.0


def _completion_test(clusters, bound, sample_scales):
    """The completeness test that a census hands to a Newton chunk.

    complete(X) takes the points that have just converged and says whether
    they, the points handed before, the mirrors of the non-even ones and the
    centres of clusters hold bound distinct roots in the cluster metric
    (greedy, within _MERGE_TOL).  Only points that the census's acceptance
    would take count (_in_sample_box)."""
    centres = clusters.centres

    def complete(X):
        nonlocal centres
        X = X[_in_sample_box(X, sample_scales)]
        new = np.concatenate([X, X[~_even_points(X)] * _SIGMA]) * clusters.inv_scales
        new = new[~np.any(np.abs(centres[:, None] - new).max(axis=-1) <= _MERGE_TOL, axis=0)]
        while len(new):
            centres = np.vstack([centres, new[:1]])
            new = new[np.abs(new - new[0]).max(axis=1) > _MERGE_TOL]
        return len(centres) >= bound

    return complete


def _structured_starts(n1, n2, g2, g3):
    """The origin and the even-sector roots lifted to (B, 0, 0)."""
    out = [np.zeros(3, complex)]
    try:
        coeffs = build_even_poly(n1, n2).coeffs_at(g2, g3)
        for r, _ in roots_univariate(coeffs, tol=1e-12):
            out.append(np.array([r, 0.0, 0.0], complex))
    except EvenNonexistenceError:
        pass
    return np.array(out)


def _metric_scales(box):
    """Cluster metric and Newton step scales of (B, D0, D) in a box of
    radius box, by the scaling weights of the parameters."""
    return box, math.sqrt(box), box ** 1.5


def _sample_scales(box):
    """Radii of (B, D0, D) in which a box of radius box draws its starts and
    accepts points.  D has weight 3/2 against B's 1 (lam^-3 and lam^-2), but
    box is _BOX_FACTOR times a size of the invariants, and only that size
    takes the weight: D's radius is _BOX_FACTOR * (box / _BOX_FACTOR)^1.5,
    not box^1.5, which would raise the safety factor to the 3/2 as well.
    D0 keeps B's radius, wider than its weight gives (empirically the
    largest |D0| among roots runs near |B|, not sqrt(|B|))."""
    return box, box, _BOX_FACTOR * (box / _BOX_FACTOR) ** 1.5


def _mirror_signs(n1, n2):
    """Signs s of the equations under sigma(B, D0, D) = (B, -D0, -D), the
    z -> -z symmetry (lam = -1 in the scaling weights): F(sigma x) = s F(x)
    and J(sigma x) = s J(x) _SIGMA, bit for bit: s_i = (-1)^w_i for the
    weights w of (P1, P2, P3)."""
    return np.array([(-1.0) ** w for w in _weights(n1, n2)])


_SIGMA = np.array([1.0, -1.0, -1.0])

# A census's accepted points, one record each: the point, its relative
# residual, polish tails (prev, last) and Jacobian; endpoint marks Newton's
# points, the others being mirrors.
_POINT = np.dtype([("x", complex, 3), ("res", float), ("tails", float, 2),
                   ("J", complex, (3, 3)), ("endpoint", bool)])


def _accepted(batch, sample_scales, accept_tol):
    """The records of the points that a census accepts from a Newton batch
    (what _newton_m0_batch returned): finite, near the sample box
    (_in_sample_box) and with relative residual <= accept_tol."""
    X, res, rel, J, tail_prev, tail_last = batch
    keep = np.isfinite(res) & _in_sample_box(X, sample_scales) & (rel <= accept_tol)
    rows = np.zeros(np.count_nonzero(keep), _POINT)
    rows["x"], rows["res"], rows["J"] = X[keep], rel[keep], J[keep]
    rows["tails"] = np.stack([tail_prev[keep], tail_last[keep]], axis=1)
    rows["endpoint"] = True
    return rows


def _distinct(pts, scales):
    """Whether every two of the points pts (S, 3) lie farther apart than
    _MERGE_TOL in the cluster metric of scales, by the arithmetic of
    _cluster_points, which then opens one cluster per point."""
    scaled = pts * (1.0 / np.array(scales))
    d = np.abs(scaled[:, None] - scaled).max(axis=-1)
    return bool((d[~np.eye(len(pts), dtype=bool)] > _MERGE_TOL).all())


def _add(store, rows, clusters):
    """The store with rows appended, after merging them into clusters."""
    _cluster_points(rows["x"], rows["res"], clusters)
    return np.concatenate([store, rows])


def _mirror_rows(store, reps, signs):
    """The mirrors sigma(r) of the non-even points r among the store indices
    reps, each a copy of r's record with D0 and D negated and J times
    signs."""
    rows = store[np.array(reps, int)]
    rows = rows[~_even_points(rows["x"])]
    rows["x"][:, 1:] = -rows["x"][:, 1:]
    rows["J"] *= signs
    rows["endpoint"] = False
    return rows


def _census(n1, n2, tau, bnum, g2, g3, config, warm=None):
    """Shared census engine; returns the CensusReport.

    The accepted points live in one store, a record array of _POINT that
    _add alone grows.  Box k of the one box loop has radius
    _first_box(g2, g3) * 2**k, k <= _MAX_DOUBLINGS, and the loop ends at the
    first box whose clusters reach the weighted-Bezout bound, which by
    theorem (i) no census exceeds.  A later box changes the cluster metric,
    so it merges the store afresh before its Halton chunks.

    The Halton starts run in one sequence of chunks: the first holds
    _CHUNK_PER_ROOT starts per root of the bound (and the seeds, where they
    join it), and each later chunk twice as many as the one before, up to
    _MAX_CHUNK.  Every chunk is cut to what is left of its box's budget,
    _HALTON_PER_ROOT * bound for the first box and max(_MIN_BOX_STARTS,
    that // 2) for a later one, and the sequence carries on across box
    doublings.  A census that one small chunk completes leaves few starts
    in flight when its last root lands, and one that needs many starts
    runs them in few kernel calls.  The Halton draws run in one order
    whatever the chunk sizes; only the cuts between chunks depend on them.

    The first box runs two stages of its own first.  warm is what
    _newton_m0_batch returned for a batch of warm starts, solved in the
    metric of the first box: its points are taken before any other start,
    and if they reach the bound the census is complete.  Where exactly
    bound of them are accepted, every two farther apart than _MERGE_TOL
    (_distinct), the census ends before the store: the greedy clustering
    would open one cluster per point, in residual order, add no mirror and
    run no chunk, so report builds the result from the points themselves.  Then the structured
    seeds run as a batch of their own when bound - found <= 2 * len(seeds),
    since each endpoint adds at most its own cluster and its mirror's;
    otherwise they join the first Halton chunk.

    sigma(x) = (B, -D0, -D) is a solution with x, and the even ones are its
    fixed points.  A batch that leaves the census short of the bound is
    followed by the mirror sigma(r) of the non-even representative r of
    every cluster that batch opened (the clusters kept from before had
    theirs when they opened): its F, J, relative residual and polish
    tails are those of r up to signs, so it costs no kernel call.
    Mirrors are clustered like Newton endpoints, but only endpoints count
    as hits.

    Every Halton chunk (not the seeds alone, nor warm starts) gets the
    census's _completion_test: Newton stops the chunk's damped loop once its
    converged points, their mirrors and the clusters so far hold bound
    distinct roots.  The acceptance, the mirrors and the clustering then
    judge the chunk's output as any other's: a stop changes which endpoints
    the census sees, not how it judges them, and by theorem (i) the roots
    counted at the stop are all there are.

    Every accepted point keeps Newton's J there, so sigma_min at the
    representatives costs no kernel call either."""
    bound = bezout_bound([(n1, n2)])
    cfg = config or SolverConfig()
    first_box = _first_box(g2, g3)
    starts = _HALTON_PER_ROOT * bound
    chunk = size = min(_CHUNK_PER_ROOT * bound, _MAX_CHUNK)
    offset = 101 + 7919 * (cfg.seed % 1000003)
    signs = _mirror_signs(n1, n2)[:, None] * _SIGMA
    store = np.empty(0, _POINT)
    starts_used = 0 if warm is None else len(warm[0])
    notes = []

    def report(top, is_even, hits, box, doublings):
        """The report of the cluster representatives top (records of
        _POINT), their evenness and hits.  A root is degenerate where J is
        near singular or the polish steps stopped shrinking."""
        with np.errstate(all="ignore"):
            sig = np.linalg.svd(top["J"], compute_uv=False)
        prev, last = top["tails"].T
        degenerate = (sig[:, -1] <= 1e-8 * (1.0 + sig[:, 0])) | (
            np.isfinite(prev) & np.isfinite(last) & (last > 1e-9) & (last > 0.2 * prev))
        out = [RootCluster(B=complex(x[0]), D0=complex(x[1]), D=complex(x[2]),
                           residual=float(res), is_even=bool(even), degenerate=bool(degen),
                           hits=int(h), sigma_min=float(smin))
               for x, res, even, degen, h, smin
               in zip(top["x"], top["res"], is_even, degenerate, hits, sig[:, -1])]
        out.sort(
            key=lambda cl: (
                round(cl.B.real, 9), round(cl.B.imag, 9),
                round(cl.D0.real, 9), round(cl.D0.imag, 9),
                round(cl.D.real, 9), round(cl.D.imag, 9),
            )
        )
        return CensusReport(
            tau=tau,
            n1=n1,
            n2=n2,
            g2=g2,
            g3=g3,
            bound=bound,
            total=len(out),
            even_total=sum(1 for c in out if c.is_even),
            clusters=tuple(out),
            starts_used=starts_used,
            box_radius=box,
            doublings=doublings,
            config={
                **vars(cfg), "box_radius": first_box, "starts": starts,
                "max_iter": _MAX_ITER, "polish_iter": _POLISH_ITER, "even_tol": _EVEN_TOL,
                "merge_tol": _MERGE_TOL, "chunk": chunk, "max_chunk": _MAX_CHUNK,
                "max_doublings": _MAX_DOUBLINGS,
            },
            notes=tuple(notes),
        )

    if warm is not None:
        # the warm points alone may be the census (see above)
        rows = _accepted(warm, _sample_scales(first_box), cfg.accept_tol)
        if len(rows) == bound and _distinct(rows["x"], _metric_scales(first_box)):
            top = rows[np.argsort(rows["res"], kind="stable")]
            return report(top, _even_points(top["x"]), np.ones(bound, int), first_box, 0)

    def accept(store, batch):
        """The store with a Newton batch's accepted points and, while the
        census is short of the bound, the mirrors they bring."""
        first = len(clusters)
        store = _add(store, _accepted(batch, sample_scales, cfg.accept_tol), clusters)
        if len(clusters) < bound:
            rows = _mirror_rows(store, clusters.rep[first:], signs)
            if len(rows):
                store = _add(store, rows, clusters)
        return store

    for doublings in range(_MAX_DOUBLINGS + 1):
        box = first_box * 2.0 ** doublings
        if doublings:
            notes.append("box doubled to %.3g after underfull census" % box)
        # the cluster metric respects the scaling weights of the parameters;
        # the sample box weighs only the size of the invariants, not the
        # safety factor over it, and is wider in D0 (_sample_scales)
        metric_scales = _metric_scales(box)
        sample_scales = _sample_scales(box)
        clusters = _Clusters(metric_scales)
        if len(store):
            _cluster_points(store["x"], store["res"], clusters)
        seeds = np.empty((0, 3), complex)  # the seeds that join the first chunk
        if not doublings:
            if warm is not None:
                store = accept(store, warm)
            if len(clusters) < bound:
                seeds = _structured_starts(n1, n2, g2, g3)
                if bound - len(clusters) <= 2 * len(seeds):
                    starts_used += len(seeds)
                    store = accept(store, _newton_m0_batch(n1, n2, bnum, seeds,
                                                           metric_scales, cfg))
                    seeds = seeds[:0]
        budget = max(_MIN_BOX_STARTS, starts // 2) if doublings else starts
        consumed = 0
        while consumed < budget and len(clusters) < bound:
            take = min(size, budget - consumed)
            u = _halton_block(offset, take)
            offset += take
            consumed += take
            size = min(2 * size, _MAX_CHUNK)
            X = np.vstack([seeds, _starts_from_unit(u, sample_scales)])
            seeds = seeds[:0]
            starts_used += len(X)
            complete = _completion_test(clusters, bound, sample_scales)
            store = accept(store, _newton_m0_batch(n1, n2, bnum, X, metric_scales, cfg,
                                                   complete))
        if len(clusters) >= bound:
            break

    if not len(clusters):
        raise InconclusiveError(
            "no roots found within the start budget; the census is inconclusive"
        )
    if len(clusters) > bound:
        notes.append("cluster count exceeds the bound; spurious splits likely")

    top = store[np.array(clusters.rep)]
    hits = np.bincount(clusters.label[store["endpoint"]], minlength=len(top))
    is_even = np.zeros(len(top), bool)
    np.logical_or.at(is_even, clusters.label, _even_points(store["x"]))
    return report(top, is_even, hits, box, doublings)


def _m0_pair(problem):
    if not isinstance(problem, ProblemSpec):
        raise StructuralError("expected a ProblemSpec")
    if problem.m != 0:
        raise StructuralError("this census handles a single puncture")
    return m0_pair(problem.punctures[0].n1, problem.punctures[0].n2)


def solve_m0(problem, ctx=None, config=None):
    """Count and compute all solutions of the single-puncture system."""
    n1, n2 = _m0_pair(problem)
    if ctx is None:
        ctx = compute_invariants(problem.lattice)
    return _census(n1, n2, ctx.tau, ctx.laurent(n1 + n2 + 2), ctx.g2, ctx.g3, config)


def solve_m0_degenerate(n1, n2, config=None):
    """Census on the fully degenerate lattice limit (g2 = g3 = 0).

    The system becomes weight-homogeneous, so the origin is the only
    candidate; this probe demonstrates how multiplicity collapses there and
    exercises the degenerate-root diagnostics."""
    n1, n2 = m0_pair(n1, n2)
    bnum = np.zeros(n1 + n2 + 3, complex)
    return _census(n1, n2, None, bnum, 0j, 0j, config)


def solve_even(problem, ctx=None, config=None):
    """Roots (with multiplicity) of the even-sector polynomial."""
    n1, n2 = _m0_pair(problem)
    if ctx is None:
        ctx = compute_invariants(problem.lattice)
    cfg = config or SolverConfig()
    ep = build_even_poly(n1, n2)
    coeffs = ep.coeffs_at(ctx.g2, ctx.g3)
    tol = min(1e-12, cfg.accept_tol)
    roots = []
    arr = np.array(coeffs, complex)
    for r, mult in roots_univariate(coeffs, tol=tol):
        p = abs(_horner_pair(arr, np.array([r]))[0][0])
        size = np.polyval(np.abs(arr[::-1]), abs(r))
        roots.append(EvenRoot(B=complex(r), multiplicity=mult,
                              residual=float(p / size) if size else 0.0))
    return EvenReport(
        tau=ctx.tau,
        n1=n1,
        n2=n2,
        Ne=ep.Ne,
        g2=ctx.g2,
        g3=ctx.g3,
        poly=ep.poly.text(),
        roots=tuple(roots),
    )


# ---------------------------------------------------------------------------
# parameter scans


# the keys of a scan row, in order; also the CSV columns of a scan
SCAN_COLUMNS = ("tau_re", "tau_im", "bound", "total", "even_total", "max_residual",
                "degenerate", "error")


def _scan_row(tau, rep=None, error=None):
    """One scan row, from the cell's census report or its error."""
    counts = (None,) * 5
    if rep is not None:
        counts = (rep.bound, rep.total, rep.even_total,
                  max((c.residual for c in rep.clusters), default=0.0),
                  sum(1 for c in rep.clusters if c.degenerate))
    return dict(zip(SCAN_COLUMNS, (tau.real, tau.imag, *counts, error)))


def _warm_wave(n1, n2, cells, cfg):
    """Newton on the warm starts of every cell of one wave, as one batch:
    each start with its own lattice's Laurent table and first-box metric.
    cells holds (ctx, warm starts); returns each cell's share of the
    _newton_m0_batch output."""
    sizes = [len(w) for _, w in cells]
    tables = np.repeat(np.stack([ctx.laurent(n1 + n2 + 2) for ctx, _ in cells], axis=1),
                       sizes, axis=1)
    scales = np.repeat([_metric_scales(_first_box(ctx.g2, ctx.g3)) for ctx, _ in cells],
                       sizes, axis=0)
    X0 = np.concatenate([w for _, w in cells])
    out = _newton_m0_batch(n1, n2, tables, X0, scales, cfg)
    cuts = np.cumsum(sizes)[:-1]
    return [tuple(part) for part in zip(*(np.split(a, cuts) for a in out))]


def scan_tau(n1, n2, grid, config=None):
    """Census over a rectangular lattice-parameter grid.

    grid = {re0, re1, nre, im0, im1, nim}; points with non-positive
    imaginary part are dropped, and a grid with none left is a
    StructuralError.  Rows come back in row-major order (imag
    outer, real inner).

    The roots move continuously with tau, so each cell's census first runs
    Newton from the roots of a neighbour: cell (i, j) from those of
    (i, j - 1), and the first cell of a row from those of the first cell of
    the row before.  Once these warm starts reach the weighted-Bezout bound
    the cell is complete, since no census can find more; otherwise (the
    first cell, a cell after a failed one, or where roots collide, as for
    (0,4) at tau = i) the cell runs the full census of solve_m0 after them.

    A cell depends only on a neighbour on the anti-diagonal i + j before its
    own, so the cells are solved in waves, one anti-diagonal at a time: the
    warm starts of every cell of a wave are one Newton batch, each start
    with its own lattice's table and box, and then each cell finishes its
    census (a fallback included) before the next wave starts.  Newton
    treats every start on its own, so the rows are those of the cell-by-cell
    chain, bit for bit.
    """
    n1, n2 = m0_pair(n1, n2)
    try:
        re0, re1, nre = grid["re0"], grid["re1"], int(grid["nre"])
        im0, im1, nim = grid["im0"], grid["im1"], int(grid["nim"])
    except KeyError as e:
        raise StructuralError("scan grid is missing %s" % e)
    if nre < 1 or nim < 1:
        raise StructuralError("grid sizes must be positive")
    cfg = config or SolverConfig()
    ims = [im for im in np.linspace(im0, im1, nim) if im > 1e-9]
    if not ims:
        raise StructuralError("scan grid has no point with Im tau > 0")
    reals = np.linspace(re0, re1, nre)
    rows = {}
    roots = {}  # (i, j) -> cluster representatives (S, 3), None after an error
    for t in range(len(ims) + nre - 1):
        wave = []  # (cell, tau, ctx, warm starts or None)
        for i in range(max(0, t - nre + 1), min(len(ims), t + 1)):
            j = t - i
            tau = complex(reals[j], ims[i])
            try:
                ctx = compute_invariants(tau)
            except (InconclusiveError, EvaluationError) as e:
                rows[i, j], roots[i, j] = _scan_row(tau, error=str(e)), None
                continue
            warm = roots.get((i, j - 1) if j else (i - 1, 0))
            wave.append(((i, j), tau, ctx, warm))
        warm_cells = [(ctx, w) for _, _, ctx, w in wave if w is not None]
        solved = iter(_warm_wave(n1, n2, warm_cells, cfg) if warm_cells else ())
        for cell, tau, ctx, warm in wave:
            try:
                rep = _census(n1, n2, ctx.tau, ctx.laurent(n1 + n2 + 2), ctx.g2, ctx.g3,
                              config, None if warm is None else next(solved))
            except (InconclusiveError, EvaluationError) as e:
                rows[cell], roots[cell] = _scan_row(tau, error=str(e)), None
                continue
            rows[cell] = _scan_row(tau, rep)
            roots[cell] = np.array([[c.B, c.D0, c.D] for c in rep.clusters], complex)
    return [rows[i, j] for i in range(len(ims)) for j in range(nre)]
