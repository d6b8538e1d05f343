"""Monodromy validation and field reconstruction for census roots.

A root of the apparency system determines the third-order equation

    y''' + W2(z) y' + W3(z) y = 0

with doubly periodic coefficients.  This module transports fundamental
frames along planned paths (Taylor steps of fixed order built from the
coefficient jets), extracts the two period monodromies and the local loop
matrices, checks the scalar local condition and the commutator identity
N1 N2 N1^-1 N2^-1 = eps I, searches for an invariant Hermitian form
(unitarization), and reconstructs the two field profiles whose PDE residuals
certify the root end to end.  One engine, _walk, carries every transport by
multiple shooting: it walks a list of paths in lockstep, each from the
identity and on its own steps, and takes the Taylor frames of all paths and
roots from one Leibniz sweep per step; frames then follow by 3 x 3
products.  The two period paths stay whole, and each local loop is three
arcs in the same walk, its matrix the product of theirs.  The
reconstruction reaches the grid by a breadth-first tree of hops between
neighbouring grid points, rooted next to the base point.  Its hops are
walked in groups of _GRID_N in tree order, each from the identity Taylor
stacks at both its ends, so a group's sweeps hold at most _GRID_N + 1
points and no stacks of the whole grid are held; the finite-difference
stencil of every root at every point a group reaches is one array pass.
Every root stays in the walk to the last group, so no root's steps depend
on another's frame degenerating.  Every function that takes roots takes
a list of parameter vectors, one result per root; verify_root is the one
single-root shorthand.

Conventions fixed here: a transport T along a path maps initial data
(y, y', y'') at the start to data at the end, composing as T(q after p) =
T(q) T(p); monodromy matrices act on the solution row basis, which makes
them the transposes of the data transports.  Local loops are positively
oriented circles around the punctures, each walked as three arcs in chords
as long as the step control allows.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .apparency import _param_vec
from .elliptic import compute_invariants, lattice_distance
from .errors import (
    EvaluationError,
    PathClearanceError,
    StructuralError,
)

__all__ = [
    "MonodromyReport",
    "UnitarizeResult",
    "ode_coefficients",
    "plan_path",
    "transport",
    "monodromy_pair",
    "unitarize",
    "reconstruct_and_check",
    "verify_root",
    "verify_roots",
]


# ---------------------------------------------------------------------------
# ODE coefficients


class _OdeCoeffs:
    """W2, W3 and their z-derivatives for a batch of S parameter vectors.

    With the jets of P and zeta at z - p_k for each puncture p_k,

        W2 = -B - sum_k (alpha_k P + B_k zeta),
        W3 = D + sum_k (D_k P + beta_k P' + A_k zeta),

    and zeta^(j) = -P^(j-1) for j >= 1.  So the j-th derivatives of every
    root at a point are one product of the coefficient matrix C, shape
    (2, S, 1 + 3(m+1)) with rows (-B, -alpha_k, 0, -B_k) for W2 and
    (D, D_k, beta_k, A_k) for W3, with the basis whose column j is
    (delta_j0, P_k^(j), P_k^(j+1), zeta_k^(j)) over the punctures.  One
    ``ctx.jet`` call per puncture builds the basis at a point.
    """

    def __init__(self, problem, ctx, params):
        pvs = [_param_vec(problem, p) for p in params]
        mp1 = len(problem.punctures)

        self.ctx = ctx
        self.points = [complex(pk.p) for pk in problem.punctures]
        C = np.zeros((2, len(pvs), 1 + 3 * mp1), complex)
        C[0, :, 0] = [-pv.B for pv in pvs]
        C[1, :, 0] = [pv.D for pv in pvs]
        for k, pk in enumerate(problem.punctures):
            c = 1 + 3 * k
            C[0, :, c] = -float(pk.alpha)
            C[0, :, c + 2] = [-pv.Bk[k] for pv in pvs]
            C[1, :, c] = [pv.Dk[k] for pv in pvs]
            C[1, :, c + 1] = float(pk.beta)
            C[1, :, c + 2] = [pv.A[k] for pv in pvs]
        self.C = C

    @property
    def size(self):
        return self.C.shape[1]

    def derivs(self, z, n):
        """Arrays (W2^(j)), (W3^(j)) of shape (S, n+1), j = 0..n."""
        basis = np.zeros((self.C.shape[2], n + 1), complex)
        basis[0, 0] = 1.0
        for k, p in enumerate(self.points):
            wp, zv = self.ctx.jet(z - p, n + 1)
            c = 1 + 3 * k
            basis[c] = wp[:-1]
            basis[c + 1] = wp[1:]
            basis[c + 2, 0] = zv
            basis[c + 2, 1:] = -wp[:-2]
        W = self.C @ basis
        return W[0], W[1]


def ode_coefficients(problem, ctx, params, z):
    """(W2(z), W3(z)) as length-S arrays, one entry per parameter vector."""
    W2, W3 = _OdeCoeffs(problem, ctx, params).derivs(z, 0)
    return W2[:, 0], W3[:, 0]


# ---------------------------------------------------------------------------
# geometry helpers


def _singular_translates(problem, ctx):
    """Lattice translates of all punctures covering the working region: each
    puncture reduced to the cell around 0, moved by up to two periods."""
    k = range(-2, 3)
    return np.array([p + mm + nn * ctx.tau
                     for p in (ctx.reduce_point(pk.p)[0] for pk in problem.punctures)
                     for mm in k for nn in k], complex)


def _min_dist(z, sing):
    return float(np.min(np.abs(sing - z)))


def _worst_violation(a, b, sing, clearance):
    """Detour waypoint for the segment a -> b past the singularity sing[k]
    nearest to it, or None when every one keeps the clearance.

    The distances of all singularities come from one array pass, written
    with real arithmetic so each is the double the complex expression
    abs(s - (a + t d)) gives.  Among near ties the first in sing wins: a
    later one replaces the nearest so far only when it is closer by a
    relative 1e-12, which only the few within the clearance are checked for.
    """
    d = b - a
    L = abs(d)
    if L == 0:
        return None
    t = ((sing.real - a.real) * d.real + (sing.imag - a.imag) * d.imag) / (L * L)
    t = np.clip(t, 0.0, 1.0)
    dist = np.hypot(sing.real - (a.real + t * d.real), sing.imag - (a.imag + t * d.imag))
    hits = np.flatnonzero(dist < clearance * (1.0 - 1e-12))
    if not len(hits):
        return None
    k = hits[0]
    for i in hits[1:]:
        if dist[i] < dist[k] * (1.0 - 1e-12):
            k = i
    best = sing[k]
    # deterministic detour: push the waypoint to the left of the direction
    n = 1j * d / L
    return best + 1.5 * clearance * n


def plan_path(a, b, sing, clearance):
    """Polyline from a to b keeping the requested clearance.

    Straight where possible; otherwise deterministic left-side waypoints are
    inserted next to each violating singularity until every segment clears.
    """
    a, b = complex(a), complex(b)
    sing = np.asarray(sing, complex)
    for ep in (a, b):
        if len(sing) and _min_dist(ep, sing) < clearance * (1.0 - 1e-9):
            raise PathClearanceError(
                "path endpoint sits closer than the clearance to a singularity"
            )
    verts = [a, b]
    for _ in range(64):
        out = [verts[0]]
        changed = False
        for va, vb in zip(verts, verts[1:]):
            w = _worst_violation(va, vb, sing, clearance)
            if w is not None:
                out.append(w)
                changed = True
            out.append(vb)
        verts = out
        if not changed:
            return verts
        if len(verts) > 200:
            break
    raise PathClearanceError("no clear path found within the detour budget")


def _segment(za, zb):
    """The segment za -> zb as a path: the point at arc length s, the length."""
    dz = zb - za
    L = abs(dz)
    return (lambda s: za + (s / L) * dz), L


def _arc(center, radius, t0, t1):
    """The positively oriented arc of |z - center| = radius from angle t0 to
    t1 > t0, as a path: the point at arc length s, the length.  The circle
    from center + radius is the arc from 0 to 2 pi."""
    return (lambda s: center + radius * cmath.exp(1j * (t0 + s / radius))), radius * (t1 - t0)


# ---------------------------------------------------------------------------
# Taylor transport

TRANSPORT_RTOL = 1e-11  # default relative tolerance of every transport
_ORDER = 26  # Taylor order of every step and reconstruction stack
_SAFETY = 0.8  # share of the radius at which the series tail reaches tol
_POLE_CAP = 0.6  # largest step, as a share of the distance to a singularity
_MAX_STEPS = 200000
_FACT = np.array([math.factorial(k) for k in range(_ORDER + 3)], float)
# -1/((k+1)(k+2)) and -1/((k+1)(k+2)(k+3)) take y^(k+3)/k! to u_{k+3}, a_{k+3}
_LEIBNIZ = np.array([[-1.0 / ((k + 1) * (k + 2)), -1.0 / ((k + 1) * (k + 2) * (k + 3))]
                     for k in range(_ORDER)])[..., None]


def _frames(coeffs, zs, Y):
    """Derivative stacks (P, S, _ORDER+3, 3), row k = y^(k) for k = 0..
    _ORDER+2, of the frames Y (P, S, 3, 3) at the points zs, one per path,
    for the S roots of the batch coeffs: one Leibniz sweep over P * S rows.

    The sweep runs on Taylor coefficients a_i = y^(i)/i! (the Cauchy-product
    form of Corliss and Chang, ACM TOMS 8, 1982).  With w_j = W^(j)/j! and
    u_i = y^(i)/(i-1)!, y''' = -W2 y' - W3 y gives

        y^(k+3)/k! = -sum_j (w2_j u_{k+1-j} + w3_j a_{k-j}),

    one product of the reversed, interleaved w row with x, which holds
    u_{i+1} at 2i and a_i at 2i + 1; the two quotients u_{k+3} (at 2k + 4)
    and a_{k+3} (at 2k + 7) are written through one stride-3 slot."""
    P, S = Y.shape[:2]
    K = _ORDER
    W = np.array([coeffs.derivs(z, K - 1) for z in zs])  # (P, 2, S, K)
    # w2_{K-1-i} at 2i, w3_{K-1-i} at 2i + 1
    wr = (W / _FACT[:K])[..., ::-1].transpose(0, 2, 3, 1).reshape(P * S, 1, 2 * K)
    del W  # not held through the sweep
    y = Y.reshape(P * S, 3, 3)
    x = np.zeros((P * S, 2 * (K + 3), 3), complex)
    x[:, 0] = x[:, 3] = y[:, 1]
    x[:, 1] = y[:, 0]
    x[:, 2] = y[:, 2]
    x[:, 5] = 0.5 * y[:, 2]
    # a frame that overflows turns to inf and NaN here; the step size
    # control then gives up on it
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(K):
            np.multiply(wr[..., 2 * (K - 1 - k):] @ x[:, :2 * k + 2], _LEIBNIZ[k],
                        out=x[:, 2 * k + 4:2 * k + 8:3])
        return (x[:, 1::2] * _FACT[:, None]).reshape(P, S, K + 3, 3)


def _eval_taylor(stack, delta, rows):
    """Rows 0..rows-1 of derivative stacks (..., n, 3) moved by delta, a
    scalar or an array that broadcasts against stack's leading axes: row i
    is sum_k stack[..., k + i] delta^k / k! over k = 0..n-rows, one product
    with the banded (rows, n) matrix of the weights delta^k / k!."""
    n = stack.shape[-2]
    m = n - rows + 1
    w = np.asarray(delta)[..., None] ** np.arange(m) / _FACT[:m]
    band = np.zeros(w.shape[:-1] + (rows, n), complex)
    for i in range(rows):
        band[..., i, i:i + m] = w
    return band @ stack


def _step(stack, Y, zs, sing, rtol):
    """The steps h (P,) of the paths from their frames Y (P, S, 3, 3) at
    the points zs and their _frames stacks: _SAFETY times the radius at
    which the last two terms of the path's worst root reach that root's
    atol + rtol * max|Y|, and at most _POLE_CAP of the distance to the
    nearest singularity."""
    K = _ORDER
    tol = rtol * 1e-2 + rtol * np.abs(Y).reshape(len(Y), -1, 9).max(axis=2)
    # |y^(j)| for j = K-1..K+2, the largest over each frame row
    m = np.abs(stack[:, :, K - 1:]).max(axis=3)
    with np.errstate(divide="ignore"):
        radius = np.minimum(
            (tol * _FACT[K] / m[..., 1:].max(axis=2)) ** (1.0 / K),
            (tol * _FACT[K - 1] / m[..., :3].max(axis=2)) ** (1.0 / (K - 1)),
        )
    return np.minimum(_SAFETY * radius.min(axis=1),
                      _POLE_CAP * np.abs(sing - np.asarray(zs)[:, None]).min(axis=1))


def _walk(coeffs, paths, sing, rtol, stacks=None, ends=None):
    """Transports (P, S, 3, 3) of dY/dz = A(z) Y along every path at once,
    one per path and root of the batch coeffs: each path's frames start
    from the identity.

    A path is the vertex list of a polyline or one _arc.  stacks, if given,
    are the _frames stacks (S, _ORDER+3, 3) of the identity frames at the
    starts, one per path, and serve the first step.  Each path keeps its
    own arc position and its own Taylor steps of order _ORDER, of the
    length _step gives; a step's chord is no longer, and it ends at each
    vertex.  No step is rejected, and a step that is not finite gives up at
    once.  The frames of the paths still walking come from one _frames
    sweep per step; no path's numbers depend on the others.

    ends, if given, are the identity stacks at the ends of polylines, one
    per path.  After every step, a path on its last segment whose end stack
    reaches back over what remains finishes from it: the frames at the end
    follow from that step back, inverted, and the path needs no further
    sweep.  So a path whose two end stacks meet costs no sweep.
    """
    # each path's pieces still to walk, the first at arc length s[p]
    pieces = [[path] if callable(path[0])
              else [_segment(complex(a), complex(b)) for a, b in zip(path, path[1:])]
              for path in paths]
    s = [0.0] * len(paths)
    Y = _identity(len(paths), coeffs.size)
    if ends is not None:
        last = np.array([complex(path[-1]) for path in paths])
        back = _step(np.array(ends), Y, last, sing, rtol)
    for _ in range(_MAX_STEPS):
        for p, path in enumerate(pieces):
            while path and s[p] >= path[0][1]:
                path.pop(0)
                s[p] = 0.0
        live = [p for p, path in enumerate(pieces) if path]
        if not live:
            return Y
        zs = [pieces[p][0][0](s[p]) for p in live]
        stack = (_frames(coeffs, zs, Y[live]) if stacks is None
                 else np.array([stacks[p] for p in live]))
        stacks = None
        h = _step(stack, Y[live], zs, sing, rtol)
        if not np.all(h >= 1e-14 * np.array([pieces[p][0][1] for p in live])):  # NaN too
            raise EvaluationError("transport step size underflow")
        delta = np.empty((len(live), 1), complex)
        stop, stop_delta = [], []
        for n, (p, z) in enumerate(zip(live, zs)):
            at, length = pieces[p][0]
            s[p] = min(s[p] + float(h[n]), length)
            zn = at(s[p])
            delta[n] = zn - z
            if ends is not None and len(pieces[p]) == 1 and 0 < length - s[p] <= back[p]:
                stop.append(p)
                stop_delta.append(zn - last[p])
                s[p] = length
        Y[live] = _eval_taylor(stack, delta, 3)
        stack = None  # not held through the next sweep
        if stop:
            back_stack = np.array([ends[p] for p in stop])
            Y[stop] = np.linalg.solve(_eval_taylor(back_stack, np.array(stop_delta)[:, None], 3),
                                      Y[stop])
    raise EvaluationError("transport exceeded the step budget")


def _identity(P, S):
    """P x S identity frames."""
    return np.tile(np.eye(3, dtype=complex), (P, S, 1, 1))


def transport(problem, ctx, params, path):
    """Fundamental transports (S, 3, 3) along path, the vertex list of a
    polyline or one _arc, one per parameter vector, in lockstep; columns
    carry initial data.  The one-path case of _walk, at the default
    tolerance.
    """
    coeffs = _OdeCoeffs(problem, ctx, params)
    return _walk(coeffs, [path], _singular_translates(problem, ctx), TRANSPORT_RTOL)[0]


# ---------------------------------------------------------------------------
# reports


@dataclass
class UnitarizeResult:
    ok: bool
    reason: str
    H: np.ndarray = None
    N1_normal: np.ndarray = None
    N2_normal: np.ndarray = None
    unitary_residual: float = None
    normal_residual: float = None


@dataclass
class MonodromyReport:
    """Everything measured about one root's monodromy."""

    tau: complex
    epsilon: complex
    N1: np.ndarray
    N2: np.ndarray
    local: tuple
    local_scalars: tuple
    local_scalar_residuals: tuple
    eps_residual: float
    det_drift: float
    base_point: complex
    loop_radius: float
    rtol: float
    unitarizable: bool = None
    H: np.ndarray = None
    pde_residual: float = None
    even_residual: float = None
    notes: tuple = ()


# ---------------------------------------------------------------------------
# monodromy extraction


def _geometry(problem, ctx):
    """Base point, loop clearance, local radius, singular translates."""
    tau = ctx.tau
    sing = _singular_translates(problem, ctx)
    min_sep = math.inf
    pts = [pk.p for pk in problem.punctures]
    # pairwise separation modulo the lattice
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            min_sep = min(min_sep, lattice_distance(pts[i] - pts[j], tau))
    eps0 = 0.1 * min(1.0, ctx.lam_min, min_sep)
    # base the loops as far from every pole as the cell allows: transports
    # that hug a pole lose digits to the exponent spread of the solutions
    fracs = (0.5, 0.375, 0.625, 0.25, 0.75, 0.4375, 0.5625)
    q0, best = None, -1.0
    for a in fracs:
        for b in fracs:
            cand = a + b * tau
            d = _min_dist(cand, sing)
            if d > best:
                best, q0 = d, cand
    if best < eps0:
        raise PathClearanceError("could not place a base point")
    clearance = 0.8 * eps0 * min(1.0, tau.imag)
    return q0, clearance, 2.5 * eps0, sing


def monodromy_pair(problem, ctx, params, rtol=TRANSPORT_RTOL):
    """Period monodromies, local loop matrices, and their residuals: one
    report per parameter vector, all roots transported in lockstep along
    both period paths and the three arcs of every local loop in one _walk.
    """
    coeffs = _OdeCoeffs(problem, ctx, params)
    tau = ctx.tau
    q0, clearance, r_loc, sing = _geometry(problem, ctx)

    # each local loop is three arcs, walked from the identity with the two
    # period paths; its transport is the product of theirs
    paths = [plan_path(q0, q0 + 1, sing, clearance), plan_path(q0, q0 + tau, sing, clearance)]
    paths += [_arc(ctx.reduce_point(pk.p)[0], r_loc, 2 * math.pi * k / 3, 2 * math.pi * (k + 1) / 3)
              for pk in problem.punctures for k in range(3)]
    # both period paths start at q0: one identity stack there serves both
    starts = [q0] + [at(0.0) for at, _ in paths[2:]]
    stacks = _frames(coeffs, starts, _identity(len(starts), coeffs.size))
    T1, T2, *arcs = _walk(coeffs, paths, sing, rtol, stacks[[0, *range(len(starts))]])
    loops = [c @ b @ a for a, b, c in zip(arcs[::3], arcs[1::3], arcs[2::3])]
    local_scalars = tuple(cmath.exp(-2j * math.pi * float(pk.gamma1))
                          for pk in problem.punctures)
    eps = problem.epsilon

    reports = []
    for r in range(coeffs.size):
        # monodromy acts on the solution basis: transpose of the data transport
        N1 = T1[r].T.copy()
        N2 = T2[r].T.copy()
        comm = N1 @ N2 @ np.linalg.inv(N1) @ np.linalg.inv(N2)
        eps_residual = float(np.max(np.abs(comm - eps * np.eye(3))))
        det_drift = max(abs(np.linalg.det(T1[r]) - 1.0), abs(np.linalg.det(T2[r]) - 1.0))
        local = []
        local_res = []
        for T, s in zip(loops, local_scalars):
            M = T[r].T
            local.append(M)
            local_res.append(float(np.max(np.abs(M - s * np.eye(3)))))
            det_drift = max(det_drift, abs(np.linalg.det(M) - 1.0))
        reports.append(MonodromyReport(
            tau=tau,
            epsilon=eps,
            N1=N1,
            N2=N2,
            local=tuple(local),
            local_scalars=local_scalars,
            local_scalar_residuals=tuple(local_res),
            eps_residual=eps_residual,
            det_drift=float(det_drift),
            base_point=q0,
            loop_radius=r_loc,
            rtol=rtol,
        ))
    return reports


# ---------------------------------------------------------------------------
# unitarization

_NULL_THRESHOLD = 1e-8  # singular values below this share of the largest span the null space


def _invariant_form(N1, N2):
    """Singular values of H -> (H - Nj^H H Nj)_j, j = 1, 2, and the Hermitian
    H of unit norm that its last right singular vector gives.

    On column-major vec(H) the map is I - kron(Nj^T, Nj^H), and the SVD runs
    on the two stacked (18 x 9, complex).  Its null space is closed under
    H -> H^H, so its singular values are those of the real operator on the
    9 Hermitian coordinates, and the null vector is a Hermitian matrix up to
    a phase: the phase of its largest diagonal entry is divided out, and the
    result symmetrized."""
    A = np.concatenate([np.eye(9) - np.kron(N.T, N.conj().T) for N in (N1, N2)])
    _, S, Vh = np.linalg.svd(A)
    H = Vh[-1].conj().reshape(3, 3, order="F")
    d = np.diag(H)
    H = H * np.exp(-1j * np.angle(d[np.argmax(np.abs(d))]))
    return S, 0.5 * (H + H.conj().T)


def unitarize(report):
    """Invariant positive Hermitian form for the two period monodromies.

    Solves H = Nj^H H Nj for Hermitian H by one SVD (_invariant_form);
    requires the report to satisfy the commutator identity first.  H is
    definite when its smallest eigenvalue is above 1e-8 of its largest,
    which _invariant_form makes positive.  On success fills report.H /
    report.unitarizable and returns the transformed normal forms: N1
    diagonal (1, eps, eps^2), N2 the cyclic permutation matrix.  Past the
    commutator guard U1's spectrum is {l, eps l, eps^2 l} with l^3 = det N1
    = 1 to transport accuracy, so the eigenvalue nearest each of 1, eps,
    eps^2 picks each eigenvector once.
    """
    if report.eps_residual > 1e-4:
        raise StructuralError(
            "commutator residual too large; unitarization is meaningless"
        )
    S, H = _invariant_form(report.N1, report.N2)
    if S[-1] > _NULL_THRESHOLD * S[0]:
        report.unitarizable = False
        return UnitarizeResult(ok=False, reason="no invariant Hermitian form")
    lam = np.linalg.eigvalsh(H)
    if not lam[0] > 1e-8 * lam[-1]:
        report.unitarizable = False
        return UnitarizeResult(ok=False, reason="invariant form is not definite")
    Lc = np.linalg.cholesky(H)
    P = Lc.conj().T
    Pinv = np.linalg.inv(P)
    U1 = P @ report.N1 @ Pinv
    U2 = P @ report.N2 @ Pinv
    unit_res = max(
        float(np.max(np.abs(U1.conj().T @ U1 - np.eye(3)))),
        float(np.max(np.abs(U2.conj().T @ U2 - np.eye(3)))),
    )

    eps = report.epsilon
    targets = np.array([1.0, eps, eps * eps])
    w, V = np.linalg.eig(U1)
    # the eigenvectors in the order of targets, orthonormalized
    Q, _ = np.linalg.qr(V[:, np.argmin(np.abs(w - targets[:, None]), axis=1)])
    N1n = Q.conj().T @ U1 @ Q
    N2n = Q.conj().T @ U2 @ Q
    # the diagonal similarity by d = (1, a, ab) that takes N2n's cycle
    # entries a = N2n[1, 0] and b = N2n[2, 1] to 1
    d = np.array([1.0, N2n[1, 0], N2n[1, 0] * N2n[2, 1]])
    N1n, N2n = (N * d / d[:, None] for N in (N1n, N2n))
    normal_res = max(
        float(np.max(np.abs(N1n - np.diag(targets)))),
        float(np.max(np.abs(N2n - np.roll(np.eye(3), 1, axis=0)))),
    )
    report.unitarizable = True
    report.H = H
    return UnitarizeResult(
        ok=True,
        reason="",
        H=H,
        N1_normal=N1n,
        N2_normal=N2n,
        unitary_residual=unit_res,
        normal_residual=normal_res,
    )


# ---------------------------------------------------------------------------
# reconstruction


_FD_STEP = 1e-3  # step of the finite-difference Laplacians
_GRID_N = 8  # reconstruction grid: _GRID_N x _GRID_N points of the cell
_EXCLUSION = 0.1  # grid points this close to a puncture are left out
# the stencil points z + _FD_STEP * d, their Taylor weights (h d)^k / k!
# over the _ORDER + 2 terms a stack gives for y and y', and the weights of
# the fourth-order central-difference Laplacian over them, times 12 h^2
_OFFSETS = np.array([0, 1, -1, 2, -2, 1j, -1j, 2j, -2j])
_SHIFT = (_FD_STEP * _OFFSETS[:, None]) ** np.arange(_ORDER + 2) / _FACT[:_ORDER + 2]
_LAPLACIAN = np.array([-60, 16, 16, -1, -1, 16, 16, -1, -1], float)
_NEXT = [1, 2, 0]  # component i + 1 mod 3


def _stencil(stacks, P, scale):
    """(u0, PDE residual, ok) at one grid point for each root, from the
    Taylor stacks (S, _ORDER+3, 3) there and the invariant frames P
    (S, 3, 3) with the factors 0.25 |det P|^(-2/3), 0.25 |det P|^(-4/3)
    as scale (S, 2).

    All roots are moved to all _OFFSETS at once.  ok is False for a root
    whose frame degenerates (eU or eV not > 0) at some offset; its u0 and
    residual mean nothing."""
    n = stacks.shape[1] - 1
    Y = _SHIFT @ np.stack([stacks[:, :n], stacks[:, 1:]], axis=1)  # y, y' (S, 2, 9, 3)
    # P y as one 3-vector product each, rounded as for a single frame
    Y = (P[:, None, None] @ Y[..., None])[..., 0]
    yt, ytd = Y[:, 0], Y[:, 1]
    # |P y|^2, and |P y ^ P y'|^2 from the Wronskians w01, w12, w20
    w = yt * ytd[..., _NEXT] - ytd * yt[..., _NEXT]
    r = np.stack([np.sum(np.abs(yt) ** 2, axis=2), np.sum(np.abs(w) ** 2, axis=2)], axis=1)
    e = scale[..., None] * r  # eU, eV (S, 2, 9)
    ok = np.all(e > 0, axis=(1, 2))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        uv = -np.log(e)
        # u0 from libm's log, which numpy's vector log can miss by an ulp
        uv[ok, 0, 0] = [-math.log(x) for x in e[ok, 0, 0]]
        lap = uv @ _LAPLACIAN / (12 * _FD_STEP * _FD_STEP)
        # the residuals of Lap u + e^(2u - v) and Lap v + e^(2v - u)
        res = np.abs(lap + np.exp(2 * uv[:, :, 0] - uv[:, ::-1, 0])).max(axis=1)
    return uv[:, 0, 0], res, ok


def _hop_tree(kept, grid, q0):
    """The reconstruction's hops (a, b) in walk order, with q0 as key None:
    a breadth-first tree over the kept grid points and their 4-neighbours,
    rooted at the kept point nearest q0, so that no hop passes over a point
    left out.  Each point joins by its shortest hop from the level before
    its own.  A kept piece that no neighbour reaches is entered from the
    nearest point reached so far."""
    at = {None: q0, **grid}

    def length(hop):
        return abs(at[hop[1]] - at[hop[0]])

    hops, todo = [], [key for key in grid if kept[key]]
    while todo:
        # the first hop into the grid or into a piece not reached yet
        level = [min(((a, b) for a in [None] + [b for _, b in hops] for b in todo), key=length)]
        while level:
            hops += level
            ends = [b for _, b in level]
            todo = [key for key in todo if key not in ends]
            near = ([(a, (i, j)) for a in ends if abs(a[0] - i) + abs(a[1] - j) == 1]
                    for i, j in todo)
            level = [min(joins, key=length) for joins in near if joins]
    return hops


def reconstruct_and_check(problem, ctx, params, reports, rtol=TRANSPORT_RTOL):
    """Reconstruct both field profiles on a grid and measure PDE residuals.

    reports are the roots' unitarized monodromy reports (report.H set), one
    per parameter vector.  All roots share one tree of hops (_hop_tree),
    each with the frame of its invariant form: from the base point of
    _geometry to the kept grid point nearest it, then breadth first between
    kept 4-neighbours, so no hop passes over a point left out and no point
    is more than about 2 _GRID_N hops from the base point.  Every hop is
    walked from the identity, from both its ends' Taylor stacks (see
    _walk), in groups of _GRID_N hops in lockstep taken in tree order; the
    stacks new to a group come from one _frames call, and a point's frame
    is its hop's transport times the frame where the hop starts.  Each
    group's stencil runs right after its walk, and only the points that
    later hops start from keep their frames and stacks.  Every root stays
    in the walk to the last group; one mask collects each group's stencil
    verdict.  Returns one entry per root: the pair (pde_residual,
    even_residual), also written to its report, or, for a root whose frame
    degenerated at some grid point, an EvaluationError, its report left
    untouched.
    even_residual compares each root's u0 at z and at its reflection 2c - z,
    with c the puncture reduced to the cell around 0 when there is one
    puncture (its solutions are even about it) and c = 0 otherwise; the grid
    is laid around c.  It is None when the kept grid is not symmetric under
    that reflection.
    """
    coeffs = _OdeCoeffs(problem, ctx, params)
    S = coeffs.size
    Lc = np.linalg.cholesky(np.array([rep.H for rep in reports]))
    P = Lc.conj().transpose(0, 2, 1)
    detP = np.prod(np.diagonal(Lc, axis1=1, axis2=2), axis=1)
    scale = np.array([[0.25 * abs(d) ** (-2.0 / 3.0), 0.25 * abs(d) ** (-4.0 / 3.0)]
                      for d in detP.tolist()])

    tau = ctx.tau
    q0, _, r_loc, sing = _geometry(problem, ctx)
    clearance = min(0.05, 0.8 * r_loc)
    c = ctx.reduce_point(problem.punctures[0].p)[0] if problem.m == 0 else 0j

    # point (i, j) is entry [i, j] of the grid arrays, negative i and j from
    # the end, so z -> 2c - z, (i, j) -> (-1 - i, -1 - j), reverses both axes
    ks = range(-(_GRID_N // 2), _GRID_N // 2)
    grid = {(i, j): c + ((i + 0.5) / _GRID_N) + ((j + 0.5) / _GRID_N) * tau
            for j in ks for i in ks}
    kept = np.zeros((_GRID_N, _GRID_N), bool)
    for key, z in grid.items():
        kept[key] = _min_dist(z, sing) >= _EXCLUSION
    if not kept.any():
        raise StructuralError("reconstruction grid is empty")
    hops = _hop_tree(kept, grid, q0)
    at = {None: q0, **grid}

    U = np.zeros((S, _GRID_N, _GRID_N))  # u0 of each root at each point
    pde_res = np.zeros(S)
    ok = np.ones(S, bool)  # no frame of the root has degenerated
    # at the points reached that later hops start from: each root's frame Y,
    # and the Taylor stacks G of the identity frames there.  The frame's
    # stack is G @ Y, and G serves the first step of a hop from there
    Y, G = {None: _identity(1, S)[0]}, {}
    for g in range(0, len(hops), _GRID_N):
        group = hops[g:g + _GRID_N]
        starts, ends = zip(*group)
        new = [key for key in dict.fromkeys(starts + ends) if key not in G]
        G.update(zip(new, _frames(coeffs, [at[key] for key in new], _identity(len(new), S))))
        T = _walk(coeffs, [plan_path(at[a], at[b], sing, clearance) for a, b in group],
                  sing, rtol, [G[a] for a in starts], [G[b] for b in ends])
        for (a, b), Tb in zip(group, T):
            Y[b] = Tb @ Y[a]
        n = len(group)
        u0, res, good = (v.reshape(n, -1) for v in _stencil(
            np.array([G[b] @ Y[b] for b in ends]).reshape(-1, _ORDER + 3, 3),
            np.tile(P, (n, 1, 1)), np.tile(scale, (n, 1))))
        for (i, j), u in zip(ends, u0):
            U[:, i, j] = u
        pde_res = np.fmax(pde_res, res.max(axis=0))
        ok &= good.all(axis=0)
        later = {a for a, _ in hops[g + _GRID_N:]}
        G = {a: G[a] for a in G if a in later}
        Y = {a: Y[a] for a in Y if a in later}

    even_res = [None] * S
    if np.array_equal(kept, kept[::-1, ::-1]):
        even_res = np.abs(U - U[:, ::-1, ::-1])[:, kept].max(axis=1).tolist()
    results = []
    for rep, good, pde, even in zip(reports, ok.tolist(), pde_res.tolist(), even_res):
        if good:
            rep.pde_residual, rep.even_residual = pde, even
            results.append((pde, even))
        else:
            results.append(EvaluationError("degenerate frame during reconstruction"))
    return results


def _verify_batch(problem, ctx, params, rtol):
    """verify_roots on one batch; a give-up of a transport shared by more
    than one root propagates."""
    reports = monodromy_pair(problem, ctx, params, rtol=rtol)
    for rep in reports:
        try:
            reason = unitarize(rep).reason
        except StructuralError as e:
            rep.unitarizable = False
            reason = str(e)
        if reason:
            rep.notes += (reason,)
    ok = [r for r, rep in enumerate(reports) if rep.unitarizable]
    if ok:
        try:
            results = reconstruct_and_check(problem, ctx, [params[r] for r in ok],
                                            [reports[r] for r in ok], rtol=rtol)
        except StructuralError as e:
            results = [e] * len(ok)
        except (EvaluationError, PathClearanceError) as e:
            if len(ok) > 1:
                raise
            results = [e]
        for r, res in zip(ok, results):
            if isinstance(res, Exception):
                reports[r].notes += ("reconstruction failed: " + str(res),)
    return reports


def verify_roots(problem, ctx, params, rtol=TRANSPORT_RTOL):
    """Full monodromy validation of the roots of one census; returns one
    filled report per parameter vector, in order.

    The roots are transported in lockstep.  If a shared transport gives up
    (EvaluationError, PathClearanceError), every root is verified again
    alone, so that each note and any raised error belongs to one root.
    """
    if ctx is None:
        ctx = compute_invariants(problem.lattice)
    params = list(params)
    if not params:
        return []
    try:
        return _verify_batch(problem, ctx, params, rtol)
    except (EvaluationError, PathClearanceError):
        if len(params) == 1:
            raise
    return [_verify_batch(problem, ctx, [p], rtol)[0] for p in params]


def verify_root(problem, ctx, params):
    """verify_roots on the one root params; returns its filled report."""
    return verify_roots(problem, ctx, [params])[0]
