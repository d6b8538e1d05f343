"""Transport, monodromy extraction, unitarization, and reconstruction."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest

from todacensus.apparency import ParamVec, derive_problem, problem_m0
from todacensus import monodromy
from todacensus.elliptic import EllipticContext, compute_invariants
from todacensus.errors import EvaluationError, PathClearanceError, StructuralError
from todacensus.jsonio import to_jsonable
from todacensus.monodromy import (
    monodromy_pair,
    ode_coefficients,
    plan_path,
    reconstruct_and_check,
    transport,
    unitarize,
    verify_root,
    verify_roots,
)
from todacensus.solver import solve_m0
from todacensus.monodromy import _arc, _walk  # tested directly below

TAU = 0.21 + 1.13j
FAR = np.array([1000.0 + 1000.0j])  # singularity list that never interferes


def _setup(n1, n2, tau=TAU):
    prob = problem_m0(tau, n1, n2)
    return prob, compute_invariants(prob.lattice)


# ---------------------------------------------------------------------------
# path planning

def test_plan_path_straight_when_clear():
    assert plan_path(0.0, 1.0, [0.5 + 1.0j], 0.2) == [0.0, 1.0]


def test_plan_path_detours_around_blocker():
    sing = [0.5 + 0.0j]
    verts = plan_path(0.0, 1.0, sing, 0.2)
    assert len(verts) > 2
    for a, b in zip(verts, verts[1:]):
        for t in np.linspace(0.0, 1.0, 101):
            z = a + t * (b - a)
            assert abs(z - sing[0]) >= 0.2 * (1 - 1e-9)
    # detours are deterministic and go to the left of the travel direction
    assert verts == plan_path(0.0, 1.0, sing, 0.2)
    assert all(v.imag >= 0 for v in verts)


def test_plan_path_endpoint_violation_raises():
    with pytest.raises(PathClearanceError):
        plan_path(0.0, 1.0, [0.05j], 0.2)


def _worst_violation_loop(a, b, sing, clearance):
    """The waypoint rule singularity by singularity: the nearest one within
    the clearance, an earlier one kept unless a later is 1e-12 closer."""
    d = b - a
    L = abs(d)
    best, best_dist = None, clearance
    for s in sing:
        t = min(max(((s - a) * d.conjugate()).real / (L * L), 0.0), 1.0)
        dist = abs(s - (a + t * d))
        if dist < best_dist * (1.0 - 1e-12):
            best, best_dist = s, dist
    return None if best is None else best + 1.5 * clearance * (1j * d / L)


def test_worst_violation_matches_the_loop():
    # the array pass picks the same waypoint to the bit, ties included: a
    # segment on x = 0.5 passes the translates at 0 and 1 at equal distance
    rng = np.random.default_rng(7)
    tau = TAU
    sing = np.array([m + n * tau for m in range(-3, 4) for n in range(-3, 4)])
    detours = 0
    for k in range(400):
        if k % 4 == 0:
            a, b = complex(0.5, -1.0), complex(0.5, rng.uniform(-0.5, 1.0))
        else:
            a, b = (complex(*rng.uniform(-1.5, 1.5, 2)) for _ in range(2))
        clearance = rng.uniform(0.01, 0.6)
        want = _worst_violation_loop(a, b, sing, clearance)
        got = monodromy._worst_violation(a, b, sing, clearance)
        assert got == want
        detours += want is not None
    assert 100 < detours < 400


# ---------------------------------------------------------------------------
# transport on closed-form and structural cases


class _ConstCoeffs:
    """Constant W2, W3: the transport is an explicit matrix exponential."""

    size = 1

    def __init__(self, W2, W3):
        self.W2, self.W3 = complex(W2), complex(W3)

    def derivs(self, z, n):
        W2d = np.zeros((1, n + 1), complex)
        W3d = np.zeros((1, n + 1), complex)
        W2d[0, 0], W3d[0, 0] = self.W2, self.W3
        return W2d, W3d


def _expm(A):
    lam, V = np.linalg.eig(A)
    return V @ np.diag(np.exp(lam)) @ np.linalg.inv(V)


def test_segment_transport_matches_matrix_exponential():
    co = _ConstCoeffs(-0.7 + 0.1j, 0.2 - 0.3j)
    za, zb = 0.1 + 0.2j, 0.7 + 0.9j
    (got,) = _walk(co, [[za, zb]], FAR, 1e-12)[0]
    A = np.array([[0, 1, 0], [0, 0, 1], [-co.W3, -co.W2, 0]], complex)
    want = _expm(A * (zb - za))
    assert np.max(np.abs(got - want)) <= 1e-10


def test_circle_transport_with_constant_coefficients_is_identity(monkeypatch):
    # entire coefficients: the circle is contractible, its transport the
    # identity.  A singularity listed at the center caps each step at
    # _POLE_CAP of the radius, so the step control, not a fixed polygon,
    # sets the chords
    co = _ConstCoeffs(-0.7 + 0.1j, 0.2 - 0.3j)
    center = 0.3 - 0.2j
    at, length = _arc(center, 0.4, 0.0, 2 * math.pi)
    assert abs(at(0.0) - (0.7 - 0.2j)) <= 1e-15 and abs(at(length) - at(0.0)) <= 1e-15
    assert abs(at(0.5 * length) - (-0.1 - 0.2j)) <= 1e-15
    frames = _record(monkeypatch, "_frames")
    (got,) = _walk(co, [(at, length)], np.array([center]), 1e-12)[0]
    assert np.max(np.abs(got - np.eye(3))) <= 1e-10
    assert len(frames) == math.ceil(2 * math.pi / monodromy._POLE_CAP)
    # the steps walk the circle: every frame sits on it
    assert all(abs(abs(args[1][0] - center) - 0.4) <= 1e-15 for args, _ in frames)


def test_taylor_frame_matches_leibniz_loop():
    # the sweep on Taylor coefficients against the term-by-term binomial
    # Leibniz sum on derivatives, on every (point, root) row of one call
    prob, ctx = _setup(0, 4)
    pvs = [ParamVec.m0(-39.7 - 1.1j, 0.3j, 2.0), ParamVec.m0(12.0 + 3.0j, -1.0, 0.5j)]
    coeffs = monodromy._OdeCoeffs(prob, ctx, pvs)
    zs = [0.41 + 0.37j, -0.2 + 0.6j]
    Y0 = np.array([[[1, 2j, 0], [0.5, 1, -1], [0, 1j, 3]], np.eye(3)], complex)
    Y = np.stack([Y0, Y0[::-1]])
    got = monodromy._frames(coeffs, zs, Y)
    assert got.shape == (2, 2, monodromy._ORDER + 3, 3)
    for p, z in enumerate(zs):
        W2d, W3d = coeffs.derivs(z, got.shape[2] - 4)
        want = np.zeros_like(got[p])
        want[:, :3] = Y[p]
        for k in range(got.shape[2] - 3):
            for j in range(k + 1):
                c = math.comb(k, j)
                want[:, k + 3] -= c * (W2d[:, j, None] * want[:, k - j + 1]
                                       + W3d[:, j, None] * want[:, k - j])
        for r in range(len(pvs)):
            for k in range(got.shape[2]):
                assert (np.max(np.abs(got[p, r, k] - want[r, k]))
                        <= 1e-14 * np.max(np.abs(want[r, k])))


def test_eval_taylor_matches_the_row_loop():
    # the banded product against the row-by-row sums it replaced, on stacks
    # whose derivatives grow like k! as the transport's do
    rng = np.random.default_rng(3)
    shape = (2, monodromy._ORDER + 3, 3)
    stack = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * monodromy._FACT[:, None]
    for delta in (0.05 + 0.02j, -0.3j):
        for rows in (2, 3):
            m = shape[1] - rows + 1
            w = delta ** np.arange(m) / monodromy._FACT[:m]
            want = np.stack([w @ stack[:, i:i + m] for i in range(rows)], axis=1)
            size = np.stack([np.abs(w) @ np.abs(stack[:, i:i + m]) for i in range(rows)], axis=1)
            got = monodromy._eval_taylor(stack, delta, rows)
            assert got.shape == (2, rows, 3)
            assert np.all(np.abs(got - want) <= 1e-14 * size)


def _derivs_loop(problem, ctx, pvs, z, n):
    """W2^(j), W3^(j) summed puncture by puncture and root by root, and the
    same sums of absolute values: the loop the coefficient product replaced."""
    W2 = np.zeros((len(pvs), n + 1), complex)
    W3 = np.zeros_like(W2)
    size = np.zeros((2, len(pvs), n + 1))
    for r, pv in enumerate(pvs):
        W2[r, 0], W3[r, 0] = -pv.B, pv.D
        size[:, r, 0] = abs(pv.B), abs(pv.D)
    for k, pk in enumerate(problem.punctures):
        wp, zv = ctx.jet(z - pk.p, n + 1)
        zeta = np.concatenate([[zv], -wp[:n]])
        alpha, beta = float(pk.alpha), float(pk.beta)
        for r, pv in enumerate(pvs):
            terms2 = (alpha * wp[:n + 1], pv.Bk[k] * zeta)
            terms3 = (beta * wp[1:], pv.Dk[k] * wp[:n + 1], pv.A[k] * zeta)
            W2[r] -= sum(terms2)
            W3[r] += sum(terms3)
            size[0, r] += sum(np.abs(t) for t in terms2)
            size[1, r] += sum(np.abs(t) for t in terms3)
    return W2, W3, size


def test_ode_coefficient_jets_match_the_puncture_loop():
    tau = TAU
    prob = derive_problem(tau, [(0.0, 0, 1), (0.31 + 0.42j, 0, 2), (0.5 * tau, 1, 1)])
    ctx = compute_invariants(prob.lattice)
    rng = np.random.default_rng(11)
    pvs = [ParamVec.from_vector(rng.normal(size=11) + 1j * rng.normal(size=11)) for _ in range(3)]
    coeffs = monodromy._OdeCoeffs(prob, ctx, pvs)
    n = monodromy._ORDER - 1
    for z in (0.71 + 0.18j, -0.2 + 0.83j):
        W2, W3 = coeffs.derivs(z, n)
        want2, want3, size = _derivs_loop(prob, ctx, pvs, z, n)
        assert np.all(np.abs(W2 - want2) <= 1e-14 * size[0])
        assert np.all(np.abs(W3 - want3) <= 1e-14 * size[1])
        # a batch's rows do not depend on the other roots in it
        sub2, sub3 = monodromy._OdeCoeffs(prob, ctx, [pvs[2], pvs[0]]).derivs(z, n)
        assert np.array_equal(sub2, W2[[2, 0]]) and np.array_equal(sub3, W3[[2, 0]])


def test_transport_composes_and_inverts():
    prob, ctx = _setup(0, 1)
    params = [ParamVec.m0(0, 0, 0)]
    a, mid, b = 0.31 + 0.45j, 0.52 + 0.61j, 0.68 + 0.77j
    (T_ab,) = transport(prob, ctx, params, [a, mid, b])
    (T_am,) = transport(prob, ctx, params, [a, mid])
    (T_mb,) = transport(prob, ctx, params, [mid, b])
    assert np.max(np.abs(T_ab - T_mb @ T_am)) <= 1e-9
    (T_back,) = transport(prob, ctx, params, [b, mid, a])
    assert np.max(np.abs(T_back @ T_ab - np.eye(3))) <= 1e-9


def test_transport_contractible_loop_is_identity():
    prob, ctx = _setup(0, 2)
    params = [ParamVec.m0(0.1, 0.2j, -0.05)]
    c, r = 0.5 + 0.55j, 0.15  # well inside the cell, away from the pole at 0
    loop = [c + r * cmath.exp(2j * math.pi * k / 12) for k in range(13)]
    (T,) = transport(prob, ctx, params, loop)
    assert np.max(np.abs(T - np.eye(3))) <= 1e-9


def test_ode_coefficients_against_direct_sum():
    prob, ctx = _setup(0, 2)
    params = ParamVec(A=(0j,), Bk=(0j,), B=1.3 - 0.4j, Dk=(0.7j,), D=-0.2 + 0.1j)
    z = 0.37 + 0.29j
    (W2,), (W3,) = ode_coefficients(prob, ctx, [params], z)
    pk = prob.punctures[0]
    (P, P1), Z = ctx.jet(z - pk.p, 1)
    want2 = -(pk.alpha * P + params.Bk[0] * Z + params.B)
    want3 = pk.beta * P1 + params.Dk[0] * P + params.A[0] * Z + params.D
    assert abs(W2 - want2) <= 1e-12 * (1 + abs(want2))
    assert abs(W3 - want3) <= 1e-12 * (1 + abs(want3))


def test_param_arity_mismatch_rejected():
    prob, ctx = _setup(0, 1)
    bad = ParamVec(A=(0j, 0j), Bk=(0j, 0j), B=0j, Dk=(0j, 0j), D=0j)
    with pytest.raises(StructuralError):
        ode_coefficients(prob, ctx, [bad], 0.4 + 0.4j)


# ---------------------------------------------------------------------------
# monodromy of the known (0,1) root

def test_monodromy_pair_01():
    prob, ctx = _setup(0, 1)
    (rep,) = monodromy_pair(prob, ctx, [ParamVec.m0(0, 0, 0)])
    eps = prob.epsilon
    assert abs(eps - cmath.exp(-2j * math.pi / 3)) <= 1e-12
    assert rep.eps_residual <= 1e-8
    assert rep.det_drift <= 1e-8
    # the period matrices genuinely fail to commute (eps != 1)
    comm = rep.N1 @ rep.N2 @ np.linalg.inv(rep.N1) @ np.linalg.inv(rep.N2)
    assert np.max(np.abs(comm - eps * np.eye(3))) <= 1e-8
    assert np.max(np.abs(comm - np.eye(3))) >= 1.0
    # apparent singularity: the puncture loop is the scalar exp(-2 pi i g1)
    assert len(rep.local) == 1
    assert rep.local_scalar_residuals[0] <= 1e-8
    want = cmath.exp(-2j * math.pi * float(prob.punctures[0].gamma1))
    assert abs(rep.local_scalars[0] - want) <= 1e-12


def test_unitarize_01_normal_forms():
    prob, ctx = _setup(0, 1)
    (rep,) = monodromy_pair(prob, ctx, [ParamVec.m0(0, 0, 0)])
    res = unitarize(rep)
    assert res.ok and rep.unitarizable
    assert res.unitary_residual <= 1e-9
    assert res.normal_residual <= 1e-9
    # invariant Hermitian form: positive definite as _invariant_form
    # returns it, with no sign flip
    H = res.H
    assert np.max(np.abs(H - H.conj().T)) <= 1e-9
    eigs = np.linalg.eigvalsh(H)
    assert eigs[0] > 0
    eps = prob.epsilon
    # N1 diagonalized to exactly (1, eps, eps^2)
    want1 = np.diag([1.0, eps, eps ** 2])
    assert np.max(np.abs(res.N1_normal - want1)) <= 1e-8
    # N2 cyclic: support on (1,0), (2,1), (0,2) only, unit determinant
    mask = np.ones((3, 3), bool)
    for i, j in [(1, 0), (2, 1), (0, 2)]:
        mask[i, j] = False
    assert np.max(np.abs(res.N2_normal[mask])) <= 1e-8
    assert abs(np.linalg.det(res.N2_normal) - 1.0) <= 1e-8
    for M in (res.N1_normal, res.N2_normal):
        assert np.max(np.abs(M.conj().T @ M - np.eye(3))) <= 1e-8


@pytest.mark.parametrize("n1, n2", [(0, 2), (0, 4), (2, 4)])
def test_census_invariant_forms_are_positive_definite(n1, n2):
    # _invariant_form makes the largest diagonal entry of H positive, and a
    # definite Hermitian H has diagonal entries of one sign: so every root's
    # form is positive definite as it comes (the smallest eigenvalue ratio
    # over these censuses is 3.1e-7, on (2,4)), and unitarize flips no sign
    prob, ctx, pvs = _census_params(n1, n2)
    for rep in monodromy_pair(prob, ctx, pvs):
        _, H = monodromy._invariant_form(rep.N1, rep.N2)
        assert np.linalg.eigvalsh(H)[0] > 0
        assert unitarize(rep).ok and np.array_equal(rep.H, H)


def _herm_basis():
    """Orthonormal basis of the real space of 3 x 3 Hermitian matrices."""
    basis = []
    for i in range(3):
        E = np.zeros((3, 3), complex)
        E[i, i] = 1.0
        basis.append(E)
        for j in range(i + 1, 3):
            for v in (1.0, 1j):
                E = np.zeros((3, 3), complex)
                E[i, j], E[j, i] = v / math.sqrt(2.0), np.conj(v) / math.sqrt(2.0)
                basis.append(E)
    return basis


def _trace_operator(N1, N2, basis):
    """H -> (H - Nj^H H Nj)_j on Hermitian coordinates (18 x 9), as 162
    separate traces Re tr(F^H (E - N^H E N))."""
    return np.array([[float(np.real(np.trace(Fb.conj().T @ (Eb - N.conj().T @ Eb @ N))))
                      for N in (N1, N2) for Fb in basis] for Eb in basis]).T


def test_invariant_form_matches_the_trace_loop():
    prob, ctx = _setup(0, 4)
    reports = monodromy_pair(prob, ctx, [ParamVec.m0(c.B, c.D0, c.D)
                                         for c in solve_m0(prob, ctx).clusters])
    rng = np.random.default_rng(5)
    pairs = [(rep.N1, rep.N2) for rep in reports]
    # and matrices with no invariant form
    pairs += list(rng.normal(size=(3, 2, 3, 3)) + 1j * rng.normal(size=(3, 2, 3, 3)))
    basis = _herm_basis()
    for N1, N2 in pairs:
        want = np.linalg.svd(_trace_operator(N1, N2, basis), compute_uv=False)
        got, _ = monodromy._invariant_form(N1, N2)
        assert np.max(np.abs(got - want)) <= 1e-13 * want[0]
    # on the census roots, unitarize's form is the reference null vector
    for rep in reports:
        _, _, Vt = np.linalg.svd(_trace_operator(rep.N1, rep.N2, basis))
        ref = sum(x * Eb for x, Eb in zip(Vt[-1], basis))
        H = unitarize(rep).H
        assert min(np.max(np.abs(H - ref)), np.max(np.abs(H + ref))) <= 1e-12


def test_a_rejection_without_error_leaves_its_reason_in_the_notes(monkeypatch):
    # unitarize returns a verdict with a reason, not only an error: a root
    # whose operator has no null space is noted with that reason
    prob, ctx = _setup(0, 2)
    true = ParamVec.m0(cmath.sqrt(ctx.g2 / 3.0), 0, 0)
    form = monodromy._invariant_form

    def full_rank(N1, N2):
        S, H = form(N1, N2)
        return np.ones_like(S), H

    monkeypatch.setattr(monodromy, "_invariant_form", full_rank)
    (rep,) = verify_roots(prob, ctx, [true])
    assert rep.unitarizable is False and rep.pde_residual is None
    assert rep.notes == ("no invariant Hermitian form",)


def test_perturbed_params_fail_loudly():
    prob, ctx = _setup(0, 2)
    B_true = cmath.sqrt(ctx.g2 / 3.0)
    (rep,) = monodromy_pair(prob, ctx, [ParamVec.m0(B_true + 0.1, 0, 0)])
    assert max(rep.local_scalar_residuals) >= 1e-2
    with pytest.raises(StructuralError):
        unitarize(rep)
    # verify_root swallows the failure into the report instead of raising
    full = verify_root(prob, ctx, ParamVec.m0(B_true + 0.1, 0, 0))
    assert full.unitarizable is False
    assert full.pde_residual is None
    assert any("commut" in n or "unitar" in n or "residual" in n for n in full.notes)


# ---------------------------------------------------------------------------
# reconstruction

def _unitarized(prob, ctx, pvs):
    """The monodromy reports of pvs, each unitarized."""
    reports = monodromy_pair(prob, ctx, pvs)
    for rep in reports:
        assert unitarize(rep).ok
    return reports


def test_reconstruct_01_solves_the_system():
    prob, ctx = _setup(0, 1)
    pvs = [ParamVec.m0(0, 0, 0)]
    ((pde, even),) = reconstruct_and_check(prob, ctx, pvs, _unitarized(prob, ctx, pvs))
    assert pde <= 1e-6
    assert even is not None and even <= 1e-8


def test_verify_root_01_full_report():
    prob, ctx = _setup(0, 1)
    rep = verify_root(prob, ctx, ParamVec.m0(0, 0, 0))
    assert rep.unitarizable
    assert rep.eps_residual <= 1e-8
    assert max(rep.local_scalar_residuals) <= 1e-8
    assert rep.pde_residual is not None and rep.pde_residual <= 1e-6
    assert rep.even_residual is not None and rep.even_residual <= 1e-8
    d = to_jsonable(rep)
    assert d["unitarizable"] is True
    assert isinstance(d["N1"], list) and len(d["N1"]) == 3


# ---------------------------------------------------------------------------
# a census verified in lockstep


def _census_params(n1, n2, tau=TAU):
    prob, ctx = _setup(n1, n2, tau)
    return prob, ctx, [ParamVec.m0(c.B, c.D0, c.D) for c in solve_m0(prob, ctx).clusters]


def _count_jet(monkeypatch):
    calls = [0]
    orig = EllipticContext.jet

    def counted(self, z, n):
        calls[0] += 1
        return orig(self, z, n)

    monkeypatch.setattr(EllipticContext, "jet", counted)
    return calls


def test_batch_monodromy_matches_per_root(monkeypatch):
    prob, ctx, pvs = _census_params(0, 2)
    assert len(pvs) == 2
    calls = _count_jet(monkeypatch)
    alone = monodromy_pair(prob, ctx, pvs[:1])
    calls_first = calls[0]
    alone += monodromy_pair(prob, ctx, pvs[1:])
    calls[0] = 0
    batch = monodromy_pair(prob, ctx, pvs)
    # one step sequence and one coefficient evaluation per step serve both
    assert calls[0] < 1.5 * calls_first
    assert len(batch) == 2
    for a, b in zip(alone, batch):
        assert np.max(np.abs(a.N1 - b.N1)) <= 1e-9
        assert np.max(np.abs(a.N2 - b.N2)) <= 1e-9
        for Ma, Mb in zip(a.local, b.local):
            assert np.max(np.abs(Ma - Mb)) <= 1e-9


@pytest.mark.parametrize("n1, n2, sweeps, jets", [(0, 2, 25, 125), (0, 4, 27, 133)])
def test_census_verification_work_is_bounded(monkeypatch, n1, n2, sweeps, jets):
    # the Leibniz sweeps and coefficient jets that verifying a whole census
    # takes with this step control: a change that takes more steps, or
    # walks fewer paths in lockstep, fails here, not only in the benchmark.
    # Every jet serves the frame of one point of a sweep
    prob, ctx, pvs = _census_params(n1, n2)
    calls = _count_jet(monkeypatch)
    frames = _record(monkeypatch, "_frames")
    reports = verify_roots(prob, None, pvs)
    assert all(rep.unitarizable and rep.pde_residual is not None for rep in reports)
    assert len(frames) <= sweeps
    assert calls[0] <= jets and calls[0] == sum(len(args[1]) for args, _ in frames)


def test_loops_and_the_first_hop_take_few_frames(monkeypatch):
    # a local loop is three arcs whose chords the step control picks, not a
    # polygon whose every side restarts the step (48 frames), and the
    # reconstruction's first hop leaves the base point for the kept grid
    # point nearest it, not one across the cell from it (28 frames)
    prob, ctx, pvs = _census_params(0, 4)
    frames = _record(monkeypatch, "_frames")
    # the arcs walk in lockstep with the period paths: the loop's frames are
    # the points of monodromy_pair's sweeps that lie on the circle
    reports = monodromy_pair(prob, ctx, pvs)
    center = ctx.reduce_point(prob.punctures[0].p)[0]
    radius = reports[0].loop_radius
    on_loop = [z for args, _ in frames for z in args[1] if abs(abs(z - center) - radius) <= 1e-12]
    assert 0 < len(on_loop) <= 32
    # every reconstruction hop starts from a handed stack
    for rep in reports:
        assert unitarize(rep).ok
    walks = _record(monkeypatch, "_walk")
    reconstruct_and_check(prob, ctx, pvs, reports)
    assert all(args[4] is not None for args, _ in walks)
    assert sum(len(args[1]) for args, _ in walks) >= 50
    # the first hop leaves the base point for the grid point next to it
    first = walks[0][0][1][0]
    assert first[0] == reports[0].base_point
    frames.clear()
    transport(prob, ctx, pvs, first)
    assert len(frames) <= 2


@pytest.mark.parametrize("p", [0, 0.3 + 0.2j])
def test_verification_does_not_depend_on_the_puncture_representative(p):
    # the singular translates are built around the puncture reduced to the
    # cell around 0: a puncture moved by periods keeps the base point, the
    # poles that the paths avoid and so the accuracy (unreduced, p + 5 lost
    # the translates near the cell and, for p = 0.3 + 0.2i, its commutator)
    prob0, ctx = _setup(0, 2)
    root = min(solve_m0(prob0, ctx).clusters, key=lambda c: c.B.real)
    pv = ParamVec.m0(root.B, root.D0, root.D)
    reps = [verify_root(derive_problem(prob0.lattice, [(p + shift, 0, 2)]), ctx, pv)
            for shift in (0, 3, 3 * TAU, 5)]
    assert len({rep.base_point for rep in reps}) == 1
    assert all(rep.unitarizable and rep.notes == () for rep in reps)
    for rep in reps[1:]:
        assert rep.eps_residual <= 2.0 * reps[0].eps_residual
        assert rep.pde_residual <= 2.0 * reps[0].pde_residual


@pytest.mark.parametrize("p", [-0.4, 0.3 + 0.2j])
def test_parity_is_checked_about_an_off_lattice_puncture(p):
    # a single puncture's solution is even about the puncture, not about 0:
    # the grid and the reflection are centred on it, so the kept grid is
    # symmetric about it and the parity check is made
    prob0, ctx = _setup(0, 2)
    root = solve_m0(prob0, ctx).clusters[0]
    rep = verify_root(derive_problem(prob0.lattice, [(p, 0, 2)]), ctx,
                      ParamVec.m0(root.B, root.D0, root.D))
    assert rep.unitarizable
    assert rep.even_residual is not None and rep.even_residual <= 1e-9


def test_unitarizable_verdicts_of_the_census_and_the_nudged_control():
    for n1, n2 in ((0, 2), (0, 4)):
        prob, ctx, pvs = _census_params(n1, n2)
        assert [rep.unitarizable for rep in verify_roots(prob, ctx, pvs)] == [True] * len(pvs)
    # the benchmark's negative control: the first (0,4) root with B moved by 0.1
    first = pvs[0]
    nudged = verify_root(prob, ctx, ParamVec.m0(first.B + 0.1, first.Dk[0], first.D))
    assert nudged.unitarizable is False and nudged.pde_residual is None


def test_census_04_monodromy_to_high_accuracy():
    # at the default rtol the monodromy identities hold near rounding on
    # every root of the (0,4) census
    prob, ctx, pvs = _census_params(0, 4)
    assert len(pvs) == 5
    for rep in monodromy_pair(prob, ctx, pvs):
        assert rep.det_drift <= 1e-12
        assert rep.eps_residual <= 1e-11
        assert max(rep.local_scalar_residuals) <= 1e-11


def test_verify_roots_attributes_failures_per_root():
    prob, ctx = _setup(0, 2)
    true = ParamVec.m0(cmath.sqrt(ctx.g2 / 3.0), 0, 0)
    nudged = ParamVec.m0(true.B + 0.1, 0, 0)
    good, bad = verify_roots(prob, ctx, [true, nudged])
    assert good.unitarizable is True and good.notes == ()
    assert good.pde_residual is not None and good.pde_residual <= 1e-4
    assert max(bad.local_scalar_residuals) >= 1e-2
    assert bad.unitarizable is False and bad.pde_residual is None
    assert bad.notes


def test_degenerate_frame_fails_only_its_root(monkeypatch):
    prob, ctx = _setup(0, 1)
    pv = ParamVec.m0(0, 0, 0)
    (rep,) = monodromy_pair(prob, ctx, [pv])
    assert unitarize(rep).ok
    (alone,) = reconstruct_and_check(prob, ctx, [pv], [rep])
    # a positive multiple of the invariant form is invariant too; only the
    # larger det P tells the second copy apart
    (twin,) = monodromy_pair(prob, ctx, [pv])
    twin.H = 4.0 * rep.H
    big = abs(np.linalg.det(np.linalg.cholesky(rep.H)))
    orig = monodromy._stencil

    def fragile(stacks, P, scale):
        # |det P| <= 2 big, read from scale[:, 0] = 0.25 |det P|^(-2/3)
        u0, res, ok = orig(stacks, P, scale)
        return u0, res, ok & (scale[:, 0] >= 0.25 * (2.0 * big) ** (-2.0 / 3.0))

    monkeypatch.setattr(monodromy, "_stencil", fragile)
    first, second = reconstruct_and_check(prob, ctx, [pv, pv], [rep, twin])
    assert first == alone
    assert isinstance(second, EvaluationError)
    assert twin.pde_residual is None


@pytest.mark.parametrize("n1, n2", [(0, 2), (0, 4)])
@pytest.mark.parametrize("first", [1, 2, 4])
def test_a_degenerate_root_changes_no_other_roots_bits(monkeypatch, n1, n2, first):
    # the last root reads not-ok from the first-th stencil call on.  It
    # stays in the walk to the end, so the steps of every other root, and
    # so their residuals, are those of the run where nothing degenerates
    prob, ctx, pvs = _census_params(n1, n2)
    want = reconstruct_and_check(prob, ctx, pvs, _unitarized(prob, ctx, pvs))
    reports = _unitarized(prob, ctx, pvs)
    orig, calls, last = monodromy._stencil, [0], []

    def fragile(stacks, P, scale):
        u0, res, ok = orig(stacks, P, scale)
        calls[0] += 1
        if not last:  # the first call holds every root, the last one last
            last.append(scale[len(pvs) - 1])
        if calls[0] >= first:
            # the last root's rows, told apart by its det P
            ok &= np.any(scale != last[0], axis=1)
        return u0, res, ok

    monkeypatch.setattr(monodromy, "_stencil", fragile)
    got = reconstruct_and_check(prob, ctx, pvs, reports)
    assert calls[0] >= 4
    assert got[:-1] == want[:-1]
    assert [(rep.pde_residual, rep.even_residual) for rep in reports[:-1]] == want[:-1]
    assert isinstance(got[-1], EvaluationError) and reports[-1].pde_residual is None


@pytest.mark.parametrize("p1, radius", [(0.3 + 0.2j, 0.0901), (0.05 + 0.02j, 0.0135)])
def test_two_punctures_set_the_loop_radius_by_their_separation(p1, radius):
    # _geometry's pairwise separation of the punctures, on a made-up vector
    # that solves nothing: its loops are not scalar and its period
    # monodromies miss the commutator identity
    prob = derive_problem(TAU, [(0.0, 0, 1), (p1, 0, 1)])
    ctx = compute_invariants(prob.lattice)
    pv = ParamVec(A=(0.3 + 0.1j, -0.3 - 0.1j), Bk=(0.2j, -0.2j), B=1.1 - 0.4j,
                  Dk=(0.5, -0.25j), D=0.7 + 0.2j)
    (rep,) = verify_roots(prob, ctx, [pv])
    assert rep.loop_radius == pytest.approx(0.25 * min(1.0, ctx.lam_min, abs(p1)), rel=1e-12)
    assert round(rep.loop_radius, 4) == radius
    assert rep.unitarizable is False and rep.pde_residual is None
    assert any("commutator residual too large" in note for note in rep.notes)
    assert min(rep.local_scalar_residuals) > 1e-2


# the per-root stencil that _stencil replaced, kept as its reference

_REF_OFFSETS = (0.0, 1.0, -1.0, 2.0, -2.0, 1j, -1j, 2j, -2j)


def _uv_from_frame(P, scale, Yval, Yder):
    yt = P @ Yval
    ytd = P @ Yder
    r1 = float(np.sum(np.abs(yt) ** 2))
    w01 = yt[0] * ytd[1] - ytd[0] * yt[1]
    w12 = yt[1] * ytd[2] - ytd[1] * yt[2]
    w20 = yt[2] * ytd[0] - ytd[2] * yt[0]
    r2 = float(abs(w01) ** 2 + abs(w12) ** 2 + abs(w20) ** 2)
    eU = scale[0] * r1
    eV = scale[1] * r2
    if not (eU > 0 and eV > 0):
        raise EvaluationError("degenerate frame during reconstruction")
    return -math.log(eU), -math.log(eV)


def _point_residual(P, scale, stack):
    """(U, PDE residual) at a grid point from one root's Taylor stack, with
    fourth-order central-difference Laplacians of step _FD_STEP."""
    h = monodromy._FD_STEP
    vals = {d: _uv_from_frame(P, scale, *monodromy._eval_taylor(stack, d * h, 2))
            for d in _REF_OFFSETS}
    u0, v0 = vals[0.0]
    lapU = (
        -vals[2][0] + 16 * vals[1][0] - 30 * u0 + 16 * vals[-1][0] - vals[-2][0]
        - vals[2j][0] + 16 * vals[1j][0] - 30 * u0 + 16 * vals[-1j][0] - vals[-2j][0]
    ) / (12 * h * h)
    lapV = (
        -vals[2][1] + 16 * vals[1][1] - 30 * v0 + 16 * vals[-1][1] - vals[-2][1]
        - vals[2j][1] + 16 * vals[1j][1] - 30 * v0 + 16 * vals[-1j][1] - vals[-2j][1]
    ) / (12 * h * h)
    return u0, max(abs(lapU + math.exp(2 * u0 - v0)), abs(lapV + math.exp(2 * v0 - u0)))


def _record(monkeypatch, name):
    """Wrap monodromy.<name>; returns the list of (args, result) per call."""
    calls = []
    orig = getattr(monodromy, name)

    def recorded(*args):
        out = orig(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(monodromy, name, recorded)
    return calls


@pytest.mark.parametrize("n1, n2, tau, size", [(0, 4, TAU, 5), (2, 4, -0.373 + 0.992j, 20)])
def test_stencil_matches_per_root_reference(monkeypatch, n1, n2, tau, size):
    # a call holds the roots of every point one group of hops reached, one
    # block of size rows per grid point; every (point, root) row is checked
    prob, ctx, pvs = _census_params(n1, n2, tau)
    assert len(pvs) == size
    reports = _unitarized(prob, ctx, pvs)
    calls = _record(monkeypatch, "_stencil")
    reconstruct_and_check(prob, ctx, pvs, reports)
    assert sum(len(args[0]) for args, _ in calls) >= 50 * size
    assert max(len(args[0]) for args, _ in calls) > size
    got, want = np.zeros(size), np.zeros(size)
    for (stacks, P, scale), (u0, res, ok) in calls:
        assert len(stacks) % size == 0 and ok.all()
        for row in range(len(stacks)):
            want_u, want_res = _point_residual(P[row], scale[row], stacks[row])
            assert abs(u0[row] - want_u) <= 1e-13 * abs(want_u)
            r = row % size
            got[r], want[r] = max(got[r], res[row]), max(want[r], want_res)
    # a point's residual is mostly finite-difference rounding noise, which
    # the order of the sums moves; each root's residual, the largest over
    # the grid, must agree
    assert np.all(np.abs(got - want) <= np.maximum(0.05 * want, 2e-9))
    # a row whose frame degenerates fails alone; the others keep their values
    (stacks, P, scale), (u0, res, ok) = max(calls, key=lambda call: len(call[0][0]))
    P = P.copy()
    P[size + 1] = 0
    u0_bad, res_bad, ok_bad = monodromy._stencil(stacks, P, scale)
    assert not ok_bad[size + 1] and np.delete(ok_bad, size + 1).all()
    assert np.array_equal(np.delete(u0_bad, size + 1), np.delete(u0, size + 1))
    assert np.array_equal(np.delete(res_bad, size + 1), np.delete(res, size + 1))


def test_hops_start_from_the_grid_stacks(monkeypatch):
    prob, ctx, pvs = _census_params(0, 4)
    reports = _unitarized(prob, ctx, pvs)
    frames = _record(monkeypatch, "_frames")
    stencils = _record(monkeypatch, "_stencil")
    walks = _record(monkeypatch, "_walk")
    reused = reconstruct_and_check(prob, ctx, pvs, reports)
    points = sum(len(args[1]) for args, _ in frames)
    hops = sum(len(args[1]) for args, _ in walks)
    assert points <= 84
    reused_stacks = [args[0] for args, _ in stencils]

    # without the handed-over start stacks the first step of every hop
    # rebuilds them: one more frame point per hop, the same stacks
    orig = monodromy._walk
    monkeypatch.setattr(monodromy, "_walk", lambda coeffs, paths, sing, rtol, stacks, ends:
                        orig(coeffs, paths, sing, rtol, None, ends))
    frames.clear()
    stencils.clear()
    fresh = reconstruct_and_check(prob, ctx, pvs, reports)
    assert sum(len(args[1]) for args, _ in frames) == points + hops
    assert len(stencils) == len(reused_stacks)
    for (args, _), stacks in zip(stencils, reused_stacks):
        assert np.array_equal(args[0], stacks)
    assert fresh == reused
    assert all(even is not None for _, even in reused)


def test_hops_finish_from_their_end_stacks(monkeypatch):
    # after any step, a hop whose end's stack reaches back over what remains
    # finishes with that step back: no sweep short of its end.  On the (0,4)
    # census this saves 53 of the 73 frame points that walking every hop
    # forward to its end takes (3 when only a hop's first step could finish
    # so); every hop's transport agrees with the one walked forward
    prob, ctx, pvs = _census_params(0, 4)
    reports = _unitarized(prob, ctx, pvs)
    walks = _record(monkeypatch, "_walk")
    reconstruct_and_check(prob, ctx, pvs, reports)
    frames = _record(monkeypatch, "_frames")
    saved = 0
    for (coeffs, paths, sing, rtol, stacks, ends), T in walks:
        frames.clear()
        whole = _walk(coeffs, paths, sing, rtol, stacks)
        saved += sum(len(args[1]) for args, _ in frames)
        frames.clear()
        assert np.array_equal(_walk(coeffs, paths, sing, rtol, stacks, ends), T)
        saved -= sum(len(args[1]) for args, _ in frames)
        assert np.all(np.abs(T - whole) <= 1e-12 * np.abs(whole).max(axis=(2, 3), keepdims=True))
    assert saved >= 50


def test_lockstep_changes_nothing_per_path(monkeypatch):
    # monodromy_pair walks both period paths and the three arcs of the loop
    # in one _walk; each path alone gives the same bits, and the loop's
    # matrix is the product of its arcs'
    prob, ctx, pvs = _census_params(0, 4)
    walks = _record(monkeypatch, "_walk")
    reports = monodromy_pair(prob, ctx, pvs)
    ((args, T),) = walks
    paths = args[1]
    assert len(paths) == 5 and all(callable(path[0]) for path in paths[2:])
    for path, Tp in zip(paths, T):
        assert np.array_equal(transport(prob, ctx, pvs, path), Tp)
    for r, rep in enumerate(reports):
        assert np.array_equal(rep.N1, T[0][r].T)
        assert np.array_equal(rep.N2, T[1][r].T)
        assert np.array_equal(rep.local[0], (T[4] @ T[3] @ T[2])[r].T)


def test_arc_product_matches_the_whole_circle():
    prob, ctx, pvs = _census_params(0, 4)
    reports = monodromy_pair(prob, ctx, pvs)
    center = ctx.reduce_point(prob.punctures[0].p)[0]
    whole = transport(prob, ctx, pvs, _arc(center, reports[0].loop_radius, 0.0, 2 * math.pi))
    for rep, W in zip(reports, whole):
        assert np.max(np.abs(rep.local[0] - W.T)) <= 1e-12 * np.max(np.abs(W))


def test_composed_frames_match_the_sequential_transport(monkeypatch):
    # the frame at each kept grid point, composed from hop transports, is
    # the frame that one transport along the tree's chain from the base
    # point carries there.  Both sit at the transport's accuracy floor: the
    # chain's own frames are up to 1.5e-10 of max|Y| from a walk at rtol
    # 1e-14, and the two agree to 2.0e-10
    prob, ctx, pvs = _census_params(0, 4)
    reports = _unitarized(prob, ctx, pvs)
    walks = _record(monkeypatch, "_walk")
    stencils = _record(monkeypatch, "_stencil")
    reconstruct_and_check(prob, ctx, pvs, reports)
    assert len(walks) == len(stencils)
    chain = {reports[0].base_point: [reports[0].base_point]}
    ends, composed = [], []
    for (args, _), ((stacks, _, _), _) in zip(walks, stencils):
        for path in args[1]:
            chain[path[-1]] = chain[path[0]] + list(path[1:])
            ends.append(path[-1])
        # a stack's first three rows are its frame
        composed += list(stacks[:, :3].reshape(len(args[1]), len(pvs), 3, 3))
    assert len(ends) >= 50
    coeffs = monodromy._OdeCoeffs(prob, ctx, pvs)
    sequential = _walk(coeffs, [chain[z] for z in ends], monodromy._singular_translates(prob, ctx),
                       monodromy.TRANSPORT_RTOL)
    for Yc, Ys in zip(composed, sequential):
        assert np.all(np.abs(Yc - Ys).max(axis=(1, 2)) <= 3e-10 * np.abs(Ys).max(axis=(1, 2)))


def test_reconstruction_memory_is_bounded():
    # hops walk in groups of _GRID_N and only the points later hops start
    # from keep their stacks: no array over the whole grid
    prob, ctx, pvs = _census_params(0, 4)
    reports = _unitarized(prob, ctx, pvs)
    reconstruct_and_check(prob, ctx, pvs, reports)
    tracemalloc.start()
    try:
        reconstruct_and_check(prob, ctx, pvs, reports)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * 2 ** 20


def test_tree_keeps_parity_and_bounds_the_chain(monkeypatch):
    # the tree reaches every grid point within 2 _GRID_N hops of the base
    # point (the row snake took up to 62), and the even roots (D0 = D = 0)
    # keep their parity to 1e-12 (4.4e-10 to 6.0e-10 through the snake,
    # 4.1e-12 to 3.1e-11 through the comb)
    prob, ctx, pvs = _census_params(0, 4)
    reports = _unitarized(prob, ctx, pvs)
    walks = _record(monkeypatch, "_walk")
    results = reconstruct_and_check(prob, ctx, pvs, reports)
    depth = {reports[0].base_point: 0}
    for args, _ in walks:
        for path in args[1]:
            depth[path[-1]] = depth[path[0]] + 1
    assert len(depth) > 50
    assert max(depth.values()) <= 2 * monodromy._GRID_N
    even = [res[1] for pv, res in zip(pvs, results) if pv.Dk[0] == 0 and pv.D == 0]
    assert len(even) == 3
    assert max(even) <= 1e-12


def _assert_tree(hops, kept, grid):
    """Every kept point ends exactly one hop, and each hop leaves the base
    point (None) or a point that an earlier hop reached.  Returns the hops
    between grid points that are not 4-neighbours."""
    assert sorted(b for _, b in hops) == sorted(key for key in grid if kept[key])
    reached, jumps = {None}, []
    for a, b in hops:
        assert a in reached
        reached.add(b)
        if a is not None and abs(a[0] - b[0]) + abs(a[1] - b[1]) != 1:
            jumps.append((a, b))
    return jumps


def test_hop_tree_joins_neighbours_in_short_hops(monkeypatch):
    # the (0,4) census at 0.21+1.13i: the tree hops only between
    # 4-neighbours, so no hop passes over the points left out next to the
    # puncture (the comb's hops over them took 11-12 Taylor steps), and
    # the identity stacks new to a group take one sweep, so no sweep of a
    # single point comes before a group's last
    prob, ctx, pvs = _census_params(0, 4)
    reports = _unitarized(prob, ctx, pvs)
    trees = _record(monkeypatch, "_hop_tree")
    alone = monodromy._walk
    walks = _record(monkeypatch, "_walk")
    groups, inside = [], [False]
    orig_frames, orig_walk = monodromy._frames, monodromy._walk

    def frames(coeffs, zs, Y):
        if not inside[0]:
            groups.append([])
        groups[-1].append(len(zs))
        return orig_frames(coeffs, zs, Y)

    def walk(*args):
        inside[0] = True
        try:
            return orig_walk(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(monodromy, "_frames", frames)
    monkeypatch.setattr(monodromy, "_walk", walk)
    reconstruct_and_check(prob, ctx, pvs, reports)
    ((kept, grid, q0), hops), = trees
    assert (~kept).sum() == 2 and len(hops) == 62
    assert _assert_tree(hops, kept, grid) == []
    assert len(groups) == len(walks) == 8
    assert all(min(sizes[:-1], default=2) > 1 for sizes in groups)
    assert groups[0][0] == monodromy._GRID_N + 1  # the base point and 8 grid points

    # each hop walked alone, from its two end stacks
    monkeypatch.setattr(monodromy, "_frames", orig_frames)
    sweeps = _record(monkeypatch, "_frames")
    steps = []
    for (coeffs, paths, sing, rtol, stacks, ends), _ in walks:
        for k, path in enumerate(paths):
            sweeps.clear()
            alone(coeffs, [path], sing, rtol, [stacks[k]], [ends[k]])
            steps.append(1 + len(sweeps))
    assert max(steps) <= 3


def test_hop_tree_bridges_a_cut_grid(monkeypatch):
    # a row left out (as several punctures along it would) cuts the grid in
    # two; the piece that no neighbour reaches is entered once, from the
    # nearest point reached before it
    prob, ctx, pvs = _census_params(0, 4)
    trees = _record(monkeypatch, "_hop_tree")
    reconstruct_and_check(prob, ctx, pvs, _unitarized(prob, ctx, pvs))
    ((kept, grid, q0), _), = trees
    cut = kept.copy()
    cut[:, 1] = False
    hops = monodromy._hop_tree(cut, grid, q0)
    (jump,) = _assert_tree(hops, cut, grid)
    k = hops.index(jump)
    at = {None: q0, **grid}
    before = [None] + [b for _, b in hops[:k]]
    after = [b for _, b in hops[k:]]
    assert {b[1] for b in before[1:]} & {b[1] for b in after} == set()
    assert abs(at[jump[1]] - at[jump[0]]) == min(abs(at[b] - at[a]) for a in before for b in after)


def test_shared_transport_give_up_reruns_each_root_alone(monkeypatch):
    prob, ctx = _setup(0, 2)
    true = ParamVec.m0(cmath.sqrt(ctx.g2 / 3.0), 0, 0)
    nudged = ParamVec.m0(true.B + 0.1, 0, 0)
    want = [to_jsonable(verify_root(prob, ctx, pv)) for pv in (true, nudged)]
    orig = monodromy._walk

    def solo_only(coeffs, *args):
        if coeffs.size > 1:
            raise EvaluationError("transport step size underflow")
        return orig(coeffs, *args)

    monkeypatch.setattr(monodromy, "_walk", solo_only)
    got = verify_roots(prob, ctx, [true, nudged])
    assert [to_jsonable(r) for r in got] == want
    with pytest.raises(EvaluationError):
        monodromy_pair(prob, ctx, [true, nudged])
