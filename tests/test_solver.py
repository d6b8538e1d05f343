"""Census counts, clustering, even-sector solving, and the scan driver."""

import collections
import dataclasses
import math

import numpy as np
import pytest

import todacensus.solver as solver
from todacensus.apparency import (
    bezout_bound,
    build_even_poly,
    build_m0_system,
    derive_problem,
    even_count_Ne,
    m0_residual_batch,
    m0_value_batch,
    problem_m0,
)
from todacensus.elliptic import EllipticContext, compute_invariants
from todacensus.errors import (
    CriticalParametersError,
    EvaluationError,
    EvenNonexistenceError,
    InconclusiveError,
    StructuralError,
)
from todacensus.jsonio import to_jsonable
from todacensus.solver import (
    SolverConfig,
    _halton_block,
    _relative,
    roots_univariate,
    scan_tau,
    solve_even,
    solve_m0,
    solve_m0_degenerate,
)

from conftest import random_taus

GENERIC_TAU = 0.21 + 1.13j


# ---------------------------------------------------------------------------
# univariate root finder

def test_roots_univariate_wilkinsonish():
    # (x-1)(x-2)(x-3)(x-4)
    coeffs = [24.0, -50.0, 35.0, -10.0, 1.0]
    roots = roots_univariate(coeffs)
    got = sorted(r.real for r, m in roots)
    assert all(m == 1 for _, m in roots)
    assert np.allclose(got, [1, 2, 3, 4], atol=1e-8)


def test_roots_univariate_triple_root():
    # (x-1)^3: the cluster must merge to a single multiplicity-3 root
    coeffs = [-1.0, 3.0, -3.0, 1.0]
    roots = roots_univariate(coeffs)
    assert len(roots) == 1
    z, m = roots[0]
    assert m == 3
    assert abs(z - 1.0) <= 1e-5


def test_roots_univariate_merges_a_chain_into_one_root(monkeypatch):
    # three approximations of a triple root at r: the second is beyond the
    # merge radius (1.5e-5 here) of the first, the third within it of both,
    # so single linkage joins all three
    r = 0.3 + 0.2j
    chain = np.array([r, r + 0.5e-5 + 1.5e-5j, r + 0.6e-5 + 0.75e-5j])
    rad = solver._ROOT_MERGE * (1 + abs(chain[2]))
    assert abs(chain[1] - chain[0]) > rad >= max(abs(chain[2] - chain[:2]))
    monkeypatch.setattr(np, "roots", lambda coeffs: chain.copy())
    ((z, m),) = roots_univariate(np.poly([r, r, r])[::-1])
    assert m == 3
    assert abs(z - chain.mean()) <= 1e-15


def test_roots_univariate_close_pair_stays_split():
    a, b = 1.0, 1.0 + 1e-4
    coeffs = [a * b, -(a + b), 1.0]
    roots = roots_univariate(coeffs)
    assert len(roots) == 2
    assert sorted(m for _, m in roots) == [1, 1]


def test_roots_univariate_leading_zeros_and_scaling():
    # 1e300 * (x - 2) with a padded zero leading coefficient
    roots = roots_univariate([-2e300, 1e300, 0.0])
    assert len(roots) == 1
    assert abs(roots[0][0] - 2.0) <= 1e-9


def test_roots_univariate_simple_roots_at_the_rounding_floor():
    # the companion eigenvalues of the even polynomials lie up to ~2e-15
    # relative off their roots; the one Newton step brings every simple root
    # to the rounding floor of |p(r)| against sum_k |c_k| |r|^k
    ctx = compute_invariants(GENERIC_TAU)
    for n1 in range(13):
        for n2 in range(n1 + 1, 14 - n1):
            if (n1 - n2) % 3 == 0 or n1 % 2 == n2 % 2 == 1:
                continue
            c = np.array(build_even_poly(n1, n2).coeffs_at(ctx.g2, ctx.g3))
            for r, m in roots_univariate(c):
                if m == 1:
                    size = np.abs(c) @ np.abs(r) ** np.arange(len(c))
                    assert abs(np.polyval(c[::-1], r)) <= 1e-15 * size


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_roots_univariate_refuses_non_finite_coefficients(bad):
    # NaN roots are no answer: a non-finite coefficient is a typed give-up
    with pytest.raises(InconclusiveError):
        roots_univariate([1.0, bad, 1.0])


# ---------------------------------------------------------------------------
# low-discrepancy starts

def _radical_inverse(i, base):
    f = 1.0
    r = 0.0
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


@pytest.mark.parametrize("offset", [0, 101, 101 + 7919 * 1000002])
@pytest.mark.parametrize("count", [1, 513, 512])
def test_halton_block_matches_radical_inverse(offset, count):
    ref = np.array([[_radical_inverse(offset + row, b) for b in (2, 3, 5, 7, 11, 13)]
                    for row in range(count)])
    assert _halton_block(offset, count).tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# m = 0 census

def test_census_01_basic():
    prob = problem_m0(GENERIC_TAU, 0, 1)
    rep = solve_m0(prob)
    assert rep.bound == 1
    assert rep.total == 1
    assert rep.even_total == 1
    c = rep.clusters[0]
    assert abs(c.B) + abs(c.D0) + abs(c.D) <= 1e-10
    assert c.residual <= 1e-10
    assert not c.degenerate


def _assert_d_headroom(rep):
    """A point is accepted within five times the sample radii of the box;
    every root has |D| at most half of that for D in the first box, so the
    weighted D radius 10 (box / 10)^1.5 leaves at least 2x headroom."""
    sD = solver._sample_scales(rep.config["box_radius"])[2]
    assert max(abs(c.D) for c in rep.clusters) <= 0.5 * 5.0 * sD


@pytest.mark.parametrize("n1,n2,bound", [(0, 1, 1), (0, 2, 2), (0, 4, 5),
                                         (1, 2, 5), (1, 3, 8), (2, 3, 14),
                                         (2, 4, 20), (3, 7, 64)])
def test_census_reaches_bound_generic(n1, n2, bound):
    taus = random_taus(2, seed=1000 + 17 * n1 + n2)
    for tau in taus:
        prob = problem_m0(tau, n1, n2)
        rep = solve_m0(prob)
        assert rep.bound == bound
        assert rep.total == bound
        assert max(c.residual for c in rep.clusters) <= 1e-8
        _assert_d_headroom(rep)


# every noncritical pair with n1 < n2 and n1 + n2 <= 9 at GENERIC_TAU: 18
# censuses, each opening with a Halton chunk of only 7 starts per root
ATLAS_PAIRS = [(n1, n2) for n2 in range(1, 10) for n1 in range(n2)
               if n1 + n2 <= 9 and (n1 - n2) % 3]


@pytest.mark.parametrize("n1,n2", ATLAS_PAIRS)
def test_atlas_slice_reaches_bound(n1, n2):
    # no silent undercount, and the even sector whole (empty for odd/odd)
    rep = solve_m0(problem_m0(GENERIC_TAU, n1, n2))
    assert rep.total == rep.bound == bezout_bound([(n1, n2)])
    assert rep.even_total == (0 if n1 % 2 and n2 % 2 else even_count_Ne(n1, n2))


@pytest.mark.parametrize("n2,starts", [(1, 2), (2, 3), (4, 4)])
def test_seeds_alone_complete_small_census(monkeypatch, n2, starts):
    # the origin and the Ne even-sector roots reach every root of these
    # pairs, with the mirrors: the census runs them as a batch of their own
    # and spends no Halton start (a 512-start chunk before)
    sizes = []
    for name in ("m0_residual_batch", "m0_value_batch"):
        def counting(n1, n2, bnum, B, D0, D, kernel=getattr(solver, name)):
            sizes.append(len(B))
            return kernel(n1, n2, bnum, B, D0, D)
        monkeypatch.setattr(solver, name, counting)
    prob = problem_m0(GENERIC_TAU, 0, n2)
    rep = solve_m0(prob)
    assert rep.total == rep.bound
    assert rep.starts_used == starts == 1 + solver.build_even_poly(0, n2).Ne
    assert sizes and max(sizes) <= 4


def test_seeds_that_cannot_complete_join_the_first_chunk(monkeypatch):
    # (0,4) at tau = i has 3 roots: the seeds alone could reach 5 with their
    # mirrors, so they run first, and the search goes on with the Halton
    # starts it drew before, the box doublings included
    starts = []
    newton = solver._newton_m0_batch

    def recording(n1, n2, bnum, X0, scales, cfg, complete=None):
        starts.append(len(X0))
        return newton(n1, n2, bnum, X0, scales, cfg, complete)

    monkeypatch.setattr(solver, "_newton_m0_batch", recording)
    rep = solve_m0(problem_m0(1j, 0, 4))
    assert (rep.total, rep.bound, rep.starts_used, rep.doublings) == (3, 5, 2540, 3)
    # the Halton chunks open at 7 starts per root and double; each is cut
    # to what is left of its box's budget, 1,000 starts and then 512 per
    # doubled box, and the sizes carry on across the doublings
    assert starts == [4, 35, 70, 140, 280, 475, 512, 512, 512]


def test_halton_chunks_double_up_to_the_cap(monkeypatch):
    # (4,5) has 55 roots: chunks of 385 starts (and the 4 seeds), 770, 1540,
    # then 2048 each until a chunk completes the census; 1,217 kernel calls
    # over eighteen chunks of 512
    starts = []
    newton = solver._newton_m0_batch

    def recording(n1, n2, bnum, X0, scales, cfg, complete=None):
        starts.append(len(X0))
        return newton(n1, n2, bnum, X0, scales, cfg, complete)

    monkeypatch.setattr(solver, "_newton_m0_batch", recording)
    seen = _count_kernels(monkeypatch)
    rep = solve_m0(problem_m0(GENERIC_TAU, 4, 5))
    assert rep.total == rep.bound == 55 and rep.doublings == 0
    assert starts == [389, 770, 1540, 2048, 2048, 2048, 2048]
    assert rep.config["chunk"] == 385 and rep.config["max_chunk"] == 2048
    assert seen["calls"] <= 500


@pytest.mark.parametrize("n2", [1, 2, 4, 5])
def test_seeded_census_finds_the_even_sector(n2):
    # wherever the seeds run first, alone or not, the census reaches its
    # bound and every root of the even polynomial is an even cluster
    for tau in random_taus(3, seed=7100 + n2):
        prob = problem_m0(tau, 0, n2)
        ctx = compute_invariants(prob.lattice)
        rep = solve_m0(prob, ctx)
        assert rep.total == rep.bound
        even_B = [c.B for c in rep.clusters if c.is_even]
        for r in solve_even(prob, ctx).roots:
            assert min(abs(B - r.B) for B in even_B) <= 1e-8 * (1 + abs(r.B))


def test_weighted_d_radius_completes_in_the_first_box():
    # starts drawn with D within box^1.5 of the origin, sqrt(10) times the
    # weighted radius 10 * (box / 10)^1.5, spent the first damped iterates
    # pulling D back in: (3,7) took 2,561 starts over five chunks, and (4,5)
    # 12,028 starts and a doubling; the first chunk (448 starts, 512 when
    # every chunk held 512) completes (3,7) now
    rep = solve_m0(problem_m0(GENERIC_TAU, 3, 7))
    assert rep.total == rep.bound == 64
    assert rep.starts_used <= rep.config["chunk"] + 1  # the origin joins the first chunk
    _assert_d_headroom(rep)
    rep = solve_m0(problem_m0(GENERIC_TAU, 4, 5))
    assert rep.total == rep.bound == 55
    assert rep.doublings == 0
    _assert_d_headroom(rep)


def test_census_18_reaches_bound():
    # once missed 2 of 33 roots: the value and residual kernels rounded
    # differently, so Newton steps were judged against a drifted residual
    rep = solve_m0(problem_m0(0.05 + 0.88j, 1, 8))
    assert rep.total == rep.bound == 33
    assert all(c.residual <= 1e-10 for c in rep.clusters)


# two (2,7) roots at |B| ~ 185, |D| ~ 625 on this lattice
FLOOR_TAU = -0.37164574075052187 + 0.9927685925945093j


def test_large_roots_residual_floor():
    # doubles a few ulps from the largest root have |F| above 1e-10, yet
    # their residual relative to the size of the equations is near 1e-16
    ctx = compute_invariants(FLOOR_TAU)
    rep = solve_m0(problem_m0(FLOOR_TAU, 2, 7), ctx=ctx)
    c = max(rep.clusters, key=lambda c: abs(c.D))
    ulps = np.arange(-8, 9) * 2.0 ** -52
    X = np.array([c.B, c.D0, c.D]) * (1.0 + ulps[:, None])
    F = m0_value_batch(2, 7, ctx._bn_ext, X[:, 0], X[:, 1], X[:, 2])
    assert np.max(np.abs(F)) > 1e-10
    F, J = m0_residual_batch(2, 7, ctx._bn_ext, X[:, 0], X[:, 1], X[:, 2])
    assert np.max(_relative(F, J, X)) <= 1e-13


def test_census_large_roots_without_doubling():
    # an absolute acceptance saw the two roots above only when rounding
    # happened to read below 1e-10: here after 9,317 starts and a doubling
    rep = solve_m0(problem_m0(FLOOR_TAU, 2, 7))
    assert rep.total == rep.bound == 44
    assert rep.doublings == 0
    assert all(c.residual <= 1e-10 for c in rep.clusters)


CENSUS_TAU = -0.373 + 0.992j


# starts of the (3,5) and (2,7) censuses at CENSUS_TAU: one chunk and the
# structured starts, after which the mirrors of the roots found complete both
# (2,561 and 1,029 starts when every root had to be reached by Newton; 513
# and 517 when the first chunk held 512 starts, not 7 per root: 280 and 308
# now, with the origin and (2,7)'s four lifted even roots)
CENSUS_STARTS = (((3, 5), 40, 281), ((2, 7), 44, 313))


def test_newton_stops_at_convergence(monkeypatch):
    # converged starts once iterated to the caps, max_iter + polish_iter =
    # 100 Jacobians: 98.5 and 96.3 per start here, 16.7 and 16.6 with D
    # drawn within box^1.5, 14.8 and 12.3 in chunks of 512, 14.7 and 13.2
    # with a residual call per shortened step, 15.5 and 12.6 now
    points = [0]
    kernel = solver.m0_residual_batch

    def counting(n1, n2, bnum, B, D0, D):
        points[0] += len(B)
        return kernel(n1, n2, bnum, B, D0, D)

    monkeypatch.setattr(solver, "m0_residual_batch", counting)
    for (n1, n2), total, starts in CENSUS_STARTS:
        points[0] = 0
        rep = solve_m0(problem_m0(CENSUS_TAU, n1, n2))
        assert (rep.total, rep.bound, rep.starts_used) == (total, total, starts)
        assert points[0] <= 30 * rep.starts_used


def test_line_search_evaluates_only_halved_steps(monkeypatch):
    # each damped step once re-evaluated every point for each of its 3
    # trials, where only the halved steps had moved: 49.1 value points per
    # start here, against 18.1 when only those are evaluated again, 1.0 when
    # the half and the quarter step of each such point were judged (0.5 now,
    # the half step alone)
    points = [0]
    kernel = solver.m0_value_batch

    def counting(n1, n2, bnum, B, D0, D):
        points[0] += len(B)
        return kernel(n1, n2, bnum, B, D0, D)

    monkeypatch.setattr(solver, "m0_value_batch", counting)
    rep = solve_m0(problem_m0(CENSUS_TAU, 3, 5))
    assert (rep.total, rep.bound, rep.starts_used) == (40, 40, 281)
    assert points[0] <= 25 * rep.starts_used


def _count_kernels(monkeypatch):
    """calls and points of both kernels as the solver makes them"""
    seen = {"calls": 0, "points": 0}
    for name in ("m0_residual_batch", "m0_value_batch"):
        def counting(n1, n2, bnum, B, D0, D, kernel=getattr(solver, name)):
            seen["calls"] += 1
            seen["points"] += len(B)
            return kernel(n1, n2, bnum, B, D0, D)
        monkeypatch.setattr(solver, name, counting)
    return seen


def test_newton_evaluates_each_point_once(monkeypatch):
    # a trial point's F and J serve the next step and the acceptance test:
    # both kernels evaluated 36.6 and 37.1 points per start here when each
    # iterate judged its step by value, then re-evaluated the point with J
    # (17.9 and 17.9 with D drawn within box^1.5, 15.7 and 13.3 with the
    # quarter step judged by value, 15.2 and 12.8 in chunks of 512, 15.2
    # and 13.7 with a residual call per shortened step, 16.0 and 13.1 now)
    seen = _count_kernels(monkeypatch)
    for (n1, n2), total, starts in CENSUS_STARTS:
        seen["points"] = 0
        rep = solve_m0(problem_m0(CENSUS_TAU, n1, n2))
        assert (rep.total, rep.bound, rep.starts_used) == (total, total, starts)
        assert seen["points"] <= 22 * rep.starts_used


def _record_kernels(monkeypatch):
    """(kernel name, points (k, 3)) of every kernel call the solver makes"""
    calls = []
    for name in ("m0_residual_batch", "m0_value_batch"):
        def recording(n1, n2, bnum, B, D0, D, name=name, kernel=getattr(solver, name)):
            calls.append((name, np.stack([B, D0, D], axis=1)))
            return kernel(n1, n2, bnum, B, D0, D)
        monkeypatch.setattr(solver, name, recording)
    return calls


def _newton_evaluate_now(n1, n2, bnum, X0, scales, cfg):
    """_newton_m0_batch without a completion test as it was when a shortened
    step was evaluated in its own iterate: a second residual call, after the
    value call, moved the points whose full step grew the residual to the
    step picked.  Deferring that step to the next iterate's call must give
    every start the same trajectory, one iterate later per shortened step."""
    X = np.array(X0, complex)
    S = len(X)
    sc = np.asarray(scales, float)
    F = np.empty((S, 3), complex)
    J = np.empty((S, 3, 3), complex)
    res = np.empty(S)
    rel = np.empty(S)

    def table(idx):
        return bnum if np.ndim(bnum) == 1 else bnum[:, idx]

    def scales_at(idx):
        return sc if sc.ndim == 1 else sc[idx]

    def move(idx, Xn):
        with np.errstate(all="ignore"):
            Fn, Jn = solver.m0_residual_batch(n1, n2, table(idx), *Xn.T)
            X[idx], F[idx], J[idx] = Xn, Fn, Jn
            res[idx] = np.max(np.abs(Fn), axis=-1)
            rel[idx] = _relative(Fn, Jn, Xn)

    move(slice(None), X)
    for _ in range(solver._MAX_ITER):
        with np.errstate(all="ignore"):
            mag = solver._scaled_mag(X, sc)
        idx = np.flatnonzero(np.isfinite(res) & (res > solver._DAMPED_STOP) & (mag < 1e8)
                             & ~(rel <= solver._DAMPED_STOP))
        if not len(idx):
            break
        Xa, ra = X[idx], res[idx]
        with np.errstate(all="ignore"):
            step = solver._solve_steps(J[idx], F[idx])
            sn = solver._scaled_mag(step, scales_at(idx))
        cap = np.where(sn > 2.0, 2.0 / np.maximum(sn, 1e-300), 1.0)
        step = step * cap[:, None]
        move(idx, Xa + step)
        w = np.flatnonzero(~(res[idx] <= np.maximum(ra, cfg.accept_tol)))
        if len(w):
            half = step[w] * 0.5
            T = Xa[w] + half
            with np.errstate(all="ignore"):
                Ft = solver.m0_value_batch(n1, n2, table(idx[w]), *T.T)
                rt = np.max(np.abs(Ft), axis=-1)
            fail = ~(rt <= np.maximum(ra[w], cfg.accept_tol))
            T[fail] = Xa[w][fail] + half[fail] * 0.5
            move(idx[w], T)

    Xb, rb, relb, Jb = X.copy(), res.copy(), rel.copy(), J.copy()
    tail_prev = np.full(S, np.inf)
    tail_last = np.full(S, np.inf)
    near = np.isfinite(res) & (res <= max(cfg.accept_tol * 1e4, 1e-6))
    for _ in range(solver._POLISH_ITER):
        idx = np.flatnonzero(near & np.isfinite(res) & (res > solver._POLISH_STOP)
                             & ~(rel <= solver._POLISH_STOP))
        if not len(idx):
            break
        with np.errstate(all="ignore"):
            step = solver._solve_steps(J[idx], F[idx])
            sn = solver._scaled_mag(step, scales_at(idx))
        move(idx, X[idx] + step)
        tail_prev[idx] = tail_last[idx]
        tail_last[idx] = sn
        better = np.isfinite(res) & (res < rb)
        Xb[better], rb[better], relb[better], Jb[better] = (
            X[better], res[better], rel[better], J[better])
    return Xb, rb, relb, Jb, tail_prev, tail_last


def _rows(X):
    return {x.tobytes() for x in X}


def test_line_search_makes_one_value_call_per_iterate(monkeypatch):
    # the half step of every point whose full step grew the residual is
    # judged in one value call, so a full step's residual call lies between
    # any two value calls (two in a row were one iterate before), and the
    # value call holds at most the points of that full step.  The step
    # picked is evaluated in the next residual call, with the next full
    # steps, where it once took a call of its own: every half step that
    # passed its judgement is among that call's points, bit for bit.  Which
    # passed, the evaluate-now loop tells: the points of its value call that
    # its next residual call holds in place
    calls = _record_kernels(monkeypatch)
    newton = solver._newton_m0_batch
    monkeypatch.setattr(solver, "_newton_m0_batch",
                        lambda *args: _newton_evaluate_now(*args[:6]))
    solve_m0(problem_m0(CENSUS_TAU, 3, 5))
    judged, passed = set(), set()
    for (name, V), (_, R) in zip(calls, calls[1:]):
        if name == "m0_value_batch":
            judged |= _rows(V)
            passed |= _rows(V[np.all(V == R, axis=1)])
    assert 0 < len(passed) < len(judged)

    calls.clear()
    monkeypatch.setattr(solver, "_newton_m0_batch", newton)
    rep = solve_m0(problem_m0(CENSUS_TAU, 3, 5))
    assert (rep.total, rep.bound, rep.starts_used) == (40, 40, 281)
    names = [name for name, _ in calls]
    assert "m0_value_batch" in names
    assert all(a != b for a, b in zip(names, names[1:]) if a == "m0_value_batch")
    found = 0
    for (_, before), (name, V), (after, R) in zip(calls, calls[1:], calls[2:]):
        if name == "m0_value_batch":
            assert len(before) >= len(V) and after == "m0_residual_batch"
            # every half step is one that the evaluate-now loop judged
            assert _rows(V) <= judged
            assert _rows(V) & passed <= _rows(R)
            found += len(_rows(V) & passed)
    assert found > 0


@pytest.mark.parametrize("pair", [(3, 5), (2, 7), (0, 4), (1, 8), "two lattices", "capped"])
def test_deferred_steps_keep_every_trajectory(monkeypatch, pair):
    # without a completion test each start ends where the evaluate-now loop
    # ends it, bit for bit, from the same kernel points in fewer residual
    # calls; also for a batch with a Laurent table and metric scales per
    # start, as a scan's warm wave runs, and where the cap on a start's
    # damped steps stops most starts, held steps or not
    cfg = SolverConfig()
    taus = (CENSUS_TAU, GENERIC_TAU) if pair == "two lattices" else (CENSUS_TAU,)
    n1, n2 = pair if isinstance(pair, tuple) else (3, 5)
    if pair == "capped":
        monkeypatch.setattr(solver, "_MAX_ITER", 6)
    parts = []
    for k, tau in enumerate(taus):
        ctx = compute_invariants(tau)
        box = solver._first_box(ctx.g2, ctx.g3)
        X = np.vstack([solver._structured_starts(n1, n2, ctx.g2, ctx.g3),
                       solver._starts_from_unit(_halton_block(101 + 300 * k, 300),
                                                solver._sample_scales(box))])
        parts.append((ctx._bn_ext, X, solver._metric_scales(box)))
    sizes = [len(X) for _, X, _ in parts]
    if len(parts) == 1:
        bnum, X, scales = parts[0]
    else:
        bnum = np.repeat(np.stack([b for b, _, _ in parts], axis=1), sizes, axis=1)
        X = np.vstack([X for _, X, _ in parts])
        scales = np.repeat([sc for _, _, sc in parts], sizes, axis=0)
    seen = _count_kernels(monkeypatch)
    got = solver._newton_m0_batch(n1, n2, bnum, X, scales, cfg)
    deferred = dict(seen)
    seen.update(calls=0, points=0)
    want = _newton_evaluate_now(n1, n2, bnum, X, scales, cfg)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()
    assert deferred["points"] == seen["points"]
    if pair != "capped":
        # fewer calls: some steps were shortened
        assert deferred["calls"] < seen["calls"]


def test_completion_is_judged_before_the_value_call(monkeypatch):
    # complete gets the points that an iterate's residual call brought to
    # convergence before the value call judges the half steps: once it says
    # the census is complete, the held steps are dropped and no value call
    # is made, and every start is returned with the kernel's F, J and rel at
    # the point it stands on
    n1, n2 = 3, 5
    cfg = SolverConfig()
    ctx = compute_invariants(CENSUS_TAU)
    box = solver._first_box(ctx.g2, ctx.g3)
    X0 = np.vstack([solver._structured_starts(n1, n2, ctx.g2, ctx.g3),
                    solver._starts_from_unit(_halton_block(101, 300),
                                             solver._sample_scales(box))])
    args = (n1, n2, ctx._bn_ext, X0, solver._metric_scales(box), cfg)
    calls = _record_kernels(monkeypatch)
    fired = []

    def complete(X):
        fired.append(len(calls))
        return True

    out = solver._newton_m0_batch(*args, complete)
    assert len(fired) == 1
    names = [name for name, _ in calls]
    assert names[fired[0] - 1] == "m0_residual_batch"
    assert "m0_value_batch" not in names[fired[0]:]
    _assert_current(n1, n2, ctx._bn_ext, out)
    # without the test, a value call follows that residual call
    calls.clear()
    solver._newton_m0_batch(*args)
    assert [name for name, _ in calls][fired[0]] == "m0_value_batch"


def test_census_stopped_by_completion_polishes_next(monkeypatch):
    # the chunk that completes the (3,5) census ends its damped loop at a
    # residual call, and the next kernel call is the polish's, not a value
    # call for half steps that nothing would evaluate
    calls = _record_kernels(monkeypatch)
    fired = []
    completion_test = solver._completion_test

    def recorded(*args):
        complete = completion_test(*args)

        def test(X):
            done = complete(X)
            if done:
                fired.append(len(calls))
            return done
        return test

    monkeypatch.setattr(solver, "_completion_test", recorded)
    rep = solve_m0(problem_m0(CENSUS_TAU, 3, 5))
    assert (rep.total, rep.bound, rep.starts_used) == (40, 40, 281)
    assert len(fired) == 1
    names = [name for name, _ in calls]
    assert names[fired[0] - 1:fired[0] + 1] == ["m0_residual_batch"] * 2


# the bench's census tasks at seed 1: (3,5) and (2,7) at CENSUS_TAU jittered
# by the seed, (2,6) at CENSUS_TAU, (1,8) at 0.05+0.88i
BENCH_CENSUS_TAU = -0.37295271350119896 + 0.9938018547853037j
BENCH_CENSUS = (((3, 5), BENCH_CENSUS_TAU), ((2, 7), BENCH_CENSUS_TAU),
                ((2, 6), CENSUS_TAU), ((1, 8), 0.05 + 0.88j))


def test_bench_census_kernel_calls(monkeypatch):
    # the census's work, counted without a timer: 213 residual and 170 value
    # calls when the line search judged its two shorter steps in two calls
    # and every start of a chunk ran to convergence; 144 and 68 since, on
    # 35,355 and 2,872 points, when the starts drew D within box^1.5; 112
    # and 52 on 28,802 and 2,174 with the weighted radius 10 (box / 10)^1.5,
    # from the same starts; 1,087 value points since the line search judges
    # the half step alone; 120 and 56 calls on 15,814 and 632 points with
    # chunks of 7 starts per root, when a shortened step took a residual
    # call of its own
    calls = {"m0_residual_batch": 0, "m0_value_batch": 0}
    points = dict(calls)
    for name in calls:
        def counting(n1, n2, bnum, B, D0, D, name=name, kernel=getattr(solver, name)):
            calls[name] += 1
            points[name] += len(B)
            return kernel(n1, n2, bnum, B, D0, D)
        monkeypatch.setattr(solver, name, counting)
    starts = []
    for (n1, n2), tau in BENCH_CENSUS:
        rep = solve_m0(problem_m0(tau, n1, n2))
        assert rep.total == rep.bound
        _assert_d_headroom(rep)
        starts.append(rep.starts_used)
    # one chunk each, of 7 starts per root (with the seeds) where it was 512
    # starts; a shortened step rides the next iterate's residual call, and
    # a chunk's completion is judged before its value call: 67 and 55 calls
    # on 15,728 and 553 points
    assert starts == [281, 313, 251, 233]
    assert calls["m0_residual_batch"] <= 67 and calls["m0_value_batch"] <= 55
    assert points["m0_residual_batch"] <= 15750 and points["m0_value_batch"] <= 560


def test_completion_test_counts_kept_roots_points_and_mirrors():
    # distinct roots among the clusters kept, the points handed so far
    # inside the sample box, and the mirrors of the non-even ones
    box = 10.0
    clusters = solver._cluster_points(np.array([[1.0, 0, 0]], complex), np.zeros(1),
                                      solver._Clusters(solver._metric_scales(box)))

    def counted(*batches):
        """the largest bound that the batches, handed in turn, complete"""
        n = 0
        while True:
            complete = solver._completion_test(clusters, n + 1, solver._sample_scales(box))
            if not [complete(np.array(X, complex)) for X in batches][-1]:
                return n
            n += 1

    # an even point, a point of the kept cluster, one outside the box
    even = [[2.0, 0, 0], [1.0 + 1e-9, 0, 0], [1e3, 0, 0]]
    assert counted(even) == 2
    # a non-even point, twice, and its mirror
    assert counted(even, [[3.0, 1.0, 1.0], [3.0, 1.0, 1.0]]) == 4
    # that mirror reached by Newton as well, then a new root
    assert counted(even, [[3.0, 1.0, 1.0]], [[3.0, -1.0, -1.0]]) == 4
    assert counted(even, [[3.0, 1.0, 1.0]], [[3.0, -1.0, -1.0]], [[4.0, 0, 0]]) == 5
    assert len(clusters) == 1


def _census_counts(rep):
    return (rep.total, rep.bound, rep.even_total, rep.starts_used, rep.doublings,
            sum(c.degenerate for c in rep.clusters))


STOP_CASES = {
    **{"%d,%d-random%d" % (*pair, k): (pair, tau, None)
       for pair in ((0, 4), (2, 4), (3, 5), (2, 7), (1, 8))
       for k, tau in enumerate(random_taus(3, seed=5150))},
    "0,4-i": ((0, 4), 1j, None),  # 2,540 starts and 3 doublings, 3 of 5 roots
    "4,5-seven-chunks": ((4, 5), GENERIC_TAU, None),
    "2,4-doubled": ((2, 4), CENSUS_TAU, 40.0),  # first box 40: one doubling
}


@pytest.mark.parametrize("pair,tau,box", STOP_CASES.values(), ids=STOP_CASES.keys())
def test_chunks_stopped_at_the_bound_keep_the_census(monkeypatch, pair, tau, box):
    # a Halton chunk stops its damped loop once the converged points, their
    # mirrors and the clusters so far hold the bound; by theorem (i) the
    # census then completes in the same chunk: the same counts, starts and
    # doublings as when every start runs to convergence, from no more
    # Newton endpoints
    if box is not None:
        monkeypatch.setattr(solver, "_first_box", lambda g2, g3: box)
    prob = problem_m0(tau, *pair)
    ctx = compute_invariants(tau)
    stopped = solve_m0(prob, ctx)
    newton = solver._newton_m0_batch
    monkeypatch.setattr(solver, "_newton_m0_batch", lambda *args: newton(*args[:6]))
    full = solve_m0(prob, ctx)
    assert _census_counts(stopped) == _census_counts(full)
    assert all(c.residual <= 1e-10 for c in stopped.clusters)
    hits = [sum(c.hits for c in rep.clusters) for rep in (stopped, full)]
    assert hits[0] <= hits[1]
    seeds = len(solver._structured_starts(*pair, ctx.g2, ctx.g3))
    if stopped.total == stopped.bound and stopped.starts_used > seeds:
        # a Halton chunk completed the census, and stopped early
        assert hits[0] < hits[1]


def test_newton_batch_over_two_lattices_matches_separate_batches():
    # each start carries its lattice's Laurent column and metric scales, so
    # one batch over two lattices is two batches of their own, bit for bit
    n1, n2 = 3, 5
    parts = []
    for k, tau in enumerate((CENSUS_TAU, GENERIC_TAU)):
        ctx = compute_invariants(tau)
        box = solver._first_box(ctx.g2, ctx.g3)
        u = _halton_block(101 + 37 * k, 64)
        u[-4:] *= 1e9  # far outside the box: never stepped
        X = np.vstack([solver._structured_starts(n1, n2, ctx.g2, ctx.g3),
                       solver._starts_from_unit(u, (box, box, box ** 1.5))])
        parts.append((ctx._bn_ext, X, solver._metric_scales(box)))
    cfg = SolverConfig()
    alone = [solver._newton_m0_batch(n1, n2, b, X, sc, cfg) for b, X, sc in parts]
    sizes = [len(X) for _, X, _ in parts]
    tables = np.repeat(np.stack([b for b, _, _ in parts], axis=1), sizes, axis=1)
    scales = np.repeat([sc for _, _, sc in parts], sizes, axis=0)
    mixed = solver._newton_m0_batch(n1, n2, tables, np.vstack([X for _, X, _ in parts]),
                                    scales, cfg)
    for got, want in zip(mixed, alone[0]):
        assert got[:sizes[0]].tobytes() == want.tobytes()
    for got, want in zip(mixed, alone[1]):
        assert got[sizes[0]:].tobytes() == want.tobytes()
    # some starts of each lattice converged, and some did not
    for _, _, rel, *_ in alone:
        assert 0 < np.sum(rel <= 1e-10) < len(rel)


def _assert_current(n1, n2, bnum, out):
    """Every start with a finite residual has the res, rel and J that the
    kernel gives at its returned point, bit for bit."""
    X, res, rel, J = out[:4]
    fin = np.flatnonzero(np.isfinite(res))
    assert len(fin)
    F, Jk = m0_residual_batch(n1, n2, bnum, *X[fin].T)
    assert res[fin].tobytes() == np.max(np.abs(F), axis=-1).tobytes()
    assert rel[fin].tobytes() == _relative(F, Jk, X[fin]).tobytes()
    assert J[fin].tobytes() == Jk.tobytes()


def test_newton_keeps_f_and_j_current(monkeypatch):
    # a point whose full step grew the residual goes back with its F and J,
    # and its shorter step is evaluated with its Jacobian in the next
    # residual call, so what Newton returns is the kernel's at the returned
    # point, also where complete stops the damped loop early
    n1, n2 = 3, 5
    values = [0]
    kernel = solver.m0_value_batch

    def counting(*args):
        values[0] += 1
        return kernel(*args)

    monkeypatch.setattr(solver, "m0_value_batch", counting)
    cfg = SolverConfig()
    ctx = compute_invariants(CENSUS_TAU)
    box = solver._first_box(ctx.g2, ctx.g3)
    X0 = solver._starts_from_unit(_halton_block(101, 512), (box, box, box ** 1.5))
    handed = []

    def complete(X):
        handed.append(len(X))
        return sum(handed) >= 40

    for stop in (None, complete):
        values[0] = 0
        out = solver._newton_m0_batch(n1, n2, ctx._bn_ext, X0, solver._metric_scales(box),
                                      cfg, stop)
        _assert_current(n1, n2, ctx._bn_ext, out)
        assert values[0] > 0
    assert sum(handed) >= 40
    # a scan's warm wave over two lattices, each cell from the roots of the
    # cell 0.1 before it
    cells = []
    for tau in (CENSUS_TAU, GENERIC_TAU):
        rep = solve_m0(problem_m0(tau - 0.1, n1, n2))
        cells.append((compute_invariants(tau),
                      np.array([[c.B, c.D0, c.D] for c in rep.clusters], complex)))
    values[0] = 0
    for (ctx, _), out in zip(cells, solver._warm_wave(n1, n2, cells, cfg)):
        _assert_current(n1, n2, ctx._bn_ext, out)
    assert values[0] > 0


def test_solve_steps_falls_back_to_least_squares():
    # diag(0, -1e-8, 1) is flagged singular and shifted to diag(1e-8, 0, 1 +
    # 1e-8), still singular: the stacked solve fails, and that matrix alone
    # takes a least-squares step
    J = np.array([np.diag([0.0, -1e-8, 1.0]), np.eye(3)], complex)
    F = np.array([[1.0, 2.0, 3.0], [4.0, 5j, 6.0]])
    step = solver._solve_steps(J, F)
    assert np.isfinite(step).all()
    assert np.array_equal(step[1], -F[1])
    assert np.allclose(step[0], [-1e8, 0.0, -3.0], rtol=1e-7)


def _greedy_clusters(pts, res, scales, merge_tol):
    """From-scratch greedy merge in the scaled max-metric: index lists,
    minimum-residual member first."""
    sB, sD0, sD = scales
    centers, groups = [], []
    for idx in np.argsort(res, kind="stable"):
        p = pts[idx]
        for g, c in zip(groups, centers):
            if max(abs(p[0] - c[0]) / sB, abs(p[1] - c[1]) / sD0,
                   abs(p[2] - c[2]) / sD) <= merge_tol:
                g.append(idx)
                break
        else:
            groups.append([idx])
            centers.append(p)
    return groups


def _groups(clusters):
    return sorted((int(r), np.flatnonzero(clusters.label == k).tolist())
                  for k, r in enumerate(clusters.rep))


@pytest.mark.parametrize("n1,n2,tau,calls,doublings,degenerate", [
    # seven chunks in one box (the seeds join the first), mirrors after the
    # first, the third and the last (eighteen chunks of 512 made 21 calls)
    (4, 5, GENERIC_TAU, 10, 0, 0),
    # the seeds, five chunks, then per doubling a re-merge and a chunk (9
    # calls with two chunks of 512 in the first box)
    (0, 4, 1j, 12, 3, 1),
])
def test_incremental_clusters_match_greedy(monkeypatch, n1, n2, tau, calls,
                                           doublings, degenerate):
    # after every chunk and every batch of mirrors, the clusters kept so far
    # equal a from-scratch merge of every point accepted since the last box
    # doubling merged them afresh
    seen, checked, added = [], [], []
    from_newton = [False]
    merge = solver._cluster_points
    newton = solver._newton_m0_batch

    def checking(pts, res, clusters):
        nonlocal calls
        calls -= 1
        # Newton's endpoints, mirrors, or a re-merge of every point so far
        if from_newton[0] or len(clusters.label):
            endpoint = np.full(len(pts), from_newton[0])
            added.append(endpoint)
        else:
            endpoint = np.concatenate(added)
        from_newton[0] = False
        if not len(clusters.label):
            seen.clear()
        seen.append((pts.copy(), res.copy(), endpoint))
        out = merge(pts, res, clusters)
        P, R, E = (np.concatenate(a) for a in zip(*seen))
        groups = _greedy_clusters(P, R, 1.0 / clusters.inv_scales, solver._MERGE_TOL)
        assert _groups(clusters) == sorted((g[0], sorted(g)) for g in groups)
        checked[:] = [(P, R, E, groups)]
        return out

    def marking(*args):
        from_newton[0] = True
        return newton(*args)

    monkeypatch.setattr(solver, "_cluster_points", checking)
    monkeypatch.setattr(solver, "_newton_m0_batch", marking)
    rep = solve_m0(problem_m0(tau, n1, n2))
    assert (calls, rep.doublings) == (0, doublings)
    assert sum(c.degenerate for c in rep.clusters) == degenerate
    # the report lists the representatives, in sorted order, with their hits:
    # the members that are Newton endpoints, not mirrors
    pts, res, endpoint, groups = checked[0]
    key = lambda p: tuple(v for z in p for v in (round(z.real, 9), round(z.imag, 9)))
    want = [(*map(complex, pts[g[0]]), int(endpoint[g].sum()), float(res[g[0]]))
            for g in sorted(groups, key=lambda g: key(pts[g[0]]))]
    assert [(c.B, c.D0, c.D, c.hits, c.residual) for c in rep.clusters] == want
    if n1:
        # a cluster first reached as a mirror
        assert min(c.hits for c in rep.clusters) == 0


def _sigma_min_at(n1, n2, bnum, clusters):
    """sigma_min of the kernel Jacobian at each reported root"""
    X = np.array([[c.B, c.D0, c.D] for c in clusters])
    _, J = m0_residual_batch(n1, n2, bnum, X[:, 0], X[:, 1], X[:, 2])
    return np.linalg.svd(J, compute_uv=False)[:, -1].tolist()


@pytest.mark.parametrize("promote", [False, True])
def test_sigma_min_from_newton_jacobians(monkeypatch, promote):
    # the census keeps Newton's J at every accepted point, so sigma_min
    # costs no kernel call, even at a point that becomes a representative
    # when a box doubling merges the points afresh (forced here by raising
    # the residual that ranks the old one first)
    calls = []
    kernel = solver.m0_residual_batch
    newton = solver._newton_m0_batch
    merge = solver._cluster_points
    depth = [0]

    def counting(n1, n2, bnum, B, D0, D):
        calls.append(depth[0])
        return kernel(n1, n2, bnum, B, D0, D)

    def in_newton(*args):
        depth[0] += 1
        try:
            return newton(*args)
        finally:
            depth[0] -= 1

    fresh = []

    def promoting(pts, res, clusters):
        if not len(clusters.label):
            fresh.append(len(pts))
            if promote and len(fresh) > 1:  # a re-merge after a doubling
                res = res.copy()
                res[np.argmin(res)] = np.inf
        return merge(pts, res, clusters)

    monkeypatch.setattr(solver, "m0_residual_batch", counting)
    monkeypatch.setattr(solver, "_newton_m0_batch", in_newton)
    monkeypatch.setattr(solver, "_cluster_points", promoting)
    ctx = compute_invariants(1j)
    rep = solve_m0(problem_m0(1j, 0, 4), ctx)
    assert rep.doublings == len(fresh) - 1 == 3
    assert calls.count(0) == 0
    assert [c.sigma_min for c in rep.clusters] == _sigma_min_at(0, 4, ctx._bn_ext, rep.clusters)


RHO = complex(0.5, math.sqrt(3.0) / 2.0)
SIGMA_PAIRS = [(0, 2), (0, 4), (1, 2), (1, 3), (2, 3), (2, 4), (2, 7), (3, 5),
               (1, 8), (3, 7), (4, 8), (5, 9)]


@pytest.mark.parametrize("tau", [GENERIC_TAU, 1j, RHO], ids=["generic", "i", "rho"])
@pytest.mark.parametrize("n1,n2", SIGMA_PAIRS)
def test_kernels_are_sigma_equivariant(n1, n2, tau):
    # z -> -z maps (B, D0, D) to sigma x = (B, -D0, -D): the kernels give
    # F(sigma x) = s F(x) and J(sigma x) = s J(x) diag(1, -1, -1) bit for bit,
    # so a mirror's relative residual is its root's, and costs no kernel call
    bnum = compute_invariants(tau)._bn_ext
    s = solver._mirror_signs(n1, n2)
    gen = np.random.default_rng(17 * n1 + n2)
    for S in (1, 513):
        X = (gen.standard_normal((S, 3)) + 1j * gen.standard_normal((S, 3))) * [30, 5, 100]
        M = X * solver._SIGMA
        F, J = m0_residual_batch(n1, n2, bnum, *X.T)
        FM, JM = m0_residual_batch(n1, n2, bnum, *M.T)
        assert FM.tobytes() == (F * s).tobytes()
        # the sign of a zero entry may differ
        assert np.array_equal(JM, s[:, None] * J * solver._SIGMA)
        V = m0_value_batch(n1, n2, bnum, *M.T)
        assert V.tobytes() == (m0_value_batch(n1, n2, bnum, *X.T) * s).tobytes()
        assert _relative(FM, JM, M).tobytes() == _relative(F, J, X).tobytes()


def _count_accepted(monkeypatch):
    """Newton endpoints that the census accepts, judged as _census judges
    them"""
    accepted = [0]
    newton = solver._newton_m0_batch

    def counting(n1, n2, bnum, X0, scales, cfg, complete=None):
        out = newton(n1, n2, bnum, X0, scales, cfg, complete)
        X, res, rel = out[:3]
        with np.errstate(all="ignore"):
            mag = np.max(np.abs(X) / solver._sample_scales(scales[0]), axis=1)
        accepted[0] += int(np.sum(np.isfinite(res) & (mag < 5.0) & (rel <= cfg.accept_tol)))
        return out

    monkeypatch.setattr(solver, "_newton_m0_batch", counting)
    return accepted


def _assert_sigma_closed(rep):
    """sigma maps the reported roots onto themselves, and fixes the even
    ones only"""
    X = np.array([[c.B, c.D0, c.D] for c in rep.clusters])
    scales = np.array(solver._metric_scales(rep.box_radius))
    dist = (np.abs(X[:, None, :] * solver._SIGMA - X[None, :, :]) / scales).max(axis=-1)
    image = np.argmin(dist, axis=1)
    assert np.all(dist[np.arange(len(X)), image] <= solver._MERGE_TOL)
    assert np.array_equal(image[image], np.arange(len(X)))
    assert np.array_equal(image == np.arange(len(X)), [c.is_even for c in rep.clusters])


@pytest.mark.parametrize("n1,n2", [(0, 4), (3, 5), (2, 7), (1, 8)])
def test_complete_census_is_sigma_closed(monkeypatch, n1, n2):
    # non-even roots come in pairs {x, sigma x}, so a complete census is
    # sigma-closed and the bound exceeds the even count by an even number;
    # mirrors are clustered, but only Newton endpoints count as hits
    accepted = _count_accepted(monkeypatch)
    for tau in random_taus(3, seed=4242):
        accepted[0] = 0
        rep = solve_m0(problem_m0(tau, n1, n2))
        assert rep.total == rep.bound
        assert (rep.bound - rep.even_total) % 2 == 0
        _assert_sigma_closed(rep)
        assert sum(c.hits for c in rep.clusters) == accepted[0]


# tau -> -1/tau scales the lattice by 1/tau, so g2 -> tau^4 g2, g3 -> tau^6 g3
# and a root (B, D0, D) -> (tau^2 B, tau D0, tau^3 D); tau -> tau + 1 keeps it
MODULAR_MOVES = {"S": (-1 / GENERIC_TAU, np.array([GENERIC_TAU ** 2, GENERIC_TAU, GENERIC_TAU ** 3])),
                 "T": (GENERIC_TAU + 1, np.ones(3))}


def _assert_same_roots(want, got, scale):
    # a one-to-one match, each component within 1e-12 of its scale (the
    # largest size it takes over the roots; 2e-16 to 2e-15 measured)
    assert got.shape == want.shape
    dist = (np.abs(want[:, None] - got[None]) / scale).max(axis=-1)
    assert sorted(dist.argmin(axis=1)) == list(range(len(got)))
    assert dist.min(axis=1).max() <= 1e-12


@pytest.mark.parametrize("move", MODULAR_MOVES, ids=MODULAR_MOVES.keys())
@pytest.mark.parametrize("n1,n2", [(2, 4), (3, 5), (1, 8)])
def test_census_is_modular_covariant(n1, n2, move):
    # the census reads the lattice only through (g2, g3): on a lattice of
    # the same class it finds the weight-scaled roots, with the same starts
    tau, weights = MODULAR_MOVES[move]
    base = solve_m0(problem_m0(GENERIC_TAU, n1, n2))
    moved = solve_m0(problem_m0(tau, n1, n2))
    assert moved.total == base.total == base.bound
    assert moved.starts_used == base.starts_used
    X = np.array([[c.B, c.D0, c.D] for c in base.clusters]) * weights
    _assert_same_roots(X, np.array([[c.B, c.D0, c.D] for c in moved.clusters]),
                       np.abs(X).max(axis=0))


@pytest.mark.parametrize("move", MODULAR_MOVES, ids=MODULAR_MOVES.keys())
def test_even_sector_is_modular_covariant(move):
    tau, weights = MODULAR_MOVES[move]
    base = solve_even(problem_m0(GENERIC_TAU, 0, 4))
    moved = solve_even(problem_m0(tau, 0, 4))
    assert len(base.roots) == 3
    assert [r.multiplicity for r in moved.roots] == [r.multiplicity for r in base.roots]
    B = np.array([[r.B] for r in base.roots]) * weights[0]
    _assert_same_roots(B, np.array([[r.B] for r in moved.roots]), np.abs(B).max(axis=0))


def test_mirrors_survive_a_box_doubling(monkeypatch):
    # the re-merge after a box doubling clusters mirrors and endpoints
    # afresh, and the hits still count the endpoints alone
    accepted = _count_accepted(monkeypatch)
    merge = solver._cluster_points
    merged = [0]

    def counting(pts, res, clusters):
        merged[0] = len(clusters.label) + len(pts)
        return merge(pts, res, clusters)

    monkeypatch.setattr(solver, "_cluster_points", counting)
    monkeypatch.setattr(solver, "_first_box", lambda g2, g3: 40.0)
    rep = solve_m0(problem_m0(CENSUS_TAU, 2, 4))
    assert rep.doublings == 1
    assert rep.total == rep.bound == 20
    _assert_sigma_closed(rep)
    assert sum(c.hits for c in rep.clusters) == accepted[0]
    assert merged[0] > accepted[0]  # mirrors were among the points re-merged


def test_mirrors_cost_no_kernel_call(monkeypatch):
    # a mirror's residual, polish tails and J are its root's up to signs:
    # every kernel call is Newton's, and each reported residual and
    # sigma_min is the kernel's at the reported root, mirrors included
    seen, waves, other = _count_wave_kernels(monkeypatch)
    ctx = compute_invariants(CENSUS_TAU)
    rep = solve_m0(problem_m0(CENSUS_TAU, 3, 5), ctx)
    assert seen["calls"] == other[0] and not waves
    assert any(c.hits == 0 for c in rep.clusters)
    X = np.array([[c.B, c.D0, c.D] for c in rep.clusters])
    F, J = m0_residual_batch(3, 5, ctx._bn_ext, *X.T)
    assert [c.residual for c in rep.clusters] == _relative(F, J, X).tolist()
    assert [c.sigma_min for c in rep.clusters] == _sigma_min_at(3, 5, ctx._bn_ext, rep.clusters)


def test_census_02_root_identity():
    for tau in random_taus(3, seed=42):
        prob = problem_m0(tau, 0, 2)
        ctx = compute_invariants(prob.lattice)
        rep = solve_m0(prob, ctx)
        assert rep.total == 2 and rep.even_total == 2
        for c in rep.clusters:
            assert abs(3.0 * c.B ** 2 - ctx.g2) <= 1e-8 * (1 + abs(ctx.g2))
            assert abs(c.D0) <= 1e-8 and abs(c.D) <= 1e-8


def test_census_04_special_lattices():
    # square lattice: two pairs merge, all remaining roots even
    rep_i = solve_m0(problem_m0(1j, 0, 4))
    assert (rep_i.total, rep_i.even_total) == (3, 3)
    # hexagonal-adjacent zero of the weight-12 form: one double even root
    from todacensus.elliptic import find_form_zero

    tau0 = complex(find_form_zero("343g2^3-6561g3^2", 0.5 + 1.2j))
    rep_0 = solve_m0(problem_m0(tau0, 0, 4))
    assert (rep_0.total, rep_0.even_total) == (4, 2)
    # the square-lattice origin cluster (a triple collision) is flagged
    assert any(c.degenerate for c in rep_i.clusters)
    # tau0 is only a ~1e-12 zero of the form, so the colliding pair there
    # merely splits at the square-root scale: expect sigma_min to crater
    # relative to the simple clusters rather than to cross the hard flag
    smins = sorted(c.sigma_min for c in rep_0.clusters)
    assert smins[0] <= 1e-4 * smins[1]


def test_census_02_hexagonal_merge():
    rho = complex(0.5, math.sqrt(3.0) / 2.0)
    rep = solve_m0(problem_m0(rho, 0, 2))
    assert rep.total == 1
    assert abs(rep.clusters[0].B) <= 1e-6


def test_census_non_even_root_identity_04():
    for tau in random_taus(2, seed=9):
        prob = problem_m0(tau, 0, 4)
        ctx = compute_invariants(prob.lattice)
        rep = solve_m0(prob, ctx)
        non_even = [c for c in rep.clusters if not c.is_even]
        assert len(non_even) == 2
        for c in non_even:
            assert abs(c.B) <= 1e-8
            assert abs(27.0 * c.D ** 2 + 288.0 * ctx.g3) <= 1e-6 * (1 + abs(ctx.g3))


def test_census_determinism():
    prob = problem_m0(GENERIC_TAU, 1, 2)
    r1 = solve_m0(prob, config=SolverConfig(seed=5))
    r2 = solve_m0(prob, config=SolverConfig(seed=5))
    assert [(c.B, c.D0, c.D) for c in r1.clusters] == \
           [(c.B, c.D0, c.D) for c in r2.clusters]


def test_census_critical_refusal():
    with pytest.raises(CriticalParametersError):
        solve_m0(problem_m0(GENERIC_TAU, 1, 4))


# every entry point that takes one puncture's pair, as a call on (n1, n2)
SINGLE_PUNCTURE_CALLS = {
    "build_m0_system": build_m0_system,
    "bezout_bound": lambda n1, n2: bezout_bound([(n1, n2)]),
    "even_count_Ne": even_count_Ne,
    "solve_m0": lambda n1, n2: solve_m0(problem_m0(GENERIC_TAU, n1, n2)),
    "solve_even": lambda n1, n2: solve_even(problem_m0(GENERIC_TAU, n1, n2)),
    "solve_m0_degenerate": solve_m0_degenerate,
    "scan_tau": lambda n1, n2: scan_tau(
        n1, n2, {"re0": 0.2, "re1": 0.2, "nre": 1, "im0": 1.1, "im1": 1.1, "nim": 1}),
}


@pytest.mark.parametrize("name", sorted(SINGLE_PUNCTURE_CALLS))
def test_single_puncture_entry_points_refuse_alike(name):
    call = SINGLE_PUNCTURE_CALLS[name]
    # a critical pair gets the one text that a critical set of punctures gets
    with pytest.raises(CriticalParametersError) as want:
        derive_problem(GENERIC_TAU, [(0.0, 0, 1), (0.5, 1, 0)]).require_noncritical()
    with pytest.raises(CriticalParametersError) as got:
        call(0, 3)
    assert str(got.value) == str(want.value)
    # a negative multiplicity is refused before the (critical) totals
    with pytest.raises(StructuralError):
        call(-1, 2)
    if name not in ("bezout_bound", "even_count_Ne"):  # these take either order
        with pytest.raises(StructuralError):
            call(2, 1)


def test_degenerate_probe():
    rep = solve_m0_degenerate(0, 2)
    assert rep.tau is None
    assert rep.config["box_radius"] == 10.0  # the first box, at g2 = g3 = 0
    assert rep.total == 1
    c = rep.clusters[0]
    assert abs(c.B) + abs(c.D0) + abs(c.D) <= 1e-8
    assert c.degenerate  # the origin root of the cone is always singular
    rep1 = solve_m0_degenerate(0, 1)
    assert rep1.total == 1


# ---------------------------------------------------------------------------
# even sector

def test_solve_even_matches_census_labels():
    for (n1, n2) in [(0, 2), (0, 4), (2, 3), (2, 4)]:
        prob = problem_m0(GENERIC_TAU, n1, n2)
        ctx = compute_invariants(prob.lattice)
        census = solve_m0(prob, ctx)
        ev = solve_even(prob, ctx)
        census_B = sorted(
            (c.B for c in census.clusters if c.is_even),
            key=lambda z: (round(z.real, 6), round(z.imag, 6)),
        )
        poly_B = sorted(
            (r.B for r in ev.roots for _ in range(r.multiplicity)),
            key=lambda z: (round(z.real, 6), round(z.imag, 6)),
        )
        assert len(census_B) == len(poly_B)
        for a, b in zip(census_B, poly_B):
            assert abs(a - b) <= 1e-6 * (1 + abs(b))


def test_solve_even_reports_poly_text():
    rep = solve_even(problem_m0(GENERIC_TAU, 0, 2))
    assert "B" in rep.poly
    assert to_jsonable(rep)["poly"] == rep.poly
    assert rep.Ne == 2
    assert all(r.residual <= 1e-8 for r in rep.roots)


def test_even_residual_is_relative():
    # |P_Ne(B)| against the size of its terms: the absolute value read up to
    # 4.21 at these roots, rounding noise at |B| in the hundreds
    rep = solve_even(problem_m0(GENERIC_TAU, 4, 8))
    simple = [r for r in rep.roots if r.multiplicity == 1]
    assert simple
    assert all(r.residual <= 1e-15 for r in simple)
    # P_Ne = B for (0,1): its root 0 has no terms to measure against
    (root,) = solve_even(problem_m0(GENERIC_TAU, 0, 1)).roots
    assert (root.B, root.residual) == (0, 0.0)


def test_solve_even_refusals():
    with pytest.raises(EvenNonexistenceError):
        solve_even(problem_m0(GENERIC_TAU, 1, 3))


# ---------------------------------------------------------------------------
# scans

def test_scan_grid_and_clipping():
    grid = {"re0": -0.1, "re1": 0.1, "nre": 3, "im0": -0.5, "im1": 1.0, "nim": 4}
    rows = scan_tau(0, 1, grid)
    # rows with im <= 0 are clipped away; im grid is {-0.5, 0, 0.5, 1.0}
    assert all(r["tau_im"] > 0 for r in rows)
    assert len(rows) == 6
    # row-major ordering: imaginary part varies slowest
    ims = [r["tau_im"] for r in rows]
    assert ims == sorted(ims)
    assert all(r["total"] == 1 for r in rows)
    assert all(r["error"] is None for r in rows)


def test_scan_requires_valid_pair():
    with pytest.raises(CriticalParametersError):
        scan_tau(2, 2, {"re0": 0, "re1": 0, "nre": 1, "im0": 1, "im1": 1, "nim": 1})


GENERIC_GRID = {"re0": 0.1, "re1": 0.3, "nre": 3, "im0": 1.1, "im1": 1.3, "nim": 3}
# tau = i is the middle of the second row: (0,4) has 3 of its 5 roots there
SQUARE_GRID = {"re0": -0.1, "re1": 0.1, "nre": 3, "im0": 0.8, "im1": 1.0, "nim": 2}
# (2,4) grids where the neighbour's roots leave cells short, which then run
# the full census: the right column of the first, the middle of the second
FALLBACK_GRIDS = (
    {"re0": 0.23, "re1": 0.38, "nre": 2, "im0": 0.95, "im1": 1.05, "nim": 2},
    {"re0": 0.2, "re1": 0.4, "nre": 3, "im0": 0.9, "im1": 1.1, "nim": 3},
)


def _record_cells(monkeypatch):
    """tau -> (census report, warm Newton output or None) of every scan cell"""
    cells = {}
    census = solver._census

    def recording(*args):
        rep = census(*args)
        cells[args[2]] = (rep, args[-1])
        return rep

    monkeypatch.setattr(solver, "_census", recording)
    return cells


def _serial_scan(n1, n2, grid):
    """The scan as a chain of cells in row-major order, each cell's warm
    starts solved as a Newton batch of its own: cell (i, j) from the roots
    of (i, j - 1), the first cell of a row from those of the row before's."""
    rows, row_start = [], None
    for im in np.linspace(grid["im0"], grid["im1"], grid["nim"]):
        if not im > 1e-9:
            continue
        warm = row_start
        for j, re in enumerate(np.linspace(grid["re0"], grid["re1"], grid["nre"])):
            tau = complex(re, im)
            ctx = compute_invariants(tau)
            solved = None if warm is None else solver._newton_m0_batch(
                n1, n2, ctx._bn_ext, warm,
                solver._metric_scales(solver._first_box(ctx.g2, ctx.g3)), SolverConfig())
            rep = solver._census(n1, n2, ctx.tau, ctx._bn_ext, ctx.g2, ctx.g3, None, solved)
            rows.append(solver._scan_row(tau, rep))
            warm = np.array([[c.B, c.D0, c.D] for c in rep.clusters], complex)
            if j == 0:
                row_start = warm
    return rows


@pytest.mark.parametrize("pair,grid", [((0, 4), GENERIC_GRID), ((0, 4), SQUARE_GRID),
                                       ((2, 4), FALLBACK_GRIDS[0]),
                                       ((2, 4), FALLBACK_GRIDS[1])],
                         ids=["generic", "square", "fallback-2x2", "fallback-3x3"])
def test_scan_waves_match_serial_chain(monkeypatch, pair, grid):
    # a wave's warm starts are one Newton batch over several lattices, and
    # cells finish in wave order: the rows are those of the cell-by-cell
    # chain, bit for bit, in row-major order
    want = _serial_scan(*pair, grid)
    cells = _record_cells(monkeypatch)
    rows = scan_tau(*pair, grid)
    assert rows == want
    if pair == (2, 4):
        # some cells did fall back to the full census after their warm starts
        assert any(warm is not None and rep.starts_used > len(warm[0])
                   for rep, warm in cells.values())


@pytest.mark.parametrize("grid", [GENERIC_GRID, SQUARE_GRID])
def test_scan_matches_independent_census(monkeypatch, grid):
    # warm starts from a neighbour change how a cell is searched, never
    # what it reports: each row equals a census of its own
    cells = _record_cells(monkeypatch)
    rows = scan_tau(0, 4, grid)
    assert len(rows) == len(cells) == grid["nre"] * grid["nim"]
    keys = ("bound", "total", "even_total", "degenerate", "error")
    for row in rows:
        tau = complex(row["tau_re"], row["tau_im"])
        rep, warm = cells[tau]
        ref = solve_m0(problem_m0(tau, 0, 4))
        want = {"bound": ref.bound, "total": ref.total, "even_total": ref.even_total,
                "degenerate": sum(c.degenerate for c in ref.clusters), "error": None}
        assert {k: row[k] for k in keys} == want
        assert row["max_residual"] <= 1e-10
        if rep.total < rep.bound:
            # underfull after the warm starts: the full census ran after them
            assert rep.starts_used > len(warm[0])
    if grid is SQUARE_GRID:
        assert (rows[4]["tau_re"], rows[4]["tau_im"], rows[4]["total"]) == (0.0, 1.0, 3)


def test_scan_failed_cell_ends_its_chain(monkeypatch):
    # a cell whose invariants or census fail reports its error, and the
    # cells that would start from its roots run without warm starts: its
    # right neighbour and, for a first cell, the next row's first cell
    cells = _record_cells(monkeypatch)
    invariants, census = solver.compute_invariants, solver._census
    g = GENERIC_GRID
    reals, ims = np.linspace(g["re0"], g["re1"], 3), np.linspace(g["im0"], g["im1"], 3)

    def failing_invariants(tau):
        if tau == complex(reals[1], ims[0]):
            raise EvaluationError("no invariants here")
        return invariants(tau)

    def failing_census(*args):
        if args[2] == complex(reals[0], ims[1]):
            raise InconclusiveError("no roots here")
        return census(*args)

    monkeypatch.setattr(solver, "compute_invariants", failing_invariants)
    monkeypatch.setattr(solver, "_census", failing_census)
    rows = scan_tau(0, 4, GENERIC_GRID)
    taus = [complex(r["tau_re"], r["tau_im"]) for r in rows]
    assert [r["error"] for r in rows] == [None, "no invariants here", None,
                                          "no roots here"] + [None] * 5
    cold = {taus[0], taus[2], taus[4], taus[6]}
    assert sorted(cells, key=taus.index) == [t for t in taus if t not in (taus[1], taus[3])]
    assert all((cells[t][1] is None) == (t in cold) for t in cells)
    assert all(r["total"] == 5 for r in rows if r["error"] is None)


def test_scan_warm_cells_use_few_starts(monkeypatch):
    # the structured seeds alone complete the first cell, and the
    # neighbour's roots alone every cell after it
    cells = _record_cells(monkeypatch)
    rows = scan_tau(0, 4, GENERIC_GRID)
    assert all(r["total"] == r["bound"] == 5 for r in rows)
    assert len(cells) == 9
    first, _ = cells[complex(0.1, 1.1)]
    assert first.starts_used == 4
    warm_cells = [(rep, warm) for rep, warm in cells.values() if warm is not None]
    assert len(warm_cells) == 8
    assert all(rep.starts_used == len(warm[0]) <= 2 * 5 for rep, warm in warm_cells)


def _count_wave_kernels(monkeypatch):
    """kernel calls of each Newton batch with per-point tables (a scan's
    warm wave) and of the other Newton batches together"""
    seen = _count_kernels(monkeypatch)
    waves, other = [], [0]
    newton = solver._newton_m0_batch

    def counting(n1, n2, bnum, X0, scales, cfg, complete=None):
        before = seen["calls"]
        out = newton(n1, n2, bnum, X0, scales, cfg, complete)
        if np.ndim(bnum) == 2:
            waves.append(seen["calls"] - before)
        else:
            other[0] += seen["calls"] - before
        return out

    monkeypatch.setattr(solver, "_newton_m0_batch", counting)
    return seen, waves, other


def test_scan_warm_cells_use_few_kernel_calls(monkeypatch):
    # a wave's handful of points per cell costs one kernel call per Newton
    # iterate for all its cells together, so per-call overhead, not points,
    # sets its price: 7-11 calls for each warm cell on its own before
    seen, waves, other = _count_wave_kernels(monkeypatch)
    rows = scan_tau(0, 4, GENERIC_GRID)
    assert all(r["total"] == r["bound"] == 5 for r in rows)
    assert len(waves) == 3 + 3 - 2
    assert all(n <= 10 for n in waves)
    # sigma_min comes from Newton's own Jacobians: no kernel call outside it
    assert seen["calls"] == sum(waves) + other[0]


def test_scan_runs_one_warm_batch_per_wave(monkeypatch):
    # cell (i, j) starts from (i, j - 1), the first cell of a row from
    # (i - 1, 0): the cells of one anti-diagonal i + j share a batch, and
    # only the first cell has no warm starts
    _, waves, _ = _count_wave_kernels(monkeypatch)
    grid = {"re0": -0.4, "re1": 0.35, "nre": 6, "im0": 0.95, "im1": 1.45, "nim": 6}
    rows = scan_tau(0, 4, grid)
    assert [(r["tau_re"], r["tau_im"]) for r in rows] == [
        (re, im) for im in np.linspace(0.95, 1.45, 6) for re in np.linspace(-0.4, 0.35, 6)]
    assert all(r["total"] == r["bound"] == 5 for r in rows)
    assert len(waves) == 6 + 6 - 2


@pytest.mark.parametrize("pair,grid", [((0, 4), GENERIC_GRID), ((2, 4), FALLBACK_GRIDS[1])],
                         ids=["generic", "fallback-3x3"])
def test_scan_asks_the_context_for_one_order(monkeypatch, pair, grid):
    # the census kernels read b_j for j <= n1 + n2 + 2, and a scan reads
    # no other entry: no cell builds its table past that order, a cell that
    # falls back to the full census included
    orders = collections.Counter()
    laurent = EllipticContext.laurent

    def recording(ctx, order):
        orders[order] += 1
        return laurent(ctx, order)

    monkeypatch.setattr(EllipticContext, "laurent", recording)
    scan_tau(*pair, grid)
    assert set(orders) == {sum(pair) + 2}


def _warm_batch(n1, n2, tau, near):
    """The context at tau and what Newton returns there, in the first box's
    metric, from the roots of the census at near: a scan cell's warm batch"""
    ctx = compute_invariants(tau)
    rep = solve_m0(problem_m0(near, n1, n2))
    X0 = np.array([[c.B, c.D0, c.D] for c in rep.clusters], complex)
    scales = solver._metric_scales(solver._first_box(ctx.g2, ctx.g3))
    return ctx, solver._newton_m0_batch(n1, n2, ctx.laurent(n1 + n2 + 2), X0, scales,
                                        SolverConfig())


def _census_counting_clusters(monkeypatch, n1, n2, ctx):
    """census(warm) -> (report, _cluster_points calls) at the context ctx"""
    cluster = solver._cluster_points
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return cluster(*args)

    monkeypatch.setattr(solver, "_cluster_points", counting)

    def census(warm):
        calls[0] = 0
        rep = solver._census(n1, n2, ctx.tau, ctx.laurent(n1 + n2 + 2), ctx.g2, ctx.g3, None,
                             warm)
        return rep, calls[0]

    return census


@pytest.mark.parametrize("pair", [(0, 4), (2, 4)])
def test_warm_batch_of_bound_distinct_roots_completes_the_census(monkeypatch, pair):
    # a warm batch of bound accepted, distinct points is the census: its
    # report is the one the store and the clustering give when an exact
    # copy of one point forces them, but for that cluster's hits and the
    # copy's start
    n1, n2 = pair
    ctx, warm = _warm_batch(n1, n2, GENERIC_TAU, GENERIC_TAU + 0.01)
    census = _census_counting_clusters(monkeypatch, n1, n2, ctx)
    rep, calls = census(warm)
    assert calls == 0 and rep.total == rep.bound == len(warm[0]) == rep.starts_used
    k = 3
    forced, calls = census(tuple(np.concatenate([a, a[k:k + 1]]) for a in warm))
    assert calls > 0
    (twice,) = [c for c in forced.clusters if c.hits == 2]
    assert (twice.B, twice.D0, twice.D) == tuple(warm[0][k])
    assert rep == dataclasses.replace(
        forced, starts_used=forced.starts_used - 1,
        clusters=tuple(dataclasses.replace(c, hits=1) for c in forced.clusters))


def test_warm_batch_short_or_merged_takes_the_general_path(monkeypatch):
    # one root short of the bound, or two points within _MERGE_TOL of each
    # other in the cluster metric: the census runs as without the exit
    ctx, warm = _warm_batch(0, 4, GENERIC_TAU, GENERIC_TAU + 0.01)
    census = _census_counting_clusters(monkeypatch, 0, 4, ctx)
    short = tuple(a[1:] for a in warm)
    X = warm[0].copy()
    X[1] = X[0]
    X[1, 0] += 0.5 * solver._MERGE_TOL * solver._metric_scales(
        solver._first_box(ctx.g2, ctx.g3))[0]
    merged = (X,) + warm[1:]
    for batch in (short, merged):
        # (the root that merged lost comes back as a mirror)
        rep, calls = census(batch)
        assert calls > 0 and rep.total == rep.bound == 5


def test_scan_worker_env(monkeypatch):
    monkeypatch.setenv("TODA_CENSUS_WORKERS", "2")
    grid = {"re0": -0.1, "re1": 0.1, "nre": 2, "im0": 0.9, "im1": 1.1, "nim": 2}
    rows = scan_tau(0, 2, grid)
    assert len(rows) == 4
    assert all(r["total"] == 2 for r in rows)


# ---------------------------------------------------------------------------
# config plumbing

def test_config_resolution_scales_with_invariants():
    assert solver._first_box(0.0, 0.0) == 10.0
    # D's sample radius weighs the box over its safety factor 10: equal to
    # the others at box 10, twice B's at box 40, and 2^1.5 times per doubling
    assert solver._sample_scales(10.0) == (10.0, 10.0, 10.0)
    assert solver._sample_scales(40.0) == (40.0, 40.0, 80.0)
    for box in (10.0, 37.5, 188.7):
        assert (solver._sample_scales(2.0 * box)[2] / solver._sample_scales(box)[2]
                == pytest.approx(2.0 ** 1.5, rel=1e-14))
    assert solver._first_box(1600.0, 0.0) > solver._first_box(0.0, 0.0)
    assert solver._first_box(0.0, -1000.0) > solver._first_box(0.0, 0.0)
    rep = solve_m0(problem_m0(GENERIC_TAU, 0, 4))
    assert to_jsonable(rep)["config"]["starts"] == 5 * 200


def test_zero_start_budget_still_runs_the_seeds(monkeypatch):
    # the budget counts the Halton starts only: the structured seeds run
    # besides it, and starts_used counts them
    monkeypatch.setattr(solver, "_HALTON_PER_ROOT", 0)
    rep = solve_m0(problem_m0(GENERIC_TAU, 0, 2))
    assert rep.total == rep.bound == 2
    assert rep.starts_used == 3


def test_config_has_two_knobs_and_reports_eleven():
    # the census has two settings; the report's config block still records
    # the first box, its Halton budget, its first chunk (7 starts per root)
    # and the seven fixed settings it ran with
    assert [f.name for f in dataclasses.fields(SolverConfig)] == ["accept_tol", "seed"]
    assert not hasattr(SolverConfig, "resolved") and not hasattr(SolverConfig, "to_json_dict")
    rep = solve_m0(problem_m0(GENERIC_TAU, 0, 2), config=SolverConfig(seed=3))
    assert to_jsonable(rep)["config"] == {
        "box_radius": rep.box_radius, "starts": 400, "accept_tol": 1e-10, "seed": 3,
        "max_iter": 60, "polish_iter": 40, "even_tol": 1e-8, "merge_tol": 1e-6,
        "chunk": 14, "max_chunk": 2048, "max_doublings": 3,
    }
