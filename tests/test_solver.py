"""Census counts, clustering, even-sector solving, and the scan driver."""

import math
import os

import numpy as np
import pytest

import todacensus.solver as solver
from todacensus.apparency import m0_value_batch, problem_m0
from todacensus.elliptic import compute_invariants
from todacensus.errors import (
    CriticalParametersError,
    EvenNonexistenceError,
    InconclusiveWarning,
    StructuralError,
)
from todacensus.solver import (
    SolverConfig,
    _halton_block,
    _relative_residual,
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
    assert np.max(_relative_residual(2, 7, ctx._bn_ext, X)) <= 1e-13


def test_census_large_roots_without_doubling():
    # an absolute acceptance saw the two roots above only when rounding
    # happened to read below 1e-10: here after 9,317 starts and a doubling
    rep = solve_m0(problem_m0(FLOOR_TAU, 2, 7))
    assert rep.total == rep.bound == 44
    assert rep.doublings == 0
    assert all(c.residual <= 1e-10 for c in rep.clusters)


CENSUS_TAU = -0.373 + 0.992j


def test_newton_stops_at_convergence(monkeypatch):
    # converged starts once iterated to the caps, max_iter + polish_iter =
    # 100 Jacobians: 98.5 and 96.3 per start here
    points = [0]
    kernel = solver.m0_residual_batch

    def counting(n1, n2, bnum, B, D0, D):
        points[0] += len(B)
        return kernel(n1, n2, bnum, B, D0, D)

    monkeypatch.setattr(solver, "m0_residual_batch", counting)
    for (n1, n2), total, starts in (((3, 5), 40, 2561), ((2, 7), 44, 1029)):
        points[0] = 0
        rep = solve_m0(problem_m0(CENSUS_TAU, n1, n2))
        assert (rep.total, rep.bound, rep.starts_used) == (total, total, starts)
        assert points[0] <= 30 * rep.starts_used


def test_line_search_evaluates_only_halved_steps(monkeypatch):
    # each damped step once re-evaluated every point for each of its 3
    # trials, where only the halved steps had moved: 49.1 value points per
    # start here, against 18.1 when only those are evaluated again
    points = [0]
    kernel = solver.m0_value_batch

    def counting(n1, n2, bnum, B, D0, D):
        points[0] += len(B)
        return kernel(n1, n2, bnum, B, D0, D)

    monkeypatch.setattr(solver, "m0_value_batch", counting)
    rep = solve_m0(problem_m0(CENSUS_TAU, 3, 5))
    assert (rep.total, rep.bound, rep.starts_used) == (40, 40, 2561)
    assert points[0] <= 25 * rep.starts_used


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
    (2, 7, CENSUS_TAU, 2, 0, 0),   # two chunks in one box
    (0, 4, 1j, 8, 3, 1),           # two chunks, then per doubling a re-merge and a chunk
])
def test_incremental_clusters_match_greedy(monkeypatch, n1, n2, tau, calls,
                                           doublings, degenerate):
    # after every chunk, the clusters kept so far equal a from-scratch merge
    # of every point accepted since the last box doubling merged them afresh
    seen, checked = [], []
    merge = solver._cluster_points

    def checking(pts, res, clusters):
        nonlocal calls
        calls -= 1
        if not len(clusters.label):
            seen.clear()
        seen.append((pts.copy(), res.copy()))
        out = merge(pts, res, clusters)
        P = np.concatenate([p for p, _ in seen])
        R = np.concatenate([r for _, r in seen])
        groups = _greedy_clusters(P, R, 1.0 / clusters.inv_scales, clusters.merge_tol)
        assert _groups(clusters) == sorted((g[0], sorted(g)) for g in groups)
        checked[:] = [(P, R, groups)]
        return out

    monkeypatch.setattr(solver, "_cluster_points", checking)
    rep = solve_m0(problem_m0(tau, n1, n2))
    assert (calls, rep.doublings) == (0, doublings)
    assert sum(c.degenerate for c in rep.clusters) == degenerate
    # the report lists the representatives, in sorted order, with their hits
    pts, res, groups = checked[0]
    key = lambda p: tuple(v for z in p for v in (round(z.real, 9), round(z.imag, 9)))
    want = [(*map(complex, pts[g[0]]), len(g), float(res[g[0]]))
            for g in sorted(groups, key=lambda g: key(pts[g[0]]))]
    assert [(c.B, c.D0, c.D, c.hits, c.residual) for c in rep.clusters] == want


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


def test_degenerate_probe():
    rep = solve_m0_degenerate(0, 2)
    assert rep.tau is None
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
    assert "B" in rep.poly_text
    assert rep.Ne == 2
    assert all(r.residual <= 1e-8 for r in rep.roots)


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


@pytest.mark.parametrize("grid", [GENERIC_GRID, SQUARE_GRID])
def test_scan_matches_independent_census(monkeypatch, grid):
    # warm starts from a neighbour change how a cell is searched, never
    # what it reports: each row equals a census of its own
    cells = []
    census = solver._census

    def recording(*args):
        rep = census(*args)
        cells.append((rep, args[-1]))
        return rep

    monkeypatch.setattr(solver, "_census", recording)
    rows = scan_tau(0, 4, grid)
    assert len(rows) == len(cells) == grid["nre"] * grid["nim"]
    keys = ("bound", "total", "even_total", "degenerate", "error")
    for row, (rep, warm) in zip(rows, cells):
        tau = complex(row["tau_re"], row["tau_im"])
        ref = solve_m0(problem_m0(tau, 0, 4))
        want = {"bound": ref.bound, "total": ref.total, "even_total": ref.even_total,
                "degenerate": sum(c.degenerate for c in ref.clusters), "error": None}
        assert {k: row[k] for k in keys} == want
        assert row["max_residual"] <= 1e-10
        if rep.total < rep.bound:
            # underfull after the warm starts: the full census ran after them
            assert rep.starts_used > len(warm)
    if grid is SQUARE_GRID:
        assert (rows[4]["tau_re"], rows[4]["tau_im"], rows[4]["total"]) == (0.0, 1.0, 3)


def test_scan_warm_cells_use_few_starts(monkeypatch):
    # the neighbour's roots alone complete every cell after the first
    starts = []
    census, newton = solver._census, solver._newton_m0_batch

    def new_cell(*args):
        starts.append(0)
        return census(*args)

    def counting(n1, n2, bnum, X0, scales, cfg):
        starts[-1] += len(X0)
        return newton(n1, n2, bnum, X0, scales, cfg)

    monkeypatch.setattr(solver, "_census", new_cell)
    monkeypatch.setattr(solver, "_newton_m0_batch", counting)
    rows = scan_tau(0, 4, GENERIC_GRID)
    assert all(r["total"] == r["bound"] == 5 for r in rows)
    assert len(starts) == 9 and starts[0] > 512
    assert all(n <= 2 * 5 for n in starts[1:])


def test_scan_worker_env(monkeypatch):
    monkeypatch.setenv("TODA_CENSUS_WORKERS", "2")
    grid = {"re0": -0.1, "re1": 0.1, "nre": 2, "im0": 0.9, "im1": 1.1, "nim": 2}
    rows = scan_tau(0, 2, grid)
    assert len(rows) == 4
    assert all(r["total"] == 2 for r in rows)


# ---------------------------------------------------------------------------
# config plumbing

def test_config_resolution_scales_with_invariants():
    cfg = SolverConfig()
    r1 = cfg.resolved(g2=0.0, g3=0.0, bound=5)
    r2 = cfg.resolved(g2=1600.0, g3=0.0, bound=5)
    assert r2.box_radius > r1.box_radius
    assert r1.starts == 5 * 200
    cfg2 = SolverConfig(box_radius=7.5, starts=123)
    r3 = cfg2.resolved(g2=1e6, g3=1e6, bound=3)
    assert r3.box_radius == 7.5 and r3.starts == 123
