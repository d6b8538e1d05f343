"""Acceptance gate: one test per shipped guarantee, at its stated tolerance.

Run `pytest tests/test_acceptance.py -v`; the terminal summary prints one
PASS/FAIL line per criterion (see conftest).  Shared censuses live in
module-scoped fixtures so each criterion stays independent but the suite
stays inside its time budget.
"""

import cmath
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from todacensus.apparency import (
    M0_VARS,
    M0_WEIGHTS,
    ParamVec,
    bezout_bound,
    build_even_poly,
    build_m0_system,
    derive_problem,
    even_count_Ne,
    problem_m0,
    residual_general,
)
from todacensus.elliptic import (
    compute_invariants,
    find_form_zero,
    form_value,
)
from todacensus.errors import EvenNonexistenceError
from todacensus.monodromy import (
    monodromy_pair,
    unitarize,
    verify_root,
)
from todacensus.polyring import WeightedPoly
from todacensus.solver import solve_even, solve_m0

from conftest import random_taus
from oracle_series import oracle_residual

TAUS10 = random_taus(10, seed=77001)
RHO = complex(0.5, math.sqrt(3.0) / 2.0)
PAIRS7 = [(0, 1), (0, 2), (0, 4), (1, 2), (1, 3), (2, 3), (2, 4)]


def _census(tau, n1, n2):
    prob = problem_m0(tau, n1, n2)
    ctx = compute_invariants(prob.lattice)
    return prob, ctx, solve_m0(prob, ctx)


@pytest.fixture(scope="module")
def census01():
    return {tau: _census(tau, 0, 1) for tau in TAUS10}


@pytest.fixture(scope="module")
def census02():
    out = {tau: _census(tau, 0, 2) for tau in TAUS10}
    out["rho"] = _census(RHO, 0, 2)
    return out


@pytest.fixture(scope="module")
def tau_zero():
    return find_form_zero("343g2^3-6561g3^2", 0.5 + 1.2j)


@pytest.fixture(scope="module")
def census04(tau_zero):
    out = {tau: _census(tau, 0, 4) for tau in TAUS10[:5]}
    out["i"] = _census(1j, 0, 4)
    out["tau0"] = _census(complex(tau_zero), 0, 4)
    return out


# ---------------------------------------------------------------------------
# 1. the small systems as exact rationals


def _poly(term_map):
    p = WeightedPoly.zero(M0_VARS, M0_WEIGHTS)
    for exps, coeff in term_map.items():  # exponent order (B, D0, D, g2, g3)
        t = WeightedPoly.const(M0_VARS, M0_WEIGHTS, coeff)
        for name, e in zip(M0_VARS, exps):
            if e:
                t = t * WeightedPoly.var(M0_VARS, M0_WEIGHTS, name) ** e
        p = p + t
    return p


def test_criterion_01_exact_rational_systems():
    sys01 = build_m0_system(0, 1)
    assert sys01.P1 == _poly({(0, 1, 0, 0, 0): Fraction(-1)})
    assert sys01.P2 == _poly(
        {(0, 2, 0, 0, 0): Fraction(-1, 2), (1, 0, 0, 0, 0): Fraction(2, 3)}
    )
    assert sys01.P3 == _poly(
        {(0, 0, 1, 0, 0): Fraction(-1), (1, 1, 0, 0, 0): Fraction(-1, 6)}
    )

    sys02 = build_m0_system(0, 2)
    assert sys02.P1 == _poly({(0, 1, 0, 0, 0): Fraction(-1)})
    assert sys02.P2 == _poly(
        {
            (0, 3, 0, 0, 0): Fraction(-1, 24),
            (1, 1, 0, 0, 0): Fraction(7, 18),
            (0, 0, 1, 0, 0): Fraction(-1),
        }
    )
    assert sys02.P3 == _poly(
        {
            (1, 2, 0, 0, 0): Fraction(-1, 36),
            (0, 1, 1, 0, 0): Fraction(-1, 6),
            (2, 0, 0, 0, 0): Fraction(2, 9),
            (0, 0, 0, 1, 0): Fraction(-2, 27),
        }
    )

    sys04 = build_m0_system(0, 4)
    restricted = tuple(p.substitute_zero("D0") for p in sys04.polys())
    # P2|_{D0=0} = (5/54) B D
    assert restricted[1] == _poly({(1, 0, 1, 0, 0): Fraction(5, 54)})
    # P3|_{D0=0} = -(1/486)(6 B^3 + 27 D^2 - 56 g2 B + 288 g3)
    assert restricted[2] == _poly(
        {
            (3, 0, 0, 0, 0): Fraction(-6, 486),
            (0, 0, 2, 0, 0): Fraction(-27, 486),
            (1, 0, 0, 1, 0): Fraction(56, 486),
            (0, 0, 0, 0, 1): Fraction(-288, 486),
        }
    )
    assert restricted[0] == _poly({})


# ---------------------------------------------------------------------------
# 2. counts for (0,1) and (0,2)


def test_criterion_02_counts_01_02(census01, census02):
    for tau in TAUS10:
        _, _, rep = census01[tau]
        assert (rep.total, rep.even_total) == (1, 1)
        (c,) = rep.clusters
        assert c.residual <= 1e-10
        assert abs(c.B) + abs(c.D0) + abs(c.D) <= 1e-8

        _, ctx, rep2 = census02[tau]
        assert (rep2.total, rep2.even_total) == (2, 2)
        for c in rep2.clusters:
            assert abs(3.0 * c.B ** 2 - ctx.g2) <= 1e-8 * (1.0 + abs(ctx.g2))
    _, _, rep_rho = census02["rho"]
    assert rep_rho.total == 1


# ---------------------------------------------------------------------------
# 3. counts for (0,4), including the two degenerations


def test_criterion_03_counts_04(census04, tau_zero):
    for tau in TAUS10[:5]:
        _, ctx, rep = census04[tau]
        assert (rep.total, rep.even_total) == (5, 3)
        _check_non_even(rep, ctx)
    _, ctx_i, rep_i = census04["i"]
    assert (rep_i.total, rep_i.even_total) == (3, 3)
    _check_non_even(rep_i, ctx_i)
    _, ctx0, rep0 = census04["tau0"]
    assert (rep0.total, rep0.even_total) == (4, 2)
    _check_non_even(rep0, ctx0)
    # the degeneration point really is a zero of the weight-12 form; the
    # full-precision zero is needed here, a double-rounded tau floors the
    # achievable residual of a weight-12 form near 1e-7
    assert float(abs(form_value("343g2^3-6561g3^2", tau_zero, dps=40))) <= 1e-10


def _check_non_even(rep, ctx):
    for c in rep.clusters:
        if c.is_even:
            continue
        assert abs(c.B) <= 1e-8
        assert abs(27.0 * c.D ** 2 + 288.0 * ctx.g3) <= 1e-6 * (1.0 + abs(ctx.g3))


# ---------------------------------------------------------------------------
# 4. cluster counts never exceed the closed-form bound


def test_criterion_04_bezout_bound():
    closed = {
        (0, 1): 1, (0, 2): 2, (0, 4): 5, (1, 2): 5,
        (1, 3): 8, (2, 3): 14, (2, 4): 20,
    }
    for (n1, n2), want in closed.items():
        assert bezout_bound([(n1, n2)]) == want
        assert want * 6 == (n1 + 1) * (n2 + 1) * (n1 + n2 + 2)
    for tau in TAUS10:
        for n1, n2 in PAIRS7:
            _, _, rep = _census(tau, n1, n2)
            assert rep.bound == closed[(n1, n2)]
            assert rep.total <= rep.bound


# ---------------------------------------------------------------------------
# 5. the even sector: shape, agreement with the census, interlacing


@pytest.mark.parametrize(
    "n1,n2",
    [
        (n1, n2)
        for n1 in range(13)
        for n2 in range(13)
        if n1 <= n2 and (n1 - n2) % 3 != 0 and not (n1 % 2 == 1 and n2 % 2 == 1)
    ],
)
def test_criterion_05_even_poly_shape(n1, n2):
    ep = build_even_poly(n1, n2)
    Ne = even_count_Ne(n1, n2)
    assert ep.Ne == Ne
    assert ep.poly.degree_in("B") == Ne
    assert ep.poly.is_homogeneous(weight=Ne)
    assert ep.poly.coefficient("B", Ne) == WeightedPoly.const(
        ("B", "g2", "g3"), (1, 2, 3), 1
    )


def test_criterion_05_even_roots_match_census():
    def key(z):
        return (round(z.real, 5), round(z.imag, 5))

    for tau in TAUS10[:2]:
        for n1, n2 in PAIRS7:
            if n1 % 2 == 1 and n2 % 2 == 1:
                continue  # no even sector for (1,3); criterion 6 owns that
            prob, ctx, rep = _census(tau, n1, n2)
            ev = solve_even(prob, ctx)
            census_B = sorted((c.B for c in rep.clusters if c.is_even), key=key)
            poly_B = sorted(
                (r.B for r in ev.roots for _ in range(r.multiplicity)), key=key
            )
            assert len(census_B) == len(poly_B) == ev.Ne
            for a, b in zip(census_B, poly_B):
                assert abs(a - b) <= 1e-6 * (1.0 + abs(b))
    # uniqueness for (1,2)
    assert even_count_Ne(1, 2) == 1
    ev12 = solve_even(problem_m0(TAUS10[0], 1, 2))
    assert sum(r.multiplicity for r in ev12.roots) == 1


def test_criterion_05_interlacing_on_square_lattice():
    ctx = compute_invariants(1j)
    families = {}
    for j, (n1, n2) in enumerate([(1, 2), (3, 4), (5, 6)], start=1):
        ev = solve_even(problem_m0(1j, n1, n2), ctx)
        roots = [r.B for r in ev.roots]
        assert len(roots) == ev.Ne == j  # distinct
        assert all(abs(z.imag) <= 1e-8 * (1.0 + abs(z)) for z in roots)  # real
        families[j] = sorted(z.real for z in roots)
    # the deepest root of each family dives below the previous family's
    # deepest, which in turn sits below the new family's second root
    for j in (2, 3):
        r = families[j]
        assert r[0] < families[j - 1][0] < r[1]


# ---------------------------------------------------------------------------
# 6. odd/odd refusal


def test_criterion_06_odd_odd_refused():
    checked = 0
    for n1 in range(1, 10, 2):
        for n2 in range(1, 10, 2):
            if (n1 - n2) % 3 == 0:
                continue  # critical pairs are a different refusal
            with pytest.raises(EvenNonexistenceError):
                even_count_Ne(n1, n2)
            with pytest.raises(EvenNonexistenceError):
                build_even_poly(n1, n2)
            checked += 1
    assert checked == 16


# ---------------------------------------------------------------------------
# 7. monodromy structure of every accepted root


def _accepted_roots(census01, census02, census04):
    for store in (census01, census02, census04):
        for key, (prob, ctx, rep) in store.items():
            for c in rep.clusters:
                yield prob, ctx, ParamVec.m0(c.B, c.D0, c.D)


def test_criterion_07_monodromy_structure(census01, census02, census04):
    t0 = time.monotonic()
    n_checked = 0
    for prob, ctx, pv in _accepted_roots(census01, census02, census04):
        (rep,) = monodromy_pair(prob, ctx, [pv])
        eps = prob.epsilon
        comm = rep.N1 @ rep.N2 @ np.linalg.inv(rep.N1) @ np.linalg.inv(rep.N2)
        assert np.max(np.abs(comm - eps * np.eye(3))) <= 1e-6
        assert rep.local_scalar_residuals[0] <= 1e-6
        res = unitarize(rep)  # raises StructuralError on failure
        assert res.ok
        got = sorted(np.linalg.eigvals(res.N1_normal), key=lambda z: cmath.phase(z))
        want = sorted([1.0, eps, eps ** 2], key=lambda z: cmath.phase(z))
        for a, b in zip(got, want):
            assert abs(a - b) <= 1e-6
        n_checked += 1
    # 10 roots for (0,1), 20 + 1 for (0,2), 25 + 3 + 4 for (0,4)
    assert n_checked == 63

    # the negative control: nudging B off a true root by 0.1 must blow the
    # scalar local-monodromy residual past 1e-2
    prob, ctx, rep2 = census02[TAUS10[0]]
    c = rep2.clusters[0]
    (bad,) = monodromy_pair(prob, ctx, [ParamVec.m0(c.B + 0.1, c.D0, c.D)])
    assert max(bad.local_scalar_residuals) >= 1e-2
    assert time.monotonic() - t0 <= 180.0


# ---------------------------------------------------------------------------
# 8. PDE and parity of the reconstructed solutions


def test_criterion_08_pde_and_parity(census01, census04):
    prob1, ctx1, rep1 = census01[TAUS10[0]]
    c1 = rep1.clusters[0]
    rep = verify_root(prob1, ctx1, ParamVec.m0(c1.B, c1.D0, c1.D))
    pde, even = rep.pde_residual, rep.even_residual
    assert pde <= 1e-4
    assert even is not None and even <= 1e-6

    prob4, ctx4, rep4 = census04[TAUS10[0]]
    c_even = next(c for c in rep4.clusters if c.is_even)
    c_odd = next(c for c in rep4.clusters if not c.is_even)
    rep_e = verify_root(prob4, ctx4, ParamVec.m0(c_even.B, c_even.D0, c_even.D))
    pde_e, even_e = rep_e.pde_residual, rep_e.even_residual
    assert pde_e <= 1e-4
    assert even_e is not None and even_e <= 1e-6
    even_o = verify_root(prob4, ctx4, ParamVec.m0(c_odd.B, c_odd.D0, c_odd.D)).even_residual
    assert even_o is not None and even_o >= 1e-2


# ---------------------------------------------------------------------------
# 9. special-function identities


def test_criterion_09_special_functions():
    taus = [0.21 + 1.13j, -0.37 + 0.93j]
    zs = [0.31 + 0.27j, -0.22 + 0.41j, 0.11 - 0.35j]
    for tau in taus:
        ctx = compute_invariants(tau)
        scale = 1.0 + abs(ctx.g2) ** 1.5 + abs(ctx.g3)
        for z0 in zs:
            z = z0.real + z0.imag * tau
            P, P1, _ = ctx.wp_bundle(z)
            assert abs(P1 * P1 - (4.0 * P ** 3 - ctx.g2 * P - ctx.g3)) <= 1e-10 * (
                scale + abs(P1) ** 2
            )
            # zeta' = -wp via a sixth-order stencil
            h = 1e-3
            w = (-1.0, 9.0, -45.0, 45.0, -9.0, 1.0)
            off = (-3, -2, -1, 1, 2, 3)
            d = sum(wi * ctx.zeta(z + oi * h) for wi, oi in zip(w, off)) / (60 * h)
            assert abs(d + P) <= 1e-10 * (1.0 + abs(P))
            for period in (1.0, tau):
                assert abs(ctx.wp(z + period) - P) <= 1e-10 * (1.0 + abs(P))
        e = [ctx.wp(w_) for w_ in (0.5, 0.5 * tau, 0.5 + 0.5 * tau)]
        assert abs(sum(e)) <= 1e-10 * max(abs(v) for v in e)
    from todacensus.polyring import weierstrass_laurent_symbolic

    btab = weierstrass_laurent_symbolic(8)
    assert btab[4] == _b_poly("g2", Fraction(1, 20))
    assert btab[6] == _b_poly("g3", Fraction(1, 28))
    ctx_i = compute_invariants(1j)
    assert abs(ctx_i.g3) <= 1e-10 * (1.0 + abs(ctx_i.g2) ** 1.5)
    ctx_rho = compute_invariants(RHO)
    assert abs(ctx_rho.g2) <= 1e-10 * (1.0 + abs(ctx_rho.g3) ** (2.0 / 3.0))


def _b_poly(var, coeff):
    return WeightedPoly.var(("g2", "g3"), (4, 6), var).scale(coeff)


# ---------------------------------------------------------------------------
# 10. multi-puncture residuals against the series-substitution oracle


def test_criterion_10_residual_oracle():
    rng = np.random.default_rng(404)

    def rnd(n):
        return tuple(
            complex(a, b) for a, b in zip(rng.normal(size=n), rng.normal(size=n))
        )

    tau = 0.19 + 1.17j
    ctx = compute_invariants(tau)
    # random second-puncture positions, small noncritical multiplicities
    for n_pair in [((0, 1), (0, 1)), ((1, 2), (0, 1)), ((0, 2), (1, 1))]:
        p1 = complex(rng.uniform(0.2, 0.7), rng.uniform(0.2, 0.7) * tau.imag)
        punctures = [(0.0, *n_pair[0]), (p1, *n_pair[1])]
        prob = derive_problem(tau, punctures)
        pv = ParamVec(A=rnd(2), Bk=rnd(2), B=rnd(1)[0], Dk=rnd(2), D=rnd(1)[0])
        impl = residual_general(prob, ctx, pv)
        orac = oracle_residual(prob, ctx, pv)
        assert impl.shape == orac.shape == (8,)  # 3m+5 rows at m = 1
        rel = np.max(np.abs(impl - orac) / (1.0 + np.abs(orac)))
        assert rel <= 1e-8
        # the two linear constraint rows are literal parameter sums
        assert abs(impl[0] - sum(pv.Bk)) <= 1e-12 * (1.0 + abs(impl[0]))
        assert abs(impl[1] - sum(pv.A)) <= 1e-12 * (1.0 + abs(impl[1]))
