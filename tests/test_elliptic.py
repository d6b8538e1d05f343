"""Numerical checks of the lattice-function backend.

The identity suite here mirrors the special-function acceptance item; the
direct lattice-sum comparison is the one check that does not reuse any of
the module's own series machinery.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest

from todacensus.elliptic import (
    FORM_NAMES,
    EllipticContext,
    LatticeTau,
    _LAURENT_ORDER,
    _eisenstein,
    _g_invariants,
    compute_invariants,
    find_form_zero,
    form_value,
    reduce_fundamental,
)
from todacensus.errors import EvaluationError, NearPoleError, StructuralError
from todacensus.monodromy import _ORDER

from conftest import random_taus

TAUS = [0.21 + 1.13j, -0.37 + 0.93j, 0.05 + 1.4j]
RHO = complex(0.5, math.sqrt(3.0) / 2.0)
SAMPLE_Z = [0.31 + 0.17j, -0.22 + 0.41j, 0.47 - 0.11j, 0.13 + 0.52j]

# frozen from a direct Eisenstein lattice sum over |m|,|n| <= 400 with the
# standard conditional-convergence handling; accurate to about 6e-8 relative
G2_SQUARE_LATTICE_SUM = 189.07273205690163


def _ctx(tau):
    return compute_invariants(LatticeTau(tau))


def test_cubic_identity():
    for tau in TAUS:
        ctx = _ctx(tau)
        scale = 1.0 + abs(ctx.g2) ** 1.5 + abs(ctx.g3)
        for z0 in SAMPLE_Z:
            z = z0.real + z0.imag * tau
            P, P1, _ = ctx.wp_bundle(z)
            lhs = P1 * P1
            rhs = 4.0 * P ** 3 - ctx.g2 * P - ctx.g3
            assert abs(lhs - rhs) <= 1e-10 * (scale + abs(lhs))


def test_zeta_derivative_is_minus_wp():
    # sixth-order central stencil keeps the truncation error far below the
    # 1e-10 relative target at points this far from the lattice
    h = 1e-3
    w = (-1.0, 9.0, -45.0, 45.0, -9.0, 1.0)
    off = (-3, -2, -1, 1, 2, 3)
    for tau in TAUS:
        ctx = _ctx(tau)
        for z0 in SAMPLE_Z[:2]:
            z = z0.real + z0.imag * tau
            d = sum(wi * ctx.zeta(z + oi * h) for wi, oi in zip(w, off)) / (60 * h)
            P = ctx.wp(z)
            assert abs(d + P) <= 1e-10 * (1.0 + abs(P))


def test_wp_periodicity():
    for tau in TAUS:
        ctx = _ctx(tau)
        for z0 in SAMPLE_Z[:2]:
            z = z0.real + z0.imag * tau
            base = ctx.wp(z)
            for period in (1.0, tau, 3 - 2 * tau):
                assert abs(ctx.wp(z + period) - base) <= 1e-10 * (1 + abs(base))


def test_zeta_quasi_periods_and_legendre():
    for tau in TAUS:
        ctx = _ctx(tau)
        z = 0.31 + 0.17 * tau
        zv = ctx.zeta(z)
        assert abs(ctx.zeta(z + 1) - zv - ctx.eta1) <= 1e-10 * (1 + abs(zv))
        assert abs(ctx.zeta(z + tau) - zv - ctx.eta2) <= 1e-10 * (1 + abs(zv))
        legendre = ctx.eta1 * tau - ctx.eta2
        assert abs(legendre - 2j * math.pi) <= 1e-12


def test_parity():
    for tau in TAUS:
        ctx = _ctx(tau)
        for z0 in SAMPLE_Z:
            z = z0.real + z0.imag * tau
            assert abs(ctx.wp(z) - ctx.wp(-z)) <= 1e-10 * (1 + abs(ctx.wp(z)))
            assert abs(ctx.zeta(z) + ctx.zeta(-z)) <= 1e-10 * (1 + abs(ctx.zeta(z)))


def test_laurent_table_heads():
    for tau in TAUS:
        ctx = _ctx(tau)
        assert abs(ctx._bn_ext[4] - ctx.g2 / 20.0) <= 1e-12 * (1 + abs(ctx.g2))
        assert abs(ctx._bn_ext[6] - ctx.g3 / 28.0) <= 1e-12 * (1 + abs(ctx.g3))
        assert all(abs(ctx._bn_ext[j]) == 0.0 for j in (1, 2, 3, 5, 7))


@pytest.mark.parametrize("tau", TAUS + [1j, RHO], ids=str)
def test_context_builds_table_and_lam_min_on_first_read(tau):
    # compute_invariants computes the invariants alone; the Laurent table is
    # built to the order first read, and a higher order rebuilds it with the
    # same bits below that order (each entry comes from the lower ones)
    ctx = _ctx(tau)
    assert ctx._bn is None and "lam_min" not in vars(ctx)
    low = ctx.laurent(6).copy()
    assert len(low) == len(ctx._bn) == 7 and "lam_min" not in vars(ctx)
    full = ctx.laurent(_LAURENT_ORDER)
    assert len(full) == _LAURENT_ORDER + 1 and full[:7].tobytes() == low.tobytes()
    assert full.tobytes() == _ctx(tau)._bn_ext.tobytes()
    assert np.shares_memory(ctx.laurent(6), full)  # a lower order is a view
    # evaluation after a short read gives the bits of a fresh context
    z = 0.05 + 0.02j  # in the Laurent regime
    fresh = _ctx(tau)
    assert ctx.jet(z, 3)[0].tobytes() == fresh.jet(z, 3)[0].tobytes()
    assert ctx.lam_min == fresh.lam_min and "lam_min" in vars(ctx)


@pytest.mark.parametrize("tau", [complex(math.nan, 1.0), complex(0.1, math.inf),
                                 complex(math.inf, 1.0), complex(0.1, math.nan)], ids=str)
def test_non_finite_lattice_is_structural(tau):
    with pytest.raises(StructuralError, match="lattice parameter must be finite"):
        LatticeTau(tau)
    with pytest.raises(StructuralError, match="lattice parameter must be finite"):
        compute_invariants(tau)


def test_half_period_values_sum_to_zero():
    for tau in TAUS:
        ctx = _ctx(tau)
        e = [ctx.wp(w) for w in (0.5, 0.5 * tau, 0.5 + 0.5 * tau)]
        scale = max(abs(v) for v in e)
        assert abs(sum(e)) <= 1e-10 * scale
        # each is a root of the cubic: 4e^3 - g2 e - g3 = 0
        for v in e:
            assert abs(4 * v ** 3 - ctx.g2 * v - ctx.g3) <= 1e-9 * (1 + scale ** 3)


def test_square_lattice_regression():
    ctx = _ctx(1j)
    assert abs(ctx.g3) <= 1e-10 * (1 + abs(ctx.g2) ** 1.5)
    assert abs(ctx.eta1 - math.pi) <= 1e-12
    assert abs(ctx.g2 - 189.07272012923383) <= 1e-9
    # independent slowly-convergent construction
    assert abs(ctx.g2 - G2_SQUARE_LATTICE_SUM) <= 1e-6 * abs(ctx.g2)
    # midpoint of the cell is a zero on the square lattice
    assert abs(ctx.wp(0.5 + 0.5j)) <= 1e-10 * abs(ctx.g2) ** 0.5


def test_hexagonal_lattice_regression():
    rho = complex(0.5, math.sqrt(3.0) / 2.0)
    ctx = _ctx(rho)
    assert abs(ctx.g2) <= 1e-10 * (1 + abs(ctx.g3) ** (2 / 3))


def test_wp_derivs_consistency():
    # wp_derivs and wp_bundle must agree with wp(z, n) order by order, and
    # wp_bundle's zeta with zeta, in the q-series regime and inside the
    # Laurent radius
    ctx = _ctx(0.21 + 1.13j)
    z_q, z_laurent = 0.27 + 0.31j, 0.12 + 0.2j
    assert abs(z_laurent) < 0.35 * ctx.lam_min < abs(z_q)
    for z in (z_q, z_laurent):
        d = ctx.wp_derivs(z, 6)
        for n in range(7):
            v = ctx.wp(z, n)
            assert abs(d[n] - v) <= 1e-12 * (1 + abs(v))
        P, P1, Z = ctx.wp_bundle(z)
        for got, want in ((P, ctx.wp(z)), (P1, ctx.wp(z, 1)), (Z, ctx.zeta(z))):
            assert abs(got - want) <= 1e-12 * (1 + abs(want))


def test_near_pole_refusal():
    ctx = _ctx(0.21 + 1.13j)
    with pytest.raises(NearPoleError):
        ctx.wp(1e-8 + 0j)
    with pytest.raises(NearPoleError):
        ctx.zeta(complex(1.0, 0.0) + 1e-9j)
    # just outside the guard radius evaluation works and is pole-dominated
    v = ctx.wp(1e-4 + 0j)
    assert abs(v - 1e8) <= 1e-3 * 1e8


def test_jet_matches_its_views():
    # one jet call gives P and its derivatives up to order n with zeta, as
    # the single-purpose views do
    tau = 0.21 + 1.13j
    ctx = _ctx(tau)
    z = 0.31 + 0.17 * tau
    (P, _, P2), Z = ctx.jet(z, 2)
    assert abs(P - ctx.wp(z)) <= 1e-12 * (1 + abs(P))
    assert abs(P2 - ctx.wp(z, 2)) <= 1e-12 * (1 + abs(P2))
    assert abs(Z - ctx.zeta(z)) <= 1e-12 * (1 + abs(Z))


# the Laurent and q-series formulas of the evaluator, summed in mpmath: each
# returns the orders 0..n of P and zeta, and the same sums taken over the
# absolute values of the terms, the scale of their rounding error


def _numerators_exact(n):
    """Integer numerators N_k(u) of the rational parts N_k/(1-u)^{k+2}."""
    N = [[0, 1]]
    for k in range(n):
        c = N[-1]
        a = [(k + 2) * x for x in c] + [0]
        for i in range(1, len(c)):
            a[i - 1] += i * c[i]
            a[i] -= i * c[i]
        N.append([0] + a)
    return N


def _mp_laurent(ctx, z, n):
    b = [mpmath.mpc(c) for c in ctx._bn_ext[::2]]
    z = mpmath.mpc(z)
    w = z * z
    rows = [[1] + [-b[i] / (2 * i - 1) for i in range(1, len(b))]]
    rows += [[(-1) ** k * math.factorial(k + 1)]
             + [b[i] * math.perm(2 * i - 2, k) for i in range(1, len(b))] for k in range(n + 1)]
    val = [sum(c * w ** i for i, c in enumerate(r)) / z ** (j + 1) for j, r in enumerate(rows)]
    size = [sum(abs(c) * abs(w) ** i for i, c in enumerate(r)) / abs(z) ** (j + 1)
            for j, r in enumerate(rows)]
    return val[1:], val[0], size[1:], size[0]


def _mp_qseries(ctx, z, n):
    tpi = 2j * mpmath.pi
    q = mpmath.exp(tpi * mpmath.mpc(ctx.tau))
    u = mpmath.exp(tpi * mpmath.mpc(z))
    big = max(abs(u), 1 / abs(u))
    M = 8
    while abs(q) ** M * M ** (n + 2) * big ** M > mpmath.mpf(10) ** -30:
        M += 1
    alpha = [(m, q ** m / (1 - q ** m)) for m in range(1, M + 1)]
    N = _numerators_exact(n)
    val, size = [], []
    for k in range(n + 1):
        v = mpmath.polyval(N[k][::-1], u) / (1 - u) ** (k + 2)
        g = sum(c * abs(u) ** i for i, c in enumerate(N[k])) / abs(1 - u) ** (k + 2)
        for m, a in alpha:
            v += m ** (k + 1) * a * (u ** m + (-1) ** k * u ** -m)
            g += m ** (k + 1) * abs(a) * (abs(u) ** m + abs(u) ** -m)
        if k == 0:
            v += mpmath.mpf(1) / 12 - 2 * sum(m * a for m, a in alpha)
            g += mpmath.mpf(1) / 12 + 2 * sum(m * abs(a) for m, a in alpha)
        val.append(tpi ** (k + 2) * v)
        size.append((2 * mpmath.pi) ** (k + 2) * g)
    tail = sum(a * (u ** m - u ** -m) for m, a in alpha)
    tail_size = sum(abs(a) * (abs(u) ** m + abs(u) ** -m) for m, a in alpha)
    zeta = ctx.eta1 * z + 1j * mpmath.pi * (1 + u) / (u - 1) - tpi * tail
    zeta_size = (abs(ctx.eta1 * z) + mpmath.pi * abs(1 + u) / abs(u - 1)
                 + 2 * mpmath.pi * tail_size)
    return val, zeta, size, zeta_size


@pytest.mark.parametrize("tau", [0.21 + 1.13j, 1j, RHO], ids=str)
def test_jet_matches_mpmath(tau):
    # every order the Taylor transport uses, in both regimes, on both sides
    # of Im z = 0 and on both sides of the switch radius: the error of
    # order k stays within (k + 4) eps of the formula's absolute-value sum
    # (worst seen: 18 eps at k = 27; the per-order Horner sums met it too)
    ctx = _ctx(tau)
    n = _ORDER + 1
    eps = np.finfo(float).eps
    r = 0.35 * ctx.lam_min
    points = [0.1 + 0.05j, -0.12 - 0.08j, 0.02 - 0.2j, 0.3 + 0.4j, -0.471 - 0.132j,
              0.45 - 0.3j, -0.2 + 0.45j]
    points += [s * r * cmath.exp(1j * a) for s in (0.999, 1.001) for a in (2.5, -0.7)]
    regimes = set()
    for z in points:
        zr = ctx.reduce_point(z)[0]
        laurent = abs(zr) <= r
        regimes.add((laurent, zr.imag > 0))
        got, zeta = ctx.jet(zr, n)
        with mpmath.workdps(30):
            want, want_zeta, size, zeta_size = (_mp_laurent if laurent else _mp_qseries)(ctx, zr, n)
            for k in range(n + 1):
                assert abs(got[k] - want[k]) <= (k + 4) * eps * size[k], (zr, k)
            assert abs(zeta - want_zeta) <= 4 * eps * zeta_size, zr
    assert len(regimes) == 4


def test_qseries_order_zero_does_not_depend_on_the_order():
    # P itself, which fixes the half-period values e that `invariants`
    # prints, is the same double however many derivatives come with it
    # (not at a zero of P, such as the centre of the square cell, where
    # the value is rounding noise of the term count)
    for tau in TAUS + [1j, RHO]:
        ctx = _ctx(tau)
        for z in (0.5, 0.5 * tau, 0.3 + 0.4j, -0.471 - 0.132j):
            zr = ctx.reduce_point(z)[0]
            alone = ctx._qseries(zr, 0)[0][0]
            for n in (1, 12, _ORDER + 1):
                assert ctx._qseries(zr, n)[0][0] == alone
    # and e itself, bit for bit
    e = _ctx(0.21 + 1.13j).e
    assert [(v.real.hex(), v.imag.hex()) for v in e] == [
        ("0x1.a72bbeaa20764p+2", "0x1.029130602d062p-3"),
        ("-0x1.461669537702dp+2", "-0x1.75c7534acda9ap+0"),
        ("-0x1.8455555aa5cd6p+0", "0x1.55752d3ec8090p+0"),
    ]


def test_half_period_values_are_evaluated_when_read(monkeypatch):
    # building a context evaluates no jet: only `invariants` prints e.  Read,
    # e is P at the three half periods, bit for bit as P evaluated there on
    # a context whose q-series workspace a high-order jet has grown first
    calls = []
    jet = EllipticContext.jet
    monkeypatch.setattr(EllipticContext, "jet",
                        lambda self, z, n: calls.append(z) or jet(self, z, n))
    for tau in TAUS + [1j, RHO]:
        del calls[:]
        ctx = _ctx(tau)
        assert calls == []
        e = ctx.e
        assert len(calls) == 3
        grown = _ctx(tau)
        grown.jet(0.3 + 0.4j, _ORDER + 1)
        want = [grown.wp(0.5), grown.wp(tau / 2.0), grown.wp((1.0 + tau) / 2.0)]
        assert [(v.real.hex(), v.imag.hex()) for v in e] == [
            (v.real.hex(), v.imag.hex()) for v in want]


def test_reduce_fundamental():
    targets = [0.21 + 1.13j, 1j, 0.5 + 0.8660254037844387j]
    for t in targets:
        r = reduce_fundamental(t + 7)
        assert abs(r - t) <= 1e-12
    # inversion: -1/tau is equivalent to tau
    t = 0.21 + 1.13j
    assert abs(reduce_fundamental(-1 / t) - t) <= 1e-12
    # the real-part convention keeps +1/2 and maps -1/2 to +1/2
    r = reduce_fundamental(-0.5 + 1.352j)
    assert abs(r.real - 0.5) <= 1e-12


def test_form_zeros():
    z3 = find_form_zero("g3", 0.1 + 1.1j)
    assert abs(complex(z3) - 1j) <= 1e-10
    z2 = find_form_zero("g2", 0.3 + 0.95j)
    assert abs(complex(z2) - complex(0.5, math.sqrt(3.0) / 2.0)) <= 1e-10
    tau0 = find_form_zero("343g2^3-6561g3^2", 0.5 + 1.2j)
    tau0f = complex(tau0)
    assert abs(tau0f.real - 0.5) <= 1e-9
    assert 1.3 < tau0f.imag < 1.4
    # certify at the full-precision zero: rounding tau0 to a double already
    # moves this weight-12 form to the 1e-7 scale
    val = form_value("343g2^3-6561g3^2", tau0, dps=40)
    assert abs(complex(val)) <= 1e-10
    # the discriminant has no zero in the upper half plane: Newton climbs
    # towards Im tau = infinity, where it is only small, and must not certify
    with pytest.raises(EvaluationError):
        find_form_zero("g2^3-27g3^2", 0.3 + 1.5j)
    # from a higher seed the 40-digit stage does reach |form| <= 1e-30, at
    # Im tau ~ 14.5; its Newton step |f/f'| there is 1/(2 pi), not ~0
    with pytest.raises(EvaluationError, match="did not certify"):
        find_form_zero("g2^3-27g3^2", 0.3 + 12j)


@pytest.mark.parametrize("tau", [0.21 + 1.13j, 1j, RHO, 0.1 + 0.2j], ids=str)
def test_eisenstein_doubles_and_mpmath_agree(tau):
    # one series serves both precisions; g2 and g3 are compared on their
    # weight-homogeneous scale, since g3 vanishes at i and g2 at rho
    g2, g3, _, _ = _g_invariants(*_eisenstein(tau), math.pi)
    with mpmath.workdps(40):
        m2, m3, _, _ = _g_invariants(*_eisenstein(mpmath.mpc(tau), mpmath), mpmath.pi)
    m2, m3 = complex(m2), complex(m3)
    s = max(abs(m2) ** 0.25, abs(m3) ** (1.0 / 6.0))
    assert abs(g2 - m2) <= 1e-14 * s ** 4
    assert abs(g3 - m3) <= 1e-14 * s ** 6


@pytest.mark.parametrize("tau", [0.3 + 1e-4j, 0.3 + 0.0015j], ids=str)
def test_eisenstein_refusals_are_shared(tau):
    # |q| >= 0.995 at Im tau = 1e-4; more than 4000 terms at 0.0015
    with pytest.raises(EvaluationError):
        _eisenstein(tau)
    with mpmath.workdps(40), pytest.raises(EvaluationError):
        _eisenstein(mpmath.mpc(tau), mpmath)


def test_form_names_and_validation():
    assert set(FORM_NAMES) >= {"g2", "g3", "g2^3-27g3^2", "343g2^3-6561g3^2"}
    with pytest.raises(StructuralError):
        form_value("nonsense", 1j)
    with pytest.raises(StructuralError):
        compute_invariants(LatticeTau(0.5 - 1j))


def test_regime_agreement_along_a_ray():
    # evaluation switches between the Laurent-table and Fourier regimes by
    # distance; values must line up smoothly across the switch
    ctx = _ctx(0.21 + 1.13j)
    r_switch = 0.35 * ctx.lam_min
    direction = cmath.exp(0.37j)
    prev = None
    for s in np.linspace(0.8, 1.2, 17):
        z = s * r_switch * direction
        val = ctx.wp(z)
        if prev is not None:
            rel = abs(val - prev[1]) / (1 + abs(val))
            assert rel < 0.35, "jump near the regime boundary"
        prev = (s, val)
    # and the cubic identity holds on both sides of the switch
    for s in (0.9, 0.99, 1.01, 1.1):
        z = s * r_switch * direction
        P, P1, _ = ctx.wp_bundle(z)
        scale = 1.0 + abs(ctx.g2) ** 1.5 + abs(ctx.g3)
        assert abs(P1 ** 2 - (4 * P ** 3 - ctx.g2 * P - ctx.g3)) <= 1e-9 * (scale + abs(P1) ** 2)


@pytest.mark.parametrize("tau", TAUS + [1j, RHO], ids=str)
def test_regimes_agree_at_the_switch(tau):
    # the Laurent and q-series routines evaluated at the same points on the
    # switch radius, where the evaluator hands over from one to the other:
    # 12 directions, orders 0..12 and zeta, then the higher orders up to
    # _ORDER + 1 that the Taylor transport's coefficient jets use
    ctx = _ctx(tau)
    r = 0.35 * ctx.lam_min
    for t in range(12):
        zr = r * cmath.exp(1j * (2 * math.pi * t / 12 + 0.1))
        assert ctx.reduce_point(zr)[1:] == (0, 0)
        laurent, zeta_l = ctx._laurent(zr, 12)
        qseries, zeta_q = ctx._qseries(zr, 12)
        for n, (a, b) in enumerate(zip(laurent, qseries)):
            assert abs(a - b) <= (1e-13 if n <= 2 else 1e-9) * abs(b), n
        assert abs(zeta_l - zeta_q) <= 1e-13 * abs(zeta_q)
        laurent, _ = ctx._laurent(zr, _ORDER + 1)
        qseries, _ = ctx._qseries(zr, _ORDER + 1)
        for n in range(13, _ORDER + 2):
            assert abs(laurent[n] - qseries[n]) <= 1e-7 * abs(qseries[n]), n


@pytest.mark.parametrize("tau", TAUS + random_taus(20) + [1j, RHO], ids=str)
def test_shortest_lattice_vector(tau):
    # the array pass gives the same double as the scalar loop over the
    # vectors m + n tau, |m|, |n| <= 6: it sets the Laurent/q-series switch
    want = min(abs(m + n * tau) for m in range(-6, 7) for n in range(-6, 7)
               if (m, n) != (0, 0))
    assert _ctx(tau).lam_min == want
