"""Exact systems, even sector, scaling covariance, and the series oracle."""

from fractions import Fraction
import re

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
    m0_residual_batch,
    m0_value_batch,
    problem_m0,
    residual_general,
)
from todacensus.apparency import _local_data, _m0_scalars, _m0_terms
from todacensus.elliptic import _LAURENT_ORDER, compute_invariants
from todacensus.errors import (
    CriticalParametersError,
    EvenNonexistenceError,
    StructuralError,
)
from todacensus.jsonio import to_jsonable
from todacensus.monodromy import ode_coefficients
from todacensus.polyring import WeightedPoly, weierstrass_laurent, weierstrass_laurent_symbolic

from oracle_series import oracle_residual


def _poly(term_map, vars=M0_VARS, weights=M0_WEIGHTS):
    p = WeightedPoly.zero(vars, weights)
    for exps, coeff in term_map.items():
        t = WeightedPoly.const(vars, weights, coeff)
        for name, e in zip(vars, exps):
            if e:
                t = t * WeightedPoly.var(vars, weights, name) ** e
        p = p + t
    return p


# exponent order: (B, D0, D, g2, g3)
SYSTEM_01 = (
    _poly({(0, 1, 0, 0, 0): Fraction(-1)}),
    _poly({(0, 2, 0, 0, 0): Fraction(-1, 2), (1, 0, 0, 0, 0): Fraction(2, 3)}),
    _poly({(0, 0, 1, 0, 0): Fraction(-1), (1, 1, 0, 0, 0): Fraction(-1, 6)}),
)
SYSTEM_02 = (
    _poly({(0, 1, 0, 0, 0): Fraction(-1)}),
    _poly({
        (0, 3, 0, 0, 0): Fraction(-1, 24),
        (1, 1, 0, 0, 0): Fraction(7, 18),
        (0, 0, 1, 0, 0): Fraction(-1),
    }),
    _poly({
        (1, 2, 0, 0, 0): Fraction(-1, 36),
        (0, 1, 1, 0, 0): Fraction(-1, 6),
        (2, 0, 0, 0, 0): Fraction(2, 9),
        (0, 0, 0, 1, 0): Fraction(-2, 27),
    }),
)
# (0,4) after setting D0 = 0
SYSTEM_04_RESTRICTED = (
    _poly({}),
    _poly({(1, 0, 1, 0, 0): Fraction(5, 54)}),
    _poly({
        (3, 0, 0, 0, 0): Fraction(-1, 81),
        (0, 0, 2, 0, 0): Fraction(-1, 18),
        (1, 0, 0, 1, 0): Fraction(28, 243),
        (0, 0, 0, 0, 1): Fraction(-16, 27),
    }),
)


def test_exact_system_01():
    sys01 = build_m0_system(0, 1)
    assert tuple(sys01.polys()) == SYSTEM_01
    assert sys01.bound == 1


def test_exact_system_02():
    sys02 = build_m0_system(0, 2)
    assert tuple(sys02.polys()) == SYSTEM_02
    assert sys02.bound == 2


def test_exact_system_04_restricted():
    sys04 = build_m0_system(0, 4)
    restricted = tuple(p.substitute_zero("D0") for p in sys04.polys())
    assert restricted == SYSTEM_04_RESTRICTED
    assert sys04.bound == 5


def test_local_exponent_data():
    prob = problem_m0(0.2 + 1.1j, 0, 4)
    pk = prob.punctures[0]
    assert pk.gamma1 == Fraction(4, 3)
    assert pk.gamma2 == Fraction(8, 3)
    assert pk.alpha == Fraction(28, 3)
    assert pk.beta == Fraction(28, 27)
    assert pk.rho == (Fraction(-4, 3), Fraction(-1, 3), Fraction(14, 3))


@pytest.mark.parametrize("n1,n2", [(0, 1), (0, 2), (0, 4), (1, 2), (1, 3),
                                   (2, 3), (2, 4), (3, 5), (1, 6), (4, 6)])
def test_weights_and_leading_terms(n1, n2):
    system = build_m0_system(n1, n2)
    P1, P2, P3 = system.polys()
    assert P1.is_homogeneous(weight=n1 + 1)
    assert P2.is_homogeneous(weight=n2 + 1)
    assert P3.is_homogeneous(weight=n1 + n2 + 2)
    # leading structure: pure D0 powers head the first two rows, B*D0^(n1+n2)
    # heads the third
    lead1 = P1.coefficient("D0", n1 + 1)
    assert not lead1.is_zero() and lead1.degree_in("B") == 0
    lead2 = P2.coefficient("D0", n2 + 1)
    assert not lead2.is_zero()
    lead3 = P3.coefficient("D0", n1 + n2)
    assert lead3.degree_in("B") == 1


@pytest.mark.parametrize("n1,n2", [(0, 2), (0, 4), (2, 3)])
def test_scaling_covariance_exact(n1, n2):
    """Weighted rescaling multiplies each row by its weight power, exactly."""
    system = build_m0_system(n1, n2)
    lam = Fraction(3, 2)
    base = {"B": Fraction(2), "D0": Fraction(-1, 3), "D": Fraction(5, 7),
            "g2": Fraction(1, 2), "g3": Fraction(-4)}
    scaled = {v: base[v] * lam ** w for v, w in zip(M0_VARS, M0_WEIGHTS)}
    for poly, weight in zip(system.polys(),
                            (n1 + 1, n2 + 1, n1 + n2 + 2)):
        assert poly.eval(scaled) == lam ** weight * poly.eval(base)


def test_value_routes_agree():
    # symbolic evaluation, the batched kernel, and the general recursion all
    # compute the same residual
    tau = 0.21 + 1.13j
    prob = problem_m0(tau, 2, 4)
    ctx = compute_invariants(prob.lattice)
    system = build_m0_system(2, 4)
    rng = np.random.default_rng(3)
    B, D0, D = (complex(*rng.normal(size=2)) for _ in range(3))
    sym = np.array([
        complex(p.eval({"B": B, "D0": D0, "D": D, "g2": ctx.g2, "g3": ctx.g3}))
        for p in system.polys()
    ])
    vals = m0_value_batch(2, 4, ctx._bn_ext, np.array([B]), np.array([D0]), np.array([D]))
    assert np.max(np.abs(vals[0] - sym)) <= 1e-12 * (1 + np.max(np.abs(sym)))
    gen = residual_general(prob, ctx, ParamVec.m0(B, D0, D))
    assert np.max(np.abs(gen[2:] - sym)) <= 1e-10 * (1 + np.max(np.abs(sym)))
    assert abs(gen[0]) == 0.0 and abs(gen[1]) == 0.0
    # jacobian against finite differences
    F, J = m0_residual_batch(2, 4, ctx._bn_ext, np.array([B]), np.array([D0]), np.array([D]))
    h = 1e-7
    for i, (dB, dD0, dD) in enumerate(((h, 0, 0), (0, h, 0), (0, 0, h))):
        Fp, _ = m0_residual_batch(2, 4, ctx._bn_ext,
                                  np.array([B + dB]), np.array([D0 + dD0]), np.array([D + dD]))
        fd = (Fp[0] - F[0]) / h
        assert np.max(np.abs(fd - J[0, :, i])) <= 1e-5 * (1 + np.max(np.abs(J)))


@pytest.mark.parametrize("n1,n2", [(0, 2), (1, 8), (2, 7), (3, 5)])
@pytest.mark.parametrize("S", [1, 7, 513])
def test_value_kernel_is_residual_kernel_value_row(n1, n2, S):
    # the census steps with m0_residual_batch and judges the steps with
    # m0_value_batch, so the two must agree exactly, not to a tolerance
    ctx = compute_invariants(0.05 + 0.88j)
    rng = np.random.default_rng(100 * n1 + n2 + S)
    scale = np.array([[300.0], [5.0], [600.0]])
    B, D0, D = scale * (rng.normal(size=(3, S)) + 1j * rng.normal(size=(3, S)))
    F, _ = m0_residual_batch(n1, n2, ctx._bn_ext, B, D0, D)
    vals = m0_value_batch(n1, n2, ctx._bn_ext, B, D0, D)
    assert vals.shape == (S, 3)
    assert np.array_equal(vals, F)


@pytest.mark.parametrize("n1,n2", [(0, 2), (2, 7)])
def test_kernel_results_own_their_memory(n1, n2):
    # the census keeps F, J and values across kernel calls, so no later call
    # may write into them (as a workspace reused across calls could)
    ctx = compute_invariants(0.21 + 1.13j)
    rng = np.random.default_rng(10 * n1 + n2)
    scale = np.array([[30.0], [5.0], [60.0]])

    def points(S):
        return scale * (rng.normal(size=(3, S)) + 1j * rng.normal(size=(3, S)))

    B, D0, D = points(513)
    kept = (*m0_residual_batch(n1, n2, ctx._bn_ext, B, D0, D),
            m0_value_batch(n1, n2, ctx._bn_ext, B, D0, D))
    before = [a.tobytes() for a in kept]
    for S in (513, 7):
        m0_residual_batch(n1, n2, ctx._bn_ext, *points(S))
        m0_value_batch(n1, n2, ctx._bn_ext, *points(S))
    assert [a.tobytes() for a in kept] == before


def _laurent_tables():
    """Laurent tables of one length: a generic tau, tau = i (g3 = 0, so
    b_6 = 0), rho (g2 = 0, so b_4 = 0), and the zero table of the degenerate
    probe"""
    generic = compute_invariants(0.21 + 1.13j)._bn_ext
    L = len(generic)
    g2_i = compute_invariants(1j).g2
    g3_rho = compute_invariants(complex(0.5, 3 ** 0.5 / 2)).g3
    tables = [generic,
              np.array(weierstrass_laurent(g2_i, 0j, L - 1, 0j, 1.0)),
              np.array(weierstrass_laurent(0j, g3_rho, L - 1, 0j, 1.0)),
              np.zeros(L, complex)]
    assert tables[1][6] == 0 != tables[1][4] and tables[2][4] == 0 != tables[2][6]
    return tables


@pytest.mark.parametrize("n1,n2", [(0, 2), (2, 7), (3, 5)])
@pytest.mark.parametrize("S", [1, 7, 513])
def test_kernels_take_a_laurent_column_per_point(n1, n2, S):
    # a scan's warm wave evaluates the points of several lattices in one
    # call: point s is computed with column s of an (L, S) table, and must
    # get exactly what a call on that table alone gives it, also where some
    # columns have zero entries that others have not
    tables = _laurent_tables()
    rng = np.random.default_rng(10 * n1 + n2 + S)
    scale = np.array([[30.0], [5.0], [60.0]])
    B, D0, D = scale * (rng.normal(size=(3, S)) + 1j * rng.normal(size=(3, S)))
    D0[::3] = D[::3] = 0.0  # even-sector starts, where partials vanish
    which = np.arange(S) % len(tables)
    columns = np.stack([tables[k] for k in which], axis=1)
    F, J = m0_residual_batch(n1, n2, columns, B, D0, D)
    vals = m0_value_batch(n1, n2, columns, B, D0, D)
    for k, table in enumerate(tables):
        sel = which == k
        if not sel.any():
            continue
        # the table as an array, and as a tuple (a 1-D sequence works too)
        # (bit for bit: np.array_equal would let the sign of a zero differ)
        for bnum in (table, tuple(table)):
            Fk, Jk = m0_residual_batch(n1, n2, bnum, B[sel], D0[sel], D[sel])
            assert np.array_equal(F[sel], Fk) and np.array_equal(J[sel], Jk)
            assert F[sel].tobytes() == Fk.tobytes() and J[sel].tobytes() == Jk.tobytes()
            Vk = m0_value_batch(n1, n2, bnum, B[sel], D0[sel], D[sel])
            assert vals[sel].tobytes() == Vk.tobytes()


@pytest.mark.parametrize("n1,n2", [(0, 2), (0, 4), (1, 5), (2, 7), (3, 5)])
def test_kernels_read_the_table_to_n1_n2_2(n1, n2):
    # the census hands the kernels a table cut after b_{n1+n2+2}: F, J and
    # values are those of the full table, bit for bit, for one table and
    # for a table per point
    tables = _laurent_tables()
    cut = n1 + n2 + 3
    rng = np.random.default_rng(n1 + 10 * n2)
    scale = np.array([[30.0], [5.0], [60.0]])
    S = 11
    X = scale * (rng.normal(size=(3, S)) + 1j * rng.normal(size=(3, S)))
    columns = np.stack([tables[k % len(tables)] for k in range(S)], axis=1)
    for full in tables + [columns]:
        F, J = m0_residual_batch(n1, n2, full, *X)
        Fc, Jc = m0_residual_batch(n1, n2, full[:cut], *X)
        assert F.tobytes() == Fc.tobytes() and J.tobytes() == Jc.tobytes()
        vals = m0_value_batch(n1, n2, full[:cut], *X)
        assert vals.tobytes() == m0_value_batch(n1, n2, full, *X).tobytes()


@pytest.mark.parametrize("punctures", [[(0.0, 0, 4)], [(0.0, 1, 2), (0.31 + 0.42j, 0, 1)]],
                         ids=["m0", "two"])
def test_residual_general_reads_the_table_it_needs(punctures):
    # residual_general asks the context for b_j, j <= max(n1 + n2 + 2), and
    # gets the bits of the full table
    tau = 0.17 + 1.21j
    prob = derive_problem(tau, punctures)
    x = np.random.default_rng(3).normal(size=3 * len(punctures) + 2) + 0.5j
    ctx = compute_invariants(tau)
    F, J = residual_general(prob, ctx, x, with_jacobian=True)
    if len(punctures) == 1:
        assert len(ctx._bn) == 7
    full = compute_invariants(tau)
    full.laurent(_LAURENT_ORDER)
    Ff, Jf = residual_general(prob, full, x, with_jacobian=True)
    assert F.tobytes() == Ff.tobytes() and J.tobytes() == Jf.tobytes()


def _two_pass_frobenius(n1, n2, rhs, zero, one):
    """The recursion as two sweeps over j, the second from the injected
    free coefficient: the reference for the one-sweep kernels."""
    jtop = n1 + n2 + 2
    phi = lambda j: j * (j - n1 - 1) * (j - n1 - n2 - 2)
    c = [one]
    for j in range(1, jtop):
        r = rhs(j, c)
        if j == n1 + 1:
            P1 = r
            c.append(zero)
        else:
            c.append(r / phi(j))
    P3 = rhs(jtop, c)
    c = [zero] * (n1 + 1) + [one]
    for j in range(n1 + 2, jtop):
        c.append(rhs(j, c) / phi(j))
    return P1, rhs(jtop, c), P3


def _two_pass_jets(n1, n2, bnum, B, D0, D, one):
    rho, alpha, beta = _m0_scalars(n1, n2)

    def times(x, row):
        def mul(c):
            out = c * x
            if out.ndim > 1:
                out[row] += c[0]
            return out
        return mul

    def rhs(j, c):
        return _m0_terms(j, c, rho, alpha, beta, bnum,
                         times(B, 1), times(D0, 2), times(D, 3))

    return _two_pass_frobenius(n1, n2, rhs, np.zeros_like(one), one)


@pytest.mark.parametrize("n1,n2", [(0, 2), (1, 8), (2, 7), (3, 5)])
@pytest.mark.parametrize("S", [1, 7, 513])
def test_one_sweep_kernels_match_two_passes(n1, n2, S):
    # both passes of the recursion run in one sweep, stacked on an axis
    # before S; every residual, partial and value must round as it did
    # when the second pass ran on its own
    ctx = compute_invariants(-0.373 + 0.992j)
    rng = np.random.default_rng(10 * n1 + n2 + S)
    scale = np.array([[300.0], [5.0], [600.0]])
    B, D0, D = scale * (rng.normal(size=(3, S)) + 1j * rng.normal(size=(3, S)))
    jets = np.zeros((4, S), complex)
    jets[0] = 1.0
    P = _two_pass_jets(n1, n2, ctx._bn_ext, B, D0, D, jets)
    F, J = m0_residual_batch(n1, n2, ctx._bn_ext, B, D0, D)
    assert np.array_equal(F, np.stack([p[0] for p in P], axis=-1))
    assert np.array_equal(J, np.stack([p[1:].T for p in P], axis=1))
    P = _two_pass_jets(n1, n2, ctx._bn_ext, B, D0, D, np.ones(S, complex))
    assert np.array_equal(m0_value_batch(n1, n2, ctx._bn_ext, B, D0, D),
                          np.stack(P, axis=-1))


@pytest.mark.parametrize("n1,n2", [(0, 2), (1, 3), (2, 7)])
def test_exact_system_matches_two_passes(n1, n2):
    # build_m0_system runs the same one-sweep recursion over polynomials
    V, W = M0_VARS, M0_WEIGHTS
    Bv, D0v, Dv = (WeightedPoly.var(V, W, x) for x in ("B", "D0", "D"))
    _, _, alpha, beta, rho = _local_data(n1, n2)
    b = weierstrass_laurent_symbolic(n1 + n2 + 2, vars=V, weights=W)

    def rhs(j, c):
        return _m0_terms(j, c, rho[0], alpha, beta, b,
                         lambda x: Bv * x, lambda x: D0v * x, lambda x: Dv * x)

    want = _two_pass_frobenius(n1, n2, rhs, WeightedPoly.zero(V, W),
                               WeightedPoly.const(V, W, 1))
    assert build_m0_system(n1, n2).polys() == want


def test_critical_and_order_refusals():
    with pytest.raises(CriticalParametersError):
        build_m0_system(1, 1)
    with pytest.raises(CriticalParametersError):
        build_m0_system(0, 3)
    with pytest.raises(StructuralError):
        build_m0_system(2, 1)
    with pytest.raises(StructuralError):
        build_m0_system(-1, 2)


def test_even_poly_regressions():
    b = WeightedPoly.var(("B", "g2", "g3"), (1, 2, 3), "B")
    g2 = WeightedPoly.var(("B", "g2", "g3"), (1, 2, 3), "g2")
    g3 = WeightedPoly.var(("B", "g2", "g3"), (1, 2, 3), "g3")
    assert build_even_poly(0, 1).poly == b
    assert build_even_poly(1, 2).poly == b
    assert build_even_poly(0, 2).poly == b * b - g2.scale(Fraction(1, 3))
    assert build_even_poly(0, 4).poly == (
        b ** 3 - (g2 * b).scale(Fraction(28, 3)) + g3.scale(48)
    )
    assert build_even_poly(2, 3).poly == b * b - g2.scale(Fraction(25, 3))


@pytest.mark.parametrize("n1,n2", [(n1, n2) for n1 in range(13) for n2 in range(13)
                                   if n1 <= n2 and (n1 - n2) % 3 != 0
                                   and not (n1 % 2 == 1 and n2 % 2 == 1)])
def test_even_poly_shape_all_pairs(n1, n2):
    ep = build_even_poly(n1, n2)
    Ne = even_count_Ne(n1, n2)
    assert ep.Ne == Ne
    assert ep.poly.degree_in("B") == Ne
    assert ep.poly.is_homogeneous(weight=Ne)
    lead = ep.poly.coefficient("B", Ne)
    assert lead == WeightedPoly.const(("B", "g2", "g3"), (1, 2, 3), 1)


EVEN_IDENTITY_PAIRS = [(n1, n2) for n1 in range(10) for n2 in range(n1 + 1, 10 - n1)
                       if (n1 - n2) % 3 != 0]


@pytest.mark.parametrize("n1,n2", EVEN_IDENTITY_PAIRS)
def test_even_poly_is_the_even_restriction_of_the_system(n1, n2):
    # two derivations of the even sector: the Frobenius recursion in z
    # (build_m0_system) restricted to D0 = D = 0, and the descent through
    # x = P(z) (build_even_poly); they must agree exactly
    system = build_m0_system(n1, n2)
    even = [P.substitute_zero("D0").substitute_zero("D") for P in system.polys()]
    survivors = [i for i, P in enumerate(even) if not P.is_zero()]
    if n1 % 2 == 1 and n2 % 2 == 1:
        assert survivors == [0, 1, 2]
        return
    ep = build_even_poly(n1, n2)
    assert len(survivors) == 1
    P = even[survivors[0]]
    (lead,) = P.coefficient("B", ep.Ne).terms.values()
    terms = {(eB, e2, e3): c / lead for (eB, _, _, e2, e3), c in P.terms.items()}
    assert terms == ep.poly.terms


def test_even_counts():
    assert even_count_Ne(0, 1) == 1
    assert even_count_Ne(0, 2) == 2
    assert even_count_Ne(0, 4) == 3
    assert even_count_Ne(1, 2) == 1
    assert even_count_Ne(2, 3) == 2
    assert even_count_Ne(3, 4) == 2
    assert even_count_Ne(5, 6) == 3


def test_even_nonexistence_precedence():
    # both-odd wins over critical so the caller sees the sector signal
    with pytest.raises(EvenNonexistenceError):
        even_count_Ne(1, 1)
    with pytest.raises(EvenNonexistenceError):
        build_even_poly(1, 3)
    with pytest.raises(CriticalParametersError):
        even_count_Ne(0, 3)


def test_bezout_bounds():
    expected = {(0, 1): 1, (0, 2): 2, (0, 4): 5, (1, 2): 5,
                (1, 3): 8, (2, 3): 14, (2, 4): 20}
    for (n1, n2), val in expected.items():
        assert bezout_bound([(n1, n2)]) == val
        assert isinstance(bezout_bound([(n1, n2)]), int)
    # two punctures: halve once more and multiply the local factors
    assert bezout_bound([(0, 1), (0, 1)]) == Fraction(1, 12) * (1 * 2 * 3) ** 2
    with pytest.raises(CriticalParametersError):
        bezout_bound([(1, 1)])


def test_derive_problem_validation():
    tau = 0.2 + 1.1j
    with pytest.raises(StructuralError):
        derive_problem(tau, [(0.0, 0, 1), (1.0 + tau, 0, 1)])  # same point mod lattice
    prob = derive_problem(tau, [(0.0, 0, 1), (0.5, 1, 1)])
    assert prob.m == 1
    prob.require_noncritical()
    # critical totals are not raised at derivation time, only when asked
    crit = derive_problem(tau, [(0.0, 1, 1)])
    with pytest.raises(CriticalParametersError):
        crit.require_noncritical()
    for p in (complex(np.nan, 0), complex(0, np.inf), np.inf):
        with pytest.raises(StructuralError, match="puncture 1 has a non-finite position"):
            derive_problem(tau, [(0.0, 0, 1), (p, 0, 1)])


def test_epsilon_value():
    prob = problem_m0(0.2 + 1.1j, 0, 1)
    # exp(-2 pi i (2 N1 + N2)/3) with N1 = 0, N2 = 1
    assert abs(prob.epsilon - complex(-0.5, -np.sqrt(3) / 2)) <= 1e-12


def test_param_vec_round_trip():
    pv = ParamVec(A=(1 + 2j, 3j), Bk=(0.5, -1j), B=2 - 1j, Dk=(4j, 1.0), D=-3.0)
    vec = pv.to_vector()
    assert len(vec) == 8
    back = ParamVec.from_vector(vec)
    assert back == pv
    pv0 = ParamVec.m0(1j, 2.0, 3.0)
    assert pv0.D0 == 2.0
    assert pv0.to_vector().shape == (5,)


def test_residual_general_matches_series_oracle():
    """Multi-puncture recursion vs direct series substitution."""
    tau = 0.17 + 1.21j
    ctx = compute_invariants(tau)
    rng = np.random.default_rng(11)

    def rnd(n):
        return tuple(complex(a, b) for a, b in
                     zip(rng.normal(size=n), rng.normal(size=n)))

    configs = [
        [(0.0, 0, 1), (0.31 + 0.42j, 0, 1)],
        [(0.0, 1, 2), (0.31 + 0.42j, 0, 1)],
        [(0.0, 2, 4), (0.31 + 0.42j, 1, 1)],
        [(0.0, 0, 2), (-0.27 + 0.55j, 1, 3)],
    ]
    for punctures in configs:
        prob = derive_problem(tau, punctures)
        mlen = len(punctures)
        pv = ParamVec(A=rnd(mlen), Bk=rnd(mlen), B=rnd(1)[0], Dk=rnd(mlen), D=rnd(1)[0])
        impl = residual_general(prob, ctx, pv)
        orac = oracle_residual(prob, ctx, pv)
        assert impl.shape == (3 * (mlen - 1) + 5,)
        rel = np.max(np.abs(impl - orac) / (1.0 + np.abs(orac)))
        assert rel <= 1e-8


def test_residual_general_jacobian():
    tau = 0.17 + 1.21j
    ctx = compute_invariants(tau)
    prob = derive_problem(tau, [(0.0, 0, 1), (0.31 + 0.42j, 0, 1)])
    rng = np.random.default_rng(5)
    x = rng.normal(size=8) + 1j * rng.normal(size=8)
    pv = ParamVec.from_vector(x)
    F, J = residual_general(prob, ctx, pv, with_jacobian=True)
    h = 1e-7
    for i in range(8):
        xp = x.copy()
        xp[i] += h
        Fp = residual_general(prob, ctx, ParamVec.from_vector(xp))
        fd = (Fp - F) / h
        assert np.max(np.abs(fd - J[:, i])) <= 1e-5 * (1 + np.max(np.abs(J)))


def test_param_vectors_refused_alike():
    # residual_general and the ODE coefficients coerce and check a parameter
    # vector the same way, and refuse it with the same text
    tau = 0.17 + 1.21j
    ctx = compute_invariants(tau)
    prob = problem_m0(tau, 0, 1)
    two = ParamVec(A=(0j, 0j), Bk=(0j, 0j), B=0j, Dk=(0j, 0j), D=0j)
    for bad, text in ((two, "parameter arity does not match puncture count"),
                      (np.zeros(7, complex), "parameter vector length must be 3m+5")):
        with pytest.raises(StructuralError, match=re.escape(text)):
            residual_general(prob, ctx, bad)
        with pytest.raises(StructuralError, match=re.escape(text)):
            ode_coefficients(prob, ctx, [bad], 0.4 + 0.4j)
    with pytest.raises(StructuralError, match="context and problem use different lattices"):
        residual_general(prob, compute_invariants(0.2 + 1.1j), ParamVec.m0(0, 0, 0))


@pytest.mark.parametrize("bad", [complex(np.nan, 0), complex(0, np.inf), -np.inf], ids=str)
def test_non_finite_parameters_refused(bad):
    tau = 0.17 + 1.21j
    ctx = compute_invariants(tau)
    prob = problem_m0(tau, 0, 1)
    for i in range(5):
        x = np.zeros(5, complex)
        x[i] = bad
        with pytest.raises(StructuralError, match="parameters must be finite"):
            residual_general(prob, ctx, x)
        with pytest.raises(StructuralError, match="parameters must be finite"):
            ode_coefficients(prob, ctx, [ParamVec.from_vector(x)], 0.4 + 0.4j)


def test_problem_json_round_trippable_fields():
    prob = problem_m0(0.2 + 1.1j, 0, 4)
    d = to_jsonable(prob)
    prob.require_noncritical()
    assert (d["N1"], d["N2"]) == (0, 4)
    assert d["punctures"][0]["n1"] == 0
    assert d["punctures"][0]["n2"] == 4
