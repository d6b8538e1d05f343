"""Apparent-singularity conditions for the third-order torus ODE.

A puncture with multiplicity pair (n1, n2) forces the local exponents

    rho = (-g1, -g1 + n1 + 1, -g1 + n1 + n2 + 2),   g1 = (2 n1 + n2)/3,

and the requirement that the local monodromy be scalar ("apparent") is a
finite set of polynomial conditions on the accessory parameters, obtained by
running the Frobenius recursion at each puncture and demanding that every
resonance is unobstructed.  This module derives the exponent data exactly,
generates the single-puncture (m = 0) system symbolically over Q[B, D0, D,
g2, g3], generates the even-sector polynomial in Q[B, g2, g3], and evaluates
the general multi-puncture residual numerically with exact forward-mode
derivatives.

Counting:  the weighted-Bezout bound for the full system is

    (1 / (3 * 2^{m+1})) * prod_k (n1_k + 1)(n2_k + 1)(n1_k + n2_k + 2),

an integer whenever the totals are noncritical (N1 != N2 mod 3).
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
import cmath
import math

import numpy as np

from .elliptic import LatticeTau, lattice_distance
from .errors import (
    CriticalParametersError,
    EvenNonexistenceError,
    StructuralError,
)
from .polyring import WeightedPoly, weierstrass_laurent_symbolic

__all__ = [
    "PunctureData",
    "ProblemSpec",
    "ParamVec",
    "derive_problem",
    "problem_m0",
    "m0_pair",
    "build_m0_system",
    "M0System",
    "build_even_poly",
    "EvenPoly",
    "even_count_Ne",
    "bezout_bound",
    "residual_general",
    "m0_residual_batch",
    "m0_value_batch",
]

M0_VARS = ("B", "D0", "D", "g2", "g3")
M0_WEIGHTS = (2, 1, 3, 4, 6)

EVEN_VARS = ("B", "g2", "g3")
EVEN_WEIGHTS = (1, 2, 3)


# ---------------------------------------------------------------------------
# problem derivation


def _local_data(n1, n2):
    g1 = Fraction(2 * n1 + n2, 3)
    g2 = Fraction(n1 + 2 * n2, 3)
    alpha = g1 * (g1 + 1) + g2 * (g2 + 1) - g1 * g2
    beta = -(2 * g1 * (g1 + 1) + g1 * g2 * (g1 - g2 - 1)) / 2
    rho = (-g1, -g1 + n1 + 1, -g1 + n1 + n2 + 2)
    return g1, g2, alpha, beta, rho


@dataclass(frozen=True)
class PunctureData:
    """Exponent data derived from one puncture's multiplicities (exact)."""

    p: complex
    n1: int
    n2: int
    gamma1: Fraction
    gamma2: Fraction
    alpha: Fraction
    beta: Fraction
    rho: tuple


@dataclass(frozen=True)
class ProblemSpec:
    """A lattice together with derived puncture data and totals."""

    lattice: LatticeTau
    punctures: tuple
    N1: int
    N2: int
    epsilon: complex

    @property
    def m(self):
        return len(self.punctures) - 1

    def require_noncritical(self):
        _require_noncritical(self.N1, self.N2)


def _multiplicities(*ns):
    """ns as ints; refuses any that is not a non-negative integer."""
    try:
        if all(int(n) == n >= 0 for n in ns):
            return tuple(int(n) for n in ns)
    except (TypeError, ValueError, OverflowError):
        pass
    raise StructuralError("multiplicities must be non-negative integers")


def _require_noncritical(N1, N2):
    """Refuse totals on the critical locus N1 == N2 (mod 3)."""
    if (N1 - N2) % 3 == 0:
        raise CriticalParametersError(
            "total multiplicities satisfy N1 == N2 (mod 3); "
            "the census is undefined on this critical locus"
        )


_MIN_SEPARATION = 1e-9  # punctures closer than this modulo the lattice coincide


def derive_problem(lattice, punctures):
    """Exact exponent data for a set of punctures on a lattice.

    punctures is a list of (p, n1, n2) triples, the multiplicities
    non-negative integers and the positions finite.  Punctures that
    coincide modulo the lattice are a structural error.  Critical totals
    (N1 == N2 mod 3) are not an error here: the census operations
    downstream refuse them, through ProblemSpec.require_noncritical.
    """
    if not isinstance(lattice, LatticeTau):
        lattice = LatticeTau(complex(lattice))
    data = []
    for p, n1, n2 in punctures:
        n1, n2 = _multiplicities(n1, n2)
        p = complex(p)
        if not cmath.isfinite(p):
            raise StructuralError("puncture %d has a non-finite position" % len(data))
        g1, g2, alpha, beta, rho = _local_data(n1, n2)
        data.append(PunctureData(p=p, n1=n1, n2=n2, gamma1=g1, gamma2=g2,
                                 alpha=alpha, beta=beta, rho=rho))
    if not data:
        raise StructuralError("need at least one puncture")
    for i in range(len(data)):
        for j in range(i + 1, len(data)):
            if lattice_distance(data[i].p - data[j].p, lattice.tau) < _MIN_SEPARATION:
                raise StructuralError(
                    "punctures %d and %d coincide modulo the lattice" % (i, j)
                )
    N1 = sum(pk.n1 for pk in data)
    N2 = sum(pk.n2 for pk in data)
    eps = cmath.exp(-2j * math.pi * (2 * N1 + N2) / 3.0)
    return ProblemSpec(
        lattice=lattice,
        punctures=tuple(data),
        N1=N1,
        N2=N2,
        epsilon=eps,
    )


def problem_m0(tau, n1, n2):
    """Single puncture at the origin."""
    return derive_problem(LatticeTau(complex(tau)), [(0j, n1, n2)])


# ---------------------------------------------------------------------------
# parameters


@dataclass(frozen=True)
class ParamVec:
    """Accessory parameters (A_0..A_m, B_0..B_m, B, D_0..D_m, D)."""

    A: tuple
    Bk: tuple
    B: complex
    Dk: tuple
    D: complex

    @classmethod
    def m0(cls, B, D0, D):
        return cls(A=(0j,), Bk=(0j,), B=complex(B), Dk=(complex(D0),), D=complex(D))

    @classmethod
    def from_vector(cls, x):
        x = list(x)
        if (len(x) - 2) % 3 != 0:
            raise StructuralError("parameter vector length must be 3m+5")
        mp1 = (len(x) - 2) // 3
        return cls(
            A=tuple(complex(v) for v in x[:mp1]),
            Bk=tuple(complex(v) for v in x[mp1 : 2 * mp1]),
            B=complex(x[2 * mp1]),
            Dk=tuple(complex(v) for v in x[2 * mp1 + 1 : 3 * mp1 + 1]),
            D=complex(x[3 * mp1 + 1]),
        )

    def to_vector(self):
        return np.array(
            list(self.A) + list(self.Bk) + [self.B] + list(self.Dk) + [self.D],
            dtype=complex,
        )

    @property
    def D0(self):
        return self.Dk[0]


def _param_vec(problem, params):
    """params, a ParamVec or a flat vector in its order, as a ParamVec with
    one A_k, B_k and D_k per puncture of problem and every entry finite."""
    if not isinstance(params, ParamVec):
        params = ParamVec.from_vector(params)
    if not (len(params.A) == len(params.Bk) == len(params.Dk) == len(problem.punctures)):
        raise StructuralError("parameter arity does not match puncture count")
    if not np.isfinite(params.to_vector()).all():
        raise StructuralError("parameters must be finite")
    return params


# ---------------------------------------------------------------------------
# symbolic m = 0 system


@dataclass(frozen=True)
class M0System:
    """The three apparency polynomials of a single origin puncture.

    P1, P2, P3 are weight-homogeneous of weights n1+1, n2+1, n1+n2+2 under
    the grading B:2, D0:1, D:3, g2:4, g3:6."""

    n1: int
    n2: int
    P1: WeightedPoly
    P2: WeightedPoly
    P3: WeightedPoly
    bound: int

    def polys(self):
        return (self.P1, self.P2, self.P3)

    def text(self):
        return "P1 = %s\nP2 = %s\nP3 = %s" % (
            self.P1.text(),
            self.P2.text(),
            self.P3.text(),
        )


def m0_pair(n1, n2):
    """The pair (n1, n2) of a single puncture, as ints, once it has passed
    the checks of the single-puncture system, in this order: non-negative
    integers, noncritical (n1 != n2 mod 3), then n1 < n2."""
    n1, n2 = _multiplicities(n1, n2)
    _require_noncritical(n1, n2)
    if not n1 < n2:
        raise StructuralError("need 0 <= n1 < n2")
    return n1, n2


def _phi(j, n1, n2):
    return j * (j - n1 - 1) * (j - n1 - n2 - 2)


def _frobenius(n1, n2, rhs, zero, one):
    """The two-pass Frobenius recursion at the exponent -g1, run as one
    sweep, over coefficients that are arrays (..., S) of any element type
    that rhs works in and that divides by an integer.

    rhs(j, c) is the right-hand side of phi(j) c_j = rhs(j, c) given the
    coefficients c_0..c_{j-1}.  The first pass starts from c_0 = one and
    yields the obstruction P1 at the resonance j = n1+1, where the free
    coefficient is set to zero, and P3 at j = n1+n2+2.  The second pass
    injects the free coefficient (c_{n1+1} = one, lower ones zero) and yields
    P2 at j = n1+n2+2.  Returns (P1, P2, P3).

    Every coefficient of both passes lives in one block c of shape
    (n1+n2+2, ..., 2, S), allocated once per call and divided into in
    place: slot 0 of the pass axis holds the first pass, slot 1 the
    injected one.  Up to the resonance rhs reads the first pass alone,
    c[..., 0, :]; from there on it reads c, so one rhs call advances both
    passes.  Only the storage differs from a list of per-step arrays: rhs
    and its operation order, and so every bit of the result, are kept.  The
    block exists for speed at S ~ 500 (the heap-trimming FOUND, now MENDED,
    of CHANGES.md): on glibc, freeing such a list let malloc return the top of
    the heap after every call and fault those pages back in on the next,
    while the first free of a block this large raises malloc's mmap and trim
    thresholds past it.  Nothing outlives the call.
    """
    jtop = n1 + n2 + 2
    c = np.empty((jtop,) + one.shape[:-1] + (2, one.shape[-1]), one.dtype)
    first, injected = c[..., 0, :], c[..., 1, :]
    first[0] = one
    for j in range(1, n1 + 1):
        np.divide(rhs(j, first), _phi(j, n1, n2), out=first[j])
    P1 = rhs(n1 + 1, first)
    first[n1 + 1] = zero
    injected[:n1 + 1] = zero
    injected[n1 + 1] = one
    for j in range(n1 + 2, jtop):
        np.divide(rhs(j, c), _phi(j, n1, n2), out=c[j])
    top = rhs(jtop, c)
    return P1, top[..., 1, :], top[..., 0, :]


def _m0_terms(j, c, rho, alpha, beta, b, mulB, mulD0, mulD):
    """Right-hand side of the single-puncture recurrence at step j.

    The coefficients c and the Laurent table b may be exact polynomials or
    batched jets; b is one table (L,) or a column per point (L, S).  rho,
    alpha, beta are the matching scalars, and mulB, mulD0, mulD multiply a
    coefficient by B, D0, D.  Every term b_i c_{j-i}, 4 <= i <= j, is added,
    a zero b_i included, so each point of a (L, S) table gets the bits of the
    one-table call on its own column.  The operation order fixes the
    rounding of the batched solver kernels; keep it.  The terms are added in
    place to r, an array made here, which saves an allocation per term.
    """
    r = -mulD0(c[j - 1])
    if j >= 2:
        r += (j + rho - 2) * mulB(c[j - 2])
    if j >= 3:
        r -= mulD(c[j - 3])
    acc = None
    for i in range(4, j + 1, 2):
        bi = b[i]
        r += ((j + rho - i) * alpha - (i - 2) * beta) * bi * c[j - i]
        if i < j:
            acc = bi * c[j - 1 - i] if acc is None else acc + bi * c[j - 1 - i]
    if acc is not None:
        r -= mulD0(acc)
    return r


def build_m0_system(n1, n2):
    """Generate the m = 0 apparency polynomials of the pair (n1, n2) exactly.

    The Frobenius recursion at the exponent -g1 is run twice over
    Q[B, D0, D, g2, g3]: once from the top solution (c0 = 1) and once from
    the free coefficient injected at the first resonance j = n1+1.  The
    obstructions at j = n1+1 and j = n1+n2+2 give P1 and (P3, P2).  The
    coefficients are one-element object arrays of polynomials, so that the
    recursion is the one the numeric kernels run.
    """
    n1, n2 = m0_pair(n1, n2)

    V, W = M0_VARS, M0_WEIGHTS
    Bv = WeightedPoly.var(V, W, "B")
    D0v = WeightedPoly.var(V, W, "D0")
    Dv = WeightedPoly.var(V, W, "D")
    _, _, alpha, beta, rho = _local_data(n1, n2)
    b = weierstrass_laurent_symbolic(n1 + n2 + 2, vars=V, weights=W)

    def rhs(j, c):
        return _m0_terms(j, c, rho[0], alpha, beta, b,
                         lambda x: Bv * x, lambda x: D0v * x, lambda x: Dv * x)

    P1, P2, P3 = _frobenius(
        n1, n2, rhs,
        np.array([WeightedPoly.zero(V, W)], object),
        np.array([WeightedPoly.const(V, W, 1)], object),
    )
    return M0System(n1=n1, n2=n2, P1=P1[0], P2=P2[0], P3=P3[0],
                    bound=bezout_bound([(n1, n2)]))


# ---------------------------------------------------------------------------
# even sector


@dataclass(frozen=True)
class EvenPoly:
    """Monic weight-homogeneous polynomial of the even sector.

    Degree Ne in B; homogeneous of weight Ne under B:1, g2:2, g3:3."""

    n1: int
    n2: int
    Ne: int
    poly: WeightedPoly

    def coeffs_at(self, g2, g3):
        """[c_0, ..., c_Ne] with c_k the coefficient of B^k at (g2, g3)."""
        asg = {"B": 0.0, "g2": complex(g2), "g3": complex(g3)}
        return [self.poly.coefficient("B", k).eval(asg) for k in range(self.Ne + 1)]


def _weights(n1, n2):
    """Weights of (P1, P2, P3) under B:2, D0:1, D:3, g2:4, g3:6.  z -> -z,
    which maps (B, D0, D) to (B, -D0, -D), multiplies P_i by (-1)^w_i."""
    return (n1 + 1, n2 + 1, n1 + n2 + 2)


def even_count_Ne(n1, n2):
    """Size of the even sector: the degree of the even polynomial, half the
    one even weight.  In the even sector D0 = D = 0 only the P_i of even
    weight survive; where all three are even (both multiplicities odd) the
    sector is empty.

    Refuses both-odd pairs (empty even sector) and critical pairs."""
    n1, n2 = _multiplicities(n1, n2)
    even = [w for w in _weights(n1, n2) if w % 2 == 0]
    # the empty-sector refusal outranks the critical one: a request for the
    # even sector of an odd/odd pair is answered by nonexistence either way
    if len(even) != 1:
        raise EvenNonexistenceError(
            "both multiplicities are odd, so the even sector is empty"
        )
    _require_noncritical(n1, n2)
    return even[0] // 2


def build_even_poly(n1, n2):
    """Generate the even-sector polynomial exactly.

    In the even sector (D0 = D = 0) solutions descend through x = P(z) and
    the Frobenius recursion in 1/x closes after Ne steps; the obstruction
    there, scaled monic in B, is the returned polynomial in Q[B, g2, g3].
    """
    Ne = even_count_Ne(n1, n2)
    n1, n2 = int(n1), int(n2)
    _, _, _, _, rho = _local_data(n1, n2)
    # the even series starts at rho[1] when the even weight is P2's
    s = rho[1 if _weights(n1, n2)[1] == 2 * Ne else 0] / 2

    V, W = EVEN_VARS, EVEN_WEIGHTS
    one = WeightedPoly.const(V, W, 1)
    Bv = WeightedPoly.var(V, W, "B")
    g2v = WeightedPoly.var(V, W, "g2")
    g3v = WeightedPoly.var(V, W, "g3")

    def phi(j):
        val = Fraction(-4)
        for i in range(3):
            val *= j + s - rho[i] / 2
        return val

    def rhs(j, c):
        a = -j - s
        out = (Bv * c[j - 1]).scale(a + 1)
        if j >= 2:
            out = out + (g2v * c[j - 2]).scale((a + 2) * (a + Fraction(3, 2)) * (a + 1))
        if j >= 3:
            out = out + (g3v * c[j - 3]).scale((a + 3) * (a + 2) * (a + 1))
        return out

    c = {0: one}
    for j in range(1, Ne):
        f = phi(j)
        if f == 0:
            raise StructuralError("unexpected internal resonance at step %d" % j)
        c[j] = rhs(j, c).scale(1 / f)
    P = rhs(Ne, c)
    lead = P.coefficient("B", Ne)
    lead_terms = list(lead.terms.values())
    if len(lead_terms) != 1:
        raise StructuralError("even obstruction is not monic-able in B")
    P = P.scale(1 / lead_terms[0])
    return EvenPoly(n1=n1, n2=n2, Ne=Ne, poly=P)


# ---------------------------------------------------------------------------
# counting


def bezout_bound(pairs):
    """Weighted-Bezout root count bound of a list of (n1, n2) pairs, one per
    puncture.  Requires non-negative integer multiplicities and noncritical
    totals; the result is then an exact integer.
    """
    pairs = [_multiplicities(a, b) for a, b in pairs]
    if not pairs:
        raise StructuralError("need at least one puncture")
    _require_noncritical(sum(a for a, _ in pairs), sum(b for _, b in pairs))
    m = len(pairs) - 1
    val = Fraction(1, 3 * 2 ** (m + 1))
    for a, b in pairs:
        val *= (a + 1) * (b + 1) * (a + b + 2)
    if val.denominator != 1:
        raise StructuralError("count bound is not an integer; inconsistent data")
    return int(val)


# ---------------------------------------------------------------------------
# batched numeric m = 0 residual (the solver kernel)


@lru_cache(maxsize=None)
def _m0_scalars(n1, n2):
    """(rho_0, alpha, beta) as floats, once per pair: _local_data works in
    exact fractions, which would cost more than a small kernel call."""
    _, _, alpha, beta, rho = _local_data(n1, n2)
    return float(rho[0]), float(alpha), float(beta)


def _times_var(x, row):
    """Multiply a jet by the variable x whose partial derivative is jet row
    `row`.  A jet is an array (rows, ..., S) holding the value, then the
    partials; with row None it is a plain value (..., S) without partials."""
    if row is None:
        return lambda c: c * x

    def mul(c):
        out = c * x
        out[row] += c[0]
        return out
    return mul


def _jet_mul(a, b):
    """Product of the jets a (rows, S) and b, by the Leibniz rule on the
    partials; b may carry both Frobenius passes, (rows, 2, S)."""
    if b.ndim > a.ndim:
        a = a[:, None]
    out = a[0] * b
    out[1:] += b[0] * a[1:]
    return out


def _unit_jet(rows, S):
    a = np.zeros((rows, S), complex)
    a[0] = 1.0
    return a


def _m0_jets(n1, n2, bnum, B, D0, D, one):
    """(P1, P2, P3) of the m = 0 recursion over jets shaped like `one`: a
    plain (S,) value, or a (4, S) jet with the partials in B, D0, D.  bnum
    is one Laurent table (L,) or a column per point (L, S)."""
    rho, alpha, beta = _m0_scalars(n1, n2)
    rows = (None,) * 3 if one.ndim == 1 else (1, 2, 3)
    mulB, mulD0, mulD = (_times_var(x, r) for x, r in zip((B, D0, D), rows))

    def rhs(j, c):
        return _m0_terms(j, c, rho, alpha, beta, bnum, mulB, mulD0, mulD)

    return _frobenius(n1, n2, rhs, np.zeros_like(one), one)


def m0_value_batch(n1, n2, bnum, B, D0, D):
    """Residual values (S, 3) of the m = 0 system at batched parameters.

    The value row of `m0_residual_batch`, computed the same way bit for bit;
    bnum is taken as there."""
    # plain (S,) values, not one-row jets: NumPy multiplies (1, 1) arrays on
    # another path than (4, 1) ones, which rounds differently at S = 1
    P = _m0_jets(n1, n2, bnum, B, D0, D, np.ones(B.shape[0], complex))
    return np.stack(P, axis=-1)


def m0_residual_batch(n1, n2, bnum, B, D0, D):
    """Residuals and exact Jacobians of the m = 0 system, batched.

    Returns (F, J) with F of shape (S, 3) ordered (P1, P2, P3) and J of
    shape (S, 3, 3) with columns ordered (B, D0, D).  Forward-mode jets:
    each Frobenius coefficient is carried as a (4, S) array holding the
    value and the three partials.

    bnum is the Laurent table of the lattice, (L,) for every point, or
    (L, S) with column s the table of point s, so that one call serves the
    points of several lattices; each point's row is bit for bit that of a
    call on its own table.
    """
    P = _m0_jets(n1, n2, bnum, B, D0, D, _unit_jet(4, B.shape[0]))
    F = np.stack([p[0] for p in P], axis=-1)
    J = np.stack([p[1:].T for p in P], axis=1)
    return F, J


# ---------------------------------------------------------------------------
# general multi-puncture residual with exact derivatives


def residual_general(problem, ctx, params, with_jacobian=False):
    """Residual vector of the full apparency system at given parameters.

    The vector has length 3m+5: (sum B_k, sum A_k, then P_{k,1}, P_{k,2},
    P_{k,3} for each puncture k).  Derivatives with respect to the parameter
    vector (A_0..A_m, B_0..B_m, B, D_0..D_m, D) are propagated exactly
    through the recursion (forward mode) when with_jacobian is set.

    Parameters may be a ParamVec or a plain vector in the above order.
    """
    problem.require_noncritical()
    params = _param_vec(problem, params)
    if abs(ctx.tau - problem.lattice.tau) > 1e-12:
        raise StructuralError("context and problem use different lattices")
    mp1 = len(problem.punctures)
    n = 3 * mp1 + 2

    # the recursion of a puncture reads b_j for j <= its n1 + n2 + 2
    bmax = max(pk.n1 + pk.n2 + 2 for pk in problem.punctures)
    bnum = ctx.laurent(bmax)

    # jets with S = 1: row 0 the value, row 1 + i the partial in x_i
    X = np.zeros((n, n + 1, 1), complex)
    X[:, 0, 0] = params.to_vector()
    X[np.arange(n), np.arange(1, n + 1), 0] = 1.0
    A, Bk, Dk = X[:mp1], X[mp1 : 2 * mp1], X[2 * mp1 + 1 : 3 * mp1 + 1]
    one = _unit_jet(n + 1, 1)
    zero = np.zeros_like(one)
    mulB = _times_var(params.B, 2 * mp1 + 1)
    mulD = _times_var(params.D, 3 * mp1 + 2)

    F = [Bk.sum(axis=0), A.sum(axis=0)]
    for k, pk in enumerate(problem.punctures):
        rho, alpha, beta = float(pk.rho[0]), float(pk.alpha), float(pk.beta)
        jtop = pk.n1 + pk.n2 + 2
        mulA = _times_var(params.A[k], 1 + k)
        mulBk = _times_var(params.Bk[k], 1 + mp1 + k)
        mulDk = _times_var(params.Dk[k], 2 + 2 * mp1 + k)

        # neighbour terms, with P^(i) the i-th derivative of P at p_k - p_l:
        #   S1 = sum_l alpha_l P + B_l zeta,  S2a = sum_l alpha_l P' - B_l P,
        #   S2b = sum_l beta_l P' + D_l P + A_l zeta,
        #   tail3[i] = sum_l beta_l P^(i+1) + D_l P^(i) - A_l P^(i-1),
        #   tail4[i] = sum_l alpha_l P^(i) - B_l P^(i-1)
        S1 = S2a = S2b = zero
        tail3 = [zero] * jtop
        tail4 = [zero] * jtop
        for l in range(mp1):
            if l == k:
                continue
            pl = problem.punctures[l]
            al, bl = float(pl.alpha), float(pl.beta)
            w, z = ctx.jet(pk.p - pl.p, jtop)
            S1 = S1 + al * w[0] * one + z * Bk[l]
            S2a = S2a + al * w[1] * one - w[0] * Bk[l]
            S2b = S2b + bl * w[1] * one + w[0] * Dk[l] + z * A[l]
            for i in range(1, jtop - 1):
                tail3[i] = tail3[i] + bl * w[i + 1] * one + w[i] * Dk[l] - w[i - 1] * A[l]
                tail4[i] = tail4[i] + al * w[i] * one - w[i - 1] * Bk[l]

        def rhs(j, c):
            # the single-puncture terms with D0 = D_k, then the A_k, B_k and
            # neighbour terms on top
            r = _m0_terms(j, c, rho, alpha, beta, bnum, mulB, mulDk, mulD)
            r = r + (j + rho - 1) * mulBk(c[j - 1])
            if j >= 2:
                r = r + (j + rho - 2) * _jet_mul(S1, c[j - 2]) - mulA(c[j - 2])
            if j >= 3:
                r = r + (j + rho - 3) * _jet_mul(S2a, c[j - 3]) - _jet_mul(S2b, c[j - 3])
            for i in range(4, j, 2):
                r = r - bnum[i] * (j + rho - i - 1) / (i - 1) * mulBk(c[j - 1 - i])
                if i < j - 1:
                    r = r + bnum[i] / (i - 1) * mulA(c[j - 2 - i])
            for i in range(1, j - 2):
                r = r - _jet_mul(tail3[i], c[j - 3 - i]) / math.factorial(i)
            for i in range(2, j - 1):
                r = r + (j + rho - i - 2) / math.factorial(i) * _jet_mul(tail4[i], c[j - 2 - i])
            return r

        F.extend(_frobenius(pk.n1, pk.n2, rhs, zero, one))

    vals = np.array([f[0, 0] for f in F])
    if not with_jacobian:
        return vals
    return vals, np.array([f[1:, 0] for f in F])
