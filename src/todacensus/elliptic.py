"""Weierstrass functions and lattice invariants on the torus C/(Z + Z*tau).

Everything is keyed off the normalized period pair (1, tau), Im tau > 0.
Invariants come from Eisenstein q-expansions,

    g2 = (4 pi^4 / 3) E4(q),   g3 = (8 pi^6 / 27) E6(q),   q = e^{2 pi i tau},

with tau-derivatives from the Ramanujan identities (one map, doubles or
mpmath).  Point evaluation is one evaluator, EllipticContext.jet, with
wp, zeta, wp_bundle and wp_derivs as views: one lattice reduction and
near-pole guard, then one pass of one regime gives P, P', ..., P^(n) and
zeta together.  The regimes are a q-series in u = e^{2 pi i z}
away from lattice points, and the Laurent expansion at the origin once the
reduced argument is within 35% of the shortest lattice vector.  Each regime
sums all orders at once, by products of coefficient tables cached on the
context (the Laurent rows; the q-series weights and rational-part
numerators) with the powers of z^2 or of u.  The switch matters: near a
pole the q-series computes the double pole through the cancellation
1-u -> 0 and loses relative accuracy like eps/|2 pi z|, while the Laurent
tail is perfectly conditioned there.

Invariant forms (g2, g3 and the two weight-12 combinations a g2^3 + b g3^2
used by the census) are one table of weights and coefficients.  The
Eisenstein series, the forms and the zero finder's damped Newton each run in
doubles or, given the mpmath module, in its working precision.  The zero
finder runs Newton in doubles first and then polishes in 40 digits, because a
double-rounded tau already shifts a weight-12 form by ~1e-7; callers that
need |form| <= 1e-10 get an mpmath complex back.  A stage that does not
converge raises EvaluationError.
"""

from dataclasses import dataclass, field
from functools import cached_property
import cmath
import math

import numpy as np

from .errors import EvaluationError, NearPoleError, StructuralError
from .polyring import weierstrass_laurent, weierstrass_laurent_symbolic

__all__ = [
    "LatticeTau",
    "EllipticContext",
    "compute_invariants",
    "find_form_zero",
    "form_value",
    "lattice_distance",
    "reduce_fundamental",
    "FORM_NAMES",
]

_TWO_PI_I = 2j * math.pi
_CTX_TOL = 1e-12  # identity-check target of a context, written to its JSON
_NEAR_POLE = math.sqrt(_CTX_TOL)  # jet refuses points this close to a lattice point
_B_ORDER = 28  # highest index of a context's exported Laurent table
_LAURENT_ORDER = 46  # highest index of the numeric table evaluation uses


def _numerators(n):
    """Rows N_0..N_n, ascending coefficients, of an (n+1, n+2) matrix: the
    numerators of the rational parts N_k(u)/(1-u)^{k+2} of the k-th
    derivative of P in the variable u.  N_0 = u and
    N_{k+1} = u ((k+2) N_k + (1-u) N_k')."""
    N = np.zeros((n + 1, n + 2))
    N[0, 1] = 1.0
    for k in range(n):
        c = N[k, : k + 2]
        dN = c[1:] * np.arange(1, k + 2)
        a = np.zeros(k + 2)
        a[: k + 1] += dN
        a[1:] -= dN
        a += (k + 2) * c
        N[k + 1, 1 : k + 3] = a
    return N


def _powers(x, n):
    """[1, x, x^2, ..., x^(n-1)] by repeated multiplication."""
    p = np.full(n, x, dtype=complex)
    p[0] = 1.0
    return np.multiply.accumulate(p, out=p)


@dataclass(frozen=True)
class LatticeTau:
    """Normalized lattice Z + Z*tau with Im tau > 0."""

    tau: complex

    def __post_init__(self):
        t = complex(self.tau)
        if not cmath.isfinite(t):
            raise StructuralError("lattice parameter must be finite")
        if not (t.imag > 0):
            raise StructuralError("lattice parameter must have positive imaginary part")
        object.__setattr__(self, "tau", t)


@dataclass
class EllipticContext:
    """Data for one lattice: the invariants, precomputed; the half-period
    values e on demand; on first read the shortest lattice vector lam_min
    and the numeric Laurent table, built to the order its readers ask for
    (laurent); Laurent and q-series workspace.  Its accuracy target
    _CTX_TOL and the highest index _B_ORDER of its exported Laurent table
    are module constants, written to its JSON."""

    tau: complex
    g2: complex
    g3: complex
    eta1: complex
    eta2: complex
    _bn: np.ndarray = field(repr=False, default=None)
    _marr: np.ndarray = field(repr=False, default=None)
    _qw: np.ndarray = field(repr=False, default=None)
    _mterms: dict = field(repr=False, default_factory=dict)
    _laurent_tab: np.ndarray = field(repr=False, default=None)
    _numer: np.ndarray = field(repr=False, default=None)

    @property
    def e(self):
        """The half-period values (P(1/2), P(tau/2), P((1 + tau)/2))."""
        return self.wp(0.5), self.wp(self.tau / 2.0), self.wp((1.0 + self.tau) / 2.0)

    @cached_property
    def lam_min(self):
        """Length of the shortest of the vectors m + n tau, |m|, |n| <= 6."""
        # np.hypot, not np.abs, which rounds some complex moduli differently
        # from abs()
        k = np.arange(-6.0, 7.0)
        vec = (k[:, None] + k[None, :] * self.tau).ravel()
        vec = vec[vec != 0]
        return float(np.hypot(vec.real, vec.imag).min())

    def laurent(self, order):
        """The numeric Laurent table (b_0, ..., b_order) of P, see
        weierstrass_laurent.  Built on the first read and rebuilt when a
        reader asks for a higher order; the recurrence gives each entry from
        the lower ones alone, so every reader gets the same bits whatever
        the order read before.  The census kernels read b_j for
        j <= n1 + n2 + 2, evaluation reads _LAURENT_ORDER."""
        if self._bn is None or len(self._bn) <= order:
            # g2, g3 as the doubles compute_invariants got them
            self._bn = np.array(weierstrass_laurent(np.complex128(self.g2),
                                                    np.complex128(self.g3), order, 0j, 1.0),
                                dtype=complex)
        return self._bn[: order + 1]

    @property
    def _bn_ext(self):
        """The Laurent table to _LAURENT_ORDER, the one evaluation reads."""
        return self.laurent(_LAURENT_ORDER)

    # -- lattice reduction -------------------------------------------------

    def reduce_point(self, z):
        """Write z = z_red + m + n*tau with the lattice coordinates of z_red
        in [-1/2, 1/2).  Returns (z_red, m, n)."""
        z = complex(z)
        t = self.tau
        b = z.imag / t.imag
        a = z.real - b * t.real
        m = math.floor(a + 0.5)
        n = math.floor(b + 0.5)
        return z - m - n * t, m, n

    # -- q-series workspace --------------------------------------------------

    def _terms_for(self, n):
        """Number of q-series terms so the m^{n+1}-weighted tail is < 1e-19."""
        if n in self._mterms:
            return self._mterms[n]
        d = math.pi * self.tau.imag
        M = max(8, int(math.ceil(44.0 / d)))
        while M < 4000 and (n + 1) * math.log(M) - d * M > -44.0:
            M = int(M * 1.4) + 4
        if M >= 4000:
            raise EvaluationError("q-series does not converge fast enough at this tau")
        if self._marr is None or len(self._marr) < M:
            q = cmath.exp(_TWO_PI_I * self.tau)
            # float exponents: m^{n+1} for n ~ 12 overflows int64
            marr = np.arange(1, M + 1, dtype=float)
            qm = q ** marr
            self._qw = (qm / (1.0 - qm))[None, :]  # row 0: alpha_m
            self._marr = marr
        self._mterms[n] = M
        return M

    # -- evaluation ----------------------------------------------------------

    def jet(self, z, n):
        """([P, P', ..., P^(n)], zeta) at z.

        One lattice reduction, one near-pole guard, one regime pass and one
        eta shift of zeta."""
        zr, m, k = self.reduce_point(z)
        r = abs(zr)
        if r <= _NEAR_POLE:
            raise NearPoleError("argument within %.3g of a lattice point" % r)
        if r <= 0.35 * self.lam_min:
            ps, zt = self._laurent(zr, n)
        else:
            ps, zt = self._qseries(zr, n)
        return ps, zt + m * self.eta1 + k * self.eta2

    def wp(self, z, n=0):
        """n-th derivative of P at z (n = 0 is P itself)."""
        return self.jet(z, n)[0][n]

    def zeta(self, z):
        """Weierstrass zeta at z (quasi-periodic: corrected by eta shifts)."""
        return self.jet(z, 0)[1]

    def wp_bundle(self, z):
        """(P, P', zeta) at z from one evaluation."""
        (p, p1), zt = self.jet(z, 1)
        return p, p1, zt

    def wp_derivs(self, z, nmax):
        """Array [P(z), P'(z), ..., P^{(nmax)}(z)]."""
        return self.jet(z, nmax)[0]

    # -- regime implementations ----------------------------------------------

    def _laurent(self, zr, n):
        """Orders 0..n of P and zeta at a reduced point near the origin.

        z^{k+2} P^(k)(z) and z zeta(z) are even series in w = z^2 with
        coefficients from the table b: P^(k) has b_j (j-2)(j-3)...(j-1-k),
        zeta has 1 and -b_j / (j-1).  Their rows form one table, cached on
        the context and grown when a higher order is asked for, and one
        product with the powers of w sums every order at once."""
        if self._laurent_tab is None or len(self._laurent_tab) < n + 2:
            b = self._bn_ext[::2]
            i = np.arange(1, len(b))
            tab = np.empty((n + 2, len(b)), complex)  # row 0 zeta, row k + 1 P^(k)
            tab[0, 0] = 1.0
            tab[0, 1:] = -b[1:] / (2 * i - 1)
            for k in range(n + 1):
                tab[k + 1, 0] = (-1) ** k * math.factorial(k + 1)
                tab[k + 1, 1:] = b[1:] * np.array([math.perm(2 * j - 2, k) for j in i], float)
            self._laurent_tab = tab
        out = self._laurent_tab[: n + 2] @ _powers(zr * zr, self._laurent_tab.shape[1])
        out *= _powers(1.0 / zr, n + 3)[1:]
        return out[1:], out[0]

    def _qseries(self, zr, n):
        """Orders 0..n of P and zeta as q-series in u = e^{2 pi i z}.

        u^m and u^-m are formed once; the tail of P^(k) is
        sum_m m^{k+1} alpha_m (u^m + (-1)^k u^-m), and zeta's is the k = -1
        row with the odd sign, so one product with the weight rows gives
        every tail at once.  The rational parts N_k(u)/(1-u)^{k+2} of the
        orders k >= 1 come from one product of the numerator matrix, cached
        on the context, with the powers of u."""
        M = self._terms_for(n)
        if len(self._qw) < n + 2:  # rows m^k alpha_m, k = 0..n+1
            self._qw = self._marr ** np.arange(n + 2)[:, None] * self._qw[0]
        u = cmath.exp(_TWO_PI_I * zr)
        up = u ** self._marr[:M]
        un = (1.0 / u) ** self._marr[:M]
        even, odd = up + un, up - un
        W = self._qw[: n + 2, :M]
        tails = W @ np.stack([even, odd], axis=1)
        # P itself keeps its own sum with the constant -2 folded in: it
        # fixes the half-period values e, which `invariants` prints
        s = np.sum(W[1] * (even - 2.0))
        out = np.empty(n + 1, complex)
        out[0] = _TWO_PI_I ** 2 * (1.0 / 12.0 + u / (1.0 - u) ** 2 + s)
        if n:
            if self._numer is None or len(self._numer) < n + 1:
                self._numer = _numerators(n)
            rat = self._numer[1 : n + 1, : n + 2] @ _powers(u, n + 2)
            rat *= _powers(1.0 / (1.0 - u), n + 3)[3:]
            k = np.arange(1, n + 1)
            out[1:] = _powers(_TWO_PI_I, n + 3)[3:] * (rat + tails[k + 1, k % 2])
        zt = (
            self.eta1 * zr
            + 1j * math.pi * (1.0 + u) / (u - 1.0)
            - _TWO_PI_I * tails[0, 1]
        )
        return out, zt

    def to_json_dict(self):
        return {
            "tau": [self.tau.real, self.tau.imag],
            "g2": [self.g2.real, self.g2.imag],
            "g3": [self.g3.real, self.g3.imag],
            "e": [[ek.real, ek.imag] for ek in self.e],
            "eta1": [self.eta1.real, self.eta1.imag],
            "order": _B_ORDER,
            "tol": _CTX_TOL,
            "b": [p.to_json_dict() for p in weierstrass_laurent_symbolic(_B_ORDER)],
        }


def _eisenstein(tau, mp=None):
    """E2, E4, E6 at q = e^{2 pi i tau}: in doubles, or with mp (the mpmath
    module) in its working precision.  Both sum the same M terms; doubles
    take M = max(8, ceil(-46 / ln|q|)), mpmath the smallest M with
    M^6 |q|^M < 10^-(dps+8)."""
    q = cmath.exp(_TWO_PI_I * tau) if mp is None else mp.exp(2j * mp.pi * tau)
    if abs(q) >= 0.995:
        raise EvaluationError("tau too close to the real axis")
    if mp is None:
        M = max(8, int(math.ceil(-46.0 / math.log(abs(q)))))
        m = np.arange(1, M + 1, dtype=float)
    else:
        lq, lim = float(mp.log(abs(q))), -(mp.mp.dps + 8) * math.log(10.0)
        M = next((k for k in range(1, 4001) if 6.0 * math.log(k) + k * lq < lim), 4001)
        m = np.arange(1, M + 1, dtype=object)
    if M > 4000:
        raise EvaluationError("Eisenstein series needs too many terms")
    qm = q ** m
    am = qm / (1.0 - qm)
    S1 = np.sum(m * am)
    S3 = np.sum(m ** 3 * am)
    S5 = np.sum(m ** 5 * am)
    return 1.0 - 24.0 * S1, 1.0 + 240.0 * S3, 1.0 - 504.0 * S5


def _g_invariants(E2, E4, E6, pi):
    """g2, g3 and their tau-derivatives (Ramanujan identities) from E2, E4,
    E6; the same arithmetic in double precision (pi = math.pi) and in mpmath
    (pi = mpmath.pi)."""
    g2 = (4.0 * pi ** 4 / 3.0) * E4
    g3 = (8.0 * pi ** 6 / 27.0) * E6
    dE4 = 2j * pi * (E2 * E4 - E6) / 3.0
    dE6 = 2j * pi * (E2 * E6 - E4 ** 2) / 2.0
    dg2 = (4.0 * pi ** 4 / 3.0) * dE4
    dg3 = (8.0 * pi ** 6 / 27.0) * dE6
    return g2, g3, dg2, dg3


def compute_invariants(lattice):
    """Build the elliptic context for a lattice (a LatticeTau or tau).

    Computes the invariants only: the context builds its numeric Laurent
    table, to the order each reader asks for, and lam_min when they are
    first read.
    """
    if not isinstance(lattice, LatticeTau):
        lattice = LatticeTau(complex(lattice))
    tau = lattice.tau
    E2, E4, E6 = _eisenstein(tau)
    g2, g3, _, _ = _g_invariants(E2, E4, E6, math.pi)
    eta1 = (math.pi ** 2 / 3.0) * E2
    eta2 = eta1 * tau - _TWO_PI_I
    return EllipticContext(
        tau=tau,
        g2=complex(g2),
        g3=complex(g3),
        eta1=complex(eta1),
        eta2=complex(eta2),
    )


# ---- invariant forms and their zeros in tau ------------------------------

# each form is a g2^(w/4) + b g3^(w/6), of weight w
_FORMS = {
    "g2": (4, 1.0, 0.0),
    "g3": (6, 0.0, 1.0),
    "g2^3-27g3^2": (12, 1.0, -27.0),
    "343g2^3-6561g3^2": (12, 343.0, -6561.0),
}
FORM_NAMES = tuple(_FORMS)


def _form_at(form, tau, mp=None):
    """(f, df/dtau, scale) of a named form at tau, in doubles or with mp
    (the mpmath module); scale = 1 + |g2|^(w/4) + |g3|^(w/6)."""
    if form not in _FORMS:
        raise StructuralError(
            "unknown form %r; expected one of %s" % (form, ", ".join(FORM_NAMES))
        )
    w, a, b = _FORMS[form]
    g2, g3, dg2, dg3 = _g_invariants(*_eisenstein(tau, mp), math.pi if mp is None else mp.pi)
    f = fp = 0.0
    for c, g, dg, k in ((a, g2, dg2, w / 4), (b, g3, dg3, w / 6)):
        if c:  # an absent term's k - 1 may be a negative power of a zero g
            f += c * g ** k
            fp += c * k * g ** (k - 1) * dg
    return f, fp, 1.0 + abs(g2) ** (w / 4) + abs(g3) ** (w / 6)


def lattice_distance(d, tau):
    """|d - m - n tau|, with m + n tau the lattice point whose coordinates
    are those of d rounded to integers (round: ties to even)."""
    b = d.imag / tau.imag
    a = d.real - b * tau.real
    return abs(d - round(a) - round(b) * tau)


def reduce_fundamental(tau):
    """Reduce tau into the fundamental domain Re in (-1/2, 1/2], |tau| >= 1.

    Works on complex or mpmath.mpc and preserves the input type."""
    t = tau
    for _ in range(256):
        shift = int(math.ceil(float(t.real) - 0.5))
        t = t - shift
        # the slack stops boundary points (|tau| = 1 up to rounding) from
        # ping-ponging between the two corners forever
        if abs(t) < 1.0 - 1e-12:
            t = -1.0 / t
        else:
            break
    else:
        raise EvaluationError("fundamental-domain reduction did not terminate")
    return t


def form_value(form, tau, dps=None):
    """Value of a named invariant form at tau.

    With dps=None uses double precision; otherwise evaluates with mpmath at
    the given working precision (needed to certify |form| below the double
    rounding floor of weight-12 quantities, which is around 1e-7)."""
    if dps is None:
        return _form_at(form, complex(tau))[0]
    import mpmath
    with mpmath.workdps(dps):
        return _form_at(form, mpmath.mpc(tau), mpmath)[0]


_FORM_ZERO_TOL = 1e-12  # certified |form| at a zero, relative to the form's scale


def _form_newton(form, tau, mp=None):
    """Damped Newton on a named form from tau: in doubles until
    |f| <= 1e-9 scale (80 steps at most), or with mp (the mpmath module) in
    its working precision until |f| <= 1e-30 (60 steps at most).  A step is
    halved, up to ten times, until it keeps Im tau > 0.02 and, after the
    first, lowers |f|.  A stage that runs out of steps raises."""
    for i in range(80 if mp is None else 60):
        f, fp, scale = _form_at(form, tau, mp)
        if abs(f) <= (1e-9 * scale if mp is None else 1e-30):
            return tau
        if fp == 0:
            raise EvaluationError("stationary point in form iteration")
        step = f / fp
        s = 1.0
        for _ in range(10):
            cand = tau - s * step
            if cand.imag > 0.02 and (i == 0 or abs(_form_at(form, cand, mp)[0]) < abs(f)):
                break
            s *= 0.5
        tau = tau - s * step
    raise EvaluationError(
        "%s Newton stalled for %s" % ("double-precision" if mp is None else "mpmath", form)
    )


def find_form_zero(form, seed):
    """Newton zero of a named form in tau, polished in high precision.

    Returns an mpmath.mpc in the standard fundamental domain (it duck-types
    as a Python complex via .real/.imag/complex()).  Failures surface as
    EvaluationError: a Newton stage that does not converge, or a zero whose
    |form| exceeds _FORM_ZERO_TOL times its scale, or whose Newton step
    |f/f'| exceeds _FORM_ZERO_TOL (1 + |tau|).  The step test refuses the
    points high in the upper half plane where a form is only small: the
    discriminant is (2 pi)^12 q + O(q^2) there, so |f/f'| tends to 1/(2 pi)."""
    tau = complex(seed)
    if tau.imag <= 0:
        raise StructuralError("seed must be in the upper half plane")
    tau = _form_newton(form, tau)
    import mpmath
    with mpmath.workdps(40):
        t = reduce_fundamental(_form_newton(form, mpmath.mpc(tau), mpmath))
        f, fp, scale = _form_at(form, t, mpmath)
        if abs(f) > _FORM_ZERO_TOL * min(scale, (1 + abs(t)) * abs(fp)):
            raise EvaluationError(
                "form zero did not certify: |%s| = %.3g, |d/dtau| = %.3g at tau = %s"
                % (form, float(abs(f)), float(abs(fp)), mpmath.nstr(t, 8))
            )
        return +t
