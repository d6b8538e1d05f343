"""Exact weighted multivariate polynomials over the rationals.

The apparency generators emit polynomials in a handful of named variables,
each of which carries an integer weight (a quasi-homogeneous grading).  This
module holds them exactly: coefficients are `fractions.Fraction`, exponent
vectors are tuples keyed in a dict, and nothing here ever touches floating
point except `WeightedPoly.eval` fed floats and `weierstrass_laurent` fed
numeric invariants.

Two polynomials interoperate only when they share the same (vars, weights)
table; mixing tables raises StructuralError rather than guessing an
embedding.
"""

from fractions import Fraction

from .errors import StructuralError

__all__ = [
    "WeightedPoly",
    "weierstrass_laurent",
    "weierstrass_laurent_symbolic",
]


def _as_fraction(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise StructuralError("coefficients must be exact rationals, got %r" % (c,))


class WeightedPoly:
    """A polynomial in named variables with integer weights.

    terms maps exponent tuples to nonzero Fraction coefficients.  The zero
    polynomial has an empty term dict.
    """

    __slots__ = ("vars", "weights", "terms")

    def __init__(self, vars, weights, terms=None):
        vars = tuple(vars)
        weights = tuple(int(w) for w in weights)
        if len(vars) != len(weights):
            raise StructuralError("variable/weight tables differ in length")
        if len(set(vars)) != len(vars):
            raise StructuralError("duplicate variable names")
        self.vars = vars
        self.weights = weights
        clean = {}
        if terms:
            for exp, c in terms.items():
                exp = tuple(int(e) for e in exp)
                if len(exp) != len(vars):
                    raise StructuralError("exponent tuple has wrong arity")
                if any(e < 0 for e in exp):
                    raise StructuralError("negative exponent")
                c = _as_fraction(c)
                if c != 0:
                    clean[exp] = clean.get(exp, Fraction(0)) + c
                    if clean[exp] == 0:
                        del clean[exp]
        self.terms = clean

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, vars, weights):
        return cls(vars, weights)

    @classmethod
    def const(cls, vars, weights, c):
        c = _as_fraction(c)
        if c == 0:
            return cls(vars, weights)
        return cls(vars, weights, {(0,) * len(tuple(vars)): c})

    @classmethod
    def var(cls, vars, weights, name):
        vars = tuple(vars)
        if name not in vars:
            raise StructuralError("unknown variable %r" % (name,))
        exp = tuple(1 if v == name else 0 for v in vars)
        return cls(vars, weights, {exp: Fraction(1)})

    # ---- structure ----------------------------------------------------

    def _check_compatible(self, other):
        if self.vars != other.vars or self.weights != other.weights:
            raise StructuralError("polynomials live in different rings")

    def is_zero(self):
        return not self.terms

    def term_weight(self, exp):
        return sum(e * w for e, w in zip(exp, self.weights))

    def weight_set(self):
        return sorted({self.term_weight(e) for e in self.terms})

    def is_homogeneous(self, weight=None):
        ws = self.weight_set()
        if not ws:
            return True
        if len(ws) > 1:
            return False
        return weight is None or ws[0] == weight

    def degree_in(self, name):
        i = self.vars.index(name)
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def coefficient(self, name, power):
        """The coefficient of name**power, as a polynomial with that
        variable's exponent zeroed out (same ring)."""
        i = self.vars.index(name)
        out = {}
        for exp, c in self.terms.items():
            if exp[i] == power:
                key = exp[:i] + (0,) + exp[i + 1:]
                out[key] = out.get(key, Fraction(0)) + c
        return WeightedPoly(self.vars, self.weights, out)

    def substitute_zero(self, name):
        """Set a variable to zero (drop every term containing it)."""
        i = self.vars.index(name)
        out = {e: c for e, c in self.terms.items() if e[i] == 0}
        return WeightedPoly(self.vars, self.weights, out)

    # ---- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = WeightedPoly.const(self.vars, self.weights, other)
        self._check_compatible(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            out[exp] = out.get(exp, Fraction(0)) + c
            if out[exp] == 0:
                del out[exp]
        return WeightedPoly(self.vars, self.weights, out)

    __radd__ = __add__

    def __neg__(self):
        return WeightedPoly(
            self.vars, self.weights, {e: -c for e, c in self.terms.items()}
        )

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = WeightedPoly.const(self.vars, self.weights, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, WeightedPoly):
            # an array of polynomials then multiplies elementwise
            return NotImplemented
        self._check_compatible(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, Fraction(0)) + c1 * c2
                if out[key] == 0:
                    del out[key]
        return WeightedPoly(self.vars, self.weights, out)

    __rmul__ = __mul__

    def scale(self, c):
        c = _as_fraction(c)
        if c == 0:
            return WeightedPoly(self.vars, self.weights)
        return WeightedPoly(
            self.vars, self.weights, {e: c * k for e, k in self.terms.items()}
        )

    def __truediv__(self, c):
        return self.scale(1 / _as_fraction(c))

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            raise StructuralError("negative power")
        out = WeightedPoly.const(self.vars, self.weights, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = WeightedPoly.const(self.vars, self.weights, other)
        if not isinstance(other, WeightedPoly):
            return NotImplemented
        return (
            self.vars == other.vars
            and self.weights == other.weights
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.vars, self.weights, frozenset(self.terms.items())))

    # ---- evaluation ---------------------------------------------------

    def eval(self, assignment):
        """Evaluate at a dict {var: number}.  Exact when fed Fractions,
        complex/float otherwise.  Powers are built up incrementally per
        variable so each monomial costs O(total degree) multiplies."""
        vals = []
        for v in self.vars:
            if v not in assignment:
                raise StructuralError("missing value for %r" % (v,))
            vals.append(assignment[v])
        maxdeg = [0] * len(self.vars)
        for exp in self.terms:
            for i, e in enumerate(exp):
                if e > maxdeg[i]:
                    maxdeg[i] = e
        pows = []
        for x, d in zip(vals, maxdeg):
            row = [1]
            for _ in range(d):
                row.append(row[-1] * x)
            pows.append(row)
        total = 0
        for exp in self._sorted_exps():
            c = self.terms[exp]
            mono = Fraction(c.numerator, c.denominator) if isinstance(c, Fraction) else c
            for i, e in enumerate(exp):
                if e:
                    mono = mono * pows[i][e]
            total = total + mono
        return total

    # ---- canonical rendering -------------------------------------------

    def _sorted_exps(self):
        # graded lexicographic, highest grade first, then lex descending
        return sorted(self.terms, key=lambda e: (-sum(e), tuple(-x for x in e)))

    def text(self):
        """Canonical human-readable form, graded-lex term order."""
        if not self.terms:
            return "0"
        chunks = []
        for exp in self._sorted_exps():
            c = self.terms[exp]
            factors = []
            for v, e in zip(self.vars, exp):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append("%s^%d" % (v, e))
            if not factors:
                body = str(abs(c))
            else:
                body = "*".join(factors)
                if abs(c) != 1:
                    body = "%s*%s" % (abs(c), body)
            sign = "-" if c < 0 else "+"
            chunks.append((sign, body))
        first_sign, first_body = chunks[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in chunks[1:]:
            out += " %s %s" % (sign, body)
        return out

    def __repr__(self):
        return "WeightedPoly(%s)" % self.text()

    def to_json_dict(self):
        return {
            "vars": list(self.vars),
            "weights": list(self.weights),
            "terms": [
                {
                    "exp": list(exp),
                    "num": self.terms[exp].numerator,
                    "den": self.terms[exp].denominator,
                }
                for exp in self._sorted_exps()
            ],
        }

    @classmethod
    def from_json_dict(cls, d):
        terms = {
            tuple(t["exp"]): Fraction(t["num"], t["den"]) for t in d["terms"]
        }
        return cls(d["vars"], d["weights"], terms)


def weierstrass_laurent(g2, g3, order, zero, one):
    """Laurent-tail coefficients of the standard elliptic ℘ function.

    Returns the list (b_0, ..., b_order) with ℘(z) = z^{-2} + Σ_{j>=4} b_j
    z^{j-2}; b_0 = one, b_2 = zero, odd entries zero, b_4 = g2/20, b_6 =
    g3/28, and higher entries from the quadratic recurrence implied by the
    differential equation ℘'' = 6℘² − g2/2.  The invariants may be exact
    polynomials or numbers: the recurrence uses only +, *, and division by
    an integer.
    """
    # c[k] is the coefficient of z^{2k-2}, k >= 2
    c = {2: g2 / 20, 3: g3 / 28}
    for k in range(4, order // 2 + 1):
        acc = zero
        for mm in range(2, k - 1):
            acc = acc + c[mm] * c[k - mm]
        # (3 acc) / d in this order: the numeric table's rounding depends on it
        c[k] = 3 * acc / ((2 * k + 1) * (k - 3))
    b = [zero] * (order + 1)
    b[0] = one
    for j in range(4, order + 1, 2):
        b[j] = c[j // 2]
    return b


def weierstrass_laurent_symbolic(order, vars=("g2", "g3"), weights=(4, 6)):
    """The ℘ Laurent table (see `weierstrass_laurent`) as a tuple of exact
    polynomials in the lattice invariants.

    The variable table must contain "g2" and "g3"; any extra variables simply
    ride along with exponent zero (useful for embedding into a larger ring).
    """
    vars = tuple(vars)
    if "g2" not in vars or "g3" not in vars:
        raise StructuralError("variable table must contain g2 and g3")
    return tuple(weierstrass_laurent(
        WeightedPoly.var(vars, weights, "g2"),
        WeightedPoly.var(vars, weights, "g3"),
        order,
        WeightedPoly.zero(vars, weights),
        WeightedPoly.const(vars, weights, 1),
    ))
