"""Exact truncated formal power series over the rationals.

Nothing in this module touches floating point.  A `Series` knows exactly
``order + 1`` coefficients and all operations are honest about precision:
binary arithmetic truncates to the smaller operand order, and composition
accounts for the valuation of the inner series when deciding how far the
result can be trusted.

A series is stored in one canonical form: a tuple ``num`` of Python integer
numerators over a single positive integer ``den``, with
``gcd(den, *num) == 1``.  Every kernel here (the ring operations, scalar
multiplication and division, `mul`, `div`, `sqrt_series`, `reversion`,
truncation, shifts, `derivative`, `integrate` and
`BivariatePoly.eval_series`) reads ``num``/``den``, runs fraction-free on
integers, and returns through one normalizing constructor that divides out
that gcd once per result.  Equal series therefore have equal ``num`` and
``den``.  The `Fraction` coefficients (``coeffs``) are built only when read,
and then cached.  Every series is in the one coupling g.

`reversion` is Lagrange inversion with baby-step/giant-step powers: it
builds about ``2*sqrt(n)`` truncated products at order n, not one per power,
and reads each coefficient of the inverse off one integer dot product.

The module also provides `AlgebraicSystem`, a bivariate polynomial relation
``P(g, y) = 0`` together with the value of the branch at ``g = 0``, and
`newton_solve`, which expands the selected branch as a series by Newton
iteration with order doubling.  The residual of the returned series is
checked internally before it is handed back; a residual that does not
cancel raises `ArithmeticError`, a failed self-check rather than bad input.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Union

Rational = Union[int, Fraction]

__all__ = [
    "Series",
    "SeriesError",
    "BivariatePoly",
    "AlgebraicSystem",
    "add",
    "mul",
    "div",
    "compose",
    "reversion",
    "sqrt_series",
    "log_series",
    "derivative",
    "integrate",
    "newton_solve",
    "rational_to_str",
]


class SeriesError(ValueError):
    """A series operation was called outside its domain of validity."""


def _frac(value: object) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise SeriesError(
        f"series coefficients must be exact rationals, got {type(value).__name__}"
    )


def _exact(value: object) -> Rational:
    """An int as itself, anything else through `_frac` (which refuses floats)."""
    return value if isinstance(value, int) else _frac(value)


def rational_to_str(value: Fraction) -> str:
    """Render a rational as ``p/q``, or plain ``p`` when the denominator is 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class Series:
    """A formal power series known exactly through ``order = len(num) - 1``.

    Coefficient k is ``num[k] / den``, in the canonical form of the module
    docstring.  The constructor takes the coefficients themselves (ints,
    Fractions or strings such as ``"1/2"``); ``coeffs`` returns them as a
    tuple of Fractions.  Instances are immutable and hash by ``(num, den)``.
    """

    __slots__ = ("num", "den", "_coeffs")
    num: tuple
    den: int

    def __init__(self, coeffs: Iterable[Rational]) -> None:
        values = [_exact(c) for c in coeffs]
        if not values:
            raise SeriesError("a series must carry at least its constant term")
        # over the least common denominator of reduced fractions, no prime
        # divides den and every numerator, so the form is already canonical
        den = math.lcm(*(c.denominator for c in values))
        _init(self, tuple(c.numerator * (den // c.denominator) for c in values), den)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Series:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"Series(coeffs={self.coeffs!r})"

    @property
    def coeffs(self) -> tuple:
        """The coefficients as Fractions, built on first read."""
        try:
            return self._coeffs
        except AttributeError:
            den = self.den
            coeffs = tuple(Fraction(n, den) for n in self.num)
            object.__setattr__(self, "_coeffs", coeffs)
            return coeffs

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[Rational], order: int | None = None) -> "Series":
        """Build a series from leading coefficients, zero-padded to ``order``."""
        cs = [_exact(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise SeriesError("order must be nonnegative")
            if len(cs) > order + 1:
                cs = cs[: order + 1]
            else:
                cs += [0] * (order + 1 - len(cs))
        return cls(cs)

    @classmethod
    def zero(cls, order: int) -> "Series":
        return cls.constant(0, order)

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls.constant(1, order)

    @classmethod
    def constant(cls, value: Rational, order: int) -> "Series":
        if order < 0:
            raise SeriesError("order must be nonnegative")
        c = _exact(value)
        return _series([c.numerator] + [0] * order, c.denominator)

    @classmethod
    def identity(cls, order: int) -> "Series":
        """The series for the coupling g itself."""
        if order < 1:
            raise SeriesError("the identity series needs order >= 1")
        return _series([0, 1] + [0] * (order - 1), 1)

    # -- basic structure ---------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.num) - 1

    def __getitem__(self, k: int) -> Fraction:
        if not 0 <= k <= self.order:
            raise SeriesError(f"coefficient g^{k} is outside the known order {self.order}")
        return self.coeffs[k]

    def __iter__(self):
        return iter(self.coeffs)

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient, or None if all known ones vanish."""
        for k, c in enumerate(self.num):
            if c:
                return k
        return None

    def truncate(self, order: int) -> "Series":
        if order > self.order:
            raise SeriesError(f"cannot extend a series of order {self.order} to {order}")
        return _series(self.num[: order + 1], self.den)

    def is_zero(self) -> bool:
        return not any(self.num)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other: object) -> "Series | None":
        if isinstance(other, Series):
            return other
        if isinstance(other, (int, Fraction)):
            return Series.constant(other, self.order)
        return None

    def __add__(self, other: object) -> "Series":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return add(self, rhs)

    __radd__ = __add__

    def __sub__(self, other: object) -> "Series":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return add(self, -rhs)

    def __rsub__(self, other: object) -> "Series":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return add(rhs, -self)

    def __neg__(self) -> "Series":
        return _series([-n for n in self.num], self.den)

    def __mul__(self, other: object) -> "Series":
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            return _series([p * n for n in self.num], q * self.den)
        if isinstance(other, Series):
            return mul(self, other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "Series":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise SeriesError("division by zero")
            p, q = other.numerator, other.denominator
            return _series([q * n for n in self.num], p * self.den)
        if isinstance(other, Series):
            return div(self, other)
        return NotImplemented

    def __rtruediv__(self, other: object) -> "Series":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return div(rhs, self)

    def __pow__(self, n: int) -> "Series":
        if not isinstance(n, int) or n < 0:
            raise SeriesError("series powers must be nonnegative integers")
        out = Series.one(self.order)
        base = self
        while n:
            if n & 1:
                out = mul(out, base)
            n >>= 1
            if n:
                base = mul(base, base)
        return out

    # -- reshaping ---------------------------------------------------------

    def shift_down(self, k: int) -> "Series":
        """Divide by g^k; the low coefficients must vanish."""
        if any(self.num[:k]):
            raise SeriesError(f"series is not divisible by g^{k}")
        if k > self.order:
            raise SeriesError("shift exhausts every known coefficient")
        return _series(self.num[k:], self.den)

    # -- presentation ------------------------------------------------------

    def __str__(self) -> str:
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(rational_to_str(c))
            elif k == 1:
                parts.append(f"{rational_to_str(c)}*g")
            else:
                parts.append(f"{rational_to_str(c)}*g^{k}")
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(g^{self.order + 1})"

    def to_json_dict(self) -> dict:
        return {
            "var": "g",
            "order": self.order,
            "coeffs": [rational_to_str(c) for c in self.coeffs],
        }


def _init(s: Series, num: tuple, den: int) -> None:
    object.__setattr__(s, "num", num)
    object.__setattr__(s, "den", den)


def _series(num, den: int) -> Series:
    """The normalizing constructor: the series ``num[k] / den`` in canonical form."""
    if den < 0:
        num, den = [-n for n in num], -den
    g = math.gcd(den, *num)
    if g != 1:
        num, den = [n // g for n in num], den // g
    s = object.__new__(Series)
    _init(s, tuple(num), den)
    return s


def _constant(s: Series, k: int, order: int) -> Series:
    """Coefficient k of ``s`` as a constant series of the given order."""
    return _series([s.num[k]] + [0] * order, s.den)


# -- ring operations -------------------------------------------------------


def add(a: Series, b: Series) -> Series:
    """Sum over the least common denominator; ``zip`` truncates to the smaller order."""
    g = math.gcd(a.den, b.den)
    fa, fb = b.den // g, a.den // g
    return _series([x * fa + y * fb for x, y in zip(a.num, b.num)], a.den * fa)


def mul(a: Series, b: Series) -> Series:
    """Truncated product, an integer convolution over the denominator Da*Db."""
    order = min(a.order, b.order)
    A = a.num
    B = b.num[order::-1]
    out = [sum(map(operator.mul, A[: k + 1], B[order - k :])) for k in range(order + 1)]
    return _series(out, a.den * b.den)


def div(a: Series, b: Series) -> Series:
    """Quotient a/b; requires a unit (nonzero constant term) denominator.

    With a = A/Da, b = B/Db and b0 = B_0, the quotient is q_k = Db*Q_k /
    (Da*b0^(k+1)), where the integers Q_k solve the fraction-free recurrence
    Q_k = A_k*b0^k - sum_(j>=1) B_j*b0^(j-1)*Q_(k-j).  The result is put over
    the one denominator Da*b0^(order+1).
    """
    if b.num[0] == 0:
        raise SeriesError(
            "division by a series with zero constant term; shift the valuation "
            "out explicitly before dividing"
        )
    order = min(a.order, b.order)
    A, B = a.num, b.num
    b0 = B[0]
    # Bp[j - 1] = B_j * b0^(j-1), so that Q_k subtracts sum(Bp[:k] . Q[::-1])
    Bp, pw = [], 1
    for bj in B[1 : order + 1]:
        Bp.append(bj * pw)
        pw *= b0
    Q, pw = [], 1  # pw = b0^k
    for k in range(order + 1):
        Q.append(A[k] * pw - sum(map(operator.mul, Bp[:k], Q[::-1])))
        pw *= b0
    out, scale = [0] * (order + 1), b.den  # scale = Db*b0^(order-k)
    for k in range(order, -1, -1):
        out[k] = Q[k] * scale
        scale *= b0
    return _series(out, a.den * pw)


def compose(outer: Series, inner: Series) -> Series:
    """Substitute ``inner`` (zero constant term) into ``outer``.

    The result order honours the information actually present: with inner
    valuation ``v`` the outer truncation error enters at order
    ``v * (outer.order + 1)``, so the result is reliable through
    ``min(inner.order, v * (outer.order + 1) - 1)``.
    """
    if inner.num[0] != 0:
        raise SeriesError("composition requires the inner series to have zero constant term")
    v = inner.valuation()
    if v is None:
        return _constant(outer, 0, inner.order)
    order = min(inner.order, v * (outer.order + 1) - 1)
    inner_t = inner.truncate(order) if inner.order > order else inner
    out = _constant(outer, min(outer.order, order // v), order)
    for k in range(min(outer.order, order // v) - 1, -1, -1):
        out = mul(out, inner_t) + _constant(outer, k, order)
    return out


def reversion(s: Series) -> Series:
    """Compositional inverse of ``s`` (Lagrange inversion).

    Requires a zero constant term and a nonzero linear term; the result ``r``
    satisfies ``compose(s, r) = identity`` through the available order.
    Coefficient k of ``r`` is coefficient k - 1 of ``h^k``, over k, with
    ``h = w/s``.  The powers are split baby-step/giant-step: with
    ``m = isqrt(n)``, ``H = h^m`` and ``k = m*j + i`` (``0 <= i < m``),
    coefficient k - 1 of ``h^k`` is one integer dot product of ``h^i`` with
    ``H^j``.  That takes about ``2*sqrt(n)`` truncated products instead of
    the ``n - 1`` of building every power.
    """
    if s.num[0] != 0:
        raise SeriesError("reversion requires a zero constant term")
    if s.order < 1 or s.num[1] == 0:
        raise SeriesError("reversion requires a nonzero linear coefficient")
    n = s.order
    if n == 1:
        return _series([0, s.den], s.num[1])
    # h = w / s(w), a unit series of order n - 1
    h = div(Series.one(n - 1), _series(s.num[1:], s.den))
    m = math.isqrt(n)
    baby = [Series.one(n - 1), h]  # h^0 .. h^m
    for _ in range(m - 1):
        baby.append(mul(baby[-1], h))
    giant = [baby[0], baby[m]]  # H^0 .. H^(n // m)
    for _ in range(n // m - 1):
        giant.append(mul(giant[-1], baby[m]))
    nums, dens = [0], [1]
    for k in range(1, n + 1):
        j, i = divmod(k, m)
        a, b = baby[i], giant[j]
        nums.append(sum(map(operator.mul, a.num[:k], b.num[k - 1 :: -1])))
        dens.append(a.den * b.den * k)
    den = math.lcm(*dens)
    return _series([p * (den // d) for p, d in zip(nums, dens)], den)


def sqrt_series(s: Series) -> Series:
    """Square root branch whose constant term is the positive rational root.

    With s = S/D, sqrt(s) = sqrt(T)/D for the integer series T = S*D, whose
    constant term is the square of r = r0*D.  Writing the k-th coefficient of
    sqrt(T) as Y_k/(2r)^(2k-1) for k >= 1 gives the integer recurrence
    Y_k = T_k*(2r)^(2k-2) - sum_(j=1)^(k-1) Y_j*Y_(k-j).  The result is put
    over the one denominator D*(2r)^(2n-1), n the order.
    """
    S, den = s.num, s.den
    if S[0] <= 0:
        raise SeriesError("sqrt needs a positive rational square as constant term")
    g = math.gcd(S[0], den)
    pn, qd = S[0] // g, den // g
    rn, rd = math.isqrt(pn), math.isqrt(qd)
    if rn * rn != pn or rd * rd != qd:
        raise SeriesError(f"constant term {Fraction(pn, qd)} is not the square of a rational")
    n = s.order
    if n == 0:
        return _series([rn], rd)
    r2 = 2 * rn * (den // rd)  # 2r, with r = r0*D an integer since rd^2 divides D
    Y = [0]
    scale = 1  # (2r)^(2k-2)
    for k in range(1, n + 1):
        m = (k - 1) // 2  # the sum is symmetric: pairs j < k - j, then the middle term
        acc = 2 * sum(map(operator.mul, Y[1 : m + 1], Y[k - 1 : k - 1 - m : -1]))
        if k % 2 == 0:
            acc += Y[k // 2] ** 2
        Y.append(S[k] * den * scale - acc)
        scale *= r2 * r2
    # coefficient k >= 1 is Y_k*(2r)^(2n-2k) over the common denominator, and
    # the constant term r/D is (2r)^(2n)/2 over it
    out, f = [0] * (n + 1), 1  # f = (2r)^(2n-2k)
    for k in range(n, 0, -1):
        out[k] = Y[k] * f
        f *= r2 * r2
    out[0] = f // 2
    return _series(out, den * (f // r2))


def log_series(s: Series) -> Series:
    """Logarithm of a series with constant term exactly 1.

    The result has the input's order: an order-0 input determines only the
    zero constant term.
    """
    if s.num[0] != s.den:
        raise SeriesError("log requires constant term 1")
    if s.order == 0:
        return Series.zero(0)
    return integrate(div(derivative(s), s.truncate(s.order - 1)))


def derivative(s: Series) -> Series:
    if s.order == 0:
        return _series([0], 1)
    return _series([k * s.num[k] for k in range(1, s.order + 1)], s.den)


def integrate(s: Series) -> Series:
    """Antiderivative with zero constant term (order grows by one)."""
    scale = math.lcm(*range(1, s.order + 2))
    out = [0] + [n * (scale // (k + 1)) for k, n in enumerate(s.num)]
    return _series(out, s.den * scale)


# -- algebraic branches ----------------------------------------------------


class BivariatePoly(NamedTuple):
    """Polynomial P(x, y) over the rationals.

    ``terms`` is a sorted tuple of ``((i, j), c)`` pairs, one for each nonzero
    Fraction coefficient c of x^i y^j.
    """

    terms: tuple

    @classmethod
    def from_dict(cls, data: Mapping[tuple, Rational]) -> "BivariatePoly":
        converted = (((int(i), int(j)), _frac(c)) for (i, j), c in data.items())
        return cls(tuple(sorted(term for term in converted if term[1] != 0)))

    def degree_x(self) -> int:
        return max((i for (i, _), _ in self.terms), default=0)

    def degree_y(self) -> int:
        return max((j for (_, j), _ in self.terms), default=0)

    def partial_y(self) -> "BivariatePoly":
        return BivariatePoly.from_dict(
            {(i, j - 1): j * c for (i, j), c in self.terms if j > 0}
        )

    def eval_rational(self, x: Fraction, y: Fraction) -> Fraction:
        acc = Fraction(0)
        for (i, j), c in self.terms:
            acc += c * x**i * y**j
        return acc

    def eval_series(self, y: Series) -> Series:
        """Evaluate P(g, y(g)) as a series, by Horner in y."""
        order = y.order
        by_j: dict[int, list] = {}
        for (i, j), c in self.terms:
            row = by_j.setdefault(j, [])
            if i <= order:
                row.append((i, c))

        def row_series(j: int) -> Series:
            """The coefficient of y^j, a polynomial in x, as a series."""
            row = by_j.get(j, ())
            den = math.lcm(*(c.denominator for _, c in row))
            num = [0] * (order + 1)
            for i, c in row:
                num[i] = c.numerator * (den // c.denominator)
            return _series(num, den)

        max_j = max(by_j, default=0)
        out = row_series(max_j)
        for j in range(max_j - 1, -1, -1):
            out = mul(out, y) + row_series(j)
        return out


class AlgebraicSystem:
    """A branch of an algebraic curve: P(g, y) = 0 with y(0) = branch_point."""

    __slots__ = ("relation", "branch_point")
    relation: BivariatePoly
    branch_point: Fraction

    def __init__(self, relation: BivariatePoly, branch_point: Rational) -> None:
        self.relation = relation
        self.branch_point = _frac(branch_point)
        if relation.eval_rational(Fraction(0), self.branch_point) != 0:
            raise SeriesError("branch point does not satisfy P(0, y0) = 0")
        dy = relation.partial_y().eval_rational(Fraction(0), self.branch_point)
        if dy == 0:
            raise SeriesError(
                "dP/dy vanishes at (0, branch_point): the branch is not simple, "
                "Newton iteration cannot start"
            )


def newton_solve(system: AlgebraicSystem, order: int) -> Series:
    """Expand the branch of ``system`` as a series through ``order``.

    Newton iteration with order doubling; the residual P(g, y(g)) is checked
    to vanish through ``order`` before returning.  A residual that does not
    vanish is a failed self-check of the kernels, so it raises
    `ArithmeticError`, not `SeriesError`.
    """
    if order < 0:
        raise SeriesError("order must be nonnegative")
    rel = system.relation
    rel_y = rel.partial_y()
    y = Series.constant(system.branch_point, 0)
    prec = 0
    while prec < order:
        prec = min(2 * prec + 1, order)
        y = _series(y.num + (0,) * (prec - y.order), y.den)
        y = y - div(rel.eval_series(y), rel_y.eval_series(y))
    residual = rel.eval_series(y)
    if not residual.is_zero():
        raise ArithmeticError("Newton iteration failed to cancel the residual")
    return y
