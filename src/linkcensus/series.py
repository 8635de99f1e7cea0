"""Exact truncated formal power series over the rationals.

Every coefficient is a `fractions.Fraction`; nothing in this module touches
floating point.  A `Series` knows exactly ``order + 1`` coefficients and all
operations are honest about precision: binary arithmetic truncates to the
smaller operand order, and composition accounts for the valuation of the
inner series when deciding how far the result can be trusted.

The three coefficient kernels `mul`, `div` and `sqrt_series`, which every
other operation here and every model module builds on, run their inner loops
on Python integers: each operand is scaled once to integer numerators over
its least common denominator, the recurrence is carried out fraction-free,
and exactly one normalized `Fraction` is built per output coefficient.

The module also provides `AlgebraicSystem`, a bivariate polynomial relation
``P(g, y) = 0`` together with the value of the branch at ``g = 0``, and
`newton_solve`, which expands the selected branch as a series by Newton
iteration with order doubling.  The residual of the returned series is
checked internally before it is handed back.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Union

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
    "rational_from_str",
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


def rational_to_str(value: Fraction) -> str:
    """Render a rational as ``p/q``, or plain ``p`` when the denominator is 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def rational_from_str(text: str) -> Fraction:
    return Fraction(text)


@dataclass(frozen=True)
class Series:
    """A formal power series known exactly through ``order = len(coeffs) - 1``."""

    coeffs: tuple
    var: str = "g"

    def __post_init__(self) -> None:
        if len(self.coeffs) == 0:
            raise SeriesError("a series must carry at least its constant term")
        object.__setattr__(self, "coeffs", tuple(_frac(c) for c in self.coeffs))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[Rational], order: int | None = None, var: str = "g") -> "Series":
        """Build a series from leading coefficients, zero-padded to ``order``."""
        cs = [_frac(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise SeriesError("order must be nonnegative")
            if len(cs) > order + 1:
                cs = cs[: order + 1]
            else:
                cs += [Fraction(0)] * (order + 1 - len(cs))
        return cls(tuple(cs), var)

    @classmethod
    def zero(cls, order: int, var: str = "g") -> "Series":
        return cls.from_coeffs([], order, var)

    @classmethod
    def one(cls, order: int, var: str = "g") -> "Series":
        return cls.from_coeffs([1], order, var)

    @classmethod
    def constant(cls, value: Rational, order: int, var: str = "g") -> "Series":
        return cls.from_coeffs([value], order, var)

    @classmethod
    def identity(cls, order: int, var: str = "g") -> "Series":
        """The series for the variable itself."""
        if order < 1:
            raise SeriesError("the identity series needs order >= 1")
        return cls.from_coeffs([0, 1], order, var)

    # -- basic structure ---------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> Fraction:
        if not 0 <= k <= self.order:
            raise SeriesError(f"coefficient g^{k} is outside the known order {self.order}")
        return self.coeffs[k]

    def __iter__(self):
        return iter(self.coeffs)

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient, or None if all known ones vanish."""
        for k, c in enumerate(self.coeffs):
            if c:
                return k
        return None

    def truncate(self, order: int) -> "Series":
        if order > self.order:
            raise SeriesError(f"cannot extend a series of order {self.order} to {order}")
        return Series(self.coeffs[: order + 1], self.var)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other: object) -> "Series | None":
        if isinstance(other, Series):
            return other
        if isinstance(other, (int, Fraction)):
            return Series.constant(other, self.order, self.var)
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
        return Series(tuple(-c for c in self.coeffs), self.var)

    def __mul__(self, other: object) -> "Series":
        if isinstance(other, (int, Fraction)):
            f = _frac(other)
            return Series(tuple(f * c for c in self.coeffs), self.var)
        if isinstance(other, Series):
            return mul(self, other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "Series":
        if isinstance(other, (int, Fraction)):
            f = _frac(other)
            if f == 0:
                raise SeriesError("division by zero")
            return Series(tuple(c / f for c in self.coeffs), self.var)
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
        out = Series.one(self.order, self.var)
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
        """Divide by the k-th power of the variable; the low coefficients must vanish."""
        if any(self.coeffs[i] != 0 for i in range(min(k, self.order + 1))):
            raise SeriesError(f"series is not divisible by {self.var}^{k}")
        if k > self.order:
            raise SeriesError("shift exhausts every known coefficient")
        return Series(self.coeffs[k:], self.var)

    # -- presentation ------------------------------------------------------

    def __str__(self) -> str:
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(rational_to_str(c))
            elif k == 1:
                parts.append(f"{rational_to_str(c)}*{self.var}")
            else:
                parts.append(f"{rational_to_str(c)}*{self.var}^{k}")
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O({self.var}^{self.order + 1})"

    def to_json_dict(self) -> dict:
        return {
            "var": self.var,
            "order": self.order,
            "coeffs": [rational_to_str(c) for c in self.coeffs],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "Series":
        coeffs = [rational_from_str(c) for c in data["coeffs"]]
        s = cls(tuple(coeffs), data.get("var", "g"))
        if s.order != data["order"]:
            raise SeriesError("JSON order field disagrees with the coefficient list")
        return s

    @classmethod
    def from_json(cls, text: str) -> "Series":
        return cls.from_json_dict(json.loads(text))


# -- ring operations -------------------------------------------------------


def _common(a: Series, b: Series) -> tuple[int, str]:
    if a.var != b.var:
        raise SeriesError(f"series in {a.var!r} and {b.var!r} do not combine")
    return min(a.order, b.order), a.var


def add(a: Series, b: Series) -> Series:
    order, var = _common(a, b)
    return Series(tuple(a.coeffs[k] + b.coeffs[k] for k in range(order + 1)), var)


def _scaled(s: Series, order: int) -> tuple[list, int]:
    """Integer numerators of ``s`` through ``order`` over their least common denominator."""
    cs = s.coeffs[: order + 1]
    den = math.lcm(*(c.denominator for c in cs))
    return [c.numerator * (den // c.denominator) for c in cs], den


def mul(a: Series, b: Series) -> Series:
    """Truncated product, an integer convolution over the denominator Da*Db."""
    order, var = _common(a, b)
    A, da = _scaled(a, order)
    B, db = _scaled(b, order)
    den = da * db
    B.reverse()
    out = [
        Fraction(sum(map(operator.mul, A[: k + 1], B[order - k :])), den)
        for k in range(order + 1)
    ]
    return Series(tuple(out), var)


def div(a: Series, b: Series) -> Series:
    """Quotient a/b; requires a unit (nonzero constant term) denominator.

    With a = A/Da, b = B/Db and b0 = B_0, the quotient is q_k = Db*Q_k /
    (Da*b0^(k+1)), where the integers Q_k solve the fraction-free recurrence
    Q_k = A_k*b0^k - sum_(j>=1) B_j*b0^(j-1)*Q_(k-j).
    """
    if b.coeffs[0] == 0:
        raise SeriesError(
            "division by a series with zero constant term; shift the valuation "
            "out explicitly before dividing"
        )
    order, var = _common(a, b)
    A, da = _scaled(a, order)
    B, db = _scaled(b, order)
    b0 = B[0]
    # Bp[j - 1] = B_j * b0^(j-1), so that Q_k subtracts sum(Bp[:k] . Q[::-1])
    Bp, pw = [], 1
    for bj in B[1:]:
        Bp.append(bj * pw)
        pw *= b0
    Q, out, pw = [], [], 1  # pw = b0^k
    for k in range(order + 1):
        qk = A[k] * pw - sum(map(operator.mul, Bp[:k], Q[::-1]))
        Q.append(qk)
        pw *= b0
        out.append(Fraction(db * qk, da * pw))
    return Series(tuple(out), var)


def compose(outer: Series, inner: Series) -> Series:
    """Substitute ``inner`` (zero constant term) into ``outer``.

    The result order honours the information actually present: with inner
    valuation ``v`` the outer truncation error enters at order
    ``v * (outer.order + 1)``, so the result is reliable through
    ``min(inner.order, v * (outer.order + 1) - 1)``.
    """
    if inner.coeffs[0] != 0:
        raise SeriesError("composition requires the inner series to have zero constant term")
    v = inner.valuation()
    if v is None:
        return Series.constant(outer.coeffs[0], inner.order, inner.var)
    order = min(inner.order, v * (outer.order + 1) - 1)
    inner_t = inner.truncate(order) if inner.order > order else inner
    out = Series.constant(outer.coeffs[min(outer.order, order // v)], order, inner.var)
    for k in range(min(outer.order, order // v) - 1, -1, -1):
        out = mul(out, inner_t) + Series.constant(outer.coeffs[k], order, inner.var)
    return out


def reversion(s: Series) -> Series:
    """Compositional inverse of ``s`` (Lagrange inversion).

    Requires a zero constant term and a nonzero linear term; the result ``r``
    satisfies ``compose(s, r) = identity`` through the available order.
    """
    if s.coeffs[0] != 0:
        raise SeriesError("reversion requires a zero constant term")
    if s.order < 1 or s.coeffs[1] == 0:
        raise SeriesError("reversion requires a nonzero linear coefficient")
    n = s.order
    # base = w / s(w), a unit series of order n - 1
    base = div(Series.one(n - 1, s.var), Series(s.coeffs[1:], s.var)) if n > 1 else None
    out = [Fraction(0), Fraction(1) / s.coeffs[1]]
    if n > 1:
        power = base  # (w/s)^k, maintained iteratively
        for k in range(2, n + 1):
            power = mul(power, base)
            out.append(power.coeffs[k - 1] / k)
    return Series(tuple(out), s.var)


def sqrt_series(s: Series) -> Series:
    """Square root branch whose constant term is the positive rational root.

    With s = S/D, sqrt(s) = sqrt(T)/D for the integer series T = S*D, whose
    constant term is the square of r = r0*D.  Writing the k-th coefficient of
    sqrt(T) as Y_k/(2r)^(2k-1) for k >= 1 gives the integer recurrence
    Y_k = T_k*(2r)^(2k-2) - sum_(j=1)^(k-1) Y_j*Y_(k-j).
    """
    c0 = s.coeffs[0]
    if c0 <= 0:
        raise SeriesError("sqrt needs a positive rational square as constant term")
    pn, qd = c0.numerator, c0.denominator
    rn, rd = math.isqrt(pn), math.isqrt(qd)
    if rn * rn != pn or rd * rd != qd:
        raise SeriesError(f"constant term {c0} is not the square of a rational")
    S, den = _scaled(s, s.order)
    r2 = 2 * rn * (den // rd)  # 2r, with r = r0*D an integer since rd^2 divides D
    out = [Fraction(rn, rd)]
    Y = [0]
    scale = 1  # (2r)^(2k-2)
    for k in range(1, s.order + 1):
        n = (k - 1) // 2  # the sum is symmetric: pairs j < k - j, then the middle term
        acc = 2 * sum(map(operator.mul, Y[1 : n + 1], Y[k - 1 : k - 1 - n : -1]))
        if k % 2 == 0:
            acc += Y[k // 2] ** 2
        yk = S[k] * den * scale - acc
        Y.append(yk)
        out.append(Fraction(yk, r2 * scale * den))
        scale *= r2 * r2
    return Series(tuple(out), s.var)


def log_series(s: Series) -> Series:
    """Logarithm of a series with constant term exactly 1.

    The result has the input's order: an order-0 input determines only the
    zero constant term.
    """
    if s.coeffs[0] != 1:
        raise SeriesError("log requires constant term 1")
    if s.order == 0:
        return Series.zero(0, s.var)
    return integrate(div(derivative(s), s.truncate(s.order - 1)))


def derivative(s: Series) -> Series:
    if s.order == 0:
        return Series((Fraction(0),), s.var)
    return Series(tuple(k * s.coeffs[k] for k in range(1, s.order + 1)), s.var)


def integrate(s: Series) -> Series:
    """Antiderivative with zero constant term (order grows by one)."""
    out = [Fraction(0)]
    out.extend(s.coeffs[k] / (k + 1) for k in range(s.order + 1))
    return Series(tuple(out), s.var)


# -- algebraic branches ----------------------------------------------------


@dataclass(frozen=True)
class BivariatePoly:
    """Polynomial P(x, y) over the rationals, stored as ``{(i, j): c}``."""

    terms: tuple

    @classmethod
    def from_dict(cls, data: Mapping[tuple, Rational]) -> "BivariatePoly":
        cleaned = tuple(
            sorted(((int(i), int(j)), _frac(c)) for (i, j), c in data.items() if _frac(c) != 0)
        )
        return cls(cleaned)

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
        """Evaluate P(x, y(x)) as a series in the variable of ``y``."""
        order = y.order
        by_j: dict[int, list] = {}
        for (i, j), c in self.terms:
            row = by_j.setdefault(j, [Fraction(0)] * (order + 1))
            if i <= order:
                row[i] += c
        max_j = max(by_j, default=0)
        out = Series(tuple(by_j.get(max_j, [Fraction(0)] * (order + 1))), y.var)
        for j in range(max_j - 1, -1, -1):
            row = by_j.get(j, [Fraction(0)] * (order + 1))
            out = mul(out, y) + Series(tuple(row), y.var)
        return out


@dataclass(frozen=True)
class AlgebraicSystem:
    """A branch of an algebraic curve: P(g, y) = 0 with y(0) = branch_point."""

    relation: BivariatePoly
    branch_point: Fraction
    var: str = "g"

    def __post_init__(self) -> None:
        object.__setattr__(self, "branch_point", _frac(self.branch_point))
        if self.relation.eval_rational(Fraction(0), self.branch_point) != 0:
            raise SeriesError("branch point does not satisfy P(0, y0) = 0")
        dy = self.relation.partial_y().eval_rational(Fraction(0), self.branch_point)
        if dy == 0:
            raise SeriesError(
                "dP/dy vanishes at (0, branch_point): the branch is not simple, "
                "Newton iteration cannot start"
            )


def newton_solve(system: AlgebraicSystem, order: int) -> Series:
    """Expand the branch of ``system`` as a series through ``order``.

    Newton iteration with order doubling; the residual P(g, y(g)) is checked
    to vanish through ``order`` before returning.
    """
    if order < 0:
        raise SeriesError("order must be nonnegative")
    rel = system.relation
    rel_y = rel.partial_y()
    y = Series.constant(system.branch_point, 0, system.var)
    prec = 0
    while prec < order:
        prec = min(2 * prec + 1, order)
        y = Series.from_coeffs(y.coeffs, prec, system.var)
        y = y - div(rel.eval_series(y), rel_y.eval_series(y))
    residual = rel.eval_series(y)
    if not residual.is_zero():
        raise SeriesError("Newton iteration failed to cancel the residual")
    return y
