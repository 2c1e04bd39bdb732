"""Exact multivariate polynomials over the rationals.

Every tensor entry in this package is a ``Poly``: a sparse map from exponent
vectors to exact rational coefficients.  A coefficient is an ``int`` when it
is integral and a ``fractions.Fraction`` otherwise, the entry rule of
``linalg.exact``, applied wherever a coefficient is made.  No floating point
is used anywhere; the zero polynomial is the empty map and no zero
coefficient is ever stored.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, sub
from typing import Mapping, Sequence

from .linalg import Entry, exact, parse_rational

Exponents = tuple[int, ...]


def as_fraction(value) -> Entry:
    """An int, Fraction or 'p/q' string as an entry: the int when integral.

    A string takes the structure-file grammar of ``linalg.parse_rational``.
    """
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return exact(value)
    if isinstance(value, int):  # a bool
        return int(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"not an exact rational: {value!r}")


def _poly(nvars: int, terms: dict) -> "Poly":
    """A Poly over terms already valid: right length, nonzero, int when integral."""
    out = Poly.__new__(Poly)
    out.nvars = nvars
    out.terms = terms
    return out


def _accumulate(acc: dict, terms1: Mapping, terms2: Mapping) -> None:
    """Add the product of two term maps into ``acc``; zero sums stay for ``_collect``.

    A constant term (all exponents zero) takes the other factor's exponent
    vector as it is, so no exponent sum is built for it.
    """
    right = [(e2, c2, any(e2)) for e2, c2 in terms2.items()]
    for e1, c1 in terms1.items():
        if any(e1):
            for e2, c2, moves in right:
                expo = tuple(map(add, e1, e2)) if moves else e1
                acc[expo] = acc.get(expo, 0) + c1 * c2
        else:
            for e2, c2, _ in right:
                acc[e2] = acc.get(e2, 0) + c1 * c2


def _collect(nvars: int, acc: dict) -> "Poly":
    """The Poly of an ``_accumulate`` result: zeros dropped, int when integral."""
    return _poly(nvars, {expo: exact(c) for expo, c in acc.items() if c})


class Poly:
    """Sparse polynomial in ``nvars`` variables with exact rational coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponents, object] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be >= 0")
        clean: dict[Exponents, Entry] = {}
        if terms:
            for expo, coeff in terms.items():
                expo = tuple(expo)
                if len(expo) != nvars:
                    raise ValueError(
                        f"exponent vector {expo} has length {len(expo)}, expected {nvars}"
                    )
                if any(e < 0 for e in expo):
                    raise ValueError(f"negative exponent in {expo}")
                c = as_fraction(coeff)
                if c:
                    acc = clean.get(expo)
                    total = c if acc is None else exact(acc + c)
                    if total:
                        clean[expo] = total
                    elif acc is not None:
                        del clean[expo]
        self.nvars = nvars
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, value) -> "Poly":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Poly":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} vars")
        expo = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, {expo: 1})

    # -- predicates --------------------------------------------------------

    def __bool__(self) -> bool:
        """Nonzero, as for an entry, so ``linalg.sparse_sum`` adds Polys too."""
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not any(map(any, self.terms))

    def constant_value(self) -> Entry:
        """The value of a constant polynomial, an int when integral (raises otherwise)."""
        if not self.terms:
            return 0
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()))

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise ValueError("polynomials over different variable counts")
            return other
        c = as_fraction(other)
        return _poly(self.nvars, {(0,) * self.nvars: c} if c else {})

    def _combine(self, other, op) -> "Poly":
        other = self._coerce(other)
        terms = dict(self.terms)
        for expo, c in other.terms.items():
            total = exact(op(terms.get(expo, 0), c))
            if total:
                terms[expo] = total
            else:
                terms.pop(expo, None)
        return _poly(self.nvars, terms)

    def __add__(self, other) -> "Poly":
        return self._combine(other, add)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _poly(self.nvars, {expo: -c for expo, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        return self._combine(other, sub)

    def __rsub__(self, other) -> "Poly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Poly":
        other = self._coerce(other)
        if not (self.terms and other.terms):
            return _poly(self.nvars, {})
        acc: dict[Exponents, Entry] = {}
        _accumulate(acc, self.terms, other.terms)
        return _collect(self.nvars, acc)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = Poly.const(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.nvars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- calculus ----------------------------------------------------------

    def diff(self, index: int) -> "Poly":
        """Partial derivative with respect to variable ``index``."""
        if not 0 <= index < self.nvars:
            raise ValueError(f"variable index {index} out of range")
        terms: dict[Exponents, Entry] = {}
        for expo, c in self.terms.items():
            e = expo[index]
            if e == 0:
                continue
            new = list(expo)
            new[index] = e - 1
            terms[tuple(new)] = exact(c * e)
        return _poly(self.nvars, terms)

    def evaluate(self, point: Sequence) -> Entry:
        """Exact value at a rational point, an int when integral."""
        if len(point) != self.nvars:
            raise ValueError("point dimension mismatch")
        pt = [as_fraction(x) for x in point]
        total = 0
        for expo, c in self.terms.items():
            val = c
            for x, e in zip(pt, expo):
                if e:
                    val *= x**e
            total += val
        return exact(total)

    # -- rendering ---------------------------------------------------------

    def render(self, names: Sequence[str] | None = None) -> str:
        if not self.terms:
            return "0"
        if names is None:
            names = [f"x{i + 1}" for i in range(self.nvars)]
        parts = []
        for expo in sorted(self.terms):
            c = self.terms[expo]
            factors = [
                names[i] if e == 1 else f"{names[i]}^{e}"
                for i, e in enumerate(expo)
                if e
            ]
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(f"{c}*" + "*".join(factors))
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def __repr__(self):
        return f"Poly({self.render()})"


def as_poly(value, nvars: int) -> Poly:
    """Coerce a scalar or Poly into a Poly over ``nvars`` variables."""
    if isinstance(value, Poly):
        if value.nvars != nvars:
            raise ValueError("polynomial over wrong variable count")
        return value
    return Poly.const(nvars, value)


def dot(nvars: int, pairs) -> Poly:
    """Sum of ``a * b`` over the ``(a, b)`` pairs, skipping every zero factor."""
    acc: dict[Exponents, Entry] = {}
    for a, b in pairs:
        if a.terms and b.terms:
            _accumulate(acc, a.terms, b.terms)
    return _collect(nvars, acc)
