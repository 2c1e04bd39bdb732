"""Exact multivariate polynomials over the rationals.

Every tensor entry in this package is a ``Poly``: a sparse map from exponent
vectors to ``fractions.Fraction``.  No floating point is used anywhere; the
zero polynomial is the empty map and no zero coefficient is ever stored.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

Exponents = tuple[int, ...]


def as_fraction(value) -> Fraction:
    """Coerce an int, Fraction, or 'p/q' string to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


class Poly:
    """Sparse polynomial in ``nvars`` variables with Fraction coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponents, object] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be >= 0")
        clean: dict[Exponents, Fraction] = {}
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
                    total = c if acc is None else acc + c
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
        c = as_fraction(value)
        if not c:
            return cls(nvars)
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Poly":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} vars")
        expo = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, {expo: Fraction(1)})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in expo) for expo in self.terms)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (raises otherwise)."""
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()))

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise ValueError("polynomials over different variable counts")
            return other
        return Poly.const(self.nvars, other)

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        terms = dict(self.terms)
        for expo, c in other.terms.items():
            total = terms.get(expo, Fraction(0)) + c
            if total:
                terms[expo] = total
            elif expo in terms:
                del terms[expo]
        out = Poly.__new__(Poly)
        out.nvars = self.nvars
        out.terms = terms
        return out

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        out = Poly.__new__(Poly)
        out.nvars = self.nvars
        out.terms = {expo: -c for expo, c in self.terms.items()}
        return out

    def __sub__(self, other) -> "Poly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Poly":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Poly":
        other = self._coerce(other)
        if not self.terms or not other.terms:
            return Poly(self.nvars)
        prod: dict[Exponents, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                total = prod.get(expo, Fraction(0)) + c1 * c2
                if total:
                    prod[expo] = total
                elif expo in prod:
                    del prod[expo]
        out = Poly.__new__(Poly)
        out.nvars = self.nvars
        out.terms = prod
        return out

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
        terms: dict[Exponents, Fraction] = {}
        for expo, c in self.terms.items():
            e = expo[index]
            if e == 0:
                continue
            new = list(expo)
            new[index] = e - 1
            terms[tuple(new)] = c * e
        return Poly(self.nvars, terms)

    def evaluate(self, point: Sequence) -> Fraction:
        """Exact value at a rational point."""
        if len(point) != self.nvars:
            raise ValueError("point dimension mismatch")
        pt = [as_fraction(x) for x in point]
        total = Fraction(0)
        for expo, c in self.terms.items():
            val = c
            for x, e in zip(pt, expo):
                if e:
                    val *= x**e
            total += val
        return total

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
    acc: dict[Exponents, Fraction] = {}
    for a, b in pairs:
        if a.terms and b.terms:
            for expo, c in (a * b).terms.items():
                old = acc.get(expo)
                acc[expo] = c if old is None else old + c
    out = Poly.__new__(Poly)
    out.nvars = nvars
    out.terms = {expo: c for expo, c in acc.items() if c}
    return out
