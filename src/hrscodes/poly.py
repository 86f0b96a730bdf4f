"""Dense univariate polynomial arithmetic over GF(p).

Coefficients are stored low degree first, normalized so the top coefficient
is nonzero; the zero polynomial has an empty coefficient tuple and degree
``-inf``.  All operations are pure and return new instances.
"""

from .field import PrimeField

NEG_INF = float("-inf")


class Poly:
    """A polynomial over a prime field, immutable."""

    __slots__ = ("coeffs", "field")

    def __init__(self, field: PrimeField, coeffs=()):
        reduced = [int(c) % field.p for c in coeffs]
        while reduced and reduced[-1] == 0:
            reduced.pop()
        object.__setattr__(self, "coeffs", tuple(reduced))
        object.__setattr__(self, "field", field)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (1,))

    @classmethod
    def monomial(cls, field, degree, coeff=1):
        """coeff * X**degree"""
        return cls(field, (0,) * degree + (coeff,))

    # -- basic queries --------------------------------------------------------

    @property
    def degree(self):
        """Degree as an int, or -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def to_list(self) -> list[int]:
        """Coefficients low to high; the zero polynomial is [0]."""
        return list(self.coeffs) if self.coeffs else [0]

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        return f"Poly({self.to_list()}, p={self.field.p})"

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                x = "X" if k == 1 else f"X^{k}"
                parts.append(x if c == 1 else f"{c}*{x}")
        return " + ".join(parts)

    # -- ring operations -------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, Poly):
            raise TypeError(f"expected Poly, got {type(other).__name__}")
        self.field.require_same(other.field)

    def __add__(self, other):
        self._check(other)
        p = self.field.p
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % p
        return Poly(self.field, out)

    def __neg__(self):
        p = self.field.p
        return Poly(self.field, [-c % p for c in self.coeffs])

    def __sub__(self, other):
        self._check(other)
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        if self.is_zero or other.is_zero:
            return Poly.zero(self.field)
        p = self.field.p
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
        return Poly(self.field, out)

    def scale(self, c: int):
        """Multiply every coefficient by the scalar c."""
        c = self.field.element(c)
        p = self.field.p
        return Poly(self.field, [c * a % p for a in self.coeffs])

    def __divmod__(self, other):
        """Euclidean division: self = q * other + r with deg r < deg other."""
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero polynomial")
        if self.degree < other.degree:
            return Poly.zero(self.field), self
        p = self.field.p
        inv_lead = self.field.inv(other.coeffs[-1])
        rem = list(self.coeffs)
        dd = len(other.coeffs) - 1
        quot = [0] * (len(rem) - dd)
        for k in range(len(rem) - 1, dd - 1, -1):
            c = rem[k] * inv_lead % p
            if c == 0:
                continue
            quot[k - dd] = c
            for j, dj in enumerate(other.coeffs):
                rem[k - dd + j] = (rem[k - dd + j] - c * dj) % p
        return Poly(self.field, quot), Poly(self.field, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    # -- evaluation and derivatives ---------------------------------------------

    def evaluate(self, alpha: int) -> int:
        """f(alpha) by Horner's rule."""
        p = self.field.p
        alpha = int(alpha) % p
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * alpha + c) % p
        return acc

    def hyperderivative(self, j: int):
        """Order-j hyperderivative: sum of C(i, j) * f_i * X**(i - j).

        The zero polynomial is returned whenever j exceeds the degree.
        """
        if j < 0:
            raise ValueError("derivative order must be non-negative")
        if j == 0:
            return self
        p = self.field.p
        out = []
        for i in range(j, len(self.coeffs)):
            out.append(self.field.binomial(i, j) * self.coeffs[i] % p)
        return Poly(self.field, out)

    def taylor(self, alpha: int, count: int) -> list[int]:
        """First `count` coefficients of f expanded in powers of (X - alpha).

        Computed by repeated synthetic division; entry j equals the order-j
        hyperderivative of f at alpha.
        """
        p = self.field.p
        alpha = int(alpha) % p
        coeffs = list(self.coeffs)
        out = []
        for _ in range(count):
            # Synthetic division by (X - alpha): the remainder is the next
            # Taylor coefficient and the quotient carries on.
            acc = 0
            for k in range(len(coeffs) - 1, -1, -1):
                acc = (acc * alpha + coeffs[k]) % p
                coeffs[k] = acc
            out.append(coeffs.pop(0) if coeffs else 0)
        return out

    def vanishing_order(self, alpha: int, cap: int) -> int:
        """Multiplicity of (X - alpha) in f, saturated at `cap`.

        The zero polynomial vanishes to every order and returns `cap`.
        """
        if cap < 0:
            raise ValueError("cap must be non-negative")
        taylor = self.taylor(alpha, cap)
        return next((k for k, c in enumerate(taylor) if c), cap)
