"""Dense univariate polynomial arithmetic over GF(p).

Coefficients are stored low degree first, normalized so the top coefficient
is nonzero; the zero polynomial has an empty coefficient tuple and degree
``-inf``.  All operations are pure and return new instances.

Poly is the immutable public wrapper (ring operations and Euclidean
division) over the array kernel at the bottom of this module (_mul,
_divmod, _dot and _trim on int64 or object arrays), which the Hermite
tables and the Euclid decoder also call directly.  _dot is the one exact
GF(p) matrix product: Hermite interpolation, the encoder and the
brute-force scan all go through it.
"""

import numpy as np

from .field import _INT64_MODULUS_LIMIT, PrimeField

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
        dtype = self.field.dtype
        a = np.array([self.coeffs], dtype=dtype)
        b = np.array([other.coeffs], dtype=dtype)
        return Poly(self.field, _mul(a, b, self.field.p)[0].tolist())

    def __divmod__(self, other):
        """Euclidean division: self = q * other + r with deg r < deg other."""
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero polynomial")
        field, p = self.field, self.field.p
        inv_lead = field.inv(other.coeffs[-1])
        a = np.array(self.coeffs, dtype=field.dtype)
        b = np.array(other.coeffs, dtype=field.dtype) * inv_lead % p
        quot, rem = _divmod(a, b, p)
        return Poly(field, (quot * inv_lead % p).tolist()), Poly(field, rem.tolist())


# -- array kernel: coefficients low degree first, entries in [0, p) ------------


def _trim(a: np.ndarray) -> np.ndarray:
    """a without its zero top coefficients (the zero polynomial is empty)."""
    end = len(a)
    while end and not a[end - 1]:
        end -= 1
    return a[:end]


def _mul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Row-wise products of two stacks of polynomials (coefficient rows,
    low degree first) over GF(p).

    The outer product of each pair is reduced, then row i is skewed i places
    to the right by padding and reshaping, so one sum over rows gives the
    convolution.  Entries stay below p * min(len) < 2**63 on the int64 path.
    """
    if a.shape[1] > b.shape[1]:
        a, b = b, a
    rows, la, lb = a.shape[0], a.shape[1], b.shape[1]
    outer = a[:, :, np.newaxis] * b[:, np.newaxis, :] % p
    padded = np.concatenate([outer, np.zeros((rows, la, la), dtype=outer.dtype)], axis=2)
    width = la + lb - 1
    skewed = padded.reshape(rows, -1)[:, : la * width].reshape(rows, la, width)
    return skewed.sum(axis=1) % p


def _divmod(a: np.ndarray, b: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Division by monic divisors over GF(p) along the last axis, any rank:
    (q, r) with a = q*b + r and r one coefficient shorter than b, untrimmed.

    Each step leaves the top coefficient of the remainder in place as the
    next quotient coefficient and reduces the ones below it; no intermediate
    passes p**2 < 2**62 in size on the int64 path.
    """
    deg = b.shape[-1] - 1
    low = b[..., :deg]
    rem = a.copy()
    for k in range(a.shape[-1] - deg - 1, -1, -1):
        below = rem[..., k : k + deg]
        below -= rem[..., k + deg : k + deg + 1] * low
        below %= p
    return rem[..., deg:], rem[..., :deg]


def _dot(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b over GF(p), exactly, for entries in [0, p).

    Above the int64 modulus limit the product runs on Python ints (object
    arrays); the path is chosen by p, since a may be int64 there.  On the
    int64 path a is cut into limbs of w bits, w the largest width with
    K * (2**w - 1) * (p - 1) < 2**63 for inner length K, so every limb
    product is exact.  The limbs are combined top down: the partial result
    and the scale 2**w are reduced, so out * scale + (limb product mod p)
    stays below p**2 + p < 2**63.
    """
    if p > _INT64_MODULUS_LIMIT:
        return a @ b % p
    inner = max(a.shape[-1], 1)
    width = (((1 << 63) - 1) // (inner * (p - 1)) + 1).bit_length() - 1
    top = ((p - 1).bit_length() - 1) // width * width
    out = (a >> top) @ b % p
    mask, scale = (1 << width) - 1, pow(2, width, p)
    for shift in range(top - width, -1, -width):
        out = (out * scale + (a >> shift & mask) @ b % p) % p
    return out
