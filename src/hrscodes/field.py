"""Exact arithmetic in the prime field GF(p).

Field elements are plain Python ints in ``[0, p)``; the modulus lives in a
:class:`PrimeField` context object that every container (polynomial, matrix,
code) carries.  Mixing values from fields with different moduli is rejected
wherever two carriers meet.
"""

import numpy as np

from .errors import FieldMismatchError

# Largest supported modulus.  Keeps products of two elements inside the
# range Python handles cheaply and numpy object arrays handle exactly.
MAX_MODULUS = 1 << 61

# Moduli up to this bound use int64 numpy arrays: one multiply of two
# reduced values plus one add stays below 2**63.
_INT64_MODULUS_LIMIT = (1 << 31) - 1

# Witnesses making Miller-Rabin deterministic for all n < 3.3 * 10**24,
# far beyond MAX_MODULUS; also the trial divisors tried first.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < 2**61."""
    if n < 2:
        return False
    for small in _MR_WITNESSES:
        if n == small:
            return True
        if n % small == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: returns (g, x, y) with a*x + b*y = g = gcd(a, b)."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


class PrimeField:
    """The field GF(p) for a prime modulus p, 2 <= p < 2**61."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int):
            raise TypeError(f"modulus must be an int, got {type(p).__name__}")
        if not 2 <= p < MAX_MODULUS:
            raise ValueError(f"modulus must satisfy 2 <= p < 2**61, got {p}")
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p

    def __repr__(self):
        return f"PrimeField({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def require_same(self, other: "PrimeField") -> None:
        """Raise FieldMismatchError unless `other` has the same modulus."""
        if self.p != other.p:
            raise FieldMismatchError(
                f"mixed moduli: GF({self.p}) vs GF({other.p})"
            )

    @property
    def uses_int64(self) -> bool:
        """Whether matrices over this field fit the int64 fast path."""
        return self.p <= _INT64_MODULUS_LIMIT

    @property
    def dtype(self):
        """numpy dtype for matrices over this field (int64 or object)."""
        return np.int64 if self.uses_int64 else object

    # -- scalar operations --------------------------------------------------

    def element(self, x: int) -> int:
        """Reduce an integer into [0, p)."""
        return int(x) % self.p

    def inv(self, a: int) -> int:
        """Multiplicative inverse by extended Euclid; a must be nonzero."""
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF({self.p})")
        g, x, _ = _xgcd(a, self.p)
        assert g == 1
        return x % self.p

    def binomial(self, i: int, j: int) -> int:
        """C(i, j) mod p by Lucas' theorem, with C(i, j) = 0 for j > i or j < 0.

        Safe for arbitrary non-negative i, j: each base-p digit pair is a
        small binomial computed multiplicatively mod p.
        """
        if j < 0 or j > i:
            return 0
        result = 1
        p = self.p
        while i or j:
            di, dj = i % p, j % p
            if dj > di:
                return 0
            result = result * self._small_binomial(di, dj) % p
            i //= p
            j //= p
        return result

    def _small_binomial(self, n: int, k: int) -> int:
        # n, k < p, so no factor below is divisible by p.
        k = min(k, n - k)
        num = den = 1
        for step in range(k):
            num = num * (n - step) % self.p
            den = den * (step + 1) % self.p
        return num * self.inv(den) % self.p if k else 1
