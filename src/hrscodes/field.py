"""The prime field GF(p): modulus validation, array dtype and inverses.

Field elements are plain Python ints in ``[0, p)``; the modulus lives in a
:class:`PrimeField`, a frozen dataclass that every container (polynomial,
matrix, code) carries: checked once when built, copyable and picklable.
Mixing moduli is rejected wherever two carriers meet.  Bulk arithmetic runs
on numpy arrays of :attr:`PrimeField.dtype`; the field only inverts scalars.
"""

from dataclasses import dataclass

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


@dataclass(frozen=True, init=False, repr=False)
class PrimeField:
    """The field GF(p) for a prime modulus p, 2 <= p < 2**61."""

    p: int

    def __init__(self, p: int):
        if isinstance(p, bool) or not isinstance(p, (int, np.integer)):
            raise TypeError(f"modulus must be an int, got {type(p).__name__}")
        p = int(p)
        if not 2 <= p < MAX_MODULUS:
            raise ValueError(f"modulus must satisfy 2 <= p < 2**61, got {p}")
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        object.__setattr__(self, "p", p)

    def __repr__(self):
        return f"PrimeField({self.p})"

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

    def inv(self, a: int) -> int:
        """Multiplicative inverse; a must be nonzero."""
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF({self.p})")
        return pow(a, -1, self.p)
