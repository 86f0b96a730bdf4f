"""Polynomials over GF(p): the Poly value type and the array kernel.

Poly is a frozen dataclass of a coefficient tuple, low degree first and
normalized so the top coefficient is nonzero (the zero polynomial has an
empty tuple and degree ``-inf``), and a field.  The dataclass gives equality,
hashing, copies and pickling; Poly adds the one sum the bench uses.  Its
__init__ passes coefficients through errors.require_int, so a float, bool,
string or complex is refused, not truncated.  It carries messages, locators
and evaluators in and out of the codec; none of the codec's arithmetic uses it.

That arithmetic is the array kernel at the bottom of this module (_mul,
_shift_scale, _divmod, _dot and _trim on int64 or object arrays), which
the Hermite tables, the encoder and the decoder call directly.  _dot is
the one exact GF(p) matrix product: interpolation, the encoder, the scan
and _mul (each row times a band matrix) go through it.  It multiplies
int64 limbs for every p, so no product of a matrix runs on Python ints;
only its output is combined on them above 2**31 - 1.  A product by
X - alpha is a shift and a scale, _shift_scale.  _divmod is the one
division, of a row or a stack of rows by divisors with any unit leading
coefficient: the Euclid's steps, the (X - alpha_j)**s of the Hermite
tables and the N0/E0 groups of decoder._decode_block; it reduces only when
int64 could overflow.
"""

from dataclasses import dataclass

import numpy as np

from .errors import require_int
from .field import _INT64_MODULUS_LIMIT, PrimeField

NEG_INF = float("-inf")


@dataclass(frozen=True, init=False, repr=False)
class Poly:
    """A polynomial over a prime field, immutable."""

    coeffs: tuple
    field: PrimeField

    def __init__(self, field: PrimeField, coeffs=()):
        p = field.p
        reduced = [c % p if type(c) is int else require_int(c, "coefficient") % p for c in coeffs]
        while reduced and reduced[-1] == 0:
            reduced.pop()
        object.__setattr__(self, "coeffs", tuple(reduced))
        object.__setattr__(self, "field", field)

    @classmethod
    def one(cls, field):
        return cls(field, (1,))

    @property
    def degree(self):
        """Degree as an int, or -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def to_list(self) -> list[int]:
        """Coefficients low to high; the zero polynomial is [0]."""
        return list(self.coeffs) if self.coeffs else [0]

    def __repr__(self):
        return f"Poly({self.to_list()}, p={self.field.p})"

    def __add__(self, other):
        if not isinstance(other, Poly):
            raise TypeError(f"expected Poly, got {type(other).__name__}")
        self.field.require_same(other.field)
        p = self.field.p
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % p
        return Poly(self.field, out)


# -- array kernel: coefficients low degree first, entries in [0, p) ------------


def _trim(a: np.ndarray) -> np.ndarray:
    """a without its zero top coefficients (the zero polynomial is empty)."""
    end = len(a)
    while end and not a[end - 1]:
        end -= 1
    return a[:end]


def _mul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Row-wise products of two stacks of coefficient rows over GF(p), of
    any lengths: each row of a, reversed, times the band whose row k is the
    zero-padded row of b from offset k, a strided int64 view that stays in
    one limb as _dot's right operand on the int64 path."""
    rows, la, lb = a.shape[0], a.shape[1], b.shape[1]
    padded = np.zeros((rows, lb + 2 * la - 2), dtype=np.int64)
    padded[:, la - 1 : la - 1 + lb] = b
    row, col = padded.strides
    band = np.ndarray((rows, la, la + lb - 1), np.int64, buffer=padded, strides=(row, col, col))
    return _dot(a[:, np.newaxis, ::-1], band, p)[:, 0]


def _shift_scale(a: np.ndarray, alpha: np.ndarray, p: int) -> np.ndarray:
    """(X - alpha) * a for a stack of rows and a column alpha of one value
    per row: a shifted up one place, minus alpha * a mod p, in (-p, p)."""
    out = np.concatenate([np.zeros_like(a[:, :1]), a], axis=1)  # X * a
    out[:, :-1] -= alpha * a % p
    return out % p


def _divmod(a: np.ndarray, b: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Division over GF(p) along the last axis, any rank: (q, r) with
    a = q*b + r and r one coefficient shorter than b, untrimmed.

    Divisors may have any unit leading coefficient.  A row inverts it once,
    and a stack of one row divides as that row.  A larger stack is divided
    by its divisors scaled to monic, one inverse per row, and its quotients
    are scaled back.  Each step reads the top of the remainder (a Python
    int for one row, a column for a stack), reduces and scales it into the
    next quotient coefficient in place, and subtracts that multiple of the
    divisor from the entries below without reducing them.  An entry in
    [0, p) that then takes k products, each in [0, (p-1)**2], lies in
    (-k*(p-1)**2, p); so on the int64 path the live entries are reduced
    only before k would pass (2**63-1-p) // (p-1)**2 (2 at p = 2**31-1),
    and object arrays never need it.  The remainder is reduced once at the
    end.
    """
    deg, row = b.shape[-1] - 1, a.ndim == 1
    if row:
        inv = pow(int(b[deg]), -1, p)
    elif len(a) == 1:
        return tuple(x[np.newaxis] for x in _divmod(a[0], b[0], p))
    else:
        lead = b[..., deg:]
        scale = np.array([pow(int(c), -1, p) for c in lead.flat], dtype=b.dtype).reshape(lead.shape)
        b = b * scale % p
    low = b[..., :deg]
    rem = a.copy()
    # On object arrays the budget exceeds the step count: no mid-loop reduction.
    budget = a.shape[-1] if rem.dtype == object else ((1 << 63) - 1 - p) // (p - 1) ** 2
    for done, k in enumerate(range(a.shape[-1] - deg - 1, -1, -1)):
        if row:
            quot = rem[k + deg] = int(rem[k + deg]) * inv % p
        else:
            quot = rem[..., k + deg : k + deg + 1]
            quot %= p
        below = rem[..., k : k + deg]
        if done and done % budget == 0:
            below %= p
        below -= quot * low
    rem[..., :deg] %= p
    if not row:
        rem[..., deg:] = rem[..., deg:] * scale % p
    return rem[..., deg:], rem[..., :deg]


def _limbs(x: np.ndarray, width: int, bits: int) -> list:
    """x, with entries below 2**bits, cut into limbs of `width` bits, top
    limb first; x itself when one limb holds it."""
    top = (bits - 1) // width * width
    if not top:
        return [x]
    mask = (1 << width) - 1
    return [x >> top] + [x >> shift & mask for shift in range(top - width, -1, -width)]


def _dot(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b over GF(p), exactly, for entries in [0, p) of int64 or object
    arrays: int64 out for p <= 2**31-1, Python ints (object) above.

    One limb rule for every p.  b is cut into the fewest limbs of at most
    31 bits, the width of the int64 path's moduli, so it stays whole on that
    path; a limb of b is then at most b_max = min(p - 1, 2**b_width - 1).
    a is cut into limbs of w bits, w the largest width with
    K * (2**w - 1) * b_max < 2**63 for inner length K, so each limb pair is
    one exact int64 matmul.  The results are combined top down on the output
    only.  On the int64 path each product is reduced, and so are the partial
    result and the scale 2**w, so out * scale + (limb product mod p) stays
    below p**2 + p < 2**63.  Above it the raw products are shifted into
    place on Python ints and reduced once.
    """
    inner = max(a.shape[-1], 1)
    bits = (p - 1).bit_length()
    b_width = -(-bits // -(-bits // _INT64_MODULUS_LIMIT.bit_length()))
    b_max = min(p - 1, (1 << b_width) - 1)
    width = (((1 << 63) - 1) // (inner * b_max) + 1).bit_length() - 1
    a, b = a.astype(np.int64, copy=False), b.astype(np.int64, copy=False)
    exact, scale = p > _INT64_MODULUS_LIMIT, pow(2, width, p)
    a_limbs, out = _limbs(a, width, bits), None
    for b_limb in _limbs(b, b_width, bits):
        part = None
        for a_limb in a_limbs:
            prod = a_limb @ b_limb
            if exact:
                prod = prod.astype(object)
                part = prod if part is None else (part << width) + prod
            else:
                prod %= p
                part = prod if part is None else (part * scale + prod) % p
        # b has more than one limb only on the exact path.
        out = part if out is None else (out << b_width) + part
    return out % p if exact else out
