"""The NRT weight and distance on s x r matrices over GF(p).

A column's weight is s - i + 1 where i is the 1-based index of its topmost
nonzero entry (0 for a zero column); a matrix weighs the sum of its column
weights.  Codewords, received words and error patterns all live here.
"""

import numpy as np

from .errors import ParameterError
from .field import PrimeField


class NrtMatrix:
    """An s x r matrix over a prime field, entries reduced into [0, p).

    Entries are integers: an integer array, an object array, or a nested
    sequence of ints and numpy integers, never bools, floats or complex.
    The backing array is frozen after construction; arithmetic returns new
    instances.  Row 1 (index 0) is the order-0 derivative row.
    """

    __slots__ = ("field", "entries")

    def __init__(self, field: PrimeField, entries):
        given = isinstance(entries, np.ndarray)
        a = entries if given else np.array(entries, dtype=object)
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise ParameterError(f"expected a non-empty 2-D matrix, got shape {a.shape}")
        if not given:
            # Checked one by one: numpy would read [[True, 2]] as int64.
            # Arrays are checked by dtype only; object entries are not.
            a = np.array([_entry(x) for x in a.flat], dtype=object).reshape(a.shape)
        elif a.dtype.kind not in "iuO":
            raise ParameterError(f"matrix entries must be integers, got dtype {a.dtype}")
        if np.can_cast(a.dtype, np.int64):
            a = a.astype(field.dtype)
            a %= field.p
        else:
            # uint64 and Python-int entries may not fit int64: reduce first.
            a = (a % field.p).astype(field.dtype, copy=False)
        a.flags.writeable = False
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "entries", a)

    def __setattr__(self, name, value):
        raise AttributeError("NrtMatrix is immutable")

    @property
    def s(self) -> int:
        return self.entries.shape[0]

    @property
    def r(self) -> int:
        return self.entries.shape[1]

    @property
    def shape(self):
        return self.entries.shape

    def to_lists(self) -> list[list[int]]:
        """Rows as plain lists of ints (row 1 first)."""
        return [[int(x) for x in row] for row in self.entries]

    def _check(self, other):
        if not isinstance(other, NrtMatrix):
            raise TypeError(f"expected NrtMatrix, got {type(other).__name__}")
        self.field.require_same(other.field)
        if self.shape != other.shape:
            raise ParameterError(
                f"shape mismatch: {self.shape} vs {other.shape}"
            )

    def __eq__(self, other):
        return (
            isinstance(other, NrtMatrix)
            and self.field == other.field
            and self.shape == other.shape
            and bool(np.all(self.entries == other.entries))
        )

    __hash__ = None

    def __add__(self, other):
        self._check(other)
        return NrtMatrix(self.field, (self.entries + other.entries) % self.field.p)

    def __sub__(self, other):
        self._check(other)
        return NrtMatrix(self.field, (self.entries - other.entries) % self.field.p)

    def __repr__(self):
        return f"NrtMatrix({self.to_lists()}, p={self.field.p})"


def _entry(x) -> int:
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise ParameterError(f"matrix entries must be integers, got {x!r}")
    return int(x)


def column_weights(entries: np.ndarray) -> np.ndarray:
    """Per-column NRT weights of an (..., s, r) array (no field needed).

    A batch of matrices gives one row of r weights per matrix.
    """
    s = entries.shape[-2]
    # Row i of a column weighs s - i when nonzero; the top one is the largest.
    rank = np.arange(s, 0, -1).reshape(s, 1)
    return (rank * (entries != 0)).max(axis=-2, initial=0)


def nrt_weight(a: NrtMatrix) -> int:
    """Sum of the NRT weights of all columns."""
    return int(column_weights(a.entries).sum())


def nrt_distance(a: NrtMatrix, b: NrtMatrix) -> int:
    """d_N(A, B) = weight of A - B; requires equal shapes and moduli."""
    a._check(b)
    return nrt_weight(a - b)
