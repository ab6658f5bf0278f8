"""Matrix and vector value types for matlib.

The paper's matlib is a lightweight C library whose operators work on
caller-named buffers.  The Python equivalent keeps named, dtype-checked
buffers so that the trace records carry buffer identities — the code
generation flow needs producer/consumer names to perform operator fusion
and scratchpad-residency planning.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple, Union

import numpy as np

__all__ = ["MatlibError", "Mat", "matrix", "vector", "zeros", "as_array"]


class MatlibError(ValueError):
    """Raised on shape/dtype misuse of matlib operators."""


_SUPPORTED_DTYPES = (np.float32, np.float64)


class Mat:
    """A named, dtype-checked dense matrix (or vector) buffer.

    ``Mat`` wraps a numpy array.  Vectors are stored as 1-D arrays; matrices
    as 2-D arrays.  The name identifies the buffer in recorded traces; names
    need not be unique but fusion quality improves when they are.
    """

    __slots__ = ("name", "data")

    def __init__(self, data, name: str = "tmp", dtype=None) -> None:
        array = np.array(data, dtype=dtype if dtype is not None else None, copy=True)
        if array.dtype not in _SUPPORTED_DTYPES:
            array = array.astype(np.float64)
        if array.ndim not in (1, 2):
            raise MatlibError(
                "matlib buffers must be 1-D or 2-D, got shape {}".format(array.shape))
        self.name = str(name)
        self.data = array

    # -- construction helpers --------------------------------------------
    @classmethod
    def zeros(cls, shape: Union[int, Tuple[int, ...]], name: str = "tmp",
              dtype=np.float64) -> "Mat":
        return cls(np.zeros(shape, dtype=dtype), name=name, dtype=dtype)

    def copy(self, name: Optional[str] = None) -> "Mat":
        return Mat(self.data.copy(), name=name or self.name, dtype=self.data.dtype)

    # -- introspection ----------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return int(self.data.size)

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    @property
    def is_vector(self) -> bool:
        return self.data.ndim == 1

    @property
    def is_matrix(self) -> bool:
        return self.data.ndim == 2

    # -- mutation ---------------------------------------------------------
    def assign(self, values) -> "Mat":
        """Overwrite contents in place (shape must match)."""
        array = as_array(values)
        if array.shape != self.data.shape:
            raise MatlibError(
                "assign shape mismatch: buffer {} has shape {}, got {}".format(
                    self.name, self.data.shape, array.shape))
        self.data[...] = array
        return self

    # -- conversions & dunders --------------------------------------------
    def __array__(self, dtype=None) -> np.ndarray:
        if dtype is None:
            return self.data
        return self.data.astype(dtype)

    def __len__(self) -> int:
        return self.data.shape[0]

    def __getitem__(self, index):
        return self.data[index]

    def __setitem__(self, index, value) -> None:
        self.data[index] = value

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        return self.shape == other.shape and bool(np.array_equal(self.data, other.data))

    def __hash__(self) -> int:  # Mats are mutable; identity hash like ndarray
        return id(self)

    def __repr__(self) -> str:
        return "Mat(name={!r}, shape={}, dtype={})".format(
            self.name, self.shape, self.data.dtype.name)


def matrix(rows: Iterable[Iterable[float]], name: str = "tmp", dtype=np.float64) -> Mat:
    """Build a 2-D matlib buffer."""
    mat = Mat(np.array(list(list(r) for r in rows), dtype=dtype), name=name, dtype=dtype)
    if not mat.is_matrix:
        raise MatlibError("matrix() requires a 2-D input")
    return mat


def vector(values: Iterable[float], name: str = "tmp", dtype=np.float64) -> Mat:
    """Build a 1-D matlib buffer."""
    vec = Mat(np.array(list(values), dtype=dtype), name=name, dtype=dtype)
    if not vec.is_vector:
        raise MatlibError("vector() requires a 1-D input")
    return vec


def zeros(shape: Union[int, Tuple[int, ...]], name: str = "tmp", dtype=np.float64) -> Mat:
    """Build a zero-initialized matlib buffer."""
    return Mat.zeros(shape, name=name, dtype=dtype)


def as_array(value) -> np.ndarray:
    """Coerce a Mat or array-like to a numpy array (no copy for ndarray/Mat)."""
    if isinstance(value, Mat):
        return value.data
    return np.asarray(value)
