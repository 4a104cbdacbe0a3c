"""Dense complex-matrix primitives shared by the rest of the package.

Everything operates on plain numpy arrays of ``complex128``.  Index sets
for submatrix extraction are 1-based, matching the vertex and class
numbering used by the digraph and block-cycle modules.

Rank and kernel computations use Gauss-Jordan elimination with partial
pivoting and an absolute pivot threshold scaled by the matrix magnitude:
one array update per pivot, over the rows with a nonzero multiplier and
the columns from the leftmost non-pivot column on.  The free columns come
out bit for bit as a row-by-row loop leaves them, signed zeros included;
the pivot columns hold zeros of either sign that no caller reads.  The
kernel basis is returned in reduced-echelon "free variable" form, so for
matrices with simple rational structure the basis vectors have the exact
rational entries one would compute by hand, not an orthonormalized
recombination of them.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_TOL = 1e-9

__all__ = [
    "DEFAULT_TOL",
    "NumericalError",
    "as_complex_matrix",
    "as_complex_vector",
    "norm_inf",
    "hadamard",
    "jordan_block",
    "submatrix",
    "matrix_rank",
    "null_space",
    "matrix_to_json",
    "matrix_from_json",
]


class NumericalError(RuntimeError):
    """A computation violated a tolerance contract that only inconsistent
    input or numerical breakdown can explain."""


def as_complex_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a 2-D complex array, rejecting NaN/Inf entries."""
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"matrix dimensions must be positive, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    return arr


def as_complex_vector(x) -> np.ndarray:
    """Coerce ``x`` to a 1-D complex array, rejecting NaN/Inf entries."""
    vec = np.asarray(x, dtype=complex).reshape(-1)
    if vec.size < 1:
        raise ValueError("vector must be nonempty")
    if not np.all(np.isfinite(vec)):
        raise ValueError("vector entries must be finite")
    return vec


def _modulus(a: np.ndarray) -> np.ndarray:
    """Entrywise modulus rounded exactly as ``abs`` rounds one complex
    scalar; ``np.abs`` on a complex array can differ in the last bit,
    which would move entries lying on a ``> tol`` threshold."""
    return np.hypot(a.real, a.imag)


def norm_inf(a) -> float:
    """Infinity norm: max absolute row sum for matrices, max modulus for vectors."""
    arr = np.asarray(a)
    if arr.ndim <= 1:
        return float(np.max(np.abs(arr))) if arr.size else 0.0
    return float(np.max(np.sum(np.abs(arr), axis=1)))


def _finite(arr: np.ndarray, what: str) -> np.ndarray:
    """``arr`` itself, or NumericalError when forming it overflowed."""
    if not np.all(np.isfinite(arr)):
        raise NumericalError(f"{what} overflowed the floating-point range")
    return arr


def _power_scale(base: float, p: int) -> float:
    """``base ** p`` for a threshold scale, saturating at inf where the
    power itself would raise OverflowError."""
    try:
        return base ** p
    except OverflowError:
        return math.inf


def hadamard(a, b) -> np.ndarray:
    """Entrywise product of two matrices of identical shape."""
    am = as_complex_matrix(a)
    bm = as_complex_matrix(b)
    if am.shape != bm.shape:
        raise ValueError(f"shape mismatch for Hadamard product: {am.shape} vs {bm.shape}")
    return am * bm


def jordan_block(n: int, lam: complex) -> np.ndarray:
    """The n-by-n upper Jordan block: ``lam`` on the diagonal, ones on the
    superdiagonal, zeros elsewhere."""
    if n < 1:
        raise ValueError(f"Jordan block order must be >= 1, got {n}")
    out = np.zeros((n, n), dtype=complex)
    np.fill_diagonal(out, complex(lam))
    for i in range(n - 1):
        out[i, i + 1] = 1.0
    return out


def _as_index_list(idx, n: int, what: str) -> list[int]:
    # Sets carry no order; sort them so extraction is deterministic.
    if isinstance(idx, (set, frozenset)):
        idx = sorted(idx)
    out = [int(i) for i in idx]
    if not out:
        raise ValueError(f"{what} index set must be nonempty")
    for i in out:
        if not 1 <= i <= n:
            raise ValueError(f"{what} index {i} out of range 1..{n}")
    return out


def submatrix(a, rows, cols) -> np.ndarray:
    """Extract the submatrix with 1-based row set ``rows`` and column set
    ``cols``, preserving the order in which indices are given."""
    am = as_complex_matrix(a)
    r = _as_index_list(rows, am.shape[0], "row")
    c = _as_index_list(cols, am.shape[1], "column")
    r0 = np.asarray(r, dtype=int) - 1
    c0 = np.asarray(c, dtype=int) - 1
    return am[np.ix_(r0, c0)]


def _rref(a: np.ndarray, thr: float) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form with partial pivoting.

    Pivots whose modulus is <= ``thr`` are treated as zero.  Returns the
    reduced matrix and the list of pivot column indices (0-based).
    """
    r = np.array(a, dtype=complex)
    m, n = r.shape
    pivots: list[int] = []
    row = 0
    first = n  # leftmost non-pivot column seen so far
    for col in range(n):
        if row == m:
            break
        p = row + int(np.argmax(np.abs(r[row:, col])))
        if abs(r[p, col]) <= thr:
            first = min(first, col)
            continue
        if p != row:
            r[[row, p]] = r[[p, row]]
        # Columns left of ``lo`` are pivot columns, zero in the pivot row.
        lo = min(first, col)
        r[row, lo:] /= r[row, col]
        r[row, col] = 1.0
        others = np.flatnonzero(r[:, col])
        others = others[others != row]
        r[others, lo:] -= np.multiply.outer(r[others, col], r[row, lo:])
        r[others, col] = 0.0
        pivots.append(col)
        row += 1
    return r, pivots


def _pivot_threshold(a: np.ndarray, tol: float) -> float:
    return tol * max(1.0, norm_inf(a))


def matrix_rank(a, tol: float = DEFAULT_TOL) -> int:
    """Numerical rank from row reduction with pivot threshold
    ``tol * max(1, norm_inf(a))``."""
    am = as_complex_matrix(a)
    _, pivots = _rref(am, _pivot_threshold(am, tol))
    return len(pivots)


def null_space(a, tol: float = DEFAULT_TOL) -> tuple[int, list[np.ndarray]]:
    """Numerical rank and kernel basis of ``a``.

    Args:
        a: matrix, square or rectangular.
        tol: zero threshold for pivots, scaled by the matrix magnitude.

    Returns:
        ``(rank, basis)`` where ``basis`` is a list of linearly independent
        vectors spanning the kernel, one per free column of the reduced
        echelon form.  Each basis vector has 1 in its free position and
        the negated echelon entries in the pivot positions, so
        ``rank + len(basis) == a.shape[1]`` always holds and the vectors
        keep whatever rational structure the input had.
    """
    am = as_complex_matrix(a)
    rref, pivots = _rref(am, _pivot_threshold(am, tol))
    n = am.shape[1]
    basis = []
    for f in sorted(set(range(n)) - set(pivots)):
        v = np.zeros(n, dtype=complex)
        v[f] = 1.0
        v[pivots] = -rref[:len(pivots), f]
        basis.append(v)
    return len(pivots), basis


def _weyr_weights(am: np.ndarray, tol: float) -> tuple[int, ...]:
    """Nullity steps of the powers of the square matrix ``am``:
    w_k = nullity(A^k) - nullity(A^(k-1)) while positive.  Their sum is
    the algebraic multiplicity of the eigenvalue zero."""
    if am.shape[0] != am.shape[1]:
        raise ValueError(f"matrix must be square, got {am.shape}")
    n = am.shape[0]
    weights: list[int] = []
    prev_nullity = 0
    power = np.eye(n, dtype=complex)
    for k in range(1, n + 1):
        power = _finite(power @ am, f"A^{k}")
        nullity = n - matrix_rank(power, tol)
        w = nullity - prev_nullity
        if w <= 0:
            break
        weights.append(w)
        prev_nullity = nullity
        if nullity == n:
            break
    return tuple(weights)


def _pairs_to_json(values) -> list[list[float]]:
    """``[[re, im], ...]`` for complex values, flattened in row-major order;
    the floats are exactly the parts of each value, signed zeros included."""
    flat = np.ascontiguousarray(values, dtype=complex).reshape(-1)
    return flat.view(np.float64).reshape(-1, 2).tolist()


# Pairs converted per np.asarray call.  Converting a nested list whole
# takes about twice the result's size in temporary buffers, which for a
# large matrix raises the peak memory of the process.
_DECODE_ROWS = 8192


def _pairs_from_json(data, what: str) -> np.ndarray:
    """Inverse of :func:`_pairs_to_json`: a 1-D complex array from a list
    of finite ``[re, im]`` pairs, or ValueError for anything else
    (including numbers too large for a float)."""
    try:
        n = len(data)
        arr = np.empty((n, 2))
        for start in range(0, n, _DECODE_ROWS):
            rows = np.asarray(data[start:start + _DECODE_ROWS], dtype=np.float64)
            if rows.shape != (min(_DECODE_ROWS, n - start), 2):
                raise ValueError("entries are not [re, im] pairs")
            arr[start:start + _DECODE_ROWS] = rows
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{what} must be a list of [re, im] number pairs: {exc}") from exc
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} entries must be finite")
    return arr.view(complex).reshape(-1)


def _json_int(value, what: str) -> int:
    """``value`` as an int if it is a JSON integer, else ValueError; bools,
    strings and floats (``2.0`` included) are not integers."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def matrix_to_json(a) -> dict:
    """Serialize to ``{"rows": n, "cols": m, "data": [[re, im], ...]}`` with
    row-major ``data``."""
    am = as_complex_matrix(a)
    rows, cols = am.shape
    return {"rows": int(rows), "cols": int(cols), "data": _pairs_to_json(am)}


def matrix_from_json(obj) -> np.ndarray:
    """Parse the matrix JSON schema produced by :func:`matrix_to_json`."""
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON must be an object")
    try:
        rows = _json_int(obj["rows"], "matrix rows")
        cols = _json_int(obj["cols"], "matrix cols")
        data = obj["data"]
    except (KeyError, ValueError) as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from exc
    if rows < 1 or cols < 1:
        raise ValueError(f"matrix dimensions must be positive, got {rows}x{cols}")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise ValueError(f"matrix data must hold {rows * cols} [re, im] pairs")
    return _pairs_from_json(data, "matrix data").reshape(rows, cols)
