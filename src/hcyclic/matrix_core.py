"""Dense complex-matrix primitives shared by the rest of the package.

Everything operates on plain numpy arrays of ``complex128``.  Index sets
for submatrix extraction are 1-based, matching the vertex and class
numbering used by the digraph and block-cycle modules.

Every zero test of the package takes its threshold from :func:`_threshold`,
the one place where the tolerance policy lives.  The kernel uses
Gauss-Jordan elimination with partial pivoting and the pivot threshold
``_threshold(tol, norm_inf(a))``: one array update per pivot, over the rows
with a nonzero multiplier and the columns from the leftmost non-pivot
column on.  The free columns come out bit for bit as a row-by-row loop
leaves them, signed zeros included; the pivot columns hold zeros of either
sign that no caller reads.  The kernel basis is returned in reduced-echelon
"free variable" form, so for matrices with simple rational structure the
basis vectors have the exact rational entries one would compute by hand,
not an orthonormalized recombination of them.  The rank runs the forward
half of the same elimination, with the same pivot decisions, and updates
only the trailing block and the pivot column.

The Weyr weights at zero of a nilpotent integer A rank a few powers of
A, not every one: the nullity of A^k is concave in k, so a run of equal
weights is found by galloping and bisection (:func:`_weyr_weights`),
one exact product per probe.  The powers of a real integer A are formed
in float64 for as long as every product is exact.
Any other A has every power ranked, since the powers of a small nonzero
eigenvalue sink below the pivot threshold and break concavity past the
power where the ranks stop.  A rank sequence that contradicts concavity
raises :class:`NumericalError`.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator

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
    return _checked_matrix(np.asarray(a, dtype=complex))


def _checked_matrix(arr: np.ndarray) -> np.ndarray:
    """``arr`` itself if it is a nonempty 2-D matrix with finite entries, else ValueError."""
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


def _threshold(tol: float, *scales: float, power: int = 1) -> float:
    """The zero threshold ``tol * max(1, s_1)**power * max(1, s_2) * ...``,
    multiplied left to right, with inf where the power overflows.  ``tol``
    must be finite and >= 0 (else ValueError); tol = 0 gives exactly 0."""
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    thr = tol
    for k, scale in enumerate(scales):
        try:
            thr *= max(1.0, scale) ** (power if k == 0 else 1)
        except OverflowError:
            thr *= math.inf
    return 0.0 if tol == 0.0 else thr


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


def _rank(a: np.ndarray, thr: float) -> int:
    """``len(_rref(a, thr)[1])`` by forward elimination alone.

    A pivot search reads only the rows at or below the current row, and
    those rows get the updates of :func:`_rref` element for element: the
    rows with a nonzero multiplier, minus the multiplier times the pivot
    row divided by the pivot.  So every pivot is the same decision, and
    only the trailing block and the pivot column are updated.  The pivot
    column is not read again; it is there so that no update is a single
    element, which numpy multiplies without the fused multiply-add of its
    vector loops, and so rounds unlike :func:`_rref` (seen at tol 0).
    """
    r = np.array(a, dtype=complex)
    m, n = r.shape
    row = 0
    for col in range(n):
        if row == m:
            break
        p = row + int(np.abs(r[row:, col]).argmax())
        pivot = r[p, col]
        if abs(pivot) <= thr:
            continue
        if p != row:
            swap = r[p, col:].copy()
            r[p, col:] = r[row, col:]
            r[row, col:] = swap
        below = row + 1 + r[row + 1:, col].nonzero()[0]
        row += 1
        if len(below):
            r[below, col:] -= np.multiply.outer(r[below, col], r[row - 1, col:] / pivot)
    return row


def matrix_rank(a, tol: float = DEFAULT_TOL) -> int:
    """Numerical rank from row reduction with pivot threshold
    ``tol * max(1, norm_inf(a))``.  A float64 array is checked as it is:
    :func:`_rank` makes its only complex copy."""
    real = isinstance(a, np.ndarray) and a.dtype == np.float64
    am = _checked_matrix(a) if real else as_complex_matrix(a)
    return _rank(am, _threshold(tol, norm_inf(am)))


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
    rref, pivots = _rref(am, _threshold(tol, norm_inf(am)))
    n = am.shape[1]
    basis = []
    for f in sorted(set(range(n)) - set(pivots)):
        v = np.zeros(n, dtype=complex)
        v[f] = 1.0
        v[pivots] = -rref[:len(pivots), f]
        basis.append(v)
    return len(pivots), basis


def _exact_product(x: np.ndarray, y: np.ndarray) -> np.ndarray | None:
    """``x @ y`` for matrices of Gaussian integers, or None when a sum could
    round.  Every partial sum, even with three real products per complex
    one, is an integer of modulus <= 4 n max|x| max|y|, the maxima taken
    over real and imaginary parts: exact while that is <= 2^53."""
    bound = 4.0 * x.shape[1]
    for m in (x, y):
        big = np.abs(m.real).max()
        bound *= float(max(big, np.abs(m.imag).max()) if m.dtype == complex else big)
    return None if bound > 2.0**53 else x @ y


def _nilpotent(am: np.ndarray) -> bool:
    """Whether ``am`` is certainly nilpotent: its entries are Gaussian
    integers and A^(2^s), 2^s >= n, formed by exact squaring
    (:func:`_exact_product`), is zero.  False when the entries are not
    integers or a square could round."""
    if not np.array_equal(am, np.round(am)):
        return False
    p = am
    for _ in range((am.shape[0] - 1).bit_length()):
        p = _exact_product(p, p)
        if p is None:
            return False
    return not p.any()


def _weyr_weights(am: np.ndarray, tol: float) -> tuple[int, ...]:
    """Nullity steps of the powers of the square complex matrix ``am``:
    w_k = nullity(A^k) - nullity(A^(k-1)) while positive.  Their sum is
    the algebraic multiplicity of the eigenvalue zero.

    Powers are formed as ``prev @ am`` along one chain from I and ranked
    one at a time, as a step-by-step loop does, until a weight w repeats.
    From there, if A is certainly nilpotent (:func:`_nilpotent`), the
    search gallops: since the weights never increase, nullity(A^(k+d)) =
    nullity(A^k) + d*w proves every weight in (k, k+d] to be w.  A probe
    at d = 2^i is the one product A^k A^(2^i).  i grows by one after each
    accepted probe and shrinks to keep A^(k+2^i) before the first power
    known to be past the run, so after a probe falls short the search
    bisects.  Only the current square is kept, formed again from A when i
    shrinks.  No power is ranked twice.  A probe is formed only when it is
    exact (:func:`_exact_product`), so it has the bits of any other
    product order; a probe that could round falls short instead.

    While A is real with integer entries, the chain, plain steps and
    probes alike, runs in float64 as long as each product is exact, and
    in complex from the first product that could round.  Exact products
    hold the same integers in either type, so no decision depends on it.

    Only nilpotent A gallops.  A nonzero eigenvalue whose powers sink
    below the pivot threshold adds nullity at powers past the one where
    the loop stops, and a probe there could take that for weight w.  With
    no nonzero eigenvalue the nullity rises until it reaches n, so every
    probe lies within the powers the loop ranks, and the weights equal the
    loop's wherever its ranks are consistent.  A weight above its
    predecessor, or a probe above the linear extrapolation, contradicts
    concavity and raises NumericalError.
    """
    if am.shape[0] != am.shape[1]:
        raise ValueError(f"matrix must be square, got {am.shape}")
    n = am.shape[0]
    real = not am.imag.any() and np.array_equal(am.real, np.round(am.real))
    base = am.real.copy() if real else am  # the factor of exact float64 products
    weights: list[int] = []
    k, power, nullity = 0, np.eye(n, dtype=base.dtype), 0  # the checkpoint A^k
    nilpotent = None  # decided at the first repeated weight
    known: dict[int, int] = {}

    def nullity_of(j: int, p: np.ndarray) -> int:
        # Each power is ranked once: a probe that fell short may be stepped
        # to, or probed again in a later run.
        if j not in known:
            known[j] = n - matrix_rank(p, tol)
        return known[j]

    while nullity < n:
        step = _exact_product(power, base) if power.dtype == np.float64 else None
        if step is None:
            power = power.astype(complex, copy=False)
            step = _finite(power @ am, f"A^{k + 1}")
        new = nullity_of(k + 1, step)
        w = new - nullity
        if w <= 0:
            break
        if weights and w > weights[-1]:
            raise NumericalError(
                f"Weyr weights increase at A^{k + 1} ({weights[-1]} then {w}): "
                "the rank decisions contradict each other")
        weights.append(w)
        k, power, nullity = k + 1, step, new
        if len(weights) < 2 or weights[-2] != w:
            continue
        if nilpotent is None:
            nilpotent = _nilpotent(base)
        if not nilpotent:
            continue
        # Gallop over the run of w: A^k is on it, A^past is known to be past
        # it.  ``square`` is A^(2^s), or None where squaring could round.
        past = k + (n - nullity) // w + 1
        i, s, square = 1, 0, base
        while past - k > 1:
            i = min(i, (past - k - 1).bit_length() - 1)
            if s > i:
                s, square = 0, base
            while square is not None and s < i:
                s, square = s + 1, _exact_product(square, square)
            j = k + 2**i
            probe = None if square is None else _exact_product(power, square)
            new = -1 if probe is None else nullity_of(j, probe)  # -1: falls short
            expect = nullity + (j - k) * w
            if new > expect:
                raise NumericalError(
                    f"nullity of A^{j} is {new}, above {expect} from weight {w} at A^{k}: "
                    "the rank decisions contradict each other")
            if new == expect:
                weights += [w] * (j - k)
                k, power, nullity = j, probe, new
                i += 1
            else:
                past = j
    return tuple(weights)


def _pairs_to_json(values) -> list[list[float]]:
    """``[[re, im], ...]`` for complex values, flattened in row-major order;
    the floats are exactly the parts of each value, signed zeros included."""
    flat = np.ascontiguousarray(values, dtype=complex).reshape(-1)
    return flat.view(np.float64).reshape(-1, 2).tolist()


def _pairs_from_json(data, what: str) -> np.ndarray:
    """Inverse of :func:`_pairs_to_json`: a 1-D complex array from a list
    of finite ``[re, im]`` pairs, or ValueError for anything else
    (including numbers too large for a float).  Each entry has length 2
    and holds two real numbers; a bool or a string is not one, so a JSON
    string or object in place of a pair fails too (it yields strings)."""
    try:
        if set(map(len, data)) - {2}:
            raise ValueError("entries are not [re, im] pairs")
        # One flat list serves the type test and the conversion.
        flat = functools.reduce(operator.iconcat, data, [])
        for kind in set(map(type, flat)) - {float, int}:
            if issubclass(kind, bool) or not issubclass(kind, numbers.Real):
                raise ValueError(f"{kind.__name__} is not a number")
        arr = np.fromiter(flat, np.float64, count=len(flat))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{what} must be a list of [re, im] number pairs: {exc}") from exc
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} entries must be finite")
    return arr.view(complex)


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
