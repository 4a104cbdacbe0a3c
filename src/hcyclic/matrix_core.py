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
not an orthonormalized recombination of them.  A rank is the pivot count
of the same row reduction, run forward only.  A threshold whose scale
overflowed raises :class:`NumericalError`.

The Weyr weights at zero of a Gaussian-integer A are exact: one
elimination of [A | I] and a chain of kernels over two prime fields
(:func:`_exact_weyr_weights`), with no power formed or ranked, and each
nullity read in the fields proved over Q by an exact check of the lifted
chain.  Any other A, or one the fields disagree on or the check refuses,
has every power ranked in turn, and a rank sequence whose weights
increase raises :class:`NumericalError`.

A matrix file in the canonical layout is decoded from its text
(:func:`_matrix_from_text`) by one ``json.loads`` of its numbers alone.
Each pair written exactly ``[0.0, 0.0]`` and followed by ``, `` is found
with numpy on the bytes and taken as +0.0 without being parsed: the
value ``json.loads`` reads from that text, so the matrix is bit for bit
the same.  An h-cyclic matrix is zero off its cycle pattern, which holds
at least half of its entries for h >= 2.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import operator
import re

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
    out[range(n - 1), range(1, n)] = 1.0
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


def _rref(a: np.ndarray, thr: float, reduced: bool = True) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form with partial pivoting.

    Pivots whose modulus is <= ``thr`` are treated as zero; an infinite
    ``thr`` (an overflowed scale) or a NaN pivot (left by an overflow; it
    would pass for nonzero) raises NumericalError.  Returns the
    reduced matrix and the list of pivot column indices (0-based).  With
    ``reduced=False`` each pivot updates only the rows below it (forward
    elimination): those rows, the only ones a pivot search reads, take the
    same updates element for element, so the pivots are the same.
    """
    if thr == math.inf:
        raise NumericalError("the pivot threshold overflowed the floating-point range")
    r = np.array(a, dtype=complex)
    m, n = r.shape
    pivots: list[int] = []
    row = 0
    first = n  # leftmost non-pivot column seen so far
    for col in range(n):
        if row == m:
            break
        p = row + int(np.argmax(np.abs(r[row:, col])))
        size = abs(r[p, col])
        if size <= thr:
            first = min(first, col)
            continue
        if math.isnan(size):
            raise NumericalError("the row reduction overflowed the floating-point range")
        if p != row:
            r[[row, p]] = r[[p, row]]
        # Columns left of ``lo`` are pivot columns, zero in the pivot row.
        lo = min(first, col)
        r[row, lo:] /= r[row, col]
        r[row, col] = 1.0
        top = 0 if reduced else row + 1
        others = top + np.flatnonzero(r[top:, col])
        others = others[others != row]
        r[others, lo:] -= np.multiply.outer(r[others, col], r[row, lo:])
        r[others, col] = 0.0
        pivots.append(col)
        row += 1
    return r, pivots


def matrix_rank(a, tol: float = DEFAULT_TOL) -> int:
    """Numerical rank from row reduction with pivot threshold
    ``tol * max(1, norm_inf(a))``."""
    am = as_complex_matrix(a)
    return len(_rref(am, _threshold(tol, norm_inf(am)), reduced=False)[1])


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
        keep whatever rational structure the input had.  An overflowed
        reduction or basis entry raises NumericalError.
    """
    am = as_complex_matrix(a)
    rref, pivots = _rref(am, _threshold(tol, norm_inf(am)))
    free = np.delete(np.arange(am.shape[1]), pivots)
    basis = np.zeros((len(free), am.shape[1]), dtype=complex)
    basis[range(len(free)), free] = 1.0
    basis[:, pivots] = -rref[:len(pivots), free].T
    return len(pivots), list(_finite(basis, "the kernel basis"))


# Two primes p with 500 p^2 < 2^53: a matrix product of residues below p
# over at most _EXACT_ORDER terms is exact in float64.
_PRIMES = np.array([4244333.0, 4244329.0])[:, None, None]
_INVERSE = np.nextafter(1.0 / _PRIMES, np.inf)  # 1/p rounded up
_EXACT_ORDER = 500
_PANEL = 32  # columns per panel of an elimination
_MODULUS = 4244333 * 4244329
_LIFT = math.isqrt(_MODULUS // 2)  # bound of a lifted numerator and denominator


def _reduce(x: np.ndarray) -> np.ndarray:
    """``x mod p`` along the field axis, in place, for integers 0 <= x <
    4p^2: ``floor(x * (1/p rounded up))`` is ``floor(x/p)``, since its
    error is far below 1/p, the least distance from x/p to the next
    integer.  It costs a fraction of ``np.mod`` on large arrays.  For |x|
    <= 500 p^2 the quotient may be one off, leaving [-p, 2p):
    ``_reduce(_reduce(x) + p)``.  The fields are the first ``len(x)``
    primes."""
    quotient = x * _INVERSE[:len(x)]
    np.floor(quotient, out=quotient)
    quotient *= _PRIMES[:len(x)]
    x -= quotient
    return x


def _integer_form(am: np.ndarray) -> np.ndarray | None:
    """A real integer matrix B of order at most 500, with entries of
    modulus below p, whose Weyr weights at zero are those of ``am``, or
    twice them when ``am`` has an imaginary part; None when ``am`` is not
    a Gaussian-integer matrix with such a form.  B is ``am`` divided by the
    gcd of all its parts, and the realification [[Re, -Im], [Im, Re]] of
    that, which is similar to A + conj(A), when it is not real."""
    re, im = am.real, am.imag
    if not (np.array_equal(re, np.round(re)) and np.array_equal(im, np.round(im))):
        return None
    if im.any():
        if 2 * am.shape[0] > _EXACT_ORDER:
            return None
        re = np.block([[re, -im], [im, re]])
    if re.shape[0] > _EXACT_ORDER:
        return None
    bound, big = _PRIMES.min(), np.abs(re).max()
    if big >= bound:
        if big >= 2.0**62:
            return None
        content = float(np.gcd.reduce(re.ravel().astype(np.int64)))
        if big / content >= bound:
            return None
        re = re / content
    return np.ascontiguousarray(re)


def _eliminate(m: np.ndarray, ncols: int, every: bool = False) -> list[int] | None:
    """Gauss-Jordan elimination of each ``m[f]`` modulo the f-th prime, in
    place, with pivots in the first ``ncols`` columns: the k-th pivot row
    is scaled to 1, its column cleared in every other row, and it is moved
    to row k.  Returns the pivot columns, or None when the fields disagree
    (a column holds a pivot in one field and not in another, or in no row
    that all can pivot on) or, with ``every``, at the first column without
    a pivot.

    The pivot columns are taken ``_PANEL`` at a time.  A panel's pivots
    update a copy of the panel, beside an identity column for each pivot
    row, which ends up holding the inverse G of the panel's pivot block.
    The pivot rows right of the panel then become G times themselves, and
    each other row loses its panel entries times them: two matrix products
    per panel in place of one row update per pivot.
    """
    fields, rows, _ = m.shape
    primes = _PRIMES[:fields]
    pivots: list[int] = []
    for start in range(0, ncols, _PANEL):
        stop = min(start + _PANEL, ncols)
        width, first = stop - start, len(pivots)
        # The panel, then a column per pivot row that starts as its identity column.
        work = np.concatenate([m[:, :, start:stop], np.zeros((fields, rows, width))], axis=2)
        # A column that is zero in every row still to pivot stays so.
        live = work[:, first:, :width].any(axis=(0, 1))
        if every and not live.all():
            return None
        for col in np.flatnonzero(live):
            row = len(pivots)
            if row == rows:
                break
            nonzero = work[:, row:, col] != 0
            common = nonzero.all(axis=0)
            i = int(common.argmax())
            if not common[i]:
                if every or nonzero.any():
                    return None
                continue
            if i:
                swap, back = [row, row + i], [row + i, row]
                m[:, swap] = m[:, back]
                work[:, swap] = work[:, back]
            work[:, row, width + row - first] = 1.0
            inverse = [[[pow(int(x), -1, int(p))]] for x, p in zip(work[:, row, col], primes.flat)]
            top = np.mod(work[:, row:row + 1, col:] * inverse, primes)
            work[:, row:row + 1, col:] = top
            others = np.flatnonzero(work[:, :, col].any(axis=0))
            others = others[others != row]
            minus = primes - work[:, others, col:col + 1]  # -multiplier mod p
            work[:, others, col:] = _reduce(work[:, others, col:] + minus * top)
            pivots.append(start + int(col))
        if len(pivots) > first:
            here = slice(first, len(pivots))
            inverse_block = work[:, here, width:width + len(pivots) - first]
            right = stop + np.flatnonzero(m[:, here, stop:].any(axis=(0, 1)))
            pivot_rows = _reduce(_reduce(inverse_block @ m[:, here, right]) + primes)
            factor = m[:, :, pivots[here]]  # the panel before its pivots
            factor[:, here] = 0
            others = np.flatnonzero(factor.any(axis=(0, 2)))[:, None]
            update = factor[:, others[:, 0]] @ pivot_rows
            np.subtract(m[:, others, right], update, out=update)
            _reduce(update)
            update += primes
            m[:, others, right] = _reduce(update)
            m[:, here, right] = pivot_rows
        m[:, :, start:stop] = work[:, :, :width]
    return pivots


def _lift(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The flat indices of the nonzero residues ``x`` of the two fields,
    and for each, integers a and 0 < b <= _LIFT with a = b x modulo both
    primes, or None when some x has no such a/b with |a| <= _LIFT.  The
    extended Euclidean algorithm on pq and x mod pq keeps r = t x mod pq
    and stops at the first r <= _LIFT."""
    at = np.flatnonzero(x.any(axis=0))
    low, high = x.reshape(len(x), -1)[:, at].astype(np.int64)
    p, q = (int(prime) for prime in _PRIMES.flat)
    r1 = low + p * ((high - low) * pow(p, -1, q) % q)  # x mod pq
    r0, t0, t1 = np.full_like(r1, _MODULUS), np.zeros_like(r1), np.ones_like(r1)
    go = np.flatnonzero(r1 > _LIFT)
    while len(go):
        quotient = r0[go] // r1[go]
        r0[go], r1[go] = r1[go], r0[go] - quotient * r1[go]
        t0[go], t1[go] = t1[go], t0[go] - quotient * t1[go]
        go = go[r1[go] > _LIFT]
    if len(at) and np.abs(t1).max() > _LIFT:
        return None
    return at, np.sign(t1) * r1, np.abs(t1)


def _certified(a: np.ndarray, chain: np.ndarray, image: np.ndarray) -> bool:
    """Whether the rows x_j of ``chain`` and their images, the rows of
    ``image`` with A x_j = sum_i G_ji x_i in both fields, lift to rationals
    (:func:`_lift`) for which that holds exactly, over Q, for the integer
    matrix ``a``.  Each row of G is zero from the level of its x_j on, so
    A^k is then zero on the first k levels, and these rows, independent
    modulo p, prove the nullities read in the fields.  The check runs in
    float64 once all are scaled to integers by one common denominator,
    where bounds on the sums keep it exact."""
    lifts = [_lift(chain), _lift(image)]
    if lifts[0] is None or lifts[1] is None:
        return False
    scale = math.lcm(*np.unique(np.concatenate([den[den > 1] for _, _, den in lifts])).tolist())
    if scale >= 2**52:
        return False
    v, g = np.zeros(chain.shape[1:]), np.zeros(image.shape[1:])
    for whole, (at, num, den) in zip((v, g), lifts):
        whole.flat[at] = num * (float(scale) / den)  # integers, exact while below 2^53
    top = np.abs(v).max()
    bound = max(scale * len(a) * max(a.max(), -a.min()), len(g) * np.abs(g).max()) * top
    if bound >= 2.0**52:
        return False
    left = v @ a.T
    left *= scale
    return np.array_equal(left, g @ v)


def _exact_weyr_weights(am: np.ndarray) -> tuple[int, ...] | None:
    """Weyr weights at zero of a Gaussian-integer ``am``, proved exact, or
    None when :func:`_integer_form` declines ``am``, the two prime fields
    disagree (:func:`_eliminate`), or the proof fails.

    Rank n over GF(p) proves B (the integer form) nonsingular, and one
    elimination of B alone in one field finds it.  Otherwise, with K_k =
    ker B^k and R = range B, ker B^(k+1) is the preimage of K_k, so
    w_(k+1) = dim(K_k & R) - dim(K_(k-1) & R).  One elimination of [B | I]
    gives [E | T] with T B = E reduced: the kernel basis of B, the rows N =
    T[r:] with y in R iff N y = 0, and the solution x[pivots] = T[:r] y of
    B x = y.  The chain carries the frontier, w_k vectors that extend
    K_(k-1) to K_k, and an echelon basis of N K_(k-1) with the vectors of
    K_(k-1) it comes from, written over the chain.  Reducing N times the
    frontier against that basis leaves w_(k+1) combinations in R; their
    solutions are the next frontier, and the combinations their images.

    Rank over GF(p) is at most rank over Q, so a field can only overstate
    a nullity; :func:`_certified` proves each one over Q.
    """
    a = _integer_form(am)
    if a is None:
        return None
    n, half = a.shape[0], a.shape[0] // am.shape[0]
    fields = len(_PRIMES)
    m = np.zeros((fields, n, 2 * n))  # [B | I] modulo each prime
    m[:, :, :n] = a
    m[:, :, :n] += _PRIMES
    _reduce(m[:, :, :n])
    if _eliminate(m[:1, :, :n].copy(), n, every=True) is not None:
        return ()
    m[:, np.arange(n), n + np.arange(n)] = 1.0
    pivots = _eliminate(m, n)
    if pivots is None:
        return None
    r, d = len(pivots), n - len(pivots)
    free = np.setdiff1d(np.arange(n), pivots)
    solve = np.zeros((fields, n, n))  # row y to row x
    solve[:, :, pivots] = m[:, :r, n:].transpose(0, 2, 1)
    left = m[:, r:, n:].transpose(0, 2, 1).copy()  # row y to row N y
    kernel = np.mod(-m[:, :r, free].transpose(0, 2, 1), _PRIMES)
    del m
    chain = np.zeros((fields, n, n))  # rows x_j, level by level, from the kernel basis on
    chain[:, np.arange(d), free] = 1.0
    chain[:, :d, pivots] = kernel
    # Row j: B x_j over the rows of ``chain``, in float32, which holds residues exactly.
    image = np.zeros((fields, n, n), dtype=np.float32)
    basis, held = np.zeros((fields, 0, d + n)), []  # rows [N u, u over the chain], reduced at ``held``
    weights, size, w = [], 0, d
    while w:
        weights.append(w)
        work = np.zeros((fields, w, d + n))  # rows [N x, x over the chain] of the frontier
        work[:, :, :d] = np.mod(chain[:, size:size + w] @ left, _PRIMES)
        work[:, np.arange(w), d + size + np.arange(w)] = 1.0
        size += w
        work = np.mod(work - work[:, :, held] @ basis, _PRIMES)
        new = _eliminate(work, d)
        if new is None:
            return None
        c = len(new)
        if c:
            basis = np.mod(basis - basis[:, :, new] @ work[:, :c], _PRIMES)
            basis, held = np.concatenate([basis, work[:, :c]], axis=1), held + new
        w = work.shape[1] - c
        image[:, size:size + w] = work[:, c:, d:]
        y = np.mod(work[:, c:, d:d + size] @ chain[:, :size], _PRIMES)
        chain[:, size:size + w] = np.mod(y @ solve, _PRIMES)
    del solve, left, basis
    if not _certified(a, chain[:, :size], image[:, :size, :size]):
        return None
    return tuple(w // half for w in weights)


def _weyr_weights(am: np.ndarray, tol: float) -> tuple[int, ...]:
    """Nullity steps of the powers of the square complex matrix ``am``:
    w_k = nullity(A^k) - nullity(A^(k-1)) while positive.  Their sum is
    the algebraic multiplicity of the eigenvalue zero.

    A Gaussian-integer A is done exactly (:func:`_exact_weyr_weights`):
    rank over GF(p) is at most rank over Q, so a field can only overstate
    a nullity, and the weights are taken only when both fields make every
    decision alike and the chain that shows them lifts to one that holds
    over Q.  Any other A, and one the fields disagree on or whose chain
    does not lift, has its powers formed one at a time and ranked; a
    weight above its predecessor contradicts the rank decisions and raises
    NumericalError.
    """
    if am.shape[0] != am.shape[1]:
        raise ValueError(f"matrix must be square, got {am.shape}")
    _threshold(tol)  # a bad tol raises also where no threshold is used
    exact = _exact_weyr_weights(am)
    if exact is not None:
        return exact
    n = am.shape[0]
    weights: list[int] = []
    power, nullity = am, 0
    while nullity < n:
        if weights:
            power = _finite(power @ am, f"A^{len(weights) + 1}")
        w = n - matrix_rank(power, tol) - nullity
        if w <= 0:
            break
        if weights and w > weights[-1]:
            raise NumericalError(
                f"Weyr weights increase at A^{len(weights) + 1} ({weights[-1]} then {w}): "
                "the rank decisions contradict each other")
        weights.append(w)
        nullity += w
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


def _matrix_fields(am: np.ndarray) -> dict:
    """The layout of :func:`matrix_to_json` with ``data`` left as the
    complex matrix ``am``."""
    rows, cols = am.shape
    return {"rows": int(rows), "cols": int(cols), "data": am}


def matrix_to_json(a) -> dict:
    """Serialize to ``{"rows": n, "cols": m, "data": [[re, im], ...]}`` with
    row-major ``data``."""
    am = as_complex_matrix(a)
    return {**_matrix_fields(am), "data": _pairs_to_json(am)}


# The canonical matrix text up to the first pair: ``json.dumps`` of
# :func:`matrix_to_json` and ``cli.render_json`` both write it so.
_CANONICAL_HEAD = re.compile(rb'\{"rows": ([1-9][0-9]{0,17}), "cols": ([1-9][0-9]{0,17}), "data": \[')
_NUMBER_OR_SPACE = b"0123456789+-.eE \t\n\r"
_BRACKETS_TO_SPACES = bytes.maketrans(b"[]}", b"   ")
# A pair of +0.0 as ``json.dumps`` writes it, with the separator after it,
# read as one little-endian 8-byte and one 4-byte word.
_ZERO_PAIR = b"[0.0, 0.0], "
_ZERO_HEAD = int.from_bytes(_ZERO_PAIR[:8], "little")
_ZERO_TAIL = int.from_bytes(_ZERO_PAIR[8:], "little")


def _without_zero_pairs(body: bytes, pairs: int) -> tuple[bytes, np.ndarray]:
    """``body`` with the 11 bytes after the ``[`` of each pair written
    exactly ``[0.0, 0.0], `` deleted, and which of the ``pairs`` pairs those
    are.  Each ``[`` is a pair opening, since the skeleton holds one per
    pair and the head takes the outer one.  The temporaries are freed on
    the way out, before the caller parses what is left."""
    n = len(body)
    buf = np.frombuffer(body, np.uint8)
    opens = np.flatnonzero(buf == ord("["))
    opens = opens[:np.searchsorted(opens, n - 11)]  # the pairs with 12 bytes to test
    zero = np.zeros(pairs, bool)
    hit = zero[:len(opens)]
    # One unaligned word of each width at every opening.
    np.equal(np.ndarray((n - 11,), "<u8", body, 0, (1,))[opens], _ZERO_HEAD, out=hit)
    hit &= np.ndarray((n - 11,), "<u4", body, 8, (1,))[opens] == _ZERO_TAIL
    keep = np.ones(n, bool)
    np.ndarray((n - 11, 11), bool, keep, 1, (1, 1))[opens[hit]] = False
    del opens, hit
    return buf[keep].tobytes(), zero


def _matrix_from_text(text: bytes) -> np.ndarray | None:
    """The matrix of the canonical text ``{"rows": R, "cols": C, "data":
    [[re, im], ...]}``, decoded as :func:`matrix_from_json` decodes
    ``json.loads(text)``; None for any other text, valid or not, which
    the caller decodes that way.

    With the number characters and JSON whitespace deleted, what follows
    the head must read ``[,],`` R*C times, its last comma replaced by
    ``]}``.  That proves the pair structure and leaves no room for a
    bool, null, string or nested value.  Each pair then written exactly
    ``[0.0, 0.0], `` is taken as +0.0 and cut from the text but for its
    ``[`` (:func:`_without_zero_pairs`); ``-0.0``, ``0``, any other
    spelling and the last pair stay for the parser.  Turning the brackets
    into spaces leaves one flat list of numbers for ``json.loads``, the
    same number parser, so ``01``, ``+1`` or ``1.`` fails there and
    ``1e400`` is caught by the finite test.  A number character outside
    the pairs, which the skeleton does not see, is left standing apart
    from its neighbour (a cut pair leaves its ``[`` between them), so
    ``json.loads`` fails on it rather than gluing it onto a number,
    unless it fills an empty slot of the pair beside it (``[[1, ]7]``
    reads as 1+7j).  A list of other than two numbers per parsed pair is
    declined.  Lengths are compared before the expected text is built,
    so a header that claims more entries than the text holds costs
    nothing."""
    head = _CANONICAL_HEAD.match(text)
    if head is None:
        return None
    rows, cols = int(head[1]), int(head[2])
    body = text[head.end():]
    skeleton = body.translate(None, _NUMBER_OR_SPACE)
    if len(skeleton) != 4 * rows * cols + 1 or skeleton != b"[,]," * (rows * cols - 1) + b"[,]]}":
        return None
    zero = None
    if _ZERO_PAIR in body:
        body, zero = _without_zero_pairs(body, rows * cols)
    numbers = b"[" + body.translate(_BRACKETS_TO_SPACES) + b"]"
    del body
    try:
        values = json.loads(numbers)
        arr = np.fromiter(values, np.float64, count=len(values))
    except (ValueError, OverflowError):  # a malformed number, or an int beyond float
        return None
    parsed = rows * cols if zero is None else rows * cols - np.count_nonzero(zero)
    if len(arr) != 2 * parsed or not np.all(np.isfinite(arr)):
        return None
    if zero is None:
        return arr.view(complex).reshape(rows, cols)
    out = np.zeros(rows * cols, complex)
    out[~zero] = arr.view(complex)
    return out.reshape(rows, cols)


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
