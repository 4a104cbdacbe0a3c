"""Shared test data and oracles.

The two hand-worked matrices (a 6x6 and a 12x12 3-cyclic example) appear
throughout the suite; their block products, spectra, and zero-chain
lengths are known exactly.  The brute-force partition oracle enumerates
every residue labelling, independent of the potential/gcd method used by
the library.  The entry-by-entry loops for h-cyclicity and circulants,
the row-by-row elimination and the float-by-float JSON renderer are the
references that the library's array and bulk versions must match exactly.
"""

from __future__ import annotations

import itertools
import json
import math
from functools import lru_cache

import numpy as np

from hcyclic import CyclicPartition, Digraph, assemble_blocks


def six_matrix() -> np.ndarray:
    """3-cyclic matrix with classes {1}, {2,3,4}, {5,6} and B_1 = [4]."""
    a = np.zeros((6, 6), dtype=complex)
    a[0, 1] = a[0, 2] = a[0, 3] = 1
    a[1, 4] = 1
    a[2, 5] = 1
    a[3, 4] = a[3, 5] = 1
    a[4, 0] = 1
    a[5, 0] = 1
    return a


SIX_PARTITION = CyclicPartition(3, ((1,), (2, 3, 4), (5, 6)))


def twelve_matrix() -> np.ndarray:
    """3-cyclic matrix with 4+4+4 classes, all-ones top block, and a
    rank-deficient middle block; zero Jordan structure {3, 2, 2, 1, 1}."""
    a12 = np.ones((4, 4))
    a23 = np.array(
        [[1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]], dtype=float
    )
    a31 = np.eye(4)
    return assemble_blocks([a12, a23, a31])


TWELVE_PARTITION = CyclicPartition(
    3, (tuple(range(1, 5)), tuple(range(5, 9)), tuple(range(9, 13)))
)


def bipartite_ones_matrix() -> np.ndarray:
    """Singular bipartite matrix with equal class sizes (converse witness)."""
    return np.array(
        [[0, 0, 1, 1], [0, 0, 1, 1], [1, 1, 0, 0], [1, 1, 0, 0]], dtype=complex
    )


BIPARTITE_PARTITION = CyclicPartition(2, ((1, 2), (3, 4)))


def scale_separated_matrix() -> np.ndarray:
    """2-cyclic matrix with classes {1, 2}, {3}, a_13 = 1e200 and
    a_32 = 1e-200; (1e200 e_1, e_3) is an exact zero chain."""
    a = np.zeros((3, 3), dtype=complex)
    a[0, 2], a[2, 1] = 1e200, 1e-200
    return a


SCALE_SEPARATED_PARTITION = CyclicPartition(2, ((1, 2), (3,)))


def unit_disk(shape, rng) -> np.ndarray:
    """Complex samples uniform on the unit disk."""
    radius = np.sqrt(rng.uniform(0.0, 1.0, shape))
    angle = rng.uniform(0.0, 2 * np.pi, shape)
    return radius * np.exp(1j * angle)


def consecutive_partition(sizes) -> CyclicPartition:
    classes = []
    start = 1
    for s in sizes:
        classes.append(tuple(range(start, start + s)))
        start += s
    return CyclicPartition(len(sizes), tuple(classes))


def random_block_cycle(rng, h=None, max_size=5, equal_sizes=False, nonsingular=False):
    """Random consecutive h-cyclic matrix; returns (matrix, partition).

    With ``nonsingular`` the class sizes are forced equal and instances
    are redrawn (rank judged by SVD, independent of the library) until
    the full matrix is invertible.
    """
    if h is None:
        h = int(rng.integers(2, 7))
    while True:
        if equal_sizes or nonsingular:
            m = int(rng.integers(1, max_size + 1))
            sizes = [m] * h
        else:
            sizes = [int(rng.integers(1, max_size + 1)) for _ in range(h)]
        blocks = [
            unit_disk((sizes[i], sizes[(i + 1) % h]), rng) for i in range(h)
        ]
        a = assemble_blocks(blocks)
        if not nonsingular or np.linalg.matrix_rank(a) == a.shape[0]:
            return a, consecutive_partition(sizes)


@lru_cache(maxsize=None)
def _all_labellings(n: int, h: int) -> np.ndarray:
    return np.array(list(itertools.product(range(h), repeat=n)), dtype=np.int8)


def brute_force_partition_exists(g: Digraph, h: int) -> bool:
    """Exhaustive oracle: does any h-class labelling with nonempty classes
    send every arc from class c to class c+1 mod h?"""
    n = g.n
    if h > n:
        return False
    labels = _all_labellings(n, h)
    ok = np.ones(labels.shape[0], dtype=bool)
    for i, j in g.sorted_arcs:
        ok &= labels[:, j - 1] == (labels[:, i - 1] + 1) % h
    for c in range(h):
        ok &= (labels == c).any(axis=1)
    return bool(ok.any())


def brute_force_is_h_cyclic(a, part: CyclicPartition, tol: float) -> bool:
    """Arc-by-arc oracle: every entry with modulus above ``tol`` must run
    from some class V_c to V_(c mod h + 1)."""
    class_of = {v: c for c, cls in enumerate(part.classes, start=1) for v in cls}
    n = a.shape[0]
    for i in range(n):
        for j in range(n):
            if abs(a[i, j]) > tol and class_of[j + 1] != class_of[i + 1] % part.h + 1:
                return False
    return True


def brute_force_circulant(ref) -> np.ndarray:
    """Circulant with first row ``ref``, filled entry by entry."""
    n = len(ref)
    out = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            out[i, j] = ref[(j - i) % n]
    return out


def brute_force_recognize_circulant(c, tol: float):
    """First row of ``c`` if every entry is within ``tol`` of the first-row
    entry on its wrapped diagonal, else None."""
    n = c.shape[0]
    ref = c[0].copy()
    for i in range(n):
        for j in range(n):
            if abs(c[i, j] - ref[(j - i) % n]) > tol:
                return None
    return ref


def random_partition(rng, n: int, h: int) -> CyclicPartition:
    """Random h-class partition of 1..n with nonempty, generally
    non-consecutive classes."""
    labels = np.concatenate([np.arange(h), rng.integers(0, h, n - h)])
    rng.shuffle(labels)
    return CyclicPartition(h, tuple(tuple(np.flatnonzero(labels == c) + 1) for c in range(h)))


def loop_rref(a: np.ndarray, thr: float) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form with partial pivoting.

    Pivots whose modulus is <= ``thr`` are treated as zero.  Returns the
    reduced matrix and the list of pivot column indices (0-based).
    """
    r = np.array(a, dtype=complex)
    m, n = r.shape
    pivots: list[int] = []
    row = 0
    for col in range(n):
        if row == m:
            break
        p = row + int(np.argmax(np.abs(r[row:, col])))
        if abs(r[p, col]) <= thr:
            continue
        if p != row:
            r[[row, p]] = r[[p, row]]
        r[row] = r[row] / r[row, col]
        r[row, col] = 1.0
        for other in range(m):
            if other != row and r[other, col] != 0:
                r[other] = r[other] - r[other, col] * r[row]
                r[other, col] = 0.0
        pivots.append(col)
        row += 1
    return r, pivots


def loop_render_json(value) -> str:
    """Deterministic JSON text: insertion-ordered keys, floats at 12
    significant digits."""
    parts: list[str] = []
    _loop_render(value, parts)
    return "".join(parts)


def _loop_render(value, parts: list[str]) -> None:
    if isinstance(value, bool):
        parts.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        parts.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        f = float(value)
        if not math.isfinite(f):
            raise ValueError("cannot render non-finite float")
        parts.append(f"{f:.12g}")
    elif value is None:
        parts.append("null")
    elif isinstance(value, str):
        parts.append(json.dumps(value))
    elif isinstance(value, dict):
        parts.append("{")
        for idx, (key, item) in enumerate(value.items()):
            if idx:
                parts.append(", ")
            parts.append(json.dumps(str(key)))
            parts.append(": ")
            _loop_render(item, parts)
        parts.append("}")
    elif isinstance(value, (list, tuple)):
        parts.append("[")
        for idx, item in enumerate(value):
            if idx:
                parts.append(", ")
            _loop_render(item, parts)
        parts.append("]")
    else:
        raise TypeError(f"cannot render {type(value).__name__} as JSON")


# Multiples of tol planted around the arc threshold |a_ij| > tol.
THRESHOLD_FACTORS = (0.5, 1.0, 1.0 + 1e-7, 2.0)


def random_digraph(rng, n=None, density=0.25) -> Digraph:
    if n is None:
        n = int(rng.integers(1, 7))
    arcs = frozenset(
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if rng.uniform() < density
    )
    return Digraph(n=n, arcs=arcs)


def greedy_match(predicted, actual) -> float:
    """Greedily pair each predicted value with the nearest unused actual
    value; returns the largest pairing distance."""
    assert len(predicted) == len(actual)
    remaining = list(actual)
    worst = 0.0
    for z in predicted:
        dists = [abs(z - w) for w in remaining]
        best = int(np.argmin(dists))
        worst = max(worst, dists[best])
        remaining.pop(best)
    return worst


def precise_eigenvalues(a, dps=60) -> list[complex]:
    """Direct eigenvalues at high working precision.

    Double precision smears a defective zero of Jordan depth p to about
    eps**(1/p) (1e-5 for p = 3), so comparisons at 1e-6 need the direct
    multiset computed with enough digits to be meaningful.
    """
    import mpmath as mp

    n = a.shape[0]
    with mp.workdps(dps):
        m = mp.matrix(
            [[mp.mpc(a[i, j].real, a[i, j].imag) for j in range(n)] for i in range(n)]
        )
        return [complex(z) for z in mp.eig(m, left=False, right=False)]


def assert_spectra_match(predicted, a, tol) -> None:
    """Assert the predicted multiset matches the direct eigenvalues of
    ``a`` under greedy matching, upgrading the direct computation to high
    precision when double precision alone cannot resolve the tolerance."""
    actual = list(np.linalg.eigvals(a))
    if greedy_match(predicted, actual) <= tol:
        return
    assert greedy_match(predicted, precise_eigenvalues(a)) <= tol
