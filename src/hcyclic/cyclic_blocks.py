"""Block-cycle algebra of h-cyclic matrices.

A matrix that is h-cyclic with consecutive partition (V_1, ..., V_h)
carries all of its content in the blocks A_{i,i+1} = A(V_i, V_{i+1}),
with A_{h,1} closing the cycle.  The h-th power is block diagonal with
the cycle products B_i on the diagonal, and the spectrum is the h-th
roots of the nonzero eigenvalues of B_1 together with the matching
count of zeros (Mirsky's theorem).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .digraph import CyclicPartition, is_h_cyclic
from .matrix_core import (
    DEFAULT_TOL,
    NumericalError,
    _finite,
    _power_scale,
    _weyr_weights,
    as_complex_matrix,
    matrix_rank,
    norm_inf,
    submatrix,
)

__all__ = [
    "BlockCycle",
    "SpectrumPrediction",
    "StructureReport",
    "extract_blocks",
    "assemble_blocks",
    "partial_product",
    "block_diagonal_power",
    "mirsky_spectrum",
    "nonsingular_structure_check",
]


@dataclass(frozen=True)
class BlockCycle:
    """The h cycle blocks of an h-cyclic matrix.

    ``blocks[i - 1]`` is A_{i,i+1} of shape |V_i| x |V_{i+1}| (indices mod
    h, so the last entry is the corner block A_{h,1}).
    """

    h: int
    sizes: tuple[int, ...]
    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.h < 1 or len(self.blocks) != self.h or len(self.sizes) != self.h:
            raise ValueError("block cycle needs exactly h sizes and h blocks")
        blocks = tuple(as_complex_matrix(b) for b in self.blocks)
        for b in blocks:
            b.flags.writeable = False
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        for i, b in enumerate(blocks):
            nxt = blocks[(i + 1) % self.h]
            if b.shape[0] != self.sizes[i] or b.shape[1] != nxt.shape[0]:
                raise ValueError(
                    f"block {i + 1} has shape {b.shape}, inconsistent with the cycle"
                )

    @property
    def n(self) -> int:
        return sum(self.sizes)


def _cycle_blocks(a: np.ndarray, part: CyclicPartition) -> BlockCycle:
    # Submatrix extraction by class index sets; valid for any partition,
    # consecutive or not, because classes are kept in ascending vertex order.
    blocks = tuple(
        submatrix(a, part.classes[i - 1], part.classes[part.alpha(i) - 1])
        for i in range(1, part.h + 1)
    )
    return BlockCycle(h=part.h, sizes=part.sizes, blocks=blocks)


def _checked_cycle(a, part: CyclicPartition, tol: float) -> tuple[np.ndarray, BlockCycle]:
    """``a`` as a complex matrix plus its cycle blocks, after the one
    h-cyclicity check that every block-cycle entry point needs."""
    am = as_complex_matrix(a)
    if not is_h_cyclic(am, part, tol):
        raise ValueError("matrix is not h-cyclic for the given partition")
    return am, _cycle_blocks(am, part)


def extract_blocks(a, part: CyclicPartition, tol: float = DEFAULT_TOL) -> BlockCycle:
    """Cycle blocks of an h-cyclic matrix in consecutive form.

    Requires ``part`` to be consecutive and ``a`` h-cyclic with respect to
    it (which already guarantees that everything outside the block pattern
    is below tolerance).
    """
    if not part.is_consecutive:
        raise ValueError("partition must be consecutive; relabel first")
    return _checked_cycle(a, part, tol)[1]


def assemble_blocks(blocks) -> np.ndarray:
    """Inverse of :func:`extract_blocks`: place cycle blocks into the
    consecutive h-cyclic form and return the full matrix."""
    mats = [as_complex_matrix(b) for b in blocks]
    h = len(mats)
    if h < 1:
        raise ValueError("need at least one block")
    sizes = [b.shape[0] for b in mats]
    for i, b in enumerate(mats):
        if b.shape[1] != sizes[(i + 1) % h]:
            raise ValueError(f"block {i + 1} does not chain with its successor")
    n = sum(sizes)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    out = np.zeros((n, n), dtype=complex)
    for i, b in enumerate(mats):
        j = (i + 1) % h
        out[offsets[i]:offsets[i + 1], offsets[j]:offsets[j + 1]] = b
    return out


def partial_product(bc: BlockCycle, i: int, p: int) -> np.ndarray:
    """Product of the last p blocks of the cycle through class i.

    This is A_{u,alpha(u)} ... A_{alpha^{-1}(i),i} with p factors, a matrix
    mapping coordinates of V_i into those of V_{alpha^{-p}(i)}.  For p = h
    it is the full cycle product B_i, square of order |V_i|.
    """
    h = bc.h
    if not 1 <= i <= h:
        raise ValueError(f"class index {i} out of range 1..{h}")
    if not 1 <= p <= h:
        raise ValueError(f"partial length {p} out of range 1..{h}")
    result: np.ndarray | None = None
    for j in range(h + 1 - p, h + 1):
        u = (i - 1 + (j - 1)) % h  # alpha^(j-1)(i), 0-based
        factor = bc.blocks[u]
        result = factor if result is None else result @ factor
    assert result is not None
    return _finite(result, f"product of {p} cycle blocks through class {i}")


def block_diagonal_power(a, part: CyclicPartition, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Diagonal blocks (B_1, ..., B_h) of A^h, computed directly.

    A^h of a consecutive h-cyclic matrix is block diagonal; this verifies
    that the off-diagonal blocks vanish and that each diagonal block
    matches the corresponding cycle product, at a threshold scaled by
    ``norm_inf(a) ** h`` (inf when that overflows).  A violation, or an
    A^h that overflows, raises :class:`NumericalError`, signalling
    inconsistent input or numerical breakdown.
    """
    if not part.is_consecutive:
        raise ValueError("partition must be consecutive; relabel first")
    am, bc = _checked_cycle(a, part, tol)
    h = part.h
    power = _finite(np.linalg.matrix_power(am, h), "A^h")
    thr = tol * _power_scale(max(1.0, norm_inf(am)), h)
    labels = part._labels
    resid = float(np.max(np.abs(power[labels[:, None] != labels[None, :]]), initial=0.0))
    if resid > thr:
        raise NumericalError(f"off-diagonal blocks of A^h have residual {resid:.3e}")
    offsets = np.concatenate([[0], np.cumsum(part.sizes)])
    out = []
    for i in range(h):
        diag = power[offsets[i]:offsets[i + 1], offsets[i]:offsets[i + 1]]
        expected = partial_product(bc, i + 1, h)
        resid = float(np.max(np.abs(diag - expected)))
        if resid > thr:
            raise NumericalError(
                f"diagonal block {i + 1} of A^h deviates from the cycle product by {resid:.3e}"
            )
        out.append(diag)
    return out


@dataclass(frozen=True)
class SpectrumPrediction:
    """Spectrum of an h-cyclic matrix read off its first cycle product.

    ``zero_count`` zeros plus, for each nonzero eigenvalue of B_1, the
    orbit of its h h-th roots (consecutive roots differ by the factor
    exp(2*pi*i/h), so each orbit is closed under that rotation).
    """

    zero_count: int
    root_orbits: tuple[tuple[complex, ...], ...]

    def multiset(self) -> list[complex]:
        """All predicted eigenvalues: zeros first, then orbit by orbit."""
        values = [0j] * self.zero_count
        for orbit in self.root_orbits:
            values.extend(orbit)
        return values


def _hth_roots(lam: complex, h: int) -> tuple[complex, ...]:
    # Principal argument in (-pi, pi]; roots listed by increasing branch k.
    radius = abs(lam) ** (1.0 / h)
    theta = cmath.phase(lam)
    return tuple(
        radius * cmath.exp(1j * (theta + 2 * cmath.pi * k) / h) for k in range(h)
    )


def mirsky_spectrum(a, part: CyclicPartition, tol: float = DEFAULT_TOL) -> SpectrumPrediction:
    """Predicted spectrum: n - h*m zeros and the h-th roots of the m
    nonzero eigenvalues of the cycle product B_1, where m = |V_1| minus the
    multiplicity of zero in B_1 read off the ranks of its powers."""
    bc = _checked_cycle(a, part, tol)[1]
    b1 = partial_product(bc, 1, part.h)
    # A defective zero of B_1 comes out of eigvals as a cluster of radius
    # about eps^(1/p), so its multiplicity is taken from the rank sequence.
    m = b1.shape[0] - sum(_weyr_weights(b1, tol))
    eigs = sorted((complex(z) for z in np.linalg.eigvals(b1)), key=lambda z: (-abs(z), cmath.phase(z)))
    zero_count = part.n - part.h * m
    if zero_count < 0:
        raise NumericalError(
            "nonzero eigenvalue count exceeds what the block sizes allow; "
            "tolerance is misclassifying zeros"
        )
    orbits = tuple(_hth_roots(lam, part.h) for lam in eigs[:m])
    return SpectrumPrediction(zero_count=zero_count, root_orbits=orbits)


@dataclass(frozen=True)
class StructureReport:
    singular: bool
    singular_blocks: tuple[int, ...]
    sizes_equal: bool
    h_divides_n: bool


def nonsingular_structure_check(a, part: CyclicPartition, tol: float = DEFAULT_TOL) -> StructureReport:
    """Singularity and size structure of an h-cyclic matrix.

    The matrix is singular exactly when some cycle product B_i is rank
    deficient.  A nonsingular h-cyclic matrix must have equal class sizes,
    hence h | n; that implication is asserted here because only a
    misclassified rank can break it.
    """
    bc = _checked_cycle(a, part, tol)[1]
    singular_blocks = []
    for i in range(1, part.h + 1):
        b = partial_product(bc, i, part.h)
        if matrix_rank(b, tol) < b.shape[0]:
            singular_blocks.append(i)
    singular = bool(singular_blocks)
    sizes_equal = len(set(part.sizes)) == 1
    h_divides_n = part.n % part.h == 0
    if not singular and not (sizes_equal and h_divides_n):
        raise NumericalError(
            "all cycle products look nonsingular yet class sizes are unequal; "
            "rank tolerance is inconsistent"
        )
    return StructureReport(
        singular=singular,
        singular_blocks=tuple(singular_blocks),
        sizes_equal=sizes_equal,
        h_divides_n=h_divides_n,
    )
