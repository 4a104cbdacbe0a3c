"""Jordan chains of h-cyclic matrices.

Chain conventions
-----------------
A right chain (x_1, ..., x_p) at eigenvalue lam satisfies

    A x_1 = lam x_1,    A x_j = lam x_j + x_{j-1}   (1 < j <= p).

A left chain (y_1, ..., y_p) uses the transposed recursion in the order
of the rows of S^{-1} in a similarity S J S^{-1}:

    y_p^T A = lam y_p^T,    y_j^T A = lam y_j^T + y_{j+1}^T   (j < p),

so y_p is the left eigenvector and y_1 the deepest generalized vector.
Transposes are plain transposes without conjugation throughout.

Rotation
--------
For an h-cyclic matrix, scaling class block i of chain vector j by
(w^k)^((i-j) mod h) (right chains; (j-i) mod h for left chains) turns a
chain at lam into a chain at lam*w^k, where w = exp(2*pi*i/h).
Conversely, base chains whose rotated families are biorthonormal
determine an h-cyclic matrix: :func:`reconstruct_from_chains`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circulant import omega_pow
from .cyclic_blocks import _checked_cycle, _cycle_blocks, partial_product
from .digraph import CyclicPartition, _block_mask
from .matrix_core import (
    DEFAULT_TOL,
    NumericalError,
    _finite,
    _pairs_from_json,
    _pairs_to_json,
    _threshold,
    _weyr_weights,
    as_complex_matrix,
    as_complex_vector,
    jordan_block,
    hadamard,
    matrix_rank,
    norm_inf,
    null_space,
)

__all__ = [
    "JordanChain",
    "ZeroChainReport",
    "ZeroChainSummary",
    "WeyrCharacteristic",
    "verify_chain",
    "rotate_right_chain",
    "rotate_left_chain",
    "embed_null_vector",
    "zero_chain_from_null_vector",
    "zero_chains_all",
    "weyr_zero",
    "reconstruct_from_chains",
    "chain_to_json",
    "chain_from_json",
]


@dataclass(frozen=True)
class JordanChain:
    """Eigenvalue plus ordered chain vectors, right- or left-oriented."""

    eigenvalue: complex
    orientation: str
    vectors: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.orientation not in ("right", "left"):
            raise ValueError(f"orientation must be 'right' or 'left', got {self.orientation!r}")
        vecs = tuple(as_complex_vector(v).copy() for v in self.vectors)
        if not vecs:
            raise ValueError("a Jordan chain needs at least one vector")
        order = vecs[0].size
        for v in vecs:
            if v.size != order:
                raise ValueError("all chain vectors must have the same length")
            v.flags.writeable = False
        object.__setattr__(self, "vectors", vecs)
        object.__setattr__(self, "eigenvalue", complex(self.eigenvalue))

    @property
    def length(self) -> int:
        return len(self.vectors)

    @property
    def order(self) -> int:
        return self.vectors[0].size


def verify_chain(a, chain: JordanChain, tol: float = DEFAULT_TOL) -> bool:
    """Check the chain recursion, linear independence, and the power form
    of the chain against matrix ``a``.

    Right chains must satisfy A x_j = lam x_j + x_{j-1} and the redundant
    closed form x_k = (A - lam I)^(p-k) x_p; left chains the transposed
    versions.  Residuals are measured against
    ``tol * max(1, ||A||_inf) * max(1, max_j ||x_j||_inf)``; a residual
    that overflows raises NumericalError.
    """
    am = as_complex_matrix(a)
    if am.shape[0] != am.shape[1]:
        raise ValueError(f"matrix must be square, got {am.shape}")
    if chain.order != am.shape[0]:
        raise ValueError(
            f"chain vectors have length {chain.order} but matrix has order {am.shape[0]}"
        )
    return _verify_chain(am, norm_inf(am), chain, tol)


def _verify_chain(am: np.ndarray, na: float, chain: JordanChain, tol: float) -> bool:
    # :func:`verify_chain` for a checked square ``am`` of the chain's order
    # with ``na = norm_inf(am)``.
    lam = chain.eigenvalue
    p = chain.length
    # A left chain (y_1, ..., y_p) of A is the right chain (y_p, ..., y_1)
    # of A^T; the thresholds stay scaled by ||A||_inf, not ||A^T||_inf.
    if chain.orientation == "right":
        op, vecs = am, chain.vectors
    else:
        op, vecs = am.T, chain.vectors[::-1]
    thr = _threshold(tol, na, max(norm_inf(v) for v in vecs))
    for j in range(p):
        coupled = vecs[j - 1] if j > 0 else 0.0
        residual = _finite(op @ vecs[j] - lam * vecs[j] - coupled, "chain residual")
        if norm_inf(residual) > thr:
            return False

    # Independence is judged on unit vectors, so vectors of very different
    # scale are not taken for dependent.
    if matrix_rank(np.column_stack([v / (norm_inf(v) or 1.0) for v in chain.vectors]), tol) != p:
        return False

    # Redundant power form, iterated with the shifted matrix (A itself at
    # lam = 0, which is what subtracting 0 gives bit for bit).
    shifted = op if lam == 0 else op - lam * np.eye(am.shape[0])
    z = vecs[p - 1]
    for k in range(p, 0, -1):
        step_thr = _threshold(tol, na + abs(lam), norm_inf(vecs[p - 1]), power=p - k)
        if norm_inf(_finite(z - vecs[k - 1], "power-form residual")) > step_thr:
            return False
        z = shifted @ z
    return True


def _rotated(vectors: np.ndarray, part: CyclicPartition, k: int, orientation: str) -> np.ndarray:
    # The p x n array of chain vectors rotated by w^k.  Class i of vector j
    # scales by (w^k)^e with e = (i - j) mod h for right chains and
    # (j - i) mod h for left ones; the h factors are looked up.  A rotated
    # entry near the float limit can overflow (NumericalError).
    sign = 1 if orientation == "right" else -1
    factors = np.array([omega_pow(part.h, k, e) for e in range(part.h)])
    j = np.arange(1, len(vectors) + 1)[:, None]
    rotated = vectors * factors[sign * (part._labels + 1 - j) % part.h]
    return _finite(rotated, "rotated chain vector")


def _rotate(chain: JordanChain, part: CyclicPartition, k: int, orientation: str) -> JordanChain:
    if chain.orientation != orientation:
        raise ValueError(f"rotate_{orientation}_chain needs a {orientation}-oriented chain")
    if chain.order != part.n:
        raise ValueError("chain vector length does not match the partition")
    return JordanChain(
        eigenvalue=_finite(chain.eigenvalue * omega_pow(part.h, k, 1), "rotated eigenvalue"),
        orientation=orientation,
        vectors=tuple(_rotated(np.array(chain.vectors), part, k, orientation)),
    )


def rotate_right_chain(chain: JordanChain, part: CyclicPartition, k: int) -> JordanChain:
    """Right chain at lam*w^k obtained by scaling class block i of chain
    vector j by (w^k)^((i-j) mod h)."""
    return _rotate(chain, part, k, "right")


def rotate_left_chain(chain: JordanChain, part: CyclicPartition, k: int) -> JordanChain:
    """Left chain at lam*w^k; block i of vector j scales by (w^k)^((j-i) mod h)."""
    return _rotate(chain, part, k, "left")


def embed_null_vector(x, i: int, part: CyclicPartition) -> np.ndarray:
    """Scatter a class-i coordinate vector into a full vector that is zero
    on every other class."""
    xv = as_complex_vector(x)
    if not 1 <= i <= part.h:
        raise ValueError(f"class index {i} out of range 1..{part.h}")
    members = part.classes[i - 1]
    if xv.size != len(members):
        raise ValueError(
            f"vector has length {xv.size} but class {i} has {len(members)} vertices"
        )
    out = np.zeros(part.n, dtype=complex)
    out[np.asarray(members) - 1] = xv
    return out


@dataclass(frozen=True)
class ZeroChainReport:
    """One zero-eigenvalue chain grown from a kernel vector of a cycle product."""

    class_index: int
    seed: np.ndarray
    chain: JordanChain

    def __post_init__(self):
        seed = as_complex_vector(self.seed).copy()
        seed.flags.writeable = False
        object.__setattr__(self, "seed", seed)

    @property
    def length(self) -> int:
        return self.chain.length


def zero_chain_from_null_vector(
    a,
    part: CyclicPartition,
    i: int,
    x,
    tol: float = DEFAULT_TOL,
) -> ZeroChainReport:
    """Zero-eigenvalue Jordan chain grown from x in the kernel of B_i.

    Embeds x into class i, then applies the matrix until the vector dies;
    the minimal p <= h with A^p v = 0 is the chain length, and the chain
    is (A^{p-1} v, ..., A v, v).  A^q v is the partial product B_iq x
    placed on class alpha^{-q}(i), so the walk measures those rows only
    and finds the block-level minimality of p; the chain is then verified
    against A.
    """
    am = _checked_cycle(a, part, tol)
    xv = as_complex_vector(x)
    if norm_inf(xv) == 0.0:
        raise ValueError("seed vector must be nonzero")
    b_i = partial_product(_cycle_blocks(am, part), i, part.h)
    return _zero_chain(am, norm_inf(am), part, i, b_i, xv, tol)


def _zero_chain(am: np.ndarray, na: float, part: CyclicPartition, i: int,
                b_i: np.ndarray, xv: np.ndarray, tol: float,
                not_kernel=ValueError) -> ZeroChainReport:
    # ``am`` is h-cyclic for ``part``, ``na = norm_inf(am)``, and ``b_i``
    # is its cycle product B_i.  A seed outside the kernel is bad input,
    # or, for a basis vector that null_space returned, a NumericalError
    # (``not_kernel``).
    if norm_inf(_finite(b_i @ xv, f"B_{i} x")) > _threshold(tol, norm_inf(b_i), norm_inf(xv)):
        raise not_kernel(f"seed vector is not in the kernel of cycle product B_{i}")

    v = embed_null_vector(xv, i, part)
    nx = norm_inf(xv)
    powers = [v]
    for q in range(1, part.h + 1):
        w = am @ powers[-1]
        # The rows of class alpha^{-q}(i) hold B_iq x; off-pattern entries
        # below tol elsewhere must not keep the walk alive.
        rows = np.asarray(part.classes[(i - 1 - q) % part.h]) - 1
        if norm_inf(w[rows]) <= _threshold(tol, na, nx, power=q):
            break
        powers.append(w)
    else:
        raise NumericalError(
            f"A^q v stayed nonzero for all q <= h; kernel membership of the seed "
            f"is numerically inconsistent (class {i})"
        )

    chain = JordanChain(eigenvalue=0j, orientation="right", vectors=tuple(reversed(powers)))
    if not _verify_chain(am, na, chain, tol):
        raise NumericalError(f"constructed zero chain fails verification (class {i})")
    return ZeroChainReport(class_index=i, seed=xv, chain=chain)


@dataclass(frozen=True)
class WeyrCharacteristic:
    """Weights w_k = nullity(A^k) - nullity(A^(k-1)) until stationary.

    The conjugate partition of the (weakly decreasing) weights is the
    multiset of singular Jordan block sizes.
    """

    weights: tuple[int, ...]

    def conjugate(self) -> tuple[int, ...]:
        """Singular Jordan block sizes, largest first."""
        if not self.weights:
            return ()
        return tuple(
            sum(1 for w in self.weights if w >= j) for j in range(1, self.weights[0] + 1)
        )


def weyr_zero(a, tol: float = DEFAULT_TOL) -> WeyrCharacteristic:
    """Weyr characteristic of ``a`` at the eigenvalue zero (empty for a
    nonsingular matrix)."""
    return WeyrCharacteristic(weights=_weyr_weights(as_complex_matrix(a), tol))


@dataclass(frozen=True)
class ZeroChainSummary:
    """Zero chains grown from every kernel basis vector of every singular
    cycle product, plus the Weyr characteristic as ground truth.

    Chains from different classes can describe the same Jordan blocks, so
    ``cross_class_redundancy`` flags when more than one class contributed;
    the conjugate of ``weyr`` is the authoritative block-size multiset.
    """

    reports: tuple[ZeroChainReport, ...]
    weyr: WeyrCharacteristic
    cross_class_redundancy: bool

    @property
    def zero_block_sizes(self) -> tuple[int, ...]:
        return self.weyr.conjugate()

    def by_class(self) -> dict[int, list[ZeroChainReport]]:
        out: dict[int, list[ZeroChainReport]] = {}
        for rep in self.reports:
            out.setdefault(rep.class_index, []).append(rep)
        return out

    def lengths_by_class(self) -> dict[int, list[int]]:
        return {i: [r.length for r in reps] for i, reps in self.by_class().items()}


def zero_chains_all(a, part: CyclicPartition, tol: float = DEFAULT_TOL) -> ZeroChainSummary:
    """Zero chains for each class whose cycle product is singular, one per
    kernel basis vector, in class order."""
    am = _checked_cycle(a, part, tol)
    bc = _cycle_blocks(am, part)
    na = norm_inf(am)
    weyr = weyr_zero(am, tol)
    reports: list[ZeroChainReport] = []
    for i, size in enumerate(part.sizes, start=1):
        # B_i is singular exactly when |V_i| > m, with h*m = n - sum(weyr)
        # (cyclic_blocks._smallest_product); no other B_i is formed.
        if part.h * size <= part.n - sum(weyr.weights):
            continue
        b_i = partial_product(bc, i, part.h)
        for vec in null_space(b_i, tol)[1]:
            reports.append(_zero_chain(am, na, part, i, b_i, vec, tol, NumericalError))
    return ZeroChainSummary(
        reports=tuple(reports),
        weyr=weyr,
        cross_class_redundancy=len({r.class_index for r in reports}) > 1,
    )


def reconstruct_from_chains(
    right_chains,
    left_chains,
    part: CyclicPartition,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Assemble the h-cyclic matrix determined by rotation-symmetric chains.

    Args:
        right_chains: one base right chain per root-of-unity orbit; at each
            lam*w^k the orbit has a Jordan block of the chain's length, lam
            the chain's eigenvalue.
        left_chains: the matching base left chains (rows of the inverse
            similarity, in S J S^{-1} order), at the same eigenvalues and
            of the same lengths.
        part: target partition; h and the class blocks drive the rotations.
        tol: residual threshold for the biorthogonality hypothesis.

    The rotated families must be biorthonormal, which holds iff
    h Y_c X_c^T = I on every class c, X_c and Y_c the class-c entries of
    the stacked base right and left vectors; else ValueError.  The result,
    S J S^{-1} of the rotated families, is h X^T J_0 Y (J_0 the base Jordan
    blocks) on the cycle pattern and zero off it.  A synthesized entry
    beyond the float range, or a residual above ``tol`` whose scale
    h |Y_c| |X_c|^T overflows, raises NumericalError.
    """
    rights, lefts = list(right_chains), list(left_chains)
    if len(rights) != len(lefts):
        raise ValueError("right_chains and left_chains must align one-to-one")
    if not rights:
        raise ValueError("need at least one base eigenvalue")
    h, n = part.h, part.n
    for rc, lc in zip(rights, lefts):
        if rc.orientation != "right" or lc.orientation != "left":
            raise ValueError("chain orientations must be (right, left) per eigenvalue")
        if lc.eigenvalue != rc.eigenvalue or lc.length != rc.length:
            raise ValueError(f"left chain at {lc.eigenvalue} does not match its right chain")
        if rc.order != n or lc.order != n:
            raise ValueError("chain vectors must match the partition order")
    total = h * sum(rc.length for rc in rights)
    if total != n:
        raise ValueError(f"rotated chain system has {total} vectors but the matrix order is {n}")

    # Row r of x, y and j0 belongs to vector j of one orbit.
    x, y = (np.array([v for c in chains for v in c.vectors]) for chains in (rights, lefts))
    j0 = np.zeros((len(x), len(x)), dtype=complex)
    pos = 0
    for rc in rights:
        j0[pos:pos + rc.length, pos:pos + rc.length] = jordan_block(rc.length, rc.eigenvalue)
        pos += rc.length
    # Left vector j' rotated by w^k' meets right vector j rotated by w^k on
    # class c with the factor w^(k'j' - kj) w^((k - k')c); summed over c,
    # that is the identity for all k, k' iff h Y_c X_c^T = I for every c.
    blocks = [(y[:, np.asarray(cls) - 1], x[:, np.asarray(cls) - 1]) for cls in part.classes]
    resid = float(np.max([np.abs(h * (yc @ xc.T) - np.eye(len(x))) for yc, xc in blocks]))
    # h |Y_c| |X_c|^T bounds the rounding; it is inf, or nan from inf * 0,
    # where a modulus leaves the float range.  A residual within tol passes
    # at any scale, and one above it cannot be judged against an overflow.
    scale = h * float(np.max([np.abs(yc) @ np.abs(xc).T for yc, xc in blocks]))
    thr = _threshold(tol, scale)
    if math.isfinite(resid) and resid > tol and not math.isfinite(scale):
        raise NumericalError("the scale of the Gram test overflowed the floating-point range")
    if not math.isfinite(resid) or resid > thr:
        raise ValueError(
            f"rotated chain families are not biorthonormal (residual {resid:.3e}); "
            "the rotation-symmetry hypotheses do not hold"
        )

    # Summed over the h rotations, x_j (lam y_j + y_(j+1))^T gives h times
    # the base term from class i to class i+1 and exactly 0 elsewhere.
    synthesized = _finite(h * (x.T @ j0 @ y), "synthesized matrix")
    # A negative entry times False is -0.0; adding 0.0 makes it +0.0.
    return hadamard(synthesized, _block_mask(part)) + 0.0


def _chain_fields(chain: JordanChain) -> dict:
    """The layout of :func:`chain_to_json` with each vector left as a
    complex array."""
    ev = complex(chain.eigenvalue)
    return {
        "eigenvalue": [ev.real, ev.imag],
        "orientation": chain.orientation,
        "vectors": list(chain.vectors),
    }


def chain_to_json(chain: JordanChain) -> dict:
    """Serialize to ``{"eigenvalue": [re, im], "orientation": ..., "vectors":
    [[[re, im], ...], ...]}``."""
    return {**_chain_fields(chain), "vectors": [_pairs_to_json(vec) for vec in chain.vectors]}


def chain_from_json(obj) -> JordanChain:
    """Parse the chain JSON schema produced by :func:`chain_to_json`."""
    if not isinstance(obj, dict):
        raise ValueError("chain JSON must be an object")
    try:
        ev = obj["eigenvalue"]
        orientation = obj["orientation"]
        vectors = obj["vectors"]
    except KeyError as exc:
        raise ValueError(f"malformed chain JSON: missing {exc}") from exc
    if not isinstance(vectors, list) or not vectors:
        raise ValueError("chain vectors must be a nonempty list")
    return JordanChain(
        eigenvalue=_pairs_from_json([ev], "chain eigenvalue")[0],
        orientation=str(orientation),
        vectors=tuple(_pairs_from_json(vec, "chain vector") for vec in vectors),
    )
