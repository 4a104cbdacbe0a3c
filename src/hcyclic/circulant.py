"""Circulant matrices via reference vectors, plus root-of-unity helpers.

A circulant is constant along wrapped diagonals: c_ij = r_((j-i) mod n)+1
where r is the first row (the reference vector).  The basic circulant K_n
is the cyclic-shift permutation matrix, reference e_2.
"""

from __future__ import annotations

import cmath

import numpy as np

from .matrix_core import DEFAULT_TOL, _modulus, _threshold, as_complex_matrix, as_complex_vector

__all__ = [
    "omega",
    "omega_pow",
    "circulant_from_reference",
    "recognize_circulant",
    "basic_circulant",
    "c_k_matrix",
    "w_matrix",
]


def omega(h: int, k: int = 1) -> complex:
    """The h-th root of unity exp(2*pi*i*k/h)."""
    return omega_pow(h, k, 1)


# exp(2*pi*i*q/4) exactly, with +0.0 parts.
_QUARTER_TURNS = (complex(1.0, 0.0), complex(0.0, 1.0), complex(-1.0, 0.0), complex(0.0, -1.0))


def omega_pow(h: int, k: int, e: int) -> complex:
    """(omega_h^k)^e with the exponent reduced mod h before evaluating,
    so huge or negative exponents lose no accuracy; a multiple of a
    quarter turn is exactly 1, i, -1 or -i."""
    if h < 1:
        raise ValueError(f"root order must be >= 1, got {h}")
    r = (k * e) % h
    if 4 * r % h == 0:
        return _QUARTER_TURNS[4 * r // h]
    return cmath.exp(2j * cmath.pi * r / h)


def _diagonal_index(n: int) -> np.ndarray:
    # Entry (i, j) holds (j - i) mod n, the wrapped diagonal it lies on.
    # Built in C order so that circulants indexed with it are too.
    ar = np.arange(n)
    idx = ar[None, :] - ar[:, None]
    idx %= n
    return idx


def circulant_from_reference(r) -> np.ndarray:
    """The circulant matrix whose first row is ``r``."""
    ref = as_complex_vector(r)
    return ref[_diagonal_index(ref.size)]


def recognize_circulant(c, tol: float = DEFAULT_TOL) -> np.ndarray | None:
    """Reference vector of ``c`` if it is circulant within tolerance.

    Each entry is compared against the first-row representative of its
    wrapped diagonal; returns the first row on success, None otherwise.
    """
    cm = as_complex_matrix(c)
    if cm.shape[0] != cm.shape[1]:
        raise ValueError(f"matrix must be square, got {cm.shape}")
    ref = cm[0].copy()
    if np.any(_modulus(cm - ref[_diagonal_index(ref.size)]) > _threshold(tol)):
        return None
    return ref


def basic_circulant(n: int) -> np.ndarray:
    """K_n, the circulant with reference e_2 (the cyclic shift)."""
    if n < 2:
        raise ValueError(f"basic circulant needs order >= 2, got {n}")
    ref = np.zeros(n, dtype=complex)
    ref[1] = 1.0
    return circulant_from_reference(ref)


def c_k_matrix(h: int, k: int) -> np.ndarray:
    """The h-by-h circulant with reference (w^k, 1, (w^k)^(h-1), ..., (w^k)^2)
    where w = exp(2*pi*i/h).  Entry (i, j) equals (w^k)^((i+1-j) mod h)."""
    if h < 1:
        raise ValueError(f"h must be >= 1, got {h}")
    ref = np.array([omega_pow(h, k, (1 - m) % h) for m in range(h)])
    return circulant_from_reference(ref)


def w_matrix(h: int, k: int, ell: int, variant: int) -> np.ndarray:
    """Rank-one root-of-unity products that collapse to ``c_k_matrix(h, k)``.

    With a(i, j) = (i - j) mod h:

    * variant 1 is ``w^k * col((w^k)^a(i, ell)) @ row((w^k)^a(ell, j))``,
    * variant 2 is ``col((w^k)^a(i, ell)) @ row((w^k)^a(ell+1, j))``.

    Both equal C_k for every ell >= 1; the class position ell only shuffles
    which rank-one factors appear.
    """
    if h < 1:
        raise ValueError(f"h must be >= 1, got {h}")
    if ell < 1:
        raise ValueError(f"class position must be >= 1, got {ell}")
    if variant not in (1, 2):
        raise ValueError(f"variant must be 1 or 2, got {variant}")
    # Exponents of the column factor plus those of the row factor; omega_pow
    # reduces k*e mod h, so the h values indexed by e mod h are exact.
    idx = np.arange(1, h + 1)
    if variant == 1:
        e = 1 + np.add.outer((idx - ell) % h, (ell - idx) % h)
    else:
        e = np.add.outer((idx - ell) % h, (ell + 1 - idx) % h)
    return np.array([omega_pow(h, k, m) for m in range(h)])[e % h]
