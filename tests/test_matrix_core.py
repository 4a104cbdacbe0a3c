import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hcyclic import (
    hadamard,
    jordan_block,
    matrix_from_json,
    matrix_rank,
    matrix_to_json,
    norm_inf,
    null_space,
    submatrix,
)
from hcyclic.matrix_core import _pivot_threshold, _rref

import helpers

finite_complex = st.complex_numbers(
    allow_nan=False, allow_infinity=False, max_magnitude=1e3
)
square5 = arrays(np.complex128, (5, 5), elements=finite_complex)


class TestHadamard:
    def test_entrywise(self):
        a = np.array([[1, 2], [3, 4]], dtype=complex)
        b = np.array([[0, 1], [1, 0]], dtype=complex)
        assert np.array_equal(hadamard(a, b), np.array([[0, 2], [3, 0]]))

    def test_all_ones_is_identity_element(self, rng):
        a = helpers.unit_disk((4, 6), rng)
        assert np.array_equal(hadamard(a, np.ones((4, 6))), a)

    def test_zero_one_matrix_idempotent(self):
        k3 = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=complex)
        assert np.array_equal(hadamard(k3, k3), k3)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            hadamard(np.ones((2, 2)), np.ones((2, 3)))

    @given(a=square5, b=square5)
    def test_commutative(self, a, b):
        # a*b and b*a may differ in the last ulp when the complex multiply
        # uses fused multiply-adds, so compare at relative 1e-12.
        left = hadamard(a, b)
        right = hadamard(b, a)
        assert np.max(np.abs(left - right)) <= 1e-12 * max(1.0, np.max(np.abs(left)))

    @given(a=square5, b=square5, c=square5)
    def test_associative(self, a, b, c):
        left = hadamard(hadamard(a, b), c)
        right = hadamard(a, hadamard(b, c))
        assert np.max(np.abs(left - right)) <= 1e-12 * max(1.0, np.max(np.abs(left)))

    @given(a=square5, b=square5, c=square5)
    def test_distributes_over_addition(self, a, b, c):
        left = hadamard(a, b + c)
        right = hadamard(a, b) + hadamard(a, c)
        assert np.max(np.abs(left - right)) <= 1e-12 * max(1.0, np.max(np.abs(left)))


class TestJordanBlock:
    def test_order_one(self):
        lam = 2.5 - 1j
        assert np.array_equal(jordan_block(1, lam), np.array([[lam]]))

    def test_order_two_nilpotent(self):
        assert np.array_equal(jordan_block(2, 0), np.array([[0, 1], [0, 0]]))

    def test_banded_form(self):
        lam = 0.3 + 0.7j
        expected = lam * np.eye(3) + np.diag(np.ones(2), 1)
        assert np.array_equal(jordan_block(3, lam), expected)

    def test_zero_order_rejected(self):
        with pytest.raises(ValueError):
            jordan_block(0, 1.0)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_nilpotency_index(self, n, rng):
        lam = complex(helpers.unit_disk((), rng))
        shift = jordan_block(n, lam) - lam * np.eye(n)
        if n > 1:
            assert np.any(np.linalg.matrix_power(shift, n - 1) != 0)
        assert np.all(np.linalg.matrix_power(shift, n) == 0)


class TestSubmatrix:
    def test_identity_corner(self):
        assert np.array_equal(submatrix(np.eye(3), (1, 2), (1, 2)), np.eye(2))

    def test_six_example_corner_block(self):
        a = helpers.six_matrix()
        assert np.array_equal(submatrix(a, (5, 6), (1,)), np.array([[1], [1]]))

    def test_single_entry(self, rng):
        a = helpers.unit_disk((4, 4), rng)
        assert np.array_equal(submatrix(a, (2,), (3,)), np.array([[a[1, 2]]]))

    def test_preserves_given_order(self):
        a = np.arange(9, dtype=float).reshape(3, 3)
        assert np.array_equal(
            submatrix(a, (3, 1), (2,)), np.array([[a[2, 1]], [a[0, 1]]])
        )

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            submatrix(np.eye(3), (1, 4), (1,))
        with pytest.raises(ValueError):
            submatrix(np.eye(3), (0,), (1,))


class TestNullSpace:
    def test_full_rank_identity(self):
        rank, basis = null_space(np.eye(4))
        assert rank == 4
        assert basis == []

    def test_all_ones_kernel(self):
        rank, basis = null_space(np.ones((4, 4)))
        assert rank == 1
        assert len(basis) == 3
        for vec in basis:
            assert abs(np.sum(vec)) <= 1e-12

    def test_twelve_example_free_variable_form(self, twelve):
        # B_1 = rows (3, 0, 0, 1); kernel basis comes out as the exact
        # hand-computed vectors e_2, e_3, (-1/3, 0, 0, 1).
        b1 = np.tile(np.array([3.0, 0.0, 0.0, 1.0]), (4, 1))
        rank, basis = null_space(b1)
        assert rank == 1
        expected = [
            np.array([0, 1, 0, 0], dtype=complex),
            np.array([0, 0, 1, 0], dtype=complex),
            np.array([-1 / 3, 0, 0, 1], dtype=complex),
        ]
        assert len(basis) == 3
        for got, want in zip(basis, expected):
            assert np.max(np.abs(got - want)) <= 1e-15

    def test_rank_plus_nullity(self, rng):
        for _ in range(20):
            m, n, r = rng.integers(2, 7), rng.integers(2, 7), rng.integers(1, 3)
            a = helpers.unit_disk((m, r), rng) @ helpers.unit_disk((r, n), rng)
            rank, basis = null_space(a)
            assert rank + len(basis) == n
            assert rank == np.linalg.matrix_rank(a, tol=1e-9)

    def test_kernel_residual_and_independence(self, rng):
        for _ in range(20):
            m, n, r = rng.integers(2, 7), rng.integers(2, 7), rng.integers(1, 3)
            a = helpers.unit_disk((m, r), rng) @ helpers.unit_disk((r, n), rng)
            rank, basis = null_space(a)
            for vec in basis:
                bound = 1e-9 * norm_inf(a) * norm_inf(vec) * n
                assert norm_inf(a @ vec) <= bound
            if basis:
                stacked = np.column_stack(basis)
                assert matrix_rank(stacked) == len(basis)


def signed_zero_matrix(rng, m, n) -> np.ndarray:
    """Real {-1, 0, 1} entries with about a third of the zero parts,
    real and imaginary, negative."""
    parts = np.zeros((m, n, 2))
    parts[..., 0] = rng.integers(-1, 2, (m, n))
    parts[(parts == 0) & (rng.uniform(size=(m, n, 2)) < 1 / 3)] = -0.0
    return parts.view(complex)[..., 0]


def rref_input(rng, kind, m, n):
    """A test matrix of one kind and the pivot threshold to reduce it at."""
    if kind == "integer":
        a = signed_zero_matrix(rng, m, n)
    elif kind == "product":
        k = int(rng.integers(1, min(m, n) + 1))
        right = signed_zero_matrix(rng, k, n) if rng.uniform() < 0.5 else helpers.unit_disk((k, n), rng)
        a = signed_zero_matrix(rng, m, k) @ right
    elif kind == "graded":
        a = helpers.unit_disk((m, n), rng) * 10.0 ** rng.integers(-12, 13, (m, n))
    elif kind == "planted":
        # The first k columns pivot in the first k rows and leave rows k..m
        # alone, so the pivot search of column k sees the planted moduli,
        # multiples of thr around the test |pivot| > thr.
        thr = float(rng.choice([1e-9, 1e-3, 0.5]))
        a = helpers.unit_disk((m, n), rng)
        k = int(rng.integers(0, min(m, n)))
        a[k:, :k] = 0
        factors = rng.choice(helpers.THRESHOLD_FACTORS, m - k)
        a[k:, k] = thr * factors * np.exp(2j * np.pi * rng.uniform(size=m - k))
        return a, thr
    else:
        a = helpers.unit_disk((m, n), rng)
    return a, _pivot_threshold(a, 1e-9)


class TestRref:
    @settings(max_examples=300)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["complex", "product", "integer", "graded", "planted"]),
        m=st.integers(1, 10),
        n=st.integers(1, 10),
    )
    def test_matches_row_loop(self, seed, kind, m, n):
        # Same pivots and bit for bit the same free columns, signed zeros
        # included: null_space copies the free columns into the kernel
        # basis, whose zeros the CLI renders as 0 or -0.
        a, thr = rref_input(np.random.default_rng(seed), kind, m, n)
        got, pivots = _rref(a, thr)
        want, loop_pivots = helpers.loop_rref(a, thr)
        assert pivots == loop_pivots
        free = [c for c in range(n) if c not in pivots]
        assert got[:, free].tobytes() == want[:, free].tobytes()

    def test_pivot_on_threshold_is_dropped(self):
        a = np.array([[1e-3, 1.0], [0.0, 1.0]])
        assert _rref(a, 1e-3)[1] == [1]
        assert _rref(a, 1e-3 * (1 - 1e-7))[1] == [0, 1]


class TestMatrixJson:
    def test_round_trip(self, rng):
        a = helpers.unit_disk((3, 5), rng)
        assert np.array_equal(matrix_from_json(matrix_to_json(a)), a)

    def test_schema_fields(self):
        doc = matrix_to_json(np.array([[1 + 2j]]))
        assert doc == {"rows": 1, "cols": 1, "data": [[1.0, 2.0]]}

    @pytest.mark.parametrize(
        "doc",
        [
            [],
            {"rows": 2, "cols": 2, "data": [[0, 0]]},
            {"rows": 1, "cols": 1, "data": [[float("nan"), 0]]},
            {"rows": 0, "cols": 1, "data": []},
            {"rows": 1, "cols": 1, "data": [0.0]},
            {"rows": 1, "cols": 1, "data": [[10**400, 0]]},
            {"rows": float("inf"), "cols": 1, "data": [[0, 0]]},
            # Integer fields take JSON integers only: no truncation or parsing.
            {"rows": 2.9, "cols": "2", "data": [[0, 0]] * 4},
            {"rows": 1.0, "cols": 1, "data": [[0, 0]]},
            {"rows": 1, "cols": "1", "data": [[0, 0]]},
            {"rows": True, "cols": 1, "data": [[0, 0]]},
        ],
    )
    def test_malformed_rejected(self, doc):
        with pytest.raises(ValueError):
            matrix_from_json(doc)
