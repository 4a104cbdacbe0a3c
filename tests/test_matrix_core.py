import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hcyclic import (
    DEFAULT_TOL,
    NumericalError,
    hadamard,
    jordan_block,
    matrix_from_json,
    matrix_rank,
    matrix_to_json,
    norm_inf,
    null_space,
    submatrix,
)
from hcyclic import matrix_core
from hcyclic.matrix_core import _pairs_from_json, _rref, _threshold, _weyr_weights

import helpers

finite_complex = st.complex_numbers(
    allow_nan=False, allow_infinity=False, max_magnitude=1e3
)
square5 = arrays(np.complex128, (5, 5), elements=finite_complex)

# What a JSON document can put where a number is expected, and a few
# Python numbers besides.
json_scalars = st.one_of(
    st.floats(),
    st.integers(-2**70, 2**70),
    st.just(10**400),
    st.booleans(),
    st.none(),
    st.sampled_from(["1", "12", "-0", "nan", "x", ""]),
    st.builds(np.float64, st.floats()),
)
float_pairs = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=2)
pair_entries = st.one_of(
    float_pairs,
    float_pairs.map(tuple),
    st.lists(json_scalars, min_size=2, max_size=2),
    st.lists(json_scalars, max_size=3),
    st.lists(float_pairs, min_size=2, max_size=2),
    st.dictionaries(st.sampled_from(["re", "im"]), st.floats(), min_size=2),
    json_scalars,
    st.sampled_from(["12", "ab"]),
)


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

    @pytest.mark.parametrize("bad", [1.9, 2.0, False, "2", np.float64(2.0)])
    def test_indices_must_be_integers(self, bad):
        # int() would truncate 1.9 and read entry (1, 2) for ([1.9], [2.9]).
        a = np.arange(9, dtype=float).reshape(3, 3)
        with pytest.raises(ValueError, match="must be an integer"):
            submatrix(a, [bad], [2])
        with pytest.raises(ValueError, match="must be an integer"):
            submatrix(a, [1], [bad])

    def test_numpy_integer_indices(self):
        a = np.arange(9, dtype=float).reshape(3, 3)
        assert np.array_equal(submatrix(a, np.array([3, 1]), {np.int64(2)}), np.array([[7], [1]]))


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
    return a, _threshold(1e-9, norm_inf(a))


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
        # basis, whose zeros the CLI renders as 0 or -0.  The forward pass
        # that matrix_rank counts finds the same pivots.
        a, thr = rref_input(np.random.default_rng(seed), kind, m, n)
        got, pivots = _rref(a, thr)
        want, loop_pivots = helpers.loop_rref(a, thr)
        assert pivots == loop_pivots
        assert _rref(a, thr, reduced=False)[1] == loop_pivots
        free = [c for c in range(n) if c not in pivots]
        assert got[:, free].tobytes() == want[:, free].tobytes()

    def test_pivot_on_threshold_is_dropped(self):
        a = np.array([[1e-3, 1.0], [0.0, 1.0]])
        assert _rref(a, 1e-3)[1] == [1]
        assert _rref(a, 1e-3 * (1 - 1e-7))[1] == [0, 1]

    @settings(max_examples=300)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["complex", "product", "integer", "graded", "planted"]),
        m=st.integers(1, 12),
        n=st.integers(1, 12),
        zero_tol=st.booleans(),
    )
    def test_rank_counts_rref_pivots(self, seed, kind, m, n, zero_tol):
        a, thr = rref_input(np.random.default_rng(seed), kind, m, n)
        thr = 0.0 if zero_tol else thr
        assert _rref(a, thr, reduced=False)[1] == _rref(a, thr)[1]

    def test_rank_rounds_the_last_update_as_rref(self):
        # The last pivot column of this rank-5 product leaves one row below
        # and one column to its right; as a lone element that update rounds
        # without fused multiply-add, and at tol 0 its round-off read as a
        # sixth pivot.
        a, _ = rref_input(np.random.default_rng(90383), "product", 6, 6)
        assert _rref(a, 0.0, reduced=False)[1] == _rref(a, 0.0)[1]
        assert matrix_rank(a, 0.0) == 5

    def test_rank_after_overflow_leaves_zero_multiplier_rows(self):
        # The pivot row divided by 1e-300 overflows; the zero second row
        # must stay zero (0 * inf would make it nan, counted as a pivot).
        a = np.array([[1e-300, 1e10], [0.0, 0.0]], dtype=complex)
        with np.errstate(over="ignore"):
            assert _rref(a, 0.0, reduced=False)[1] == _rref(a, 0.0)[1] == [0]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowed_scale_raises(self):
        # Nonsingular, but its row sums 3e308 overflow, so tol * ||A||_inf
        # is inf and would read every pivot as zero.
        a = np.array([[1.5e308, 1.5e308], [1.5e308, -1.5e308]])
        with pytest.raises(NumericalError, match="pivot threshold overflowed"):
            matrix_rank(a)
        with pytest.raises(NumericalError, match="pivot threshold overflowed"):
            null_space(a, 1e-12)
        assert matrix_rank(a, 0.0) == null_space(a, 0.0)[0] == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_pivot_raises(self):
        # Rank 2; the first elimination step makes the second row
        # [0, -inf, -inf], whose scaling by its pivot -inf leaves a NaN that
        # passes for a third pivot at tol 0.  The full reduction writes
        # zeros over that NaN, so its result alone would look finite.
        a = np.array([[1, 1e308, 1e308], [1, -1e308, -1e308], [0, 1, 1]])
        with pytest.raises(NumericalError, match="row reduction overflowed"):
            matrix_rank(a, 0.0)
        with pytest.raises(NumericalError, match="row reduction overflowed"):
            null_space(a, 0.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowed_kernel_basis_raises(self):
        # The kernel of [[1e-300, 1e10], [0, 0]] is spanned by [-1e310, 1].
        with pytest.raises(NumericalError, match="kernel basis overflowed"):
            null_space(np.array([[1e-300, 1e10], [0.0, 0.0]]), 0.0)


# The primes of the exact Weyr path.
P, Q = 4244333, 4244329


def weyr_of_nullities(n, nullity_of):
    """``_weyr_weights`` of the n x n matrix S/2, S the cyclic shift
    (S e_i = e_(i+1 mod n)), with the rank of each power S^k/2^k,
    1 <= k <= n, scripted as n - nullity_of(k); also the list of the
    powers k it ranked, in order.  S/2 is not an integer matrix, so its
    powers are formed and ranked one at a time; S^k/2^k is told by the row
    of the nonzero entry in its first column."""
    ranked = []

    def scripted_rank(power, tol):
        k = int(np.flatnonzero(power[:, 0])[0]) or n
        ranked.append(k)
        return n - nullity_of(k)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matrix_core, "matrix_rank", scripted_rank)
        return _weyr_weights(np.roll(np.eye(n, dtype=complex), 1, axis=0) / 2, DEFAULT_TOL), ranked


def no_rank(power, tol):
    raise AssertionError("an integer matrix must not have its powers ranked")


def is_nonincreasing(weights) -> bool:
    return all(x >= y for x, y in zip(weights, weights[1:]))


planted_blocks = st.lists(st.integers(1, 8), max_size=4)
INTEGER_DIAGONAL = (-2, -1, 1, 2)
planted_diagonal = st.lists(st.sampled_from(INTEGER_DIAGONAL + (0.05, 0.5)), max_size=4)


def jordan_plus_scalar(order, scalar, count):
    """The Jordan block J_order at zero beside scalar * I_count."""
    a = np.zeros((order + count, order + count), dtype=complex)
    a[:order, :order] = jordan_block(order, 0)
    a[order:, order:] = scalar * np.eye(count)
    return a


@st.composite
def small_gaussian_integer_matrices(draw):
    """Square Gaussian-integer matrices of order at most 7: sparse random
    ones, and planted nilpotent Jordan blocks beside nonzero integer
    eigenvalues conjugated by a unimodular U, times 1, i or 1 + i; and
    each of them times one of the primes of the exact path."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        n = draw(st.integers(1, 7))
        parts = rng.integers(-3, 4, (2, n, n)) * (rng.random((2, n, n)) < 0.3)
        a = parts[0] + 1j * parts[1] * draw(st.booleans())
    else:
        blocks = draw(st.lists(st.integers(1, 4), max_size=3))
        diagonal = draw(st.lists(st.sampled_from(INTEGER_DIAGONAL + (3,)), max_size=3))
        assume(blocks or diagonal)
        unit = draw(st.sampled_from([1, 1j, 1 + 1j]))
        a = unit * helpers.planted_jordan(rng, blocks, diagonal)[0]
    return a * draw(st.sampled_from([1, P, Q]))


class TestWeyrWeights:
    @settings(max_examples=80)
    @given(seed=st.integers(0, 2**32 - 1), blocks=planted_blocks, diagonal=planted_diagonal)
    def test_planted_weights_match_loop(self, seed, blocks, diagonal):
        # Where the loop's weights do not increase they are the answer;
        # where they do, the powers of 0.05 sank below the pivot threshold
        # within the loop's reach, and the contradiction raises.  With
        # integer eigenvalues nothing sinks, and the loop reads the planted
        # weights.
        assume(blocks or diagonal)
        a, weights = helpers.planted_jordan(np.random.default_rng(seed), blocks, diagonal)
        loop = helpers.loop_weyr_weights(a, DEFAULT_TOL)
        if is_nonincreasing(loop):
            assert _weyr_weights(a, DEFAULT_TOL) == loop
        else:
            with pytest.raises(NumericalError, match="increase"):
                _weyr_weights(a, DEFAULT_TOL)
        if set(diagonal) <= set(INTEGER_DIAGONAL):
            assert loop == weights

    @settings(max_examples=300)
    @given(a=small_gaussian_integer_matrices())
    def test_weights_match_exact_ranks(self, a):
        # A multiple of a prime is zero in one field; divided by the gcd
        # of its parts it is exact in both.
        assert _weyr_weights(a, DEFAULT_TOL) == helpers.fraction_weyr_weights(a)

    @settings(max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        blocks=planted_blocks,
        diagonal=st.lists(st.sampled_from(INTEGER_DIAGONAL + (300, -200)), max_size=4),
    )
    def test_integer_weights_do_not_depend_on_tol(self, seed, blocks, diagonal):
        assume(blocks or diagonal)
        a, weights = helpers.planted_jordan(np.random.default_rng(seed), blocks, diagonal)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(matrix_core, "matrix_rank", no_rank)
            for tol in (0.0, DEFAULT_TOL, 1e-3):
                assert _weyr_weights(a, tol) == weights

    def test_fields_that_disagree_fall_back(self):
        # det = p: singular over GF(p), where that field alone would read
        # the weights (1,), and nonsingular over GF(q) and over Q.  The
        # fields disagree, so the powers are ranked.
        a = np.array([[2, 1], [1, (P + 1) // 2]], dtype=complex)
        assert 2 * ((P + 1) // 2) - 1 == P
        assert matrix_core._integer_form(a) is not None
        assert matrix_core._exact_weyr_weights(a) is None
        assert _weyr_weights(a, DEFAULT_TOL) == _weyr_weights(a, 0.0) == ()

    def test_rank_n_in_the_first_field_is_proof(self):
        # det = q: rank 2 over GF(p) proves A nonsingular, with no
        # elimination of [A | I] and nothing ranked.
        a = np.array([[2, 1], [1, (Q + 1) // 2]], dtype=complex)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(matrix_core, "matrix_rank", no_rank)
            assert matrix_core._exact_weyr_weights(a) == ()

    def test_float_loop_ranks_a_before_any_product(self, monkeypatch):
        # The float loop ranks A itself first: a nonsingular A forms no
        # product, and the nilpotent J_2 / 2 forms A^2 alone.
        formed = []
        original = matrix_core._finite

        def counting(arr, what):
            formed.append(what)
            return original(arr, what)

        monkeypatch.setattr(matrix_core, "_finite", counting)
        assert _weyr_weights(np.array([[0.5, 0.25], [0.1, 1.3]], dtype=complex), DEFAULT_TOL) == ()
        assert formed == []
        assert _weyr_weights(jordan_block(2, 0) / 2, DEFAULT_TOL) == (1, 1)
        assert formed == ["A^2"]

    @pytest.mark.parametrize("blocks, weights", [([], ()), ([1], (1,)), ([2, 1], (2, 1))])
    def test_minors_divisible_by_both_primes_fall_back(self, blocks, weights):
        # det M = 4244331^2 - 4 = p q, with every entry below both primes:
        # M has rank 2 over both fields, with the same pivots, so the
        # fields agree on a kernel vector that is none over Q.  Its lift
        # fails the exact check, and the powers are ranked, which read the
        # weights at tol 0.  (At the default tol the powers of M, entries
        # near 10^13 and up, set a threshold that swallows the blocks.)
        m = np.array([[4244328, -1, 0], [0, 2122167, -1], [5, 0, 2]])
        assert 4244328 * 2122167 * 2 + 5 == P * Q
        k = sum(blocks)
        a = np.zeros((k + 3, k + 3), dtype=complex)
        for start, size in zip(np.cumsum([0] + blocks), blocks):
            a[start:start + size, start:start + size] = jordan_block(size, 0)
        a[k:, k:] = m
        assert matrix_core._integer_form(a) is not None
        assert matrix_core._exact_weyr_weights(a) is None
        assert _weyr_weights(a, 0.0) == weights

    @pytest.mark.parametrize("prime", [P, Q])
    def test_multiple_of_a_prime(self, prime):
        # Zero over GF(prime), so one field alone would read (3,).  The
        # float ranks read (1, 1): the round-off of (prime B)^3 is above its
        # own threshold.  Divided by the gcd of its parts, it is B.
        b = np.array([[2, 4, 1], [-2, -3, -1], [2, 1, 1]], dtype=complex)
        assert helpers.loop_weyr_weights(prime * b, DEFAULT_TOL) == (1, 1)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(matrix_core, "matrix_rank", no_rank)
            assert _weyr_weights(prime * b, DEFAULT_TOL) == (1, 1, 1)

    @pytest.mark.parametrize("a, taken", [
        (np.zeros((1, 1)), True),
        (jordan_block(5, 0), True),
        (1j * jordan_block(5, 0), True),
        ((Q - 1) * (1 - 1j) * jordan_block(5, 0), True),
        (-(Q - 1) * np.eye(3), True),
        (Q * jordan_block(5, 0), True),  # the gcd of the parts is divided out
        (2.0**30 * (1 + 1j) * jordan_block(5, 0), True),
        (np.array([[Q, 1], [0, 0]]), False),  # a part of modulus p or more
        (np.array([[Q, 0], [0, 1j]]), False),
        (2.0**62 * jordan_block(5, 0), False),
        (0.5 * jordan_block(5, 0), False),  # not integer, though nilpotent
        (jordan_plus_scalar(4, 0.05, 4), False),
        (np.zeros((500, 500)), True),
        (np.zeros((501, 501)), False),  # above the order that keeps sums exact
        (1j * np.eye(250), True),
        (1j * np.eye(251), False),  # realified, of order 502
    ])
    def test_exact_path_inputs(self, a, taken):
        assert (matrix_core._integer_form(np.asarray(a, dtype=complex)) is not None) is taken

    def test_integer_form(self):
        # Divided by the gcd of all parts; realified when not real, and
        # then twice the weights.
        a = 6 * Q * np.array([[1 + 2j, 0], [3j, -1]])
        b = matrix_core._integer_form(a)
        re, im = a.real / (6 * Q), a.imag / (6 * Q)
        assert np.array_equal(b, np.block([[re, -im], [im, re]]))
        assert np.array_equal(matrix_core._integer_form(Q * np.eye(2, dtype=complex)), np.eye(2))
        c = np.array([[0, 1j, 0], [0, 0, 1 - 1j], [0, 0, 2j]])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(matrix_core, "matrix_rank", no_rank)
            assert _weyr_weights(c, DEFAULT_TOL) == helpers.fraction_weyr_weights(c) == (1, 1)

    def test_reduce_is_exact(self):
        # 0 <= x < 4p^2, and |x| <= 500 p^2 in two steps, against Python
        # integers, at the ends of each range and at random.
        rng = np.random.default_rng(3)
        for field, prime in enumerate([P, Q]):
            top = 4 * prime**2
            edge = [0, 1, prime - 1, prime, prime + 1, top - 1, top - prime, prime**2, 2 * prime**2 - 1]
            x = np.array(edge + rng.integers(0, top, 4000).tolist(), dtype=float)
            got = matrix_core._reduce(np.stack([x, x])[:, None])[field, 0]
            assert got.tolist() == [v % prime for v in x.astype(np.int64).tolist()]
            wide = 500 * prime**2
            y = np.array([-wide, wide, -1, 0] + rng.integers(-wide, wide, 4000).tolist(), dtype=float)
            got = matrix_core._reduce(matrix_core._reduce(np.stack([y, y])[:, None]) + matrix_core._PRIMES)
            assert got[field, 0].tolist() == [v % prime for v in y.astype(np.int64).tolist()]

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 90),
        density=st.sampled_from([0.05, 0.3, 1.0]),
        rank=st.integers(0, 90),
        every=st.booleans(),
    )
    def test_elimination_matches_reference(self, seed, n, density, rank, every):
        # Panels of 32 columns defer their updates to two matrix products;
        # the eliminated [A | I] is the one a pivot-by-pivot elimination in
        # Python integers leaves, pivot for pivot.
        rng = np.random.default_rng(seed)
        k = min(rank, n)
        a = (rng.integers(-3, 4, (n, k)) * (rng.random((n, k)) < density)) @ rng.integers(-2, 3, (k, n))
        r = np.mod(a, matrix_core._PRIMES)
        m = np.concatenate([r, np.broadcast_to(np.eye(n), r.shape)], axis=2)
        want = helpers.loop_eliminate(m, [P, Q], n, every)
        got = matrix_core._eliminate(m, n, every)
        if want is None:
            assert got is None
        else:
            assert got == want[1]
            assert m.astype(np.int64).tolist() == want[0]

    @settings(max_examples=60)
    @given(
        num=st.integers(-matrix_core._LIFT, matrix_core._LIFT),
        den=st.integers(1, matrix_core._LIFT),
        noise=st.integers(0, P * Q - 1),
    )
    def test_lift(self, num, den, noise):
        # A small a/b comes back as itself; any residue x lifts as the
        # extended Euclidean algorithm in Python integers lifts it, and 0
        # is not lifted.
        x = num * pow(den, -1, P * Q) % (P * Q)
        pairs = np.array([[[x % P, noise % P]], [[x % Q, noise % Q]]], dtype=float)
        want = helpers.wang_lift(noise, P * Q, matrix_core._LIFT)
        got = matrix_core._lift(pairs)
        if want is None:
            assert got is None
            got = matrix_core._lift(pairs[:, :, :1])
        lifted = {int(i): (int(a), int(b)) for i, a, b in zip(*got)}
        assert 0 not in lifted if num == 0 else lifted[0][0] * den == lifted[0][1] * num
        if want is not None:
            assert lifted.get(1, (0, 1)) == want
            assert (1 in lifted) is (noise != 0)

    @pytest.mark.parametrize("diagonal", [[0.05] * 4, [0.05] * 10, [0.05] * 4 + [2]])
    def test_small_eigenvalue_does_not_extend_the_run(self, diagonal):
        # 0.05^5 is above the pivot threshold, so the loop stops at A^5
        # with weights (1, 1, 1, 1); 0.05^8 is below it, so a rank of A^8
        # would read nullity 4 + 4.  A is not an integer matrix, so its
        # powers are ranked one at a time, and none past A^5 is formed.
        a = np.zeros((4 + len(diagonal),) * 2, dtype=complex)
        a[:4, :4] = jordan_block(4, 0)
        a[4:, 4:] = np.diag(diagonal)
        assert matrix_core._exact_weyr_weights(a) is None
        assert _weyr_weights(a, DEFAULT_TOL) == helpers.loop_weyr_weights(a, DEFAULT_TOL) == (1,) * 4

    def test_overflowing_power_past_the_run(self):
        # At the default tol the float ranks of J_64 + 1000 I_64 read the
        # weights (1, 1, 62): the threshold 1e-9 * 1000^3 swallows J^3.
        # The exact path reads (1,) * 64 at every tol, with no power formed
        # (A^103 would overflow).
        a = jordan_plus_scalar(64, 1000.0, 64)
        assert helpers.loop_weyr_weights(a, DEFAULT_TOL) == (1, 1, 62)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(matrix_core, "matrix_rank", no_rank)
            assert _weyr_weights(a, DEFAULT_TOL) == _weyr_weights(a, 0.0) == (1,) * 64

    @pytest.mark.parametrize("tol", [0.0, DEFAULT_TOL])
    @pytest.mark.parametrize("seed", range(5))
    def test_large_eigenvalues_beside_nilpotent_blocks(self, seed, tol):
        # Nilpotent blocks beside the eigenvalues 300 and -200: the entries
        # of A^k grow past 2^53, and the float ranks of these powers read
        # increasing weights at the default tol, and at tol 0 for seed 3.
        # The exact weights are the planted ones.
        a, weights = helpers.planted_jordan(np.random.default_rng(seed), [6, 3, 1], [300, -200])
        assert _weyr_weights(a, tol) == weights == (3, 2, 2, 1, 1, 1)
        assert is_nonincreasing(helpers.loop_weyr_weights(a, tol)) is (tol == 0.0 and seed != 3)

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), blocks=planted_blocks, diagonal=planted_diagonal)
    def test_contradictions_raise_at_tol_zero(self, seed, blocks, diagonal):
        # At tol 0 round-off counted as pivots can make the nullities of
        # the powers contradict concavity.  An integer A is exact and reads
        # the planted weights.  Otherwise the loop raises, and never reports
        # increasing weights; where all n nullities are consistent it
        # returns them.
        assume(blocks or diagonal)
        a, weights = helpers.planted_jordan(np.random.default_rng(seed), blocks, diagonal)
        if set(diagonal) <= set(INTEGER_DIAGONAL):
            assert _weyr_weights(a, 0.0) == weights
            return
        n = a.shape[0]
        power, nullities = np.eye(n, dtype=complex), [0]
        for _ in range(n):
            power = power @ a
            nullities.append(n - matrix_rank(power, 0.0))
        steps = np.diff(nullities)
        consistent = np.all(steps >= 0) and np.all(steps[:-1] >= steps[1:])
        try:
            got = _weyr_weights(a, 0.0)
        except NumericalError:
            assert not consistent
            return
        assert is_nonincreasing(got)
        if consistent:
            assert got == helpers.loop_weyr_weights(a, 0.0)

    def test_regression_loop_reads_increasing_weights(self):
        # True weights (4, 4, 4, 4, 4, 2); at tol 0 round-off counted as
        # pivots makes the loop read (4, 4, 3, 5, 4, 2).  The integer A is
        # exact at every tol.  A/2 is not an integer matrix: its powers are
        # those of A scaled by 2^-k, ranked alike, so the loop's increase
        # raises.
        a, weights = helpers.planted_jordan(np.random.default_rng(195), [6, 6, 5, 5], [1, 1])
        assert weights == (4, 4, 4, 4, 4, 2)
        assert helpers.loop_weyr_weights(a, 0.0) == (4, 4, 3, 5, 4, 2)
        assert _weyr_weights(a, DEFAULT_TOL) == _weyr_weights(a, 0.0) == weights
        assert _weyr_weights(a / 2, DEFAULT_TOL) == weights
        with pytest.raises(NumericalError, match="increase at A\\^4 \\(3 then 5\\)"):
            _weyr_weights(a / 2, 0.0)

    @settings(max_examples=200)
    @given(
        steps=st.lists(st.integers(1, 9), max_size=40).map(lambda w: sorted(w, reverse=True)),
        spare=st.integers(0, 3),
    )
    def test_loop_reads_every_concave_sequence(self, steps, spare):
        # One rank per weight, and one more unless A^k reaches nullity n.
        n = sum(steps) + spare
        assume(n > 0)
        got, ranked = weyr_of_nullities(n, lambda k: sum(steps[:k]))
        assert got == tuple(steps)
        assert ranked == list(range(1, len(steps) + 1 + (spare > 0)))

    def test_increasing_weight_raises(self):
        with pytest.raises(NumericalError, match="increase at A\\^3"):
            weyr_of_nullities(10, lambda k: (2, 3, 5, 6)[min(k, 4) - 1])

    def test_long_nilpotent_block_needs_few_ranks(self, monkeypatch):
        # An integer matrix has none of its powers ranked.
        a, weights = helpers.planted_jordan(np.random.default_rng(7), [120], [])
        monkeypatch.setattr(matrix_core, "matrix_rank", no_rank)
        assert _weyr_weights(a, DEFAULT_TOL) == weights == (1,) * 120


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
            # Entries must be [re, im] lists: a two-character string is not.
            {"rows": 1, "cols": 1, "data": ["12"]},
            {"rows": 1, "cols": 2, "data": [1, 2]},
            # ... of numbers: JSON strings and booleans are not numbers.
            {"rows": 1, "cols": 1, "data": [["1", "2"]]},
            {"rows": 1, "cols": 1, "data": [[True, 0]]},
            {"rows": 1, "cols": 2, "data": [[0, 0], [0.5, False]]},
        ],
    )
    def test_malformed_rejected(self, doc):
        with pytest.raises(ValueError):
            matrix_from_json(doc)

    @settings(max_examples=400)
    @given(data=st.one_of(st.lists(float_pairs, max_size=8), st.lists(pair_entries, max_size=6)))
    def test_pair_decoder_matches_sliced_loop(self, data):
        # The one-pass decoder against the sliced np.asarray loop it
        # replaced, with an entry-by-entry type test in front (bools and
        # strings are not numbers): the same bits, or ValueError from both.
        try:
            want = helpers.loop_pairs_from_json(data, "data")
        except ValueError:
            with pytest.raises(ValueError):
                _pairs_from_json(data, "data")
        else:
            assert _pairs_from_json(data, "data").tobytes() == want.tobytes()

    def test_pair_decoder_spans_slices(self, rng):
        # Long enough for the loop to convert it in four slices.
        data = rng.standard_normal((3 * 8192 + 5, 2)).tolist()
        want = helpers.loop_pairs_from_json(data, "data")
        assert _pairs_from_json(data, "data").tobytes() == want.tobytes()
        data[-1] = [0.0]
        for decode in (_pairs_from_json, helpers.loop_pairs_from_json):
            with pytest.raises(ValueError, match="pairs"):
                decode(data, "data")


# Threshold scales: the floor 1 and the values around it, subnormal,
# huge and saturated ones, plus arbitrary finite nonnegative floats.
THRESHOLD_SCALES = st.one_of(
    st.sampled_from([0.0, 5e-324, 0.5, 1.0, 1e150, 1e308, math.inf]),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
)


class TestThreshold:
    @settings(max_examples=500)
    @given(
        tol=st.sampled_from([0.0, 1e-300, 1e-9, 0.5, 1e300]),
        scales=st.lists(THRESHOLD_SCALES, max_size=2),
        power=st.integers(0, 400),
    )
    def test_matches_the_hand_written_expressions(self, tol, scales, power):
        got = _threshold(tol, *scales, power=power)
        if tol == 0.0:
            # The hand-written forms give 0 * inf = NaN once a scale saturates.
            assert got.hex() == "0x0.0p+0"
        else:
            assert got.hex() == helpers.loop_threshold(tol, *scales, power=power).hex()
