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
from hcyclic.matrix_core import _pairs_from_json, _rank, _rref, _threshold, _weyr_weights

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
        assert _rank(a, thr) == len(_rref(a, thr)[1])

    def test_rank_rounds_the_last_update_as_rref(self):
        # The last pivot column of this rank-5 product leaves one row below
        # and one column to its right; as a lone element that update rounds
        # without fused multiply-add, and at tol 0 its round-off read as a
        # sixth pivot.
        a, _ = rref_input(np.random.default_rng(90383), "product", 6, 6)
        assert _rank(a, 0.0) == len(_rref(a, 0.0)[1]) == 5

    def test_rank_after_overflow_leaves_zero_multiplier_rows(self):
        # The pivot row divided by 1e-300 overflows; the zero second row
        # must stay zero (0 * inf would make it nan, counted as a pivot).
        a = np.array([[1e-300, 1e10], [0.0, 0.0]], dtype=complex)
        with np.errstate(over="ignore"):
            assert _rank(a, 0.0) == len(_rref(a, 0.0)[1]) == 1


def weyr_of_nullities(n, nullity_of):
    """``_weyr_weights`` of the n x n cyclic shift S (S e_i = e_(i+1 mod n)),
    taken as nilpotent so that it gallops, with the rank of each power S^k,
    1 <= k <= n, scripted as n - nullity_of(k); also the list of the powers
    k it ranked, in order.  S^k is told by the row of the 1 in its first
    column, and its 0/1 entries keep every product of the gallop exact."""
    ranked = []

    def scripted_rank(power, tol):
        k = int(np.flatnonzero(power[:, 0])[0]) or n
        ranked.append(k)
        return n - nullity_of(k)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matrix_core, "matrix_rank", scripted_rank)
        patch.setattr(matrix_core, "_nilpotent", lambda am: True)
        return _weyr_weights(np.roll(np.eye(n, dtype=complex), 1, axis=0), DEFAULT_TOL), ranked


def exact_power_exponents(a, scale, tol):
    """``_weyr_weights(scale * a, tol)`` for an integer-valued matrix ``a``
    and scale 1 or 1j, and, for each matrix it ranked in order, the least
    j with that matrix equal to the exact power (scale a)^j formed in
    int64, or None if it equals none."""
    ints = np.rint(a.real).astype(np.int64)
    exact = [scale**j * np.linalg.matrix_power(ints, j) for j in range(1, a.shape[0] + 1)]
    ranked = []

    def recording_rank(power, tol):
        ranked.append(next((j for j, e in enumerate(exact, 1) if np.array_equal(power, e)), None))
        return matrix_rank(power, tol)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matrix_core, "matrix_rank", recording_rank)
        return _weyr_weights(scale * np.asarray(a, dtype=complex), tol), ranked


def counting_products(a: np.ndarray) -> np.ndarray:
    """A view of ``a`` whose class attribute ``products`` counts the matrix
    products (``@``, ``np.matmul``) taken with it, or with any array
    computed from it."""

    class Counter(np.ndarray):
        products = 0

        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul and method == "__call__":
                Counter.products += 1

            def plain(xs):
                return tuple(x.view(np.ndarray) if isinstance(x, Counter) else x for x in xs)

            if "out" in kwargs:
                kwargs["out"] = plain(kwargs["out"])
            result = getattr(ufunc, method)(*plain(inputs), **kwargs)
            return result.view(Counter) if isinstance(result, np.ndarray) else result

    return a.view(Counter)


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

    @pytest.mark.parametrize("diagonal", [[0.05] * 4, [0.05] * 10, [0.05] * 4 + [2]])
    def test_small_eigenvalue_does_not_extend_the_run(self, diagonal):
        # 0.05^5 is above the pivot threshold, so the loop stops at A^5
        # with weights (1, 1, 1, 1); 0.05^8 is below it, so a probe at A^8
        # would read nullity 4 + 4 and take it for weight 1 up to A^8, or
        # read 4 + 10 and take it for a contradiction.  The eigenvalue 2
        # makes every threshold relative to its own power, with the same
        # result.  A is not nilpotent and does not gallop.
        a = np.zeros((4 + len(diagonal),) * 2, dtype=complex)
        a[:4, :4] = jordan_block(4, 0)
        a[4:, 4:] = np.diag(diagonal)
        assert not matrix_core._nilpotent(a)
        assert _weyr_weights(a, DEFAULT_TOL) == helpers.loop_weyr_weights(a, DEFAULT_TOL) == (1,) * 4

    def test_overflowing_power_past_the_run(self):
        # At tol 0 the ranks of this block-diagonal A are exact: the loop
        # stops at A^65 (about 1e195), and A^103 would overflow.  (At the
        # default tol the threshold 1e-9 * 1000^3 swallows J^3, and the
        # weights (1, 1, 62) raise.)
        a = jordan_plus_scalar(64, 1000.0, 64)
        assert _weyr_weights(a, 0.0) == helpers.loop_weyr_weights(a, 0.0) == (1,) * 64
        with pytest.raises(NumericalError, match="increase at A\\^3 \\(1 then 62\\)"):
            _weyr_weights(a, DEFAULT_TOL)

    def test_overflowing_probe_falls_short(self, monkeypatch):
        # Taken as nilpotent, the same matrix gallops; its probe at A^128
        # overflows, which bisects back instead of raising.
        monkeypatch.setattr(matrix_core, "_nilpotent", lambda am: True)
        a = jordan_plus_scalar(64, 1000.0, 64)
        assert _weyr_weights(a, 0.0) == (1,) * 64

    @pytest.mark.parametrize("a, expected", [
        (np.zeros((1, 1)), True),
        (np.ones((1, 1)), False),
        (jordan_block(5, 0), True),
        (1j * jordan_block(5, 0), True),
        (jordan_plus_scalar(4, 0.05, 4), False),  # not integer
        (jordan_plus_scalar(4, 1, 4), False),
        (0.5 * jordan_block(5, 0), False),  # not integer, though nilpotent
        (2.0**30 * jordan_block(5, 0), False),  # its squares could round
    ])
    def test_nilpotent_certificate(self, a, expected):
        assert matrix_core._nilpotent(np.asarray(a, dtype=complex)) is expected

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1), blocks=planted_blocks)
    def test_planted_nilpotent_is_certified(self, seed, blocks):
        assume(blocks)
        a, _ = helpers.planted_jordan(np.random.default_rng(seed), blocks, [])
        assert matrix_core._nilpotent(a)
        a, _ = helpers.planted_jordan(np.random.default_rng(seed), blocks, [1])
        assert not matrix_core._nilpotent(a)

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), blocks=planted_blocks, scale=st.sampled_from([1, 1j]))
    def test_ranked_powers_are_exact(self, seed, blocks, scale):
        # A planted nilpotent A, real-valued (the gallop runs in float64)
        # or times i (in complex): every power ranked, plain step or gallop
        # probe, is the exact integer power, and the weights are the loop's.
        assume(blocks)
        a, weights = helpers.planted_jordan(np.random.default_rng(seed), blocks, [])
        got, ranked = exact_power_exponents(a, scale, DEFAULT_TOL)
        assert None not in ranked
        assert got == helpers.loop_weyr_weights(scale * a, DEFAULT_TOL) == weights

    def test_probe_that_could_round_falls_short(self):
        # A = 50 J_8 + J_16 + J_1, n = 25.  The certificate's largest square,
        # A^4 A^4, keeps 4 n 50^8 <= 2^53, and so does every product of the
        # gallop but one: from A^5 it would probe A^5 A^4, whose sums could
        # reach 4 n 50^9 > 2^53.  That probe falls short, so the gallop
        # bisects to A^7 and A^8, and A^9 is ranked when the loop steps to it.
        a = np.zeros((25, 25))
        a[:8, :8] = 50 * jordan_block(8, 0).real
        a[8:24, 8:24] = jordan_block(16, 0).real
        assert matrix_core._nilpotent(a.astype(complex))
        got, ranked = exact_power_exponents(a, 1, 0.0)
        assert got == helpers.loop_weyr_weights(a.astype(complex), 0.0) == (3,) + (2,) * 7 + (1,) * 8
        assert ranked[:7] == [1, 2, 3, 5, 7, 8, 9]

    @pytest.mark.parametrize("tol", [0.0, DEFAULT_TOL])
    @pytest.mark.parametrize("seed", range(5))
    def test_chain_turns_complex_at_the_first_product_that_could_round(self, seed, tol):
        # Nilpotent blocks beside the eigenvalues 300 and -200, conjugated by
        # a unimodular U: the entries of A^k pass the exact-product bound
        # partway through the chain.  Every power before the first product
        # that could round is ranked in float64, every one after in complex,
        # each with the bits of the complex chain the loop forms; and the
        # weights are the loop's, or the loop's first increase raises.
        a, weights = helpers.planted_jordan(np.random.default_rng(seed), [6, 3, 1], [300, -200])
        n = a.shape[0]
        ints = np.rint(a.real).astype(np.int64).astype(object)  # exact, unbounded
        exact, crossing = np.eye(n, dtype=np.int64).astype(object), None
        loop_powers = [np.eye(n, dtype=complex)]
        for k in range(1, n + 1):
            if crossing is None and 4 * n * np.abs(exact).max() * np.abs(ints).max() > 2**53:
                crossing = k
            exact = exact.dot(ints)
            loop_powers.append(loop_powers[-1] @ a)
        assert crossing is not None
        ranked = []

        def recording_rank(power, tol):
            ranked.append(power)
            return matrix_rank(power, tol)

        loop = helpers.loop_weyr_weights(a, tol)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(matrix_core, "matrix_rank", recording_rank)
            if is_nonincreasing(loop):
                assert _weyr_weights(a, tol) == loop
            else:
                k = next(k for k in range(2, len(loop) + 1) if loop[k - 1] > loop[k - 2])
                first = f"increase at A\\^{k} \\({loop[k - 2]} then {loop[k - 1]}\\)"
                with pytest.raises(NumericalError, match=first):
                    _weyr_weights(a, tol)
        # A is not nilpotent, so the j-th ranked matrix is A^j.
        for j, power in enumerate(ranked, 1):
            assert power.dtype == (np.float64 if j < crossing else complex)
            assert np.array_equal(power, loop_powers[j])
        if (seed, tol) == (0, 0.0):
            assert loop == weights and crossing == 6 and len(ranked) == 7

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), blocks=planted_blocks, diagonal=planted_diagonal)
    def test_contradictions_raise_at_tol_zero(self, seed, blocks, diagonal):
        # At tol 0 round-off counted as pivots can make the nullities of
        # the powers contradict concavity.  The gallop then raises, or
        # skips the powers that contradict it, and never reports increasing
        # weights; where all n nullities are consistent it equals the loop.
        assume(blocks or diagonal)
        a, _ = helpers.planted_jordan(np.random.default_rng(seed), blocks, diagonal)
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
        # pivots makes the loop read (4, 4, 3, 5, 4, 2).  A is not
        # nilpotent, so every power is ranked, and the increase raises.
        a, weights = helpers.planted_jordan(np.random.default_rng(195), [6, 6, 5, 5], [1, 1])
        assert weights == (4, 4, 4, 4, 4, 2)
        assert helpers.loop_weyr_weights(a, 0.0) == (4, 4, 3, 5, 4, 2)
        assert _weyr_weights(a, DEFAULT_TOL) == weights
        with pytest.raises(NumericalError, match="increase at A\\^4 \\(3 then 5\\)"):
            _weyr_weights(a, 0.0)

    @settings(max_examples=200)
    @given(
        steps=st.lists(st.integers(1, 9), max_size=40).map(lambda w: sorted(w, reverse=True)),
        spare=st.integers(0, 3),
    )
    def test_gallop_finds_every_concave_sequence(self, steps, spare):
        n = sum(steps) + spare
        assume(n > 0)
        got, ranked = weyr_of_nullities(n, lambda k: sum(steps[:k]))
        assert got == tuple(steps)
        assert len(ranked) == len(set(ranked))
        # The loop ranks one power per weight, and one more unless A^k
        # reaches nullity n.
        assert len(ranked) <= len(steps) + (1 if spare else 0) + 1

    def test_probes_double_then_stop_at_nullity_n(self):
        # One nilpotent block of order 120: weights 1, 1 start the gallop.
        # Its probes step 2, 4, ..., 32 ahead of the checkpoint, then the
        # largest power of two that keeps the nullity at most n: 32, 16, 8.
        got, ranked = weyr_of_nullities(120, lambda k: min(k, 120))
        assert got == (1,) * 120
        assert ranked == [1, 2, 4, 8, 16, 32, 64, 96, 112, 120]

    def test_increasing_weight_raises(self):
        with pytest.raises(NumericalError, match="increase at A\\^3"):
            weyr_of_nullities(10, lambda k: (2, 3, 5, 6)[min(k, 4) - 1])

    def test_probe_above_extrapolation_raises(self):
        # Weights 2, 2, then the probe at A^4 reads 2 + 2 + 2 + 3 = 9 > 8.
        with pytest.raises(NumericalError, match="nullity of A\\^4 is 9, above 8"):
            weyr_of_nullities(12, lambda k: (2, 4, 6, 9, 12)[min(k, 5) - 1])

    def test_long_nilpotent_block_needs_few_ranks(self, monkeypatch):
        a, weights = helpers.planted_jordan(np.random.default_rng(7), [120], [])
        calls = []

        def counting_rank(power, tol):
            calls.append(power.shape)
            return matrix_rank(power, tol)

        monkeypatch.setattr(matrix_core, "matrix_rank", counting_rank)
        assert _weyr_weights(a, DEFAULT_TOL) == weights == (1,) * 120
        assert len(calls) <= 30

    def test_long_nilpotent_block_needs_few_products(self):
        # One product per probe, and a few squarings: 29 products here.
        a, weights = helpers.planted_jordan(np.random.default_rng(7), [120], [])
        a = counting_products(a)
        assert _weyr_weights(a, DEFAULT_TOL) == weights == (1,) * 120
        assert type(a).products <= 60


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
