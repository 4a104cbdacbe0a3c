import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hcyclic.cyclic_blocks
import hcyclic.jordan
from hcyclic import (
    CyclicPartition,
    JordanChain,
    NumericalError,
    assemble_blocks,
    basic_circulant,
    chain_from_json,
    chain_to_json,
    embed_null_vector,
    extract_blocks,
    is_h_cyclic,
    jordan_block,
    omega,
    partial_product,
    permute_partition,
    reconstruct_from_chains,
    rotate_left_chain,
    rotate_right_chain,
    verify_chain,
    weyr_zero,
    zero_chain_from_null_vector,
    zero_chains_all,
)
from hcyclic.digraph import _block_mask
from hcyclic.circulant import omega_pow
from hcyclic.jordan import _rotated
from hcyclic.matrix_core import _threshold

import helpers


NOISE_TOL = 1e-9


@st.composite
def noisy_block_cycles(draw):
    """Block cycles with h 2 to 4 and classes of 1 to 4 vertices, integer
    or Gaussian blocks, and at times noise off the pattern of up to 0.9 tol
    entrywise (below the arc threshold, so still h-cyclic at tol), with a
    flag for the noise."""
    h = draw(st.integers(2, 4))
    sizes = draw(st.lists(st.integers(1, 4), min_size=h, max_size=h))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shapes = [(sizes[i], sizes[(i + 1) % h]) for i in range(h)]
    if draw(st.booleans()):
        blocks = [rng.integers(-2, 3, shape) for shape in shapes]
    else:
        blocks = [rng.standard_normal(shape) for shape in shapes]
    a = assemble_blocks(blocks)
    part = helpers.consecutive_partition(sizes)
    noisy = draw(st.booleans())
    if noisy:
        a += NOISE_TOL * rng.uniform(0, 0.9) * rng.uniform(-1, 1, a.shape) * ~_block_mask(part)
    return a, part, noisy


@st.composite
def biorthonormal_chains(draw):
    """Base right and left chains for h 2 to 5: one to three orbits of
    length 1 to 3 at eigenvalues in the unit disk, and a partition with
    its vertices relabelled.  On each class c, X_c has unit-disk entries
    plus 2I and Y_c = X_c^-T / h, so h Y_c X_c^T = I."""
    h = draw(st.integers(2, 5))
    lengths = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = sum(lengths)
    part = permute_partition(helpers.consecutive_partition([p] * h), rng.permutation(h * p) + 1)
    x = np.zeros((p, h * p), dtype=complex)
    y = np.zeros_like(x)
    for cls in part.classes:
        xc = helpers.unit_disk((p, p), rng) + 2 * np.eye(p)
        x[:, np.asarray(cls) - 1] = xc
        y[:, np.asarray(cls) - 1] = np.linalg.inv(xc).T / h
    rights, lefts = [], []
    for start, length in zip(np.cumsum([0] + lengths), lengths):
        lam = complex(helpers.unit_disk((), rng))
        rights.append(JordanChain(lam, "right", tuple(x[start:start + length])))
        lefts.append(JordanChain(lam, "left", tuple(y[start:start + length])))
    return rights, lefts, part


def golden_zero_chain():
    x1 = np.array([0, 1, -1, 0, 0, 0], dtype=complex)
    x2 = np.array([0, 0, 0, 0, 1, -1], dtype=complex)
    return JordanChain(0j, "right", (x1, x2))


def right_eigen_chain(a):
    """Best-separated right eigenpair of ``a`` as a length-one chain."""
    w, v = np.linalg.eig(a)
    idx = int(np.argmax(np.abs(w)))
    return JordanChain(complex(w[idx]), "right", (v[:, idx],))


def left_eigen_chain(a, lam):
    """Left eigenvector of ``a`` at the eigenvalue nearest ``lam``."""
    w, v = np.linalg.eig(a.T)
    idx = int(np.argmin(np.abs(w - lam)))
    return JordanChain(complex(w[idx]), "left", (v[:, idx],))


class TestJordanChain:
    def test_rows_of_a_two_dimensional_array(self):
        chain = JordanChain(2.0, "right", np.arange(6.0).reshape(2, 3))
        assert (chain.length, chain.order) == (2, 3)
        assert np.array_equal(chain.vectors[1], [3.0, 4.0, 5.0])

    @pytest.mark.parametrize("vectors", [(), [], np.zeros((0, 3))])
    def test_no_vectors_rejected(self, vectors):
        with pytest.raises(ValueError, match="needs at least one vector"):
            JordanChain(0j, "right", vectors)


class TestVerifyChain:
    def test_six_example_golden_chain(self, six):
        a, _ = six
        assert verify_chain(a, golden_zero_chain())

    def test_row_stochastic_ones_vector(self):
        chain = JordanChain(1.0, "right", (np.ones(3),))
        assert verify_chain(basic_circulant(3), chain)

    def test_repeated_vector_rejected(self, six):
        a, _ = six
        x = np.array([0, 1, -1, 0, 0, 0], dtype=complex)
        assert not verify_chain(a, JordanChain(0j, "right", (x, x)))

    def test_wrong_eigenvalue_rejected(self, six):
        a, _ = six
        chain = golden_zero_chain()
        assert not verify_chain(a, JordanChain(1.0, "right", chain.vectors))

    def test_dimension_mismatch(self, six):
        a, _ = six
        with pytest.raises(ValueError):
            verify_chain(a, JordanChain(0j, "right", (np.ones(4),)))

    def test_left_chain_from_similarity(self, rng):
        # Rows of S^{-1} for a J_2 block satisfy the left recursion.
        n = 4
        s = helpers.unit_disk((n, n), rng) + 2 * np.eye(n)
        lam = 1.5 - 0.5j
        j = np.zeros((n, n), dtype=complex)
        j[:2, :2] = jordan_block(2, lam)
        j[2, 2], j[3, 3] = 3.0, -2.0
        a = s @ j @ np.linalg.inv(s)
        sinv = np.linalg.inv(s)
        left = JordanChain(lam, "left", (sinv[0], sinv[1]))
        assert verify_chain(a, left, tol=1e-7)
        right = JordanChain(lam, "right", (s[:, 0], s[:, 1]))
        assert verify_chain(a, right, tol=1e-7)
        # Swapping the left vectors breaks the recursion order.
        assert not verify_chain(a, JordanChain(lam, "left", (sinv[1], sinv[0])), tol=1e-7)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_residual_raises(self):
        # A x and lam x are both inf, so the residual is inf - inf = nan,
        # which no threshold comparison rejects; x is no eigenvector.
        a = np.array([[0, 1e200], [1e200, 0]])
        chain = JordanChain(1e200, "right", (np.array([1e200, 2e200]),))
        with pytest.raises(NumericalError, match="chain residual overflowed"):
            verify_chain(a, chain)


class TestRotateRight:
    def test_k_zero_is_identity(self, six):
        _, part = six
        chain = golden_zero_chain()
        rotated = rotate_right_chain(chain, part, 0)
        assert rotated.eigenvalue == chain.eigenvalue
        for got, want in zip(rotated.vectors, chain.vectors):
            assert np.array_equal(got, want)

    def test_six_example_displayed_rotation(self, six):
        a, part = six
        rotated = rotate_right_chain(golden_zero_chain(), part, 1)
        w = omega(3)
        expected1 = np.array([0, w, -w, 0, 0, 0])
        expected2 = np.array([0, 0, 0, 0, w, -w])
        assert np.max(np.abs(rotated.vectors[0] - expected1)) <= 1e-12
        assert np.max(np.abs(rotated.vectors[1] - expected2)) <= 1e-12
        assert verify_chain(a, rotated)

    def test_bipartite_eigenvector_flips_sign(self, rng):
        b = helpers.unit_disk((3, 3), rng)
        c = helpers.unit_disk((3, 3), rng)
        a = assemble_blocks([b, c])
        part = helpers.consecutive_partition([3, 3])
        chain = right_eigen_chain(a)
        rotated = rotate_right_chain(chain, part, 1)
        lam = chain.eigenvalue
        assert abs(rotated.eigenvalue + lam) <= 1e-12 * max(1.0, abs(lam))
        resid = np.max(np.abs(a @ rotated.vectors[0] - rotated.eigenvalue * rotated.vectors[0]))
        assert resid <= 1e-9

    def test_orientation_mismatch(self, six):
        _, part = six
        with pytest.raises(ValueError):
            rotate_right_chain(JordanChain(0j, "left", (np.ones(6),)), part, 1)


class TestRotateLeft:
    def test_k_zero_is_identity(self, rng):
        part = helpers.consecutive_partition([2, 2])
        chain = JordanChain(2.0, "left", (helpers.unit_disk(4, rng),))
        rotated = rotate_left_chain(chain, part, 0)
        assert np.array_equal(rotated.vectors[0], chain.vectors[0])

    def test_bipartite_left_eigenvector_flips_sign(self, rng):
        a = assemble_blocks([helpers.unit_disk((2, 2), rng), helpers.unit_disk((2, 2), rng)])
        part = helpers.consecutive_partition([2, 2])
        lam = right_eigen_chain(a).eigenvalue
        left = left_eigen_chain(a, lam)
        rotated = rotate_left_chain(left, part, 1)
        resid = np.max(np.abs(rotated.vectors[0] @ a - rotated.eigenvalue * rotated.vectors[0]))
        assert resid <= 1e-9

    def test_all_rotations_verify(self, rng):
        for _ in range(5):
            a, part = helpers.random_block_cycle(rng, h=3, max_size=3)
            lam = right_eigen_chain(a).eigenvalue
            left = left_eigen_chain(a, lam)
            for k in range(part.h):
                assert verify_chain(a, rotate_left_chain(left, part, k), tol=1e-8)

    def test_orientation_mismatch(self, six):
        _, part = six
        with pytest.raises(ValueError):
            rotate_left_chain(golden_zero_chain(), part, 1)


class TestRotationProperties:
    def test_lemma_both_orientations_random_instances(self, rng):
        for _ in range(12):
            a, part = helpers.random_block_cycle(rng, max_size=4)
            right = right_eigen_chain(a)
            left = left_eigen_chain(a, right.eigenvalue)
            for k in range(part.h):
                assert verify_chain(a, rotate_right_chain(right, part, k), tol=1e-8)
                assert verify_chain(a, rotate_left_chain(left, part, k), tol=1e-8)

    @given(h=st.integers(2, 6), k1=st.integers(-6, 12), k2=st.integers(-6, 12))
    def test_rotation_composition(self, h, k1, k2):
        rng = np.random.default_rng(h * 1000 + k1 * 13 + k2)
        part = helpers.consecutive_partition([1] * h)
        chain = JordanChain(1.0 + 0.5j, "right", (helpers.unit_disk(h, rng),))
        twice = rotate_right_chain(rotate_right_chain(chain, part, k1), part, k2)
        once = rotate_right_chain(chain, part, k1 + k2)
        assert abs(twice.eigenvalue - once.eigenvalue) <= 1e-12
        assert np.max(np.abs(twice.vectors[0] - once.vectors[0])) <= 1e-12


    @pytest.mark.parametrize("orientation", ["right", "left"])
    def test_whole_chain_rotation_matches_per_entry_factors(self, rng, orientation):
        # The p x n broadcast that reconstruct uses gives, bit for bit, the
        # vector-by-vector products with the factors omega_pow(h, k, e) of
        # the entries, e = +-(class(u) - j) mod h for vector j.
        part = CyclicPartition(3, ((2, 5), (1,), (3, 4, 6)))
        vectors = helpers.unit_disk((4, 6), rng)
        sign = 1 if orientation == "right" else -1
        for k in range(-1, 4):
            expected = np.array([
                vec * np.array([omega_pow(3, k, sign * (part.class_of(u) - j) % 3)
                                for u in range(1, 7)])
                for j, vec in enumerate(vectors, start=1)
            ])
            assert np.array_equal(_rotated(vectors, part, k, orientation), expected)


class TestEmbed:
    def test_twelve_example(self, twelve):
        _, part = twelve
        x = np.array([-1 / 3, 0, 0, 1], dtype=complex)
        v = embed_null_vector(x, 1, part)
        assert np.array_equal(v[:4], x)
        assert np.all(v[4:] == 0)

    def test_last_class(self, twelve):
        _, part = twelve
        v = embed_null_vector(np.ones(4), 3, part)
        assert np.all(v[:8] == 0)
        assert np.all(v[8:] == 1)

    def test_zero_vector(self, six):
        _, part = six
        assert np.all(embed_null_vector(np.zeros(3), 2, part) == 0)

    def test_size_mismatch(self, six):
        _, part = six
        with pytest.raises(ValueError):
            embed_null_vector(np.ones(2), 2, part)


class TestZeroChains:
    def test_twelve_seed_lengths(self, twelve):
        a, part = twelve
        x = np.array([-1 / 3, 0, 0, 1], dtype=complex)
        assert zero_chain_from_null_vector(a, part, 1, x).length == 3
        assert zero_chain_from_null_vector(a, part, 1, np.eye(4)[1]).length == 2
        assert zero_chain_from_null_vector(a, part, 1, np.eye(4)[2]).length == 2

    def test_report_chain_verifies(self, twelve):
        a, part = twelve
        report = zero_chain_from_null_vector(a, part, 1, np.array([-1 / 3, 0, 0, 1]))
        assert report.class_index == 1
        assert verify_chain(a, report.chain)
        assert report.chain.eigenvalue == 0

    def test_seed_not_in_kernel_rejected(self, twelve):
        a, part = twelve
        with pytest.raises(ValueError):
            zero_chain_from_null_vector(a, part, 1, np.array([1, 0, 0, 0]))

    def test_own_kernel_vector_failing_the_kernel_test_is_numerical(self):
        # At tol 0 the kernel vector that null_space returns fails the
        # kernel test by round-off: an internal inconsistency, not bad
        # input.  The same vector given as a seed is bad input.
        a, part = helpers.inexact_kernel_matrix(), helpers.INEXACT_KERNEL_PARTITION
        assert zero_chains_all(a, part).lengths_by_class() == {1: [2], 2: [1]}
        with pytest.raises(NumericalError, match="not in the kernel of cycle product B_1"):
            zero_chains_all(a, part, tol=0.0)
        with pytest.raises(ValueError, match="not in the kernel of cycle product B_1"):
            zero_chain_from_null_vector(a, part, 1, np.array([-1 / 49, 1]), tol=0.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_seed_test_raises(self):
        # B_1 = [[1e300, -1e300], [1e300, -1e300]]: B_1 x is inf - inf = nan
        # for the kernel vector x = (1e10, 1e10).
        a = np.zeros((3, 3))
        a[:2, 2], a[2, :2] = 1, [1e300, -1e300]
        part = CyclicPartition(2, ((1, 2), (3,)))
        with pytest.raises(NumericalError, match="B_1 x overflowed"):
            zero_chain_from_null_vector(a, part, 1, np.array([1e10, 1e10]))

    def test_zero_seed_rejected(self, twelve):
        a, part = twelve
        with pytest.raises(ValueError):
            zero_chain_from_null_vector(a, part, 1, np.zeros(4))

    def test_block_formula_on_random_instances(self, rng):
        # A^p v lives in a single class block and equals the partial
        # product applied to the seed coordinates.
        for _ in range(10):
            a, part = helpers.random_block_cycle(rng, max_size=4)
            bc = extract_blocks(a, part)
            i = int(rng.integers(1, part.h + 1))
            x = helpers.unit_disk(part.sizes[i - 1], rng)
            v = embed_null_vector(x, i, part)
            for p in range(1, part.h + 1):
                v = a @ v
                target = part.alpha_power(i, -p)
                offsets = np.concatenate([[0], np.cumsum(part.sizes)])
                piece = v[offsets[target - 1]:offsets[target]]
                expected = partial_product(bc, i, p) @ x
                assert np.max(np.abs(piece - expected)) <= 1e-8
                rest = np.delete(v, np.arange(offsets[target - 1], offsets[target]))
                assert np.max(np.abs(rest)) <= 1e-8 if rest.size else True

    def test_partial_product_minimality(self, twelve):
        a, part = twelve
        bc = extract_blocks(a, part)
        report = zero_chain_from_null_vector(a, part, 1, np.array([-1 / 3, 0, 0, 1]))
        for q in range(1, report.length):
            assert np.max(np.abs(partial_product(bc, 1, q) @ report.seed)) > 1e-6
        assert np.max(np.abs(partial_product(bc, 1, report.length) @ report.seed)) <= 1e-9

    def test_all_twelve_classes(self, twelve):
        a, part = twelve
        summary = zero_chains_all(a, part)
        lengths = summary.lengths_by_class()
        assert sorted(lengths[1]) == [2, 2, 3]
        assert lengths[2] == [1, 1, 1]
        assert set(lengths[3]) <= {1, 2}
        assert summary.cross_class_redundancy
        assert summary.zero_block_sizes == (3, 2, 2, 1, 1)

    def test_validates_once(self, twelve, monkeypatch):
        # One h-cyclicity check, and one partial product per class: B_i,
        # whose kernel seeds the chains; the walk with A does the rest.
        a, part = twelve
        calls = []
        products = []
        original = hcyclic.cyclic_blocks.is_h_cyclic
        original_product = hcyclic.jordan.partial_product

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        def counting_product(bc, i, p):
            products.append(i)
            return original_product(bc, i, p)

        monkeypatch.setattr(hcyclic.cyclic_blocks, "is_h_cyclic", counting)
        monkeypatch.setattr(hcyclic.jordan, "partial_product", counting_product)
        summary = zero_chains_all(a, part)
        assert len(summary.reports) == 9
        assert len(calls) == 1
        assert set(summary.by_class()) == {1, 2, 3}  # every class is singular
        assert products == [1, 2, 3]

    def test_no_chain_where_weyr_reads_nonsingular(self, monkeypatch):
        # det B_1 = 4e6, so weyr reads () exactly, while the float rank of
        # B_1 at tol 1e-2 is 1.  The classes come from the Weyr weights:
        # no B_i is formed and no chain is grown.
        products = []
        monkeypatch.setattr(hcyclic.jordan, "partial_product", lambda *args: products.append(args))
        a = assemble_blocks([[[4e6, 4e6], [4e6, 4e6 + 1]], np.eye(2)])
        summary = zero_chains_all(a, CyclicPartition(2, ((1, 2), (3, 4))), 1e-2)
        assert summary.reports == () and summary.weyr.weights == ()
        assert products == []

    def test_walk_alone_decides_the_length_at_tol_zero(self):
        # B_11 x is round-off at tol 0 while A v is exactly zero: the walk
        # with A gives the length, as at any tol above 0, and the chain
        # holds against A.  The lengths are the conjugate of the Weyr
        # weights.
        a = assemble_blocks([[[3, 1], [-2, -1], [0, 3]], [[1, 3, 1], [3, 2, 0]]])
        part = CyclicPartition(2, ((1, 2, 3), (4, 5)))
        for tol in (0.0, 1e-9):
            summary = zero_chains_all(a, part, tol)
            assert summary.lengths_by_class() == {1: [1]}
            assert verify_chain(a, summary.reports[0].chain, tol)
            assert (1,) == summary.weyr.weights == summary.zero_block_sizes

    def test_off_pattern_noise_does_not_lengthen_a_chain(self):
        # A v is zero on class 1, where B_21 x lives, but the noise below
        # tol in the diagonal block of class 2 leaves 1.8e-9 there.  The
        # walk stops at q = 1 by the rows of class 1; the chain (v,) then
        # fails against A, which is a NumericalError, not a length-2 chain
        # whose top vector is noise.
        tol = 1e-9
        a = np.array([[0, 0.25, -0.25], [0.5, 0.9 * tol, 0.9 * tol], [0.5, 0.9 * tol, -0.9 * tol]])
        part = CyclicPartition(2, ((1,), (2, 3)))
        with pytest.raises(NumericalError, match="fails verification"):
            zero_chain_from_null_vector(a, part, 2, [1, 1], tol)
        with pytest.raises(NumericalError, match="fails verification"):
            zero_chains_all(a, part, tol)

    @settings(max_examples=300)
    @given(case=noisy_block_cycles())
    def test_length_is_the_least_vanishing_partial_product(self, case):
        # A^q v is B_iq x placed on one class, so the length the walk
        # finds is the least q at which B_iq x falls below the threshold.
        # Noise near tol can make the Weyr ranks or the chain check against
        # A contradict the block structure: a NumericalError, never a
        # wrong length.
        a, part, noisy = case
        tol = NOISE_TOL
        try:
            summary = zero_chains_all(a, part, tol)
        except NumericalError:
            assert noisy
            return
        bc = extract_blocks(a, part, tol)
        na = float(np.max(np.sum(np.abs(a), axis=1)))
        for report in summary.reports:
            x = report.seed
            nx = float(np.max(np.abs(x)))
            small = [
                np.max(np.abs(partial_product(bc, report.class_index, q) @ x))
                <= _threshold(tol, na, nx, power=q)
                for q in range(1, part.h + 1)
            ]
            assert report.length == small.index(True) + 1

    def test_scale_separated_exact_chain(self):
        # The chain (1e200 e_1, e_3) is exact; its vectors differ in scale
        # by far more than 1/tol, which must not make them look dependent.
        a = helpers.scale_separated_matrix()
        summary = zero_chains_all(a, helpers.SCALE_SEPARATED_PARTITION)
        assert summary.lengths_by_class() == {1: [1], 2: [2]}
        chain = summary.by_class()[2][0].chain
        assert np.array_equal(chain.vectors[0], [1e200, 0, 0])
        assert np.array_equal(chain.vectors[1], [0, 0, 1])
        assert verify_chain(a, chain)

    def test_threshold_scale_saturates(self):
        # ||A||^2 = 1e320 overflows a float while A^2 = 0: the zero test of
        # A^2 v is made against an infinite scale instead of raising.
        a = assemble_blocks([np.array([[1e80, 1e160]]), np.zeros((2, 1))])
        part = CyclicPartition(2, ((1,), (2, 3)))
        report = zero_chain_from_null_vector(a, part, 2, np.array([1, 0]), tol=1e-100)
        assert report.length == 2

    def test_six_example_consistent_with_block_sizes(self, six):
        a, part = six
        summary = zero_chains_all(a, part)
        assert summary.zero_block_sizes == (2, 1)
        assert max(r.length for r in summary.reports) == 2

    def test_nonsingular_matrix_empty(self):
        part = CyclicPartition(3, ((1,), (2,), (3,)))
        summary = zero_chains_all(basic_circulant(3), part)
        assert summary.reports == ()
        assert not summary.cross_class_redundancy
        assert summary.zero_block_sizes == ()


class TestWeyr:
    def test_twelve_example(self, twelve):
        a, _ = twelve
        assert weyr_zero(a).weights == (5, 3, 1)

    def test_six_example(self, six):
        a, _ = six
        assert weyr_zero(a).weights == (2, 1)

    def test_nonsingular_empty(self):
        assert weyr_zero(basic_circulant(4)).weights == ()

    def test_conjugate(self):
        assert weyr_zero(helpers.twelve_matrix()).conjugate() == (3, 2, 2, 1, 1)

    def test_weakly_decreasing_and_svd_oracle(self, rng):
        # Independent oracle: nullities via SVD rank of explicit powers.
        for _ in range(10):
            a, _ = helpers.random_block_cycle(rng, h=3, max_size=2)
            n = a.shape[0]
            if n > 12:
                continue
            weights = weyr_zero(a).weights
            assert all(weights[i] >= weights[i + 1] for i in range(len(weights) - 1))
            expected = []
            prev = 0
            power = np.eye(n, dtype=complex)
            for _k in range(n):
                power = power @ a
                nullity = n - np.linalg.matrix_rank(power, tol=1e-9)
                if nullity == prev:
                    break
                expected.append(nullity - prev)
                prev = nullity
            assert list(weights) == expected

    def test_nilpotent_jordan_structure(self):
        a = np.zeros((5, 5), dtype=complex)
        a[:3, :3] = jordan_block(3, 0)
        a[3:, 3:] = jordan_block(2, 0)
        assert weyr_zero(a).weights == (2, 2, 1)
        assert weyr_zero(a).conjugate() == (3, 2)


class TestReconstruct:
    def bipartite_example(self):
        s = np.array(
            [[1, 0, 1, 0], [0, 1, 0, -1], [1, 0, -1, 0], [0, 1, 0, 1]], dtype=complex
        )
        j = np.zeros((4, 4), dtype=complex)
        j[0, 1] = 1
        j[2, 3] = 1
        return s, j

    def test_bipartite_js_example(self):
        s, j = self.bipartite_example()
        sinv = np.linalg.inv(s)
        part = CyclicPartition(2, ((1, 2), (3, 4)))
        right = JordanChain(0j, "right", (s[:, 0], s[:, 1]))
        left = JordanChain(0j, "left", (sinv[0], sinv[1]))
        a = reconstruct_from_chains([right], [left], part)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 3] = 1
        expected[2, 1] = 1
        assert np.max(np.abs(a - expected)) <= 1e-12
        assert np.max(np.abs(a - s @ j @ sinv)) <= 1e-12

    def test_bipartite_js_example_exact_at_tol_zero(self):
        # omega_2 is exactly -1, so the rotated families are exactly
        # biorthonormal and the synthesis is exact.
        s, _ = self.bipartite_example()
        sinv = np.linalg.inv(s)
        part = CyclicPartition(2, ((1, 2), (3, 4)))
        right = JordanChain(0j, "right", (s[:, 0], s[:, 1]))
        left = JordanChain(0j, "left", (sinv[0], sinv[1]))
        a = reconstruct_from_chains([right], [left], part, tol=0.0)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 3] = 1
        expected[2, 1] = 1
        assert np.array_equal(a, expected)

    def test_trivial_partition_is_plain_similarity(self, rng):
        # h = 1: the block mask is all-ones and the synthesis collapses to
        # lam*sum x_j y_j^T + sum x_j y_{j+1}^T, i.e. S J S^{-1}.
        lam = 0.7 - 0.2j
        s = helpers.unit_disk((2, 2), rng) + 2 * np.eye(2)
        sinv = np.linalg.inv(s)
        part = CyclicPartition(1, ((1, 2),))
        right = JordanChain(lam, "right", (s[:, 0], s[:, 1]))
        left = JordanChain(lam, "left", (sinv[0], sinv[1]))
        a = reconstruct_from_chains([right], [left], part)
        expected = s @ jordan_block(2, lam) @ sinv
        assert np.max(np.abs(a - expected)) <= 1e-9

    @pytest.mark.parametrize("h", [2, 3, 4, 5])
    def test_random_round_trip(self, rng, h):
        # h = 4 has exact quarter-turn roots of unity, h = 5 does not.
        for _ in range(5):
            a, part = helpers.random_block_cycle(rng, h=h, nonsingular=True, max_size=3)
            rights, lefts = helpers.eigen_orbit_chains(a, part.h)
            rec = reconstruct_from_chains(rights, lefts, part)
            assert np.max(np.abs(rec - a)) <= 1e-6
            assert is_h_cyclic(rec, part, 0.0)
            # Every entry off the pattern is +0, never a -0 that renders "-0".
            off = rec[~_block_mask(part)]
            assert not np.any(np.signbit(off.real) | np.signbit(off.imag))

    @settings(max_examples=200)
    @given(case=biorthonormal_chains())
    def test_biorthonormal_base_chains_rebuild_their_matrix(self, case):
        # Defective orbits at every h and partitions that are not
        # consecutive: every rotated chain is a chain of the result.
        rights, lefts, part = case
        a = reconstruct_from_chains(rights, lefts, part)
        assert is_h_cyclic(a, part, 0.0)
        for rc, lc in zip(rights, lefts):
            for k in range(part.h):
                assert verify_chain(a, rotate_right_chain(rc, part, k), 1e-7)
                assert verify_chain(a, rotate_left_chain(lc, part, k), 1e-7)

    @pytest.mark.parametrize("h", [3, 5])
    def test_basic_circulant_exact_at_tol_zero(self, h):
        # h * (1/h) rounds to 1 exactly, so the one-vertex classes pass the
        # biorthonormality test at tol 0 although w is not exact.
        part = CyclicPartition(h, tuple((i,) for i in range(1, h + 1)))
        right = JordanChain(1.0, "right", (np.ones(h),))
        left = JordanChain(1.0, "left", (np.full(h, 1 / h),))
        a = reconstruct_from_chains([right], [left], part, tol=0.0)
        assert np.array_equal(a, basic_circulant(h))

    def test_overflowed_gram_scale_is_numerical(self):
        # The class-2 product is 1.5 + 1.5i where 1/2 is needed; the
        # modulus of 1.5e308 (1 + i) overflows, so the residual cannot be
        # judged against its scale.
        part = CyclicPartition(2, ((1,), (2,)))
        right = JordanChain(1.0, "right", (np.array([1, 1.5e308 + 1.5e308j]),))
        left = JordanChain(1.0, "left", (np.array([0.5, 1e-308]),))
        with pytest.raises(NumericalError, match="overflowed"):
            reconstruct_from_chains([right], [left], part)

    def test_wrong_total_length_rejected(self, rng):
        part = CyclicPartition(2, ((1, 2), (3, 4)))
        right = JordanChain(1.0, "right", (np.ones(4),))
        left = JordanChain(1.0, "left", (np.ones(4),))
        with pytest.raises(ValueError):
            reconstruct_from_chains([right], [left], part)

    def test_broken_biorthogonality_rejected(self):
        s, _ = self.bipartite_example()
        part = CyclicPartition(2, ((1, 2), (3, 4)))
        right = JordanChain(0j, "right", (s[:, 0], s[:, 1]))
        # A left chain unrelated to S^{-1} cannot assemble to a similarity.
        left = JordanChain(0j, "left", (np.ones(4), np.arange(1.0, 5.0)))
        with pytest.raises(ValueError):
            reconstruct_from_chains([right], [left], part)

    def test_orientation_validation(self):
        part = CyclicPartition(2, ((1, 2), (3, 4)))
        right = JordanChain(1.0, "right", (np.ones(4), np.zeros(4)))
        with pytest.raises(ValueError):
            reconstruct_from_chains([right], [right], part)

    @pytest.mark.parametrize(
        "eigenvalue, vectors",
        [(1.0 + 1e-16j, (np.ones(4),)), (1.0, (np.ones(4), np.zeros(4)))],
        ids=["eigenvalue", "length"],
    )
    def test_left_chain_must_match_right_chain(self, eigenvalue, vectors):
        # The orbit's eigenvalue and length come from its right chain; a
        # left chain that says otherwise is refused however close it is.
        part = CyclicPartition(2, ((1, 2), (3, 4)))
        right = JordanChain(1.0, "right", (np.ones(4),))
        left = JordanChain(eigenvalue, "left", vectors)
        with pytest.raises(ValueError, match="does not match its right chain"):
            reconstruct_from_chains([right], [left], part)

    @staticmethod
    def scaled_pair(right, left):
        part = CyclicPartition(2, ((1,), (2,)))
        chains = (JordanChain(1.0, "right", (np.array(right),)),
                  JordanChain(1.0, "left", (np.array(left),)))
        return reconstruct_from_chains([chains[0]], [chains[1]], part)

    @pytest.mark.parametrize(
        "right, left",
        [((1e100, 1e-200), (0.3e-100, 0.3e200)), ((1e200, 1e-200), (0.3e-200, 0.3e200))],
    )
    def test_scale_separated_chains_not_biorthonormal(self, right, left):
        # The rotated Gram matrix is 0.6 I: off by 0.4 whatever the scales.
        with pytest.raises(ValueError, match="not biorthonormal"):
            self.scaled_pair(right, left)

    def test_scale_separated_exact_pair(self):
        a = self.scaled_pair((1e100, 1e-200), (0.5e-100, 0.5e200))
        assert a.tolist() == [[0, 1e300], [1e-300, 0]]

class TestChainJson:
    def test_round_trip(self, rng):
        chain = JordanChain(1.5 - 2j, "left", (helpers.unit_disk(3, rng), helpers.unit_disk(3, rng)))
        back = chain_from_json(chain_to_json(chain))
        assert back.eigenvalue == chain.eigenvalue
        assert back.orientation == "left"
        for got, want in zip(back.vectors, chain.vectors):
            assert np.array_equal(got, want)

    def test_malformed(self):
        with pytest.raises(ValueError):
            chain_from_json({"eigenvalue": [0, 0], "orientation": "right"})
        with pytest.raises(ValueError):
            chain_from_json({"eigenvalue": [0], "orientation": "right", "vectors": [[[0, 0]]]})
        # Integers too large for a float.
        with pytest.raises(ValueError):
            chain_from_json({"eigenvalue": [10**400, 0], "orientation": "right",
                             "vectors": [[[0, 0]]]})
        with pytest.raises(ValueError):
            chain_from_json({"eigenvalue": [0, 0], "orientation": "right",
                             "vectors": [[[10**400, 0]]]})
