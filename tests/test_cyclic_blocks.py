import cmath

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hcyclic.cyclic_blocks
from hcyclic import (
    DEFAULT_TOL,
    CyclicPartition,
    NumericalError,
    assemble_blocks,
    block_diagonal_power,
    extract_blocks,
    jordan_block,
    matrix_rank,
    mirsky_spectrum,
    nonsingular_structure_check,
    partial_product,
    weyr_zero,
)

import helpers


class TestExtractBlocks:
    def test_six_example(self, six):
        a, part = six
        bc = extract_blocks(a, part)
        assert bc.sizes == (1, 3, 2)
        assert np.array_equal(bc.blocks[0], np.array([[1, 1, 1]]))
        assert np.array_equal(bc.blocks[1], np.array([[1, 0], [0, 1], [1, 1]]))
        assert np.array_equal(bc.blocks[2], np.array([[1], [1]]))

    def test_twelve_example(self, twelve):
        a, part = twelve
        bc = extract_blocks(a, part)
        assert np.array_equal(bc.blocks[0], np.ones((4, 4)))
        assert np.array_equal(
            bc.blocks[1],
            np.array([[1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]]),
        )
        assert np.array_equal(bc.blocks[2], np.eye(4))

    def test_two_by_two(self):
        a = np.array([[0, 2 + 1j], [3 - 1j, 0]])
        bc = extract_blocks(a, CyclicPartition(2, ((1,), (2,))))
        assert bc.blocks[0][0, 0] == 2 + 1j
        assert bc.blocks[1][0, 0] == 3 - 1j

    def test_rejects_non_cyclic(self):
        with pytest.raises(ValueError):
            extract_blocks(np.eye(2), CyclicPartition(2, ((1,), (2,))))

    def test_rejects_nonconsecutive(self):
        a = np.array([[0, 1, 0], [1, 0, 1], [0, 2, 0]], dtype=complex)
        with pytest.raises(ValueError):
            extract_blocks(a, CyclicPartition(2, ((2,), (1, 3))))

    def test_assemble_round_trip(self, rng):
        a, part = helpers.random_block_cycle(rng)
        bc = extract_blocks(a, part)
        assert np.array_equal(assemble_blocks(bc.blocks), a)


class TestPartialProduct:
    def test_six_full_product(self, six):
        a, part = six
        bc = extract_blocks(a, part)
        assert np.array_equal(partial_product(bc, 1, 3), np.array([[4]]))

    def test_six_single_factor_is_corner_block(self, six):
        a, part = six
        bc = extract_blocks(a, part)
        # One factor starting from class 1 is the wrap-around block A_{3,1}.
        assert np.array_equal(partial_product(bc, 1, 1), np.array([[1], [1]]))

    def test_twelve_class_two(self, twelve):
        a, part = twelve
        bc = extract_blocks(a, part)
        assert np.array_equal(partial_product(bc, 2, 3), np.ones((4, 4)))

    def test_full_products_are_square(self, rng):
        for _ in range(10):
            a, part = helpers.random_block_cycle(rng)
            bc = extract_blocks(a, part)
            for i in range(1, part.h + 1):
                b = partial_product(bc, i, part.h)
                assert b.shape == (part.sizes[i - 1], part.sizes[i - 1])

    def test_partial_shapes_follow_the_cycle(self, rng):
        a, part = helpers.random_block_cycle(rng)
        bc = extract_blocks(a, part)
        for i in range(1, part.h + 1):
            for p in range(1, part.h + 1):
                b = partial_product(bc, i, p)
                assert b.shape == (
                    part.sizes[part.alpha_power(i, -p) - 1],
                    part.sizes[i - 1],
                )

    def test_index_range_errors(self, six):
        a, part = six
        bc = extract_blocks(a, part)
        with pytest.raises(ValueError):
            partial_product(bc, 0, 1)
        with pytest.raises(ValueError):
            partial_product(bc, 1, 4)


class TestBlockDiagonalPower:
    def test_six_example(self, six):
        a, part = six
        diag = block_diagonal_power(a, part)
        assert np.array_equal(diag[0], np.array([[4]]))

    def test_twelve_example(self, twelve):
        a, part = twelve
        diag = block_diagonal_power(a, part)
        b13 = np.tile(np.array([3.0, 0.0, 0.0, 1.0]), (4, 1))
        assert np.max(np.abs(diag[0] - b13)) <= 1e-9
        assert np.max(np.abs(diag[1] - np.ones((4, 4)))) <= 1e-9
        assert np.max(np.abs(diag[2] - b13)) <= 1e-9

    def test_two_by_two(self):
        b, c = 2 + 1j, -0.5j
        a = np.array([[0, b], [c, 0]])
        diag = block_diagonal_power(a, CyclicPartition(2, ((1,), (2,))))
        assert abs(diag[0][0, 0] - b * c) <= 1e-12
        assert abs(diag[1][0, 0] - c * b) <= 1e-12

    def test_random_residuals(self, rng):
        for _ in range(25):
            a, part = helpers.random_block_cycle(rng)
            diag = block_diagonal_power(a, part, tol=1e-8)
            bc = extract_blocks(a, part)
            for i, block in enumerate(diag, start=1):
                assert np.max(np.abs(block - partial_product(bc, i, part.h))) <= 1e-8

    def test_threshold_scale_saturates(self):
        # ||A||^2 = 1e400 overflows a float while A^2 = I does not.
        a = np.array([[0, 1e200], [1e-200, 0]])
        diag = block_diagonal_power(a, CyclicPartition(2, ((1,), (2,))))
        assert [b[0, 0] for b in diag] == [1, 1]

    def test_inconsistent_input_raises(self):
        # With a sloppy tolerance the off-pattern entries hide from the
        # digraph but poison A^h, which the residual check must flag.
        a = np.array([[0.27, 1.0], [1.0, 0.27]])
        with pytest.raises(NumericalError):
            block_diagonal_power(a, CyclicPartition(2, ((1,), (2,))), tol=0.3)


class TestMirskySpectrum:
    def test_six_example(self, six):
        a, part = six
        pred = mirsky_spectrum(a, part)
        assert pred.zero_count == 3
        assert len(pred.root_orbits) == 1
        w = cmath.exp(2j * cmath.pi / 3)
        expected = [2 ** (2 / 3) * w**k for k in range(3)]
        for got, want in zip(pred.root_orbits[0], expected):
            assert abs(got - want) <= 1e-9

    def test_twelve_example(self, twelve):
        a, part = twelve
        pred = mirsky_spectrum(a, part)
        assert pred.zero_count == 9
        w = cmath.exp(2j * cmath.pi / 3)
        for got, want in zip(pred.root_orbits[0], [2 ** (2 / 3) * w**k for k in range(3)]):
            assert abs(got - want) <= 1e-9

    def test_swap_matrix(self):
        pred = mirsky_spectrum(np.array([[0, 1], [1, 0]]), CyclicPartition(2, ((1,), (2,))))
        assert pred.zero_count == 0
        values = sorted(pred.multiset(), key=lambda z: z.real)
        assert abs(values[0] + 1) <= 1e-12 and abs(values[1] - 1) <= 1e-12

    def test_orbits_closed_under_rotation(self, rng):
        for _ in range(10):
            a, part = helpers.random_block_cycle(rng, max_size=3)
            pred = mirsky_spectrum(a, part)
            w = cmath.exp(2j * cmath.pi / part.h)
            for orbit in pred.root_orbits:
                assert pred.zero_count + part.h * len(pred.root_orbits) == a.shape[0]
                for k in range(part.h):
                    assert abs(orbit[(k + 1) % part.h] - orbit[k] * w) <= 1e-9 * max(
                        1.0, abs(orbit[k])
                    )

    def test_matches_direct_eigenvalues(self, rng):
        for _ in range(20):
            a, part = helpers.random_block_cycle(rng, max_size=4)
            if a.shape[0] > 20:
                continue
            predicted = mirsky_spectrum(a, part, tol=1e-8).multiset()
            helpers.assert_spectra_match(predicted, a, 1e-6)

    def test_nonzero_spectrum_same_for_all_cycle_products(self, rng):
        for _ in range(10):
            a, part = helpers.random_block_cycle(rng, max_size=4)
            bc = extract_blocks(a, part)
            reference = None
            for i in range(1, part.h + 1):
                b = partial_product(bc, i, part.h)
                eigs = [z for z in np.linalg.eigvals(b) if abs(z) > 1e-8]
                eigs.sort(key=lambda z: (z.real, z.imag))
                if reference is None:
                    reference = eigs
                else:
                    assert len(eigs) == len(reference)
                    assert helpers.greedy_match(eigs, reference) <= 1e-6

    def test_defective_first_cycle_product(self):
        # B_1 = X N X^-1 with N a nilpotent 4x4 Jordan block: eigvals turns
        # its zero into a cluster of radius about eps^(1/4), far above the
        # tolerance, yet every eigenvalue of A is zero.
        x = np.random.default_rng(12).standard_normal((4, 4))
        a = assemble_blocks([x @ np.diag(np.ones(3), 1), np.eye(4), np.linalg.inv(x)])
        pred = mirsky_spectrum(a, helpers.consecutive_partition((4, 4, 4)))
        assert pred.zero_count == 12 and pred.root_orbits == ()
        assert sum(weyr_zero(a).weights) == 12

    @pytest.mark.parametrize("tol", [0.0, DEFAULT_TOL])
    def test_count_read_from_smallest_class_not_first(self, tol):
        # B_1 = A_12 A_21 has order 3 and rank 2, but round-off gives it
        # float rank 3 at tol 0.  The nonsingular B_2 of the smaller class
        # gives m = 2 and one zero, and check marks class 1 alone singular.
        a = assemble_blocks([[[0.7, 0.8], [0.9, 1.0], [1.1, 1.2]],
                             [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]]])
        part = helpers.consecutive_partition([3, 2])
        pred = mirsky_spectrum(a, part, tol)
        assert pred.zero_count == 1 and len(pred.root_orbits) == 2
        helpers.assert_spectra_match(pred.multiset(), a, 1e-9)
        report = nonsingular_structure_check(a, part, tol)
        assert report.singular == (pred.zero_count > 0)
        assert report.singular_blocks == (1,)

    @settings(max_examples=100)
    @given(
        seed=st.integers(0, 2**32 - 1),
        h=st.integers(2, 4),
        nonzero=st.integers(0, 3),
        nilpotent=st.lists(st.integers(1, 4), max_size=3),
        tol=st.sampled_from([0.0, DEFAULT_TOL]),
        offset=st.integers(0, 3),
    )
    def test_zero_count_is_weyr_sum(self, seed, h, nonzero, nilpotent, tol, offset):
        # B_1 = X J X^-1 with J = diag(D, N): D nonzero, N nilpotent Jordan
        # blocks, X unimodular, so A and B_1 are Gaussian-integer matrices
        # whose Weyr weights are exact at every tol: the Mirsky zero count,
        # the Weyr weights of A and n - h m all count its zero eigenvalues.
        # The classes are then rotated by ``offset``, so the smallest class
        # need not come first.
        m = nonzero + sum(nilpotent)
        assume(m > 0)
        rng = np.random.default_rng(seed)
        j = np.zeros((m, m), dtype=complex)
        j[np.arange(nonzero), np.arange(nonzero)] = rng.choice([1, -1, 2, -2, 1j], nonzero)
        start = nonzero
        for p in nilpotent:
            j[start:start + p, start:start + p] = jordan_block(p, 0)
            start += p
        lower = np.tril(rng.integers(-1, 2, (m, m)), -1) + np.eye(m)
        upper = np.triu(rng.integers(-1, 2, (m, m)), 1) + np.eye(m)
        x = lower @ upper
        x_inv = np.rint(np.linalg.inv(x))
        assert np.array_equal(x @ x_inv, np.eye(m))
        # Classes 2..h have at least m vertices; the extra ones add zeros.
        sizes = [m] + [m + int(rng.integers(0, 3)) for _ in range(h - 1)]
        blocks = [np.eye(sizes[i], sizes[(i + 1) % h]) for i in range(h)]
        blocks[0] = x @ j @ blocks[0]
        blocks[-1] = blocks[-1] @ x_inv
        shift = offset % h
        sizes, blocks = sizes[shift:] + sizes[:shift], blocks[shift:] + blocks[:shift]
        a = assemble_blocks(blocks)
        pred = mirsky_spectrum(a, helpers.consecutive_partition(sizes), tol)
        assert pred.zero_count == sum(weyr_zero(a, tol).weights) == sum(sizes) - h * nonzero
        assert len(pred.root_orbits) == nonzero

    @pytest.mark.parametrize("tol", [0.0, DEFAULT_TOL])
    def test_no_zero_from_a_determinant_of_both_primes(self, tol):
        # B_1 = M with det M = 4244333 * 4244329: singular modulo each prime
        # of the exact Weyr path, with the same pivots, and nonsingular.
        m = np.array([[4244328, -1, 0], [0, 2122167, -1], [5, 0, 2]], dtype=complex)
        a = assemble_blocks([m, np.eye(3)])
        pred = mirsky_spectrum(a, helpers.consecutive_partition([3, 3]), tol)
        assert pred.zero_count == 0 and len(pred.root_orbits) == 3


@st.composite
def integer_block_cycles(draw):
    """Block cycles with h in 2..4, classes of 1 to 4 vertices, and integer
    or Gaussian-integer blocks U V of random rank (zero blocks included)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = draw(st.integers(2, 4))
    sizes = draw(st.lists(st.integers(1, 4), min_size=h, max_size=h))
    gaussian = draw(st.booleans())
    blocks = []
    for i in range(h):
        rows, cols = sizes[i], sizes[(i + 1) % h]
        rank = int(rng.integers(0, min(rows, cols) + 1))
        u = rng.integers(-2, 3, (rows, rank)) + 1j * gaussian * rng.integers(-2, 3, (rows, rank))
        blocks.append(u @ rng.integers(-2, 3, (rank, cols)))
    return assemble_blocks(blocks), helpers.consecutive_partition(sizes)


class TestStructureCheck:
    @settings(max_examples=200)
    @given(case=integer_block_cycles(), tol=st.sampled_from([0.0, DEFAULT_TOL]))
    def test_singular_blocks_match_exact_ranks(self, case, tol):
        # The classes decided from one B_i are those whose B_i has exact
        # rank below |V_i|, and check agrees with the Mirsky zero count.
        a, part = case
        bc = extract_blocks(a, part)
        exact = tuple(
            i for i, size in enumerate(part.sizes, start=1)
            if helpers.fraction_rank(partial_product(bc, i, part.h)) < size
        )
        report = nonsingular_structure_check(a, part, tol)
        assert report.singular_blocks == exact
        assert report.singular == (mirsky_spectrum(a, part, tol).zero_count > 0)
        assert report.singular or report.sizes_equal

    def test_float_product_decided_once_at_tol_zero(self):
        # B_2 = A_21 A_12 has order 3 and rank 2, but round-off gives it
        # float rank 3 at tol 0.  The nonsingular B_1 of the smaller class
        # decides: B_2 is singular because class 2 is larger.
        a = assemble_blocks([[[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]],
                             [[0.7, 0.8], [0.9, 1.0], [1.1, 1.2]]])
        part = helpers.consecutive_partition([2, 3])
        assert matrix_rank(partial_product(extract_blocks(a, part), 2, 2), 0.0) == 3
        report = nonsingular_structure_check(a, part, 0.0)
        assert report.singular and report.singular_blocks == (2,)

    def test_forms_one_cycle_product(self, monkeypatch):
        # Sizes (2, 1, 3): only B_2 of the smallest class is formed, and
        # its nonsingularity makes B_1 and B_3 singular.  The spectrum
        # reads the same B_2.
        products = []
        original = hcyclic.cyclic_blocks.partial_product

        def counting_product(bc, i, p):
            products.append((i, p))
            return original(bc, i, p)

        monkeypatch.setattr(hcyclic.cyclic_blocks, "partial_product", counting_product)
        a = assemble_blocks([np.ones((2, 1)), np.ones((1, 3)), np.ones((3, 2))])
        report = nonsingular_structure_check(a, helpers.consecutive_partition([2, 1, 3]))
        assert products == [(2, 3)]
        assert report.singular_blocks == (1, 3)
        products.clear()
        pred = mirsky_spectrum(a, helpers.consecutive_partition([2, 1, 3]))
        assert products == [(2, 3)]
        assert pred.zero_count == 3 and len(pred.root_orbits) == 1

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="a singular Gaussian-integer B_1 that the exact path declines "
                              "reads float rank 3 at tol 0")
    def test_declined_exact_product_at_tol_zero(self):
        # The falsifying draw of test_singular_blocks_match_exact_ranks under
        # --hypothesis-seed 14: h = 3, sizes 3/4/4, Gaussian-integer blocks.
        # Every B_i is singular over Q, yet check leaves class 1 out.
        a = assemble_blocks([
            [[8 - 4j, -2, -4 + 4j, -2j], [4, -2 + 1j, -2j, -2 + 2j], [8, -2 - 1j, -4 + 2j, -2j]],
            [[2 - 1j, -2 - 2j, -6j, 6 - 3j], [1 - 2j, -3 - 3j, -6 - 8j, 4 - 3j],
             [-1 + 4j, 6 - 2j, 4, -2 + 2j], [-2, -2 + 2j, 4j, 2 + 4j]],
            [[8, -2 + 2j, 4 + 6j], [-4 + 2j, 3 - 2j, 4 + 2j], [1 - 8j, 3 + 4j, 2 + 2j],
             [8j, -1 - 7j, 8]],
        ])
        part = helpers.consecutive_partition([3, 4, 4])
        bc = extract_blocks(a, part)
        ranks = [helpers.fraction_rank(partial_product(bc, i, 3)) for i in (1, 2, 3)]
        assert ranks == [2, 2, 2]
        assert nonsingular_structure_check(a, part, 0.0).singular_blocks == (1, 2, 3)

    def test_six_example_singular(self, six):
        a, part = six
        report = nonsingular_structure_check(a, part)
        assert report.singular
        assert report.singular_blocks == (2, 3)
        assert not report.sizes_equal
        assert report.h_divides_n

    def test_bipartite_converse_witness(self):
        report = nonsingular_structure_check(
            helpers.bipartite_ones_matrix(), helpers.BIPARTITE_PARTITION
        )
        assert report.sizes_equal and report.singular

    def test_basic_circulant_nonsingular(self):
        from hcyclic import basic_circulant

        part = CyclicPartition(3, ((1,), (2,), (3,)))
        report = nonsingular_structure_check(basic_circulant(3), part)
        assert not report.singular
        assert report.sizes_equal and report.h_divides_n

    @pytest.mark.parametrize("tol", [0.0, 1e-9, 1e-2])
    def test_integer_product_decided_exactly(self, tol):
        # det B_1 = 4e6, but its float rank at tol 1e-2 is 1: an integer
        # B_i is decided exactly, as the spectrum and Weyr weights are.
        b = np.array([[4e6, 4e6], [4e6, 4e6 + 1]])
        a = assemble_blocks([b, np.eye(2)])
        part = helpers.consecutive_partition([2, 2])
        report = nonsingular_structure_check(a, part, tol)
        assert not report.singular and report.singular_blocks == ()
        assert mirsky_spectrum(a, part, tol).zero_count == 0
        assert weyr_zero(a, tol).weights == ()

    def test_nonsingular_implies_equal_sizes(self, rng):
        for _ in range(20):
            a, part = helpers.random_block_cycle(rng, nonsingular=True, max_size=3)
            report = nonsingular_structure_check(a, part)
            assert not report.singular
            assert report.sizes_equal and report.h_divides_n
