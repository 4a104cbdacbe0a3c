import cmath

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hcyclic import (
    CyclicPartition,
    NumericalError,
    assemble_blocks,
    block_diagonal_power,
    extract_blocks,
    jordan_block,
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

    @settings(max_examples=100)
    @given(
        seed=st.integers(0, 2**32 - 1),
        h=st.integers(2, 4),
        nonzero=st.integers(0, 3),
        nilpotent=st.lists(st.integers(1, 4), max_size=3),
    )
    def test_zero_count_is_weyr_sum(self, seed, h, nonzero, nilpotent):
        # B_1 = X J X^-1 with J = diag(D, N): D nonzero, N nilpotent Jordan
        # blocks, X unimodular, so every power of A is formed exactly and
        # the Weyr weights of A count its zero eigenvalues.
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
        a = assemble_blocks(blocks)
        pred = mirsky_spectrum(a, helpers.consecutive_partition(sizes))
        assert pred.zero_count == sum(weyr_zero(a).weights)
        assert len(pred.root_orbits) == nonzero


class TestStructureCheck:
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

    def test_nonsingular_implies_equal_sizes(self, rng):
        for _ in range(20):
            a, part = helpers.random_block_cycle(rng, nonsingular=True, max_size=3)
            report = nonsingular_structure_check(a, part)
            assert not report.singular
            assert report.sizes_equal and report.h_divides_n
