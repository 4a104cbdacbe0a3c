"""Acceptance suite: every criterion at its stated tolerance.

Each test prints a pass/fail line through the conftest report hook, so a
plain ``pytest tests/test_acceptance.py`` shows one status line per
criterion.
"""

import cmath
import time

import numpy as np

from hcyclic import (
    CyclicPartition,
    JordanChain,
    basic_circulant,
    c_k_matrix,
    circulant_from_reference,
    cyclic_index,
    digraph_of,
    extract_blocks,
    find_h_partition,
    is_h_cyclic,
    mirsky_spectrum,
    nonsingular_structure_check,
    omega,
    partial_product,
    recognize_circulant,
    reconstruct_from_chains,
    rotate_left_chain,
    rotate_right_chain,
    verify_chain,
    w_matrix,
    weyr_zero,
    zero_chain_from_null_vector,
    zero_chains_all,
    apply_vertex_permutation,
)

import helpers


def test_criterion_1_six_example_blocks_and_spectrum(six):
    a, part = six
    start = time.perf_counter()
    bc = extract_blocks(a, part)
    b1 = partial_product(bc, 1, 3)
    pred = mirsky_spectrum(a, part)
    elapsed = time.perf_counter() - start

    assert b1.shape == (1, 1) and abs(b1[0, 0] - 4) <= 1e-12
    assert pred.zero_count == 3
    assert len(pred.root_orbits) == 1
    w = cmath.exp(2j * cmath.pi / 3)
    closed_form = [2 ** (2 / 3), 2 ** (2 / 3) * w, 2 ** (2 / 3) * w**2]
    for got, want in zip(pred.root_orbits[0], closed_form):
        assert abs(got - want) <= 1e-9
    assert elapsed < 1.0


def test_criterion_2_six_example_zero_chain_rotation(six):
    a, part = six
    x1 = np.array([0, 1, -1, 0, 0, 0], dtype=complex)
    x2 = np.array([0, 0, 0, 0, 1, -1], dtype=complex)
    chain = JordanChain(0j, "right", (x1, x2))
    assert verify_chain(a, chain)

    rotated = rotate_right_chain(chain, part, 1)
    w = omega(3)
    assert np.max(np.abs(rotated.vectors[0] - np.array([0, w, -w, 0, 0, 0]))) <= 1e-12
    assert np.max(np.abs(rotated.vectors[1] - np.array([0, 0, 0, 0, w, -w]))) <= 1e-12
    assert rotated.eigenvalue == 0
    assert verify_chain(a, rotated)

    assert weyr_zero(a).weights == (2, 1)


def test_criterion_3_twelve_example(twelve):
    a, part = twelve
    from hcyclic import block_diagonal_power

    diag = block_diagonal_power(a, part)
    b13 = np.tile(np.array([3.0, 0.0, 0.0, 1.0]), (4, 1))
    assert np.max(np.abs(diag[0] - b13)) <= 1e-9
    assert np.max(np.abs(diag[1] - np.ones((4, 4)))) <= 1e-9
    assert np.max(np.abs(diag[2] - b13)) <= 1e-9

    x = np.array([-1 / 3, 0, 0, 1], dtype=complex)
    assert zero_chain_from_null_vector(a, part, 1, x).length == 3
    assert zero_chain_from_null_vector(a, part, 1, np.eye(4)[1]).length == 2
    assert zero_chain_from_null_vector(a, part, 1, np.eye(4)[2]).length == 2

    lengths = zero_chains_all(a, part).lengths_by_class()
    assert lengths[2] == [1, 1, 1]
    assert set(lengths[3]) <= {1, 2}

    assert weyr_zero(a).weights == (5, 3, 1)

    pred = mirsky_spectrum(a, part)
    assert pred.zero_count == 9
    w = cmath.exp(2j * cmath.pi / 3)
    for got, want in zip(pred.root_orbits[0], [2 ** (2 / 3) * w**k for k in range(3)]):
        assert abs(got - want) <= 1e-9


def test_criterion_4_circulant_identities():
    for h in range(2, 13):
        total = sum(c_k_matrix(h, k) for k in range(h))
        assert np.max(np.abs(total - h * basic_circulant(h))) <= 1e-12
        for k in range(h):
            ck = c_k_matrix(h, k)
            for ell in range(1, h + 1):
                assert np.max(np.abs(w_matrix(h, k, ell, 1) - ck)) <= 1e-12
                assert np.max(np.abs(w_matrix(h, k, ell, 2) - ck)) <= 1e-12

    rng = np.random.default_rng(41)
    for _ in range(100):
        n = int(rng.integers(1, 17))
        ref = helpers.unit_disk(n, rng)
        recovered = recognize_circulant(circulant_from_reference(ref))
        assert recovered is not None and np.array_equal(recovered, ref)


def test_criterion_5_block_power_and_rotation_properties():
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    for _ in range(200):
        a, part = helpers.random_block_cycle(rng, max_size=5)
        h = part.h

        power = np.linalg.matrix_power(a, h)
        bc = extract_blocks(a, part)
        offsets = np.concatenate([[0], np.cumsum(part.sizes)])
        for i in range(h):
            for j in range(h):
                block = power[offsets[i]:offsets[i + 1], offsets[j]:offsets[j + 1]]
                if i == j:
                    expected = partial_product(bc, i + 1, h)
                    assert np.max(np.abs(block - expected)) <= 1e-8
                else:
                    assert np.max(np.abs(block)) <= 1e-8

        w, v = np.linalg.eig(a)
        idx = int(np.argmax(np.abs(w)))
        right = JordanChain(complex(w[idx]), "right", (v[:, idx],))
        wl, vl = np.linalg.eig(a.T)
        jdx = int(np.argmin(np.abs(wl - w[idx])))
        left = JordanChain(complex(wl[jdx]), "left", (vl[:, jdx],))
        for k in range(h):
            assert verify_chain(a, rotate_right_chain(right, part, k), tol=1e-8)
            assert verify_chain(a, rotate_left_chain(left, part, k), tol=1e-8)
    assert time.perf_counter() - start < 30.0


def test_criterion_6_mirsky_cross_check():
    rng = np.random.default_rng(43)
    done = 0
    while done < 50:
        a, part = helpers.random_block_cycle(rng, max_size=4)
        if a.shape[0] > 20:
            continue
        done += 1
        predicted = mirsky_spectrum(a, part, tol=1e-8).multiset()
        helpers.assert_spectra_match(predicted, a, 1e-6)


def test_criterion_7_structure_theorems():
    rng = np.random.default_rng(44)
    for _ in range(50):
        a, part = helpers.random_block_cycle(rng, nonsingular=True, max_size=4)
        report = nonsingular_structure_check(a, part)
        assert not report.singular
        assert report.sizes_equal
        assert report.h_divides_n

    witness = nonsingular_structure_check(
        helpers.bipartite_ones_matrix(), helpers.BIPARTITE_PARTITION
    )
    assert witness.sizes_equal and witness.singular


def test_criterion_8_partition_detection(six):
    a, part = six
    rng = np.random.default_rng(45)
    for _ in range(20):
        shuffle = tuple(int(v) for v in rng.permutation(6) + 1)
        shuffled = apply_vertex_permutation(a, shuffle)
        g = digraph_of(shuffled)
        assert cyclic_index(g) == 3
        found = find_h_partition(g, 3)
        assert found is not None
        assert is_h_cyclic(shuffled, found)
        expected = [frozenset(shuffle[v - 1] for v in cls) for cls in part.classes]
        got = [frozenset(cls) for cls in found.classes]
        assert any(
            all(got[(i + t) % 3] == expected[i] for i in range(3)) for t in range(3)
        )

    for _ in range(100):
        g = helpers.random_digraph(
            rng, n=int(rng.integers(1, 7)), density=float(rng.choice([0.1, 0.2, 0.35]))
        )
        for h in range(1, g.n + 1):
            found = find_h_partition(g, h)
            assert (found is not None) == helpers.brute_force_partition_exists(g, h)


def test_criterion_9_reconstruction():
    s = np.array(
        [[1, 0, 1, 0], [0, 1, 0, -1], [1, 0, -1, 0], [0, 1, 0, 1]], dtype=complex
    )
    sinv = np.linalg.inv(s)
    j = np.zeros((4, 4), dtype=complex)
    j[0, 1] = 1
    j[2, 3] = 1
    part = CyclicPartition(2, ((1, 2), (3, 4)))
    right = JordanChain(0j, "right", (s[:, 0], s[:, 1]))
    left = JordanChain(0j, "left", (sinv[0], sinv[1]))
    rebuilt = reconstruct_from_chains([right], [left], part)
    assert np.max(np.abs(rebuilt - s @ j @ sinv)) <= 1e-12
    assert is_h_cyclic(rebuilt, part)

    rng = np.random.default_rng(46)
    for _ in range(25):
        a, part = helpers.random_block_cycle(rng, h=3, nonsingular=True, max_size=3)
        rights, lefts = helpers.eigen_orbit_chains(a, part.h)
        rebuilt = reconstruct_from_chains(rights, lefts, part)
        assert np.max(np.abs(rebuilt - a)) <= 1e-6
