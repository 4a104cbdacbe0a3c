import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcyclic import (
    basic_circulant,
    c_k_matrix,
    circulant_from_reference,
    omega,
    omega_pow,
    recognize_circulant,
    w_matrix,
)

import helpers

finite_complex = st.complex_numbers(
    allow_nan=False, allow_infinity=False, max_magnitude=1e3
)


class TestConstruction:
    def test_basic_from_e2(self):
        assert np.array_equal(
            circulant_from_reference([0, 1, 0]),
            np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]]),
        )

    def test_order_one(self):
        c = 3 - 2j
        assert np.array_equal(circulant_from_reference([c]), np.array([[c]]))

    def test_row_shift_property(self, rng):
        r = helpers.unit_disk(6, rng)
        c = circulant_from_reference(r)
        n = 6
        for i in range(n):
            for j in range(n):
                assert c[i, j] == c[(i + 1) % n, (j + 1) % n]

    def test_sum_of_circulants_is_circulant(self, rng):
        r = helpers.unit_disk(5, rng)
        s = helpers.unit_disk(5, rng)
        total = circulant_from_reference(r) + circulant_from_reference(s)
        assert np.array_equal(total, circulant_from_reference(r + s))

    @given(r=st.lists(finite_complex, min_size=1, max_size=12))
    def test_matches_entry_loop(self, r):
        ref = np.array(r, dtype=complex)
        assert np.array_equal(circulant_from_reference(ref), helpers.brute_force_circulant(ref))

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            circulant_from_reference([])


class TestRecognition:
    def test_basic_circulant(self):
        ref = recognize_circulant(basic_circulant(3))
        assert np.array_equal(ref, np.array([0, 1, 0]))

    def test_generic_matrix_rejected(self):
        assert recognize_circulant(np.array([[1, 2], [3, 4]])) is None

    def test_constant_matrix(self):
        c = 2.5 + 1j
        ref = recognize_circulant(np.full((4, 4), c))
        assert np.array_equal(ref, np.full(4, c))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            recognize_circulant(np.ones((2, 3)))

    @settings(max_examples=200)
    @given(
        r=st.lists(finite_complex, min_size=1, max_size=12),
        seed=st.integers(0, 2**32 - 1),
        tol=st.sampled_from([1e-9, 1e-3, 0.5]),
    )
    def test_matches_entry_loop(self, r, seed, tol):
        # Perturbations of one multiple of tol with random phases, planted
        # below the first row on diagonals whose reference entry is zero,
        # so each difference is exactly the planted value and its modulus
        # straddles the threshold by an ulp or so.
        rng = np.random.default_rng(seed)
        ref = np.array(r, dtype=complex)
        ref[rng.uniform(size=ref.size) < 0.5] = 0
        n = ref.size
        factor = rng.choice(helpers.THRESHOLD_FACTORS)
        delta = tol * factor * np.exp(2j * np.pi * rng.uniform(size=(n, n)))
        c = helpers.brute_force_circulant(ref)
        hit = (rng.uniform(size=(n, n)) < 1 / 3) & (c == 0)
        hit[0] = False
        c += np.where(hit, delta, 0)
        got = recognize_circulant(c, tol)
        want = helpers.brute_force_recognize_circulant(c, tol)
        assert (got is None) == (want is None)
        assert got is None or np.array_equal(got, want)

    @given(r=st.lists(finite_complex, min_size=1, max_size=16))
    def test_round_trip_exact(self, r):
        ref = np.array(r, dtype=complex)
        recovered = recognize_circulant(circulant_from_reference(ref))
        assert recovered is not None
        assert np.array_equal(recovered, ref)


class TestBasicCirculant:
    def test_k2(self):
        assert np.array_equal(basic_circulant(2), np.array([[0, 1], [1, 0]]))

    def test_k3(self):
        assert np.array_equal(
            basic_circulant(3), np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        )

    def test_block_form(self):
        k5 = basic_circulant(5)
        assert np.array_equal(k5[:4, 1:], np.eye(4))
        assert k5[4, 0] == 1

    def test_permutation_orthogonality(self):
        k5 = basic_circulant(5)
        assert np.array_equal(k5 @ k5.T, np.eye(5))

    def test_small_order_rejected(self):
        with pytest.raises(ValueError):
            basic_circulant(1)


class TestRootsOfUnity:
    def test_omega_value(self):
        assert abs(omega(4) - 1j) <= 1e-15
        assert abs(omega(2) + 1) <= 1e-15

    def test_omega_pow_reduces_exponent(self):
        for h in range(1, 9):
            for k in range(h):
                for e in range(-10, 11):
                    direct = omega(h, 1) ** (k * e)
                    assert abs(omega_pow(h, k, e) - direct) <= 1e-12

    @pytest.mark.parametrize("h", [1, 2, 4, 6, 8, 12])
    def test_quarter_turns_are_exact(self, h):
        for k in range(h):
            for e in range(-h, h + 1):
                r = (k * e) % h
                if 4 * r % h == 0:
                    got = omega_pow(h, k, e)
                    assert got == (1, 1j, -1, -1j)[4 * r // h]
                    # The zero part is +0.0, which renders as 0, not -0.
                    assert all(math.copysign(1.0, x) > 0 for x in (got.real, got.imag) if x == 0)
        assert omega(h, h // 2) == (1 if h == 1 else -1)

    @pytest.mark.parametrize("h", range(1, 13))
    def test_geometric_sum(self, h):
        for p in range(-24, 25):
            total = sum(omega_pow(h, k, p) for k in range(h))
            expected = h if p % h == 0 else 0.0
            assert abs(total - expected) <= 1e-12


class TestCkMatrices:
    def test_k_zero_is_all_ones(self):
        assert np.max(np.abs(c_k_matrix(3, 0) - np.ones((3, 3)))) <= 1e-15

    def test_h2_k1(self):
        expected = np.array([[-1, 1], [1, -1]], dtype=complex)
        assert np.max(np.abs(c_k_matrix(2, 1) - expected)) <= 1e-15

    def test_reference_layout(self):
        h, k = 5, 2
        ref = c_k_matrix(h, k)[0]
        w = omega(h, k)
        expected = [w, 1, w ** (h - 1), w ** (h - 2), w**2]
        for got, want in zip(ref, expected):
            assert abs(got - want) <= 1e-12

    @pytest.mark.parametrize("h", range(2, 13))
    def test_sum_over_k_is_h_basic(self, h):
        total = sum(c_k_matrix(h, k) for k in range(h))
        assert np.max(np.abs(total - h * basic_circulant(h))) <= 1e-12


class TestWMatrices:
    def test_k_zero_all_ones(self):
        for variant in (1, 2):
            assert np.max(np.abs(w_matrix(6, 0, 2, variant) - np.ones((6, 6)))) <= 1e-12

    def test_h2_k1_hand_expansion(self):
        expected = np.array([[-1, 1], [1, -1]], dtype=complex)
        assert np.max(np.abs(w_matrix(2, 1, 1, 1) - expected)) <= 1e-12
        assert np.max(np.abs(w_matrix(2, 1, 1, 2) - expected)) <= 1e-12

    @pytest.mark.parametrize("h", range(2, 9))
    def test_both_variants_equal_ck(self, h):
        for k in range(h):
            ck = c_k_matrix(h, k)
            for ell in range(1, h + 1):
                assert np.max(np.abs(w_matrix(h, k, ell, 1) - ck)) <= 1e-12
                assert np.max(np.abs(w_matrix(h, k, ell, 2) - ck)) <= 1e-12

    def test_position_past_h_accepted(self):
        # The identity is position-independent, so any ell >= 1 works.
        ck = c_k_matrix(5, 3)
        assert np.max(np.abs(w_matrix(5, 3, 9, 1) - ck)) <= 1e-12

    def test_bad_variant_rejected(self):
        with pytest.raises(ValueError):
            w_matrix(3, 1, 1, 0)
