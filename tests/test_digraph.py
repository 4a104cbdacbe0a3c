import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcyclic import (
    CyclicPartition,
    Digraph,
    apply_vertex_permutation,
    basic_circulant,
    consecutive_permutation,
    cyclic_index,
    digraph_of,
    feasible_h_values,
    find_h_partition,
    is_h_cyclic,
    partition_from_json,
    partition_to_json,
    permute_partition,
)

import helpers


class TestDigraphOf:
    def test_zero_matrix_has_no_arcs(self):
        assert digraph_of(np.zeros((3, 3))).arcs == frozenset()

    def test_basic_circulant_cycle(self):
        g = digraph_of(basic_circulant(3))
        assert g.arcs == frozenset({(1, 2), (2, 3), (3, 1)})

    def test_six_example_arcs(self):
        g = digraph_of(helpers.six_matrix())
        assert g.arcs == frozenset(
            {(1, 2), (1, 3), (1, 4), (2, 5), (3, 6), (4, 5), (4, 6), (5, 1), (6, 1)}
        )

    def test_tolerance_filters_small_entries(self):
        a = np.array([[0, 1e-12], [1.0, 0]])
        assert digraph_of(a, tol=1e-9).arcs == frozenset({(2, 1)})

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            digraph_of(np.ones((2, 3)))


class TestCyclicIndex:
    @pytest.mark.parametrize("h", [2, 3, 4])
    def test_single_cycle(self, h):
        g = digraph_of(basic_circulant(h))
        assert cyclic_index(g) == h
        # Cross-check against the exhaustive labelling oracle.
        for cand in range(1, h + 1):
            assert helpers.brute_force_partition_exists(g, cand) == (h % cand == 0)

    def test_loop_forces_one(self):
        g = Digraph(3, frozenset({(1, 2), (2, 2)}))
        assert cyclic_index(g) == 1

    def test_six_example(self):
        assert cyclic_index(digraph_of(helpers.six_matrix())) == 3

    def test_arcless_digraph_unconstrained(self):
        assert cyclic_index(Digraph(4, frozenset())) == 0


class TestFindPartition:
    def test_six_example(self):
        g = digraph_of(helpers.six_matrix())
        part = find_h_partition(g, 3)
        assert part.classes == ((1,), (2, 3, 4), (5, 6))

    def test_six_example_h2_infeasible(self):
        g = digraph_of(helpers.six_matrix())
        assert find_h_partition(g, 2) is None
        assert not helpers.brute_force_partition_exists(g, 2)

    def test_k4_singletons(self):
        part = find_h_partition(digraph_of(basic_circulant(4)), 4)
        assert part.classes == ((1,), (2,), (3,), (4,))

    def test_h_one_always_succeeds(self, rng):
        for _ in range(10):
            g = helpers.random_digraph(rng)
            part = find_h_partition(g, 1)
            assert part.classes == (tuple(range(1, g.n + 1)),)

    def test_arcless_digraph_any_h(self):
        g = Digraph(4, frozenset())
        for h in range(1, 5):
            part = find_h_partition(g, h)
            assert part is not None and len(part.classes) == h
        assert find_h_partition(g, 5) is None

    def test_agrees_with_brute_force(self, rng):
        for _ in range(30):
            g = helpers.random_digraph(
                rng, n=int(rng.integers(1, 8)), density=float(rng.choice([0.1, 0.2, 0.35]))
            )
            for h in range(1, g.n + 1):
                found = find_h_partition(g, h)
                assert (found is not None) == helpers.brute_force_partition_exists(g, h)
                if found is not None:
                    # Arc validity of the returned partition.
                    for i, j in g.arcs:
                        assert found.class_of(j) == found.alpha(found.class_of(i))

    def test_divisor_merge_property(self, rng):
        for _ in range(20):
            g = helpers.random_digraph(rng, n=6, density=0.2)
            for h in range(1, 7):
                if find_h_partition(g, h) is None:
                    continue
                for hp in range(1, h + 1):
                    if h % hp == 0:
                        assert find_h_partition(g, hp) is not None

    def test_canonicalization_puts_vertex_one_first(self, rng):
        for _ in range(20):
            g = helpers.random_digraph(rng, n=6, density=0.25)
            for h in feasible_h_values(g):
                part = find_h_partition(g, h)
                assert 1 in part.classes[0]

    def test_feasible_values_six_example(self):
        assert feasible_h_values(digraph_of(helpers.six_matrix())) == [1, 3]

    @settings(max_examples=300)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 9))
    def test_matches_loop_oracle(self, seed, n):
        # The array BFS against the dict-and-deque BFS it replaced: equal
        # potentials, components and spans (they fix where each component's
        # labels start), and equal results of every public search.
        g = helpers.random_mixed_digraph(np.random.default_rng(seed), n)
        pot, comps, idx = helpers.loop_potential_data(g)
        rel, comp, span, got_idx = g._potential_data
        assert got_idx == idx
        assert span.tolist() == [s for _, _, s in comps]
        for c, (members, lo, _) in enumerate(comps):
            assert np.flatnonzero(comp == c).tolist() == [v - 1 for v in members]
            assert [rel[v - 1] for v in members] == [pot[v] - lo for v in members]
        assert cyclic_index(g) == idx
        assert feasible_h_values(g) == helpers.loop_feasible_h_values(g)
        for h in range(1, n + 1):
            assert find_h_partition(g, h) == helpers.loop_find_h_partition(g, h)


class TestIsHCyclic:
    def test_six_example(self, six):
        a, part = six
        assert is_h_cyclic(a, part)

    def test_identity_has_loops(self):
        assert not is_h_cyclic(np.eye(2), CyclicPartition(2, ((1,), (2,))))

    def test_bipartite_ones(self):
        assert is_h_cyclic(helpers.bipartite_ones_matrix(), helpers.BIPARTITE_PARTITION)

    def test_partition_size_mismatch(self, six):
        a, _ = six
        with pytest.raises(ValueError):
            is_h_cyclic(a, CyclicPartition(2, ((1,), (2,))))

    @settings(max_examples=200)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 8),
        tol=st.sampled_from([1e-9, 1e-3, 0.5]),
    )
    def test_mask_test_matches_arc_loop(self, seed, n, tol):
        # A random, generally non-consecutive partition; on its block-shift
        # pattern O(1) entries and entries planted at one multiple of tol
        # with random phases, elsewhere zeros and a few planted entries.
        # Planted moduli straddle the arc threshold |a_ij| > tol by an ulp
        # or so.
        rng = np.random.default_rng(seed)
        part = helpers.random_partition(rng, n, int(rng.integers(1, n + 1)))
        class_of = {v: c for c, cls in enumerate(part.classes) for v in cls}
        pattern = np.array(
            [[class_of[j] == (class_of[i] + 1) % part.h for j in range(1, n + 1)]
             for i in range(1, n + 1)]
        )
        factor = rng.choice(helpers.THRESHOLD_FACTORS)
        planted = tol * factor * np.exp(2j * np.pi * rng.uniform(size=(n, n)))
        dense = helpers.unit_disk((n, n), rng)
        on_pattern = np.where(rng.uniform(size=(n, n)) < 0.5, dense, planted)
        off_pattern = np.where(rng.uniform(size=(n, n)) < 0.1, planted, 0)
        a = np.where(pattern, on_pattern, off_pattern)
        assert is_h_cyclic(a, part, tol) == helpers.brute_force_is_h_cyclic(a, part, tol)
        arcs = {(i + 1, j + 1) for i in range(n) for j in range(n) if abs(a[i, j]) > tol}
        assert digraph_of(a, tol).arcs == arcs

    def test_invalid_partition_rejected(self):
        with pytest.raises(ValueError):
            CyclicPartition(2, ((1, 2), (2, 3)))
        with pytest.raises(ValueError):
            CyclicPartition(2, ((1,), ()))


class TestConsecutivePermutation:
    def test_identity_on_consecutive(self, six):
        _, part = six
        assert consecutive_permutation(part) == (1, 2, 3, 4, 5, 6)

    def test_small_relabelling(self):
        part = CyclicPartition(2, ((2,), (1, 3)))
        sigma = consecutive_permutation(part)
        assert sigma == (2, 1, 3)
        # On a matching 2-cyclic matrix the relabelling restores block form.
        a = np.array([[0, 1, 0], [1, 0, 1], [0, 2, 0]], dtype=complex)
        assert is_h_cyclic(a, part)
        relabelled = apply_vertex_permutation(a, sigma)
        moved = permute_partition(part, sigma)
        assert moved.is_consecutive
        assert is_h_cyclic(relabelled, moved)
        assert relabelled[0, 0] == 0 and relabelled[0, 1] != 0

    def test_shuffled_six_round_trip(self, six, rng):
        a, part = six
        for _ in range(10):
            shuffle = tuple(int(v) for v in rng.permutation(6) + 1)
            shuffled = apply_vertex_permutation(a, shuffle)
            found = find_h_partition(digraph_of(shuffled), 3)
            sigma = consecutive_permutation(found)
            back = apply_vertex_permutation(shuffled, sigma)
            moved = permute_partition(found, sigma)
            assert moved.is_consecutive
            assert is_h_cyclic(back, moved)
            refound = find_h_partition(digraph_of(back), 3)
            assert refound.is_consecutive

    def test_random_cycles_round_trip(self, rng):
        for _ in range(10):
            a, part = helpers.random_block_cycle(rng, max_size=3)
            shuffle = tuple(int(v) for v in rng.permutation(part.n) + 1)
            shuffled = apply_vertex_permutation(a, shuffle)
            found = find_h_partition(digraph_of(shuffled), part.h)
            assert found is not None
            assert is_h_cyclic(shuffled, found)
            sigma = consecutive_permutation(found)
            assert permute_partition(found, sigma).is_consecutive


class TestPartitionHelpers:
    def test_alpha_and_exponent(self):
        part = helpers.SIX_PARTITION
        assert [part.alpha(i) for i in (1, 2, 3)] == [2, 3, 1]
        assert part.alpha_power(1, -1) == 3
        assert part.alpha_power(2, 5) == 1
        assert part.exponent(1, 3) == 1
        assert part.exponent(3, 1) == 2

    def test_json_round_trip(self):
        part = helpers.SIX_PARTITION
        assert partition_from_json(partition_to_json(part)) == part

    def test_malformed_json(self):
        with pytest.raises(ValueError):
            partition_from_json({"h": 2})
        with pytest.raises(ValueError):
            partition_from_json({"h": 2, "classes": [[1], [3]]})
        # JSON numbers such as 1e400 parse to inf, which int() cannot take.
        with pytest.raises(ValueError):
            partition_from_json({"h": float("inf"), "classes": [[1], [2]]})
        with pytest.raises(ValueError):
            partition_from_json({"h": 2, "classes": [[1], [float("inf")]]})
        # Only JSON integers: int() would truncate these to a valid partition.
        for doc in (
            {"h": 2, "classes": [[1.9], [2.2]]},
            {"h": 2.0, "classes": [[1], [2]]},
            {"h": "2", "classes": [[1], [2]]},
            {"h": True, "classes": [[1]]},
            {"h": 2, "classes": [[True], [2]]},
        ):
            with pytest.raises(ValueError, match="must be an integer"):
                partition_from_json(doc)
