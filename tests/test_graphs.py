import itertools
import math
import random

import numpy as np
import pytest

from conftest import dense_pauli, random_graph
from cwskit.gf2 import PauliOp
from cwskit.graphs import (
    CanonicalForm,
    Graph,
    canonical_form,
    class_table,
    edge_bit,
    edge_count,
    enumerate_graphs,
    graph_state_amplitudes,
    isomorphism_class_masks,
    isomorphism_class_minima,
    isomorphism_classes,
    lc_orbit,
    lc_orbit_masks,
    local_complement,
    mask_hex,
    parse_graph_file,
    rows_table,
    write_graph_file,
    _GROUP_BITS,
    _canonical_dfs,
    _clique_masks,
    _group_weights,
    _orbit_pass,
    _perm_weights,
)


def brute_force_label(g: Graph) -> int:
    """Independent canonical label: minimum mask over all relabellings,
    computed through Graph.permute rather than the kernel bit tables."""
    return min(g.permute(p).mask() for p in itertools.permutations(range(g.n)))


def brute_force_classes(n: int) -> tuple[list[tuple[int, int]], list[int]]:
    """Independent class reference: (minimum mask, size) per isomorphism
    class in increasing order, and every mask's label, each orbit taken as
    the set of Graph.permute images under all relabellings."""
    perms = list(itertools.permutations(range(n)))
    label: dict[int, int] = {}
    classes = []
    for mask in range(1 << edge_count(n)):
        if mask in label:
            continue
        g = Graph.from_mask(n, mask)
        orbit = {g.permute(p).mask() for p in perms}
        label.update((m, min(orbit)) for m in orbit)
        classes.append((min(orbit), len(orbit)))
    return classes, [label[m] for m in range(1 << edge_count(n))]


class TestGraphBasics:
    def test_mask_round_trip(self):
        rng = random.Random(0)
        for _ in range(40):
            n = rng.randint(1, 7)
            g = random_graph(n, rng)
            assert Graph.from_mask(n, g.mask()).rows == g.rows

    def test_mask_of_from_mask_is_identity(self):
        for n in range(1, 6):
            for m in range(1 << edge_count(n)):
                assert Graph.from_mask(n, m).mask() == m
        rng = random.Random(5)
        for n in (8, 10):
            for _ in range(200):
                m = rng.randrange(1 << edge_count(n))
                assert Graph.from_mask(n, m).mask() == m

    def test_from_mask_follows_edge_bit(self):
        for n in (2, 5, 10):
            for i, j in itertools.combinations(range(n), 2):
                assert Graph.from_mask(n, 1 << edge_bit(i, j, n)).edges() == [(i, j)]

    def test_rows_table_reads_the_low_edge_bits_as_from_mask(self):
        # masks of any size or sign, as a foreign checkpoint record may hold
        rng = random.Random(6)
        for n in range(1, 12):
            e = edge_count(n)
            masks = [rng.randrange(1 << e) + (rng.randrange(-1 << 80, 1 << 80) << e)
                     for _ in range(40)] + [0, (1 << e) - 1, -1, -5, 1 << 70]
            table = rows_table(n, masks)
            assert table.shape == (len(masks), n) and table.dtype == np.int64
            assert [tuple(r) for r in table.tolist()] == [
                Graph.from_mask(n, m).rows for m in masks
            ]
        assert rows_table(4, []).shape == (0, 4)

    def test_edge_bit_layout_is_colex_prefix_first(self):
        # edge (0,1) occupies the top bit so early vertices dominate the order
        n = 4
        assert edge_bit(0, 1, n) == edge_count(n) - 1
        assert edge_bit(n - 2, n - 1, n) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            Graph(2, (1, 0))  # asymmetric
        with pytest.raises(ValueError):
            Graph(2, (0b01, 0b10))  # self loop

    def test_file_round_trip(self):
        rng = random.Random(1)
        for _ in range(20):
            g = random_graph(rng.randint(1, 7), rng)
            assert parse_graph_file(write_graph_file(g)).rows == g.rows

    def test_file_errors(self):
        with pytest.raises(ValueError):
            parse_graph_file("2\n0 1\n")
        with pytest.raises(ValueError):
            parse_graph_file("n 3\n0 0\n")
        with pytest.raises(ValueError):
            parse_graph_file("n 3\n0 1\n0 1\n")
        with pytest.raises(ValueError):
            parse_graph_file("n 3\n1 0\n")

    def test_vertex_count_is_bounded_before_rows_are_built(self):
        # no command takes more than gf2.MAX_BITS vertices
        for text in ("n 0\n", "n -1\n", "n 25\n"):
            with pytest.raises(ValueError, match="vertex count must be in 1..24"):
                parse_graph_file(text)
        assert parse_graph_file("n 24\n0 23\n") == Graph.from_edges(24, [(0, 23)])


class TestEnumeration:
    def test_labelled_counts(self):
        assert sum(1 for _ in enumerate_graphs(2)) == 2
        assert sum(1 for _ in enumerate_graphs(5)) == 1024

    def test_too_large_refused(self):
        with pytest.raises(ValueError):
            next(enumerate_graphs(9))

    def test_iso_class_counts_against_brute_force(self):
        # independent oracle: distinct min-permuted masks over every graph
        for n in (2, 3, 4, 5):
            expect = len({brute_force_label(g) for g in enumerate_graphs(n)})
            got = sum(1 for _ in isomorphism_classes(n))
            assert got == expect

    def test_iso_classes_n7_frozen(self):
        # value computed by this enumeration and cross-checked at small n
        # against the brute-force oracle above
        assert sum(1 for _ in isomorphism_classes(7)) == 1044

    def test_iso_class_sizes_partition_everything(self):
        for n in range(1, 8):
            total = sum(size for _g, size in isomorphism_classes(n))
            assert total == 1 << edge_count(n)

    def test_iso_representatives_are_canonical(self):
        for g, _size in isomorphism_classes(4):
            assert canonical_form(g).mask == g.mask()


class TestClassTable:
    def test_table_matches_brute_force(self):
        for n in range(1, 6):
            canon, _classes = class_table(n)
            assert canon.tolist() == brute_force_classes(n)[1]

    def test_classes_match_brute_force(self):
        for n in range(1, 6):
            classes = list(isomorphism_class_masks(n))
            assert classes == brute_force_classes(n)[0]
            assert classes == [(g.mask(), s) for g, s in isomorphism_classes(n)]
            _canon, minima = class_table(n)
            assert minima == [mask for mask, _size in classes]

    def test_table_matches_dfs_n6(self):
        canon, _classes = class_table(6)
        for mask in range(1 << edge_count(6)):
            assert int(canon[mask]) == _canonical_dfs(6, Graph.from_mask(6, mask).rows)

    def test_table_matches_dfs_n7_sample(self):
        rng = random.Random(7)
        canon, minima = class_table(7)
        assert len(minima) == 1044
        for mask in rng.sample(range(1 << edge_count(7)), 300):
            assert int(canon[mask]) == _canonical_dfs(7, Graph.from_mask(7, mask).rows)

    def test_minima_are_the_class_masks_without_sizes(self):
        for n in range(1, 8):
            assert list(isomorphism_class_minima(n)) == [
                mask for mask, _size in isomorphism_class_masks(n)
            ]
        prefix = list(itertools.islice(isomorphism_class_masks(8), 20))
        minima = list(itertools.islice(isomorphism_class_minima(8), 20))
        assert minima == [mask for mask, _size in prefix]

    @pytest.mark.parametrize("n", [0, 9])
    def test_minima_refuse_n_out_of_range_at_the_call(self, n):
        with pytest.raises(ValueError):
            isomorphism_class_minima(n)

    def test_n8_classes_start_without_table(self):
        # no 2^28-entry table at n=8: the orbit pass still yields classes;
        # the empty graph, 28 single edges, then 8 * C(7,2) two-edge paths
        first = list(itertools.islice(isomorphism_classes(8), 3))
        assert [(g.mask(), s) for g, s in first] == [(0, 1), (1, 28), (3, 168)]
        with pytest.raises(ValueError):
            class_table(8)


def per_bit_orbit_pass(n: int, canon: np.ndarray) -> list[tuple[int, int]]:
    """The orbit pass with one `_perm_weights` row added per set bit of each
    class minimum, as it was before the grouped tables: the reference the
    grouped pass must match class for class and label for label."""
    weights = _perm_weights(n)
    visited = np.zeros(1 << edge_count(n), dtype=bool)
    classes = []
    for mask in range(1 << edge_count(n)):
        if visited[mask]:
            continue
        images = np.zeros(weights.shape[1], dtype=np.int64)
        for e in range(mask.bit_length()):
            if (mask >> e) & 1:
                images += weights[e]
        visited[images] = True
        canon[images] = mask
        classes.append((mask, images.size // int(np.count_nonzero(images == mask))))
    return classes


class TestGroupWeights:
    def test_every_row_sums_the_weights_of_its_bits(self):
        for n in range(1, 7):
            weights = _perm_weights(n)
            tables = _group_weights(n)
            assert len(tables) == -(-len(weights) // _GROUP_BITS)
            for g, table in enumerate(tables):
                rows = weights[g * _GROUP_BITS : (g + 1) * _GROUP_BITS]
                assert table.shape == (1 << len(rows), weights.shape[1])
                assert not table.flags.writeable
                for s in range(len(table)):
                    want = sum((rows[k] for k in range(len(rows)) if (s >> k) & 1),
                               np.zeros(weights.shape[1], dtype=np.int64))
                    assert np.array_equal(table[s], want), (n, g, s)

    def test_orbit_pass_matches_the_per_bit_loop(self):
        for n in range(1, 7):
            canon = np.full(1 << edge_count(n), -1, dtype=np.int32)
            want_canon = canon.copy()
            classes = [
                (mask, images.size // int(np.count_nonzero(images == mask)))
                for mask, images in _orbit_pass(n, canon)
            ]
            assert classes == per_bit_orbit_pass(n, want_canon)
            assert np.array_equal(canon, want_canon)

    def test_n8_tables_leave_the_cache_with_the_pass(self):
        # the n=8 tables (36 MB) are built per pass; the n <= 7 ones stay
        _group_weights(6)
        before = _group_weights.cache_info()
        first = list(itertools.islice(isomorphism_class_minima(8), 3))
        assert first == [0, 1, 3]
        assert _group_weights.cache_info().currsize == before.currsize
        _group_weights(6)
        assert _group_weights.cache_info().hits == before.hits + 1

    def test_n8_tables_stay_small_beside_the_visited_array(self):
        # the n=8 pass also holds a 256 MB visited array, and listing every
        # n=8 class must peak below 340 MB RSS: four-bit groups take 36 MB,
        # five-bit groups would take 54 MB
        tables = _group_weights.__wrapped__(8)  # kept out of the cache
        assert sum(t.nbytes for t in tables) == 7 * 16 * math.factorial(8) * 8
        assert sum(t.nbytes for t in tables) <= 40 << 20


class TestCanonicalForm:
    def test_empty_graph_fixed(self):
        g = Graph.empty(4)
        cf = canonical_form(g)
        assert cf.mask == 0
        assert canonical_form(Graph.empty(1)) == CanonicalForm(1, 0)

    def test_path_relabellings_share_label(self):
        a = Graph.from_edges(3, [(0, 1), (1, 2)])
        b = Graph.from_edges(3, [(1, 0), (0, 2)])
        assert canonical_form(a).mask == canonical_form(b).mask

    def test_random_permutations_share_label(self):
        rng = random.Random(2)
        for _ in range(30):
            g = random_graph(6, rng)
            perm = list(range(6))
            rng.shuffle(perm)
            assert canonical_form(g).mask == canonical_form(g.permute(perm)).mask

    def test_canonical_of_canonical_is_itself(self):
        rng = random.Random(3)
        for _ in range(20):
            g = random_graph(5, rng)
            cf = canonical_form(g)
            again = canonical_form(Graph.from_mask(5, cf.mask))
            assert again.mask == cf.mask

    def test_label_matches_brute_force(self):
        rng = random.Random(5)
        for _ in range(25):
            g = random_graph(5, rng)
            assert canonical_form(g).mask == brute_force_label(g)

    def test_dfs_is_the_least_image_n8(self):
        # at n=8 the DFS labels every LC neighbour; check it against the
        # definition, the least of the graph's 40,320 images, for the empty,
        # complete and ring graphs, sparse and dense ones, and uniform ones
        weights = _perm_weights(8)
        rng = random.Random(8)
        full = (1 << edge_count(8)) - 1
        masks = [0, full, Graph.ring(8).mask()]
        for k in (1, 2, 3, 5, 23, 25, 26, 27):
            masks.append(sum(1 << b for b in rng.sample(range(edge_count(8)), k)))
        masks += [rng.randrange(full) for _ in range(9)]
        for mask in masks:
            images = weights[[b for b in range(edge_count(8)) if (mask >> b) & 1]].sum(axis=0)
            assert _canonical_dfs(8, Graph.from_mask(8, mask).rows) == int(images.min()), mask

    def test_large_n_uses_dfs_path(self):
        # n=9 exceeds the permutation-table range, exercising the search path
        rng = random.Random(42)
        for _ in range(5):
            g = random_graph(9, rng)
            perm = list(range(9))
            rng.shuffle(perm)
            cf = canonical_form(g)
            assert cf.mask == canonical_form(g.permute(perm)).mask
        with pytest.raises(ValueError):
            canonical_form(Graph.empty(11))


class TestLocalComplementation:
    def test_isolated_vertex_noop(self):
        g = Graph.from_edges(3, [(1, 2)])
        assert local_complement(g, 0).rows == g.rows

    def test_triangle_loses_opposite_edge(self):
        g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        h = local_complement(g, 0)
        assert h.has_edge(0, 1) and h.has_edge(0, 2)
        assert not h.has_edge(1, 2)

    def test_involution(self):
        rng = random.Random(7)
        for _ in range(40):
            g = random_graph(6, rng)
            v = rng.randrange(6)
            assert local_complement(local_complement(g, v), v).rows == g.rows

    def test_mask_level_matches_graph_level(self):
        # the closure's step: row v of every mask's graph picks the
        # _clique_masks entry whose XOR is the local complement at v
        rng = random.Random(11)
        for n in range(1, 11):
            if n <= 5:
                masks = list(range(1 << edge_count(n)))
            else:
                masks = [rng.randrange(1 << edge_count(n)) for _ in range(200)]
            got = np.array(masks, dtype=np.int64)[:, None] ^ _clique_masks(n)[rows_table(n, masks)]
            assert got.tolist() == [
                [local_complement(Graph.from_mask(n, m), v).mask() for v in range(n)]
                for m in masks
            ]

    def test_orbit_counts_small(self):
        # Danielsen-Parker LC orbit counts, cross-checked by the partition
        # test below
        counts = {n: sum(1 for _ in lc_orbit_masks(n)) for n in range(1, 8)}
        assert counts == {1: 1, 2: 2, 3: 3, 4: 6, 5: 11, 6: 26, 7: 59}

    def test_orbits_partition_all_graphs(self):
        for n in (2, 3, 4, 5):
            class_size = {g.mask(): size for g, size in isomorphism_classes(n)}
            covered = 0
            seen = set()
            for masks in lc_orbit_masks(n):
                for m in masks:
                    assert m not in seen
                    seen.add(m)
                    covered += class_size[m]
            assert covered == 1 << edge_count(n)

    def test_single_graph_orbit_closure(self):
        ring = Graph.ring(5)
        closure = lc_orbit(ring)
        assert closure == sorted(set(closure))
        masks = set(closure)
        assert canonical_form(ring).mask in masks
        for mask in closure:
            g = Graph.from_mask(5, mask)
            assert canonical_form(g).mask == mask
            for v in range(5):
                assert canonical_form(local_complement(g, v)).mask in masks

    def test_best_dimension_constant_across_each_orbit(self):
        # re-searched best K is an LC invariant of the graph
        from cwskit.clique import cws_maxclique
        from cwskit.errormap import error_set

        for n in (3, 4):
            errs = error_set(n, 2)
            for masks in lc_orbit_masks(n):
                sizes = {
                    cws_maxclique(errs, Graph.from_mask(n, m)).size for m in masks
                }
                assert len(sizes) == 1

    def test_empty_graph_is_enumerated(self):
        for n in (2, 4):
            assert any(g.mask() == 0 for g, _size in isomorphism_classes(n))


class TestGraphState:
    def test_single_vertex_plus_state(self):
        amp = graph_state_amplitudes(Graph.empty(1))
        assert np.allclose(amp, np.array([1, 1]) / math.sqrt(2))

    def test_two_vertex_edge_state(self):
        amp = graph_state_amplitudes(Graph.from_edges(2, [(0, 1)]))
        assert np.allclose(amp, np.array([0.5, 0.5, 0.5, -0.5]))

    def test_generators_fix_state(self):
        rng = random.Random(8)
        for _ in range(15):
            n = rng.randint(1, 5)
            g = random_graph(n, rng)
            amp = graph_state_amplitudes(g)
            for l in range(n):
                gen = PauliOp(n, 1 << l, g.rows[l], 0)
                assert np.allclose(dense_pauli(gen) @ amp, amp)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            graph_state_amplitudes(Graph.empty(13))


def test_canonical_hex_width():
    assert mask_hex(1, canonical_form(Graph.empty(1)).mask) == "0"
    complete7 = Graph.from_mask(7, (1 << 21) - 1)
    assert len(mask_hex(7, canonical_form(complete7).mask)) == (21 + 3) // 4
