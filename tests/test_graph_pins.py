"""Frozen outputs of the graph-class layer: the class tables, the LC orbits
and the first n=8 classes, as sha256 digests of their bytes or reprs.

The digests were taken from the bitset orbit pass and the Graph-level LC
closure; any faster enumeration must reproduce them exactly."""

import hashlib
import itertools
import random

import pytest

from cwskit.graphs import (
    Graph,
    class_table,
    edge_count,
    isomorphism_class_masks,
    lc_orbit,
    lc_orbit_masks,
)


def digest(data) -> str:
    if not isinstance(data, bytes):
        data = repr(data).encode()
    return hashlib.sha256(data).hexdigest()


CLASS_TABLE = {
    1: ("df3f619804a92fdb4057192dc43dd748ea778adc52bc498ce80524c014b81119",
        "4c461d4a0ab0fe42d5dfe0398002bac0ee02261aa3b5641fe9d4d1f8d99633a3"),
    2: ("01acecb507abfe1a354aa8064f4af5d3f1acd019e37db3c11c97523b71c76e9d",
        "3827126b38f664596ec12e86b1a6dca6f761a1f696a7f11249bb7068f566182b"),
    3: ("2295caf796cf887bd84c0d2b86bd91d37fc0040955daa7b91121c8060bf6cd7a",
        "406f404f2e2aab38c74f2038c17cbc271955b024abe6ec5bf5391655711732e5"),
    4: ("1ecbc06e7e981ddb4dc306784f7cc4bdc8c4bca33cc86629f83b8c74a522983b",
        "b7c0eb4c9e279dc971f2a0fe5773e7822e8e74facffcb09ef479486827b441c2"),
    5: ("cb3b86f0230d432c81316bc23079046c80ddfc3463921afd0a03c9e0b516e5cb",
        "725e1f9d054f5b8505909d8409c846c48904d7655fa86ef27b3436b84f153a70"),
    6: ("29bec01cf9f697ea78757efc088c4c9f1aab69f72965dc877b72e5bab4fe8483",
        "479c1ce2aa3b297850c13a37948189cd087efeb8bc945145d79402579b1d7f1b"),
    7: ("378b739a060ea6b76b7429b08bf65c11804c8af1995e03f6da4fe4eda2a5a168",
        "83d3f199af6c6bbad0b6cea67481f71e11bbf66c8e62e213b61170c1b1cd1aa9"),
}

LC_ORBIT_MASKS = {
    1: "78fce9491f4b0e3b895728f3c6efe71e16e4ae77f5f6db9148e6e0584bc5fd42",
    2: "cde8a43d1e27e69a0ef66e61fcbfe02dec4893775b4d36e679382ff36d7b9ed6",
    3: "5e1afe6a88c12c73c0c83b7b5e2cafb43142aa53d32ed539319e2426ab9e10e0",
    4: "758c1951ab05e204df2816e40fc2a4966fd97e7964f04ca43a5f0b82f1792983",
    5: "16fa7a494a8aedc024894dbecd295a731d6fd2d49c6952be9a747029abf9f855",
    6: "94b93556c0f9ed7cf77244657ffc68b4ef6ebd2f7fe54545a794d617356bba44",
    7: "8c67d401253af2fbe57a718cd64e95aa24cfabe83d53e75a7dd594343e440dfd",
}

# ring size -> (classes in its LC orbit, digest of the orbit)
RING_ORBITS = {
    8: (214, "833c02b0e34efd038af7360b8701698c34f3846c10db843f19d03950db2d4ce7"),
    9: (498, "0e8e86638b4820e7e5a7754c49bebe3ee6cc9c97cb4a7815da396bc6b2187a19"),
    10: (1206, "294e80638dfb6ab3d8052d57e5b2453a011f9731979b7389eca17ead48dc3ca0"),
}

# seed -> (mask of the seeded uniform n=8 graph, orbit classes, digest)
RANDOM8_ORBITS = {
    0: (0xC53EDF7, 262, "aac6b19547ec853df72b35f54ce24f5fcf9ccac3877eb7743221b9812478d202"),
    1: (0x44CB63E, 300, "85a8a7ec30d1e50ac3e15aed979123f408a890df9bc3c461b6148b7bd389002e"),
    2: (0x1CF44D3, 802, "d426f8d99d5973bcc45dbba17eb93286cdab3a1f227ce68cdf158c37d1f991ff"),
}


@pytest.mark.parametrize("n", sorted(CLASS_TABLE))
def test_class_table_pinned(n):
    # the table's minima are the sized classes' minima, which the digest pins
    canon, minima = class_table(n)
    classes = list(isomorphism_class_masks(n))
    assert minima == [mask for mask, _size in classes]
    assert (digest(canon.tobytes()), digest(classes)) == CLASS_TABLE[n]


@pytest.mark.parametrize("n", sorted(LC_ORBIT_MASKS))
def test_lc_orbit_masks_pinned(n):
    assert digest(list(lc_orbit_masks(n))) == LC_ORBIT_MASKS[n]


@pytest.mark.parametrize("k", sorted(RING_ORBITS))
def test_ring_lc_orbit_pinned(k):
    orbit = lc_orbit(Graph.ring(k))
    assert (len(orbit), digest(orbit)) == RING_ORBITS[k]


@pytest.mark.parametrize("seed", sorted(RANDOM8_ORBITS))
def test_random_lc_orbit_pinned(seed):
    # seeded uniform graphs; at n = 9 and 10 their orbits take from 20 s to
    # minutes of DFS labels, so the rings stand for those sizes
    g = Graph.from_mask(8, random.Random(seed).randrange(1 << edge_count(8)))
    orbit = lc_orbit(g)
    assert (g.mask(), len(orbit), digest(orbit)) == RANDOM8_ORBITS[seed]


def test_first_n8_classes_pinned():
    first = list(itertools.islice(isomorphism_class_masks(8), 50))
    assert first[:5] == [(0, 1), (1, 28), (3, 168), (7, 280), (15, 280)]
    assert first[-1] == (911, 560)
    assert digest(first) == "942558cf20d339107b3b21945cd90fe5b1ec17bbea902f388a1b295ed3088e19"
