import pytest

from dirac2mm import mapenum
from dirac2mm.words import iter_canonical_moments
from perfbench.layers import search_space


@pytest.mark.parametrize("word,k", [
    ("", 1), ("AA", 0), ("AB", 1), ("AAAA", 1), ("AABB", 1), ("ABAB", 1),
    ("ABAB", 2), ("AA", 2), ("AAAAAA", 1),
])
def test_search_space_counts_every_enumerated_gluing(word, k):
    assert search_space(word, k) == sum(1 for _ in mapenum.enumerate_gluings(word, k))


def test_search_space_of_verify_map_check():
    # check 5 of ``dirac2mm verify``: every moment of degree <= 6 at orders
    # 0..2, plus the ABAB cancellation census at orders 0..2
    coefficients = sum(
        search_space(c.rep_word(), k)
        for d in (2, 4, 6) for c in iter_canonical_moments(d) for k in range(3)
    )
    census = sum(search_space("ABAB", k) for k in range(3))
    assert (coefficients, census) == (830_322, 11_788)
