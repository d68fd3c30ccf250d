"""
The text and JSON forms of expansions, pinned byte for byte.

Each digest is the sha256 of the outputs of one family of expansions,
joined by newlines, in a fixed order.  The pinned values were taken from
the renderer that sorted through per-term intermediate lists and joined
every window with `str.join`, so any change to the output path that moves
a byte, the order of terms or monomials included, fails here.
"""

from __future__ import annotations

import hashlib

from qpieri.expansion import Expansion, clear_caches, expand_product_chain, pieri_expand
from qpieri.permutations import Permutation, all_permutations

P = Permutation.from_one_line


def _digests(expansions) -> tuple[str, str]:
    """(sha256 of the text forms, sha256 of the JSON forms), each joined by newlines."""
    expansions = list(expansions)
    text = "\n".join(e.render() for e in expansions)
    machine = "\n".join(e.to_json() for e in expansions)
    return hashlib.sha256(text.encode()).hexdigest(), hashlib.sha256(machine.encode()).hexdigest()


def _pieri_products_over_s5() -> list[Expansion]:
    # S_3 and S_4 sit inside S_5, so this is every Pieri product over S_3..S_5
    return [
        pieri_expand(w, k, p)
        for w in all_permutations(5)
        for k in range(1, 6)
        for p in range(k + 1)
    ]


# a product over S_4 whose coefficients have several monomials and |c| > 1
THREE_FACTORS = (P("2413"), [(2, 1), (2, 2), (3, 2)])
# a Pieri product that reaches S_10, so some ends print in the comma form
WIDE = (P("213456798"), 8, 2)


def test_every_pieri_product_over_s5_prints_the_pinned_bytes():
    assert _digests(_pieri_products_over_s5()) == (
        "eeda289e8577f73191341316c4a6e06917fb44813a04664bf353faee382ccf9e",
        "4da5b13a0fe3f12d86cd282b6d0cf505167720019f6b69cf1631bf1d07bb6328",
    )


def test_a_three_factor_product_prints_the_pinned_bytes():
    e = expand_product_chain(*THREE_FACTORS)
    coeffs = list(e._terms.values())
    assert any(len(poly) > 1 for poly in coeffs)
    assert any(abs(c) > 1 for poly in coeffs for c in poly.values())
    assert _digests([e]) == (
        "6d346298bd2b5f88becd3314569c68774fa18771d1740f475b7440b30726dd8a",
        "80812352626f1fc2dd6dcd16ad00c980f9935598b471957ff4ae28c6ba70763c",
    )


def test_ends_of_ten_or_more_entries_print_in_the_comma_form():
    e = pieri_expand(*WIDE)
    widths = {len(u.window) for u in e._terms}
    assert max(widths) >= 10 and min(widths) <= 9
    assert _digests([e]) == (
        "dd5278ad11d68b0541ddc390beb76adba95641ca5e882b61e594282f4893e01f",
        "1617429679574b90ae26216dfc4a77af73268381b43f817c2a7f423d1b5ad537",
    )


def test_the_identity_prints_as_g1():
    one = Expansion.basis(Permutation.identity())
    assert (one.render(), one.to_json()) == ("G[1]", '[{"perm": "1", "terms": [{"q": [], "c": 1}]}]')
    assert pieri_expand(Permutation.identity(), 2, 0) == one
    assert Expansion.zero().render() == "0" and Expansion.zero().to_json() == "[]"


def test_parsed_expansions_print_the_same_bytes_without_stored_lengths():
    clear_caches()
    try:
        sources = [pieri_expand(w, k, p) for w in all_permutations(4) for k in (2, 3) for p in range(1, k + 1)]
        sources += [expand_product_chain(*THREE_FACTORS), pieri_expand(*WIDE)]
        texts = [e.render() for e in sources]
        jsons = [e.to_json() for e in sources]
        # parsing builds fresh permutations: their lengths are not yet counted
        clear_caches()
        parsed = [Expansion.parse(t) for t in texts]
        loaded = [Expansion.from_json(j) for j in jsons]
        assert all(u._length is None for e in parsed + loaded for u in e._terms)
        assert [e.render() for e in parsed] == texts
        assert [e.to_json() for e in loaded] == jsons
        assert _digests(parsed) == _digests(sources) == (
            "c79d18ece87f2cb74b22e2d2c2acd1ad8cc965e1c3522963e03b322fad9ff82a",
            "2d6936423c43f559ce4328271de75e24e9f86dbcbd6c031e9e2ace98c6a905dc",
        )
    finally:
        clear_caches()
