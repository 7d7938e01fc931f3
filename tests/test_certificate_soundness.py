"""Soundness of pair certificates, checked with the test's own arithmetic
on each catalog group's Cayley table: a witness lies in every translate
the certificate names and forces its law; no witness means those
translates have no common element."""

import pytest

from finhaar.catalog import bundled_catalog
from finhaar.wordsets import (
    commuting_certificate,
    engel_pair_certificate,
    inverted_set,
    splitting_set,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

ENTRIES = list(bundled_catalog().entries)


class Arithmetic:
    """Products, inverses and left translates read off a Cayley table."""

    def __init__(self, table):
        self.t = table
        self.e = next(i for i, row in enumerate(table) if row == list(range(len(table))))
        self.inv = [row.index(self.e) for row in table]

    def mul(self, *xs):
        out = self.e
        for x in xs:
            out = self.t[out][x]
        return out

    def comm(self, x, y):
        return self.mul(self.inv[x], self.inv[y], x, y)

    def translate(self, c, A):
        """The left translate cA."""
        return {self.t[c][x] for x in A}


def _word_set(ar, kind, aut_map):
    n = len(ar.t)
    if kind == "inverted":
        return {x for x in range(n) if aut_map[x] == ar.inv[x]}
    return {x for x in range(n) if ar.mul(aut_map[aut_map[x]], aut_map[x], x) == ar.e}


@st.composite
def certificate_cases(draw):
    kind = draw(st.sampled_from(["inverted", "splitting"]))
    entry = draw(st.sampled_from(ENTRIES))
    names = sorted(
        name for name, aut in entry.automorphisms.items()
        if kind == "inverted" or 3 % aut.order == 0
    )
    aut = entry.automorphisms[draw(st.sampled_from(names))]
    a = draw(st.integers(0, entry.group.order - 1))
    b = draw(st.integers(0, entry.group.order - 1))
    return kind, entry, aut, a, b


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(certificate_cases())
def test_pair_certificates_are_sound(case):
    kind, entry, aut, a, b = case
    G = entry.group
    ar = Arithmetic(G.table())
    A = _word_set(ar, kind, list(aut.map))
    ia, ib, ab = ar.inv[a], ar.inv[b], ar.mul(a, b)
    if kind == "inverted":
        witness = commuting_certificate(inverted_set(G, aut), a, b)
        shifts = [ar.e, ia, ib, ar.inv[ab]]
        law_holds = ar.comm(a, b) == ar.e
    else:
        witness = engel_pair_certificate(splitting_set(G, aut), a, b)
        shifts = [ar.e, a, ia, ib, ar.mul(a, ib), ar.mul(b, ia), ab, ar.inv[ab]]
        law_holds = ar.comm(ar.comm(a, b), b) == ar.e
    common = set.intersection(*(ar.translate(c, A) for c in shifts))
    if witness is None:
        assert not common
    else:
        assert law_holds
        assert witness == min(common)
