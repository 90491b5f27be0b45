"""Tests for the disjoint-set union of the Kruskal and Tarjan oracles."""

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import DisjointSetUnion


def test_initially_disjoint():
    dsu = DisjointSetUnion(4)
    assert not dsu.connected(0, 1)
    assert dsu.component_count() == 4


def test_union_connects():
    dsu = DisjointSetUnion(4)
    assert dsu.union(0, 1)
    assert dsu.connected(0, 1)
    assert dsu.component_count() == 3


def test_union_returns_false_when_merged():
    dsu = DisjointSetUnion(3)
    dsu.union(0, 1)
    assert not dsu.union(1, 0)


def test_transitivity():
    dsu = DisjointSetUnion(5)
    dsu.union(0, 1)
    dsu.union(1, 2)
    dsu.union(3, 4)
    assert dsu.connected(0, 2)
    assert not dsu.connected(2, 3)
    assert dsu.component_count() == 2


def test_find_is_canonical():
    dsu = DisjointSetUnion(6)
    dsu.union(0, 1)
    dsu.union(2, 3)
    dsu.union(1, 3)
    reps = {dsu.find(i) for i in range(4)}
    assert len(reps) == 1


@given(
    n=st.integers(min_value=2, max_value=30),
    ops=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=60),
)
@settings(max_examples=40, deadline=None)
def test_matches_naive_partition(n, ops):
    """DSU agrees with a brute-force partition refinement."""
    dsu = DisjointSetUnion(n)
    naive = [{i} for i in range(n)]
    membership = list(range(n))
    for a, b in ops:
        a, b = a % n, b % n
        dsu.union(a, b)
        ra, rb = membership[a], membership[b]
        if ra != rb:
            naive[ra] |= naive[rb]
            for x in naive[rb]:
                membership[x] = ra
            naive[rb] = set()
    for i in range(n):
        for j in range(n):
            assert dsu.connected(i, j) == (membership[i] == membership[j])
