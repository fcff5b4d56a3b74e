"""Tests for the Enriques diagram engine."""

from __future__ import annotations

import gc
from functools import cache
from itertools import product
from pathlib import Path

import pytest

from nodepoly.enriques import (
    EnriquesDiagram,
    Vertex,
    _proximity,
    _single_root_catalog,
    _tree,
    canonical_key,
    enumerate_diagrams,
    enumeration_text,
    from_text,
    invariants,
    inequality_report,
    named_diagram,
    to_text,
    validate,
)

GOLDEN = Path(__file__).parent / "golden"

A1 = named_diagram("A", 1)
A2 = named_diagram("A", 2)


def equalities(diagram):
    return {r.part for r in inequality_report(diagram) if r.equality}


class TestValidate:
    def test_single_node_ok(self):
        assert validate(A1) is None

    def test_weight_one_root_fails_minimality(self):
        bad = EnriquesDiagram((Vertex(1),))
        violation = validate(bad)
        assert violation is not None and violation.axiom == "minimality"

    def test_proximity_inequality(self):
        bad = EnriquesDiagram(
            (Vertex(2), Vertex(1, 0), Vertex(1, 0), Vertex(1, 0))
        )
        violation = validate(bad)
        assert violation is not None
        assert violation.axiom == "proximity-inequality" and violation.vertex == 0

    def test_remote_must_be_proper_ancestor(self):
        sibling = EnriquesDiagram(
            (Vertex(3), Vertex(1, 0), Vertex(1, 0, remote=1))
        )
        violation = validate(sibling)
        assert violation is not None and violation.axiom == "remote-proximity"

    def test_remote_cannot_equal_parent(self):
        bad = EnriquesDiagram((Vertex(2), Vertex(1, 0, remote=0)))
        violation = validate(bad)
        assert violation is not None and violation.axiom == "remote-proximity"

    def test_proximity_chain(self):
        # the satellite's parent must itself be proximate to the target
        bad = EnriquesDiagram(
            (Vertex(2), Vertex(1, 0), Vertex(1, 1), Vertex(1, 2), Vertex(1, 3, remote=0))
        )
        violation = validate(bad)
        assert violation is not None and violation.axiom == "proximity-chain"

    def test_proximity_pass_matches_per_vertex_queries(self):
        # the one-pass loads validate and invariants share, against the
        # per-vertex definitions, on valid diagrams and on broken variants
        for d in enumerate_diagrams(5, 4):
            variants = [d]
            for i, v in enumerate(d.vertices):
                verts = list(d.vertices)
                verts[i] = Vertex(v.weight + 1, v.parent, v.remote)
                variants.append(EnriquesDiagram(tuple(verts)))
                if v.parent is not None:
                    verts[i] = Vertex(v.weight, v.parent, v.parent)
                    variants.append(EnriquesDiagram(tuple(verts)))
            for x in variants:
                loads = [sum(v.weight for v in x.vertices if i in (v.parent, v.remote))
                         for i in range(len(x))]
                leaves = [all(v.parent != i for v in x.vertices) for i in range(len(x))]
                got_loads, has_child = _proximity(x)
                assert got_loads == loads
                assert [not c for c in has_child] == leaves

    def test_nonpositive_weight(self):
        violation = validate(EnriquesDiagram((Vertex(0),)))
        assert violation is not None and violation.axiom == "positive-weight"

    def test_root_with_a_remote(self):
        diagram = from_text("0 2 - -\n1 1 - 0")
        violation = validate(diagram)
        assert (violation.axiom, violation.vertex) == ("remote-proximity", 1)
        assert violation.detail == "a root cannot have a remote proximity"
        with pytest.raises(ValueError, match="a root cannot have a remote proximity"):
            invariants(diagram)

    @pytest.mark.parametrize(
        "vertex,fragment",
        [
            (Vertex(1, parent=1), "vertex 1: parent 1 does not precede it"),
            (Vertex(1, parent=-1), "vertex 1: parent -1 does not precede it"),
            (Vertex(1, parent=0, remote=2), "vertex 1: remote 2 does not precede it"),
        ],
    )
    def test_links_must_precede_their_vertex(self, vertex, fragment):
        with pytest.raises(ValueError, match=fragment):
            EnriquesDiagram((Vertex(2), vertex))


class TestInvariants:
    def test_a1(self):
        inv = invariants(A1)
        assert (inv.dim, inv.deg, inv.cod) == (2, 3, 1)
        assert (inv.delta, inv.branches, inv.milnor) == (1, 2, 1)
        assert inv.jacobian_mult == 2

    def test_a2(self):
        inv = invariants(A2)
        assert (inv.dim, inv.deg, inv.cod) == (3, 5, 2)
        assert (inv.delta, inv.branches, inv.milnor) == (1, 1, 2)
        assert inv.jacobian_mult == 3

    @pytest.mark.parametrize("r", [1, 2, 5, 8])
    def test_r_nodes(self, r):
        inv = invariants(named_diagram("rA1", r))
        assert inv.cod == r and inv.delta == r
        assert inv.branches == 2 * r and inv.roots == r
        assert inv.jacobian_mult == (2 if r == 1 else None)

    def test_invalid_diagram_rejected(self):
        with pytest.raises(ValueError):
            invariants(EnriquesDiagram((Vertex(1),)))


class TestInequalityReport:
    def test_a1_equalities(self):
        assert equalities(A1) == {"i", "ii", "iii", "vi", "vii", "viii"}

    def test_a2_equalities(self):
        assert equalities(A2) == {"i", "iii", "iv", "v", "vii"}

    def test_identity_part_always_holds(self):
        for d in enumerate_diagrams(5, 4):
            if len(d.roots()) == 1:
                assert inequality_report(d)[0].holds

    def test_multi_root_rejected(self):
        with pytest.raises(ValueError):
            inequality_report(named_diagram("rA1", 2))


class TestNamedDiagrams:
    @pytest.mark.parametrize("k", range(1, 12))
    def test_a_series(self, k):
        d = named_diagram("A", k)
        inv = invariants(d)
        assert validate(d) is None
        assert inv.cod == inv.milnor == k
        assert inv.branches == (2 if k % 2 == 1 else 1)

    @pytest.mark.parametrize("k", range(4, 15))
    def test_d_series(self, k):
        d = named_diagram("D", k)
        inv = invariants(d)
        assert validate(d) is None
        assert d.vertices[0].weight == 3
        assert inv.cod == inv.milnor == k
        assert inv.branches == (3 if k % 2 == 0 else 2)

    @pytest.mark.parametrize("k,branches", [(6, 1), (7, 2), (8, 1)])
    def test_e_series(self, k, branches):
        d = named_diagram("E", k)
        inv = invariants(d)
        assert validate(d) is None
        assert inv.cod == inv.milnor == k
        assert inv.branches == branches

    def test_a1_is_one_node(self):
        inv = invariants(A1)
        assert inv.cod == 1 and inv.milnor == 1

    def test_rA1_8(self):
        inv = invariants(named_diagram("rA1", 8))
        assert inv.cod == 8 and inv.delta == 8

    def test_bad_indices(self):
        for kind, index in [("A", 0), ("D", 3), ("E", 5), ("rA1", 0), ("F", 4)]:
            with pytest.raises(ValueError):
                named_diagram(kind, index)


class TestEnumeration:
    def test_one_vertex_max_weight_two(self):
        diagrams = list(enumerate_diagrams(1, 2))
        assert len(diagrams) == 1
        assert canonical_key(diagrams[0]) == canonical_key(A1)

    def test_all_pass_validate(self):
        for d in enumerate_diagrams(4, 4):
            assert validate(d) is None

    def test_a2_appears(self):
        keys = {canonical_key(d) for d in enumerate_diagrams(3, 2)}
        assert canonical_key(A2) in keys

    def test_no_isomorphic_duplicates(self):
        diagrams = list(enumerate_diagrams(5, 4))
        keys = [canonical_key(d) for d in diagrams]
        assert len(keys) == len(set(keys))

    def test_deterministic_and_restartable(self):
        first = [canonical_key(d) for d in enumerate_diagrams(4, 3)]
        second = [canonical_key(d) for d in enumerate_diagrams(4, 3)]
        assert first == second

    def test_limits(self):
        for enumeration in (enumerate_diagrams, enumeration_text):
            with pytest.raises(ValueError, match="max_vertices capped at 7"):
                list(enumeration(8, 3))
            with pytest.raises(ValueError, match="max_weight capped at 6"):
                list(enumeration(3, 7))
            # checked at the call, before a diagram is asked for
            with pytest.raises(ValueError, match="max_vertices capped at 7"):
                enumeration(8, 3)
            with pytest.raises(ValueError, match="max_weight capped at 6"):
                enumeration(3, 7)

    @pytest.mark.parametrize("v,w", [(0, 3), (3, 0), (-1, -1), (0, 0)])
    def test_limits_below_one_are_empty(self, v, w):
        assert _single_root_catalog(v, w) == []
        assert list(enumerate_diagrams(v, w)) == []
        assert list(enumeration_text(v, w)) == []

    @pytest.mark.parametrize("v", range(1, 7))
    def test_text_projection_matches_to_text(self, v):
        for w in range(1, 7):
            expected = [to_text(d).rstrip("\n").replace("\n", "; ")
                        for d in enumerate_diagrams(v, w)]
            assert list(enumeration_text(v, w)) == expected

    @pytest.mark.parametrize("v,w", [(5, 4), (6, 5)])
    def test_leaves_no_cyclic_garbage(self, v, w):
        """Exhausted, the enumeration has freed all it made: nothing is left to
        the cyclic collector, which would otherwise run while it streams."""
        gc.collect()
        gc.disable()
        try:
            for _ in enumeration_text(v, w):
                pass
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_multi_root_included(self):
        keys = {canonical_key(d) for d in enumerate_diagrams(2, 2)}
        assert canonical_key(named_diagram("rA1", 2)) in keys

    def test_counts_match_golden(self):
        # line v: the number of diagrams with at most v vertices, weights <= 6
        golden = [int(n) for n in (GOLDEN / "enriques_counts.txt").read_text().split()]
        counts = [sum(1 for _ in enumerate_diagrams(v, 6)) for v in range(1, 8)]
        assert counts == golden

    def test_order_by_size_then_key(self):
        # strictly increasing: the order contract, and no duplicates
        order = [(len(d), canonical_key(d)) for d in enumerate_diagrams(6, 5)]
        assert all(a < b for a, b in zip(order, order[1:]))


def largest_weight(key) -> int:
    """The largest vertex weight of the tree with this canonical key."""
    weight, _, children = key
    return max([weight, *map(largest_weight, children)])


def euler_transform(trees: list[int]) -> list[int]:
    """Multisets of trees by total size, from ``trees[n]``, the trees of size n: the
    coefficients of prod_n (1 - x^n)^(-trees[n]) up to x^(len(trees) - 1)."""
    forests = [1] + [0] * (len(trees) - 1)
    for n in range(1, len(trees)):
        for _ in range(trees[n]):  # one factor 1/(1 - x^n) at a time
            for i in range(n, len(forests)):
                forests[i] += forests[i - n]
    return forests


class TestForestOracle:
    def test_forest_counts_are_the_euler_transform_of_tree_counts(self):
        """A forest is a multiset of single-root trees, so the diagrams of at most v
        vertices with weights up to w follow from the tree counts by size and largest
        weight; this route uses neither the forest walk nor its weight cap."""
        catalog = [(size, largest_weight(key)) for key, size in _single_root_catalog(7, 6)]
        for w in range(1, 7):
            forests = euler_transform([sum(1 for size, top in catalog if size == n and top <= w)
                                       for n in range(8)])
            for v in range(1, 8):
                assert sum(1 for _ in enumeration_text(v, w)) == sum(forests[1:v + 1]), (v, w)


@cache
def labelled_catalog(max_vertices, max_weight):
    """Canonical keys of the valid single-root trees, found by brute force,
    each with its vertex count and largest weight.

    Every labelled tree is built: vertex i > 0 takes any earlier vertex as
    parent, a remote target that is none or a proper ancestor other than
    the parent, and any weight in 1..max_weight.
    """
    found = {}
    for n in range(1, max_vertices + 1):
        for parents in product(*(range(i) for i in range(1, n))):
            ancestors = [[]]  # proper ancestors, nearest first
            for p in parents:
                ancestors.append([p] + ancestors[p])
            remotes = [[None]] + [[None] + up[1:] for up in ancestors[1:]]
            for remote in product(*remotes):
                for weights in product(range(1, max_weight + 1), repeat=n):
                    diagram = EnriquesDiagram(
                        tuple(map(Vertex, weights, (None, *parents), remote))
                    )
                    if validate(diagram) is None:
                        found[canonical_key(diagram)] = (n, max(weights))
    return found


class TestCatalogOracle:
    def test_catalog_sizes_are_vertex_counts(self):
        catalog = _single_root_catalog(7, 6)
        assert [key for key, _ in catalog] == sorted(key for key, _ in catalog)
        assert all(size == len(_tree(key)) for key, size in catalog)

    @pytest.mark.parametrize(
        "v,w", [(v, w) for v in range(1, 5) for w in range(1, 5)] + [(5, 3)]
    )
    def test_single_root_diagrams_match_brute_force(self, v, w):
        found = labelled_catalog(*((4, 4) if v <= 4 else (5, 3)))
        expected = sorted(k for k, (n, top) in found.items() if n <= v and top <= w)
        single = [d for d in enumerate_diagrams(v, w) if len(d.roots()) == 1]
        assert sorted(canonical_key(d) for d in single) == expected


class TestTextFormat:
    def test_round_trip_named(self):
        for d in (A1, A2, named_diagram("D", 7), named_diagram("E", 8),
                  named_diagram("rA1", 3)):
            assert canonical_key(from_text(to_text(d))) == canonical_key(d)

    def test_known_form(self):
        assert to_text(A2) == "0 2 - -\n1 1 0 -\n2 1 1 0\n"

    def test_comments_and_blanks(self):
        text = "# a cusp\n0 2 - -\n\n1 1 0 -\n2 1 1 0\n"
        assert canonical_key(from_text(text)) == canonical_key(A2)

    def test_bad_ids(self):
        with pytest.raises(ValueError):
            from_text("1 2 - -\n")
        with pytest.raises(ValueError):
            from_text("")
        with pytest.raises(ValueError):
            from_text("0 2 - - extra\n")
