"""Enriques diagrams: weighted proximity forests for curve singularities.

A diagram records the equisingularity type of a reduced curve singularity
cluster on a smooth surface.  Vertices are infinitely near points, weighted
by the multiplicity of the strict transform.  Every non-root vertex is
proximate to its parent; it may additionally be proximate to exactly one
more distant ancestor, in which case it is a satellite.  Vertices with no
remote proximity (roots included) are free.  The defining constraints:

  * parent links form a forest, and a remote proximity points at a proper
    ancestor other than the parent (never more than one per vertex);
  * the vertices proximate to a given vertex form an unbroken chain: a
    satellite's parent is itself proximate to the remote target (the
    strict transform of an exceptional divisor is only available in the
    neighborhood of a point it passes through);
  * proximity inequality: the weight of V is at least the total weight of
    the vertices proximate to V;
  * minimality: no leaf is a free vertex of weight 1 (such points carry no
    singularity data and are trimmed).

The classical numerical invariants all come from the weights and the
proximity relation: writing C(n, 2) for binomial coefficients and summing
over vertices,

    deg = sum C(m_V + 1, 2)        delta    = sum C(m_V, 2)
    dim = roots + free vertices    branches = sum (m_V - sum of proximate weights)
    cod = deg - dim                milnor   = 2*delta - branches + roots

and, for a single root, the multiplicity of the Jacobian ideal is
milnor + m_root - 1.  The module also ships the standard named diagrams
(the A, D, E series and the r-nodes diagram rA1) and an exhaustive
enumerator of small diagrams up to isomorphism, which together drive the
verification of a family of sharp inequalities among these invariants.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from functools import cache
from itertools import chain, starmap
from math import comb
from typing import Callable, Iterable, Iterator, TypeVar

from . import ExactnessError


class _Record(tuple):
    """A named tuple equal only to a record of its own type, as a frozen dataclass
    is, and hashed as the tuple of its fields.  The records below derive from it
    and from their ``namedtuple``; those with a ``__init__`` check their fields,
    also in ``_make`` and ``_replace``."""

    __slots__ = ()

    @classmethod
    def _make(cls, fields: Iterable[object]) -> _Record:
        return cls(*fields)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__


class Vertex(_Record, namedtuple("Vertex", "weight parent remote", defaults=(None, None))):
    """One infinitely near point: weight, parent index, remote proximity."""

    __slots__ = ()
    weight: int
    parent: int | None
    remote: int | None


class EnriquesDiagram(_Record, namedtuple("EnriquesDiagram", "vertices")):
    """A weighted proximity forest, vertices listed parent-before-child.

    Its length is its vertex count."""

    __slots__ = ()
    vertices: tuple[Vertex, ...]

    def __init__(self, vertices: tuple[Vertex, ...]) -> None:
        for i, v in enumerate(self.vertices):
            if v.parent is not None and not 0 <= v.parent < i:
                raise ValueError(f"vertex {i}: parent {v.parent} does not precede it")
            if v.remote is not None and not 0 <= v.remote < i:
                raise ValueError(f"vertex {i}: remote {v.remote} does not precede it")

    def __len__(self) -> int:
        return len(self.vertices)

    def roots(self) -> list[int]:
        return [i for i, v in enumerate(self.vertices) if v.parent is None]

    def children(self, i: int) -> list[int]:
        return [j for j, v in enumerate(self.vertices) if v.parent == i]

    def proximate_to(self, i: int) -> list[int]:
        """Vertices proximate to i: its children plus its remote satellites."""
        return [
            j
            for j, v in enumerate(self.vertices)
            if v.parent == i or v.remote == i
        ]

    def is_leaf(self, i: int) -> bool:
        return not any(v.parent == i for v in self.vertices)

    def ancestors(self, i: int) -> list[int]:
        """Proper ancestors of i, nearest first."""
        out = []
        p = self.vertices[i].parent
        while p is not None:
            out.append(p)
            p = self.vertices[p].parent
        return out


class Violation(_Record, namedtuple("Violation", "axiom vertex detail")):
    """First failed diagram axiom, with the offending vertex."""

    __slots__ = ()
    axiom: str
    vertex: int
    detail: str

    def __str__(self) -> str:
        return f"{self.axiom} violated at vertex {self.vertex}: {self.detail}"


def validate(diagram: EnriquesDiagram) -> Violation | None:
    """Check the diagram axioms; None means the diagram is valid and minimal."""
    for i, v in enumerate(diagram.vertices):
        if v.weight < 1:
            return Violation("positive-weight", i, f"weight {v.weight} is not positive")
    for i, v in enumerate(diagram.vertices):
        if v.remote is None:
            continue
        if v.parent is None:
            return Violation("remote-proximity", i, "a root cannot have a remote proximity")
        if v.remote == v.parent:
            return Violation("remote-proximity", i, "remote target equals the parent")
        if v.remote not in diagram.ancestors(i):
            return Violation(
                "remote-proximity", i, f"remote target {v.remote} is not a proper ancestor"
            )
        parent = diagram.vertices[v.parent]
        if parent.parent != v.remote and parent.remote != v.remote:
            return Violation(
                "proximity-chain",
                i,
                f"parent {v.parent} is not proximate to the remote target {v.remote}",
            )
    loads, has_child = _proximity(diagram)
    for i, v in enumerate(diagram.vertices):
        if v.weight < loads[i]:
            return Violation(
                "proximity-inequality", i, f"weight {v.weight} < proximate total {loads[i]}"
            )
    for i, v in enumerate(diagram.vertices):
        if v.weight == 1 and v.remote is None and not has_child[i]:
            return Violation("minimality", i, "free leaf of weight 1")
    return None


def _proximity(diagram: EnriquesDiagram) -> tuple[list[int], list[bool]]:
    """Per vertex, in one pass: the total weight proximate to it, and whether
    it has a child.  Agrees with ``proximate_to`` and ``is_leaf``."""
    loads = [0] * len(diagram)
    has_child = [False] * len(diagram)
    for v in diagram.vertices:
        if v.parent is not None:
            loads[v.parent] += v.weight
            has_child[v.parent] = True
        if v.remote is not None and v.remote != v.parent:
            loads[v.remote] += v.weight
    return loads, has_child


class DiagramInvariants(_Record, namedtuple("DiagramInvariants", "roots free_vertices dim deg"
                                            " cod delta branches milnor jacobian_mult")):
    """The numerical invariants; the defining identities are rechecked."""

    __slots__ = ()
    roots: int
    free_vertices: int
    dim: int
    deg: int
    cod: int
    delta: int
    branches: int
    milnor: int
    jacobian_mult: int | None

    def __init__(self, *fields: int | None, **named: int | None) -> None:
        if (
            self.dim != self.roots + self.free_vertices
            or self.cod != self.deg - self.dim
            or self.milnor != 2 * self.delta - self.branches + self.roots
        ):
            raise ExactnessError(f"invariants break their defining identities: {self}")


def invariants(diagram: EnriquesDiagram) -> DiagramInvariants:
    """Compute all invariants of a valid diagram."""
    bad = validate(diagram)
    if bad is not None:
        raise ValueError(f"invalid diagram: {bad}")
    roots = diagram.roots()
    frs = sum(v.remote is None for v in diagram.vertices)
    deg = sum(comb(v.weight + 1, 2) for v in diagram.vertices)
    delta = sum(comb(v.weight, 2) for v in diagram.vertices)
    loads, _ = _proximity(diagram)
    branches = sum(v.weight for v in diagram.vertices) - sum(loads)
    dim = len(roots) + frs
    milnor = 2 * delta - branches + len(roots)
    jac = None
    if len(roots) == 1:
        jac = milnor + diagram.vertices[roots[0]].weight - 1
    return DiagramInvariants(
        roots=len(roots),
        free_vertices=frs,
        dim=dim,
        deg=deg,
        cod=deg - dim,
        delta=delta,
        branches=branches,
        milnor=milnor,
        jacobian_mult=jac,
    )


class InequalityResult(_Record, namedtuple("InequalityResult", "part holds equality")):
    """Outcome of one invariant inequality: does it hold, and sharply?"""

    __slots__ = ()
    part: str
    holds: bool
    equality: bool


def inequality_report(diagram: EnriquesDiagram) -> tuple[InequalityResult, ...]:
    """Evaluate the eight invariant relations of a single-root diagram.

    (i)    root weight = branches + total satellite weight  (an identity)
    (ii)   delta <= cod          (iii)  cod <= milnor
    (iv)   milnor <= 2*delta     (v)    cod <= 2*delta
    (vi)   2*delta <= e          (vii)  e <= cod + delta
    (viii) e <= 2*cod

    with e the Jacobian multiplicity milnor + root weight - 1.
    """
    roots = diagram.roots()
    if len(roots) != 1:
        raise ValueError(f"need a single root, found {len(roots)}")
    inv = invariants(diagram)
    m_root = diagram.vertices[roots[0]].weight
    sat_weight = sum(v.weight for v in diagram.vertices if v.remote is not None)
    e = inv.jacobian_mult
    if e is None:
        raise ExactnessError("a single-root diagram has no Jacobian multiplicity")

    def ineq(part: str, lhs: int, rhs: int) -> InequalityResult:
        return InequalityResult(part, lhs <= rhs, lhs == rhs)

    identity = m_root == inv.branches + sat_weight
    return (
        InequalityResult("i", identity, identity),
        ineq("ii", inv.delta, inv.cod),
        ineq("iii", inv.cod, inv.milnor),
        ineq("iv", inv.milnor, 2 * inv.delta),
        ineq("v", inv.cod, 2 * inv.delta),
        ineq("vi", 2 * inv.delta, e),
        ineq("vii", e, inv.cod + inv.delta),
        ineq("viii", e, 2 * inv.cod),
    )


# -- named diagrams ---------------------------------------------------------


def named_diagram(kind: str, index: int) -> EnriquesDiagram:
    """Standard diagrams: the A, D, E series and r disjoint nodes (rA1).

    A_{2i+1} is a chain of i+1 free vertices of weight 2.  A_{2i} is a chain
    of i weight-2 vertices followed by a free weight-1 vertex and a weight-1
    satellite remote-proximate to the last weight-2 vertex.  D_k (k >= 4) is
    A_{k-3} with the root weight raised to 3; the E diagrams are the three
    weight-3-rooted shapes pinned by their Milnor numbers 6, 7 and 8.
    """
    if kind == "A":
        if index < 1:
            raise ValueError(f"A-series index must be at least 1: {index}")
        if index % 2 == 1:
            i = (index - 1) // 2
            verts = [Vertex(2, None if j == 0 else j - 1) for j in range(i + 1)]
        else:
            i = index // 2
            verts = [Vertex(2, None if j == 0 else j - 1) for j in range(i)]
            verts.append(Vertex(1, i - 1))
            verts.append(Vertex(1, i, remote=i - 1))
        return EnriquesDiagram(tuple(verts))
    if kind == "D":
        if index < 4:
            raise ValueError(f"D-series index must be at least 4: {index}")
        base = named_diagram("A", index - 3)
        verts = (Vertex(3, None, None),) + base.vertices[1:]
        return EnriquesDiagram(verts)
    if kind == "E":
        shapes = {
            6: (Vertex(3), Vertex(1, 0), Vertex(1, 1, remote=0), Vertex(1, 2, remote=0)),
            7: (Vertex(3), Vertex(2, 0), Vertex(1, 1, remote=0)),
            8: (Vertex(3), Vertex(2, 0), Vertex(1, 1, remote=0), Vertex(1, 2, remote=1)),
        }
        if index not in shapes:
            raise ValueError(f"E-series index must be 6, 7 or 8: {index}")
        return EnriquesDiagram(shapes[index])
    if kind == "rA1":
        if index < 1:
            raise ValueError(f"node count must be at least 1: {index}")
        return EnriquesDiagram(tuple(Vertex(2) for _ in range(index)))
    raise ValueError(f"unknown diagram kind {kind!r}")


# -- isomorphism and enumeration -------------------------------------------

#: Canonical key of a subtree: (weight, remote depth offset, sorted child keys).
#: The remote offset counts generations from the vertex up to its remote
#: target (0 when absent), which is labeling-independent.
TreeKey = tuple[int, int, tuple]
#: A placed tree as a forest walk concatenates it: vertices or text.
Piece = TypeVar("Piece", tuple, str)


def canonical_key(diagram: EnriquesDiagram) -> tuple[TreeKey, ...]:
    """A labeling-invariant key: equal keys mean isomorphic diagrams."""
    depth: dict[int, int] = {}
    for i, v in enumerate(diagram.vertices):
        depth[i] = 0 if v.parent is None else depth[v.parent] + 1

    def subtree(i: int) -> TreeKey:
        v = diagram.vertices[i]
        offset = 0 if v.remote is None else depth[i] - depth[v.remote]
        return (v.weight, offset, tuple(sorted(subtree(c) for c in diagram.children(i))))

    return tuple(sorted(subtree(r) for r in diagram.roots()))


def _rows(key: TreeKey, label: Callable[[int], object]) -> list[tuple]:
    """(id, weight, parent, remote) of each vertex of the canonical tree with
    this key, in preorder; vertex i has id ``label(i)``, and None is none."""
    rows, stack = [], [(key, ())]  # (subtree, ids of its root's ancestors, root first), next last
    while stack:
        (weight, offset, children), path = stack.pop()
        idx = label(len(rows))
        rows.append((idx, weight, path[-1] if path else None, path[-offset] if offset else None))
        path += (idx,)
        for child in reversed(children):  # a loop, not a comprehension: no frame per vertex
            stack.append((child, path))
    return rows


def _tree(key: TreeKey, base: int = 0) -> tuple[Vertex, ...]:
    """The canonical single-root diagram with this key, numbered from ``base``."""
    return tuple(Vertex(w, p, r) for _, w, p, r in _rows(key, base.__add__))


def _single_root_catalog(max_vertices: int, max_weight: int) -> list[tuple[TreeKey, int]]:
    """All single-root valid minimal diagrams up to iso, as (key, vertex count)
    pairs sorted by key.

    Built bottom up.  A child's remote target is its grandparent or its
    parent's remote target (the proximity chain), so from inside a subtree
    only its root's parent and remote target are reached, and a subtree is
    built once for all the trees it fits in.  Children are a non-decreasing
    run of candidate subtrees, sorted into ``canonical_key``'s order, so each
    isomorphism class is built once, with no canonical form or duplicate check.

    Every tree is valid and minimal without a ``validate`` pass: a vertex of
    weight w keeps its children's take from it within w and passes their
    take from its parent and remote target up, plus w, each at most
    ``max_weight``; a free leaf of weight 1 is skipped.
    """
    if max_vertices < 1:
        return []

    @cache
    def subtrees(room: int, offset: int, root: bool = False) -> list[tuple]:
        """(key, size, take from the parent, take from the remote target) of the
        subtrees of at most ``room`` vertices whose root is remote-proximate
        ``offset`` generations up (0: free).  A tree root has no grandparent."""
        kinds = (0,) if root else (0, 2, offset + 1) if offset else (0, 2)
        # candidate children by size, then by take from this vertex (down); then
        # their take from its parent (up: offset 2) and remote target (far), key
        children = sorted((size, up, far * (o == 2), far * (o > 2), key) for o in kinds
                          if room > 1 for key, size, up, far in subtrees(room - 1, o))
        ends = [bisect_left(children, (size + 1,)) for size in range(room)]
        found = []
        for w in range(1, max_weight + 1):
            for keys, size, _, up, far in family(children, ends, 0, room - 1, w,
                                                 max_weight - w, max_weight - w):
                if w > 1 or offset or keys:
                    key = (w, offset, tuple(sorted(keys)))
                    found.append((key, size + 1, w + up, w + far if offset else 0))
        return found

    def family(children: list, ends: list[int], j: int, room: int, down: int, up: int,
               far: int) -> Iterator[tuple[tuple, int, int, int, int]]:
        """Non-decreasing runs of ``children[j:]`` within ``room`` vertices and
        a take of ``down``, ``up`` and ``far``, with their size and take."""
        yield (), 0, 0, 0, 0
        while j < len(children):
            size, d, u, f, key = children[j]
            if size > room:
                return
            if d > down:  # and so does the rest of this size
                j = ends[size]
                continue
            if u <= up and f <= far:
                for keys, more, dd, uu, ff in family(children, ends, j, room - size,
                                                     down - d, up - u, far - f):
                    yield (key, *keys), size + more, d + dd, u + uu, f + ff
            j += 1

    catalog = sorted((key, size) for key, size, _, _ in subtrees(max_vertices, 0, True))
    del subtrees, family  # the memo and its closures are scratch: freed here, not by the collector
    return catalog


def _forest_walk(max_vertices: int, max_weight: int, place: Callable[[TreeKey, int], list[Piece]],
                 empty: Piece) -> Iterator[list[Piece]]:
    """Every forest as the concatenation of its placed trees, in order, in
    lists of 512 forests: few yields, flat memory.  The limits are checked
    at the call.

    ``place(key, count)`` gives the tree with its root at each index below
    ``count``, all the indices it can take.  Forests are non-decreasing
    tuples of catalog indices, by total size first, then lexicographically:
    each step adds one placed tree to its parent's prefix, so a prefix
    shared by many forests is built once.  ``fits[room]`` lists the trees of
    size at most ``room``, so no step looks at a tree that cannot fit.  Only
    a full list of forests travels up the recursion.
    """
    if max_vertices > 7:
        raise ValueError(f"max_vertices capped at 7: {max_vertices}")
    if max_weight > 6:
        raise ValueError(f"max_weight capped at 6: {max_weight}")

    def walk() -> Iterator[list[Piece]]:
        trees = [(i, size, place(key, max_vertices - size + 1))
                 for i, (key, size) in enumerate(_single_root_catalog(max_vertices, max_weight))]
        fits = [[tree for tree in trees if tree[1] <= room] for room in range(max_vertices + 1)]
        batch: list[Piece] = []

        def extend(prefix: Piece, start: int, used: int, room: int) -> Iterator[list[Piece]]:
            nonlocal batch
            candidates = fits[room]
            for i, size, placed in candidates[bisect_left(candidates, (start,)):]:
                forest = prefix + placed[used]
                if room == size:
                    batch.append(forest)
                    if len(batch) == 512:
                        yield batch
                        batch = []
                else:
                    yield from extend(forest, i, used + size, room - size)

        for total in range(1, max_vertices + 1):
            yield from extend(empty, 0, 0, total)
        del extend  # it refers to itself: freed here, not left to the collector
        yield batch

    return walk()


def enumerate_diagrams(max_vertices: int, max_weight: int) -> Iterator[EnriquesDiagram]:
    """All valid minimal diagrams up to isomorphism, streamed in a fixed order.

    The order is by vertex count, then by canonical key (the sorted tuple
    of tree keys), so ``(len(d), canonical_key(d))`` strictly increases.
    Multi-root diagrams are included (a forest is a multiset of its trees).
    Each diagram is built as it is yielded; only the single-root catalog,
    each tree numbered for the positions it takes in a forest, and up to
    512 forests are held in memory.  Every yielded diagram passes validate.

    Exhaustive at desk scale; the limits are capped at 7 vertices and
    weight 6, and checked at the call.  Limits below 1 yield nothing.
    """
    walk = _forest_walk(max_vertices, max_weight,
                        lambda key, count: [_tree(key, base) for base in range(count)], ())
    return map(EnriquesDiagram, chain.from_iterable(walk))


def enumeration_text(max_vertices: int, max_weight: int) -> Iterator[str]:
    """``to_text`` of each ``enumerate_diagrams`` diagram, lines joined by "; ".

    Each tree is formatted from one template per tree, once per position it
    takes, and forests share their prefixes; no ``Vertex`` is built.
    """
    return chain.from_iterable(_forest_walk(max_vertices, max_weight, _placed_texts, ""))


def _placed_texts(key: TreeKey, count: int) -> list[str]:
    """The tree's text lines, "; "-joined, with its root at each index below
    ``count``; a tree placed after another carries the separator in front."""
    rows = _rows(key, "{{{}}}".format)  # ids are the template's format fields
    template = "; ".join(starmap(_line, rows))
    return [("; " + template if base else template).format(*range(base, base + len(rows)))
            for base in range(count)]


# -- text format ------------------------------------------------------------


def _line(i: int | str, weight: int, parent: int | str | None, remote: int | str | None) -> str:
    """One vertex of the text format: ``id weight parent|- remote|-``."""
    return f"{i} {weight} {'-' if parent is None else parent} {'-' if remote is None else remote}"


def to_text(diagram: EnriquesDiagram) -> str:
    """One vertex per line: ``id weight parent|- remote|-``."""
    return "".join(_line(i, v.weight, v.parent, v.remote) + "\n"
                   for i, v in enumerate(diagram.vertices))


def from_text(text: str) -> EnriquesDiagram:
    """Parse the text format; ids must be 0..n-1 with parents listed first."""
    verts: list[Vertex] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 4:
            raise ValueError(f"expected 'id weight parent remote': {raw!r}")
        idx, weight = int(fields[0]), int(fields[1])
        if idx != len(verts):
            raise ValueError(f"vertex ids must be consecutive from 0: got {idx}")
        parent = None if fields[2] == "-" else int(fields[2])
        remote = None if fields[3] == "-" else int(fields[3])
        verts.append(Vertex(weight, parent, remote))
    if not verts:
        raise ValueError("empty diagram text")
    return EnriquesDiagram(tuple(verts))
