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
from dataclasses import dataclass
from math import comb
from typing import Callable, Iterator, TypeVar

from .exactpoly import ExactnessError


@dataclass(frozen=True)
class Vertex:
    """One infinitely near point: weight, parent index, remote proximity."""

    weight: int
    parent: int | None = None
    remote: int | None = None


@dataclass(frozen=True)
class EnriquesDiagram:
    """A weighted proximity forest, vertices listed parent-before-child."""

    vertices: tuple[Vertex, ...]

    def __post_init__(self) -> None:
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


@dataclass(frozen=True)
class Violation:
    """First failed diagram axiom, with the offending vertex."""

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


@dataclass(frozen=True)
class DiagramInvariants:
    """The numerical invariants; the defining identities are rechecked."""

    roots: int
    free_vertices: int
    dim: int
    deg: int
    cod: int
    delta: int
    branches: int
    milnor: int
    jacobian_mult: int | None

    def __post_init__(self) -> None:
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


@dataclass(frozen=True)
class InequalityResult:
    """Outcome of one invariant inequality: does it hold, and sharply?"""

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


def _tree(key: TreeKey, base: int = 0) -> tuple[Vertex, ...]:
    """The canonical single-root diagram with this key, numbered from ``base``."""
    verts: list[Vertex] = []
    path: list[int] = []  # ancestors of the vertex being placed, root first

    def visit(key: TreeKey, parent: int | None) -> None:
        weight, offset, children = key
        idx = base + len(verts)
        verts.append(Vertex(weight, parent, path[-offset] if offset else None))
        path.append(idx)
        for child in children:
            visit(child, idx)
        path.pop()

    visit(key, None)
    return tuple(verts)


def _single_root_catalog(max_vertices: int, max_weight: int) -> list[tuple[TreeKey, int]]:
    """All single-root valid minimal diagrams up to iso, as (key, vertex count)
    pairs sorted by key.

    Orderly generation: a vertex's children are chosen as a non-decreasing
    tuple of keys, the order ``canonical_key`` sorts them in, so each
    isomorphism class is built once and no tree needs a canonical form or
    a duplicate check.  A child's remote target is its grandparent or its
    parent's remote target, which is the proximity chain.

    Every yielded tree is valid and minimal without a ``validate`` pass.
    ``caps`` holds the remaining proximity budget of each vertex on the
    current path (``caps[0]`` bounds the root weight by ``max_weight``).
    A new vertex of weight w may not exceed the budget of its parent or of
    its remote target and takes w from both, so no vertex ever carries
    more proximate weight than its own; a free leaf of weight 1 is skipped.
    """
    if max_vertices < 1:
        return []
    caps = [max_weight]

    def vertex(room: int, offset: int) -> Iterator[tuple[TreeKey, int]]:
        """Subtrees of at most ``room`` vertices below ``caps[-1]`` whose root
        is remote-proximate ``offset`` generations up (0: free), with sizes."""
        targets = (-1, -offset) if offset else (-1,)
        for w in range(1, min(caps[t] for t in targets) + 1):
            for t in targets:
                caps[t] -= w
            caps.append(w)
            for children, size in family(room - 1, offset, ()):
                if w > 1 or offset or children:
                    own = caps.pop()  # siblings are placed one level up
                    yield (w, offset, children), size + 1
                    caps.append(own)
            caps.pop()
            for t in targets:
                caps[t] += w

    def family(room: int, offset: int, least: tuple) -> Iterator[tuple[tuple, int]]:
        """Children of the vertex at ``caps[-1]`` (its own remote ``offset``),
        as non-decreasing tuples of keys no smaller than ``least``."""
        yield (), 0
        if not room:
            return
        offsets = [0, 2] if len(caps) > 2 else [0]  # caps[0] is not a vertex
        if offset:
            offsets.append(offset + 1)
        for child_offset in offsets:
            for key, size in vertex(room, child_offset):
                if key >= least:
                    for rest, more in family(room - size, offset, key):
                        yield (key, *rest), size + more

    return sorted(vertex(max_vertices, 0))


def _forest_walk(
    max_vertices: int, max_weight: int, place: Callable[[TreeKey, int], Piece], empty: Piece
) -> Iterator[Piece]:
    """Every forest as the concatenation of its placed trees, in order.

    ``place(key, base)`` gives a tree with its root at index ``base``; it is
    called once for every index a tree can take.  Forests are non-decreasing
    tuples of catalog indices, by total size first, then lexicographically:
    each step adds one placed tree to its parent's prefix, so a prefix
    shared by many forests is built once.  ``fits[room]`` lists the trees of
    size at most ``room``, so no step looks at a tree that cannot fit.
    """
    if max_vertices > 7:
        raise ValueError(f"max_vertices capped at 7: {max_vertices}")
    if max_weight > 6:
        raise ValueError(f"max_weight capped at 6: {max_weight}")
    catalog = _single_root_catalog(max_vertices, max_weight)
    sizes = [size for _, size in catalog]
    placed = [[place(key, base) for base in range(max_vertices - size + 1)]
              for key, size in catalog]
    fits = [[i for i, size in enumerate(sizes) if size <= room]
            for room in range(max_vertices + 1)]

    def extend(prefix: Piece, start: int, used: int, room: int) -> Iterator[Piece]:
        candidates = fits[room]
        for i in candidates[bisect_left(candidates, start):]:
            forest = prefix + placed[i][used]
            if room == sizes[i]:
                yield forest
            else:
                yield from extend(forest, i, used + sizes[i], room - sizes[i])

    for total in range(1, max_vertices + 1):
        yield from extend(empty, 0, 0, total)


def enumerate_diagrams(max_vertices: int, max_weight: int) -> Iterator[EnriquesDiagram]:
    """All valid minimal diagrams up to isomorphism, streamed in a fixed order.

    The order is by vertex count, then by canonical key (the sorted tuple
    of tree keys), so ``(len(d), canonical_key(d))`` strictly increases.
    Multi-root diagrams are included (a forest is a multiset of its trees).
    Each diagram is built as it is yielded; only the single-root catalog,
    each tree numbered for the positions it takes in a forest, is held in
    memory.  Every yielded diagram passes validate.

    Exhaustive at desk scale; the limits are capped at 7 vertices and
    weight 6.  Limits below 1 yield nothing.
    """
    return map(EnriquesDiagram, _forest_walk(max_vertices, max_weight, _tree, ()))


def enumeration_text(max_vertices: int, max_weight: int) -> Iterator[str]:
    """``to_text`` of each ``enumerate_diagrams`` diagram, lines joined by "; ".

    Each placed tree is formatted once, and forests share their prefixes.
    """
    return _forest_walk(max_vertices, max_weight, _text_piece, "")


def _text_piece(key: TreeKey, base: int) -> str:
    """The tree's text lines from ``base``, "; "-joined; a tree placed after
    another (``base`` > 0) carries the separator in front."""
    lines = "; ".join(_vertex_lines(_tree(key, base), base))
    return f"; {lines}" if base else lines


# -- text format ------------------------------------------------------------


def _vertex_lines(vertices: tuple[Vertex, ...], base: int = 0) -> list[str]:
    """``id weight parent|- remote|-`` per vertex, ids counted from ``base``."""
    return [
        f"{i} {v.weight} {'-' if v.parent is None else v.parent} "
        f"{'-' if v.remote is None else v.remote}"
        for i, v in enumerate(vertices, base)
    ]


def to_text(diagram: EnriquesDiagram) -> str:
    """One vertex per line: ``id weight parent|- remote|-``."""
    return "\n".join(_vertex_lines(diagram.vertices)) + "\n"


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
