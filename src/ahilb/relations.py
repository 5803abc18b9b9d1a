"""Relations between the tautological line bundles.

Each interior vertex contributes one multiplicative relation between the
bundles indexed by its marks and the right side its case gave it
(`recipe.VertexMark.rhs`): the characters marking two of its edges, or
the P2 vertex's one character twice.  The marks' character sum must match,
a check that only constrains a triple intersection, whose marks come from
the socles rather than from the sum.
Each relation is checked as a literal monomial identity between the
generators on one chart, and by the degree rows of its two sides, which
together give the identity on every chart (`verify_all_relations`).  The
degree rows are read off the degree table's columns (`ChartSet._degree`,
one {id: q} dict per edge, keyed by character id).
"""

from __future__ import annotations

from .errors import CorrespondenceError, InvariantViolationError
from .record import Record


class Relation(Record):
    __slots__ = ("vertex", "case", "lhs", "rhs")

    def __init__(self, vertex, case, lhs, rhs):
        self.vertex = vertex
        self.case = case  # 1..4
        self.lhs = lhs  # characters (canonical representatives)
        self.rhs = rhs


def derive_relations(triangulation, decoration):
    """One relation per interior vertex: its marks against the right side of its case."""
    g = triangulation.group
    out = []
    for v in sorted(decoration.vertex_marks):
        vm = decoration.vertex_marks[v]
        rel = Relation(v, vm.case_number, tuple(sorted(vm.marks)), vm.rhs)
        if g.char_sum(rel.lhs) != g.char_sum(rel.rhs):
            raise InvariantViolationError(
                "relation sides have different character sums", detail={"vertex": v}
            )
        out.append(rel)
    return out


def _monomial(table, ids):
    """Product of the generators of the character ids `ids` in one chart's table."""
    return tuple(map(sum, zip(*(table[k] for k in ids))))


def verify_all_relations(chart_set, relations):
    """Each relation is a literal monomial identity on triangle 0's chart.

    With `check_bundle_degrees` this is the identity on every chart.
    `ChartSet` crosses each interior edge once: a tree edge from the
    triangle built first, any other edge from the one built later.  It
    moves the generator of each character to m - q*v: one v (the edge
    ratio, oriented toward the triangle across) for the whole edge, and
    q >= 0 the stored degree.  The argument needs only that one
    orientation of v per edge, whichever side the walk crossed from.  So
    the degrees add up like the moves, and when the two sides of a
    relation have equal degree rows, their products move by the same
    multiple of v across every interior edge.  The identity then passes
    from triangle 0 to each neighbour, and the walk reaches every triangle
    from triangle 0.  Conversely, an identity on both charts of an edge
    forces equal degree sums there.
    """
    cid = chart_set.group.char_id
    table = chart_set.agraphs[0].table
    for rel in relations:
        if _monomial(table, map(cid, rel.lhs)) != _monomial(table, map(cid, rel.rhs)):
            raise CorrespondenceError(
                "relation fails on a chart",
                detail={"vertex": rel.vertex, "witness_triangle": 0},
            )
    return True


def check_bundle_degrees(chart_set, relations):
    """The two sides of each relation have equal degree rows.

    That is its virtual bundle's degree zero on every compact curve, since
    the trivial character's row is zero.  Each side's characters are mapped
    to their ids once; then one pass over the nonzeros of the degree
    table's sparse columns ({id: q}) adds each degree to the relations that
    use its character, and a failure names the first relation whose sides
    differ, at the first interior edge where they do.
    """
    g = chart_set.group
    # character id -> (relation index, +1 on the lhs or -1 on the rhs), per use
    uses = [()] * g.order
    for r, rel in enumerate(relations):
        for sign, side in ((1, rel.lhs), (-1, rel.rhs)):
            for k in map(g.char_id, side):
                uses[k] += ((r, sign),)
    first_differ = {}  # relation index -> first edge where its sides differ
    for ei, column in enumerate(chart_set._degree):
        excess = {}  # relation index -> lhs degree sum minus rhs degree sum
        for k, q in column.items():
            for r, sign in uses[k]:
                excess[r] = excess.get(r, 0) + sign * q
        for r, d in excess.items():
            if d and r not in first_differ:
                first_differ[r] = ei
    if first_differ:
        r = min(first_differ)
        e = chart_set.triangulation.edges[first_differ[r]]
        raise InvariantViolationError(
            "virtual bundle has nonzero degree on a curve",
            detail={"vertex": relations[r].vertex, "edge": (e.a, e.b)},
        )
    return True


def completeness_check(triangulation, decoration, relations):
    """Count bookkeeping: relations exhaust the interior vertices.

    Euler-number arithmetic: #relations = #interior vertices = #age-2
    elements = b4, and the surviving characters number b2 = |A| - 1 - b4,
    so 1 + b2 + b4 = |A|.
    """
    g = triangulation.group
    ages = g.age_counts()
    interior = len(triangulation.interior_vertices)
    b4 = ages[2]
    b2 = ages[1]
    survivors = len(decoration.partition["line"]) + len(decoration.partition["second"])
    checks = {
        "relations_vs_interior": len(relations) == interior,
        "interior_vs_age2": interior == b4,
        "survivors_vs_b2": survivors == g.order - 1 - b4 == b2,
        "euler": 1 + b2 + b4 == g.order == len(triangulation.triangles),
    }
    if not all(checks.values()):
        raise CorrespondenceError(
            "relation completeness counts failed",
            detail={"checks": checks, "b2": b2, "b4": b4,
                    "relations": len(relations), "interior": interior},
        )
    return {"b2": b2, "b4": b4, "relations": len(relations),
            "interior_vertices": interior, "euler": g.order}
