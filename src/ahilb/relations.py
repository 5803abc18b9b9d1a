"""Relations between the tautological line bundles.

Each interior vertex contributes one multiplicative relation between the
bundles indexed by its mark and the characters of the lines through it.
The relations are verified chart by chart as literal monomial identities
between the generators, which is the strongest form available.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CorrespondenceError, InvariantViolationError
from .recipe import CASE_DP6


@dataclass
class Relation:
    vertex: tuple
    case: int  # 1..4
    lhs: tuple  # characters (canonical representatives)
    rhs: tuple


def derive_relations(triangulation, decoration):
    """One relation per interior vertex, shaped by its marking case."""
    g = triangulation.group
    out = []
    for v in sorted(decoration.vertex_marks):
        vm = decoration.vertex_marks[v]
        through = sorted(vm.through)
        if vm.case == CASE_DP6:
            lhs = tuple(sorted(vm.marks))
            rhs = tuple(through)
        else:
            lhs = (vm.marks[0],)
            if vm.valency == 3:
                chi = through[0]
                rhs = (chi, chi)
            else:
                pair = sorted(c for c, eis in vm.through.items() if len(eis) == 2)
                rhs = tuple(pair)
        rel = Relation(v, vm.case_number, lhs, rhs)
        if g.char_sum(rel.lhs) != g.char_sum(rel.rhs):
            raise InvariantViolationError(
                "relation sides have different character sums", detail={"vertex": v}
            )
        out.append(rel)
    return out


def verify_relation_chartwise(chart_set, relation):
    """Check the literal monomial identity on every chart.

    Returns (True, None) or (False, witness_triangle_index).
    """
    reduce = chart_set.group.reduce
    lhs_chars = [reduce(chi) for chi in relation.lhs]
    rhs_chars = [reduce(chi) for chi in relation.rhs]
    for ti, graph in enumerate(chart_set.agraphs):
        table = graph.table
        lhs = [0, 0, 0]
        for chi in lhs_chars:
            m = table[chi]
            lhs[0] += m[0]
            lhs[1] += m[1]
            lhs[2] += m[2]
        rhs = [0, 0, 0]
        for chi in rhs_chars:
            m = table[chi]
            rhs[0] += m[0]
            rhs[1] += m[1]
            rhs[2] += m[2]
        if lhs != rhs:
            return False, ti
    return True, None


def verify_all_relations(chart_set, relations):
    for rel in relations:
        ok, witness = verify_relation_chartwise(chart_set, rel)
        if not ok:
            raise CorrespondenceError(
                "relation fails on a chart",
                detail={"vertex": rel.vertex, "witness_triangle": witness},
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
    interior = len(triangulation.interior_vertices())
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
