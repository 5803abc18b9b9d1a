"""Deterministic JSON documents for every artifact.

Characters are serialized once in a `characters` table carrying the
reduced exponent triple and display label; every other reference is the
integer id from that table (for cyclic groups the id equals the label
index, so a relation prints as e.g. lhs [4], rhs [2, 2]).  Output is
byte-stable: fixed key order, no timestamps, no timings.
"""

from __future__ import annotations

import json

from .errors import InputError

SCHEMA_VERSION = 1


def build_document(art) -> dict:
    g = art.group
    cid = g.char_id

    def chars(seq):
        return [cid(c) for c in seq]

    doc = {
        "schema_version": SCHEMA_VERSION,
        "spec": art.spec_text,
        "group": {
            "order": g.order,
            "cyclic": g.is_cyclic,
            "generators": [[r, list(w)] for r, w in g.spec.generators],
            "elements": [list(e) for e in g.elements],
            "characters": [
                {"id": cid(c), "exps": list(c), "label": g.char_label(c)}
                for c in g.characters()
            ],
        },
    }
    T = art.triangulation
    if T is not None:
        doc["points"] = [list(p) for p in T.points]
        doc["lines"] = [
            {
                "ratio": [list(ln.plus), list(ln.minus)],
                "character": cid(ln.character),
                "kind": ln.kind,
                "corner": ln.corner,
                "strength": ln.strength,
                "final_strength": ln.final_strength,
                "segment": [list(ln.endpoints[0]), list(ln.endpoints[1])],
                "edges": list(ln.edges),
            }
            for ln in T.lines
        ]
        doc["edges"] = [
            {
                "a": list(e.a),
                "b": list(e.b),
                "line": e.line,
                "interior": e.interior,
                "triangles": list(e.triangles),
            }
            for e in T.edges
        ]
        doc["regular_triangles"] = [
            {
                "vertices": [list(v) for v in reg.vertices],
                "side": reg.side,
                "kind": reg.kind,
                "corner": reg.corner,
            }
            for reg in T.regular_triangles
        ]
        tris = []
        for ti, t in enumerate(T.triangles):
            entry = {
                "vertices": [list(v) for v in t.vertices],
                "orientation": t.orientation,
                "regular": t.regular,
            }
            if art.charts is not None:
                chart = art.charts.charts[ti]
                entry["chart"] = [[list(n), list(d)] for n, d in chart.coords]
                graph = art.charts.agraphs[ti]
                entry["agraph"] = {
                    str(cid(chi)): list(m) for chi, m in sorted(graph.table.items())
                }
                entry["socle"] = sorted(list(m) for m in graph.socle)
            tris.append(entry)
        doc["triangles"] = tris
    if art.decoration is not None:
        doc["vertex_marks"] = [
            {
                "vertex": list(v),
                "valency": vm.valency,
                "case": vm.case_number,
                "surface": vm.case,
                "marks": chars(vm.marks),
                "through": {str(cid(c)): list(eis) for c, eis in sorted(vm.through.items())},
            }
            for v, vm in sorted(art.decoration.vertex_marks.items())
        ]
        doc["character_partition"] = {
            k: sorted(chars(v)) for k, v in art.decoration.partition.items()
        }
    if art.quiver is not None:
        doc["quiver"] = {
            "chart": art.quiver.chart,
            "placements": {
                str(cid(c)): list(m) for c, m in sorted(art.quiver.placements.items())
            },
        }
    if art.relations is not None:
        doc["relations"] = [
            {
                "vertex": list(r.vertex),
                "case": r.case,
                "lhs": chars(r.lhs),
                "rhs": chars(r.rhs),
            }
            for r in art.relations
        ]
    if art.bundles is not None:
        doc["virtual_bundles"] = [
            {
                "index": cid(b.index),
                "vertex": list(b.vertex),
                "plus": chars(b.plus),
                "minus": chars(b.minus),
            }
            for b in art.bundles
        ]
    if art.surfaces is not None:
        doc["surfaces"] = [
            {
                "vertex": list(v),
                "type": calc.surface.surface_type,
                "cycle": list(calc.surface.self_intersections),
                "curves": list(calc.surface.edge_ids),
            }
            for v, calc in sorted(art.surfaces.items())
        ]
    if art.duality is not None:
        doc["duality_matrix"] = [list(row) for row in art.duality]
    if art.h2 is not None:
        doc["h2_basis"] = dict(art.h2)
    if art.report is not None:
        doc["report"] = {
            "spec": art.report.spec,
            "counts": dict(art.report.counts),
            "checks": {
                name: {"status": entry["status"], "detail": jsonable(entry["detail"])}
                for name, entry in sorted(art.report.checks.items())
            },
            "failure": jsonable(art.report.failure),
        }
    if art.certificate is not None:
        doc["certificate"] = jsonable(art.certificate)
    return doc


def jsonable(obj):
    """Recursively coerce tuples and non-string keys for stable JSON."""
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    if isinstance(obj, (list, tuple)):
        return [jsonable(x) for x in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(jsonable(x) for x in obj)
    if isinstance(obj, dict):
        return {_key(k): jsonable(v) for k, v in sorted(obj.items(), key=lambda kv: _key(kv[0]))}
    return str(obj)


def _key(k):
    return k if isinstance(k, str) else str(k)


def to_json(art) -> str:
    doc = build_document(art)
    return json.dumps(doc, sort_keys=True, indent=1, ensure_ascii=False) + "\n"


def from_json(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"unsupported document: not JSON ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("schema_version") != SCHEMA_VERSION:
        raise InputError("unsupported document: wrong or missing schema_version")
    return doc
