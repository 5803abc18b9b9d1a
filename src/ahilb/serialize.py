"""Deterministic JSON documents for every artifact.

Characters are serialized once in a `characters` table carrying the
reduced exponent triple and display label; every other reference is the
integer id from that table (for cyclic groups the id equals the label
index, so a relation prints as e.g. lhs [4], rhs [2, 2]).  Output is
byte-stable: fixed key order, no timestamps, no timings.

The layout is that of `json.dumps(doc, sort_keys=True, indent=1,
ensure_ascii=False)` plus a final newline, where `doc` is
`build_document(art)`; that expression is the reference `to_json` is
tested against.  `to_json` writes the same text without building `doc`
first: the |A| per-triangle `agraph` tables, which hold |A|^2 entries
between them, are tuples indexed by character id that share one key
order, so each is filled into one `%d` template by one `itemgetter`
call, and every other section goes through `_iterencode`.
"""

from __future__ import annotations

import json
from itertools import chain
from operator import itemgetter

from .errors import InputError

SCHEMA_VERSION = 1

_encode_str = json.encoder.encode_basestring
# what json.dumps(x) runs for x with its default arguments
_encode_scalar = json.JSONEncoder().encode
# depth of each triangle's agraph: document > "triangles" > entry > "agraph"
_AGRAPH_LEVEL = 3


def build_document(art) -> dict:
    """The document as plain JSON values."""
    return _document(art, lambda table: {str(k): list(m) for k, m in enumerate(table)})


def _document(art, agraph) -> dict:
    """Every section of the document; `agraph(table)` lays out one chart table."""
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
                entry["agraph"] = agraph(graph.table)
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
                "type": surf.surface_type,
                "cycle": list(surf.self_intersections),
                "curves": list(surf.edge_ids),
            }
            for v, surf in sorted(art.surfaces.items())
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
    """`build_document(art)` as indented JSON with sorted keys, and a newline."""
    chunks = list(_iterencode(_document(art, _agraph_layout(art.group)), 0))
    chunks.append("\n")  # a chunk, so the text is not copied to add it
    return "".join(chunks)


class _Raw(str):
    """Text already laid out at its place in the document."""


def _agraph_layout(group):
    """Lays out agraph tables, all indexed by the |A| character ids, from one template."""
    ids = sorted(range(group.order), key=str)  # the document's key order
    key = "\n" + " " * (_AGRAPH_LEVEL + 1)
    val = "\n" + " " * (_AGRAPH_LEVEL + 2)
    item = ": [" + val + "%d," + val + "%d," + val + "%d" + key + "]"
    template = (
        "{" + key + ("," + key).join(_encode_str(str(k)) + item for k in ids)
        + "\n" + " " * _AGRAPH_LEVEL + "}"
    )
    if len(ids) == 1:  # `itemgetter` of one index returns the item, not a tuple
        return lambda table: _Raw(template % table[0])
    pick = itemgetter(*ids)

    def agraph(table):
        return _Raw(template % tuple(chain.from_iterable(pick(table))))

    return agraph


def _iterencode(o, level):
    """Chunks of `json.dumps(o, sort_keys=True, indent=1, ensure_ascii=False)`
    for `o` nested `level` deep; `_Raw` text is copied as it is.

    Dict keys must be strings, as they are throughout the document.
    """
    if isinstance(o, str):
        yield o if type(o) is _Raw else _encode_str(o)
    elif isinstance(o, (list, tuple)):
        if not o:
            yield "[]"
            return
        inner = "\n" + " " * (level + 1)
        close = "\n" + " " * level + "]"
        if all(type(x) is int for x in o):
            yield "[" + inner + ("," + inner).join(map(str, o)) + close
            return
        sep = "[" + inner
        for x in o:
            yield sep
            sep = "," + inner
            yield from _iterencode(x, level + 1)
        yield close
    elif isinstance(o, dict):
        if not o:
            yield "{}"
            return
        inner = "\n" + " " * (level + 1)
        sep = "{" + inner
        for k, v in sorted(o.items()):
            yield sep + _encode_str(k) + ": "
            sep = "," + inner
            yield from _iterencode(v, level + 1)
        yield "\n" + " " * level + "}"
    else:
        yield _encode_scalar(o)


def from_json(text: str) -> dict:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise InputError(f"unsupported document: not JSON ({exc})") from exc
    version = doc.get("schema_version") if isinstance(doc, dict) else None
    # `True == 1.0 == 1` in Python, so the type is checked before the value
    if type(version) is not int or version != SCHEMA_VERSION:
        raise InputError("unsupported document: wrong or missing schema_version")
    return doc
