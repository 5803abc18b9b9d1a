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
first.  `_document` yields the top-level sections one at a time, in key
order, and takes a per-triangle record callback: `build_document` passes
one that returns the entry as plain values, `to_json` one that returns
the record as text, and the `triangles` value lays out each record only
when it is asked for.  The |A| records hold the |A|^2 entries of the
`agraph` tables, which are tuples indexed by character id in one key
order, so every record fills one template built once per document, and
each integer triple is formatted once however many tables hold it.
Every other section goes through `_iterencode`.  `to_json` appends each
section and each record to one growing string as it is laid out, with no
final join, so the text (UCS-2, for the labels' χ) is held once beside
one piece.
"""

from __future__ import annotations

import json
from functools import cache
from itertools import chain

from .errors import InputError

SCHEMA_VERSION = 1

_encode_str = json.encoder.encode_basestring
# what json.dumps(x) runs for x with its default arguments
_encode_scalar = json.JSONEncoder().encode
# depth of each triangle record: document > "triangles" > record
_RECORD_LEVEL = 2


def build_document(art) -> dict:
    """The document as plain JSON values."""
    return {key: list(value) if key == "triangles" else value
            for key, value in _document(art, _record)}


def _record(t, chart, graph) -> dict:
    """One triangle's entry; `chart` and `graph` are None in a run without charts."""
    entry = {
        "vertices": [list(v) for v in t.vertices],
        "orientation": t.orientation,
        "regular": t.regular,
    }
    if chart is not None:
        entry["chart"] = [[list(n), list(d)] for n, d in chart.coords]
        entry["agraph"] = {str(k): list(m) for k, m in enumerate(graph.table)}
        entry["socle"] = sorted(list(m) for m in graph.socle)
    return entry


def _document(art, record):
    """Every section of the document, as (key, value) pairs one at a time, in
    the document's own order: sorted by key, as `to_json` appends them.

    The `triangles` value is an iterator that lays out one record when it
    is asked for one; `record(t, chart, graph)` lays out a triangle's entry.
    """
    g = art.group
    cid = g.char_id
    T = art.triangulation

    def chars(seq):
        return [cid(c) for c in seq]

    if art.certificate is not None:
        yield "certificate", jsonable(art.certificate)
    if art.decoration is not None:
        yield "character_partition", {
            k: sorted(chars(v)) for k, v in art.decoration.partition.items()
        }
    if art.duality is not None:  # the duality stage passed: the b4 x b4 identity
        n = art.duality
        yield "duality_matrix", [[int(i == j) for j in range(n)] for i in range(n)]
    if T is not None:
        yield "edges", [
            {
                "a": list(e.a),
                "b": list(e.b),
                "line": e.line,
                "interior": e.interior,
                "triangles": list(e.triangles),
            }
            for e in T.edges
        ]
    yield "group", {
        "order": g.order,
        "cyclic": g.is_cyclic,
        "generators": [[r, list(w)] for r, w in g.spec.generators],
        "elements": [list(e) for e in g.elements],
        "characters": [
            {"id": cid(c), "exps": list(c), "label": g.char_label(c)}
            for c in g.characters()
        ],
    }
    if art.h2 is not None:
        yield "h2_basis", dict(art.h2)
    if T is not None:
        yield "lines", [
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
        yield "points", [list(p) for p in T.points]
    if art.quiver is not None:
        yield "quiver", {
            "chart": art.quiver.chart,
            "placements": {
                str(cid(c)): list(m) for c, m in sorted(art.quiver.placements.items())
            },
        }
    if T is not None:
        yield "regular_triangles", [
            {
                "vertices": [list(v) for v in reg.vertices],
                "side": reg.side,
                "kind": reg.kind,
                "corner": reg.corner,
            }
            for reg in T.regular_triangles
        ]
    if art.relations is not None:
        yield "relations", [
            {
                "vertex": list(r.vertex),
                "case": r.case,
                "lhs": chars(r.lhs),
                "rhs": chars(r.rhs),
            }
            for r in art.relations
        ]
    if art.report is not None:
        yield "report", {
            "spec": art.report.spec,
            "counts": dict(art.report.counts),
            "checks": {
                name: {"status": entry["status"], "detail": jsonable(entry["detail"])}
                for name, entry in sorted(art.report.checks.items())
            },
            "failure": jsonable(art.report.failure),
        }
    yield "schema_version", SCHEMA_VERSION
    yield "spec", art.spec_text
    if art.surfaces is not None:
        yield "surfaces", [
            {
                "vertex": list(v),
                "type": surf.surface_type,
                "cycle": list(surf.self_intersections),
                "curves": list(surf.edge_ids),
            }
            for v, surf in sorted(art.surfaces.items())
        ]
    if T is not None:
        C = art.charts
        yield "triangles", (
            record(t, C.charts[ti], C.agraphs[ti]) if C is not None else record(t, None, None)
            for ti, t in enumerate(T.triangles)
        )
    if art.decoration is not None:
        yield "vertex_marks", [
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
    if art.bundles is not None:
        yield "virtual_bundles", [
            {
                "index": cid(b.index),
                "vertex": list(b.vertex),
                "plus": chars(b.plus),
                "minus": chars(b.minus),
            }
            for b in art.bundles
        ]


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
    """`build_document(art)` as indented JSON with sorted keys, and a newline.

    The text grows in one local string: each section but the triangle
    records is laid out and appended, and each record is appended as it is
    laid out and then dropped, so nothing laid out is kept beside the text.
    This relies on CPython resizing a local `str` that has no other
    reference in place on `+=` (it copies only when a piece is wider than
    the text: once, at the `group` labels' χ, while the text is short), so
    the text is held once, at 2 bytes a character, plus one piece.  The
    text is still returned whole: library callers use it, and
    `perfbench/tracer.py` counts its bytes where it wraps `cli.to_json`,
    so streaming it to the file waits on a serialization span that does
    not need the text in hand.
    """
    text = ""
    sep = "{\n "
    for key, value in _document(art, _record_layout(art)):
        text += sep + _encode_str(key) + ": "
        sep = ",\n "
        if key == "triangles":  # never empty: the simplex is one triangle at least
            record_sep = "[\n  "
            for record in value:
                text += record_sep
                text += record
                record_sep = ",\n  "
            text += "\n ]"
        else:
            text += _layout(value, 1)
        del value  # freed before the next section is built
    text += "\n}\n"
    return text


class _Raw:
    """Text already laid out at its place in the document."""

    __slots__ = ("text",)

    def __init__(self, text):
        self.text = text


def _layout(o, level):
    """The text of `o` nested `level` deep, as `_iterencode` lays it out."""
    return "".join(_iterencode(o, level))


def _record_layout(art):
    """Lays out each triangle record as one string, from one template per document.

    Every agraph table is indexed by the |A| character ids and every chart
    has three coordinates, so one template with a `%s` slot per value fits
    every record.  Each integer triple is formatted once, however many
    tables hold it: 2,738 distinct generators fill the 160,801 entries at
    |A| = 401.
    """
    level = _RECORD_LEVEL
    slot = _Raw("%s")
    vec = cache(_layout([_Raw("%d")] * 3, level + 2).__mod__)  # a generator, point or socle entry
    deep = cache(_layout([_Raw("%d")] * 3, level + 3).__mod__)  # a chart coordinate's monomial
    fields = {"orientation": slot, "regular": slot, "vertices": [slot] * 3}
    if art.charts is not None:
        ids = sorted(range(art.group.order), key=str)  # the document's key order
        fields.update(agraph={str(k): slot for k in ids}, chart=[[slot] * 2] * 3, socle=slot)
    template = _layout(fields, level)

    def record(t, chart, graph):
        head = socle = ()
        if chart is not None:
            head = (*map(vec, map(graph.table.__getitem__, ids)),
                    *map(deep, chain.from_iterable(chart.coords)))
            socle = (_layout([_Raw(vec(m)) for m in sorted(graph.socle)], level + 1),)
        return template % (
            *head, _encode_str(t.orientation), _encode_scalar(t.regular), *socle,
            *map(vec, t.vertices),
        )

    return record


def _iterencode(o, level):
    """Chunks of `json.dumps(o, sort_keys=True, indent=1, ensure_ascii=False)`
    for `o` nested `level` deep; `_Raw` text is copied as it is.

    Dict keys must be strings, as they are throughout the document.
    """
    if type(o) is _Raw:
        yield o.text
    elif isinstance(o, str):
        yield _encode_str(o)
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
