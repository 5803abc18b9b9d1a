"""Deterministic JSON documents for every artifact.

Characters are serialized once in a `characters` table carrying the
reduced exponent triple and display label; every other reference is the
integer id from that table (for cyclic groups the id equals the label
index, so a relation prints as e.g. lhs [4], rhs [2, 2]).  Output is
byte-stable: fixed key order, no timestamps, no timings.

The layout is that of `json.dumps(doc, sort_keys=True, indent=1,
ensure_ascii=False)` plus a final newline, where `doc` is
`build_document(art)`; that expression is the reference `to_json` is
tested against.  `_document` yields the top-level sections one at a time,
in key order, as plain values for `build_document` or as text for
`to_json`, which never builds `doc`.

`json.dumps` with `indent` runs CPython's pure-Python encoder, so
`to_json` calls it only for the small dict sections (`certificate`,
`character_partition`, `h2_basis`, `report`) and to lay out each record
shape once as a template, with a sentinel in each slot.  Every other list
section, and the lists in `group`, fills its template once per record with
one `%`, straight from the artifact objects; variable-length lists and
dicts are joined by `_join`.  The |A| triangle records hold the |A|^2
`agraph` entries in one key order, so one template fits them all.  The
records are laid out as the chart walk's tables are replayed
(`ChartSet.agraphs.replayed`): each takes its slot texts from the record
of the neighbour its table was rebuilt from, and formats again only the
ids in the crossed edge's degree column, the generators that moved.  The
duality section, always the b4 x b4 identity, is written as rows of
zeros with one 1.  `to_json` appends each section and each record to one
growing string as it is laid out, with no final join, so the text
(UCS-2, for the labels' χ) is held once beside one piece; the sections
after `triangles` are laid out before the first record, while the text
is short.
"""

from __future__ import annotations

import json
from functools import cache
from itertools import chain

from .errors import InputError

SCHEMA_VERSION = 1

_encode_str = json.encoder.encode_basestring
# depth of each triangle record: document > "triangles" > record
_RECORD_LEVEL = 2
# a template's slots: the text of `_S` becomes `%s`, that of `_I` `%d`
_S, _I = "\0", "\1"
_V = [_I] * 3  # a lattice point, exponent triple or monomial


def build_document(art) -> dict:
    """The document as plain JSON values."""
    doc = dict(_document(art))
    if "triangles" in doc:
        doc["triangles"] = list(doc["triangles"])
    if "duality_matrix" in doc:  # the b4 x b4 identity
        n = doc["duality_matrix"]
        doc["duality_matrix"] = [[int(i == j) for j in range(n)] for i in range(n)]
    return doc


def _record(t, coords, graph) -> dict:
    """One triangle's entry.

    `coords` is the triangle's row of `ChartSet.coords` and `graph` its
    AGraph; both are None in a run without charts.
    """
    entry = {
        "vertices": [list(v) for v in t.vertices],
        "orientation": t.orientation,
        "regular": t.regular,
    }
    if coords is not None:
        entry["chart"] = [[list(n), list(d)] for n, d in coords]
        entry["agraph"] = {str(k): list(m) for k, m in enumerate(graph.table)}
        entry["socle"] = sorted(list(m) for m in graph.socle)
    return entry


def _document(art, text=False):
    """Every section of the document, as (key, value) pairs one at a time, in
    the document's own order: sorted by key, as `to_json` appends them.

    Each value is the section's plain JSON value, or with `text` its layout
    one level deep, except two: `duality_matrix` is b4, the size of the
    identity, and `triangles` is an iterator that lays out one record when
    it is asked for one.  A list section gives its records both ways: the
    plain value (the reference), and a template's fields with the row that
    fills them, read straight off the artifact objects.
    """
    g = art.group
    cid = cache(g.char_id)  # reduces each character once
    T = art.triangulation
    scalar = _scalar if text else (lambda v: v)

    def chars(seq):
        return [cid(c) for c in seq]

    def ids(seq):  # `chars` laid out as a record's field
        return _ints(map(cid, seq), 3)

    def rows(items, plain, fields, row, level=1):
        """The list of `items`, each as its `plain` value or as `fields` filled
        with its `row`: the slots' values in key order, an int for each `_I`
        and a text for each `_S`."""
        if not text:
            return [plain(x) for x in items]
        return _join(map(_template(fields, level + 1).__mod__, map(row, items)), level)

    def obj(d, level=1):  # a dict whose values are in this mode's form already
        return _object(d.items(), level) if text else d

    def dumped(d):  # a small dict section, laid out by `json.dumps`
        return _layout(d, 1) if text else d

    if art.certificate is not None:
        yield "certificate", dumped(jsonable(art.certificate))
    if art.decoration is not None:
        yield "character_partition", dumped({
            k: sorted(chars(v)) for k, v in art.decoration.partition.items()
        })
    if art.duality is not None:  # the duality stage passed: the b4 x b4 identity
        yield "duality_matrix", art.duality
    if T is not None:
        yield "edges", rows(
            T.edges,
            lambda e: {"a": list(e.a), "b": list(e.b), "line": e.line,
                       "interior": e.interior, "triangles": list(e.triangles)},
            {"a": _V, "b": _V, "interior": _S, "line": _I, "triangles": _S},
            lambda e: (*e.a, *e.b, _scalar(e.interior), e.line, _ints(e.triangles, 3)),
        )
    yield "group", obj({
        "order": scalar(g.order),
        "cyclic": scalar(g.is_cyclic),
        "generators": rows(g.spec.generators, lambda rw: [rw[0], list(rw[1])],
                           [_I, _V], lambda rw: (rw[0], *rw[1]), 2),
        "elements": rows(g.elements, list, _V, tuple, 2),
        "characters": rows(
            g.characters(),
            lambda c: {"id": cid(c), "exps": list(c), "label": g.char_label(c)},
            {"exps": _V, "id": _I, "label": _S},
            lambda c: (*c, cid(c), _encode_str(g.char_label(c))),
            2,
        ),
    })
    if art.h2 is not None:
        yield "h2_basis", dumped(dict(art.h2))
    if T is not None:
        yield "lines", rows(
            T.lines,
            lambda ln: {
                "ratio": [list(ln.plus), list(ln.minus)],
                "character": cid(ln.character),
                "kind": ln.kind,
                "corner": ln.corner,
                "strength": ln.strength,
                "final_strength": ln.final_strength,
                "segment": [list(ln.endpoints[0]), list(ln.endpoints[1])],
                "edges": list(ln.edges),
            },
            {"character": _I, "corner": _S, "edges": _S, "final_strength": _S, "kind": _S,
             "ratio": [_V, _V], "segment": [_V, _V], "strength": _S},
            lambda ln: (cid(ln.character), _scalar(ln.corner), _ints(ln.edges, 3),
                        _scalar(ln.final_strength), _encode_str(ln.kind), *ln.plus, *ln.minus,
                        *chain(*ln.endpoints), _scalar(ln.strength)),
        )
        yield "points", rows(T.points, list, _V, tuple)
    if art.quiver is not None:
        yield "quiver", obj({
            "chart": scalar(art.quiver.chart),
            "placements": obj({
                str(cid(c)): _vec(3) % m if text else list(m)
                for c, m in art.quiver.placements.items()
            }, 2),
        })
    if T is not None:
        yield "regular_triangles", rows(
            T.regular_triangles,
            lambda reg: {"vertices": [list(v) for v in reg.vertices], "side": reg.side,
                         "kind": reg.kind, "corner": reg.corner},
            {"corner": _S, "kind": _S, "side": _I, "vertices": [_V] * 3},
            lambda reg: (_scalar(reg.corner), _encode_str(reg.kind), reg.side,
                         *chain(*reg.vertices)),
        )
    if art.relations is not None:
        yield "relations", rows(
            art.relations,
            lambda r: {"vertex": list(r.vertex), "case": r.case,
                       "lhs": chars(r.lhs), "rhs": chars(r.rhs)},
            {"case": _I, "lhs": _S, "rhs": _S, "vertex": _V},
            lambda r: (r.case, ids(r.lhs), ids(r.rhs), *r.vertex),
        )
    if art.report is not None:
        yield "report", dumped({
            "spec": art.report.spec,
            "counts": dict(art.report.counts),
            "checks": {
                name: {"status": entry["status"], "detail": jsonable(entry["detail"])}
                for name, entry in sorted(art.report.checks.items())
            },
            "failure": jsonable(art.report.failure),
        })
    yield "schema_version", scalar(SCHEMA_VERSION)
    yield "spec", scalar(art.spec_text)
    if art.surfaces is not None:
        yield "surfaces", rows(
            map(art.surfaces.get, sorted(art.surfaces)),
            lambda surf: {
                "vertex": list(surf.vertex),
                "type": surf.surface_type,
                "cycle": list(surf.self_intersections),
                "curves": list(surf.edge_ids),
            },
            {"curves": _S, "cycle": _S, "type": _S, "vertex": _V},
            lambda surf: (_ints(surf.edge_ids, 3), _ints(surf.self_intersections, 3),
                          _encode_str(surf.surface_type), *surf.vertex),
        )
    if T is not None:
        C = art.charts
        if text:
            records = _record_layout(art)
        elif C is not None:
            records = map(_record, T.triangles, C.coords, C.agraphs)
        else:
            records = (_record(t, None, None) for t in T.triangles)
        yield "triangles", records
    if art.decoration is not None:
        marks = art.decoration.vertex_marks
        yield "vertex_marks", rows(
            map(marks.get, sorted(marks)),
            lambda vm: {
                "vertex": list(vm.vertex),
                "valency": vm.valency,
                "case": vm.case_number,
                "surface": vm.case,
                "marks": chars(vm.marks),
                "through": {str(cid(c)): list(eis) for c, eis in sorted(vm.through.items())},
            },
            {"case": _I, "marks": _S, "surface": _S, "through": _S, "valency": _I, "vertex": _V},
            lambda vm: (vm.case_number, ids(vm.marks), _encode_str(vm.case),
                        _object(((str(cid(c)), _ints(eis, 4)) for c, eis in vm.through.items()), 3),
                        vm.valency, *vm.vertex),
        )
    if art.bundles is not None:
        yield "virtual_bundles", rows(
            art.bundles,
            lambda b: {"index": cid(b.index), "vertex": list(b.vertex),
                       "plus": chars(b.plus), "minus": chars(b.minus)},
            {"index": _I, "minus": _S, "plus": _S, "vertex": _V},
            lambda b: (cid(b.index), ids(b.minus), ids(b.plus), *b.vertex),
        )


def jsonable(obj):
    """Recursively coerce tuples and non-string keys for stable JSON."""
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    if isinstance(obj, (list, tuple)):
        return [jsonable(x) for x in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(jsonable(x) for x in obj)
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    return str(obj)


def to_json(art) -> str:
    """`build_document(art)` as indented JSON with sorted keys, and a newline.

    The text grows in one local string: each section and each triangle
    record is appended as it is laid out and then dropped.  CPython resizes
    a local `str` that has no other reference in place on `+=` (it copies
    only when a piece is wider than the text: once, at the `group` labels'
    χ, while the text is short), so the text is held once, at 2 bytes a
    character, plus one piece.  The sections after `triangles` are laid out
    before the first record, beside the short text, and appended after the
    last.  The text is still returned whole: library callers use it, and
    `perfbench/tracer.py` counts its bytes where it wraps `cli.to_json`,
    so streaming it to the file waits on a serialization span that does
    not need the text in hand.
    """
    text = tail = ""
    sep = "{\n "
    sections = _document(art, text=True)
    for key, value in sections:
        text += sep + _encode_str(key) + ": "
        sep = ",\n "
        if key == "triangles":  # never empty: the simplex is one triangle at least
            tail = "".join(sep + _encode_str(k) + ": " + v for k, v in sections)
            record_sep = "[\n  "
            for record in value:
                text += record_sep
                text += record
                record_sep = ",\n  "
            text += "\n ]"
        elif key == "duality_matrix":
            text += _identity_layout(value, 1)
        else:
            text += value
        del value  # freed before the next section is built
    text += tail  # once the records and the template's caches are freed
    text += "\n}\n"
    return text


def _layout(o, level):
    """The text of `o` nested `level` deep.

    JSON escapes a newline inside a string, so every newline in the text
    is layout, and shifting it shifts the whole value.
    """
    text = json.dumps(o, sort_keys=True, indent=1, ensure_ascii=False)
    return text.replace("\n", "\n" + " " * level)


def _identity_layout(n, level):
    """`_layout` of the n x n identity matrix: `_join`'s row of n zeros, laid
    out once, with its i-th 0 made 1 in row i."""
    zeros = _join(["0"] * n, level + 1)
    return _join((zeros[:p] + "1" + zeros[p + 1 :] for p, c in enumerate(zeros) if c == "0"), level)


def _template(value, level):
    """`_layout(value, level)` with each `_S` slot's text made `%s` and each `_I` slot's `%d`."""
    return _layout(value, level).replace(_encode_str(_S), "%s").replace(_encode_str(_I), "%d")


@cache
def _vec(level):
    """The template of an integer triple nested `level` deep."""
    return _template(_V, level)


def _join(texts, level, brackets="[]"):
    """`_layout` of a list of laid-out `texts`, or with `brackets` "{}" of a
    dict of `"key": value` texts, nested `level` deep."""
    inner = "\n" + " " * (level + 1)
    body = ("," + inner).join(texts)
    return f"{brackets[0]}{inner}{body}\n{' ' * level}{brackets[1]}" if body else brackets


def _ints(xs, level):
    return _join(map(str, xs), level)


def _object(items, level):
    """`_layout` of a dict, from its (key, laid-out value) pairs."""
    return _join((f"{_encode_str(k)}: {v}" for k, v in sorted(items)), level, "{}")


def _scalar(x):
    """The JSON text of a str, bool, None or int."""
    if isinstance(x, str):
        return _encode_str(x)
    return "null" if x is None else "true" if x is True else "false" if x is False else int.__repr__(x)


def _record_layout(art):
    """Each triangle record as one string, in triangle order, from one template per document.

    Every agraph table is indexed by the |A| character ids and every chart
    has three coordinates, so one template fits every record; the socle
    gets one template per length.  The template is cut at its slots, and a
    record is the join of its pieces with the slot texts between them.
    Each integer triple is formatted once, however many tables hold it:
    2,738 distinct generators fill the 160,801 entries at |A| = 401.

    The records are laid out in the same pass that replays the tables
    (`_AGraphs.replayed`).  A table rebuilt from a neighbour's differs from
    it exactly at the ids in the crossed edge's degree column, so its
    record copies that neighbour's agraph slot texts and formats only those
    ids again (19,672 of the 160,801 entries at |A| = 401); a table with no
    earlier neighbour fills all |A|.  The slot texts are kept, in the
    document's key order, only while a later table is still to be rebuilt
    from theirs.  The socle is read off the table at `ChartSet.socle_ids`,
    with no set built.
    """
    T, C = art.triangulation, art.charts
    level = _RECORD_LEVEL
    vec = cache(_vec(level + 2).__mod__)  # a generator, point or socle entry
    fields = {"orientation": _S, "regular": _S, "vertices": [_S] * 3}
    if C is not None:
        n = art.group.order
        ids = sorted(range(n), key=str)  # the document's key order
        fields.update(agraph={str(k): _S for k in ids}, chart=[[_S] * 2] * 3, socle=_S)
    cut = _template(fields, level).split("%s")
    parts = [None] * (2 * len(cut) - 1)  # the template's pieces, and a slot between each two
    parts[::2] = cut
    if C is None:
        for t in T.triangles:
            parts[1::2] = (_encode_str(t.orientation), str(t.regular), *map(vec, t.vertices))
            yield "".join(parts)
        return
    deep = cache(_vec(level + 3).__mod__)  # a chart coordinate's monomial
    socle_of_length = cache(lambda n: _template([_S] * n, level + 1))
    at = [0] * n  # where character k's text goes among the agraph slot texts
    for i, k in enumerate(ids):
        at[k] = i
    tris, coords, socle_ids = T.triangles, C.coords, C.socle_ids

    def fill(ti, table, prev, column):
        """Lays triangle ti's record out in `parts`; returns its agraph slot texts."""
        if prev is None:
            texts, moved = [None] * n, range(n)
        else:
            texts, moved = prev.copy(), column
        for k in moved:
            texts[at[k]] = vec(table[k])
        t = tris[ti]
        socle = sorted(map(table.__getitem__, socle_ids[ti]))
        parts[1:2 * n:2] = texts
        parts[2 * n + 1::2] = (
            *map(deep, chain.from_iterable(coords[ti])),
            _encode_str(t.orientation),
            str(t.regular),
            socle_of_length(len(socle)) % tuple(map(vec, socle)),
            *map(vec, t.vertices),
        )
        return texts

    for _ in C.agraphs.replayed(fill):
        yield "".join(parts)


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
