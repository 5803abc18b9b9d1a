"""Exact toolkit for the A-Hilbert scheme of C^3 for diagonal abelian A in SL(3,C).

`import ahilb` loads none of its modules: each name of `__all__` is bound
from its home module on first use (PEP 562 `__getattr__`), so a fresh
process compiles only the stages a run reaches.  `pipeline` and `cli` bind
their late stages and views the same way, through `_bind`.
"""

from importlib import import_module


def _bind(namespace, homes):
    """Set every name of `homes` (home module -> names) in `namespace`,
    from that module of this package, unless `namespace` holds it already.

    A name set first, as a patch does by `getattr` and then `setattr`, is
    kept, so the caller that reads the global calls the patch.
    """
    for home, names in homes.items():
        module = import_module(f"{__name__}.{home}")
        for name in names:
            namespace.setdefault(name, getattr(module, name))


def _getattr_from(namespace, homes):
    """A module `__getattr__` that binds a name of `homes` on first use."""
    home_of = {name: home for home, names in homes.items() for name in names}

    def __getattr__(name):
        home = home_of.get(name)
        if home is None:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        _bind(namespace, {home: homes[home]})
        return namespace[name]

    return __getattr__


_HOMES = {
    "errors": ("AHilbError", "CorrespondenceError", "InputError", "InvariantViolationError",
               "ResourceLimitError"),
    "group": ("AbelianGroup", "GroupSpec", "build_group", "parse_group_spec"),
    "fan": ("Triangulation", "corner_fan", "knockout", "monomial_knockout", "triangulate"),
    "charts": ("AGraph", "ChartSet", "build_agraph"),
    "recipe": ("Decoration", "VertexMark", "corner_region_characters", "decorate",
               "quiver_embedding"),
    "relations": ("Relation", "completeness_check", "derive_relations"),
    "cohomology": ("CompactSurface", "VirtualBundle", "build_surfaces", "build_virtual_bundles",
                   "duality_matrix", "h2_basis_check", "mckay_certificate", "surface_star",
                   "virtual_bundle"),
    "pipeline": ("Artifacts", "RunReport", "run_pipeline"),
    "serialize": ("build_document", "from_json", "to_json"),
    "render": ("quiver_svg", "triangulation_svg"),
}

__all__ = [name for names in _HOMES.values() for name in names]

__getattr__ = _getattr_from(globals(), _HOMES)


def __dir__():
    return sorted({*globals(), *__all__})
