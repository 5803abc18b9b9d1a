"""Exact toolkit for the A-Hilbert scheme of C^3 for diagonal abelian A in SL(3,C)."""

from .errors import (
    AHilbError,
    CorrespondenceError,
    InputError,
    InvariantViolationError,
    ResourceLimitError,
)
from .group import AbelianGroup, GroupSpec, build_group, parse_group_spec
from .fan import Triangulation, corner_fan, knockout, monomial_knockout, triangulate
from .charts import AGraph, ChartSet, build_agraph
from .recipe import (
    Decoration,
    VertexMark,
    corner_region_characters,
    decorate,
    quiver_embedding,
)
from .relations import (
    Relation,
    completeness_check,
    derive_relations,
)
from .cohomology import (
    CompactSurface,
    VirtualBundle,
    build_surfaces,
    build_virtual_bundles,
    duality_matrix,
    h2_basis_check,
    mckay_certificate,
    surface_star,
    virtual_bundle,
)
from .pipeline import Artifacts, RunReport, run_pipeline
from .serialize import build_document, from_json, to_json
from .render import quiver_svg, triangulation_svg

__all__ = [
    "AHilbError",
    "CorrespondenceError",
    "InputError",
    "InvariantViolationError",
    "ResourceLimitError",
    "AbelianGroup",
    "GroupSpec",
    "build_group",
    "parse_group_spec",
    "Triangulation",
    "corner_fan",
    "knockout",
    "monomial_knockout",
    "triangulate",
    "AGraph",
    "ChartSet",
    "build_agraph",
    "Decoration",
    "VertexMark",
    "corner_region_characters",
    "decorate",
    "quiver_embedding",
    "Relation",
    "completeness_check",
    "derive_relations",
    "CompactSurface",
    "VirtualBundle",
    "build_surfaces",
    "build_virtual_bundles",
    "duality_matrix",
    "h2_basis_check",
    "mckay_certificate",
    "surface_star",
    "virtual_bundle",
    "Artifacts",
    "RunReport",
    "run_pipeline",
    "build_document",
    "from_json",
    "to_json",
    "quiver_svg",
    "triangulation_svg",
]
