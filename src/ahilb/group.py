"""Finite diagonal abelian subgroups of SL(3,C) and their character data.

A group element diag(eps^a1, eps^a2, eps^a3) is stored as the vector
(a1, a2, a3) scaled so that every element has denominator |A|: after
`build_group` each element is an integer triple with entries in [0, |A|).

Everything is read off Hermite normal forms of lattices in Z^3.  The order
is |A| = L^3 / det(L*N), with N = Z^3 + (the generators) and L the lcm of
the declared orders.  The scaled lattice |A|*N has an HNF basis B with
det B = |A|^2, and the elements are the box of its pivots mod |A|.  The
invariant exponent lattice M, the monomials fixed by the action, is dual to
|A|*N under the pairing into Z/|A| (Fulton, Introduction to Toric
Varieties, 2.1): M = |A|*B^-T Z^3, the columns of adj B over |A|.  The
characters are canonical coset representatives modulo M, the box of the
pivots of M's HNF.
"""

from __future__ import annotations

import itertools
import re
from math import gcd, lcm, prod

from .errors import InputError, InvariantViolationError, ResourceLimitError
from . import intmat
from .record import Record

# x^i y^j z^k as a plain exponent triple
Monomial = tuple[int, int, int]
Character = tuple[int, int, int]

MONO_ONE: Monomial = (0, 0, 0)

DEFAULT_MAX_ORDER = 10**6

_GEN_RE = re.compile(r"^\s*1\s*/\s*(\d+)\s*\(\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\s*\)\s*$")


class GroupSpec(Record):
    """Generator list; each entry is (order, (a1, a2, a3)).  Immutable and hashable."""

    __slots__ = ("generators",)

    def __init__(self, generators):
        object.__setattr__(self, "generators", generators)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a GroupSpec")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a GroupSpec")

    def __hash__(self):
        return hash((self.generators,))

    def validate(self):
        for order, w in self.generators:
            if order < 1:
                raise InputError(f"generator order must be positive, got {order}")
            if any(a < 0 or a >= order for a in w):
                raise InputError(
                    f"weights {w} out of range for order {order} (need 0 <= a < r)"
                )
            if sum(w) % order != 0:
                raise InputError(
                    f"1/{order}{w} violates the determinant-1 condition: "
                    f"{w[0]}+{w[1]}+{w[2]} = {sum(w)} is not 0 mod {order}",
                    detail={"generator": [order, list(w)]},
                )

    def text(self):
        if not self.generators:
            return "1"
        return ";".join(f"1/{r}({a},{b},{c})" for r, (a, b, c) in self.generators)


def parse_group_spec(text: str) -> GroupSpec:
    """Parse `1/r(a,b,c)` or a semicolon-separated product of such factors.

    The bare string "1" denotes the trivial group; a blank one is a factor
    that does not parse, like any other.
    """
    text = text.strip()
    if text == "1":
        return GroupSpec(())
    gens = []
    for part in text.split(";"):
        m = _GEN_RE.match(part)
        if not m:
            raise InputError(f"cannot parse group factor {part!r}; expected 1/r(a,b,c)")
        try:
            r, *w = map(int, m.groups())
        except ValueError as exc:  # more digits than `int` converts
            raise InputError(f"cannot parse group factor: {exc}") from exc
        gens.append((r, tuple(w)))
    spec = GroupSpec(tuple(gens))
    spec.validate()
    return spec


class AbelianGroup:
    """Immutable once built; all queries are pure.

    Every lattice of the group is read off one HNF, that of the scaled
    lattice |A|*N (`build_group` finds |A| first).
    """

    def __init__(self, spec, order):
        self.spec = spec
        self.order = order
        self.scaled_generators = _scaled_generators(spec, order)
        # HNF rows (upper echelon) of the scaled lattice |A|*N = |A|*Z^3 + (the generators)
        B = _scaled_lattice(self.scaled_generators, order)
        # (adj B, det B): p @ adj B = det B * (p in the basis B), and det B = |A|^2
        self.lattice_inverse = (intmat.adjugate3(B), intmat.det3(B))
        # the box of B's pivots mod |A|: integer triples scaled by `order`, sorted, identity first
        self.elements = _pivot_box(B, order)
        # HNF rows of the invariant exponent lattice M = |A|*B^-T Z^3, whose
        # pairing into Z/|A| cuts out the scaled lattice (`least_multiple`)
        self.dual_basis = H = _invariant_lattice(self.lattice_inverse[0], order)
        d = intmat.det3(H)
        if abs(d) != order:  # |A| = [N : Z^3] = [Z^3 : M]
            raise InputError("invariant lattice index does not equal the group order",
                             detail={"order": order, "det": d})
        self.distinguished = _distinguished(spec, self.scaled_generators, self.elements, order)
        self.is_cyclic = self.distinguished is not None
        # the box of M's pivots: each point is its own `reduce`, so these are the |A| characters
        chars = list(itertools.product(range(H[0][0]), range(H[1][1]), range(H[2][2])))
        if self.is_cyclic:
            chars.sort(key=self.char_label_index)
        self._char_list = chars
        self._char_index = {c: n for n, c in enumerate(chars)}
        self._char_ids = tuple(self._char_index.values())

    # -- element-level queries ------------------------------------------------

    def age(self, element):
        s = sum(element)
        if s % self.order:
            raise InputError(f"{element} is not an element of the group")
        return s // self.order

    def junior_points(self):
        """Lattice points of the junior simplex other than its corners.

        Scaled coordinates: triples summing to |A| (the age-1 elements)."""
        return [e for e in self.elements if sum(e) == self.order]

    def age_counts(self):
        counts = {0: 0, 1: 0, 2: 0}
        for e in self.elements:
            counts[self.age(e)] += 1
        return counts

    # -- characters -------------------------------------------------------------

    def reduce(self, exponents) -> Character:
        """Canonical representative of an exponent triple modulo invariants.

        The row reduction by the HNF rows of `dual_basis` is unrolled: row i
        brings coordinate i into [0, pivot) and is subtracted whole, its
        zero below-diagonal entries included.
        """
        a, b, c = exponents
        (h00, h01, h02), (h10, h11, h12), (h20, h21, h22) = self.dual_basis
        q = a // h00
        a, b, c = a - q * h00, b - q * h01, c - q * h02
        q = b // h11
        a, b, c = a - q * h10, b - q * h11, c - q * h12
        q = c // h22
        return (a - q * h20, b - q * h21, c - q * h22)

    def weight(self, monomial) -> Character:
        return self.reduce(monomial)

    def is_invariant(self, exponents):
        return self.reduce(exponents) == MONO_ONE

    def char_sum(self, chars) -> Character:
        t = [0, 0, 0]
        for c in chars:
            t[0] += c[0]
            t[1] += c[1]
            t[2] += c[2]
        return self.reduce(t)

    def characters(self):
        """All |A| characters, cyclic groups ordered by label index."""
        return self._char_list

    def char_id(self, chi) -> int:
        return self._char_index[self.reduce(chi)]

    def char_ids(self):
        """The |A| character ids 0, ..., |A| - 1, one shared int object each.

        `char_id` returns these same objects; the degree table's columns key
        their entries by them, so no entry holds an int of its own.
        """
        return self._char_ids

    def char_label_index(self, chi):
        if not self.is_cyclic:
            raise InputError("label indices are defined for cyclic groups only")
        return intmat.vec_dot(chi, self.distinguished) % self.order

    def char_label(self, chi) -> str:
        chi = self.reduce(chi)
        if self.is_cyclic:
            return f"χ{self.char_label_index(chi)}"
        return "χ(" + ",".join(str(x) for x in chi) + ")"

    def __repr__(self):
        return f"AbelianGroup({self.spec.text()!r}, order={self.order})"


def check_spec(spec, max_order=DEFAULT_MAX_ORDER):
    """Raise unless `spec` is valid and its declared orders multiply to at most `max_order`.

    The product bounds |A|, so a run can refuse a group before it builds
    or loads anything for it.
    """
    spec.validate()
    bound = prod(r for r, _ in spec.generators)
    if bound > max_order:
        raise ResourceLimitError(
            f"generator orders multiply to {bound}, above the cap {max_order}",
            detail={"bound": bound, "max_order": max_order},
        )


def build_group(spec, max_order=DEFAULT_MAX_ORDER) -> AbelianGroup:
    if isinstance(spec, str):
        spec = parse_group_spec(spec)
    check_spec(spec, max_order)
    # |A| = [N : Z^3] = L^3 / det(L*N), at the lcm L of the declared orders;
    # a generator's true order may be a proper divisor of its declared one,
    # so L need not divide |A| and the group's own lattice is built anew
    L = lcm(*(r for r, _ in spec.generators))
    order = L**3 // intmat.det3(_scaled_lattice(_scaled_generators(spec, L), L))
    return AbelianGroup(spec, order)


def least_multiple(order, v, rows):
    """Least k >= 1 with k*v . h == 0 mod `order` for every row h.

    Against the scaled generators that is membership in the invariant lattice
    M; against `dual_basis`, in the scaled lattice |A|*N: the two are dual
    under the pairing into Z/|A| (Fulton, Introduction to Toric Varieties, 2.1).
    """
    return order // gcd(order, *[intmat.vec_dot(v, h) for h in rows])


def _element_order(e, order):
    g = gcd(gcd(e[0], e[1]), gcd(e[2], order))
    return order // gcd(g, order)


def _distinguished(spec, scaled, elements, order):
    """The label generator: the first spec generator of full declared and true
    order, else the least element of order |A|; None for a non-cyclic group."""
    full = [s for (r, _), s in zip(spec.generators, scaled) if r == order]
    candidates = itertools.chain(full, elements)
    return next((e for e in candidates if _element_order(e, order) == order), None)


def _scaled_generators(spec, order):
    """The spec's generators as integer triples with denominator `order`."""
    return tuple(tuple((a * order) // r for a in w) for r, w in spec.generators)


def _scaled_lattice(generators, order):
    """HNF rows of order*Z^3 + (the scaled generators) inside Z^3; rank 3 by its first rows."""
    rows = [(order, 0, 0), (0, order, 0), (0, 0, order)] + [g for g in generators if any(g)]
    return [tuple(r) for r in intmat.hnf_rows(rows)]


def _pivot_box(B, order):
    """The |A| points i*b0 + j*b1 + k*b2 mod |A|, 0 <= i < |A|/d0 and so on, sorted.

    Each pivot d divides |A|, since |A|*e_i lies in the lattice, and two
    distinct box points differ by a lattice vector outside |A|*Z^3, so the
    box is the group.
    """
    (d0, b01, b02), (_, d1, b12), (_, _, d2) = B
    return sorted(
        (i * d0, (i * b01 + j * d1) % order, (i * b02 + j * b12 + k * d2) % order)
        for i in range(order // d0)
        for j in range(order // d1)
        for k in range(order // d2)
    )


def _invariant_lattice(adj, order):
    """HNF rows of M = |A|*B^-T Z^3 = adj(B) Z^3 / |A|, from adj B (det B = |A|^2).

    M is {m : B m == 0 mod |A|}, spanned by the columns of adj B over |A|.
    """
    cols = list(zip(*adj))
    inexact = [list(c) for c in cols if any(x % order for x in c)]
    if inexact:
        raise InvariantViolationError(
            "adjugate of the scaled lattice is not divisible by the group order",
            detail={"order": order, "columns": inexact},
        )
    return [tuple(r) for r in intmat.hnf_rows([[x // order for x in c] for c in cols])]


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def ratio_split(u):
    """Split an invariant vector into (positive part, negative part)."""
    a, b, c = u
    plus = (a if a > 0 else 0, b if b > 0 else 0, c if c > 0 else 0)
    minus = (-a if a < 0 else 0, -b if b < 0 else 0, -c if c < 0 else 0)
    return plus, minus
