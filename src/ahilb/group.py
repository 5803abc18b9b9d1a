"""Finite diagonal abelian subgroups of SL(3,C) and their character data.

A group element diag(eps^a1, eps^a2, eps^a3) is stored as the vector
(a1, a2, a3) scaled so that every element has denominator |A|: after
`build_group` each element is an integer triple with entries in [0, |A|).
The dual data is the rank-3 sublattice of exponent vectors fixed by the
action; characters are canonical coset representatives modulo that lattice.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd, lcm

from .errors import InputError, InvariantViolationError, ResourceLimitError
from . import intmat

# x^i y^j z^k as a plain exponent triple
Monomial = tuple[int, int, int]
Character = tuple[int, int, int]

MONO_ONE: Monomial = (0, 0, 0)

DEFAULT_MAX_ORDER = 10**6

_GEN_RE = re.compile(r"^\s*1\s*/\s*(\d+)\s*\(\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\s*\)\s*$")


@dataclass(frozen=True)
class GroupSpec:
    """Generator list; each entry is (order, (a1, a2, a3))."""

    generators: tuple[tuple[int, tuple[int, int, int]], ...]

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

    The bare string "1" denotes the trivial group.
    """
    text = text.strip()
    if text in ("1", ""):
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
    """Immutable once built; all queries are pure."""

    def __init__(self, spec, elements, order, dual_basis, lattice_basis, distinguished):
        self.spec = spec
        self.order = order
        # integer triples scaled by `order`, sorted, identity first
        self.elements = elements
        # HNF rows (upper echelon) of the invariant exponent lattice M, whose
        # pairing into Z/|A| cuts out the scaled lattice (`least_multiple`)
        self.dual_basis = dual_basis
        # HNF rows of the scaled lattice |A|*N = |A|*Z^3 + (the generators)
        self.lattice_basis = lattice_basis
        # (adj B, det B) of that basis B: p @ adj B = det B * (p in the basis B)
        self.lattice_inverse = (intmat.adjugate3(lattice_basis), intmat.det3(lattice_basis))
        self.distinguished = distinguished  # scaled generator used for labels
        self.is_cyclic = distinguished is not None
        self.scaled_generators = _scaled_generators(spec, order)
        self._char_list = None
        self._char_index = None

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

    def char_add(self, a, b) -> Character:
        return self.reduce((a[0] + b[0], a[1] + b[1], a[2] + b[2]))

    def char_sum(self, chars) -> Character:
        t = [0, 0, 0]
        for c in chars:
            t[0] += c[0]
            t[1] += c[1]
            t[2] += c[2]
        return self.reduce(t)

    def characters(self):
        """All |A| characters, cyclic groups ordered by label index."""
        if self._char_list is None:
            H = self.dual_basis
            reps = []
            for i in range(H[0][0]):
                for j in range(H[1][1]):
                    for k in range(H[2][2]):
                        reps.append(self.reduce((i, j, k)))
            reps = sorted(set(reps))
            if len(reps) != self.order:
                raise InputError("character enumeration does not match group order")
            if self.is_cyclic:
                reps.sort(key=self.char_label_index)
            self._char_list = reps
            self._char_index = {c: n for n, c in enumerate(reps)}
        return self._char_list

    def char_id(self, chi) -> int:
        self.characters()
        return self._char_index[self.reduce(chi)]

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


def build_group(spec, max_order=DEFAULT_MAX_ORDER) -> AbelianGroup:
    if isinstance(spec, str):
        spec = parse_group_spec(spec)
    spec.validate()

    L = 1
    for r, _ in spec.generators:
        L = lcm(L, r)
    bound = 1
    for r, _ in spec.generators:
        bound *= r
    if bound > max_order:
        raise ResourceLimitError(
            f"generator orders multiply to {bound}, above the cap {max_order}",
            detail={"bound": bound, "max_order": max_order},
        )

    # closure over triples scaled by the lcm of the generator orders; |A| <= bound
    gens_L = [tuple((L // r) * a for a in w) for r, w in spec.generators]
    identity = (0, 0, 0)
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens_L:
                f = ((e[0] + g[0]) % L, (e[1] + g[1]) % L, (e[2] + g[2]) % L)
                if f not in seen:
                    seen.add(f)
                    nxt.append(f)
        frontier = nxt
    order = len(seen)

    # rescale from denominator L to denominator |A| (orders divide |A|)
    elements = []
    for e in seen:
        scaled = []
        for a in e:
            num = a * order
            if num % L:
                raise InputError("element denominator does not divide the group order")
            scaled.append(num // L)
        elements.append(tuple(scaled))
    elements.sort()

    scaled = _scaled_generators(spec, order)
    dual = _invariant_lattice(scaled, order)
    lattice = _scaled_lattice(scaled, order)

    distinguished = None
    for r, w in spec.generators:
        if r == order and _element_order(tuple((order // r) * a for a in w), order) == order:
            distinguished = tuple((order // r) * a for a in w)
            break
    if distinguished is None:
        for e in elements:
            if _element_order(e, order) == order:
                distinguished = e
                break

    g = AbelianGroup(spec, elements, order, dual, lattice, distinguished)
    # index checks: |A| = [N : Z^3] = [Z^3 : M]
    d = intmat.det3(dual)
    if abs(d) != order:
        raise InputError("invariant lattice index does not equal the group order")
    g.characters()  # sealed eagerly; reads are pure and thread-safe afterwards
    return g


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


def _scaled_generators(spec, order):
    """The spec's generators as integer triples with denominator |A|."""
    return tuple(tuple((a * order) // r for a in w) for r, w in spec.generators)


def _invariant_lattice(generators, order):
    """HNF rows of {m in Z^3 : m . g == 0 mod |A| for all generators g}, the invariants."""
    gens = [g for g in generators if any(g)]
    if not gens:
        return [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    # m with gens @ m ~ 0 mod order: right-kernel of [gens | order*I]
    k = len(gens)
    rows = []
    for i in range(3 + k):
        if i < 3:
            rows.append([g[i] for g in gens])
        else:
            rows.append([order if j == i - 3 else 0 for j in range(k)])
    kern = intmat.left_kernel(rows)
    basis = [v[:3] for v in kern]
    H = intmat.hnf_rows(basis)
    if len(H) != 3:
        raise InputError("invariant lattice has rank < 3")
    return [tuple(r) for r in H]


def _scaled_lattice(generators, order):
    """HNF rows of |A|*Z^3 + (the scaled generators) inside Z^3."""
    rows = [(order, 0, 0), (0, order, 0), (0, 0, order)] + [g for g in generators if any(g)]
    H = intmat.hnf_rows(rows)
    if len(H) != 3:
        raise InvariantViolationError("scaled lattice is not of full rank")
    return [tuple(r) for r in H]


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def ratio_split(u):
    """Split an invariant vector into (positive part, negative part)."""
    a, b, c = u
    plus = (a if a > 0 else 0, b if b > 0 else 0, c if c > 0 else 0)
    minus = (-a if a < 0 else 0, -b if b < 0 else 0, -c if c < 0 else 0)
    return plus, minus
