"""Exact integer lattice arithmetic.

Small dense matrices only (at most a few hundred rows), so everything is
plain Python ints: no overflow, no epsilon.  Conventions:

* matrices are lists of row tuples/lists,
* lattices are given by their basis rows,
* a "primitive" vector is one that is not a proper integer multiple of
  another lattice vector.

The vector kernels take vectors of any length: exponent and simplex
triples, plane 2-vectors and n-vectors of pairings.  A sweep of small groups
calls them hundreds of thousands of times, so the per-coordinate work runs
in C: `map` over an `operator` function, `sum` of a `map`, `gcd(*v)`.
Where each coordinate needs a Python expression, a list comprehension builds
the tuple; a generator expression would resume its frame once per coordinate.
"""

from __future__ import annotations

from math import gcd
from operator import add, mul, neg, sub


def vec_add(a, b):
    return tuple(map(add, a, b))


def vec_sub(a, b):
    return tuple(map(sub, a, b))


def vec_neg(a):
    return tuple(map(neg, a))


def vec_scale(k, a):
    return tuple([k * x for x in a])


def vec_dot(a, b):
    return sum(map(mul, a, b))


def content(v):
    """gcd of the entries (0 for the zero vector)."""
    return gcd(*v)


def primitive(v):
    g = content(v)
    if g == 0:
        raise ValueError("zero vector has no primitive direction")
    return tuple([x // g for x in v])


def exgcd(a, b):
    """(g, x, y) with a*x + b*y == g == gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def cross3(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def cross2(a, b):
    return a[0] * b[1] - a[1] * b[0]


def det3(m):
    return vec_dot(m[0], cross3(m[1], m[2]))


def adjugate3(m):
    """adj(m) with m @ adj(m) = det(m) * I, rows-as-vectors convention."""
    c0 = cross3(m[1], m[2])
    c1 = cross3(m[2], m[0])
    c2 = cross3(m[0], m[1])
    return [
        (c0[0], c1[0], c2[0]),
        (c0[1], c1[1], c2[1]),
        (c0[2], c1[2], c2[2]),
    ]


def hnf_transform(rows):
    """Row Hermite form with transform.

    Returns (H, U, rank) with U unimodular, U @ rows == [H; 0], H in row
    echelon form with positive pivots and entries above each pivot reduced
    into [0, pivot).  Rows of U from `rank` on span the left kernel.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    H = [list(r) for r in rows]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

    def addrow(dst, src, k):
        if k:
            H[dst] = [a + k * b for a, b in zip(H[dst], H[src])]
            U[dst] = [a + k * b for a, b in zip(U[dst], U[src])]

    def swap(i, j):
        if i != j:
            H[i], H[j] = H[j], H[i]
            U[i], U[j] = U[j], U[i]

    r = 0
    for col in range(n):
        piv = next((i for i in range(r, m) if H[i][col]), None)
        if piv is None:
            continue
        swap(r, piv)
        for i in range(r + 1, m):
            while H[i][col]:
                q = H[r][col] // H[i][col]
                addrow(r, i, -q)
                swap(r, i)
        if H[r][col] < 0:
            H[r] = [-a for a in H[r]]
            U[r] = [-a for a in U[r]]
        for i in range(r):
            q = H[i][col] // H[r][col]
            addrow(i, r, -q)
        r += 1
        if r == m:
            break
    return H[:r], U, r


def hnf_rows(rows):
    H, _, _ = hnf_transform(rows)
    return H


def solve_int(rows, target):
    """One integer solution x of x @ rows == target, or None.

    Free coordinates (beyond the row rank) are set to 0.
    """
    if not rows:
        return None if any(target) else ()
    H, U, r = hnf_transform(rows)
    n = len(target)
    t = list(target)
    coeff = [0] * r
    for i in range(r):
        piv = next(j for j in range(n) if H[i][j])
        q, rem = divmod(t[piv], H[i][piv])
        if rem:
            return None
        coeff[i] = q
        for j in range(n):
            t[j] -= q * H[i][j]
    if any(t):
        return None
    m = len(U)
    sol = [0] * m
    for i in range(r):
        if coeff[i]:
            for j in range(m):
                sol[j] += coeff[i] * U[i][j]
    return tuple(sol)


def complete_unimodular(c):
    """V unimodular with c @ V = e_1; c must be primitive.

    Found by column-reducing c to e_1.  The rows of V^-1 then complete c to
    a basis: V^-1 is exact, so e_1 @ V^-1 = c @ V @ V^-1 = c is its first row.
    """
    n = len(c)
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    w = list(c)

    def colop(j, k, q):
        w[j] += q * w[k]
        for row in V:
            row[j] += q * row[k]

    def colswap(j, k):
        w[j], w[k] = w[k], w[j]
        for row in V:
            row[j], row[k] = row[k], row[j]

    for j in range(1, n):
        while w[j]:
            if w[0]:
                q = w[j] // w[0]
                colop(j, 0, -q)
            if w[j]:
                colswap(0, j)
    if w[0] == -1:
        w[0] = 1
        for row in V:
            row[0] = -row[0]
    if w[0] != 1 or any(w[1:]):
        raise ValueError("vector is not primitive")
    return V


def vec_mat(v, m):
    return tuple([sum(map(mul, v, col)) for col in zip(*m)])


class ZSpan:
    """Incrementally grown sublattice of Z^n, kept in echelon form.

    Supports the one question the verification suite needs: after feeding in
    integer vectors, does the span equal all of Z^n?  Insertion keeps a
    pivot->vector echelon dictionary, not reduced above the pivots (fullness
    does not depend on those): the span is full exactly when every index
    carries a pivot entry equal to 1.
    """

    def __init__(self, n):
        self.n = n
        self.pivots = {}
        self._full = n == 0

    def insert(self, vec):
        if self._full:
            return
        v = list(vec)
        for i in range(self.n):
            if not v[i]:
                continue
            p = self.pivots.get(i)
            if p is None:
                if v[i] < 0:
                    v = [-x for x in v]
                self.pivots[i] = v
                break
            if v[i] % p[i] == 0:
                q = v[i] // p[i]
                v = [a - q * b for a, b in zip(v, p)]
            else:
                g, x, y = exgcd(p[i], v[i])
                new_p = [x * a + y * b for a, b in zip(p, v)]
                new_v = [(p[i] // g) * b - (v[i] // g) * a for a, b in zip(p, v)]
                self.pivots[i] = new_p
                v = new_v
        self._full = len(self.pivots) == self.n and all(
            self.pivots[i][i] == 1 for i in range(self.n)
        )

    def is_full(self):
        return self._full


def columns_generate_full_lattice(columns, n):
    """True iff the given integer vectors generate Z^n."""
    span = ZSpan(n)
    for c in columns:
        span.insert(c)
        if span.is_full():
            return True
    return span.is_full()
