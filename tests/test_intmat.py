import random
from math import gcd

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form

from ahilb import intmat


# The generator-expression kernels that `intmat` replaced with `map` over
# `operator` functions, `gcd(*v)` and list comprehensions: the oracles of
# `test_kernels_match_the_generator_oracles`.


def _oracle_vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _oracle_vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _oracle_vec_neg(a):
    return tuple(-x for x in a)


def _oracle_vec_scale(k, a):
    return tuple(k * x for x in a)


def _oracle_vec_dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _oracle_vec_mat(v, m):
    return tuple(sum(v[k] * m[k][j] for k in range(len(m))) for j in range(len(m[0])))


def _oracle_content(v):
    g = 0
    for x in v:
        g = gcd(g, x)
    return g


def _oracle_primitive(v):
    g = _oracle_content(v)
    if g == 0:
        raise ValueError("zero vector has no primitive direction")
    return tuple(x // g for x in v)


def _kernel_entry(rng):
    """Small, zero, negative or above 2^64, in about equal shares."""
    kind = rng.randrange(4)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.randrange(-9, 10)
    big = rng.randrange(2**64, 2**70)
    return big if kind == 2 else -big


def _kernel_vector(rng, n):
    return tuple(_kernel_entry(rng) for _ in range(n))


def mat_mul(a, b):
    return [
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    ]


def rand_matrix(rng, m, n, lo=-6, hi=6):
    return [[rng.randrange(lo, hi + 1) for _ in range(n)] for _ in range(m)]


def test_hnf_transform_properties():
    rng = random.Random(3)
    for _ in range(40):
        m, n = rng.randrange(1, 5), rng.randrange(1, 5)
        A = rand_matrix(rng, m, n)
        H, U, r = intmat.hnf_transform(A)
        # U @ A == [H; 0] and U is unimodular
        prod = mat_mul(U, A)
        assert [list(x) for x in prod[:r]] == [list(h) for h in H]
        assert all(all(x == 0 for x in row) for row in prod[r:])
        d = sympy.Matrix(U).det()
        assert d in (1, -1)
        # echelon pivots positive, increasing
        pivots = [next(j for j, x in enumerate(row) if x) for row in H]
        assert pivots == sorted(pivots) and len(set(pivots)) == len(pivots)
        assert all(H[i][pivots[i]] > 0 for i in range(r))


def test_solve_int():
    rng = random.Random(5)
    for _ in range(60):
        m, n = rng.randrange(1, 5), rng.randrange(1, 5)
        A = rand_matrix(rng, m, n)
        x = [rng.randrange(-4, 5) for _ in range(m)]
        target = intmat.vec_mat(x, A)
        sol = intmat.solve_int(A, target)
        assert sol is not None
        assert intmat.vec_mat(list(sol), A) == tuple(target)


def test_solve_int_unsolvable():
    assert intmat.solve_int([[2, 0], [0, 2]], (1, 0)) is None


def test_complete_unimodular():
    rng = random.Random(11)
    for _ in range(50):
        v = [rng.randrange(-9, 10) for _ in range(3)]
        if all(x == 0 for x in v):
            continue
        c = intmat.primitive(v)
        V = intmat.complete_unimodular(c)
        assert intmat.vec_mat(c, V) == (1, 0, 0)
        assert intmat.det3(V) in (1, -1)


def test_adjugate():
    m = [(2, 0, 1), (1, 3, 0), (0, 1, 4)]
    adj = intmat.adjugate3(m)
    d = intmat.det3(m)
    prod = mat_mul(m, adj)
    assert prod == [(d, 0, 0), (0, d, 0), (0, 0, d)]


def test_columns_generate_full_lattice_against_smith():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randrange(1, 5)
        k = rng.randrange(n, n + 4)
        cols = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(k)]
        got = intmat.columns_generate_full_lattice(cols, n)
        M = sympy.Matrix(cols).T
        snf = smith_normal_form(M)
        divisors = [abs(snf[i, i]) for i in range(min(snf.shape))]
        expected = sum(1 for d in divisors if d == 1) == n
        assert got == expected


def test_primitive_and_content():
    assert intmat.content((4, -6, 8)) == 2
    assert intmat.primitive((4, -6, 8)) == (2, -3, 4)
    with pytest.raises(ValueError):
        intmat.primitive((0, 0, 0))


@pytest.mark.parametrize("n", [2, 3, 6])
def test_kernels_match_the_generator_oracles(n):
    rng = random.Random(20 + n)
    for _ in range(400):
        a, b = _kernel_vector(rng, n), _kernel_vector(rng, n)
        k = _kernel_entry(rng)
        m = [_kernel_vector(rng, n) for _ in range(n)]
        assert intmat.vec_add(a, b) == _oracle_vec_add(a, b)
        assert intmat.vec_sub(a, b) == _oracle_vec_sub(a, b)
        assert intmat.vec_neg(a) == _oracle_vec_neg(a)
        assert intmat.vec_scale(k, a) == _oracle_vec_scale(k, a)
        assert intmat.vec_dot(a, b) == _oracle_vec_dot(a, b)
        assert intmat.vec_mat(a, m) == _oracle_vec_mat(a, m)
        assert intmat.content(a) == _oracle_content(a)
        # a common factor, so that `primitive` divides by more than 1
        c = intmat.vec_scale(rng.choice([1, 2, 6, 2**65]), a)
        if any(c):
            assert intmat.primitive(c) == _oracle_primitive(c)
        else:
            with pytest.raises(ValueError):
                intmat.primitive(c)
    # a non-square matrix: 2 rows of n columns, and n rows of 2 columns
    for rows, cols in ((2, n), (n, 2)):
        v = _kernel_vector(rng, rows)
        m = [_kernel_vector(rng, cols) for _ in range(rows)]
        assert intmat.vec_mat(v, m) == _oracle_vec_mat(v, m)


def test_content_of_empty_and_zero_vectors():
    assert intmat.content(()) == _oracle_content(()) == 0
    assert intmat.content((0, 0, 0)) == _oracle_content((0, 0, 0)) == 0
    assert intmat.content((0, -4)) == _oracle_content((0, -4)) == 4
    assert intmat.vec_dot((), ()) == 0
