"""Seeded inputs for the benchmark workloads.

The generator never imports `ahilb`: it produces spec strings only, plus
the counts any correct run must report (group order, junior and age-2
element counts), computed here from the weights by a separate closure so
the output check does not trust the program under test.
"""

from __future__ import annotations

import random
from math import gcd, lcm

WORKLOADS = {
    "compute-large": (
        "ahilb compute with --json/--svg/--quiver-svg on a cyclic group of order 401: "
        "the |A|^2 chart, decoration, duality and serialisation work dominates"
    ),
    "fan-heavy": (
        "ahilb check --check fan on 1/r(1,1,r-2) with r near 300: the repeated weight "
        "makes knock-out dominate the fan, and the unrequested stages still run"
    ),
    "sweep-small": (
        "run_pipeline in one process over ~600 small groups: per-call fixed costs "
        "(group, fan, ratio checks, pipeline overhead) dominate, with no serialisation"
    ),
}

# 1/401(1,b,400-b): the order (and so the |A|^2 chart tables) and the junior
# and age-2 counts are the same for every b.  Small b (2, 3, 5) give 200-340
# fan lines and up to twice the HNF work; these give 122-165 lines and
# 18k-23k solve_int calls, so seeds differ little in cost.  Seed 0 gives the
# ROADMAP ladder spec 1/401(1,7,393).
COMPUTE_LARGE_B = (7, 11, 13, 17, 19, 23)

# 1/r(1,1,r-2) for r in a narrow band near 300, so every seed does about the
# same amount of knock-out work.
FAN_HEAVY_R = (299, 300, 301)

# Seeded cyclic groups, one of each order 31..80, so every seed has the same
# orders and only the weights vary.
SWEEP_RANDOM_CYCLIC = 50
SWEEP_PRODUCTS = 4  # seeded non-cyclic products of order 16..64


def compute_large_spec(seed: int) -> str:
    b = COMPUTE_LARGE_B[seed % len(COMPUTE_LARGE_B)]
    return f"1/401(1,{b},{400 - b})"


def fan_heavy_spec(seed: int) -> str:
    r = random.Random(seed).choice(FAN_HEAVY_R)
    return f"1/{r}(1,1,{r - 2})"


def cyclic_family_up_to(max_order: int) -> list[str]:
    """Every cyclic 1/r(a,b,c) with r <= max_order, one spec per distinct group."""
    seen = {}
    for r in range(1, max_order + 1):
        for a in range(r):
            for b in range(a, r):
                c = (-a - b) % r
                if c < b or gcd(gcd(a, b), gcd(c, r)) != 1:
                    continue
                key = frozenset(_elements([(r, (a, b, c))])[0])
                seen.setdefault(key, f"1/{r}({a},{b},{c})")
    return sorted(seen.values())


def sweep_small_specs(seed: int) -> list[str]:
    rng = random.Random(seed)
    specs = cyclic_family_up_to(30)
    for r in range(31, 31 + SWEEP_RANDOM_CYCLIC):
        while True:
            a, b = rng.randrange(r), rng.randrange(r)
            c = (-a - b) % r
            if gcd(gcd(a, b), gcd(c, r)) == 1:
                specs.append(f"1/{r}({a},{b},{c})")
                break
    products = set()
    while len(products) < SWEEP_PRODUCTS:
        factors = []
        for _ in range(2):
            r = rng.randrange(2, 21)
            a, b = rng.randrange(r), rng.randrange(r)
            factors.append((r, (a, b, (-a - b) % r)))
        elements, order = _elements(factors)
        if 16 <= order <= 64 and not _is_cyclic(elements, order):
            products.add(";".join(f"1/{r}({a},{b},{c})" for r, (a, b, c) in factors))
    return specs + sorted(products)


def specs_for(workload: str, seed: int) -> list[str]:
    if workload == "compute-large":
        return [compute_large_spec(seed)]
    if workload == "fan-heavy":
        return [fan_heavy_spec(seed)]
    if workload == "sweep-small":
        return sweep_small_specs(seed)
    raise ValueError(f"unknown workload {workload!r}")


def expected_counts(spec: str) -> dict:
    """Order, junior and age-2 counts of the group a spec generates."""
    factors = []
    for part in spec.split(";"):
        r, weights = part[2:].split("(")
        factors.append((int(r), tuple(int(w) for w in weights.rstrip(")").split(","))))
    elements, order = _elements(factors)
    ages = [sum(e) // order for e in elements]
    return {"order": order, "junior": ages.count(1), "age2": ages.count(2)}


def _elements(factors):
    """Group elements as integer triples over the denominator |A|, and |A|."""
    L = 1
    for r, _ in factors:
        L = lcm(L, r)
    gens = [tuple(a * (L // r) % L for a in w) for r, w in factors]
    seen = {(0, 0, 0)}
    frontier = [(0, 0, 0)]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                f = tuple((x + y) % L for x, y in zip(e, g))
                if f not in seen:
                    seen.add(f)
                    nxt.append(f)
        frontier = nxt
    order = len(seen)
    return [tuple(x * order // L for x in e) for e in seen], order


def _is_cyclic(elements, order):
    return any(order // gcd(gcd(*e), order) == order for e in elements)
