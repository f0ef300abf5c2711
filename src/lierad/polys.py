"""Univariate rational polynomials: arithmetic and exact factorization.

Polynomials are coefficient lists, constant term first.  Factorization is
rational-root extraction followed by a Kronecker interpolation search for
higher-degree factors: exact, but its work grows with the degree and with the
number of divisors of the polynomial's values, so small degrees do not bound
it.  x^6 + x + 720720 does not finish in 20 s, and minimal polynomials of
degree 5 to 7 from integral actions conjugated by a random integral basis
change can take minutes.  Hensel lifting would remove that limit (ROADMAP
item 4).
"""

from __future__ import annotations

from itertools import product
from typing import Optional

from .linalg import Q0, Q1, Scalar, div, primitive_part, qq


def poly_trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_degree(p: list) -> int:
    return len(p) - 1


def poly_eval(p: list, x):
    acc = Q0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_mul(p: list, q: list) -> list:
    if not p or not q:
        return []
    out = [Q0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            if b != 0:
                out[i + j] += a * b
    return out


def poly_divmod(p: list, d: list) -> tuple[list, list]:
    if not d:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [qq(x) for x in p]
    quo = [Q0] * max(0, len(rem) - len(d) + 1)
    dl = poly_degree(d)
    lead = d[-1]
    while poly_trim(rem) and poly_degree(rem) >= dl:
        shift = poly_degree(rem) - dl
        factor = div(rem[-1], lead)
        quo[shift] = factor
        for i, c in enumerate(d):
            rem[shift + i] -= factor * c
    return poly_trim(quo), poly_trim(rem)


def poly_monic(p: list) -> list:
    lead = p[-1]
    if lead == 1:
        return list(p)
    return [div(c, lead) for c in p]


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _rational_roots(ints: list[int]) -> list:
    """All rational roots of a primitive integer polynomial."""
    k = 0
    while ints[k] == 0:
        k += 1
    roots = [Q0] * min(k, 1)
    body = ints[k:]
    if poly_degree(body) >= 1:
        a0, an = body[0], body[-1]
        seen = set()
        for p in _divisors(a0):
            for q in _divisors(an):
                for cand in (div(p, q), div(-p, q)):
                    if cand in seen:
                        continue
                    seen.add(cand)
                    if poly_eval([qq(c) for c in body], cand) == 0:
                        roots.append(cand)
    return roots


def _kronecker_factor(ints: list[int]) -> Optional[list]:
    """A nontrivial monic rational factor of an integer poly with no
    rational root, or None.

    Interpolates candidate degree-d divisors (2 <= d <= deg/2) through
    divisor tuples of the values at 0, 1, -1, 2, -2, ..., none of them 0.
    """
    deg = poly_degree(ints)
    points = []
    x = 0
    while len(points) < deg // 2 + 1:
        for cand in ((x,) if x == 0 else (x, -x)):
            val = 0
            for c in reversed(ints):
                val = val * cand + c
            points.append((cand, val))
            if len(points) >= deg // 2 + 1:
                break
        x += 1
    ratp = [qq(c) for c in ints]
    for d in range(2, deg // 2 + 1):
        pts = points[:d + 1]
        choices = []
        for _, val in pts:
            divs = _divisors(val)
            choices.append([v for pos in divs for v in (pos, -pos)])
        for combo in product(*choices):
            cand = _lagrange([p[0] for p in pts], [qq(v) for v in combo])
            if cand is None or poly_degree(cand) != d:
                continue
            quo, rem = poly_divmod(ratp, cand)
            if not rem and poly_degree(quo) >= 1:
                return poly_monic(cand)
    return None


def _lagrange(xs: list, ys: list) -> Optional[list]:
    acc = [Q0]
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        term = [yi]
        for j, xj in enumerate(xs):
            if i == j:
                continue
            denom = qq(xi) - qq(xj)
            term = poly_mul(term, [div(-xj, denom), div(Q1, denom)])
        acc = [a + b for a, b in
               zip(acc + [Q0] * (len(term) - len(acc)),
                   term + [Q0] * (len(acc) - len(term)))]
    return poly_trim(acc) or None


def factor_rational_poly(p) -> tuple[Scalar, list[list]]:
    """Factor a nonzero rational polynomial into monic irreducibles over Q.

    Returns (leading coefficient, factor list); the product of the factors
    times the leading coefficient reproduces the input.  The rational roots
    are found once and divided out with their multiplicities; the Kronecker
    search runs on what is left.
    """
    p = poly_trim([qq(x) for x in p])
    if not p:
        raise ValueError("cannot factor the zero polynomial")
    lead = p[-1]
    work = poly_monic(p)
    factors: list[list] = []
    for root in _rational_roots(primitive_part(work)):
        while True:
            quo, rem = poly_divmod(work, [-root, Q1])
            if rem:
                break
            factors.append([-root, Q1])
            work = quo
    while poly_degree(work) >= 1:
        found = _kronecker_factor(primitive_part(work))
        if found is None:
            factors.append(work)
            break
        factors.append(found)
        work, rem = poly_divmod(work, found)
        assert not rem
    factors.sort(key=lambda f: (poly_degree(f), [str(c) for c in f]))
    return lead, factors
