"""Built-in algebra corpus and the corpus-expression mini-language.

Names: abelian(n), aff1, heis3, sl2, sl2sl2, ut(n), sut(n), sl2_v2, d1_v2,
and direct(expr, expr, ...) compositions.  `ut:3` is shorthand for `ut(3)`.
An algebra above ``liealg.MAX_DIM`` dimensions is refused before it is built,
and so is a direct(...) nested more than MAX_DIM deep, before the parser
recurses that far: only zero-dimensional parts could keep it within MAX_DIM
dimensions.
"""

from __future__ import annotations

import re
from typing import Sequence

from .liealg import MAX_DIM, LieAlgebra, abelian, direct_product, operator_semidirect
from .linalg import Matrix, Q0, Q1


class UnknownCorpusName(ValueError):
    pass


def _check_dim(what: str, dim: int):
    if dim > MAX_DIM:
        raise UnknownCorpusName("%s has dimension %d, above the bound MAX_DIM = %d"
                                % (what, dim, MAX_DIM))


def aff1() -> LieAlgebra:
    # [h, x] = x
    z2 = [Q0, Q0]
    c = [[z2, [Q0, Q1]], [[Q0, -Q1], z2]]
    return LieAlgebra(2, ["h", "x"], c)


def heis3() -> LieAlgebra:
    # [x, y] = z
    z3 = [Q0, Q0, Q0]
    c = [[z3, [Q0, Q0, Q1], z3],
         [[Q0, Q0, -Q1], z3, z3],
         [z3, z3, z3]]
    return LieAlgebra(3, ["x", "y", "z"], c)


def sl2() -> LieAlgebra:
    # basis (e, f, h): [e,f] = h, [h,e] = 2e, [h,f] = -2f
    z3 = [Q0, Q0, Q0]
    two = Q1 + Q1
    c = [[z3, [Q0, Q0, Q1], [-two, Q0, Q0]],
         [[Q0, Q0, -Q1], z3, [Q0, two, Q0]],
         [[two, Q0, Q0], [Q0, -two, Q0], z3]]
    return LieAlgebra(3, ["e", "f", "h"], c)


def _elementary(n: int, a: int, b: int) -> Matrix:
    rows = [[Q1 if (i, j) == (a, b) else Q0 for j in range(n)] for i in range(n)]
    return Matrix(rows)


def ut(n: int) -> LieAlgebra:
    """Upper triangular n x n matrices under the commutator bracket."""
    if n < 1:
        raise UnknownCorpusName("ut(n) needs n >= 1")
    _check_dim("ut(%d)" % n, n * (n + 1) // 2)
    pairs = [(a, b) for a in range(n) for b in range(a, n)]
    return _matrix_span_algebra(n, pairs)


def sut(n: int) -> LieAlgebra:
    """Strictly upper triangular n x n matrices."""
    if n < 2:
        raise UnknownCorpusName("sut(n) needs n >= 2")
    _check_dim("sut(%d)" % n, n * (n - 1) // 2)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    return _matrix_span_algebra(n, pairs)


def _matrix_span_algebra(n: int, pairs: Sequence[tuple]) -> LieAlgebra:
    index = {p: k for k, p in enumerate(pairs)}
    dim = len(pairs)
    c = [[[Q0] * dim for _ in range(dim)] for _ in range(dim)]
    for k1, (a, b) in enumerate(pairs):
        for k2, (d, e) in enumerate(pairs):
            # [E_ab, E_de] = delta_bd E_ae - delta_ea E_db
            if b == d:
                c[k1][k2][index[(a, e)]] += Q1
            if e == a:
                c[k1][k2][index[(d, b)]] -= Q1
    labels = ["E%d%d" % (a + 1, b + 1) for a, b in pairs]
    return LieAlgebra(dim, labels, c)


def sl2_v2() -> LieAlgebra:
    """sl2 acting naturally on Q^2, as a semidirect product (dim 5)."""
    e = _elementary(2, 0, 1)
    f = _elementary(2, 1, 0)
    h = Matrix([[Q1, Q0], [Q0, -Q1]])
    return operator_semidirect([e, f, h], labels=["e", "f", "h"])


def d1_v2() -> LieAlgebra:
    """The diagonal operator diag(1,2) acting on Q^2 (dim 3)."""
    d = Matrix([[Q1, Q0], [Q0, Q1 + Q1]])
    return operator_semidirect([d], labels=["d"])


_SIMPLE = {
    "aff1": aff1,
    "heis3": heis3,
    "sl2": sl2,
    "sl2_v2": sl2_v2,
    "d1_v2": d1_v2,
    "sl2sl2": lambda: direct_product([sl2(), sl2()]),
}


def _abelian(n: int) -> LieAlgebra:
    _check_dim("abelian(%d)" % n, n)
    return abelian(n)


_PARAMETRIC = {"abelian": _abelian, "ut": ut, "sut": sut}

_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\d+|[(),:]")


def corpus(name: str, *params: int) -> LieAlgebra:
    """Look up a corpus algebra by name and integer parameters."""
    if name in _SIMPLE:
        if params:
            raise UnknownCorpusName("%s takes no parameters" % name)
        return _SIMPLE[name]()
    if name in _PARAMETRIC:
        if len(params) != 1:
            raise UnknownCorpusName("%s takes exactly one parameter" % name)
        return _PARAMETRIC[name](int(params[0]))
    raise UnknownCorpusName("unknown corpus algebra %r" % name)


def corpus_expr(text: str) -> LieAlgebra:
    """Parse expressions like 'heis3', 'ut:3', 'direct(sl2,abelian(2))'."""
    tokens = _TOKEN.findall(text)
    if "".join(tokens).replace(" ", "") != text.replace(" ", ""):
        raise UnknownCorpusName("cannot tokenize corpus expression %r" % text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take(expected=None):
        nonlocal pos
        if pos >= len(tokens):
            raise UnknownCorpusName("unexpected end of corpus expression %r" % text)
        tok = tokens[pos]
        if expected is not None and tok != expected:
            raise UnknownCorpusName("expected %r at %r" % (expected, tok))
        pos += 1
        return tok

    def number() -> int:
        tok = take()
        try:
            return int(tok)
        except ValueError:  # not digits, or past int()'s digit limit
            raise UnknownCorpusName("expected an integer, got %r" % tok[:20]) from None

    def parse(depth: int = 0) -> LieAlgebra:
        name = take()
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
            raise UnknownCorpusName("expected a name, got %r" % name)
        if peek() == ":":
            take(":")
            return corpus(name, number())
        if peek() == "(":
            take("(")
            if name == "direct":
                if depth == MAX_DIM:
                    raise UnknownCorpusName("direct(...) nested deeper than "
                                            "MAX_DIM = %d" % MAX_DIM)
                parts = [parse(depth + 1)]
                while peek() == ",":
                    take(",")
                    parts.append(parse(depth + 1))
                    _check_dim("direct(...)", sum(p.dim for p in parts))
                take(")")
                if len(parts) < 2:
                    raise UnknownCorpusName("direct(...) needs at least two parts")
                return direct_product(parts)
            args = []
            if peek() != ")":
                args.append(number())
                while peek() == ",":
                    take(",")
                    args.append(number())
            take(")")
            return corpus(name, *args)
        return corpus(name)

    result = parse()
    if pos != len(tokens):
        raise UnknownCorpusName("trailing tokens in corpus expression %r" % text)
    return result


# The fixed corpus the acceptance suite sweeps (>= 12 algebras).
SUITE_CORPUS_EXPRS = (
    "abelian(1)",
    "abelian(2)",
    "abelian(3)",
    "aff1",
    "heis3",
    "sl2",
    "sl2sl2",
    "ut(2)",
    "ut(3)",
    "ut(4)",
    "sut(4)",
    "sl2_v2",
    "d1_v2",
    "direct(sl2,abelian(2))",
    "direct(sl2,heis3)",
    "direct(ut(2),d1_v2)",
)

# Members expected to be Frattini-free (structure theorem fixtures; aff1 is
# Frattini-free because every line in it is a maximal subalgebra).
SUITE_FRATTINI_FREE = (
    "abelian(1)",
    "abelian(2)",
    "abelian(3)",
    "aff1",
    "sl2",
    "sl2sl2",
    "ut(2)",
    "sl2_v2",
    "d1_v2",
    "direct(sl2,abelian(2))",
    "direct(ut(2),d1_v2)",
)


def suite_corpus() -> list:
    return [(expr, corpus_expr(expr)) for expr in SUITE_CORPUS_EXPRS]
