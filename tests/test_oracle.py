"""The polynomial kernel against sympy, an independent implementation of the
same exact arithmetic over Q.

sympy is needed only by these tests, never by the package; without it the
module is skipped.  Inputs are seeded draws at N <= 3 and degree <= 4, with
a share of zero entries and of dependent rows so that the rank-deficient
paths run too.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from sympy import QQ, Matrix, Poly, Rational, symbols  # noqa: E402
from sympy.matrices.normalforms import invariant_factors  # noqa: E402

from cend.poly import (  # noqa: E402
    PolyMatrix,
    UniPoly,
    hermite_reduce,
    smith_normal_form,
)
from test_poly import poly_ext_gcd  # noqa: E402

X = symbols("x")
SEEDS = range(30)


def to_sympy(p: UniPoly) -> Poly:
    terms = {(d,): Rational(a.numerator, a.denominator) for d, a in p.items()}
    return Poly.from_dict(terms, X, domain=QQ)


def from_sympy(p) -> UniPoly:
    p = Poly(p, X, domain=QQ)
    return UniPoly({m[0]: Fraction(int(c.p), int(c.q)) for m, c in p.terms()}, "x")


def draw_poly(rng: random.Random, var: str = "x", nonzero: bool = False) -> UniPoly:
    while True:
        p = UniPoly(
            {
                rng.randint(0, 4): Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                for _ in range(rng.randint(0, 3))
            },
            var,
        )
        if p or not nonzero:
            return p


def draw_rows(rng: random.Random, nrows: int, ncols: int, var: str = "x"):
    """Rows with about a third of the entries zero; sometimes the last row
    is a k[var]-combination of the others."""
    rows = [
        [
            draw_poly(rng, var) if rng.random() < 0.67 else UniPoly.zero(var)
            for _ in range(ncols)
        ]
        for _ in range(nrows)
    ]
    if nrows > 1 and rng.random() < 0.3:
        c = [draw_poly(rng, var) for _ in range(nrows - 1)]
        rows[-1] = [
            sum((ci * r[j] for ci, r in zip(c, rows)), UniPoly.zero(var))
            for j in range(ncols)
        ]
    return rows


def sympy_matrix(rows) -> Matrix:
    return Matrix([[to_sympy(e).as_expr() for e in r] for r in rows])


@pytest.mark.parametrize("seed", SEEDS)
def test_ext_gcd_matches_gcdex(seed):
    rng = random.Random(seed)
    a, b = draw_poly(rng, nonzero=True), draw_poly(rng, nonzero=True)
    g, u, w = poly_ext_gcd(a, b)
    _, _, h = sympy.gcdex(to_sympy(a), to_sympy(b))
    assert g == from_sympy(h).monic()  # both are monic: equal up to a unit
    assert u * a + w * b == g


@pytest.mark.parametrize("seed", SEEDS)
def test_divmod_matches_div(seed):
    rng = random.Random(seed)
    a, b = draw_poly(rng), draw_poly(rng, nonzero=True)
    q, r = sympy.div(to_sympy(a), to_sympy(b))
    assert divmod(a, b) == (from_sympy(q), from_sympy(r))


@pytest.mark.parametrize("seed", SEEDS)
def test_det_matches_sympy(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    rows = draw_rows(rng, n, n)
    assert PolyMatrix(rows, "x").det() == from_sympy(sympy_matrix(rows).det())


@pytest.mark.parametrize("seed", SEEDS)
def test_smith_diagonal_matches_invariant_factors(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    rows = draw_rows(rng, n, n)
    _, d, _ = smith_normal_form(PolyMatrix(rows, "x"))
    expected = [
        from_sympy(f).monic()
        for f in invariant_factors(sympy_matrix(rows), domain=QQ[X])
    ]
    assert [d.entry(i, i) for i in range(n)] == expected


@pytest.mark.parametrize("seed", SEEDS)
def test_hermite_rank_matches_rank_over_fraction_field(seed):
    rng = random.Random(seed)
    nrows, ncols = rng.randint(1, 4), rng.randint(1, 3)
    rows = draw_rows(rng, nrows, ncols, "D")
    expected = sympy_matrix(rows).to_DM(domain=QQ.frac_field(X)).rank()
    assert hermite_reduce(rows, ncols).rank == expected
