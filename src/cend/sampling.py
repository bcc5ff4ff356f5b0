"""Seeded random generators for property checks.

Everything draws from an explicit ``random.Random`` so that a seed pins the
whole stream: the verification harness relies on this for byte-identical
reports.  Coefficients are small rationals; degrees are kept desk-scale.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from .classify import AutomorphismSpec
from .conformal import ConformalElement
from .poly import BiPoly, PolyMatrix, UniPoly
from .weyl import WeylElement, WeylMatrix

__all__ = [
    "rand_autom",
    "rand_bipoly",
    "rand_conformal",
    "rand_fraction",
    "rand_polymatrix",
    "rand_unimodular",
    "rand_unipoly",
    "rand_weyl",
    "rand_weyl_matrix",
]


def rand_fraction(rng: Random, span: int = 3) -> Fraction:
    return Fraction(rng.randint(-span, span))


def rand_unipoly(
    rng: Random,
    var: str,
    max_deg: int = 3,
    terms: int = 3,
    span: int = 3,
) -> UniPoly:
    coeffs = {}
    for _ in range(rng.randint(0, terms)):
        coeffs[rng.randint(0, max_deg)] = rand_fraction(rng, span)
    return UniPoly(coeffs, var)


def rand_bipoly(
    rng: Random,
    max_dd: int = 2,
    max_dv: int = 2,
    terms: int = 3,
    span: int = 3,
) -> BiPoly:
    out = {}
    for _ in range(rng.randint(0, terms)):
        key = (rng.randint(0, max_dd), rng.randint(0, max_dv))
        out[key] = rand_fraction(rng, span)
    return BiPoly(out)


def rand_conformal(
    rng: Random,
    n: int,
    max_dd: int = 2,
    max_dv: int = 2,
    terms: int = 2,
    span: int = 3,
) -> ConformalElement:
    return ConformalElement(
        [
            [rand_bipoly(rng, max_dd, max_dv, terms, span) for _ in range(n)]
            for _ in range(n)
        ]
    )


def rand_weyl(
    rng: Random,
    max_dp: int = 2,
    max_dq: int = 2,
    terms: int = 3,
    span: int = 3,
) -> WeylElement:
    out = []
    for _ in range(rng.randint(0, terms)):
        out.append(
            (rng.randint(0, max_dp), rng.randint(0, max_dq), rand_fraction(rng, span))
        )
    return WeylElement(out)


def rand_weyl_matrix(
    rng: Random,
    n: int,
    max_dp: int = 2,
    max_dq: int = 2,
    terms: int = 2,
    span: int = 3,
) -> WeylMatrix:
    return WeylMatrix(
        [
            [rand_weyl(rng, max_dp, max_dq, terms, span) for _ in range(n)]
            for _ in range(n)
        ]
    )


def rand_polymatrix(
    rng: Random,
    n: int,
    var: str = "v",
    max_deg: int = 3,
    terms: int = 2,
    span: int = 3,
) -> PolyMatrix:
    return PolyMatrix(
        [
            [rand_unipoly(rng, var, max_deg, terms, span) for _ in range(n)]
            for _ in range(n)
        ],
        var,
    )


def rand_unimodular(
    rng: Random,
    n: int,
    var: str = "v",
    moves: int = 4,
    max_deg: int = 2,
    span: int = 2,
) -> PolyMatrix:
    """A random product of elementary transvections (det = 1)."""
    one = UniPoly.const(1, var)
    zero = UniPoly.zero(var)
    m = PolyMatrix.identity(n, var)
    if n == 1:
        return m
    for _ in range(rng.randint(1, moves)):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        f = UniPoly({rng.randint(0, max_deg): rng.randint(-span, span)}, var)
        step = PolyMatrix(
            [
                [
                    one if a == b else (f if (a, b) == (i, j) else zero)
                    for b in range(n)
                ]
                for a in range(n)
            ],
            var,
        )
        m = m * step
    return m


def rand_autom(
    rng: Random,
    n: int,
    with_h: bool = False,
    span: int = 2,
) -> AutomorphismSpec:
    h = UniPoly.zero("p")
    if with_h:
        h = rand_unipoly(rng, "p", max_deg=2, terms=2, span=span)
    return AutomorphismSpec(
        Fraction(rng.randint(-span, span)),
        rand_unimodular(rng, n),
        h,
    )
