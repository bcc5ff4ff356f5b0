"""Operator realization of matrix-polynomial elements.

Every element a of M_N(k[D,v]) determines a family of operators a(n) on
V_N = k[p]^N, one for each n >= 0, living in M_N(W) for the Weyl algebra W
(p acts by multiplication, q by d/dp). Writing a = sum_s D^s C_s(v), the
coefficient list A_s = (-1)^s s! C_s gives

    a(n) = sum_s C(n,s) A_s(p) q^(n-s),

so the family is "differential": finitely many p-coefficient matrices
generate all of it, and a(n) has positive q-valuation once n passes the top
index. This module converts both ways (symbol / reconstruct, with
fit_differential_sequence recovering the list from sampled operators),
implements the action of operator matrices back on elements, checks the
composition rules that make the correspondence multiplicative, and runs the
orbit-density certificate used as a precondition for classification.

That certificate applies the operator pool once to each constant basis
vector e_k. Since q kills constants, a(n) e_k is column k of A_n, that is of
a's D^n coefficient up to the scalar (-1)^n n!, so the pool is read straight
off the words' coefficient maps: for n <= n_bound, those columns and their
p-multiples up to the degree bound must span every p^j e_l with
j <= deg_bound - c, where c is the largest v-degree among the coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Sequence

from .conformal import ConformalElement, _falling, nproduct, nproducts
from .errors import (
    CheckResult,
    DimensionMismatchError,
    InsufficientSamplesError,
    NotDifferentialError,
)
from .poly import PolyMatrix, UniPoly
from .weyl import WeylMatrix


@dataclass(frozen=True)
class DifferentialSequence:
    """Coefficient matrices A_0..A_m over k[p] (no trailing zero matrices)."""

    n: int
    coeffs: tuple[PolyMatrix, ...]

    def __post_init__(self):
        for mat in self.coeffs:
            if mat.n != self.n:
                raise DimensionMismatchError("coefficient matrix size mismatch")
        if self.coeffs and self.coeffs[-1].is_zero():
            raise ValueError("trailing zero coefficient")

    @property
    def top_index(self) -> int:
        return len(self.coeffs) - 1

    def operator(self, n: int) -> WeylMatrix:
        """The member a(n) = sum_s C(n,s) A_s(p) q^(n-s) of the family."""
        out: dict = {}
        for s, mat in enumerate(self.coeffs[: n + 1]):
            c = comb(n, s)
            for r, row in enumerate(mat.rows):
                for col, e in enumerate(row):
                    for d, a in e._c.items():
                        out[r, col, d, n - s] = a * c
        return WeylMatrix._new(out, self.n)


@dataclass(frozen=True)
class OperatorSample:
    n: int
    op: WeylMatrix


def element_sequence(a: ConformalElement) -> DifferentialSequence:
    """The coefficient list of a's operator family: A_s = (-1)^s s! C_s."""
    dc = a.d_coeffs()
    if not dc:
        return DifferentialSequence(a.n, ())
    top = max(dc)
    coeffs = []
    for s in range(top + 1):
        mat = dc.get(s)
        if mat is None:
            coeffs.append(PolyMatrix.zeros(a.n, "p"))
        else:
            c = Fraction(factorial(s))
            if s % 2:
                c = -c
            coeffs.append(mat.retag("p") * c)
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return DifferentialSequence(a.n, tuple(coeffs))


def symbol(a: ConformalElement, n: int) -> WeylMatrix:
    """The operator a(n) acting on k[p]^N.

    Read straight off a's coefficient map: the term D^s v^d at (r, c), for
    s <= n, contributes (-1)^s s! C(n,s) p^d q^(n-s), which is the term
    C(n,s) A_s(p) q^(n-s) of ``element_sequence(a).operator(n)``.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    out: dict = {}
    for (r, c, s, d), x in a._c.items():
        if s <= n:
            w = factorial(s) * comb(n, s)
            out[r, c, d, n - s] = x * (-w if s % 2 else w)
    return WeylMatrix._new(out, a.n)


def reconstruct(seq: DifferentialSequence) -> ConformalElement:
    """The element whose operator family has the given coefficients."""
    acc: dict[int, PolyMatrix] = {}
    for s, mat in enumerate(seq.coeffs):
        c = Fraction(1, factorial(s))
        if s % 2:
            c = -c
        acc[s] = mat.retag("v") * c
    return ConformalElement.from_d_coeffs(acc, seq.n)


def fit_differential_sequence(
    samples: Sequence[OperatorSample],
) -> DifferentialSequence:
    """Recover the coefficient list from sampled operators.

    The largest sample determines the candidate list; every other sample
    must match its prediction (raising NotDifferentialError otherwise).
    A sample beyond the top nonzero index is required to certify the list
    is complete (else InsufficientSamplesError).
    """
    if not samples:
        raise InsufficientSamplesError("no samples given")
    size = samples[0].op.n
    by_n: dict[int, WeylMatrix] = {}
    for s in samples:
        if s.op.n != size:
            raise DimensionMismatchError("samples of mixed matrix size")
        if s.n < 0:
            raise ValueError("sample index must be nonnegative")
        if s.n in by_n and by_n[s.n] != s.op:
            raise NotDifferentialError(f"conflicting samples at n={s.n}")
        by_n[s.n] = s.op

    m_top = max(by_n)
    w = by_n[m_top]
    # group the largest sample by q-degree: a(M) = sum_s C(M,s) A_s q^(M-s);
    # the sorted keys name the first offending term in (row, col, p, q) order
    layers: dict[int, list[list[dict]]] = {}
    for (i, j, dp, dq), c in sorted(w._c.items()):
        if dq > m_top:
            raise NotDifferentialError(
                f"operator at n={m_top} has q-degree {dq} > {m_top}"
            )
        if dq not in layers:
            layers[dq] = [[{} for _ in range(size)] for _ in range(size)]
        layers[dq][i][j][dp] = c
    coeffs = []
    for s in range(m_top + 1):
        cells = layers.get(m_top - s)
        if cells is None:
            coeffs.append(PolyMatrix.zeros(size, "p"))
        else:
            rows = [[UniPoly._new(x, "p") for x in row] for row in cells]
            coeffs.append(PolyMatrix._new(rows) * Fraction(1, comb(m_top, s)))
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()

    if len(coeffs) == m_top + 1:
        raise InsufficientSamplesError(
            f"top coefficient at index {m_top} is nonzero; "
            "a sample beyond it is required"
        )
    seq = DifferentialSequence(size, tuple(coeffs))
    for n, op in by_n.items():
        if seq.operator(n) != op:
            raise NotDifferentialError(f"sample at n={n} breaks the pattern")
    return seq


def act(w: WeylMatrix, b: ConformalElement) -> ConformalElement:
    """Left action of an operator matrix on an element.

    For w = symbol(a, n) this returns the n-th product of a and b, and the
    action is associative over the operator product.  A term c p^i q^n of
    w's (r, k) entry sends D^j v^e in b's row k to

        sum_t C(n,t) (j)_t (e)_(n-t) c D^(j-t) v^(i+e-n+t)

    in row r.
    """
    if w.n != b.n:
        raise DimensionMismatchError(f"sizes {w.n} and {b.n}")
    by_row: dict[int, list] = {}
    for (k, col, j, e), x in b._c.items():
        by_row.setdefault(k, []).append((col, j, e, x))
    acc: dict = {}
    for (r, k, i, n), c in w._c.items():
        for col, j, e, x in by_row.get(k, ()):
            for t in range(max(n - e, 0), min(n, j) + 1):
                key = (r, col, j - t, i + e - n + t)
                y = c * x * (comb(n, t) * _falling(j, t) * _falling(e, n - t))
                acc[key] = acc[key] + y if key in acc else y
    return ConformalElement._new(acc, w.n)


def verify_composition(
    a: ConformalElement, b: ConformalElement, n: int, m: int
) -> CheckResult:
    """Check the two composition rules tying symbols to n-products:

      symbol(a,n) * symbol(b,m) = sum_s C(n,s) symbol(a (n-s) b, m+s)
      symbol(a (m) b, n) = sum_s (-1)^s C(m,s) symbol(a, m-s) * symbol(b, n+s)
    """

    def outcomes():
        lhs = symbol(a, n) * symbol(b, m)
        rhs = WeylMatrix.zero(a.n)
        for s in range(n + 1):
            rhs = rhs + symbol(nproduct(a, n - s, b), m + s) * comb(n, s)
        yield lhs == rhs, f"composition at n={n}, m={m}"
        lhs = symbol(nproduct(a, m, b), n)
        rhs = WeylMatrix.zero(a.n)
        for s in range(m + 1):
            t = (symbol(a, m - s) * symbol(b, n + s)) * comb(m, s)
            rhs = rhs + (-t if s % 2 else t)
        yield lhs == rhs, f"coefficient rule at n={n}, m={m}"

    return CheckResult.collect(outcomes())


Vector = dict[tuple[int, int], Fraction]  # (component, p-degree) -> coeff


class _SpanBuilder:
    """Incremental row reduction over Q for sparse vectors."""

    def __init__(self):
        self.rows: dict[tuple[int, int], Vector] = {}

    def reduce(self, vec: Vector) -> Vector:
        vec = dict(vec)
        while vec:
            lead = max(vec)
            row = self.rows.get(lead)
            if row is None:
                return vec
            c = vec[lead]
            for k, a in row.items():
                nv = vec[k] - c * a if k in vec else -(c * a)
                if nv:
                    vec[k] = nv
                else:
                    vec.pop(k, None)
        return vec

    def insert(self, vec: Vector) -> bool:
        vec = self.reduce(vec)
        if not vec:
            return False
        lead = max(vec)
        inv = Fraction(1) / vec[lead]
        self.rows[lead] = {k: a * inv for k, a in vec.items()}
        return True

    def contains(self, vec: Vector) -> bool:
        return not self.reduce(vec)


@dataclass(frozen=True)
class DensityResult:
    """Verdict of the orbit-density certificate with the bounds behind it.

    ``c`` is the largest v-degree among the words' D^n coefficients with
    n <= n_bound (0 when there are none); it and the two bounds are ``None``
    when no pool was built, ``reason`` is ``None`` exactly when the verdict
    is Dense.
    """

    verdict: str
    reason: str | None = None
    c: int | None = None
    deg_bound: int | None = None
    n_bound: int | None = None


def orbit_density_check(
    generators: Sequence[ConformalElement],
    deg_bound: int,
    n_bound: int,
) -> DensityResult:
    """Certify that the operators act densely on V_N = k[p]^N.

    The operator pool consists of the symbols a(n), n <= n_bound, of all
    words a of length <= 2 in the generators, premultiplied by powers of p.
    It is applied once to each standard basis vector e_k, whose image under
    a(n) is column k of a's D^n coefficient (up to a nonzero scalar). Those
    columns and their p-multiples of degree <= deg_bound must span every
    p^j e_l with j <= deg_bound - c, where c is the largest v-degree among
    the coefficients read. Returns a verdict of Dense or Unknown (a bounded
    search can never certify a negative); the pool is "too small" when it
    reads no coefficient or deg_bound < c.
    """
    if not generators:
        return DensityResult("Unknown", "no generators")
    size = generators[0].n
    for g in generators:
        if g.n != size:
            raise DimensionMismatchError("generators of mixed size")

    words: list[ConformalElement] = [g for g in generators if not g.is_zero()]
    for g1 in generators:
        for g2 in generators:
            for w in nproducts(g1, g2)[: n_bound + 1]:
                if not w.is_zero() and w not in words:
                    words.append(w)

    # columns[k][(word, n)] is the pool's image of e_k: column k of the
    # word's D^n coefficient, up to the nonzero scalar (-1)^n n!
    columns: list[dict[tuple[int, int], Vector]] = [{} for _ in range(size)]
    c = 0
    for i, w in enumerate(words):
        for (r, k, n, e), x in w._c.items():
            if n <= n_bound:
                columns[k].setdefault((i, n), {})[(r, e)] = x
                c = max(c, e)
    target_deg = deg_bound - c
    if target_deg < 0 or not any(columns):
        reason = "degree bound too small for the operator pool"
        return DensityResult("Unknown", reason, c, deg_bound, n_bound)

    for k, column in enumerate(columns):
        span = _SpanBuilder()
        for vec in column.values():
            for _ in range(deg_bound + 1):
                if max(d for (_, d) in vec) > deg_bound:
                    break
                span.insert(vec)
                vec = {(l, d + 1): x for (l, d), x in vec.items()}  # times p
        for l in range(size):
            for j in range(target_deg + 1):
                if not span.contains({(l, j): Fraction(1)}):
                    reason = (
                        f"orbit of basis vector {k} misses "
                        f"degree {j} in component {l}"
                    )
                    return DensityResult("Unknown", reason, c, deg_bound, n_bound)
    return DensityResult("Dense", None, c, deg_bound, n_bound)
