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
from .weyl import WeylElement, WeylMatrix


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
        cells = [[{} for _ in range(self.n)] for _ in range(self.n)]
        for s, mat in enumerate(self.coeffs):
            if s > n:
                break
            c = comb(n, s)
            for cell_row, row in zip(cells, mat.rows):
                for cell, e in zip(cell_row, row):
                    for d, a in e.items():
                        cell[(d, n - s)] = a * c
        return WeylMatrix._new([[WeylElement._new(x) for x in r] for r in cells])


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
    """The operator a(n) acting on k[p]^N."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return element_sequence(a).operator(n)


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
    # group the largest sample by q-degree: a(M) = sum_s C(M,s) A_s q^(M-s)
    zero = UniPoly.zero("p")
    layers: dict[int, list[list[UniPoly]]] = {}
    for i in range(size):
        for j in range(size):
            for dp, dq, c in w.entry(i, j).items():
                if dq > m_top:
                    raise NotDifferentialError(
                        f"operator at n={m_top} has q-degree {dq} > {m_top}"
                    )
                if dq not in layers:
                    layers[dq] = [[zero for _ in range(size)] for _ in range(size)]
                layers[dq][i][j] = layers[dq][i][j] + UniPoly.monomial(dp, c, "p")
    coeffs = []
    for s in range(m_top + 1):
        rows = layers.get(m_top - s)
        if rows is None:
            coeffs.append(PolyMatrix.zeros(size, "p"))
        else:
            coeffs.append(PolyMatrix(rows, "p") * Fraction(1, comb(m_top, s)))
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
    for r, row in enumerate(w.rows):
        for k, entry in enumerate(row):
            terms = by_row.get(k)
            if not terms:
                continue
            for (i, n), c in entry._c.items():
                for col, j, e, x in terms:
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
    lhs = symbol(a, n) * symbol(b, m)
    rhs = WeylMatrix.zeros(a.n)
    for s in range(n + 1):
        rhs = rhs + symbol(nproduct(a, n - s, b), m + s) * comb(n, s)
    failures = [] if lhs == rhs else [f"composition at n={n}, m={m}"]

    lhs2 = symbol(nproduct(a, m, b), n)
    rhs2 = WeylMatrix.zeros(a.n)
    for s in range(m + 1):
        t = (symbol(a, m - s) * symbol(b, n + s)) * comb(m, s)
        rhs2 = rhs2 + (-t if s % 2 else t)
    if lhs2 != rhs2:
        failures.append(f"coefficient rule at n={n}, m={m}")
    return CheckResult(2, tuple(failures))


Vector = dict[tuple[int, int], Fraction]  # (component, p-degree) -> coeff


def _apply_op(w: WeylMatrix, vec: Vector) -> Vector:
    out: Vector = {}
    for (comp, t), c in vec.items():
        for r in range(w.n):
            e = w.entry(r, comp)
            for dp, dq, a in e.items():
                f = _falling(t, dq)
                if not f:
                    continue
                key = (r, t - dq + dp)
                term = c * a * f
                nv = out[key] + term if key in out else term
                if nv:
                    out[key] = nv
                else:
                    out.pop(key, None)
    return out


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

    ``c`` is the largest degree gain of the operator pool; it and the two
    bounds are ``None`` when no pool was built, ``reason`` is ``None`` exactly
    when the verdict is Dense.
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

    The operator pool consists of the symbols (n <= n_bound) of all words of
    length <= 2 in the generators, premultiplied by powers of p up to the
    degree bound. For each standard basis vector the span of its orbit must
    contain every p^j e_l with j <= deg_bound - c, where c is the largest
    p-vs-q degree gain any pool operator term can produce. Returns a verdict
    of Dense or Unknown (a bounded search can never certify a negative).
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

    ops: list[WeylMatrix] = []
    shift = 0
    for w in words:
        seq = element_sequence(w)
        for n in range(n_bound + 1):
            s = seq.operator(n)
            if s.is_zero():
                continue
            ops.append(s)
            for i in range(size):
                for j in range(size):
                    for dp, dq, _ in s.entry(i, j).items():
                        shift = max(shift, dp - dq)
    c = shift
    target_deg = deg_bound - c
    if target_deg < 0 or not ops:
        reason = "degree bound too small for the operator pool"
        return DensityResult("Unknown", reason, c, deg_bound, n_bound)

    for k in range(size):
        span = _SpanBuilder()
        start: Vector = {(k, 0): Fraction(1)}
        for op in ops:
            vec = _apply_op(op, start)
            for _ in range(deg_bound + 1):
                if not vec or max(d for (_, d) in vec) > deg_bound:
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
