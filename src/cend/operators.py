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
composition rules that make the correspondence multiplicative, and decides
orbit density, the precondition of classification.

The density check closes each e_k's orbit over k[p] under the generators'
operators in one Hermite basis, exactly and with no bound on words,
operator indices or degrees (see ``orbit_density_check``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Sequence

from .conformal import ConformalElement, _falling, nproduct
from .errors import (
    CheckResult,
    DimensionMismatchError,
    InsufficientSamplesError,
    NotDifferentialError,
)
from .poly import HSubmoduleBasis, PolyMatrix, UniPoly
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


@dataclass(frozen=True)
class DensityResult:
    """Verdict of the orbit-density check.

    ``verdict`` is ``"Dense"``, ``"Reducible"`` with ``submodule`` the
    canonical basis of a nonzero proper invariant k[p]-submodule of V_N, or
    ``"Unknown"`` when there are no generators. ``reason`` is ``None``
    exactly when the verdict is Dense.
    """

    verdict: str
    reason: str | None = None
    submodule: tuple[tuple[UniPoly, ...], ...] | None = None


def _symbol_on_vector(a: ConformalElement, n: int, vec: Sequence) -> list[UniPoly]:
    """a(n) applied to a vector over k[p], times a's common denominator: the
    term D^s v^d at (r, c) acts as (-1)^s s! C(n,s) p^d q^(n-s) (see
    ``symbol``), and q^m sends p^j to (j)_m p^(j-m)."""
    out: list[dict] = [{} for _ in range(a.n)]
    for r, c, s, d, x in a._term_form()[0]:
        m = n - s
        if m >= 0:
            w = x * factorial(s) * comb(n, s) * (-1) ** s
            acc = out[r]
            for j, y in vec[c]._c.items():
                if j >= m:
                    e = d + j - m
                    acc[e] = acc.get(e, 0) + y * (w * _falling(j, m))
    return [UniPoly._new(acc, "p") for acc in out]


def orbit_density_check(generators: Sequence[ConformalElement]) -> DensityResult:
    """Decide whether the generated algebra C acts densely on V_N = k[p]^N.

    C is dense when the k[p]-span M_k of C e_k is V_N for every k. M_k is the
    smallest k[p]-submodule that holds each g(n) e_k and is invariant under
    each g(n), g a generator, and a finite loop computes it exactly:

    * C's operators are the sums of products of the g(n): by the rules that
      ``verify_composition`` checks, a(n) b(m) is a sum of operators of
      a (i) b, and (a (m) b)(n) one of products a(i) b(j); (D a)(n) is
      -n a(n-1);
    * a(n) p = p a(n) + n a(n-1), from qp - pq = 1, so a submodule is
      invariant once each g(n) maps each of its basis rows b into it, and
      g(n) b = 0 for n > (top D-degree of g) + deg b.

    The loop extends e_k's Hermite basis by those images of every row new to
    it (a row that keeps its place had its images absorbed before), until
    the basis is the identity or stops changing, as it must: k[p]^N is
    Noetherian. Otherwise the verdict is Reducible. A nonzero M_k is a
    proper C-invariant submodule; if M_k = 0, every operator kills k[p] e_k,
    which is proper for N >= 2, and at N = 1 the generators are zero and
    p k[p] is invariant.
    """
    if not generators:
        return DensityResult("Unknown", "no generators")
    size = generators[0].n
    for g in generators:
        if g.n != size:
            raise DimensionMismatchError("generators of mixed size")
    tops = [(g, g.deg_d) for g in generators if not g.is_zero()]

    zero, one = UniPoly.zero("p"), UniPoly.const(1, "p")
    for k in range(size):
        unit = tuple(one if l == k else zero for l in range(size))
        basis = HSubmoduleBasis((), (), size)
        fresh = [unit]
        while fresh and not basis.is_full():
            old = dict(zip(basis.pivots, basis.rows))
            basis = basis.extend(
                _symbol_on_vector(g, n, b)
                for b in fresh
                for g, top in tops
                for n in range(top + max(e.degree or 0 for e in b) + 1)
            )
            fresh = [r for p, r in zip(basis.pivots, basis.rows) if old.get(p) != r]
        if basis.is_full():
            continue
        if basis.rank:
            rows, lead = basis.rows, f"the orbit of basis vector {k} spans"
        else:
            rows = (unit,) if size > 1 else ((UniPoly.gen("p"),),)
            lead = f"every operator kills basis vector {k}, so there is"
        text = "; ".join("(" + ", ".join(map(str, r)) + ")" for r in rows)
        reason = f"{lead} a proper invariant submodule with basis {text}"
        return DensityResult("Reducible", reason, rows)
    return DensityResult("Dense")
