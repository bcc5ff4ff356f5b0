"""The first Weyl algebra and its matrices.

Elements are kept in normal form: every word is rewritten as a rational
combination of monomials p^i q^j with all p's to the left, using the
defining relation q p = p q + 1. Multiplication uses the closed form

    (p^a q^b)(p^c q^d) = sum_k k! C(b,k) C(c,k) p^(a+c-k) q^(b+d-k),

which is what iterating the single swap produces.

The module also carries the machinery for shifted powers of q: for a
polynomial h(p), the q-free parts of (q - h)^n and (q + h)^n form two
coefficient sequences tied together by convolution identities, and the
coefficient lists of operator families can be rebased between the q-power
and (q + h)-power bases.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Iterable, Mapping, Sequence

from .errors import CheckResult
from .poly import Scalar, UniPoly, _Matrix, _pair_str, _pair_terms, _Sparse


class WeylElement(_Sparse):
    """Element of the first Weyl algebra in normal form."""

    __slots__ = ()

    def __init__(
        self,
        coeffs: Mapping[tuple[int, int], Scalar]
        | Iterable[tuple[int, int, Scalar]] = (),
    ):
        self._c = _pair_terms(coeffs, "exponents must be nonnegative")

    @classmethod
    def zero(cls) -> "WeylElement":
        return cls()

    @classmethod
    def one(cls) -> "WeylElement":
        return cls([(0, 0, 1)])

    @classmethod
    def p(cls, power: int = 1) -> "WeylElement":
        return cls([(power, 0, 1)])

    @classmethod
    def q(cls, power: int = 1) -> "WeylElement":
        return cls([(0, power, 1)])

    @classmethod
    def monomial(cls, deg_p: int, deg_q: int, coeff: Scalar) -> "WeylElement":
        return cls([(deg_p, deg_q, coeff)])

    @classmethod
    def from_poly(cls, f: UniPoly, axis: str = "p") -> "WeylElement":
        if axis == "p":
            return cls._new({(d, 0): a for d, a in f._c.items()})
        if axis == "q":
            return cls._new({(0, d): a for d, a in f._c.items()})
        raise ValueError("axis must be 'p' or 'q'")

    def items(self) -> list[tuple[int, int, Fraction]]:
        return sorted((i, j, a) for (i, j), a in self._c.items())

    def coeff(self, deg_p: int, deg_q: int) -> Fraction:
        return self._c.get((deg_p, deg_q), Fraction(0))

    @property
    def deg_p(self) -> int | None:
        return max(i for i, _ in self._c) if self._c else None

    @property
    def deg_q(self) -> int | None:
        return max(j for _, j in self._c) if self._c else None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self._c == other._c

    def __hash__(self) -> int:
        return hash(tuple(self.items()))

    def __mul__(self, other: "WeylElement | Scalar") -> "WeylElement":
        if isinstance(other, WeylElement):
            return weyl_mul(self, other)
        return _Sparse.__mul__(self, other)

    def p_part(self) -> UniPoly:
        """The q-free part, read as a polynomial in p."""
        return UniPoly._new({i: a for (i, j), a in self._c.items() if j == 0}, "p")

    def __str__(self) -> str:
        return _pair_str(self.items(), "p", "q")

    def __repr__(self) -> str:
        return f"WeylElement({self})"


def weyl_mul(a: WeylElement, b: WeylElement) -> WeylElement:
    """Product in normal form."""
    c: dict[tuple[int, int], Fraction] = {}
    for (i1, j1), a1 in a._c.items():
        for (i2, j2), a2 in b._c.items():
            coeff = a1 * a2
            for k in range(min(j1, i2) + 1):
                key = (i1 + i2 - k, j1 + j2 - k)
                w = coeff * factorial(k) * comb(j1, k) * comb(i2, k)
                c[key] = c[key] + w if key in c else w
    return WeylElement._new(c)


def weyl_endo(a: WeylElement, alpha: Scalar, h: UniPoly) -> WeylElement:
    """Apply the algebra endomorphism p -> p + alpha, q -> q - h(p).

    The images still satisfy the defining relation, so this is an
    automorphism of the Weyl algebra.
    """
    alpha = Fraction(alpha)
    if h.var != "p":
        h = h.retag("p")
    qh = WeylElement.q() - WeylElement.from_poly(h, "p")
    qh_powers: dict[int, WeylElement] = {0: WeylElement.one()}
    out = WeylElement.zero()
    for (i, j), c in sorted(a._c.items()):
        if j not in qh_powers:
            m = max(qh_powers)
            acc = qh_powers[m]
            for e in range(m + 1, j + 1):
                acc = weyl_mul(acc, qh)
                qh_powers[e] = acc
        pp = UniPoly.monomial(i, c, "p").shift(alpha)
        out = out + weyl_mul(WeylElement.from_poly(pp, "p"), qh_powers[j])
    return out


class WeylMatrix(_Matrix):
    """Square matrix over the Weyl algebra.

    The entry ring is noncommutative, so only rational scalars multiply
    directly; to multiply by an element w on one side, multiply by w * Id.
    """

    __slots__ = ()

    def __init__(self, rows: Sequence[Sequence[WeylElement | Scalar]]):
        def coerce(e):
            return e if isinstance(e, WeylElement) else WeylElement.monomial(0, 0, e)

        super().__init__(rows, coerce)

    @classmethod
    def identity(cls, n: int) -> "WeylMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, n: int) -> "WeylMatrix":
        return cls([[0] * n for _ in range(n)])

    @classmethod
    def from_poly_matrix(cls, m, axis: str = "p") -> "WeylMatrix":
        """Lift a matrix of univariate polynomials along one generator."""
        return cls._new(
            [[WeylElement.from_poly(e, axis) for e in r] for r in m.rows]
        )


def q_valuation(a: "WeylElement | WeylMatrix") -> int | None:
    """Least q-degree over all monomials, None for zero.

    A positive valuation means membership in W q (entrywise for matrices).
    """
    if isinstance(a, WeylMatrix):
        vals = [q_valuation(e) for r in a.rows for e in r]
        vals = [v for v in vals if v is not None]
        return min(vals) if vals else None
    return min((j for (_, j) in a._c), default=None)


def q_truncate(a: "WeylElement | WeylMatrix", n: int) -> "WeylElement | WeylMatrix":
    """Representative modulo right multiples of q^n: keep q-degrees < n."""
    if isinstance(a, WeylMatrix):
        return a.map(lambda e: q_truncate(e, n))
    return a._like({k: c for k, c in a._c.items() if k[1] < n})


@dataclass(frozen=True)
class HSeqPair:
    """The two q-free coefficient sequences attached to a shift h(p).

    lower[n] is the q-free part of (q - h)^n and upper[n] that of (q + h)^n;
    both satisfy first-order recurrences in n driven by h and d/dp.
    """

    h: UniPoly
    lower: tuple[UniPoly, ...]
    upper: tuple[UniPoly, ...]


def h_sequences(h: UniPoly, k_max: int) -> HSeqPair:
    if h.var != "p":
        h = h.retag("p")
    one = UniPoly.const(1, "p")
    lower = [one]
    upper = [one]
    for _ in range(k_max):
        lower.append(-h * lower[-1] + lower[-1].derivative())
        upper.append(h * upper[-1] + upper[-1].derivative())
    return HSeqPair(h, tuple(lower), tuple(upper))


def verify_h_identities(h: UniPoly, k_max: int) -> CheckResult:
    """Check the convolution and binomial identities tying the two sequences.

    For all 0 <= xi <= k <= k_max:
      sum_{s=xi}^{k} C(k-xi, s-xi) upper[s-xi] lower[k-s] = (1 if xi == k else 0)
    and for xi < k:
      sum_{s=xi}^{k-1} C(k,s) C(s,xi) upper[s-xi] lower[k-s] = -C(k,xi) upper[k-xi].
    """
    seqs = h_sequences(h, k_max)
    lo, up = seqs.lower, seqs.upper
    zero = UniPoly.zero("p")
    one = UniPoly.const(1, "p")
    failures: list[str] = []
    cases = 0
    for k in range(k_max + 1):
        for xi in range(k + 1):
            cases += 1
            acc = zero
            for s in range(xi, k + 1):
                acc = acc + comb(k - xi, s - xi) * (up[s - xi] * lo[k - s])
            want = one if xi == k else zero
            if acc != want:
                failures.append(f"convolution at k={k}, xi={xi}")
            if xi < k:
                cases += 1
                acc = zero
                for s in range(xi, k):
                    acc = acc + comb(k, s) * comb(s, xi) * (up[s - xi] * lo[k - s])
                if acc != -comb(k, xi) * up[k - xi]:
                    failures.append(f"binomial at k={k}, xi={xi}")
    return CheckResult(cases, tuple(failures))


def split_by_shift(a: WeylElement) -> tuple[WeylElement, UniPoly]:
    """Split a = stem * q + c with c free of q; returns (stem, c in k[p]).

    Applied to (q -+ h)^n this isolates the n-th entry of the corresponding
    coefficient sequence.
    """
    stem = a._like({(i, j - 1): c for (i, j), c in a._c.items() if j > 0})
    return stem, a.p_part()


def rebase_coefficients(coeffs: Sequence, h: UniPoly) -> list:
    """Rewrite operator coefficients from the q-power basis to x = q + h.

    Entries may be polynomial matrices over k[p] or plain polynomials in p;
    anything supporting addition and right multiplication by UniPoly works.
    Returns B with B_k = A_k + sum_{s<k} C(k,s) A_s lower[k-s].
    """
    return _rebase(coeffs, h, inverse=False)


def rebase_inverse(coeffs: Sequence, h: UniPoly) -> list:
    """Inverse of rebase_coefficients: A_k = sum_s C(k,s) B_s upper[k-s]."""
    return _rebase(coeffs, h, inverse=True)


def _rebase(coeffs: Sequence, h: UniPoly, inverse: bool) -> list:
    """X_k = Y_k + sum_{s<k} C(k,s) Y_s c[k-s] for Y = coeffs, with c the
    upper sequence of h when ``inverse`` and the lower one otherwise."""
    n = len(coeffs)
    if n == 0:
        return []
    seqs = h_sequences(h, n - 1)
    c = seqs.upper if inverse else seqs.lower
    out = []
    for k, y_k in enumerate(coeffs):
        acc = y_k
        for s in range(k):
            acc = acc + comb(k, s) * (coeffs[s] * c[k - s])
        out.append(acc)
    return out
