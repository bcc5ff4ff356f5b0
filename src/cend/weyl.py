"""The first Weyl algebra and its matrices.

Elements are kept in normal form: every word is rewritten as a rational
combination of monomials p^i q^j with all p's to the left, using the
defining relation q p = p q + 1. Multiplication uses the closed form

    (p^a q^b)(p^c q^d) = sum_k k! C(b,k) C(c,k) p^(a+c-k) q^(b+d-k),

which is what iterating the single swap produces.  A matrix over the Weyl
algebra is stored like ``ConformalElement``, as one sparse map
``{(row, col, p-degree, q-degree): coefficient}``, and its product applies
the same closed form to each pair of terms that meet at an inner index.

The module also carries the machinery for shifted powers of q: for a
polynomial h(p), the q-free parts of (q - h)^n and (q + h)^n form two
coefficient sequences tied together by convolution identities, and the
coefficient lists of operator families can be rebased between the q-power
and (q + h)-power bases.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Sequence

from .errors import CheckResult
from .poly import PolyMatrix, Scalar, UniPoly, _PairPoly, _Sparse, _SparseMatrix


class WeylElement(_PairPoly):
    """Element of the first Weyl algebra in normal form.

    Monomial keys are (degree in p, degree in q).
    """

    __slots__ = ()
    _vars = ("p", "q")
    _negative = "exponents must be nonnegative"

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
    def from_poly(cls, f: UniPoly) -> "WeylElement":
        """A polynomial read in p."""
        return cls._new({(d, 0): a for d, a in f._c.items()})

    def __mul__(self, other: "WeylElement | Scalar") -> "WeylElement":
        if isinstance(other, WeylElement):
            return weyl_mul(self, other)
        return _Sparse.__mul__(self, other)

    def p_part(self) -> UniPoly:
        """The q-free part, read as a polynomial in p."""
        return UniPoly._new({i: a for (i, j), a in self._c.items() if j == 0}, "p")


@lru_cache(maxsize=1024)
def _reorder(j: int, i: int) -> tuple[tuple[int, int], ...]:
    """``q^j p^i = sum_t w_t p^(i-t) q^(j-t)`` as the pairs ``(t, w_t)``,
    with ``w_t = t! C(j,t) C(i,t)``."""
    return tuple(
        (t, factorial(t) * comb(j, t) * comb(i, t)) for t in range(min(j, i) + 1)
    )


def weyl_mul(a: WeylElement, b: WeylElement) -> WeylElement:
    """Product in normal form."""
    c: dict[tuple[int, int], Fraction] = {}
    for (i1, j1), a1 in a._c.items():
        for (i2, j2), a2 in b._c.items():
            coeff = a1 * a2
            for t, w in _reorder(j1, i2):
                key = (i1 + i2 - t, j1 + j2 - t)
                x = coeff * w
                c[key] = c[key] + x if key in c else x
    return WeylElement._new(c)


def weyl_endo(a: "WeylElement | WeylMatrix", alpha: Scalar, h: UniPoly):
    """Apply the algebra endomorphism p -> p + alpha, q -> q - h(p) to an
    element, or entrywise to a matrix.

    The images still satisfy the defining relation, so this is an
    automorphism of the Weyl algebra.  A term c p^i q^j goes to
    c (p + alpha)^i (q - h)^j; the first factor is free of q, so it only
    raises the p-degrees of the normal form of (q - h)^j.
    """
    alpha = Fraction(alpha)
    if h.var != "p":
        h = h.retag("p")
    qh = WeylElement.q() - WeylElement.from_poly(h)
    qh_powers = [WeylElement.one()]
    out: dict = {}
    for key, c in a._c.items():
        *cell, i, j = key
        while len(qh_powers) <= j:
            qh_powers.append(weyl_mul(qh_powers[-1], qh))
        power = qh_powers[j]._c.items()
        for d, s in UniPoly.monomial(i, c, "p").shift(alpha)._c.items():
            for (e, f), x in power:
                k = (*cell, d + e, f)
                y = s * x
                out[k] = out[k] + y if k in out else y
    return a._like(out)


class WeylMatrix(_SparseMatrix):
    """Square matrix over the Weyl algebra.

    ``_c`` maps ``(row, col, p-degree, q-degree)`` to the nonzero
    coefficients, on the sparse matrix core that ``ConformalElement`` shares;
    ``rows`` and ``entry`` build ``WeylElement`` entries on demand.  The
    entry ring is noncommutative, so only rational scalars multiply
    directly; to multiply by an element w on one side, multiply by w * Id.
    """

    __slots__ = ()
    _entry = WeylElement

    def __mul__(self, other: "WeylMatrix | Scalar") -> "WeylMatrix":
        if type(other) is not WeylMatrix:
            return _Sparse.__mul__(self, other)
        self._require_same_tag(other)
        by_row: dict[int, list] = {}
        for (k, col, i, j), b in other._c.items():
            by_row.setdefault(k, []).append((col, i, j, b))
        acc: dict = {}
        for (r, k, i1, j1), a in self._c.items():
            for col, i2, j2, b in by_row.get(k, ()):
                coeff = a * b
                for t, w in _reorder(j1, i2):
                    key = (r, col, i1 + i2 - t, j1 + j2 - t)
                    x = coeff * w
                    acc[key] = acc[key] + x if key in acc else x
        return self._like(acc)

    @classmethod
    def from_poly_matrix(cls, m: PolyMatrix) -> "WeylMatrix":
        """A matrix of polynomials read in p."""
        return cls._new(
            {
                (r, col, d, 0): a
                for r, row in enumerate(m.rows)
                for col, e in enumerate(row)
                for d, a in e._c.items()
            },
            m.n,
        )


def q_valuation(a: "WeylElement | WeylMatrix") -> int | None:
    """Least q-degree over all monomials, None for zero.

    A positive valuation means membership in W q (entrywise for matrices).
    """
    return min((k[-1] for k in a._c), default=None)


def q_truncate(a: "WeylElement | WeylMatrix", n: int) -> "WeylElement | WeylMatrix":
    """Representative modulo right multiples of q^n: keep q-degrees < n."""
    return a._like({k: c for k, c in a._c.items() if k[-1] < n})


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
    # pair[i][j] = upper[i] * lower[j] for i + j <= k_max, each product once
    pair = [[up[i] * lo[j] for j in range(k_max + 1 - i)] for i in range(k_max + 1)]
    zero = UniPoly.zero("p")
    one = UniPoly.const(1, "p")

    def outcomes():
        for k in range(k_max + 1):
            for xi in range(k + 1):
                acc = zero
                for s in range(xi, k + 1):
                    acc = acc + comb(k - xi, s - xi) * pair[s - xi][k - s]
                want = one if xi == k else zero
                yield acc == want, f"convolution at k={k}, xi={xi}"
                if xi < k:
                    acc = zero
                    for s in range(xi, k):
                        acc = acc + comb(k, s) * comb(s, xi) * pair[s - xi][k - s]
                    want = -comb(k, xi) * up[k - xi]
                    yield acc == want, f"binomial at k={k}, xi={xi}"

    return CheckResult.collect(outcomes())


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
