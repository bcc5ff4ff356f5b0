"""Matrices over k[D, v] with their families of n-products.

An element is an N x N matrix with entries in the commutative ring k[D, v],
stored as one sparse map ``{(row, col, D-degree, v-degree): coefficient}``
that holds only nonzero ``Fraction`` coefficients.  Two families of
bilinear n-products live on this space:

* the composition products coming from matrix differential operators acting
  on column vectors of polynomials (``circ=False``, the default), and
* the transported products (``circ=True``) obtained by conjugating with the
  base-change map `phi` (substitute v -> v + D entrywise), under which the
  default products become left-multiplication-friendly.

Both satisfy the same two-sided sesquilinearity laws in D:

    (D a) (n) b = -n * a (n-1) b
    a (n) (D b) = D (a (n) b) + n * a (n-1) b

together with finiteness: for fixed a, b the products vanish for all large
n. The recursion defined by those laws (with the D-free base case) is
implemented verbatim in ``nproduct_recursive``.  Its closed form is a sum
over monomials: writing a = sum D^i v^p A_ip and b = sum D^j v^q B_jq with
rational matrices A_ip, B_jq, each product is a weighted sum of the
matrix products A_ip B_jq, for m = n - i - t,

    a (n) b   = sum (-1)^i C(j,t) n!/m! (q)_m D^(j-t) v^(p+q-m) A_ip B_jq,
    a (n)' b  = sum (-1)^i C(j,t) n!/m! (p)_m C(p-m,s)
                    D^(j-t+s) v^(p+q-m-s) A_ip B_jq

(default and circ; (x)_m is the falling factorial).  The weights depend
only on i, j and the v-degree of the factor that is differentiated (q,
respectively p), so ``_weights`` tabulates them once per such triple and
family, in a memo shared by every call.  Each element keeps an
integer term form: its terms ``(row, col, D-degree, v-degree, numerator)``
over one common denominator, also grouped by row.  Products pair the terms
whose inner indices match and scatter the tabulated weights.
``nproducts`` evaluates the whole table ``a (0) b, ..., a (L-1) b`` up to
the locality L, and ``nproduct`` a single index; the rest of the package
calls these two.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from typing import Mapping

from .errors import CheckResult, DimensionMismatchError
from .poly import BiPoly, PolyMatrix, Scalar, UniPoly, _Sparse, _SparseMatrix


class ConformalElement(_SparseMatrix):
    """Square matrix over k[D, v].

    ``_c`` is the coefficient map of the module docstring, on the sparse
    matrix core that ``WeylMatrix`` shares; ``rows`` and ``entry`` build
    ``BiPoly`` entries on demand.  Elements are immutable; the integer
    term form that products and degrees read is computed on first use and
    kept in ``_form``, which equality and hashing ignore.
    """

    __slots__ = ("_form",)
    _entry = BiPoly

    @classmethod
    def scalar(cls, n: int, f: BiPoly) -> "ConformalElement":
        """f * Id."""
        return cls._new(
            {(k, k, i, p): a for k in range(n) for (i, p), a in f._c.items()}, n
        )

    @classmethod
    def single(cls, n: int, i: int, j: int, f: BiPoly) -> "ConformalElement":
        """f * e_ij."""
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"entry ({i}, {j}) outside a {n} x {n} matrix")
        return cls._new({(i, j, d, p): a for (d, p), a in f._c.items()}, n)

    @classmethod
    def from_d_coeffs(
        cls, coeffs: Mapping[int, PolyMatrix], n: int
    ) -> "ConformalElement":
        """Assemble sum_i D^i * A_i from v-coefficient matrices A_i."""
        c: dict = {}
        for i, mat in coeffs.items():
            if mat.n != n:
                raise DimensionMismatchError("coefficient matrix size mismatch")
            for r, row in enumerate(mat.rows):
                for col, e in enumerate(row):
                    for p, a in e._c.items():
                        c[r, col, i, p] = a
        return cls._new(c, n)

    def __mul__(
        self, other: "ConformalElement | BiPoly | Scalar"
    ) -> "ConformalElement":
        if isinstance(other, BiPoly):
            c: dict = {}
            for (r, col, i, p), a in self._c.items():
                for (j, q), b in other._c.items():
                    key = (r, col, i + j, p + q)
                    c[key] = c[key] + a * b if key in c else a * b
            return self._like(c)
        if type(other) is not ConformalElement:
            return _Sparse.__mul__(self, other)
        self._require_same_tag(other)
        # the entries commute: D^i v^p A * D^j v^q B = D^(i+j) v^(p+q) AB
        terms, _, den_a, _, _ = self._term_form()
        _, by_row, den_b, _, _ = other._term_form()
        acc: dict = {}
        for r, k, i, p, x in terms:
            for c, j, q, y in by_row.get(k, ()):
                key = (r, c, i + j, p + q)
                acc[key] = acc.get(key, 0) + x * y
        return _assemble(self.n, [acc], den_a * den_b)[0]

    def _mul_monomial(self, i: int, p: int) -> "ConformalElement":
        """Multiply by D^i v^p * Id."""
        return self._like(
            {(r, c, d + i, e + p): a for (r, c, d, e), a in self._c.items()}
        )

    def d_mul(self) -> "ConformalElement":
        """Multiply by D * Id."""
        return self._mul_monomial(1, 0)

    def v_mul(self) -> "ConformalElement":
        """Multiply by v * Id."""
        return self._mul_monomial(0, 1)

    def _subst_v(self, c: Scalar, d: int) -> "ConformalElement":
        """Substitute v -> v + c * D^d (d is 0 or 1) in every entry:
        D^i v^p becomes sum_k C(p, k) c^(p-k) D^(i + d(p-k)) v^k."""
        if not c:
            return self
        out: dict = {}
        for (r, col, i, p), a in self._c.items():
            for k in range(p + 1):
                key = (r, col, i + d * (p - k), k)
                t = a * (comb(p, k) * c ** (p - k))
                out[key] = out[key] + t if key in out else t
        return self._like(out)

    def _term_form(self) -> tuple[tuple, dict, int, int | None, int | None]:
        """``(terms, by_row, den, deg_d, deg_v)``, computed once per element.

        ``terms`` holds one ``(row, col, D-degree, v-degree, numerator)``
        per nonzero coefficient, with int numerators over the common
        denominator ``den``.  ``by_row`` maps a row to the
        ``(col, D-degree, v-degree, numerator)`` of its terms, which is how
        a right factor is read.  The degrees are None for the zero element.
        Every caller shares the cached form and only reads it.
        """
        try:
            return self._form
        except AttributeError:
            pass
        den = lcm(*(a.denominator for a in self._c.values()))
        terms = tuple(
            (r, col, i, p, a.numerator * (den // a.denominator))
            for (r, col, i, p), a in self._c.items()
        )
        by_row: dict = {}
        for r, col, i, p, x in terms:
            by_row.setdefault(r, []).append((col, i, p, x))
        deg_d = max((t[2] for t in terms), default=None)
        deg_v = max((t[3] for t in terms), default=None)
        self._form = (terms, by_row, den, deg_d, deg_v)
        return self._form

    @property
    def deg_d(self) -> int | None:
        return self._term_form()[3]

    @property
    def deg_v(self) -> int | None:
        return self._term_form()[4]

    def d_coeffs(self) -> dict[int, PolyMatrix]:
        """Decompose as sum_i D^i A_i(v); returns {i: A_i} over k[v]."""
        out: dict[int, list[list[dict]]] = {}
        for (r, col, i, p), a in self._c.items():
            if i not in out:
                out[i] = [[{} for _ in range(self.n)] for _ in range(self.n)]
            out[i][r][col][p] = a
        return {
            i: PolyMatrix._new([[UniPoly._new(x, "v") for x in row] for row in cells])
            for i, cells in out.items()
        }


def v_id(n: int) -> ConformalElement:
    return ConformalElement.scalar(n, BiPoly.v())


def d_id(n: int) -> ConformalElement:
    return ConformalElement.scalar(n, BiPoly.D())


def curr_embed(mat: PolyMatrix) -> ConformalElement:
    """Embed a matrix over k[D] as a v-free element (the current part)."""
    return ConformalElement._new(
        {
            (r, col, i, 0): a
            for r, row in enumerate(mat.rows)
            for col, e in enumerate(row)
            for i, a in e._c.items()
        },
        mat.n,
    )


def _dmat(mat: PolyMatrix, m: int) -> PolyMatrix:
    for _ in range(m):
        mat = mat.map(lambda e: e.derivative())
    return mat


def _base_diff(a: PolyMatrix, m: int, b: PolyMatrix) -> dict[int, PolyMatrix]:
    # composition of A with the m-th derivative followed by B, D-free case
    return {0: a * _dmat(b, m)}


def _base_circ(a: PolyMatrix, m: int, b: PolyMatrix) -> dict[int, PolyMatrix]:
    out: dict[int, PolyMatrix] = {}
    s = 0
    der = _dmat(a, m)
    while not der.is_zero():
        out[s] = der * b * Fraction(1, factorial(s))
        der = _dmat(der, 1)
        s += 1
    return out


def _falling(n: int, k: int) -> int:
    out = 1
    for i in range(k):
        out *= n - i
    return out


# Bounds the weight memo below, which every sweep shares.  Full, it holds at
# most 3.4 MB while every degree is at most 8; the benchmark's verify
# workload at five seeds fills 239 entries.
_WEIGHT_TABLES = 512


@lru_cache(maxsize=_WEIGHT_TABLES)
def _weights(i: int, j: int, top: int, circ: bool) -> tuple:
    """Weights of the closed form for the monomials D^i v^p and D^j v^q.

    ``top`` is the v-degree of the factor that the base product
    differentiates: q for the default products, p for the circ ones.  The
    other v-degree only adds to every v-degree, so the table is given with
    it at 0.  It holds one ``(n, D-degree, v-degree, w)`` per monomial that
    ``D^i v^p A (n) D^j v^q B`` reaches, where w is the summed weight of AB
    there.  For each t <= j and m = n - i - t, the default products give
    (-1)^i C(j,t) n!/m! (q)_m at D^(j-t) v^(p+q-m), and the circ products
    give (-1)^i C(j,t) n!/m! (p)_m C(p-m,s) at D^(j-t+s) v^(p+q-m-s) for
    each s <= p - m.
    """
    sign = -1 if i % 2 else 1
    out: dict = {}
    for t in range(j + 1):
        for m in range(top + 1):
            n = i + t + m
            w = sign * comb(j, t) * _falling(n, i + t) * _falling(top, m)
            if not circ:
                out[n, j - t, top - m] = w
                continue
            for s in range(top - m + 1):
                key = (n, j - t + s, top - m - s)
                out[key] = out.get(key, 0) + w * comb(top - m, s)
    return tuple((n, d, e, w) for (n, d, e), w in out.items())


def _sesquilinear_sweep(
    a: ConformalElement, b: ConformalElement, ns: range, circ: bool
) -> tuple[list[dict], int]:
    """Extend the D-free base product to all of M_N(k[D,v]), for each n in ns.

    This is the unique extension satisfying the two sesquilinearity laws:
    each D peeled off the left factor contributes a factor -n and lowers n,
    each D on the right Leibniz-splits into an outer D and an n-lowering.
    Its closed form (module docstring) weighs each product of a term
    x D^i v^p e_rk of a with a term y D^j v^q e_kc of b by the entries of
    ``_weights(i, j, q, False)`` or ``_weights(i, j, p, True)``, with their
    v-degrees raised by p or q.  The sweep pairs the terms whose inner
    indices match and scatters ``x * y * w`` into every n of ns that the
    pair reaches; the other entries are skipped.  All arithmetic is on the
    integer numerators of the factors' term forms: the result is one
    accumulator ``{(row, col, D-deg, v-deg): numerator}`` per n, which may
    hold zero values, and the denominator ``den_a * den_b`` they share.
    """
    terms, _, den_a, _, _ = a._term_form()
    _, by_row, den_b, _, _ = b._term_form()
    start, stop = ns.start, ns.stop
    accs: list[dict] = [{} for _ in ns]
    for r, k, i, p, x in terms:
        for c, j, q, y in by_row.get(k, ()):
            xy = x * y
            top, other = (p, q) if circ else (q, p)
            for n, d, e, w in _weights(i, j, top, circ):
                if start <= n < stop:
                    acc = accs[n - start]
                    key = (r, c, d, e + other)
                    acc[key] = acc.get(key, 0) + w * xy
    return accs, den_a * den_b


def _assemble(n: int, accs: list[dict], den: int) -> list[ConformalElement]:
    """The N x N elements holding the accumulators' numerators over ``den``;
    each nonzero coefficient becomes a Fraction once."""
    return [
        ConformalElement._new({k: Fraction(x, den) for k, x in acc.items() if x}, n)
        for acc in accs
    ]


def nproduct(
    a: ConformalElement, n: int, b: ConformalElement, circ: bool = False
) -> ConformalElement:
    """The n-th product of a and b (closed form)."""
    a._require_same_tag(b)
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _assemble(a.n, *_sesquilinear_sweep(a, b, range(n, n + 1), circ))[0]


def nproducts(
    a: ConformalElement, b: ConformalElement, circ: bool = False
) -> tuple[ConformalElement, ...]:
    """Every product ``a (0) b, ..., a (L-1) b`` up to the locality L.

    Trailing zeros are trimmed, so the last entry is nonzero and
    ``len(nproducts(a, b, circ)) == locality(a, b, circ)``.  The products
    are computed in one sweep up to the family's bound: a (n) b = 0 once
    n > deg_D a + deg_D b + deg_v b (default) or deg_D a + deg_D b + deg_v a
    (``circ``), because the base product is limited by the v-degree of the
    factor it differentiates.
    """
    a._require_same_tag(b)
    ns = range(_product_bound(a, b, circ))
    table = _assemble(a.n, *_sesquilinear_sweep(a, b, ns, circ))
    while table and table[-1].is_zero():
        table.pop()
    return tuple(table)


def nproduct_recursive(
    a: ConformalElement, n: int, b: ConformalElement, circ: bool = False
) -> ConformalElement:
    """Same products, evaluated by the defining recursion.

    Kept as an independent reference implementation; tests compare it
    against the closed form.
    """
    if a.n != b.n:
        raise DimensionMismatchError(f"sizes {a.n} and {b.n}")
    if n < 0:
        raise ValueError("n must be nonnegative")
    size = a.n
    base = _base_circ if circ else _base_diff

    def go(x: ConformalElement, k: int, y: ConformalElement) -> ConformalElement:
        if x.is_zero() or y.is_zero():
            return ConformalElement.zero(size)
        dx = x.d_coeffs()
        if any(i > 0 for i in dx):
            rest = ConformalElement.from_d_coeffs(
                {i - 1: m for i, m in dx.items() if i > 0}, size
            )
            head = ConformalElement.from_d_coeffs(
                {0: dx[0]} if 0 in dx else {}, size
            )
            out = ConformalElement.zero(size) if k == 0 else go(rest, k - 1, y) * (-k)
            return out + go(head, k, y)
        dy = y.d_coeffs()
        if any(j > 0 for j in dy):
            rest = ConformalElement.from_d_coeffs(
                {j - 1: m for j, m in dy.items() if j > 0}, size
            )
            head = ConformalElement.from_d_coeffs(
                {0: dy[0]} if 0 in dy else {}, size
            )
            out = go(x, k, rest).d_mul()
            if k > 0:
                out = out + go(x, k - 1, rest) * k
            return out + go(x, k, head)
        return ConformalElement.from_d_coeffs(
            base(dx.get(0, PolyMatrix.zeros(size, "v")), k,
                 dy.get(0, PolyMatrix.zeros(size, "v"))),
            size,
        )

    return go(a, n, b)


def locality_bound(a: ConformalElement, b: ConformalElement) -> int:
    """An upper bound for the locality of the pair (valid for both kinds)."""
    _, _, _, da, va = a._term_form()
    _, _, _, db, vb = b._term_form()
    return (da or 0) + (db or 0) + (va or 0) + (vb or 0) + 1


def _product_bound(
    a: ConformalElement, b: ConformalElement, circ: bool
) -> int:
    """The family's bound for the locality, at most ``locality_bound``."""
    _, _, _, da, va = a._term_form()
    _, _, _, db, vb = b._term_form()
    return (da or 0) + (db or 0) + ((va if circ else vb) or 0) + 1


def locality(
    a: ConformalElement, b: ConformalElement, circ: bool = False
) -> int:
    """Least L with a (n) b = 0 for all n >= L.

    Zero when every product vanishes (in particular if a or b is zero).
    For the default products L <= deg_D a + deg_D b + deg_v b + 1, for the
    circ products L <= deg_D a + deg_D b + deg_v a + 1: the index left to
    the D-free base product is limited by the v-degree of the factor it
    differentiates (b, respectively a).
    """
    return len(nproducts(a, b, circ))


def _bracket_from(
    ab_n: ConformalElement, ba: tuple[ConformalElement, ...], n: int
) -> ConformalElement:
    """[a (n) b] from a (n) b and the product table of (b, a)."""
    out = ab_n
    for s, prod in enumerate(ba[n:]):
        term = prod._mul_monomial(s, 0) * Fraction(1, factorial(s))
        if (n + s) % 2 == 0:
            term = -term
        out = out + term
    return out


def bracket(a: ConformalElement, n: int, b: ConformalElement) -> ConformalElement:
    """The commutator-type product over the default n-products:

    [a (n) b] = a (n) b - sum_s (-1)^(n+s) D^s/s! (b (n+s) a).
    """
    return _bracket_from(nproduct(a, n, b), nproducts(b, a), n)


def phi(a: ConformalElement) -> ConformalElement:
    """Base change v -> v + D; carries the default products to the circ ones."""
    return a._subst_v(1, 1)


def phi_inv(a: ConformalElement) -> ConformalElement:
    return a._subst_v(-1, 1)


def sigma(a: ConformalElement) -> ConformalElement:
    """The involution: transpose composed with (D, v) -> (-D, v - D)."""
    flipped = {(c, r, i, p): -x if i % 2 else x for (r, c, i, p), x in a._c.items()}
    return ConformalElement._new(flipped, a.n)._subst_v(-1, 1)


def check_associativity(
    a: ConformalElement,
    b: ConformalElement,
    c: ConformalElement,
    n_max: int,
    m_max: int,
    circ: bool = False,
) -> CheckResult:
    """Check both rewriting identities of the product family:

      (a(n) b)(m) c = sum_s (-1)^s C(n,s) a(n-s) (b(m+s) c)
      a(n) (b(m) c) = sum_s C(n,s) (a(n-s) b)(m+s) c

    for all n <= n_max, m <= m_max.
    """
    zero = ConformalElement.zero(a.n)
    # each distinct product is evaluated once; the keys are safe because
    # every factor is a, b, c or a product the memo keeps alive
    memo: dict = {}

    def prod(x: ConformalElement, k: int, y: ConformalElement) -> ConformalElement:
        key = (id(x), k, id(y))
        if key not in memo:
            memo[key] = nproduct(x, k, y, circ)
        return memo[key]

    def outcomes():
        for n in range(n_max + 1):
            for m in range(m_max + 1):
                lhs = prod(prod(a, n, b), m, c)
                rhs = zero
                for s in range(n + 1):
                    t = prod(a, n - s, prod(b, m + s, c)) * comb(n, s)
                    rhs = rhs + (-t if s % 2 else t)
                yield lhs == rhs, f"left-expansion at n={n}, m={m}"
                lhs = prod(a, n, prod(b, m, c))
                rhs = zero
                for s in range(n + 1):
                    rhs = rhs + prod(prod(a, n - s, b), m + s, c) * comb(n, s)
                yield lhs == rhs, f"right-expansion at n={n}, m={m}"

    return CheckResult.collect(outcomes())


def check_lie(
    a: ConformalElement,
    b: ConformalElement,
    c: ConformalElement,
    n_max: int,
    m_max: int,
) -> CheckResult:
    """Check skew-symmetry and the Jacobi-type expansion for the bracket.

    The bracket is the lambda-commutator of the two product tables, so it is
    skew by construction: the skew cases check only how ``_bracket_from``
    assembles it from those tables.  A faulty product table shows up only in
    the Jacobi cases.
    """
    zero = ConformalElement.zero(a.n)
    # each ordered pair's product table is swept once, and serves the
    # bracket tables of both orders; the keys are safe because every factor
    # is a, b, c, zero or a bracket that ``brackets`` keeps alive
    tables: dict = {}
    brackets: dict = {}

    def table(x: ConformalElement, y: ConformalElement) -> tuple:
        key = (id(x), id(y))
        if key not in tables:
            tables[key] = nproducts(x, y)
        return tables[key]

    def bracket_table(x: ConformalElement, y: ConformalElement) -> tuple:
        key = (id(x), id(y))
        if key not in brackets:
            ab, ba = table(x, y), table(y, x)
            brackets[key] = tuple(
                _bracket_from(ab[k] if k < len(ab) else zero, ba, k)
                for k in range(max(len(ab), len(ba)))
            )
        return brackets[key]

    def br(x: ConformalElement, k: int, y: ConformalElement) -> ConformalElement:
        got = bracket_table(x, y)
        return got[k] if k < len(got) else zero

    def outcomes():
        for n in range(n_max + 1):
            lhs = br(a, n, b)
            rhs = zero
            # brackets of the reversed pair vanish once both raw localities pass
            limit = len(bracket_table(a, b))
            for s in range(max(limit - n, 0)):
                t = br(b, n + s, a)._mul_monomial(s, 0) * Fraction(1, factorial(s))
                if (n + s) % 2 == 0:
                    t = -t
                rhs = rhs + t
            yield lhs == rhs, f"skew at n={n}"
        for n in range(n_max + 1):
            for m in range(m_max + 1):
                lhs = br(a, n, br(b, m, c)) - br(b, m, br(a, n, c))
                rhs = zero
                for s in range(n + 1):
                    rhs = rhs + br(br(a, n - s, b), m + s, c) * comb(n, s)
                yield lhs == rhs, f"jacobi at n={n}, m={m}"

    return CheckResult.collect(outcomes())
