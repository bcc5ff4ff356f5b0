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

(default and circ; (x)_m is the falling factorial).  ``nproducts`` evaluates
it for the whole table ``a (0) b, ..., a (L-1) b`` up to the locality L, and
``nproduct`` at a single index.  The rest of the package calls these two.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm
from typing import Mapping

from .errors import CheckResult, DimensionMismatchError
from .poly import BiPoly, PolyMatrix, Scalar, UniPoly, _Sparse, _SparseMatrix


class ConformalElement(_SparseMatrix):
    """Square matrix over k[D, v].

    ``_c`` is the coefficient map of the module docstring, on the sparse
    matrix core that ``WeylMatrix`` shares; ``rows`` and ``entry`` build
    ``BiPoly`` entries on demand.  Elements are immutable; the integer
    monomial form that products and degrees read is computed on first use
    and kept in ``_form``, which equality and hashing ignore.
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
        ma, den_a, _, _ = self._monomial_matrices()
        mb, den_b, _, _ = other._monomial_matrices()
        acc: dict = {}
        for i, ai in ma.items():
            for j, bj in mb.items():
                for p, ap in ai.items():
                    for q, bq in bj.items():
                        for (r, c), x in _sparse_matmul(ap, bq).items():
                            key = (r, c, i + j, p + q)
                            acc[key] = acc.get(key, 0) + x
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

    def _monomial_matrices(self) -> tuple[dict, int, int | None, int | None]:
        """``(mats, den, deg_d, deg_v)``, computed once per element.

        ``mats`` is ``{D-degree: {v-degree: {row: [(col, numerator)]}}}``
        with absent entries zero; the numerators are ints over the common
        denominator ``den``.  The degrees are None for the zero element.
        Every caller shares the cached dicts and only reads them.
        """
        try:
            return self._form
        except AttributeError:
            pass
        den = lcm(*(a.denominator for a in self._c.values()))
        mats: dict = {}
        for (r, col, i, p), a in self._c.items():
            mat = mats.setdefault(i, {}).setdefault(p, {})
            mat.setdefault(r, []).append((col, a.numerator * (den // a.denominator)))
        deg_v = max((p for by_v in mats.values() for p in by_v), default=None)
        self._form = (mats, den, max(mats, default=None), deg_v)
        return self._form

    @property
    def deg_d(self) -> int | None:
        return self._monomial_matrices()[2]

    @property
    def deg_v(self) -> int | None:
        return self._monomial_matrices()[3]

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


def _sparse_matmul(a: dict, b: dict) -> dict:
    """Product of two monomial matrices as ``{(row, col): int}``."""
    out: dict = {}
    for r, row in a.items():
        for k, x in row:
            for c, y in b.get(k, ()):
                out[r, c] = out.get((r, c), 0) + x * y
    return out


def _fold(prods: dict, m: int, circ: bool) -> dict:
    """The base product of order ``m`` as ``{(row, col, D-deg, v-deg): int}``.

    ``prods`` maps ``(p, q)`` to ``A_p B_q``; the default product weighs it
    by ``(q)_m`` at ``v^(p+q-m)``, the circ product by ``(p)_m C(p-m, s)``
    at ``D^s v^(p+q-m-s)`` for each ``s <= p - m``.
    """
    out: dict = {}
    for (p, q), mat in prods.items():
        if circ:
            if p < m:
                continue
            head = _falling(p, m)
            terms = [
                (s, p + q - m - s, head * comb(p - m, s)) for s in range(p - m + 1)
            ]
        else:
            if q < m:
                continue
            terms = [(0, p + q - m, _falling(q, m))]
        for s, e, w in terms:
            for (r, c), x in mat.items():
                key = (r, c, s, e)
                out[key] = out.get(key, 0) + w * x
    return out


def _sesquilinear_sweep(
    a: ConformalElement, b: ConformalElement, ns: range, circ: bool
) -> tuple[list[dict], int]:
    """Extend the D-free base product to all of M_N(k[D,v]), for each n in ns.

    This is the unique extension satisfying the two sesquilinearity laws:
    each D peeled off the left factor contributes a factor -n and lowers n,
    each D on the right Leibniz-splits into an outer D and an n-lowering.
    With a = sum D^i v^p A_ip and b = sum D^j v^q B_jq, where A_ip and B_jq
    are rational matrices, that gives, for m = n - i - t,

        a (n) b = sum (-1)^i C(j,t) n!/m! (q)_m D^(j-t) v^(p+q-m) A_ip B_jq

    for the default products and

        a (n) b = sum (-1)^i C(j,t) n!/m! (p)_m C(p-m,s)
                      D^(j-t+s) v^(p+q-m-s) A_ip B_jq

    (0 <= s <= p - m) for the circ products, with (x)_m the falling
    factorial.  For each pair (i, j) the sweep multiplies every pair of
    monomial matrices once, folds the products into one base product per
    m, and scatters each base product into every n it reaches.  All
    arithmetic is on integer numerators over the factors' common
    denominators: the result is one accumulator
    ``{(row, col, D-deg, v-deg): numerator}`` per n, which may hold zero
    values, and the denominator ``den_a * den_b`` they share.
    """
    ma, den_a, _, _ = a._monomial_matrices()
    mb, den_b, _, _ = b._monomial_matrices()
    accs: list[dict] = [{} for _ in ns]
    for i, ai in ma.items():
        sign = -1 if i % 2 else 1
        for j, bj in mb.items():
            # the base product of order m vanishes past the v-degree of the
            # factor it differentiates; n = i + t + m must lie in ns
            top = max(ai) if circ else max(bj)
            ms = range(max(ns.start - i - j, 0), min(top + 1, ns.stop - i))
            if not ms:
                continue
            prods = {
                (p, q): _sparse_matmul(ap, bq)
                for p, ap in ai.items()
                for q, bq in bj.items()
                if (p if circ else q) >= ms.start
            }
            for m in ms:
                base = _fold(prods, m, circ)
                ts = range(max(ns.start - i - m, 0), min(j, ns.stop - 1 - i - m) + 1)
                for t in ts:
                    n = i + t + m
                    w = sign * comb(j, t) * _falling(n, i + t)
                    shift = j - t
                    acc = accs[n - ns.start]
                    for (r, c, s, e), x in base.items():
                        key = (r, c, s + shift, e)
                        acc[key] = acc.get(key, 0) + w * x
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


def _degree_or_zero(d: int | None) -> int:
    return 0 if d is None else d


def locality_bound(a: ConformalElement, b: ConformalElement) -> int:
    """An upper bound for the locality of the pair (valid for both kinds)."""
    return (
        _degree_or_zero(a.deg_d)
        + _degree_or_zero(b.deg_d)
        + _degree_or_zero(a.deg_v)
        + _degree_or_zero(b.deg_v)
        + 1
    )


def _product_bound(
    a: ConformalElement, b: ConformalElement, circ: bool
) -> int:
    """The family's bound for the locality, at most ``locality_bound``."""
    differentiated = a if circ else b
    return (
        _degree_or_zero(a.deg_d)
        + _degree_or_zero(b.deg_d)
        + _degree_or_zero(differentiated.deg_v)
        + 1
    )


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


def _brackets(
    a: ConformalElement, b: ConformalElement
) -> tuple[ConformalElement, ...]:
    """[a (n) b] for n < max(locality(a, b), locality(b, a)); later ones vanish."""
    ab, ba = nproducts(a, b), nproducts(b, a)
    zero = ConformalElement.zero(a.n)
    return tuple(
        _bracket_from(ab[n] if n < len(ab) else zero, ba, n)
        for n in range(max(len(ab), len(ba)))
    )


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
    failures = []
    cases = 0
    zero = ConformalElement.zero(a.n)
    # each distinct product is evaluated once; the keys are safe because
    # every factor is a, b, c or a product the memo keeps alive
    memo: dict = {}

    def prod(x: ConformalElement, k: int, y: ConformalElement) -> ConformalElement:
        key = (id(x), k, id(y))
        if key not in memo:
            memo[key] = nproduct(x, k, y, circ)
        return memo[key]

    for n in range(n_max + 1):
        for m in range(m_max + 1):
            cases += 2
            lhs = prod(prod(a, n, b), m, c)
            rhs = zero
            for s in range(n + 1):
                t = prod(a, n - s, prod(b, m + s, c)) * comb(n, s)
                rhs = rhs + (-t if s % 2 else t)
            if lhs != rhs:
                failures.append(f"left-expansion at n={n}, m={m}")
            lhs = prod(a, n, prod(b, m, c))
            rhs = zero
            for s in range(n + 1):
                rhs = rhs + prod(prod(a, n - s, b), m + s, c) * comb(n, s)
            if lhs != rhs:
                failures.append(f"right-expansion at n={n}, m={m}")
    return CheckResult(cases, tuple(failures))


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
    failures = []
    cases = 0
    zero = ConformalElement.zero(a.n)
    tables: dict = {}

    def br(x: ConformalElement, k: int, y: ConformalElement) -> ConformalElement:
        if (x, y) not in tables:
            tables[(x, y)] = _brackets(x, y)
        table = tables[(x, y)]
        return table[k] if k < len(table) else zero

    for n in range(n_max + 1):
        cases += 1
        lhs = br(a, n, b)
        rhs = zero
        # brackets of the reversed pair vanish once both raw localities pass
        limit = len(tables[(a, b)])
        for s in range(max(limit - n, 0)):
            t = br(b, n + s, a)._mul_monomial(s, 0) * Fraction(1, factorial(s))
            if (n + s) % 2 == 0:
                t = -t
            rhs = rhs + t
        if lhs != rhs:
            failures.append(f"skew at n={n}")
    for n in range(n_max + 1):
        for m in range(m_max + 1):
            cases += 1
            lhs = br(a, n, br(b, m, c)) - br(b, m, br(a, n, c))
            rhs = zero
            for s in range(n + 1):
                rhs = rhs + br(br(a, n - s, b), m + s, c) * comb(n, s)
            if lhs != rhs:
                failures.append(f"jacobi at n={n}, m={m}")
    return CheckResult(cases, tuple(failures))
