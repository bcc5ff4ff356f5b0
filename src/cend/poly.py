"""Exact polynomial kernel over the rationals.

Sparse univariate and bivariate polynomials with ``fractions.Fraction``
coefficients on one shared sparse core.  On top of it sit the pair-keyed
core that ``BiPoly`` shares with the Weyl algebra's ``WeylElement``, and the
sparse-matrix core behind ``ConformalElement`` and ``WeylMatrix``, which
store a matrix as one map ``{(row, col, i, j): coefficient}`` over the
entries' monomials.  ``PolyMatrix`` is a dense matrix over k[x].  The two
matrix normal forms everything else is built on are the Smith form with
unimodular witnesses over k[x], which also inverts unimodular matrices, and
a reduced echelon (Hermite) basis for finitely generated submodules of
k[D]^L.  A basis grows by ``extend``: each new row is reduced against the
pivot rows by Euclid's algorithm on its leading coordinate, with no Bezout
cofactors.

All values are immutable after construction; every operation returns a new
object. Zero coefficients are never stored, so structural equality is
semantic equality.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from .errors import DimensionMismatchError, NotUnimodularError

Scalar = int | Fraction


def rat(x: Scalar | str) -> Fraction:
    """Coerce ints, Fractions, and strings like ``"-3/4"`` to a rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise TypeError(f"cannot interpret {x!r} as a rational")


def _term_str(coeff: Fraction, mono: str) -> str:
    if not mono:
        return str(coeff)
    if coeff == 1:
        return mono
    if coeff == -1:
        return f"-{mono}"
    return f"{coeff}*{mono}"


def _join_terms(terms: list[str]) -> str:
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


class _Sparse:
    """Shared core of the sparse polynomial classes and ``ConformalElement``.

    ``_c`` maps monomial keys to nonzero ``Fraction`` coefficients.  The
    public constructors validate and normalize data from outside; results of
    internal arithmetic are built by ``_like``, which trusts its input, keeps
    the tag and only drops zero values.
    """

    __slots__ = ("_c",)
    _unit = (0, 0)  # key of the constant monomial

    @classmethod
    def _new(cls, c: dict) -> "_Sparse":
        """Trusted builder: ``c`` maps well-formed keys to Fractions."""
        out = object.__new__(cls)
        out._c = {k: a for k, a in c.items() if a}
        return out

    def _like(self, c: dict) -> "_Sparse":
        """A value of this class and tag holding the nonzero terms of ``c``."""
        return self._new(c)

    def _require_same_tag(self, other: "_Sparse") -> None:
        pass  # untagged classes; UniPoly compares its variable

    def is_zero(self) -> bool:
        return not self._c

    def __bool__(self) -> bool:
        return bool(self._c)

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._require_same_tag(other)
        c = dict(self._c)
        for k, a in other._c.items():
            c[k] = c[k] + a if k in c else a
        return self._like(c)

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._require_same_tag(other)
        c = dict(self._c)
        for k, a in other._c.items():
            c[k] = c[k] - a if k in c else -a
        return self._like(c)

    def __neg__(self):
        return self._like({k: -a for k, a in self._c.items()})

    def __mul__(self, other):
        """Scalar multiple; each subclass adds its ring product."""
        if isinstance(other, (int, Fraction)):
            return self._like({k: a * other for k, a in self._c.items()})
        return NotImplemented

    def __rmul__(self, other):
        # scalars commute with every element, and only scalars land here
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = self.one_like()
        for _ in range(n):
            out = out * self
        return out

    def zero_like(self):
        return self._like({})

    def one_like(self):
        return self._like({self._unit: Fraction(1)})


class UniPoly(_Sparse):
    """Sparse polynomial in one variable over the rationals.

    The variable tag keeps k[D]- and k[v]-valued data from being mixed
    silently: binary operations require equal tags.
    """

    __slots__ = ("var",)
    _unit = 0

    def __init__(
        self,
        coeffs: Mapping[int, Scalar] | Iterable[tuple[int, Scalar]] = (),
        var: str = "x",
    ):
        if isinstance(coeffs, dict) or isinstance(coeffs, Mapping):
            coeffs = coeffs.items()
        acc: dict[int, Fraction] = {}
        for d, a in coeffs:
            d = int(d)
            if d < 0:
                raise ValueError("polynomial degrees must be nonnegative")
            a = Fraction(a)
            if d in acc:
                acc[d] += a
            elif a:
                acc[d] = a
        self.var = var
        self._c = {d: a for d, a in acc.items() if a}

    @classmethod
    def _new(cls, c: dict[int, Fraction], var: str) -> "UniPoly":
        """Trusted builder: ``c`` maps nonnegative degrees to Fractions."""
        out = object.__new__(cls)
        out.var = var
        out._c = {d: a for d, a in c.items() if a}
        return out

    def _like(self, c: dict[int, Fraction]) -> "UniPoly":
        return UniPoly._new(c, self.var)

    @classmethod
    def zero(cls, var: str) -> "UniPoly":
        return cls._new({}, var)

    @classmethod
    def const(cls, a: Scalar, var: str) -> "UniPoly":
        return cls({0: a}, var)

    @classmethod
    def gen(cls, var: str) -> "UniPoly":
        """The variable itself."""
        return cls({1: 1}, var)

    @classmethod
    def monomial(cls, deg: int, coeff: Scalar, var: str) -> "UniPoly":
        return cls({deg: coeff}, var)

    def items(self) -> list[tuple[int, Fraction]]:
        return sorted(self._c.items())

    def coeff(self, deg: int) -> Fraction:
        return self._c.get(deg, Fraction(0))

    @property
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial."""
        return max(self._c) if self._c else None

    @property
    def lead(self) -> Fraction:
        return self._c[max(self._c)] if self._c else Fraction(0)

    def _require_same_tag(self, other: "UniPoly") -> None:
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var!r} vs {other.var!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.var == other.var and self._c == other._c

    def __hash__(self) -> int:
        return hash((self.var, tuple(self.items())))

    def __mul__(self, other: "UniPoly | Scalar") -> "UniPoly":
        if isinstance(other, UniPoly):
            self._require_same_tag(other)
            c: dict[int, Fraction] = {}
            for d1, a1 in self._c.items():
                for d2, a2 in other._c.items():
                    d = d1 + d2
                    a = a1 * a2
                    c[d] = c[d] + a if d in c else a
            return UniPoly._new(c, self.var)
        return _Sparse.__mul__(self, other)

    def __divmod__(self, g: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        self._require_same_tag(g)
        if not g:
            raise ZeroDivisionError("polynomial division by zero")
        dg, lg = g.degree, g.lead
        q: dict[int, Fraction] = {}
        r = dict(self._c)
        while r and max(r) >= dg:
            dr = max(r)
            c = r[dr] / lg
            k = dr - dg
            q[k] = c
            for d, a in g._c.items():
                nd = d + k
                nv = r[nd] - c * a if nd in r else -(c * a)
                if nv:
                    r[nd] = nv
                else:
                    r.pop(nd, None)
        return UniPoly._new(q, self.var), UniPoly._new(r, self.var)

    def __floordiv__(self, g: "UniPoly") -> "UniPoly":
        return divmod(self, g)[0]

    def __mod__(self, g: "UniPoly") -> "UniPoly":
        return divmod(self, g)[1]

    def exact_div(self, g: "UniPoly") -> "UniPoly | None":
        """Quotient self/g when the division is exact, else None."""
        q, r = divmod(self, g)
        return q if not r else None

    def monic(self) -> "UniPoly":
        return self * (1 / self.lead) if self else self

    def derivative(self) -> "UniPoly":
        return UniPoly._new({d - 1: d * a for d, a in self._c.items() if d}, self.var)

    def shift(self, alpha: Scalar) -> "UniPoly":
        """Substitute x -> x + alpha."""
        alpha = Fraction(alpha)
        if not alpha:
            return self
        from math import comb

        c: dict[int, Fraction] = {}
        for d, a in self._c.items():
            for k in range(d + 1):
                t = a * comb(d, k) * alpha ** (d - k)
                c[k] = c[k] + t if k in c else t
        return UniPoly._new(c, self.var)

    def retag(self, var: str) -> "UniPoly":
        return self if var == self.var else UniPoly._new(self._c, var)

    def __call__(self, x: Scalar) -> Fraction:
        x = Fraction(x)
        return sum((a * x**d for d, a in self._c.items()), Fraction(0))

    def __str__(self) -> str:
        terms = []
        for d, a in sorted(self._c.items(), reverse=True):
            mono = "" if d == 0 else (self.var if d == 1 else f"{self.var}^{d}")
            terms.append(_term_str(a, mono))
        return _join_terms(terms)

    def __repr__(self) -> str:
        return f"UniPoly[{self.var}]({self})"


class _PairPoly(_Sparse):
    """Shared core of the pair-keyed polynomials ``BiPoly`` and ``WeylElement``.

    Monomial keys are exponent pairs; ``_vars`` names the two variables for
    printing and ``_negative`` is the message for a negative exponent.
    """

    __slots__ = ()
    _vars: tuple[str, str]
    _negative: str

    def __init__(
        self,
        coeffs: Mapping[tuple[int, int], Scalar]
        | Iterable[tuple[int, int, Scalar]] = (),
    ):
        if isinstance(coeffs, Mapping):
            coeffs = ((i, j, a) for (i, j), a in coeffs.items())
        acc: dict[tuple[int, int], Fraction] = {}
        for i, j, a in coeffs:
            i, j = int(i), int(j)
            if i < 0 or j < 0:
                raise ValueError(self._negative)
            a = Fraction(a)
            key = (i, j)
            if key in acc:
                acc[key] += a
            elif a:
                acc[key] = a
        self._c = {k: a for k, a in acc.items() if a}

    @classmethod
    def zero(cls):
        return cls._new({})

    @classmethod
    def monomial(cls, i: int, j: int, coeff: Scalar):
        return cls([(i, j, coeff)])

    def items(self) -> list[tuple[int, int, Fraction]]:
        return sorted((i, j, a) for (i, j), a in self._c.items())

    def coeff(self, i: int, j: int) -> Fraction:
        return self._c.get((i, j), Fraction(0))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._c == other._c

    def __hash__(self) -> int:
        return hash(tuple(self.items()))

    def __str__(self) -> str:
        x, y = self._vars
        out = []
        for i, j, a in sorted(self.items(), key=lambda t: (-(t[0] + t[1]), -t[0])):
            parts = []
            if i:
                parts.append(x if i == 1 else f"{x}^{i}")
            if j:
                parts.append(y if j == 1 else f"{y}^{j}")
            out.append(_term_str(a, "*".join(parts)))
        return _join_terms(out)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class BiPoly(_PairPoly):
    """Sparse commutative polynomial in the pair (D, v) over the rationals.

    Monomial keys are (degree in D, degree in v).
    """

    __slots__ = ()
    _vars = ("D", "v")
    _negative = "polynomial degrees must be nonnegative"

    @classmethod
    def const(cls, a: Scalar) -> "BiPoly":
        return cls([(0, 0, a)])

    @classmethod
    def D(cls, power: int = 1, coeff: Scalar = 1) -> "BiPoly":
        return cls([(power, 0, coeff)])

    @classmethod
    def v(cls, power: int = 1, coeff: Scalar = 1) -> "BiPoly":
        return cls([(0, power, coeff)])

    @classmethod
    def from_uni(cls, p: UniPoly, axis: str) -> "BiPoly":
        """Lift a univariate polynomial onto the D- or v-axis."""
        if axis == "D":
            return cls._new({(d, 0): a for d, a in p._c.items()})
        if axis == "v":
            return cls._new({(0, d): a for d, a in p._c.items()})
        raise ValueError("axis must be 'D' or 'v'")

    @property
    def deg_d(self) -> int | None:
        return max(i for i, _ in self._c) if self._c else None

    @property
    def deg_v(self) -> int | None:
        return max(j for _, j in self._c) if self._c else None

    def __mul__(self, other: "BiPoly | Scalar") -> "BiPoly":
        if isinstance(other, BiPoly):
            c: dict[tuple[int, int], Fraction] = {}
            for (i1, j1), a1 in self._c.items():
                for (i2, j2), a2 in other._c.items():
                    k = (i1 + i2, j1 + j2)
                    a = a1 * a2
                    c[k] = c[k] + a if k in c else a
            return BiPoly._new(c)
        return _Sparse.__mul__(self, other)


class _SparseMatrix(_Sparse):
    """Shared core of the square matrices stored as one sparse map,
    ``ConformalElement`` and ``WeylMatrix``.

    ``_c`` maps ``(row, col, i, j)`` to the nonzero coefficient of the
    monomial with exponent pair ``(i, j)`` in entry ``(row, col)``, an
    element of the pair-keyed class ``_entry``.  The size ``n`` is the tag
    that sums and differences check; ``rows`` and ``entry`` build entries on
    demand.  A matrix equals only a matrix of the same class, size and map.
    """

    __slots__ = ("n",)
    _entry: type[_PairPoly]

    def __init__(self, rows: Sequence[Sequence]):
        n = len(rows)
        if not n or any(len(r) != n for r in rows):
            raise DimensionMismatchError("matrix must be square and nonempty")
        entry = self._entry
        c: dict = {}
        for r, row in enumerate(rows):
            for col, e in enumerate(row):
                if not isinstance(e, entry):
                    e = entry.monomial(0, 0, e)
                for (i, j), a in e._c.items():
                    c[r, col, i, j] = a
        self.n = n
        self._c = c

    @classmethod
    def _new(cls, c: dict, n: int):
        """Trusted constructor: ``c`` maps keys of an n x n matrix to Fractions."""
        out = object.__new__(cls)
        out.n = n
        out._c = {k: a for k, a in c.items() if a}
        return out

    def _like(self, c: dict):
        return self._new(c, self.n)

    def _require_same_tag(self, other: "_SparseMatrix") -> None:
        if self.n != other.n:
            raise DimensionMismatchError(f"sizes {self.n} and {other.n}")

    @classmethod
    def zero(cls, n: int):
        return cls._new({}, n)

    @classmethod
    def identity(cls, n: int):
        return cls._new({(k, k, 0, 0): Fraction(1) for k in range(n)}, n)

    def one_like(self):
        return self.identity(self.n)

    @property
    def rows(self) -> tuple[tuple, ...]:
        n = self.n
        cells: list[list[dict]] = [[{} for _ in range(n)] for _ in range(n)]
        for (r, col, i, j), a in self._c.items():
            cells[r][col][i, j] = a
        return tuple(tuple(map(self._entry._new, row)) for row in cells)

    def entry(self, r: int, col: int):
        return self._entry._new(
            {(i, j): a for (x, y, i, j), a in self._c.items() if (x, y) == (r, col)}
        )

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.n == other.n and self._c == other._c

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self._c.items())))

    def transpose(self):
        return self._like({(c, r, i, j): a for (r, c, i, j), a in self._c.items()})

    def __str__(self) -> str:
        return "[" + "; ".join(", ".join(map(str, r)) for r in self.rows) + "]"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


def _perm_sign(perm: Sequence[int]) -> int:
    inv = sum(
        1
        for a, b in itertools.combinations(range(len(perm)), 2)
        if perm[a] > perm[b]
    )
    return -1 if inv % 2 else 1


def _gen_matmul(a: Sequence[Sequence], b: Sequence[Sequence]) -> list[list]:
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = a[i][0] * b[0][j]
            for k in range(1, n):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def _gen_det(rows: Sequence[Sequence]):
    n = len(rows)
    acc = rows[0][0].zero_like()
    for perm in itertools.permutations(range(n)):
        term = rows[0][perm[0]]
        for i in range(1, n):
            term = term * rows[i][perm[i]]
        acc = acc + (term if _perm_sign(perm) > 0 else -term)
    return acc


class PolyMatrix:
    """Square matrix over k[var]; the variable is read from the entries.

    ``rows`` is a nonempty square tuple of row tuples of ``UniPoly`` entries
    sharing one variable.  The constructor validates data from outside;
    results of internal arithmetic are built by ``_new``, which trusts its
    input.  A matrix equals only a ``PolyMatrix`` with equal rows.
    """

    __slots__ = ("n", "rows")

    def __init__(
        self,
        rows: Sequence[Sequence[UniPoly | Scalar]],
        var: str | None = None,
    ):
        n = len(rows)
        if not n or any(len(r) != n for r in rows):
            raise DimensionMismatchError("matrix must be square and nonempty")
        if var is None:
            var = next(
                (e.var for r in rows for e in r if isinstance(e, UniPoly)), None
            )

        def coerce(e):
            if not isinstance(e, UniPoly):
                if var is None:
                    raise ValueError("cannot infer the variable tag")
                return UniPoly.const(e, var)
            if e.var != var:
                raise ValueError("mixed variable tags in matrix")
            return e

        self.n = n
        self.rows = tuple(tuple(map(coerce, r)) for r in rows)

    @classmethod
    def _new(cls, rows: Sequence[Sequence[UniPoly]]) -> "PolyMatrix":
        """Trusted builder: ``rows`` is square and holds entries of the ring."""
        out = object.__new__(cls)
        out.n = len(rows)
        out.rows = tuple(map(tuple, rows))
        return out

    @classmethod
    def identity(cls, n: int, var: str) -> "PolyMatrix":
        return cls(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)], var
        )

    @classmethod
    def zeros(cls, n: int, var: str) -> "PolyMatrix":
        return cls([[0] * n for _ in range(n)], var)

    @classmethod
    def diag(cls, entries: Sequence[UniPoly | Scalar], var: str) -> "PolyMatrix":
        n = len(entries)
        return cls(
            [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)],
            var,
        )

    @property
    def var(self) -> str:
        return self.rows[0][0].var

    def entry(self, i: int, j: int) -> UniPoly:
        return self.rows[i][j]

    def _require_same_size(self, other: "PolyMatrix") -> None:
        if self.n != other.n:
            raise DimensionMismatchError(f"sizes {self.n} and {other.n}")

    def __eq__(self, other: object) -> bool:
        if type(other) is not PolyMatrix:
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        if type(other) is not PolyMatrix:
            return NotImplemented
        self._require_same_size(other)
        return PolyMatrix._new(
            [[x + y for x, y in zip(r, s)] for r, s in zip(self.rows, other.rows)]
        )

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        if type(other) is not PolyMatrix:
            return NotImplemented
        self._require_same_size(other)
        return PolyMatrix._new(
            [[x - y for x, y in zip(r, s)] for r, s in zip(self.rows, other.rows)]
        )

    def __neg__(self) -> "PolyMatrix":
        return PolyMatrix._new([[-e for e in r] for r in self.rows])

    def __mul__(self, other: "PolyMatrix | UniPoly | Scalar") -> "PolyMatrix":
        """Matrix product, or multiple by a polynomial or a rational."""
        if type(other) is PolyMatrix:
            # the size check is inlined: this is the kernel's hot path
            if self.n != other.n:
                raise DimensionMismatchError(f"sizes {self.n} and {other.n}")
            return PolyMatrix._new(_gen_matmul(self.rows, other.rows))
        if isinstance(other, (UniPoly, int, Fraction)):
            return PolyMatrix._new([[e * other for e in r] for r in self.rows])
        return NotImplemented

    def __rmul__(self, other: "UniPoly | Scalar") -> "PolyMatrix":
        # the entry ring is commutative, and only its elements land here
        return self.__mul__(other)

    def map(self, f) -> "PolyMatrix":
        """Apply ``f`` entrywise; it must return a polynomial in the same
        variable."""
        return PolyMatrix._new([[f(e) for e in r] for r in self.rows])

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix._new(tuple(zip(*self.rows)))

    def is_zero(self) -> bool:
        return all(not e for r in self.rows for e in r)

    def det(self) -> UniPoly:
        return _gen_det(self.rows)

    def shift(self, alpha: Scalar) -> "PolyMatrix":
        """Substitute x -> x + alpha entrywise."""
        return self.map(lambda e: e.shift(alpha))

    def retag(self, var: str) -> "PolyMatrix":
        return PolyMatrix._new([[e.retag(var) for e in r] for r in self.rows])

    def __str__(self) -> str:
        return "[" + "; ".join(", ".join(str(e) for e in r) for r in self.rows) + "]"

    def __repr__(self) -> str:
        return f"PolyMatrix({self})"


def unimodular_inverse(q: PolyMatrix) -> PolyMatrix:
    """Inverse of a matrix invertible over the polynomial ring itself.

    The Smith form ``T * Q * U = D`` has ``D = I`` exactly when ``Q`` is
    unimodular, and then ``Q^{-1} = U * T``.  Raises NotUnimodularError,
    naming ``det Q``, when the determinant is zero or non-constant.
    """
    t, d, u = smith_normal_form(q)
    if d != PolyMatrix.identity(q.n, q.var):
        raise NotUnimodularError(f"determinant {q.det()} is not a nonzero constant")
    return u * t


def smith_normal_form(
    q: PolyMatrix,
) -> tuple[PolyMatrix, PolyMatrix, PolyMatrix]:
    """Smith form over k[var]: returns (T, D, U) with T*Q*U = D.

    T and U are unimodular, D is diagonal with monic entries, each diagonal
    entry divides the next, and zero entries come last. Pivots are chosen by
    minimal degree with ties broken by lowest (row, column).
    """
    n = q.n
    var = q.var
    s = [list(r) for r in q.rows]
    t = [list(r) for r in PolyMatrix.identity(n, var).rows]
    u = [list(r) for r in PolyMatrix.identity(n, var).rows]

    def row_swap(i, j):
        s[i], s[j] = s[j], s[i]
        t[i], t[j] = t[j], t[i]

    def col_swap(i, j):
        for r in s:
            r[i], r[j] = r[j], r[i]
        for r in u:
            r[i], r[j] = r[j], r[i]

    def row_addmul(i, j, f):
        # row_i += f * row_j
        s[i] = [a + f * b for a, b in zip(s[i], s[j])]
        t[i] = [a + f * b for a, b in zip(t[i], t[j])]

    def col_addmul(i, j, f):
        # col_i += f * col_j
        for r in s:
            r[i] = r[i] + f * r[j]
        for r in u:
            r[i] = r[i] + f * r[j]

    def row_scale(i, c):
        s[i] = [a * c for a in s[i]]
        t[i] = [a * c for a in t[i]]

    for k in range(n):
        while True:
            pivot = None
            for i in range(k, n):
                for j in range(k, n):
                    e = s[i][j]
                    if e:
                        key = (e.degree, i, j)
                        if pivot is None or key < pivot:
                            pivot = key
            if pivot is None:
                break
            _, pi, pj = pivot
            if pi != k:
                row_swap(k, pi)
            if pj != k:
                col_swap(k, pj)
            dirty = False
            for i in range(k + 1, n):
                if s[i][k]:
                    f = s[i][k] // s[k][k]
                    if f:
                        row_addmul(i, k, -f)
                    if s[i][k]:
                        dirty = True
            for j in range(k + 1, n):
                if s[k][j]:
                    f = s[k][j] // s[k][k]
                    if f:
                        col_addmul(j, k, -f)
                    if s[k][j]:
                        dirty = True
            if dirty:
                continue
            # pivot must divide the remaining block for the divisibility chain
            bad = None
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    if s[i][j] and (s[i][j] % s[k][k]):
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is not None:
                row_addmul(k, bad, UniPoly.const(1, var))
                continue
            break
        if s[k][k]:
            lc = s[k][k].lead
            if lc != 1:
                row_scale(k, Fraction(1) / lc)

    return PolyMatrix._new(t), PolyMatrix._new(s), PolyMatrix._new(u)


def _sub_multiple(
    r: list[UniPoly], f: UniPoly, b: Sequence[UniPoly], start: int
) -> None:
    """r -= f * b in place, over the nonzero entries of b from ``start`` on."""
    for i in range(start, len(b)):
        if b[i]._c:
            r[i] = r[i] - f * b[i]


class HSubmoduleBasis:
    """Canonical basis of a finitely generated submodule of k[D]^L.

    Rows are in echelon form: pivot coordinates strictly increase, pivot
    entries are monic, and entries above each pivot are reduced modulo it.
    The form is unique, so equality of bases is equality of submodules.
    """

    __slots__ = ("ncols", "rows", "pivots", "_int_rows")

    def __init__(
        self,
        rows: Sequence[Sequence[UniPoly]],
        pivots: Sequence[int],
        ncols: int,
    ):
        self.rows = tuple(tuple(r) for r in rows)
        self.pivots = tuple(pivots)
        self.ncols = ncols
        self._int_rows: dict | None = None

    @property
    def rank(self) -> int:
        return len(self.rows)

    def is_full(self) -> bool:
        """Whether the span is all of k[D]^L: every pivot is a constant."""
        pairs = zip(self.pivots, self.rows)
        return self.rank == self.ncols and all(not r[p].degree for p, r in pairs)

    def _integer_rows(self) -> dict:
        """``{pivot: (L, pivot degree, [(coordinate, {D-degree: numerator})])}``.

        Each row is held as integer numerators over the lcm of its
        denominators, from its pivot on; ``L`` is the pivot's leading
        numerator.  Built on first use.
        """
        if self._int_rows is None:
            view = {}
            for row, pos in zip(self.rows, self.pivots):
                tail = row[pos:]
                den = lcm(*(c.denominator for e in tail for c in e._c.values()))
                entries = [
                    (i, {d: int(x * den) for d, x in e._c.items()})
                    for i, e in enumerate(tail, pos)
                    if e._c
                ]
                deg = row[pos].degree
                view[pos] = (entries[0][1][deg], deg, entries)
            self._int_rows = view
        return self._int_rows

    def member(self, vec: Mapping[int, Mapping[int, int]]) -> bool:
        """Does vec lie in the row span over k[D]?

        ``vec`` is sparse and integral: ``{coordinate: {D-degree:
        numerator}}``, the numerators over any one common denominator
        (which membership does not depend on), absent or zero entries
        meaning 0.  The test runs on integers by pseudo-division: at the
        lowest nonzero coordinate, which must be a pivot, the work vector
        is scaled by ``L / gcd(L, c)`` (``c`` its leading numerator there)
        and the matching multiple of the row subtracted until the degree
        drops below the pivot's.  Scaling by a nonzero integer keeps the
        answer, and every pivot is monic over Q, so a nonzero
        pseudo-remainder or a coordinate left without a pivot means "not a
        member", exactly as division over Q would.
        """
        work = {}
        for i, p in vec.items():
            p = {d: x for d, x in p.items() if x}
            if p:
                work[i] = p
        if work and (min(work) < 0 or max(work) >= self.ncols):
            raise DimensionMismatchError(
                f"coordinates {min(work)}..{max(work)} outside a basis of "
                f"{self.ncols}"
            )
        rows = self._integer_rows()
        while work:
            pos = min(work)
            if pos not in rows:
                return False
            lead, deg, entries = rows[pos]
            w = work[pos]
            while w:
                top = max(w)
                if top < deg:
                    return False
                c = w[top]
                g = gcd(lead, c)
                scale, f = lead // g, c // g
                if scale != 1:
                    for p in work.values():
                        for d in p:
                            p[d] *= scale
                shift = top - deg
                for i, ent in entries:  # work -= f * D^shift * row
                    p = work.setdefault(i, {})
                    for d, x in ent.items():
                        k = d + shift
                        y = p.get(k, 0) - f * x
                        if y:
                            p[k] = y
                        else:
                            del p[k]
                    if not p:
                        del work[i]
        return True

    def extend(self, rows: Iterable[Sequence[UniPoly]]) -> "HSubmoduleBasis":
        """The canonical basis of this span plus ``rows``.

        Each new row is reduced against the pivot rows by Euclid's
        algorithm on its leading coordinate: the quotient's multiple of the
        pivot row is subtracted, and when a remainder is left the two rows
        trade places, the remainder's row becoming the pivot.  Then every
        pivot is made monic and the entries above later pivots reduced.
        """
        ncols = self.ncols
        pivots = {p: list(r) for p, r in zip(self.pivots, self.rows)}
        for r in rows:
            if len(r) != ncols:
                raise DimensionMismatchError("rows of unequal length")
            r = list(r)
            pos = 0
            while True:
                pos = next((i for i in range(pos, ncols) if r[i]._c), None)
                if pos is None:
                    break
                b = pivots.setdefault(pos, r)
                if b is r:
                    break
                f, rem = divmod(r[pos], b[pos])
                if f:
                    _sub_multiple(r, f, b, pos)
                if rem:
                    pivots[pos], r = r, b

        order = sorted(pivots)
        for pos in order:
            row = pivots[pos]
            lc = row[pos].lead
            if lc != 1:
                inv = Fraction(1) / lc
                pivots[pos] = [e * inv if e._c else e for e in row]
        # reduce entries above later pivots; later rows are already canonical
        for idx in range(len(order) - 1, -1, -1):
            pos = order[idx]
            row = pivots[pos]
            for pos2 in order[idx + 1 :]:
                e = row[pos2]
                if e:
                    f = e // pivots[pos2][pos2]
                    if f:
                        _sub_multiple(row, f, pivots[pos2], pos2)
        return HSubmoduleBasis([pivots[p] for p in order], order, ncols)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HSubmoduleBasis):
            return NotImplemented
        return (
            self.ncols == other.ncols
            and self.pivots == other.pivots
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.ncols, self.pivots, self.rows))

    def __repr__(self) -> str:
        rows = "; ".join(
            ", ".join(str(e) for e in r) for r in self.rows
        )
        return f"HSubmoduleBasis(rank={self.rank}, ncols={self.ncols}, [{rows}])"


def hermite_reduce(
    rows: Iterable[Sequence[UniPoly]], ncols: int | None = None
) -> HSubmoduleBasis:
    """Echelonize generators of a submodule of k[D]^L into canonical form."""
    if ncols is None:
        rows = list(rows)
        if not rows:
            raise ValueError("cannot infer coordinate count from no rows")
        ncols = len(rows[0])
    return HSubmoduleBasis((), (), ncols).extend(rows)
