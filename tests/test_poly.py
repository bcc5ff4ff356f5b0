import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cend.conformal import ConformalElement, nproduct, nproducts, phi, phi_inv, sigma
from cend.errors import DimensionMismatchError, NotUnimodularError
from cend.poly import (
    BiPoly,
    HSubmoduleBasis,
    PolyMatrix,
    UniPoly,
    hermite_reduce,
    rat,
    smith_normal_form,
    unimodular_inverse,
)
from cend.operators import act, symbol
from cend.sampling import rand_polymatrix, rand_unimodular
from cend.weyl import WeylElement, WeylMatrix


def up(pairs, var="x"):
    return UniPoly(pairs, var)


X = UniPoly.gen("x")
ONE = UniPoly.const(1, "x")


class TestUniPoly:
    def test_construction_drops_zeros(self):
        p = up({0: 1, 2: 0, 3: Fraction(0)})
        assert p.items() == [(0, Fraction(1))]
        assert p.degree == 0

    def test_zero_degree_is_none(self):
        assert UniPoly.zero("x").degree is None
        assert not UniPoly.zero("x")

    def test_square(self):
        assert (X + ONE) * (X + ONE) == up({0: 1, 1: 2, 2: 1})

    def test_divmod(self):
        # x^3 - 1 = (x - 1)(x^2 + x + 1)
        q, r = divmod(up({3: 1, 0: -1}), X - ONE)
        assert q == up({2: 1, 1: 1, 0: 1})
        assert not r

    def test_divmod_remainder(self):
        q, r = divmod(up({2: 1, 0: 1}), X)
        assert q == X
        assert r == ONE

    def test_fraction_coefficients(self):
        assert up({1: Fraction(1, 2)}) * 2 == X

    def test_var_mismatch_raises(self):
        with pytest.raises(ValueError):
            X + UniPoly.gen("v")

    def test_shift(self):
        # (x+1)^2 = x^2 + 2x + 1
        assert (X * X).shift(1) == up({2: 1, 1: 2, 0: 1})
        assert (X * X).shift(-1).shift(1) == X * X

    def test_derivative(self):
        assert (X ** 3).derivative() == up({2: 3})

    def test_exact_div(self):
        assert (X * X - ONE).exact_div(X - ONE) == X + ONE
        assert (X * X + ONE).exact_div(X - ONE) is None

    def test_eval(self):
        assert (X * X + ONE)(Fraction(1, 2)) == Fraction(5, 4)

    def test_rat(self):
        assert rat("3/4") == Fraction(3, 4)
        assert rat("-2") == Fraction(-2)
        assert rat(5) == Fraction(5)


def poly_ext_gcd(a: UniPoly, b: UniPoly) -> tuple[UniPoly, UniPoly, UniPoly]:
    """Monic gcd g with a Bezout pair (u, w): u*a + w*b = g."""
    var = a.var
    r0, r1 = a, b
    u0, u1 = UniPoly.const(1, var), UniPoly.zero(var)
    w0, w1 = UniPoly.zero(var), UniPoly.const(1, var)
    while r1:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        w0, w1 = w1, w0 - q * w1
    if r0:
        c = 1 / r0.lead
        r0, u0, w0 = r0 * c, u0 * c, w0 * c
    return r0, u0, w0


@st.composite
def unipolys(draw, var="x", max_deg=4, coeff=st.integers(-5, 5)):
    n = draw(st.integers(0, 3))
    coeffs = {}
    for _ in range(n):
        d = draw(st.integers(0, max_deg))
        coeffs[d] = draw(coeff)
    return UniPoly(coeffs, var)


class TestUniPolyLaws:
    @given(unipolys(), unipolys(), unipolys())
    def test_mul_distributes(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(unipolys(), unipolys())
    def test_divmod_reconstructs(self, a, b):
        if not b:
            return
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree is None or r.degree < b.degree

    @given(unipolys(), unipolys())
    def test_ext_gcd_bezout(self, a, b):
        g, u, w = poly_ext_gcd(a, b)
        assert u * a + w * b == g
        if a or b:
            assert g.lead == 1
            assert a % g == UniPoly.zero("x")
            assert b % g == UniPoly.zero("x")


def assert_well_formed(p):
    """Stored coefficients are nonzero Fractions under nonnegative keys, and
    the public constructor rebuilds an equal value with an equal hash."""
    for key, a in p._c.items():
        assert type(a) is Fraction and a != 0
        for k in key if isinstance(key, tuple) else (key,):
            assert type(k) is int and k >= 0
    again = UniPoly(p._c, p.var) if isinstance(p, UniPoly) else type(p)(p._c)
    assert again == p and hash(again) == hash(p)


def assert_matrix_well_formed(m):
    """Rows are tuples of well-formed entries, and the public constructor
    rebuilds an equal matrix with an equal hash."""
    rows = m.rows
    assert type(rows) is tuple and len(rows) == m.n
    for r in rows:
        assert type(r) is tuple and len(r) == m.n
        for e in r:
            assert_well_formed(e)
    lists = [list(r) for r in rows]
    again = PolyMatrix(lists, m.var) if isinstance(m, PolyMatrix) else type(m)(lists)
    assert again == m and hash(again) == hash(m)
    if isinstance(m, (ConformalElement, WeylMatrix)):
        # the rows hide a stored zero, so read the coefficient map itself
        for key, a in m._c.items():
            assert type(a) is Fraction and a != 0
            assert all(type(k) is int and k >= 0 for k in key)
            assert key[0] < m.n and key[1] < m.n


@st.composite
def bipolys(draw, max_deg=3, max_terms=3):
    coeffs = {}
    for _ in range(draw(st.integers(0, max_terms))):
        key = (draw(st.integers(0, max_deg)), draw(st.integers(0, max_deg)))
        coeffs[key] = draw(st.fractions(-4, 4, max_denominator=3))
    return BiPoly(coeffs)


class TestKernelInvariant:
    @given(unipolys(), unipolys(), st.fractions(-3, 3, max_denominator=4))
    def test_unipoly_results(self, a, b, c):
        results = [a + b, a - b, a - a, -a, a * b, a * c, c * a, 2 * a, a * 0]
        results += [a.derivative(), a.retag("v"), a**2, a.shift(c), a.monic()]
        if b:
            results += [*divmod(a, b), (a * b).exact_div(b)]
        for p in results:
            assert_well_formed(p)

    @given(bipolys(), bipolys(), st.fractions(-3, 3, max_denominator=4))
    def test_bipoly_results(self, a, b, c):
        for p in [a + b, a - b, -a, a * b, a * c, c * a, a * 0]:
            assert_well_formed(p)

    @given(st.integers(1, 3), st.data())
    @settings(max_examples=40, deadline=None)
    def test_matrix_results(self, n, data):
        def entries(strategy):
            return [[data.draw(strategy) for _ in range(n)] for _ in range(n)]

        x, y = (PolyMatrix(entries(unipolys(var="v", max_deg=2)), "v") for _ in "xy")
        a, b = (ConformalElement(entries(bipolys(max_deg=2))) for _ in "ab")
        for m in [x * y, x + y, x - y, -x, x * V, 3 * x, x.transpose(),
                  adjugate(x), x.map(UniPoly.derivative), x.retag("p"),
                  *smith_normal_form(x)]:
            assert_matrix_well_formed(m)
        for m in [a * b, a + b, a - b, -a, a * VV, a.d_mul(), a.transpose(),
                  nproduct(a, 1, b), *nproducts(a, b), *a.d_coeffs().values(),
                  phi(a), phi_inv(a), sigma(a), act(symbol(a, 1), b)]:
            assert_matrix_well_formed(m)

    @pytest.mark.parametrize(
        "build,error",
        [
            (lambda: UniPoly({-1: 1}, "x"), ValueError),
            (lambda: UniPoly([(2, "two")], "x"), ValueError),
            (lambda: UniPoly({0: 1j}, "x"), TypeError),
            (lambda: BiPoly({(0, -1): 1}), ValueError),
            (lambda: BiPoly([(1, 0, None)]), TypeError),
            (lambda: PolyMatrix([[V, UniPoly.gen("x")], [V, V]]), ValueError),
            (lambda: ConformalElement([[VV, VV]]), DimensionMismatchError),
            pytest.param(
                lambda: PolyMatrix([], "v"), DimensionMismatchError, id="empty-poly"
            ),
            pytest.param(
                lambda: ConformalElement([]), DimensionMismatchError, id="empty-conf"
            ),
        ],
    )
    def test_public_constructors_reject_bad_input(self, build, error):
        with pytest.raises(error):
            build()

    @pytest.mark.parametrize(
        "op,expected",
        [
            pytest.param(lambda: WeylMatrix.identity(2) * WeylElement.p(),
                         TypeError, id="weylmatrix-times-element"),
            pytest.param(lambda: WeylElement.p() * WeylMatrix.identity(2),
                         TypeError, id="element-times-weylmatrix"),
            pytest.param(lambda: PolyMatrix.identity(2, "v")
                         * ConformalElement.identity(2),
                         TypeError, id="polymatrix-times-conformal"),
            pytest.param(lambda: PolyMatrix.identity(2, "v")
                         + PolyMatrix.identity(2, "D"),
                         ValueError, id="mixed-tags-add"),
            pytest.param(lambda: PolyMatrix.identity(2, "v")
                         != PolyMatrix.identity(2, "D"),
                         True, id="mixed-tags-unequal"),
            pytest.param(lambda: ConformalElement.identity(1)
                         != PolyMatrix.identity(1, "v"),
                         True, id="conformal-vs-polymatrix-unequal"),
        ],
    )
    def test_matrix_classes_stay_apart(self, op, expected):
        """The shared matrix base widens no operation across classes or
        variable tags."""
        if isinstance(expected, type):
            with pytest.raises(expected):
                op()
        else:
            assert op() is expected


DD = BiPoly.D()
VV = BiPoly.v()


class TestBiPoly:
    def test_product(self):
        # (D + v)^2 = D^2 + 2Dv + v^2
        assert (DD + VV) ** 2 == BiPoly([(2, 0, 1), (1, 1, 2), (0, 2, 1)])

    def test_subst_v_shift_by_d(self):
        # phi substitutes v -> v + D: v^2 becomes (v + D)^2
        got = phi(ConformalElement([[VV ** 2]]))
        assert got == ConformalElement([[BiPoly([(0, 2, 1), (1, 1, 2), (2, 0, 1)])]])

    def test_flip_then_shift_is_simultaneous(self):
        # sigma gives a(-D, v-D) at N = 1; for a = D*v that is -D*v + D^2
        got = sigma(ConformalElement([[DD * VV]]))
        assert got == ConformalElement([[BiPoly([(1, 1, -1), (2, 0, 1)])]])

    def test_coefficient_splits(self):
        # D-coefficients of a 1 x 1 element, as polynomials in v
        p = ConformalElement([[BiPoly([(2, 1, 1), (0, 1, 2), (2, 0, -1)])]])
        dc = p.d_coeffs()
        assert set(dc) == {0, 2}
        assert dc[2] == PolyMatrix([[UniPoly({1: 1, 0: -1}, "v")]])
        assert dc[0] == PolyMatrix([[UniPoly({1: 2}, "v")]])

    def test_from_uni_roundtrip(self):
        p = UniPoly({3: 2, 0: -1}, "D")
        assert BiPoly.from_uni(p, "D") == BiPoly([(3, 0, 2), (0, 0, -1)])
        assert BiPoly.from_uni(p, "v") == BiPoly([(0, 3, 2), (0, 0, -1)])
        with pytest.raises(ValueError):
            BiPoly.from_uni(p, "x")


def pm(rows, var="v"):
    return PolyMatrix(rows, var)


def adjugate(m: PolyMatrix) -> PolyMatrix:
    """The classical adjoint by cofactors: ``m * adjugate(m) = det(m) * I``.
    A test-side oracle; the package inverts through the Smith form."""
    n, var = m.n, m.var
    if n == 1:
        return PolyMatrix.identity(1, var)
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[m.rows[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
            cof = PolyMatrix(minor, var).det()
            adj[j][i] = cof if (i + j) % 2 == 0 else -cof
    return PolyMatrix(adj, var)


V = UniPoly.gen("v")


class TestPolyMatrix:
    def test_mul_identity(self):
        m = pm([[V, 1], [0, V * V]])
        assert m * PolyMatrix.identity(2, "v") == m

    def test_det_2x2(self):
        m = pm([[V, 1], [0, V]])
        assert m.det() == V * V

    def test_det_3x3(self):
        m = pm([[V, 1, 0], [0, V, 1], [1, 0, V]])
        # v^3 + 1
        assert m.det() == UniPoly({3: 1, 0: 1}, "v")

    def test_adjugate_identity(self):
        m = pm([[V, 1], [2, V]])
        d = m.det()
        prod = m * adjugate(m)
        assert prod == PolyMatrix.diag([d, d], "v")

    def test_unimodular_inverse(self):
        u = pm([[1, V], [0, 1]])
        assert unimodular_inverse(u) == pm([[1, -V], [0, 1]])
        with pytest.raises(NotUnimodularError):
            unimodular_inverse(pm([[V, 0], [0, 1]]))

    @given(st.integers(1, 4), st.integers(0, 2**32), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_unimodular_inverse_matches_the_adjugate(self, n, seed, unimodular):
        """The Smith-form inverse equals adj(Q) / det Q, and a Q whose
        determinant is not a nonzero constant is refused with that
        determinant named."""
        rng = random.Random(seed)
        if unimodular:
            q = rand_unimodular(rng, n, moves=6)
        else:
            q = rand_polymatrix(rng, n, max_deg=2)
        det = q.det()
        if det.degree == 0:
            assert unimodular_inverse(q) == adjugate(q) * (1 / det.coeff(0))
        else:
            with pytest.raises(NotUnimodularError) as err:
                unimodular_inverse(q)
            assert str(err.value) == f"determinant {det} is not a nonzero constant"

    def test_nonsquare_rejected(self):
        with pytest.raises(DimensionMismatchError):
            pm([[V, 1]])


class TestSmith:
    def assert_valid_smith(self, q):
        t, d, u = smith_normal_form(q)
        assert t * q * u == d
        # witnesses are unimodular
        for w in (t, u):
            dw = w.det()
            assert dw and dw.degree == 0
        # diagonal, monic, divisibility chain, zeros last
        n = q.n
        diag = [d.entry(i, i) for i in range(n)]
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert not d.entry(i, j)
        seen_zero = False
        for i, e in enumerate(diag):
            if not e:
                seen_zero = True
                continue
            assert not seen_zero, "zero entries must come last"
            assert e.lead == 1
            if i + 1 < n and diag[i + 1]:
                assert diag[i + 1] % e == UniPoly.zero(q.var)
        return d

    def test_jordan_like_block(self):
        d = self.assert_valid_smith(pm([[V, 1], [0, V]]))
        assert [d.entry(i, i) for i in range(2)] == [
            UniPoly.const(1, "v"),
            V * V,
        ]

    def test_diagonal_gcd_lcm(self):
        d = self.assert_valid_smith(pm([[V, 0], [0, V * V - V]]))
        assert d.entry(0, 0) == V
        assert d.entry(1, 1) == V * V - V

    def test_singular(self):
        d = self.assert_valid_smith(pm([[V, V], [V, V]]))
        assert d.entry(0, 0) == V
        assert not d.entry(1, 1)

    def test_zero_matrix(self):
        d = self.assert_valid_smith(PolyMatrix.zeros(2, "v"))
        assert d.is_zero()

    @given(
        st.lists(
            st.lists(unipolys(var="v", max_deg=2), min_size=2, max_size=2),
            min_size=2,
            max_size=2,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_random_2x2(self, rows):
        self.assert_valid_smith(pm(rows))

    @given(
        st.lists(
            st.lists(unipolys(var="v", max_deg=1), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_random_3x3(self, rows):
        self.assert_valid_smith(pm(rows))


def dp(pairs):
    return UniPoly(pairs, "D")


D = UniPoly.gen("D")
DZ = UniPoly.zero("D")
D1 = UniPoly.const(1, "D")


def bezout_hermite_reduce(rows, ncols):
    """The canonical Hermite basis, with two rows that share a pivot
    coordinate merged by the Bezout cofactors of their leading entries:
    a reference for ``hermite_reduce`` and ``HSubmoduleBasis.extend``."""

    def sub_multiple(r, f, b, start):
        for i in range(start, ncols):
            if b[i]:
                r[i] = r[i] - f * b[i]

    pivots = {}
    queue = [list(r) for r in rows if any(r)]
    while queue:
        r = queue.pop()
        while True:
            pos = next((i for i, e in enumerate(r) if e), None)
            if pos is None:
                break
            if pos not in pivots:
                pivots[pos] = r
                break
            b = pivots[pos]
            beta, rho = b[pos], r[pos]
            f, rem = divmod(rho, beta)
            if not rem:
                sub_multiple(r, f, b, pos)
                continue
            g, uu, ww = poly_ext_gcd(beta, rho)
            cb, cr = rho // g, beta // g
            pivots[pos] = [uu * a + ww * c for a, c in zip(b, r)]
            r = [cb * a - cr * c for a, c in zip(b, r)]

    order = sorted(pivots)
    for pos in order:
        inv = 1 / pivots[pos][pos].lead
        pivots[pos] = [e * inv for e in pivots[pos]]
    for idx in range(len(order) - 1, -1, -1):
        row = pivots[order[idx]]
        for pos2 in order[idx + 1 :]:
            sub_multiple(row, row[pos2] // pivots[pos2][pos2], pivots[pos2], pos2)
    return HSubmoduleBasis([pivots[p] for p in order], order, ncols)


def ints(vec, scale=1):
    """A vector of k[D]^L in ``member``'s sparse integer form: ``scale``
    times its numerators over the lcm of its denominators."""
    den = lcm(*(c.denominator for e in vec for _, c in e.items()))
    return {
        i: {d: scale * c.numerator * (den // c.denominator) for d, c in e.items()}
        for i, e in enumerate(vec)
        if e
    }


class TestHermite:
    def test_gcd_combine(self):
        # rows (D^2, D) and (D, 1) span the same module as (D, 1)
        basis = hermite_reduce([[D * D, D], [D, D1]])
        assert basis.rank == 1
        assert basis.rows == ((D, D1),)
        assert basis.pivots == (0,)

    def test_membership(self):
        basis = hermite_reduce([[D, DZ], [DZ, D1]])
        assert basis.member(ints([D * D, UniPoly.const(5, "D")]))
        assert not basis.member(ints([D1, DZ]))
        assert basis.member({})

    def test_membership_needs_scaling(self):
        # D * (D + 1/2, 1/3) - (0, D/3) = (D^2 + D/2, 0): over the integers
        # 2D^2 + D is no multiple of the pivot's numerators 6D + 3, but 3
        # times it is
        half = UniPoly({0: Fraction(1, 2), 1: 1}, "D")
        basis = hermite_reduce([[half, UniPoly.const(Fraction(1, 3), "D")], [DZ, D]])
        assert basis.member({0: {2: 2, 1: 1}})
        assert not basis.member({0: {2: 2, 1: 1}, 1: {0: 1}})
        assert not basis.member({0: {1: 2}})

    def test_member_rejects_outside_coordinates(self):
        basis = hermite_reduce([[D, DZ], [DZ, D1]])
        for vec in ({2: {0: 1}}, {-1: {0: 1}}):
            with pytest.raises(DimensionMismatchError):
                basis.member(vec)

    def test_reduction_above_pivot(self):
        # second pivot D^2 should reduce the first row's tail below degree 2
        basis = hermite_reduce([[D1, D * D * D], [DZ, D * D]])
        assert basis.pivots == (0, 1)
        tail = basis.rows[0][1]
        assert tail.degree is None or tail.degree < 2

    def test_monic_pivots(self):
        basis = hermite_reduce([[2 * D, DZ]])
        assert basis.rows[0][0] == D

    def test_zero_rows_dropped(self):
        basis = hermite_reduce([[DZ, DZ], [DZ, D]], ncols=2)
        assert basis.rank == 1

    @given(
        st.lists(
            st.lists(unipolys(var="D", max_deg=2), min_size=3, max_size=3),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_idempotent_and_contains_generators(self, rows):
        basis = hermite_reduce(rows, ncols=3)
        again = hermite_reduce(basis.rows, ncols=3)
        assert again == basis
        for r in rows:
            assert basis.member(ints(r))  # generators always lie in the span

    @given(
        st.lists(
            st.lists(unipolys(var="D", max_deg=2), min_size=2, max_size=2),
            min_size=1,
            max_size=3,
        ),
        st.lists(unipolys(var="D", max_deg=1), min_size=1, max_size=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_combinations_are_members(self, rows, coeffs):
        basis = hermite_reduce(rows, ncols=2)
        vec = [DZ, DZ]
        for r, c in zip(rows, coeffs):
            vec = [a + c * b for a, b in zip(vec, r)]
        assert basis.member(ints(vec))


QCOEFF = st.fractions(-3, 3, max_denominator=4)


@st.composite
def sparse_rows(draw, ncols, max_rows=5):
    """Rows of k[D]^ncols with rational coefficients.

    Either one to three nonzero coordinates per row, or a staircase: each
    row leads with a polynomial of degree 2 or 3 in its own column, zeros
    before, so the canonical basis keeps pivots of degree >= 2.
    """
    entry = unipolys(var="D", max_deg=2, coeff=QCOEFF).filter(bool)
    if draw(st.booleans()):
        columns = st.sets(st.integers(0, ncols - 1), min_size=1, max_size=max_rows)
        starts = sorted(draw(columns))
    else:
        starts = [None] * draw(st.integers(1, max_rows))
    rows = []
    for start in starts:
        row = [DZ] * ncols
        lo = 0 if start is None else start + 1
        if lo < ncols:
            least = 1 if start is None else 0
            cols = st.lists(st.integers(lo, ncols - 1), min_size=least, max_size=3)
            for i in draw(cols):
                row[i] = draw(entry)
        if start is not None:
            lead = draw(QCOEFF.filter(bool)) * D ** draw(st.integers(2, 3))
            row[start] = lead + draw(unipolys(var="D", max_deg=1, coeff=QCOEFF))
        rows.append(row)
    return rows


class TestSparseMembership:
    """``member`` against re-reduction: v lies in the span exactly when
    adding it as a generator leaves the canonical basis unchanged.  Bases
    and vectors are rational, and the sizes reach L = 24, an N = 2 encoding
    at v-bound 5."""

    @given(st.integers(1, 24), st.data())
    @settings(max_examples=150, deadline=None)
    def test_member_agrees_with_hermite_reduce(self, ncols, data):
        basis = hermite_reduce(data.draw(sparse_rows(ncols)), ncols)
        rows, pivots = basis.rows, basis.pivots
        # p_j * row_i - row_i[pos_j] * row_j is zero at pos_j: with the
        # denominators of that entry gone, clearing pivot i takes the
        # pseudo-division's scaling
        pairs = [
            (i, j)
            for i in range(len(rows))
            for j in range(i + 1, len(rows))
            if rows[i][pivots[j]]
        ]
        if pairs and data.draw(st.booleans()):
            i, j = data.draw(st.sampled_from(pairs))
            pj, cut = rows[j][pivots[j]], rows[i][pivots[j]]
            vec = [pj * a - cut * b for a, b in zip(rows[i], rows[j])]
            assert not vec[pivots[j]]
        else:
            vec = [DZ] * ncols
            for row in rows:
                c = data.draw(unipolys(var="D", max_deg=2, coeff=QCOEFF))
                vec = [a + c * b for a, b in zip(vec, row)]
        kind = data.draw(st.sampled_from(["member", "off pivot", "at pivot"]))
        free = [i for i in range(ncols) if i not in pivots]
        # a unit is no multiple of a pivot of positive degree
        raised = [p for r, p in zip(rows, pivots) if r[p].degree]
        bump = UniPoly.const(data.draw(QCOEFF.filter(bool)), "D")
        if kind == "off pivot" and free:
            i = data.draw(st.sampled_from(free))
            vec[i] = vec[i] + bump
        elif kind == "at pivot" and raised:
            pos = data.draw(st.sampled_from(raised))
            vec[pos] = vec[pos] + bump
        else:
            kind = "member"
        form = ints(vec)
        before = {i: dict(p) for i, p in form.items()}

        got = basis.member(form)

        assert form == before  # the caller's vector is left as it was
        assert got == (hermite_reduce(list(rows) + [vec], ncols) == basis)
        assert got == (kind == "member")
        # neither a nonzero integer factor nor dividing out the numerators'
        # content moves the answer
        scale = data.draw(st.integers(-4, 4).filter(bool))
        assert basis.member(ints(vec, scale)) == got
        content = gcd(*(x for p in form.values() for x in p.values()))
        if content:
            primitive = {
                i: {d: x // content for d, x in p.items()} for i, p in form.items()
            }
            assert basis.member(primitive) == got


class TestExtend:
    """``hermite_reduce`` and ``extend`` against the Bezout reference, on
    rational rows, staircases with pivots of degree >= 2, and rows that
    reduce to zero."""

    @given(st.integers(1, 8), st.data())
    @settings(max_examples=150, deadline=None)
    def test_extend_matches_bezout_reference(self, ncols, data):
        rows = data.draw(sparse_rows(ncols))
        coeffs = data.draw(
            st.lists(
                unipolys(var="D", max_deg=2, coeff=QCOEFF),
                min_size=len(rows),
                max_size=len(rows),
            )
        )
        dependent = [DZ] * ncols
        for c, row in zip(coeffs, rows):
            dependent = [a + c * b for a, b in zip(dependent, row)]
        for extra in (dependent, [DZ] * ncols):
            rows.insert(data.draw(st.integers(0, len(rows))), extra)
        expected = bezout_hermite_reduce(rows, ncols)

        assert hermite_reduce(rows, ncols) == expected
        cut = data.draw(st.integers(0, len(rows)))
        assert hermite_reduce(rows[:cut], ncols).extend(rows[cut:]) == expected
        assert expected.extend([]) == expected
        assert expected.extend(expected.rows) == expected

    def test_row_of_wrong_length_is_rejected(self):
        with pytest.raises(DimensionMismatchError):
            hermite_reduce([[D]], 2).extend([[D, DZ, DZ]])
