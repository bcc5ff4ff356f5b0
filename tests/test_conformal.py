from fractions import Fraction
from math import comb, factorial, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cend.conformal
from cend.classify import AutomorphismSpec, apply_autom
from cend.conformal import (
    ConformalElement,
    _weights,
    bracket,
    check_associativity,
    check_lie,
    curr_embed,
    d_id,
    locality,
    locality_bound,
    nproduct,
    nproducts,
    nproduct_recursive,
    phi,
    phi_inv,
    sigma,
    v_id,
)
from cend.errors import DimensionMismatchError
from cend.poly import BiPoly, PolyMatrix, UniPoly, _gen_matmul

D = BiPoly.D()
V = BiPoly.v()


def ce1(f: BiPoly) -> ConformalElement:
    return ConformalElement([[f]])


# integers and rationals with small denominators, so that the kernel's
# common-denominator arithmetic is exercised
COEFFICIENTS = st.one_of(
    st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4)
)


@st.composite
def elements(draw, n=1, max_dd=2, max_dv=2, max_terms=3):
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            coeffs = {}
            for _ in range(draw(st.integers(0, max_terms))):
                i = draw(st.integers(0, max_dd))
                j = draw(st.integers(0, max_dv))
                coeffs[(i, j)] = draw(COEFFICIENTS)
            row.append(BiPoly(coeffs))
        rows.append(row)
    return ConformalElement(rows)


@st.composite
def same_size_pairs(draw, max_n=3):
    n = draw(st.integers(1, max_n))
    return draw(elements(n=n, max_terms=2)), draw(elements(n=n, max_terms=2))


class TestNProductExamples:
    def test_v_products(self):
        v = ce1(V)
        assert nproduct(v, 0, v) == ce1(V * V)
        assert nproduct(v, 1, v) == v
        assert nproduct(v, 2, v).is_zero()

    def test_left_d(self):
        assert nproduct(ce1(D), 1, ce1(V)) == ce1(-V)
        assert nproduct(ce1(D), 0, ce1(V)).is_zero()

    def test_right_d(self):
        got = nproduct(ce1(BiPoly.const(1)), 1, ce1(D * V))
        assert got == ce1(D + V)

    def test_unit(self):
        one = ConformalElement.identity(2)
        b = ConformalElement([[D * V, V], [BiPoly.const(3), D]])
        assert nproduct(one, 0, b) == b

    def test_shifted_generator(self):
        x = ce1(V - D)
        assert nproduct(x, 0, x) == ce1(V * (V - D))
        assert nproduct(x, 1, x) == x
        assert nproduct(x, 2, x).is_zero()

    def test_circ_example(self):
        got = nproduct(ce1(V * V), 1, ce1(BiPoly.const(1)), circ=True)
        assert got == ce1(2 * V + 2 * D)

    def test_size_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            nproduct(ConformalElement.identity(1), 0, ConformalElement.identity(2))


class TestRecursionAgreement:
    @given(elements(), elements(), st.integers(0, 5), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_closed_equals_recursive_1x1(self, a, b, n, circ):
        assert nproduct(a, n, b, circ) == nproduct_recursive(a, n, b, circ)

    @given(elements(n=2, max_terms=2), elements(n=2, max_terms=2),
           st.integers(0, 4), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_closed_equals_recursive_2x2(self, a, b, n, circ):
        assert nproduct(a, n, b, circ) == nproduct_recursive(a, n, b, circ)

    @given(elements(n=3, max_terms=2), elements(n=3, max_terms=2),
           st.integers(0, 4), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_closed_equals_recursive_3x3(self, a, b, n, circ):
        assert nproduct(a, n, b, circ) == nproduct_recursive(a, n, b, circ)


class TestAxioms:
    @given(elements(n=2, max_terms=2), elements(n=2, max_terms=2),
           st.integers(0, 4), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_left_sesquilinearity(self, a, b, n, circ):
        lhs = nproduct(a.d_mul(), n, b, circ)
        rhs = (
            ConformalElement.zero(2)
            if n == 0
            else nproduct(a, n - 1, b, circ) * (-n)
        )
        assert lhs == rhs

    @given(elements(n=2, max_terms=2), elements(n=2, max_terms=2),
           st.integers(0, 4), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_right_sesquilinearity(self, a, b, n, circ):
        lhs = nproduct(a, n, b.d_mul(), circ)
        rhs = nproduct(a, n, b, circ).d_mul()
        if n > 0:
            rhs = rhs + nproduct(a, n - 1, b, circ) * n
        assert lhs == rhs

    @given(elements(max_dd=2, max_dv=2), elements(max_dd=2, max_dv=2),
           st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_products_vanish_beyond_locality(self, a, b, circ):
        loc = locality(a, b, circ)
        for n in range(loc, loc + 3):
            assert nproduct(a, n, b, circ).is_zero()
        if loc:
            assert not nproduct(a, loc - 1, b, circ).is_zero()

    @given(elements(max_terms=2), elements(max_terms=2), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_v_compatibility(self, a, b, n):
        # v (a(n) b) = (v a)(n) b  and  a(n)(v b) = (v a)(n) b + n a(n-1) b
        prod = nproduct(a, n, b)
        assert prod.v_mul() == nproduct(a.v_mul(), n, b)
        rhs = nproduct(a.v_mul(), n, b)
        if n > 0:
            rhs = rhs + nproduct(a, n - 1, b) * n
        assert nproduct(a, n, b.v_mul()) == rhs


class TestLocality:
    def test_powers_of_v(self):
        for k in range(3):
            for m in range(3):
                a = ce1(BiPoly.v(k) if k else BiPoly.const(1))
                b = ce1(BiPoly.v(m) if m else BiPoly.const(1))
                assert locality(a, b) == m + 1

    def test_exceeds_naive_degree_count(self):
        # left factor 1, right factor D: the product at n = 1 is still 1
        one = ce1(BiPoly.const(1))
        assert nproduct(one, 1, ce1(D)) == one
        assert locality(one, ce1(D)) == 2

    def test_zero(self):
        z = ConformalElement.zero(1)
        assert locality(z, ce1(V)) == 0


def unit(n: int, i: int, j: int, f: BiPoly = BiPoly.const(1)) -> ConformalElement:
    return ConformalElement.single(n, i, j, f)


def recursive_table(a, b, circ):
    """``nproducts`` by the defining recursion, trimmed the same way."""
    out = [
        nproduct_recursive(a, k, b, circ)
        for k in range(locality_bound(a, b) + 2)
    ]
    while out and out[-1].is_zero():
        out.pop()
    return tuple(out)


HALF = Fraction(1, 2)
PURE_D = ConformalElement([[D * D, D * HALF], [BiPoly.zero(), D * -3]])
PURE_V = ConformalElement([[V, BiPoly.zero()], [V * V * Fraction(1, 3), V * 2]])
# v-degree 3 on the left: the circ products reach D^s/s! with s = 3
LEFT_V3 = ConformalElement(
    [[V ** 3, D * V ** 3 * HALF], [BiPoly.zero(), V - D]]
)
RIGHT_MIXED = ConformalElement(
    [[D * V, BiPoly.const(1)], [D * D * Fraction(-2, 3), V * V]]
)
TABLE_CASES = {
    **{
        f"unit{i}{j}-unit{k}{l}": (unit(2, i, j), unit(2, k, l))
        for i, j, k, l in [(0, 1, 1, 0), (1, 0, 0, 1), (0, 0, 0, 1), (1, 1, 0, 0)]
    },
    "unit-times-v2-unit": (unit(2, 0, 1), unit(2, 1, 0, V * V)),
    "pureD-pureD": (PURE_D, PURE_D),
    "pureD-pureV": (PURE_D, PURE_V),
    "pureV-pureD": (PURE_V, PURE_D),
    "pureV-pureV": (PURE_V, PURE_V),
    "leftV3-mixed": (LEFT_V3, RIGHT_MIXED),
    "leftV3-pureD": (LEFT_V3, PURE_D),
    "leftV3-unit": (LEFT_V3, unit(2, 0, 0)),
}


class TestProductTable:
    @pytest.mark.parametrize("circ", [False, True], ids=["default", "circ"])
    @pytest.mark.parametrize("case", sorted(TABLE_CASES))
    def test_table_matches_the_recursion(self, case, circ):
        a, b = TABLE_CASES[case]
        assert nproducts(a, b, circ) == recursive_table(a, b, circ)

    def test_circ_reaches_the_third_power_of_d(self):
        # v^3 (0)_circ 1 = sum_s D^s/s! (v^3)^(s) = v^3 + 3Dv^2 + 3D^2 v + D^3
        got = nproducts(LEFT_V3, unit(2, 0, 0), circ=True)[0]
        assert got.entry(0, 0) == V ** 3 + D * V * V * 3 + D * D * V * 3 + D ** 3

    @given(same_size_pairs(), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_table_agrees_with_single_products(self, pair, circ):
        a, b = pair
        table = nproducts(a, b, circ)
        for k, prod in enumerate(table):
            assert prod == nproduct(a, k, b, circ)
        for k in range(len(table), locality_bound(a, b) + 2):
            assert nproduct(a, k, b, circ).is_zero()
        if table:
            assert not table[-1].is_zero()
        assert locality(a, b, circ) == len(table)

    @given(same_size_pairs(), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_single_index_matches_the_table_and_the_recursion(self, pair, circ):
        a, b = pair
        table = nproducts(a, b, circ)
        lim = len(table)
        # inside the table, at the locality and past it
        for k in sorted({0, max(lim - 1, 0), lim, lim + 1}):
            want = table[k] if k < lim else ConformalElement.zero(a.n)
            assert nproduct(a, k, b, circ) == want
            assert nproduct_recursive(a, k, b, circ) == want

    # Each pair reaches past the other family's bound, so both would fail
    # if the sweep stopped at the wrong family's degree.
    def test_circ_bound_counts_the_left_v_degree(self):
        v3 = ConformalElement.scalar(2, BiPoly.v(3))
        assert locality(v3, ConformalElement.identity(2), circ=True) == 4

    def test_default_bound_counts_the_right_v_degree(self):
        v3 = ConformalElement.scalar(2, BiPoly.v(3))
        assert locality(ConformalElement.identity(2), v3) == 4

    def test_zero_factor_gives_an_empty_table(self):
        assert nproducts(ConformalElement.zero(2), v_id(2)) == ()
        assert nproducts(v_id(2), ConformalElement.zero(2), circ=True) == ()

    def test_size_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            nproducts(ConformalElement.identity(1), ConformalElement.identity(2))


def closed_form_weights(i, j, p, q, circ):
    """The weights of D^i v^p (n) D^j v^q as ``{(n, D-deg, v-deg): w}``,
    summed term by term from the closed form with factorial quotients."""
    top = p if circ else q
    out: dict = {}
    for n in range(i + j + top + 1):
        for t in range(j + 1):
            m = n - i - t
            if not 0 <= m <= top:
                continue
            w = (-1) ** i * comb(j, t) * factorial(n) // factorial(m)
            w = w * factorial(top) // factorial(top - m)
            for s in range(p - m + 1) if circ else [0]:
                key = (n, j - t + s, p + q - m - s)
                out[key] = out.get(key, 0) + (w * comb(p - m, s) if circ else w)
    return out


class TestWeights:
    @given(
        st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.integers(0, 4),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_table_is_the_closed_form(self, i, j, p, q, circ):
        # the table is given with the other factor's v-degree at 0
        table = _weights(i, j, p if circ else q, circ)
        other = q if circ else p
        got = {(n, d, e + other): w for n, d, e, w in table}
        assert len(got) == len(table)
        assert all(w for w in got.values())
        assert got == closed_form_weights(i, j, p, q, circ)

    def test_memo_is_bounded(self):
        assert isinstance(_weights.cache_info().maxsize, int)


class TestBracket:
    def test_virasoro_witness(self):
        # L = -v inside the scalar case: [L(0)L] = -D L, [L(1)L] = -2L, rest 0
        L = ce1(-V)
        assert bracket(L, 0, L) == L.d_mul() * (-1)
        assert bracket(L, 1, L) == L * (-2)
        for n in (2, 3, 4):
            assert bracket(L, n, L).is_zero()

    @given(elements(max_terms=2), elements(max_terms=2), elements(max_terms=2))
    @settings(max_examples=15, deadline=None)
    def test_lie_laws(self, a, b, c):
        report = check_lie(a, b, c, 2, 2)
        assert report.ok, report.failures

    def test_each_ordered_pair_is_swept_once(self, monkeypatch):
        calls = []

        def spy(x, y, circ=False):
            calls.append((id(x), id(y)))
            return nproducts(x, y, circ)

        monkeypatch.setattr(cend.conformal, "nproducts", spy)
        a = unit(2, 0, 1, D * V)
        b = unit(2, 1, 1, V * V) + unit(2, 1, 0, D)
        c = unit(2, 1, 0, V) + unit(2, 0, 0, D * D)
        report = check_lie(a, b, c, 2, 2)
        assert report.ok, report.failures
        assert len(set(calls)) == len(calls)
        assert {(y, x) for x, y in calls} == set(calls)
        # 26 when each bracket table swept both orders itself
        assert len(calls) == 24


def reference_bracket(a, n, b):
    """[a (n) b] with D^s applied as the matrix product by ``d_id(N) ** s``."""
    out = nproduct(a, n, b)
    for s, prod in enumerate(nproducts(b, a)[n:]):
        term = prod * d_id(a.n) ** s * Fraction(1, factorial(s))
        out = out + (-term if (n + s) % 2 == 0 else term)
    return out


class TestBracketShift:
    @given(
        st.integers(1, 3).flatmap(
            lambda n: st.tuples(
                elements(n=n, max_dd=3, max_terms=2),
                elements(n=n, max_dd=3, max_terms=2),
            )
        ),
        st.integers(0, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_degree_shift_matches_the_d_power_product(self, pair, n):
        a, b = pair
        want = reference_bracket(a, n, b)
        assert bracket(a, n, b) == want
        # check_lie's skew sum -sum_s (-1)^(n+s) D^s/s! [b (n+s) a], with
        # the reference brackets past the table's end all zero
        skew = ConformalElement.zero(a.n)
        for s in range(locality_bound(a, b)):
            term = reference_bracket(b, n + s, a) * d_id(a.n) ** s
            term = term * Fraction(1, factorial(s))
            skew = skew + (-term if (n + s) % 2 == 0 else term)
        assert skew == want
        # each skew case compares bracket(a, k, b), equal to the reference
        # above, with check_lie's own skew sum
        report = check_lie(a, b, a, n, 0)
        assert not [f for f in report.failures if f.startswith("skew")]


class TestAssociativity:
    def test_each_distinct_product_is_evaluated_once(self, monkeypatch):
        calls = []

        def spy(x, k, y, circ=False):
            calls.append(k)
            return nproduct(x, k, y, circ)

        monkeypatch.setattr(cend.conformal, "nproduct", spy)
        a = unit(2, 0, 1, D * V)
        b = unit(2, 1, 1, V * V) + unit(2, 1, 0, D)
        c = unit(2, 1, 0, V) + unit(2, 0, 0, D * D)
        report = check_associativity(a, b, c, 2, 2)
        assert report.ok, report.failures
        # 108 evaluations without the memo
        assert len(calls) == 32

    @given(elements(max_terms=2), elements(max_terms=2), elements(max_terms=2),
           st.booleans())
    @settings(max_examples=15, deadline=None)
    def test_rewriting_identities(self, a, b, c, circ):
        report = check_associativity(a, b, c, 2, 2, circ)
        assert report.ok, report.failures


class TestPhi:
    def test_on_v(self):
        assert phi(ce1(V)) == ce1(V + D)
        assert phi_inv(ce1(V)) == ce1(V - D)

    @given(elements(n=2, max_terms=2))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip(self, a):
        assert phi_inv(phi(a)) == a
        assert phi(phi_inv(a)) == a

    @given(elements(max_terms=2), elements(max_terms=2), st.integers(0, 4))
    @settings(max_examples=40, deadline=None)
    def test_transports_products(self, a, b, n):
        assert phi(nproduct(a, n, b)) == nproduct(phi(a), n, phi(b), circ=True)


class TestSigma:
    def test_examples(self):
        a = ConformalElement([[BiPoly.const(0), BiPoly.const(1)],
                              [BiPoly.const(2), BiPoly.const(0)]])
        assert sigma(a) == a.transpose()
        assert sigma(v_id(2)) == ConformalElement.scalar(2, V - D)
        assert sigma(d_id(1)) == ce1(-D)

    @given(elements(n=2, max_terms=2))
    @settings(max_examples=40, deadline=None)
    def test_involution(self, a):
        assert sigma(sigma(a)) == a

    @given(elements(max_terms=2))
    @settings(max_examples=30, deadline=None)
    def test_anticommutes_with_d(self, a):
        assert sigma(a.d_mul()) == -sigma(a).d_mul()


def substituted(a, c, d, flip=False, transpose=False):
    """Oracle for the substitutions, built entrywise by BiPoly ring arithmetic:
    each term x D^i v^p of an entry becomes x (+-D)^i (v + c D^d)^p, with the
    sign flipped for odd i when ``flip``; ``transpose`` reads entry (col, r)
    into (r, col)."""
    t = V + BiPoly.D(d, c)
    rows = []
    for r in range(a.n):
        row = []
        for col in range(a.n):
            out = BiPoly.zero()
            e = a.entry(col, r) if transpose else a.entry(r, col)
            for i, p, x in e.items():
                sign = -1 if flip and i % 2 else 1
                out = out + BiPoly.D(i, sign * x) * t**p
            row.append(out)
        rows.append(row)
    return ConformalElement(rows)


class TestSubstitution:
    """phi, phi_inv, sigma and the shift of apply_autom all substitute
    v -> v + c D^d on the coefficient map; each must equal the oracle."""

    @given(
        st.integers(1, 3).flatmap(lambda n: elements(n=n, max_dv=3)), COEFFICIENTS
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_the_entrywise_oracle(self, a, alpha):
        assert phi(a) == substituted(a, 1, 1)
        assert phi_inv(a) == substituted(a, -1, 1)
        assert sigma(a) == substituted(a, -1, 1, flip=True, transpose=True)
        spec = AutomorphismSpec(alpha, PolyMatrix.identity(a.n, "v"))
        assert apply_autom(a, spec) == substituted(a, alpha, 0)


class TestCurrEmbed:
    def test_constant_matrices_multiply_at_zero(self):
        a = curr_embed(PolyMatrix([[1, 2], [0, 1]], "D"))
        b = curr_embed(PolyMatrix([[1, 0], [3, 1]], "D"))
        prod = PolyMatrix([[7, 2], [3, 1]], "D")
        assert nproduct(a, 0, b) == curr_embed(prod)
        assert nproduct(a, 1, b).is_zero()

    def test_d_coefficients(self):
        du = UniPoly.gen("D")
        a = curr_embed(PolyMatrix([[du, 0], [0, 1]], "D"))
        b = curr_embed(PolyMatrix.identity(2, "D"))
        # (D e11 + e22)(1) Id = -e11
        got = nproduct(a, 1, b)
        assert got == ConformalElement([[BiPoly.const(-1), BiPoly.const(0)],
                                        [BiPoly.const(0), BiPoly.const(0)]])

    def test_right_d(self):
        du = UniPoly.gen("D")
        a = curr_embed(PolyMatrix.identity(1, "D"))
        b = curr_embed(PolyMatrix([[du]], "D"))
        assert nproduct(a, 1, b) == ConformalElement.identity(1)


class TestCoefficientMap:
    """Builders that write the (row, col, D-degree, v-degree) map directly."""

    def test_single_rejects_an_entry_outside_the_matrix(self):
        assert ConformalElement.single(2, 1, 0, V).entry(1, 0) == V
        for i, j in [(2, 0), (0, 2), (-1, 0)]:
            with pytest.raises(IndexError):
                ConformalElement.single(2, i, j, V)


class TestMonomialForm:
    """The integer term form each element keeps for products and degrees."""

    @given(same_size_pairs())
    @settings(max_examples=40, deadline=None)
    def test_form_reproduces_every_coefficient(self, pair):
        for x in pair:
            terms, by_row, den, _, _ = x._term_form()
            want_den = 1
            for row in x.rows:
                for e in row:
                    for _, _, a in e.items():
                        want_den = lcm(want_den, a.denominator)
            assert den == want_den
            got: dict = {}
            for r, c, i, p, num in terms:
                assert isinstance(num, int) and num
                assert (r, c, i, p) not in got
                got[r, c, i, p] = Fraction(num, den)
            want = {
                (r, c, i, p): a
                for r, row in enumerate(x.rows)
                for c, e in enumerate(row)
                for i, p, a in e.items()
            }
            assert got == want
            # the row grouping holds the same terms, each under its row
            grouped = [(r, *t) for r, ts in by_row.items() for t in ts]
            assert sorted(grouped) == sorted(terms)

    @given(same_size_pairs())
    @settings(max_examples=40, deadline=None)
    def test_cached_form_equals_a_fresh_decomposition(self, pair):
        a, _ = pair
        form = a._term_form()
        assert a._term_form() is form
        terms, by_row, *rest = ConformalElement(a.rows)._term_form()
        assert sorted(terms) == sorted(form[0])
        assert {r: sorted(ts) for r, ts in by_row.items()} == {
            r: sorted(ts) for r, ts in form[1].items()
        }
        assert rest == list(form[2:])

    @given(same_size_pairs())
    @settings(max_examples=40, deadline=None)
    def test_degrees_are_the_entry_maxima(self, pair):
        for x in pair:
            entries = [e for row in x.rows for e in row if e]
            assert x.deg_d == max((e.deg_d for e in entries), default=None)
            assert x.deg_v == max((e.deg_v for e in entries), default=None)

    def test_zero_has_no_degrees(self):
        z = ConformalElement.zero(2)
        assert z.deg_d is None and z.deg_v is None
        assert z._term_form() == ((), {}, 1, None, None)

    @given(same_size_pairs())
    @settings(max_examples=30, deadline=None)
    def test_eq_and_hash_ignore_the_cache(self, pair):
        a, _ = pair
        filled, empty = ConformalElement(a.rows), ConformalElement(a.rows)
        filled._term_form()
        assert filled == empty and empty == filled
        assert hash(filled) == hash(empty)
        assert len({filled, empty}) == 1

    @given(same_size_pairs())
    @settings(max_examples=60, deadline=None)
    def test_product_matches_the_entrywise_reference(self, pair):
        a, b = pair
        assert a * b == ConformalElement(_gen_matmul(a.rows, b.rows))

    def test_product_keeps_zero_entries_and_cancellations(self):
        a = ConformalElement([[V, D], [0, 0]])
        b = ConformalElement([[D, 0], [-V, 0]])
        got = a * b
        assert got == ConformalElement([[0, 0], [0, 0]])
        assert got.is_zero() and got.deg_v is None
        assert (a * ConformalElement.zero(2)).is_zero()

    def test_product_with_rational_coefficients(self):
        a = ConformalElement([[BiPoly.v(1, Fraction(1, 2)), 0], [0, D]])
        b = ConformalElement([[BiPoly.D(1, Fraction(2, 3)), 1], [0, V]])
        assert a * b == ConformalElement(
            [[BiPoly.monomial(1, 1, Fraction(1, 3)), BiPoly.v(1, Fraction(1, 2))],
             [0, D * V]]
        )

    def test_product_size_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            ConformalElement.identity(1) * ConformalElement.identity(2)
