import re
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_poly import assert_matrix_well_formed, assert_well_formed

import cend.weyl
from cend.errors import DimensionMismatchError
from cend.poly import PolyMatrix, UniPoly, _gen_matmul
from cend.weyl import (
    HSeqPair,
    WeylElement,
    WeylMatrix,
    h_sequences,
    q_truncate,
    q_valuation,
    rebase_coefficients,
    rebase_inverse,
    split_by_shift,
    verify_h_identities,
    weyl_endo,
    weyl_mul,
)

P = WeylElement.p()
Q = WeylElement.q()
ONE = WeylElement.one()


@lru_cache(maxsize=None)
def _normalize_word(word):
    """Normal form of a p/q word by single adjacent swaps q p -> p q + 1."""
    for idx in range(len(word) - 1):
        if word[idx] == "q" and word[idx + 1] == "p":
            swapped = word[:idx] + ("p", "q") + word[idx + 2 :]
            dropped = word[:idx] + word[idx + 2 :]
            acc = {}
            for key, c in _normalize_word(swapped):
                acc[key] = acc.get(key, 0) + c
            for key, c in _normalize_word(dropped):
                acc[key] = acc.get(key, 0) + c
            return tuple(sorted((k, c) for k, c in acc.items() if c))
    return (((word.count("p"), word.count("q")), 1),)


def slow_mul(a: WeylElement, b: WeylElement) -> WeylElement:
    out = {}
    for i1, j1, c1 in a.items():
        for i2, j2, c2 in b.items():
            word = ("p",) * i1 + ("q",) * j1 + ("p",) * i2 + ("q",) * j2
            for (i, j), c in _normalize_word(word):
                out[(i, j)] = out.get((i, j), Fraction(0)) + c1 * c2 * c
    return WeylElement(out)


@st.composite
def weyl_elements(draw, max_deg=3, max_terms=3):
    coeffs = {}
    for _ in range(draw(st.integers(0, max_terms))):
        i = draw(st.integers(0, max_deg))
        j = draw(st.integers(0, max_deg))
        coeffs[(i, j)] = draw(st.integers(-4, 4))
    return WeylElement(coeffs)


class TestKernelInvariant:
    @given(weyl_elements(), weyl_elements(), st.fractions(-3, 3, max_denominator=4))
    def test_element_results(self, a, b, c):
        results = [a + b, a - b, a - a, -a, weyl_mul(a, b), a * b, a * c, c * a]
        results += [a * 0, a**2, q_truncate(a, 2)]
        results += [split_by_shift(a)[0], weyl_endo(a, c, UniPoly.gen("p"))]
        for w in results:
            assert_well_formed(w)
        assert_well_formed(a.p_part())

    @given(st.integers(1, 3), st.data())
    @settings(max_examples=40, deadline=None)
    def test_matrix_results(self, n, data):
        def draw():
            return WeylMatrix(
                [[data.draw(weyl_elements(2, 2)) for _ in range(n)] for _ in range(n)]
            )

        x, y = draw(), draw()
        for m in [x * y, x + y, x - y, -x, 2 * x, x.transpose(), q_truncate(x, 1)]:
            assert_matrix_well_formed(m)

    @pytest.mark.parametrize(
        "build,error",
        [
            (lambda: WeylElement({(-1, 0): 1}), ValueError),
            (lambda: WeylElement([(0, 1, "q")]), ValueError),
            (lambda: WeylElement([(0, 1, 1j)]), TypeError),
            (lambda: WeylMatrix([[P, Q]]), DimensionMismatchError),
            pytest.param(
                lambda: WeylMatrix([]), DimensionMismatchError, id="empty-matrix"
            ),
        ],
    )
    def test_public_constructors_reject_bad_input(self, build, error):
        with pytest.raises(error):
            build()


class TestWeylMul:
    def test_defining_relation(self):
        assert Q * P == P * Q + ONE

    def test_q2_p(self):
        assert Q * Q * P == WeylElement([(1, 2, 1), (0, 1, 2)])

    def test_q2_p2(self):
        got = (Q ** 2) * (P ** 2)
        assert got == WeylElement([(2, 2, 1), (1, 1, 4), (0, 0, 2)])

    def test_p_side_commutes(self):
        assert P * Q == WeylElement([(1, 1, 1)])

    @given(weyl_elements(), weyl_elements())
    @settings(max_examples=60, deadline=None)
    def test_matches_single_swap_oracle(self, a, b):
        assert weyl_mul(a, b) == slow_mul(a, b)

    @given(weyl_elements(max_deg=2), weyl_elements(max_deg=2), weyl_elements(max_deg=2))
    @settings(max_examples=40, deadline=None)
    def test_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(weyl_elements(), weyl_elements(), weyl_elements())
    @settings(max_examples=40, deadline=None)
    def test_distributes(self, a, b, c):
        assert a * (b + c) == a * b + a * c


class TestValuation:
    def test_values(self):
        assert q_valuation(WeylElement([(2, 3, 1)])) == 3
        assert q_valuation(P + Q) == 0
        assert q_valuation(WeylElement.zero()) is None

    def test_truncate(self):
        a = WeylElement([(0, 0, 1), (1, 1, 2), (0, 3, 1)])
        assert q_truncate(a, 1) == ONE
        assert q_truncate(a, 3) == WeylElement([(0, 0, 1), (1, 1, 2)])

    def test_matrix_valuation(self):
        m = WeylMatrix([[Q, 0], [0, Q * Q]])
        assert q_valuation(m) == 1
        assert q_valuation(WeylMatrix.zero(2)) is None


class TestWeylEndo:
    def test_images(self):
        h = UniPoly.gen("p")
        assert weyl_endo(P, 2, h) == P + 2 * ONE
        assert weyl_endo(Q, 2, h) == Q - P

    def test_preserves_relation(self):
        h = UniPoly({2: 1, 0: -3}, "p")
        qi = weyl_endo(Q, Fraction(1, 2), h)
        pi = weyl_endo(P, Fraction(1, 2), h)
        assert qi * pi - pi * qi == ONE

    @given(weyl_elements(max_deg=2), weyl_elements(max_deg=2))
    @settings(max_examples=30, deadline=None)
    def test_multiplicative(self, a, b):
        h = UniPoly({1: 2, 0: 1}, "p")
        assert weyl_endo(a * b, 1, h) == weyl_endo(a, 1, h) * weyl_endo(b, 1, h)


class TestHSequences:
    def test_h_equals_p(self):
        p = UniPoly.gen("p")
        seqs = h_sequences(p, 3)
        assert list(seqs.lower) == [
            UniPoly.const(1, "p"),
            -p,
            p * p - UniPoly.const(1, "p"),
            -(p ** 3) + 3 * p,
        ]
        assert list(seqs.upper) == [
            UniPoly.const(1, "p"),
            p,
            p * p + UniPoly.const(1, "p"),
            p ** 3 + 3 * p,
        ]

    def test_h_zero(self):
        seqs = h_sequences(UniPoly.zero("p"), 4)
        assert all(not e for e in seqs.lower[1:])
        assert all(not e for e in seqs.upper[1:])

    def test_h_constant(self):
        seqs = h_sequences(UniPoly.const(1, "p"), 4)
        assert [e.coeff(0) for e in seqs.lower] == [1, -1, 1, -1, 1]
        assert [e.coeff(0) for e in seqs.upper] == [1, 1, 1, 1, 1]

    def test_split_recovers_sequences(self):
        for h in (UniPoly.gen("p"), UniPoly({2: 1}, "p"), UniPoly({1: 1, 0: 1}, "p")):
            seqs = h_sequences(h, 6)
            hw = WeylElement.from_poly(h)
            for n in range(7):
                lo_pow = (Q - hw) ** n
                up_pow = (Q + hw) ** n
                stem, c = split_by_shift(lo_pow)
                assert c == seqs.lower[n]
                assert stem * Q + WeylElement.from_poly(c) == lo_pow
                _, c_up = split_by_shift(up_pow)
                assert c_up == seqs.upper[n]

    def test_identities_hold(self):
        for h in (
            UniPoly.zero("p"),
            UniPoly.const(2, "p"),
            UniPoly.gen("p"),
            UniPoly({3: 1, 1: -2}, "p"),
            UniPoly({2: Fraction(1, 2)}, "p"),
        ):
            report = verify_h_identities(h, 8)
            assert report.ok, report.failures

    @pytest.mark.parametrize("index", [1, 4, 8])
    def test_one_bad_lower_entry_fails(self, monkeypatch, index):
        good = h_sequences

        def bad(h, k_max):
            seqs = good(h, k_max)
            lower = list(seqs.lower)
            lower[index] = lower[index] + UniPoly.const(1, "p")
            return HSeqPair(seqs.h, tuple(lower), seqs.upper)

        monkeypatch.setattr(cend.weyl, "h_sequences", bad)
        report = verify_h_identities(UniPoly({2: 1, 0: -1}, "p"), 8)
        assert report.ok is False
        ks = []
        for f in report.failures:
            m = re.fullmatch(r"(?:convolution|binomial) at k=(\d+), xi=\d+", f)
            assert m, f
            ks.append(int(m.group(1)))
        # lower[index] first enters the identities at k = index
        assert min(ks) == index


class TestRebase:
    def test_roundtrip_polynomials(self):
        h = UniPoly({1: 1, 0: 2}, "p")
        coeffs = [
            UniPoly({2: 1}, "p"),
            UniPoly({1: 3, 0: -1}, "p"),
            UniPoly.const(5, "p"),
            UniPoly.zero("p"),
        ]
        there = rebase_coefficients(coeffs, h)
        back = rebase_inverse(there, h)
        assert back == coeffs

    def test_roundtrip_matrices(self):
        h = UniPoly.gen("p")
        p = UniPoly.gen("p")
        coeffs = [
            PolyMatrix([[p, 1], [0, p * p]], "p"),
            PolyMatrix([[1, 0], [p, 1]], "p"),
            PolyMatrix.identity(2, "p"),
        ]
        there = rebase_coefficients(coeffs, h)
        back = rebase_inverse(there, h)
        assert back == coeffs

    def test_operator_meaning(self):
        # For a(n) = sum_k C(n,k) A_k q^(n-k), the rebased list B gives the
        # same operators as sum_s C(n,s) B_s (q+h)^(n-s), for every n.
        from math import comb

        h = UniPoly({1: 2}, "p")
        hw = WeylElement.from_poly(h)
        coeffs = [
            UniPoly({1: 1}, "p"),
            UniPoly({0: -2}, "p"),
            UniPoly({2: 1, 0: 1}, "p"),
        ]
        for n in (2, 3, 5):
            # the x-basis list has entries at every index up to n
            padded = coeffs + [UniPoly.zero("p")] * (n + 1 - len(coeffs))
            rebased = rebase_coefficients(padded, h)
            lhs = WeylElement.zero()
            for k, a_k in enumerate(coeffs):
                lhs = lhs + comb(n, k) * (WeylElement.from_poly(a_k) * Q ** (n - k))
            rhs = WeylElement.zero()
            for s, b_s in enumerate(rebased):
                rhs = rhs + comb(n, s) * (
                    WeylElement.from_poly(b_s) * (Q + hw) ** (n - s)
                )
            assert lhs == rhs


class TestWeylMatrix:
    @given(st.integers(1, 3), st.data())
    @settings(max_examples=150, deadline=None)
    def test_product_matches_entrywise_weyl_mul(self, n, data):
        """The product on the coefficient map equals the entrywise one, each
        entry a sum of ``weyl_mul`` products."""
        def draw():
            return WeylMatrix(
                [[data.draw(weyl_elements(3, 3)) for _ in range(n)] for _ in range(n)]
            )

        x, y = draw(), draw()
        assert x * y == WeylMatrix(_gen_matmul(x.rows, y.rows))

    def test_identity(self):
        m = WeylMatrix([[P, Q], [ONE, P * Q]])
        assert m * WeylMatrix.identity(2) == m

    def test_product_respects_order(self):
        a = WeylMatrix([[Q, 0], [0, ONE]])
        b = WeylMatrix([[P, 0], [0, ONE]])
        assert (a * b).entry(0, 0) == P * Q + ONE
        assert (b * a).entry(0, 0) == P * Q
