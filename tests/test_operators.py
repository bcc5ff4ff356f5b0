from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cend.conformal import ConformalElement, _falling, nproduct, nproducts, v_id, d_id
from cend.errors import InsufficientSamplesError, NotDifferentialError
from cend.operators import (
    DensityResult,
    DifferentialSequence,
    OperatorSample,
    act,
    element_sequence,
    fit_differential_sequence,
    orbit_density_check,
    reconstruct,
    symbol,
    verify_composition,
    _SpanBuilder,
)
from cend.poly import BiPoly, PolyMatrix, UniPoly
from cend.weyl import WeylElement, WeylMatrix

D = BiPoly.D()
V = BiPoly.v()


def ce1(f):
    return ConformalElement([[f]])


def w1(e):
    return WeylMatrix([[e]])


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
                coeffs[(i, j)] = draw(st.integers(-3, 3))
            row.append(BiPoly(coeffs))
        rows.append(row)
    return ConformalElement(rows)


class TestSymbol:
    def test_v(self):
        for n in range(4):
            assert symbol(v_id(1), n) == w1(WeylElement([(1, n, 1)]))

    def test_d(self):
        assert symbol(d_id(1), 0).is_zero()
        for n in range(1, 4):
            assert symbol(d_id(1), n) == w1(WeylElement([(0, n - 1, -n)]))

    def test_shifted(self):
        x = ce1(V - D)
        assert symbol(x, 2) == w1(WeylElement([(1, 2, 1), (0, 1, 2)]))

    def test_constant_coefficient(self):
        a = ConformalElement([[BiPoly.const(0), BiPoly.const(1)],
                              [BiPoly.const(0), BiPoly.const(0)]])
        got = symbol(a, 2)
        assert got.entry(0, 1) == WeylElement.q(2)

    @given(elements(max_terms=2), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_d_lowers(self, a, n):
        assert symbol(a.d_mul(), n) == symbol(a, n - 1) * (-n)
        assert symbol(a.d_mul(), 0).is_zero()


class TestAct:
    def test_p_is_v(self):
        b = ce1(D * V + BiPoly.const(2))
        assert act(w1(WeylElement.p()), b) == b.v_mul()

    def test_q_on_d_free(self):
        b = ce1(V ** 3)
        assert act(w1(WeylElement.q()), b) == ce1(3 * V ** 2)

    def test_q_on_d(self):
        assert act(w1(WeylElement.q()), ce1(D)) == ce1(BiPoly.const(1))

    def test_identity(self):
        b = ce1(D * V)
        assert act(WeylMatrix.identity(1), b) == b

    @given(st.integers(1, 3).flatmap(
               lambda k: st.tuples(elements(n=k, max_terms=2),
                                   elements(n=k, max_terms=2))),
           st.integers(0, 4))
    @settings(max_examples=50, deadline=None)
    def test_symbol_action_is_nproduct(self, pair, n):
        a, b = pair
        assert act(symbol(a, n), b) == nproduct(a, n, b)

    @given(elements(n=2, max_terms=1), elements(n=2, max_terms=1),
           elements(n=2, max_terms=2), st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=30, deadline=None)
    def test_associative_over_operator_product(self, a, b, c, n, m):
        w1_ = symbol(a, n)
        w2_ = symbol(b, m)
        assert act(w1_ * w2_, c) == act(w1_, act(w2_, c))


class TestComposition:
    def test_worked_example(self):
        a = v_id(1)
        lhs = symbol(a, 1) * symbol(a, 0)
        assert lhs == w1(WeylElement([(2, 1, 1), (1, 0, 1)]))
        report = verify_composition(a, a, 1, 0)
        assert report.ok

    @given(elements(max_terms=2), elements(max_terms=2),
           st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=30, deadline=None)
    def test_random(self, a, b, n, m):
        assert verify_composition(a, b, n, m).ok

    @given(elements(n=2, max_terms=1), elements(n=2, max_terms=1),
           st.integers(0, 2), st.integers(0, 2))
    @settings(max_examples=20, deadline=None)
    def test_random_2x2(self, a, b, n, m):
        assert verify_composition(a, b, n, m).ok


class TestSequences:
    def test_element_sequence_signs(self):
        a = ce1(D * V)  # C_1 = v, so A_1 = -v
        seq = element_sequence(a)
        assert seq.top_index == 1
        assert seq.coeffs[0].is_zero()
        assert seq.coeffs[1] == PolyMatrix([[-UniPoly.gen("p")]], "p")

    @given(elements(n=2, max_terms=2))
    @settings(max_examples=40, deadline=None)
    def test_reconstruct_roundtrip(self, a):
        assert reconstruct(element_sequence(a)) == a

    @given(elements(max_terms=2))
    @settings(max_examples=40, deadline=None)
    def test_fit_from_symbols(self, a):
        seq = element_sequence(a)
        top = seq.top_index
        samples = [
            OperatorSample(n, symbol(a, n)) for n in range(top + 2)
        ]
        fitted = fit_differential_sequence(samples)
        assert fitted == seq
        assert reconstruct(fitted) == a

    def test_all_zero(self):
        samples = [OperatorSample(n, WeylMatrix.zeros(2)) for n in range(3)]
        seq = fit_differential_sequence(samples)
        assert seq.coeffs == ()
        assert reconstruct(seq).is_zero()

    def test_insufficient(self):
        a = ce1(V)
        with pytest.raises(InsufficientSamplesError):
            fit_differential_sequence([OperatorSample(0, symbol(a, 0))])
        with pytest.raises(InsufficientSamplesError):
            fit_differential_sequence([])

    def test_not_differential_high_degree(self):
        with pytest.raises(NotDifferentialError):
            fit_differential_sequence([OperatorSample(0, w1(WeylElement.q()))])

    def test_not_differential_mismatch(self):
        a = ce1(V)
        samples = [
            OperatorSample(0, symbol(a, 0)),
            OperatorSample(1, symbol(a, 1) + w1(WeylElement.one())),
            OperatorSample(2, symbol(a, 2)),
        ]
        with pytest.raises(NotDifferentialError):
            fit_differential_sequence(samples)

    def test_conflicting_duplicates(self):
        a = ce1(V)
        samples = [
            OperatorSample(0, symbol(a, 0)),
            OperatorSample(0, symbol(a, 0) + w1(WeylElement.one())),
        ]
        with pytest.raises(NotDifferentialError):
            fit_differential_sequence(samples)


def curr_generators(n):
    out = []
    for i in range(n):
        for j in range(n):
            out.append(ConformalElement.single(n, i, j, BiPoly.const(1)))
    return out


def pool_density_reference(generators, deg_bound, n_bound):
    """The orbit-density check with its pool built as operators: every symbol
    a(n), n <= n_bound, of every word applied to each e_k term by term, and c
    the largest p-degree minus q-degree over all operator terms."""
    if not generators:
        return DensityResult("Unknown", "no generators")
    size = generators[0].n
    words = [g for g in generators if not g.is_zero()]
    for g1 in generators:
        for g2 in generators:
            for w in nproducts(g1, g2)[: n_bound + 1]:
                if not w.is_zero() and w not in words:
                    words.append(w)
    ops = [element_sequence(w).operator(n) for w in words for n in range(n_bound + 1)]
    ops = [op for op in ops if not op.is_zero()]
    c = max(
        [0]
        + [dp - dq for op in ops for row in op.rows for e in row for dp, dq, _ in e.items()]
    )
    if deg_bound < c or not ops:
        reason = "degree bound too small for the operator pool"
        return DensityResult("Unknown", reason, c, deg_bound, n_bound)
    for k in range(size):
        span = _SpanBuilder()
        for op in ops:
            vec = {}
            for r in range(size):
                for dp, dq, a in op.entry(r, k).items():
                    term = a * _falling(0, dq)  # p^dp q^dq applied to p^0
                    if term:
                        vec[(r, dp - dq)] = vec.get((r, dp - dq), 0) + term
            vec = {key: x for key, x in vec.items() if x}
            while vec and max(d for (_, d) in vec) <= deg_bound:
                span.insert(vec)
                vec = {(l, d + 1): x for (l, d), x in vec.items()}
        for l in range(size):
            for j in range(deg_bound - c + 1):
                if not span.contains({(l, j): Fraction(1)}):
                    reason = f"orbit of basis vector {k} misses degree {j} in component {l}"
                    return DensityResult("Unknown", reason, c, deg_bound, n_bound)
    return DensityResult("Dense", None, c, deg_bound, n_bound)


def density_generators(n):
    """1-4 generators of size n: matrix units, which make Dense verdicts
    common, mixed with random elements of D- and v-degree <= 3 (some zero)."""
    unit = st.builds(
        lambda i, j: ConformalElement.single(n, i, j, BiPoly.const(1)),
        st.integers(0, n - 1),
        st.integers(0, n - 1),
    )
    return st.lists(
        st.one_of(unit, elements(n, max_dd=3, max_dv=3)), min_size=1, max_size=4
    )


class TestDensity:
    @given(
        st.integers(1, 3).flatmap(density_generators),
        st.integers(0, 7),
        st.integers(0, 6),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_the_operator_pool(self, gens, deg_bound, n_bound):
        """Reading the pool off the D^n coefficients gives the verdict, c
        and reason of applying every pool operator to e_k."""
        assert orbit_density_check(gens, deg_bound, n_bound) == pool_density_reference(
            gens, deg_bound, n_bound
        )

    def test_scalar_current(self):
        res = orbit_density_check([ConformalElement.identity(1)], 4, 2)
        assert res.verdict == "Dense"
        assert res.c == 0

    def test_matrix_current(self):
        res = orbit_density_check(curr_generators(2), 4, 2)
        assert res.verdict == "Dense"

    def test_d_times_identity_is_unknown(self):
        res = orbit_density_check([d_id(2)], 5, 3)
        assert res.verdict == "Unknown"

    def test_principal_generator(self):
        res = orbit_density_check([ce1(V - D)], 4, 2)
        assert res.verdict == "Dense"
        # the length-2 word (v-D)(0)(v-D) = v^2 - Dv contributes the shift
        assert res.c == 2

    def test_empty(self):
        assert orbit_density_check([], 4, 2).verdict == "Unknown"
