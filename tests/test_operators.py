from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cend.conformal import ConformalElement, _falling, nproduct, nproducts, v_id, d_id
from cend.errors import InsufficientSamplesError, NotDifferentialError
from cend.operators import (
    DensityResult,
    DifferentialSequence,
    OperatorSample,
    _symbol_on_vector,
    act,
    element_sequence,
    fit_differential_sequence,
    orbit_density_check,
    reconstruct,
    symbol,
    verify_composition,
)
from cend.poly import BiPoly, PolyMatrix, UniPoly, hermite_reduce
from cend.weyl import WeylElement, WeylMatrix

D = BiPoly.D()
V = BiPoly.v()


def ce1(f):
    return ConformalElement([[f]])


def w1(e):
    return WeylMatrix([[e]])


RATIONAL = st.fractions(-3, 3, max_denominator=4)


@st.composite
def elements(draw, n=1, max_dd=2, max_dv=2, max_terms=3, coeff=st.integers(-3, 3)):
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            coeffs = {}
            for _ in range(draw(st.integers(0, max_terms))):
                i = draw(st.integers(0, max_dd))
                j = draw(st.integers(0, max_dv))
                coeffs[(i, j)] = draw(coeff)
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

    @given(
        st.integers(1, 3).flatmap(
            lambda k: elements(n=k, max_dd=4, max_dv=3, coeff=RATIONAL)
        ),
        st.integers(0, 4),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_the_differential_sequence(self, a, n):
        """Reading a(n) off the coefficient map equals building it from the
        coefficient list, D-degrees above n included."""
        assert symbol(a, n) == element_sequence(a).operator(n)

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
        samples = [OperatorSample(n, WeylMatrix.zero(2)) for n in range(3)]
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


class _SpanBuilder:
    """Incremental row reduction over Q for sparse vectors
    ``{(component, p-degree): coefficient}``."""

    def __init__(self):
        self.rows = {}

    def reduce(self, vec):
        vec = dict(vec)
        while vec:
            lead = max(vec)
            row = self.rows.get(lead)
            if row is None:
                return vec
            c = vec[lead]
            for k, a in row.items():
                nv = vec[k] - c * a if k in vec else -(c * a)
                if nv:
                    vec[k] = nv
                else:
                    vec.pop(k, None)
        return vec

    def insert(self, vec):
        vec = self.reduce(vec)
        if not vec:
            return False
        lead = max(vec)
        inv = Fraction(1) / vec[lead]
        self.rows[lead] = {k: a * inv for k, a in vec.items()}
        return True

    def contains(self, vec):
        return not self.reduce(vec)


@lru_cache(maxsize=4)
def _pool_images(generators, n_bound):
    """Every symbol a(n), n <= n_bound, of every word applied to each e_k
    term by term, as ``images[k]``, and c, the largest p-degree minus
    q-degree over all operator terms (or None when the pool is empty)."""
    size = generators[0].n
    words = [g for g in generators if not g.is_zero()]
    for g1 in generators:
        for g2 in generators:
            for w in nproducts(g1, g2)[: n_bound + 1]:
                if not w.is_zero() and w not in words:
                    words.append(w)
    seqs = [element_sequence(w) for w in words]
    ops = [seq.operator(n) for seq in seqs for n in range(n_bound + 1)]
    ops = [op for op in ops if not op.is_zero()]
    if not ops:
        return None, []
    c = max(
        [0]
        + [dp - dq for op in ops for row in op.rows for e in row for dp, dq, _ in e.items()]
    )
    images = []
    for k in range(size):
        images.append([])
        for op in ops:
            vec = {}
            for r in range(size):
                for dp, dq, a in op.entry(r, k).items():
                    term = a * _falling(0, dq)  # p^dp q^dq applied to p^0
                    if term:
                        vec[(r, dp - dq)] = vec.get((r, dp - dq), 0) + term
            images[k].append({key: x for key, x in vec.items() if x})
    return c, images


def pool_density_reference(generators, deg_bound, n_bound):
    """The orbit-density check as a bounded sufficient test, with its pool
    built as operators (``_pool_images``): the images of each e_k and their
    p-multiples of degree <= deg_bound must span every p^j e_l with
    j <= deg_bound - c."""
    if not generators:
        return DensityResult("Unknown", "no generators")
    c, images = _pool_images(tuple(generators), n_bound)
    if c is None or deg_bound < c:
        reason = "degree bound too small for the operator pool"
        return DensityResult("Unknown", reason)
    for k, column in enumerate(images):
        span = _SpanBuilder()
        for vec in column:
            while vec and max(d for (_, d) in vec) <= deg_bound:
                span.insert(vec)
                vec = {(l, d + 1): x for (l, d), x in vec.items()}
        for l in range(len(images)):
            for j in range(deg_bound - c + 1):
                if not span.contains({(l, j): Fraction(1)}):
                    reason = f"orbit of basis vector {k} misses degree {j} in component {l}"
                    return DensityResult("Unknown", reason)
    return DensityResult("Dense")


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


def _apply_operator(op, vec):
    """An operator matrix applied to a vector over k[p], term by term:
    p^i q^m sends p^j to (j)_m p^(i+j-m)."""
    out = []
    for r in range(op.n):
        acc = {}
        for c, f in enumerate(vec):
            for i, m, a in op.entry(r, c).items():
                for j, y in f.items():
                    if j >= m:
                        e = i + j - m
                        acc[e] = acc.get(e, 0) + a * y * _falling(j, m)
        out.append(UniPoly(acc, "p"))
    return out


def assert_proper_invariant(gens, submodule):
    """The submodule is a nonzero proper k[p]-submodule of V_N in canonical
    form, and the symbols a(n), n < 8, of every word a of length <= 2 map
    p^j times each basis row, j < 3, back into it."""
    basis = hermite_reduce(submodule, gens[0].n)
    assert basis.rows == submodule
    assert basis.rank and not basis.is_full()
    words = list(gens) + [w for a in gens for b in gens for w in nproducts(a, b)]
    p = UniPoly.gen("p")
    vecs = [[f * p**j for f in row] for row in submodule for j in range(3)]
    for w in words:
        for n in range(8):
            op = symbol(w, n)
            images = [_apply_operator(op, vec) for vec in vecs]
            assert basis.extend(images) == basis, (w, n)


class TestDensity:
    @given(
        st.integers(1, 3).flatmap(
            lambda k: elements(n=k, max_dd=3, max_dv=2, coeff=RATIONAL)
        ),
        st.integers(0, 5),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_vector_action_matches_the_symbol(self, a, n, data):
        """The density loop's action on a vector is a(n) = symbol(a, n),
        scaled by a's common denominator."""
        poly = st.dictionaries(st.integers(0, 4), RATIONAL, max_size=3)
        vec = [UniPoly(data.draw(poly), "p") for _ in range(a.n)]
        den = a._term_form()[2]
        want = [f * den for f in _apply_operator(symbol(a, n), vec)]
        assert _symbol_on_vector(a, n, vec) == want

    @given(st.integers(1, 3).flatmap(density_generators), st.integers(0, 6))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_operator_pool(self, gens, n_bound):
        """The exact check is Dense wherever the bounded reference is Dense
        at some degree bound 0..7 and operator index n_bound; equivalently,
        where the exact check is not Dense, the reference is Unknown at every
        such bound."""
        if orbit_density_check(gens).verdict == "Dense":
            return
        for deg_bound in range(8):
            ref = pool_density_reference(gens, deg_bound, n_bound)
            assert ref.verdict == "Unknown", (deg_bound, ref)

    @given(st.integers(1, 3).flatmap(density_generators))
    @settings(max_examples=60, deadline=None)
    def test_reducible_submodule_is_proper_and_invariant(self, gens):
        res = orbit_density_check(gens)
        assert res.verdict in ("Dense", "Reducible")
        if res.verdict == "Reducible":
            assert_proper_invariant(gens, res.submodule)

    def test_scalar_current(self):
        res = orbit_density_check([ConformalElement.identity(1)])
        assert res == DensityResult("Dense")

    def test_matrix_current(self):
        res = orbit_density_check(curr_generators(2))
        assert res.verdict == "Dense"

    def test_d_times_identity_is_reducible(self):
        res = orbit_density_check([d_id(2)])
        assert res.verdict == "Reducible"
        assert res.submodule == ((UniPoly.const(1, "p"), UniPoly.zero("p")),)
        assert_proper_invariant([d_id(2)], res.submodule)

    def test_zero_generators_kill_a_line(self):
        res = orbit_density_check([ConformalElement.zero(2)])
        assert res.submodule == ((UniPoly.const(1, "p"), UniPoly.zero("p")),)
        res = orbit_density_check([ConformalElement.zero(1)])
        assert res.submodule == ((UniPoly.gen("p"),),)

    def test_principal_generator(self):
        res = orbit_density_check([ce1(V - D)])
        assert res.verdict == "Dense"

    def test_empty(self):
        assert orbit_density_check([]) == DensityResult("Unknown", "no generators")
