import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_poly import adjugate

from cend.classify import (
    AutomorphismSpec,
    SubalgebraPresentation,
    apply_autom,
    apply_autom_weyl,
    canonicalize_Q,
    classify_irreducible,
    compose_autom,
    e_nq,
    kv_closure,
    left_ideal_member,
    right_ideal_member,
    subalgebra_closure,
)
from cend.conformal import ConformalElement, locality, nproduct, nproducts, phi
import cend.classify
from cend.errors import (
    BoundTooSmallError,
    DimensionMismatchError,
    InvariantError,
    NotClosedError,
    NotUnimodularError,
    SingularMatrixError,
)
from cend.operators import orbit_density_check, symbol
from cend.poly import (
    BiPoly,
    HSubmoduleBasis,
    PolyMatrix,
    UniPoly,
    hermite_reduce,
    smith_normal_form,
)
from cend.serialize import classification_to_json
from cend.verify import verify_suite
from cend.weyl import WeylElement, WeylMatrix, q_valuation

D = BiPoly.D()
V = BiPoly.v()
ONE = BiPoly.const(1)

v = UniPoly.gen("v")
one_v = UniPoly.const(1, "v")
zero_v = UniPoly.zero("v")
p = UniPoly.gen("p")


def unit(n, i, j, f=ONE):
    return ConformalElement.single(n, i, j, f)


def upper_u():
    """The transvection [[1, v], [0, 1]]."""
    return PolyMatrix([[one_v, v], [zero_v, one_v]], "v")


def matrix_slice(n, v_bound):
    """The matrix units times ``Q(v - D)``, ``Q = P diag(1, ..., 1, v - 1) P^-1``
    with the constant transvection ``P = 1 + e_(0, N-1)``: a left-ideal slice
    whose closure has rank 92 at N = 4 and v-bound 5."""
    ident = PolyMatrix.identity(n, "v")
    corner = [[one_v if (i, j) == (0, n - 1) else zero_v for j in range(n)] for i in range(n)]
    t = PolyMatrix(corner, "v")
    diag = PolyMatrix.diag([one_v] * (n - 1) + [v - one_v], "v")
    q = (ident + t) * diag * (ident - t)
    qv = conformal_of(q, V - D)
    gens = tuple(unit(n, i, j) * qv for i in range(n) for j in range(n))
    return SubalgebraPresentation(gens, v_bound, 8)


def conformal_of(q, arg):
    """Lift a k[v]-matrix to a conformal element, evaluated at `arg`."""
    def at(f):
        acc = BiPoly.const(0)
        power = BiPoly.const(1)
        for d in range((f.degree or 0) + 1):
            acc = acc + power * f.coeff(d)
            power = power * arg
        return acc
    return ConformalElement(
        [[at(q.entry(i, j)) for j in range(q.n)] for i in range(q.n)]
    )


@st.composite
def elements(draw, n=2, max_dd=2, max_dv=2, max_terms=3, coeff=st.integers(-3, 3)):
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


@st.composite
def unimodular(draw, n=2, coeff=st.integers(-2, 2)):
    """A product of elementary transvections (hence unimodular)."""
    m = PolyMatrix.identity(n, "v")
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        if i == j:
            continue
        f = UniPoly({draw(st.integers(0, 1)): draw(coeff)}, "v")
        e = PolyMatrix(
            [
                [
                    one_v if a == b else (f if (a, b) == (i, j) else zero_v)
                    for b in range(n)
                ]
                for a in range(n)
            ],
            "v",
        )
        m = m * e
    return m


@st.composite
def specs(draw, n=2, with_h=False):
    h = UniPoly.zero("p")
    if with_h:
        h = UniPoly({draw(st.integers(0, 2)): draw(st.integers(-2, 2))}, "p")
    return AutomorphismSpec(
        Fraction(draw(st.integers(-2, 2))), draw(unimodular(n)), h
    )


@st.composite
def weyl_matrices(draw, n=2, max_terms=2):
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            terms = []
            for _ in range(draw(st.integers(0, max_terms))):
                terms.append(
                    (
                        draw(st.integers(0, 2)),
                        draw(st.integers(0, 2)),
                        draw(st.integers(-2, 2)),
                    )
                )
            row.append(WeylElement(terms))
        rows.append(row)
    return WeylMatrix(rows)


class TestApplyAutom:
    def test_identity_spec(self):
        t = AutomorphismSpec(Fraction(0), PolyMatrix.identity(2, "v"))
        a = unit(2, 0, 1, V * V - D)
        assert apply_autom(a, t) == a

    def test_pure_shift(self):
        t = AutomorphismSpec(Fraction(1), PolyMatrix.identity(1, "v"))
        a = ConformalElement([[V]])
        assert apply_autom(a, t) == ConformalElement([[V + ONE]])
        # D is untouched by the shift
        d = ConformalElement([[D]])
        assert apply_autom(d, t) == d

    def test_transvection_on_units(self):
        t = AutomorphismSpec(Fraction(0), upper_u())
        # e12 commutes with the upper transvection
        assert apply_autom(unit(2, 0, 1), t) == unit(2, 0, 1)
        # e21 picks up the full twist; computed by hand
        img = apply_autom(unit(2, 1, 0), t)
        expect = ConformalElement(
            [[-V, D * V - V * V], [ONE, V - D]]
        )
        assert img == expect

    def test_requires_h_zero(self):
        t = AutomorphismSpec(Fraction(0), PolyMatrix.identity(1, "v"), p)
        with pytest.raises(ValueError):
            apply_autom(ConformalElement.identity(1), t)

    def test_rejects_non_unimodular(self):
        t = AutomorphismSpec(Fraction(0), PolyMatrix([[v]], "v"))
        with pytest.raises(NotUnimodularError):
            apply_autom(ConformalElement.identity(1), t)

    def test_size_mismatch(self):
        t = AutomorphismSpec(Fraction(0), PolyMatrix.identity(2, "v"))
        with pytest.raises(DimensionMismatchError):
            apply_autom(ConformalElement.identity(3), t)

    @given(elements(), elements(), specs())
    @settings(max_examples=25, deadline=None)
    def test_product_homomorphism(self, a, b, t):
        for k in range(locality(a, b)):
            lhs = apply_autom(nproduct(a, k, b), t)
            rhs = nproduct(apply_autom(a, t), k, apply_autom(b, t))
            assert lhs == rhs

    @given(elements(), specs(), specs())
    @settings(max_examples=25, deadline=None)
    def test_composition_law(self, a, t1, t2):
        lhs = apply_autom(apply_autom(a, t1), t2)
        rhs = apply_autom(a, compose_autom(t1, t2))
        assert lhs == rhs

    @given(specs(), specs(), specs())
    @settings(max_examples=25, deadline=None)
    def test_compose_associative(self, t1, t2, t3):
        left = compose_autom(compose_autom(t1, t2), t3)
        right = compose_autom(t1, compose_autom(t2, t3))
        assert left.alpha == right.alpha
        assert left.q == right.q
        assert left.h == right.h


class TestInverseCache:
    @given(specs(), weyl_matrices())
    @settings(max_examples=100, deadline=None)
    def test_q_inv_is_computed_once_per_spec(self, t, w):
        """Both actions of one spec, applied repeatedly, invert Q once and
        build the factors they multiply by once; an equal spec with a cold
        cache stays equal, with an equal hash."""
        calls, lifts, weyl_lifts = [], [], []

        def counting(log, real):
            def wrapped(q):
                log.append(q)
                return real(q)

            return wrapped

        a = unit(2, 0, 1, V - D)
        with mock.patch.object(
            cend.classify,
            "unimodular_inverse",
            counting(calls, cend.classify.unimodular_inverse),
        ), mock.patch.object(
            cend.classify, "_lift", counting(lifts, cend.classify._lift)
        ), mock.patch.object(
            WeylMatrix,
            "from_poly_matrix",
            counting(weyl_lifts, WeylMatrix.from_poly_matrix),
        ):
            first = apply_autom(a, t), apply_autom_weyl(w, t)
            again = apply_autom(a, t), apply_autom_weyl(w, t)
        assert calls == [t.q]
        assert lifts == weyl_lifts == [t.q_inv, t.q]
        assert first == again
        assert t.q * t.q_inv == PolyMatrix.identity(2, "v")
        twin = AutomorphismSpec(t.alpha, t.q, t.h)
        assert twin == t and hash(twin) == hash(t)
        assert twin.q_inv == t.q_inv
        assert (twin._lifts, twin._weyl_lifts) == (t._lifts, t._weyl_lifts)


class TestApplyAutomWeyl:
    def test_shift_moves_p(self):
        t = AutomorphismSpec(Fraction(2), PolyMatrix.identity(1, "v"))
        w = WeylMatrix([[WeylElement.p()]])
        got = apply_autom_weyl(w, t)
        assert got == WeylMatrix([[WeylElement.p() + WeylElement.one() * 2]])

    def test_h_rebases_q(self):
        t = AutomorphismSpec(Fraction(0), PolyMatrix.identity(1, "v"), p)
        w = WeylMatrix([[WeylElement.q()]])
        got = apply_autom_weyl(w, t)
        assert got == WeylMatrix([[WeylElement.q() - WeylElement.p()]])

    @given(weyl_matrices(), weyl_matrices(), specs(with_h=True))
    @settings(max_examples=20, deadline=None)
    def test_multiplicative(self, w1, w2, t):
        lhs = apply_autom_weyl(w1 * w2, t)
        rhs = apply_autom_weyl(w1, t) * apply_autom_weyl(w2, t)
        assert lhs == rhs

    @given(weyl_matrices(), specs(with_h=True), specs(with_h=True))
    @settings(max_examples=20, deadline=None)
    def test_composition_law(self, w, t1, t2):
        lhs = apply_autom_weyl(apply_autom_weyl(w, t1), t2)
        rhs = apply_autom_weyl(w, compose_autom(t1, t2))
        assert lhs == rhs

    @given(elements(), specs(), st.integers(0, 3))
    @settings(max_examples=25, deadline=None)
    def test_matches_subalgebra_action(self, a, t, n):
        """For h = 0 the two actions agree through the operator picture."""
        lhs = symbol(apply_autom(a, t), n)
        rhs = apply_autom_weyl(symbol(a, n), t)
        assert lhs == rhs

    def test_h_destroys_filtration(self):
        """Re-basing by h = p drops every q-power down to valuation zero.

        This is the witness that the third parameter, unlike the other two,
        cannot act on the polynomial side: the images of q^n acquire q-free
        terms of unbounded p-degree.
        """
        t = AutomorphismSpec(Fraction(0), PolyMatrix.identity(1, "v"), p)
        for n in range(9):
            w = WeylMatrix([[WeylElement.q() ** n]])
            assert q_valuation(apply_autom_weyl(w, t)) == 0


class TestIdealMembership:
    def test_scalar_ideal(self):
        q = PolyMatrix([[v]], "v")
        assert left_ideal_member(ConformalElement([[V - D]]), q)
        assert left_ideal_member(ConformalElement([[(V - D) * V]]), q)
        assert left_ideal_member(ConformalElement([[(V - D) * D]]), q)
        assert not left_ideal_member(ConformalElement.identity(1), q)
        assert not left_ideal_member(ConformalElement([[V]]), q)

    def test_diagonal_ideal(self):
        q = PolyMatrix.diag([one_v, v], "v")
        assert left_ideal_member(unit(2, 0, 0), q)
        assert left_ideal_member(unit(2, 1, 0), q)
        assert not left_ideal_member(unit(2, 0, 1), q)
        assert left_ideal_member(unit(2, 0, 1, V - D), q)
        assert left_ideal_member(unit(2, 1, 1, V - D), q)

    def test_singular_divisor(self):
        q = PolyMatrix([[v, zero_v], [v, zero_v]], "v")
        with pytest.raises(SingularMatrixError):
            left_ideal_member(ConformalElement.identity(2), q)

    @given(elements(n=2, max_dd=1, max_dv=1))
    @settings(max_examples=25, deadline=None)
    def test_generated_members(self, m):
        q = PolyMatrix.diag([v, v * v - one_v], "v")
        x = m * conformal_of(q, V - D)
        assert left_ideal_member(x, q)

    def test_right_scalar_ideal(self):
        pmat = PolyMatrix([[v]], "v")
        assert right_ideal_member(ConformalElement([[V]]), pmat)
        assert right_ideal_member(ConformalElement([[V * D]]), pmat)
        assert not right_ideal_member(ConformalElement([[V - D]]), pmat)

    def test_right_matrix_ideal(self):
        pmat = PolyMatrix.diag([v, one_v], "v")
        assert right_ideal_member(unit(2, 0, 0, V), pmat)
        assert not right_ideal_member(unit(2, 0, 0), pmat)
        assert right_ideal_member(unit(2, 1, 0), pmat)

    @given(elements(n=2, max_dd=1, max_dv=1))
    @settings(max_examples=25, deadline=None)
    def test_right_generated_members(self, m):
        pmat = PolyMatrix.diag([v, v + one_v], "v")
        x = conformal_of(pmat, V) * m
        assert right_ideal_member(x, pmat)

    def test_e_nq(self):
        assert e_nq(1, PolyMatrix([[v]], "v")) == ConformalElement([[V - D]])
        q = PolyMatrix.diag([one_v, v], "v")
        got = e_nq(2, q)
        assert got == unit(2, 1, 1, V - D)
        assert left_ideal_member(got, q)

    def test_e_nq_size_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            e_nq(3, PolyMatrix.identity(2, "v"))


RATIONAL = st.fractions(-3, 3, max_denominator=3)


@st.composite
def ideal_data(draw):
    """``Q = P * diag(d) * P'`` with ``P``, ``P'`` unimodular at N <= 3, a near
    miss ``P * diag(d') * P'``, and a multiplier element of Q's size.

    Each ``d_j`` is ``d_{j-1}`` times up to two factors ``v - r``, up to a
    nonzero constant, so every invariant factor of Q can be nontrivial, not
    only the last.  ``d'`` drops the last factor of one ``d_j``, so the near
    miss's multiples mostly leave Q's ideal through that one factor.
    """
    n = draw(st.integers(1, 3))
    factors, chain = [], []
    for _ in range(n):
        roots = draw(st.lists(st.fractions(-2, 2, max_denominator=2), max_size=2))
        factors = factors + [v - UniPoly.const(r, "v") for r in roots]
        chain.append(factors)
    j = draw(st.integers(0, n - 1))
    near = chain[:j] + [chain[j][:-1]] + chain[j + 1 :]
    scales = [draw(RATIONAL.filter(bool)) for _ in range(n)]
    left, right = draw(unimodular(n, RATIONAL)), draw(unimodular(n, RATIONAL))

    def sandwich(fs):
        diag = []
        for c, f in zip(scales, fs):
            d = UniPoly.const(c, "v")
            for g in f:
                d = d * g
            diag.append(d)
        return left * PolyMatrix.diag(diag, "v") * right

    m = draw(elements(n, max_dd=1, max_dv=1, max_terms=2, coeff=RATIONAL))
    return sandwich(chain), sandwich(near), m


def oracle_member(y, q, left):
    """Whether every D-coefficient ``Y`` of ``y`` is ``M * Q`` (left) or
    ``Q * M`` over k[v]: ``Y * adj(Q)`` (or ``adj(Q) * Y``) vanishes modulo
    ``det Q``."""
    det, adj = q.det(), adjugate(q)
    for y_i in y.d_coeffs().values():
        prod = y_i * adj if left else adj * y_i
        if any(e % det for row in prod.rows for e in row):
            return False
    return True


class TestIdealMembershipOracle:
    """Both membership tests against the adjugate oracle over k[v].

    Members are built from a random multiplier; adding ``c * Id`` leaves the
    ideal exactly when ``det Q`` is not constant; ``v^t`` multiples of a
    member stay members.  A random bump and the near miss of
    :func:`ideal_data` give further non-members for the oracle to decide.
    """

    @staticmethod
    def candidates(x, near, data):
        n = x.n
        c = data.draw(RATIONAL.filter(bool))
        bump = unit(
            n,
            data.draw(st.integers(0, n - 1)),
            data.draw(st.integers(0, n - 1)),
            BiPoly([(data.draw(st.integers(0, 1)), data.draw(st.integers(0, 2)), c)]),
        )
        vt = V ** data.draw(st.integers(1, 2))
        identity = ConformalElement.identity(n) * c
        return x, x * vt, x + identity, x + bump, (x + bump) * vt, near, near * vt

    @given(ideal_data(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_left_agrees_with_oracle(self, qnm, data):
        q, near, m = qnm
        x = m * conformal_of(q, V - D)
        near_x = m * conformal_of(near, V - D)
        x, x_vt, x_id, *rest = self.candidates(x, near_x, data)
        assert left_ideal_member(x, q) and left_ideal_member(x_vt, q)
        assert left_ideal_member(x_id, q) == (q.det().degree == 0)
        for y in (x, x_vt, x_id, *rest):
            assert left_ideal_member(y, q) == oracle_member(phi(y), q, left=True)

    @given(ideal_data(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_right_agrees_with_oracle(self, qnm, data):
        p, near, m = qnm
        x = conformal_of(p, V) * m
        near_x = conformal_of(near, V) * m
        x, x_vt, x_id, *rest = self.candidates(x, near_x, data)
        assert right_ideal_member(x, p) and right_ideal_member(x_vt, p)
        assert right_ideal_member(x_id, p) == (p.det().degree == 0)
        for y in (x, x_vt, x_id, *rest):
            assert right_ideal_member(y, p) == oracle_member(y, p, left=False)

    def test_right_singular_divisor(self):
        pmat = PolyMatrix([[v, v], [v, v]], "v")
        with pytest.raises(SingularMatrixError, match="zero determinant"):
            right_ideal_member(ConformalElement.identity(2), pmat)

    @given(ideal_data())
    @settings(max_examples=30, deadline=None)
    def test_left_products_stay_in_the_ideal(self, qnm):
        """The left ideal absorbs every n-product from the left, so
        ``kv_closure`` tests only the closure's own elements."""
        q, _, m = qnm
        x = m * conformal_of(q, V - D)
        for a in cend.classify._ambient_samples(q.n):
            for prod in nproducts(a, x):
                assert prod.is_zero() or left_ideal_member(prod, q)


class TestCanonicalizeQ:
    def test_jordan_block(self):
        q = PolyMatrix([[v, one_v], [zero_v, v]], "v")
        diag, t_mat, t = canonicalize_Q(q)
        assert diag == PolyMatrix.diag([one_v, v * v], "v")
        assert t.alpha == 0 and t.h.is_zero()
        # both witnesses must be unimodular and tie the three together
        assert t.q.det().degree == 0
        assert t_mat.det().degree == 0
        assert t_mat * q * t.q == diag

    def test_swap_matrix(self):
        q = PolyMatrix([[zero_v, v], [v, zero_v]], "v")
        diag, _, _ = canonicalize_Q(q)
        assert diag == PolyMatrix.diag([v, v], "v")

    def test_constant_determinant_gives_unit_ideal(self):
        q = PolyMatrix([[one_v, v], [zero_v, one_v]], "v")
        diag, _, _ = canonicalize_Q(q)
        assert diag == PolyMatrix.identity(2, "v")

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=10, deadline=None)
    def test_transports_the_ideal(self, rng):
        q = PolyMatrix(
            [
                [
                    UniPoly(
                        {rng.randrange(2): rng.randrange(-2, 3)}, "v"
                    )
                    for _ in range(2)
                ]
                for _ in range(2)
            ],
            "v",
        )
        if q.det().is_zero():
            q = q + PolyMatrix.diag([v, v], "v")
        if q.det().is_zero():
            return
        diag, _, t = canonicalize_Q(q)
        gen = conformal_of(q, V - D)
        for _ in range(5):
            m = ConformalElement(
                [
                    [
                        BiPoly(
                            [
                                (
                                    rng.randrange(2),
                                    rng.randrange(2),
                                    rng.randrange(-2, 3),
                                )
                            ]
                        )
                        for _ in range(2)
                    ]
                    for _ in range(2)
                ]
            )
            x = m * gen
            assert left_ideal_member(x, q)
            assert left_ideal_member(apply_autom(x, t), diag)

    # A failed re-check is a bug, so it must raise a typed error that
    # survives ``python -O`` (a bare assert would not).
    def test_failed_transport_raises_a_typed_error(self, monkeypatch):
        monkeypatch.setattr(
            cend.classify, "_left_ideal_test", lambda q: lambda x: False
        )
        with pytest.raises(InvariantError):
            canonicalize_Q(PolyMatrix([[v]], "v"))

    def test_verify_reports_a_failed_transport(self, monkeypatch):
        monkeypatch.setattr(
            cend.classify, "_left_ideal_test", lambda q: lambda x: False
        )
        report = verify_suite(seed=1, suite="ideals", sizes=[1])
        (entry,) = [c for c in report["checks"] if c["tag"] == "canonical-diagonal-transport"]
        assert entry["failures"] == entry["cases"] > 0
        assert entry["examples"][0] == "size 1: sampled transport failed"


def pair_closure_reference(pres):
    """The closure sweeping every ordered pair of basis elements in each
    round (rank^2 sweeps at the fixed point), as ``subalgebra_closure`` did
    before it swept only the generators' basis against the new rows.
    Returns a ``ClosureResult``; its ``iterations`` count rounds of pairs."""
    c = cend.classify
    n, bound = pres.n, pres.v_deg_bound
    overflow = False
    rows = []
    for g in pres.generators:
        vec = c._encode(g, bound)
        if vec is None:
            overflow = True
        else:
            rows.append(vec)
    basis = hermite_reduce(rows, (bound + 1) * n * n)
    elements = {p: c._decode(r, n) for p, r in basis.int_rows.items()}
    fixed_point = False
    iterations = 0
    fresh = elements
    while iterations < pres.iter_bound:
        iterations += 1
        new_rows = {}
        # pairs with a factor from the last wave; older pairs were reduced
        # against a smaller basis, and bases only grow
        pool = [(a, b) for a in fresh.values() for b in elements.values()]
        pool += [
            (a, b) for p, a in elements.items() if p not in fresh for b in fresh.values()
        ]
        for a, b in pool:
            products, den, over = c._product_coords(a, b, bound)
            overflow = overflow or over
            for ints in products:
                if not basis.member(ints):
                    key = frozenset(
                        (i, d, Fraction(x, den))
                        for i, p in ints.items()
                        for d, x in p.items()
                    )
                    new_rows.setdefault(key, ints)
        if not new_rows:
            fixed_point = True
            break
        old = basis.int_rows
        basis = basis.extend(new_rows.values())
        fresh = {
            p: c._decode(r, n) for p, r in basis.int_rows.items() if old.get(p) != r
        }
        elements = {p: fresh[p] if p in fresh else elements[p] for p in basis.pivots}
    return c.ClosureResult(
        n, bound, tuple(elements.values()), fixed_point, overflow, iterations
    )


def rational_growth_draw():
    """A random N = 2 draw at v-bound 1.  Sweeping its raw generators as
    left factors sends 44 unreduced rows into one ``extend``, whose rational
    coefficients grow; their Hermite basis sends 23."""
    zero = 0 * ONE
    gens = (
        ConformalElement([[-D, D], [-D - ONE, 3 * ONE]]),
        ConformalElement([[-2 * D - 3 * V, -2 * V + 3 * ONE], [-(D * V), zero]]),
        ConformalElement([[-3 * D * D + 2 * ONE, zero], [-2 * D + 2 * ONE, -(D * D) - ONE]]),
    )
    return SubalgebraPresentation(gens, 1)


class TestSubalgebraClosure:
    def test_units_close_up(self):
        # three units generate the missing fourth
        gens = [unit(2, 0, 0), unit(2, 0, 1), unit(2, 1, 0)]
        pres = SubalgebraPresentation(tuple(gens), v_deg_bound=2, iter_bound=6)
        got = subalgebra_closure(pres)
        assert got.fixed_point and not got.overflow
        assert len(got.elements) == 4
        vec_e22 = unit(2, 1, 1)
        assert vec_e22 in got.elements

    def test_translation_generates_the_scalar_current(self):
        # D(2)D = -2, so the closure of {D} is the whole rank-one current
        pres = SubalgebraPresentation(
            (ConformalElement([[D]]),), v_deg_bound=1, iter_bound=4
        )
        got = subalgebra_closure(pres)
        assert got.fixed_point and not got.overflow
        assert got.elements == (ConformalElement.identity(1),)

    def test_overflow_is_flagged_but_stable(self):
        # v closes onto {v, v^2} at bound 2 while v*v^2 overflows
        pres = SubalgebraPresentation(
            (ConformalElement([[V]]),), v_deg_bound=2, iter_bound=6
        )
        got = subalgebra_closure(pres)
        assert got.fixed_point
        assert got.overflow
        assert len(got.elements) == 2

    def test_iteration_budget_reported(self):
        gens = [unit(2, 0, 0), unit(2, 0, 1), unit(2, 1, 0)]
        pres = SubalgebraPresentation(tuple(gens), v_deg_bound=2, iter_bound=1)
        got = subalgebra_closure(pres)
        assert not got.fixed_point
        assert got.iterations == 1

    def test_left_ideal_generator_spans_ideal_slice(self):
        g = e_nq(1, PolyMatrix([[v]], "v"))
        pres = SubalgebraPresentation((g,), v_deg_bound=3, iter_bound=8)
        got = subalgebra_closure(pres)
        assert got.fixed_point and got.overflow
        assert len(got.elements) == 3
        q = PolyMatrix([[v]], "v")
        for e in got.elements:
            assert left_ideal_member(e, q)

    def test_mixed_sizes_rejected(self):
        with pytest.raises(DimensionMismatchError):
            SubalgebraPresentation(
                (ConformalElement.identity(1), ConformalElement.identity(2)),
                v_deg_bound=2,
            )

    def test_empty_presentation_closes_to_nothing(self):
        pres = SubalgebraPresentation((), v_deg_bound=1, iter_bound=1)
        got = subalgebra_closure(pres)
        assert got.elements == ()
        assert got.fixed_point and not got.overflow



class TestGeneratorDrivenClosure:
    """The closure sweeps the generators' Hermite basis against the new rows
    only; ``pair_closure_reference`` sweeps every pair of basis elements."""

    @given(
        st.integers(1, 2).flatmap(
            lambda n: st.lists(
                elements(n, max_dd=2, max_dv=1, max_terms=2), min_size=1, max_size=3
            )
        ),
        st.integers(1, 3),
    )
    # overflowing at v-bound 1: the pair closure also holds e00 = e01 (1) v e10
    # and e10, which no word of products inside the bound reaches, so the
    # generator closure alone reads Unknown where the pair closure reads
    # LeftIdeal
    @example([unit(2, 1, 0, V), unit(2, 0, 1, D), unit(2, 0, 1) + unit(2, 1, 1, D * V + ONE)], 1)
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_the_pair_closure(self, gens, bound):
        """Equal closures without overflow, and equal classifications with
        it.  ``_pair_closure``, which classification falls back on, is the
        reference's span."""
        pres = SubalgebraPresentation(tuple(gens), bound)
        got, ref = subalgebra_closure(pres), pair_closure_reference(pres)
        for x in got.elements:  # canonical basis rows: each pivot entry is monic
            row, den = cend.classify._encode(x, bound), x._term_form()[2]
            top = row[min(row)]
            assert top[max(top)] == den
        pairs = cend.classify._pair_closure(pres)
        assert (pairs.elements, pairs.fixed_point) == (ref.elements, ref.fixed_point)
        if not (got.overflow or ref.overflow):
            assert got.elements == ref.elements
            return
        verdict = classification_to_json(classify_irreducible(pres))
        with mock.patch.object(cend.classify, "subalgebra_closure", pair_closure_reference):
            want = classification_to_json(classify_irreducible(pres))
        assert verdict == want

    def test_an_unfinished_closure_is_classified_on_the_pair_closure(self):
        """Words of four generator letters do not reach the fixed point here,
        while four rounds of pairs do; the verdict is the pair closure's."""
        g = ConformalElement([[0 * ONE, -3 * D * D - 3 * D], [-3 * ONE, 2 * V]])
        pres = SubalgebraPresentation((g,), 3, iter_bound=4)
        assert not subalgebra_closure(pres).fixed_point
        assert pair_closure_reference(pres).fixed_point
        got = classify_irreducible(pres)
        assert got.verdict == "LeftIdeal"
        assert got.ideal_q == PolyMatrix.diag([one_v, one_v], "v")

    @pytest.mark.parametrize("n, bound", [(2, 1), (2, 3), (3, 2), (4, 5)])
    def test_slice_rank_meets_the_formula(self, n, bound):
        """The slice's Q has deg det Q = 1, so the rank is N^2 (b + 1) - N."""
        got = subalgebra_closure(matrix_slice(n, bound))
        assert got.fixed_point
        assert len(got.elements) == n * n * (bound + 1) - n
        assert got.elements == pair_closure_reference(matrix_slice(n, bound)).elements

    @pytest.mark.parametrize(
        "entries, rank",
        [
            (
                [[-3 * D * V - V, 2 * D * V - 2 * D], [3 * D * D * V, -2 * D * V + ONE]],
                16,
            ),
            ([[3 * D * D * V - 3 * V, -(D * V)], [-(D * D), 2 * D * V - 3 * V]], 14),
        ],
    )
    def test_single_generators_whose_rows_grew(self, entries, rank):
        """Single generators whose closure at v-bound 3 once took seconds in
        ``extend``, while the rational coefficients of unreduced rows grew."""
        pres = SubalgebraPresentation((ConformalElement(entries),), 3)
        got = subalgebra_closure(pres)
        assert len(got.elements) == rank
        assert got.elements == pair_closure_reference(pres).elements

    def test_left_factors_are_the_generators_basis(self, monkeypatch):
        pres = rational_growth_draw()
        c = cend.classify
        rows = [c._encode(g, pres.v_deg_bound) for g in pres.generators]
        ncols = (pres.v_deg_bound + 1) * pres.n**2
        basis = hermite_reduce(rows, ncols)
        start = [c._decode(r, pres.n) for r in basis.int_rows.values()]
        assert not any(g in start for g in pres.generators)
        lefts = []
        product_coords = c._product_coords

        def spy(a, b, bound):
            lefts.append(a)
            return product_coords(a, b, bound)

        monkeypatch.setattr(c, "_product_coords", spy)
        got = subalgebra_closure(pres)
        monkeypatch.undo()
        assert lefts and all(a in start for a in lefts)
        assert got.elements == pair_closure_reference(pres).elements


@st.composite
def rational_pairs(draw, max_n=3, max_terms=2):
    """Two elements of one size N <= max_n with small rational coefficients."""
    n = draw(st.integers(1, max_n))
    coeff = st.fractions(-3, 3, max_denominator=4)
    pair = []
    for _ in range(2):
        rows = [
            [
                BiPoly(
                    {
                        (draw(st.integers(0, 2)), draw(st.integers(0, 2))): draw(coeff)
                        for _ in range(draw(st.integers(0, max_terms)))
                    }
                )
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        pair.append(ConformalElement(rows))
    return tuple(pair)


class TestProductVectors:
    """The closure reads sparse integer coordinates straight from the
    n-product sweep and tests them for membership on integers."""

    @staticmethod
    def fractions(coords, den):
        """Rows in the sparse integer form over ``den``, as rationals."""
        return [
            {i: {d: Fraction(x, den) for d, x in p.items()} for i, p in ints.items()}
            for ints in coords
        ]

    def encoded(self, x, bound):
        """``_encode(x, bound)`` as rationals, or None above the bound."""
        row = cend.classify._encode(x, bound)
        return None if row is None else self.fractions([row], x._term_form()[2])[0]

    @given(rational_pairs(), st.integers(0, 4))
    @settings(max_examples=80, deadline=None)
    def test_vectors_equal_the_encoded_products(self, pair, bound):
        a, b = pair
        products = [x for x in nproducts(a, b) if not x.is_zero()]
        coords, den, overflow = cend.classify._product_coords(a, b, bound)
        for ints in coords:
            assert all(type(x) is int and x for p in ints.values() for x in p.values())
        encoded = [self.encoded(x, bound) for x in products]
        assert self.fractions(coords, den) == [e for e in encoded if e is not None]
        assert overflow == any(x.deg_v > bound for x in products)

    def test_over_bound_products_set_overflow(self):
        # v (0) v = v^2 is over bound 1, v (1) v = v is not
        v1 = ConformalElement([[V]])
        coords, den, overflow = cend.classify._product_coords(v1, v1, 1)
        assert overflow
        assert self.fractions(coords, den) == [self.encoded(v1, 1)]

    def test_zero_products_are_skipped(self):
        got = cend.classify._product_coords(unit(2, 0, 1), unit(2, 0, 1), 2)
        assert got[0] == [] and not got[2]

    def test_closure_queues_each_non_member_once(self, monkeypatch):
        # e01 (0) v e10 and v e01 (0) e10 are both v e00, a non-member in the
        # first round; each round's rows extend the basis without repeats
        seen = []
        extend = HSubmoduleBasis.extend

        def spy(self, rows):
            rows = list(rows)
            if self.rank:  # a closure round, not the generators' basis
                seen.append(rows)
            return extend(self, rows)

        monkeypatch.setattr(HSubmoduleBasis, "extend", spy)
        gens = [unit(2, 0, 1), unit(2, 1, 0), unit(2, 0, 1, V), unit(2, 1, 0, V)]
        subalgebra_closure(SubalgebraPresentation(tuple(gens), 3, 8))
        assert seen
        for rows in seen:
            # whole rows, each divided by its leading coefficient: rows that
            # differ by a factor are one non-member
            forms = []
            for r in rows:
                top = r[min(r)]
                lead = Fraction(top[max(top)])
                forms.append(
                    {i: {d: x / lead for d, x in p.items()} for i, p in r.items()}
                )
            assert all(f not in forms[:k] for k, f in enumerate(forms))

    def test_closure_bookkeeping_is_linear_in_the_rank(self, monkeypatch):
        # the closure finds last round's elements by pivot, not by comparing
        # elements; a scan over the element lists costs ~rank^2 comparisons
        calls = 0
        eq = ConformalElement.__eq__

        def spy(self, other):
            nonlocal calls
            calls += 1
            return eq(self, other)

        pres = matrix_slice(4, 5)
        monkeypatch.setattr(ConformalElement, "__eq__", spy)
        got = subalgebra_closure(pres)
        monkeypatch.undo()
        assert got.fixed_point and len(got.elements) == 92
        assert calls <= len(got.elements)


class TestKvIdealMatrix:
    @given(rational_pairs(max_terms=3), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_later_layers_add_nothing(self, pair, bound):
        n = pair[0].n
        layers = [
            [c * V**t for c in pair] for t in range(bound + 1)
        ]
        everything = [x for layer in layers for x in layer]
        ideal = cend.classify._kv_ideal_matrix
        assert ideal(layers[0], n) == ideal(everything, n)


def all_layers_directness(closure):
    """Directness from the rank of every layer sum ``C + vC + ... + v^t C``
    up to the bound, each layer encoded from ``c * v^t`` directly."""
    n, bound = closure.n, closure.v_deg_bound
    ambient = 2 * bound
    ncols = (ambient + 1) * n * n
    encode = cend.classify._encode
    layers = [
        [encode(c * V**t, ambient) for c in closure.elements]
        for t in range(bound + 1)
    ]
    direct, overlap = True, False
    prefix = hermite_reduce(layers[0], ncols)
    layer_rank = prefix.rank
    for t, layer in enumerate(layers[1:], 1):
        combined = hermite_reduce(list(prefix.rows) + layer, ncols)
        if combined.rank < prefix.rank + layer_rank:
            direct = False
            overlap = overlap or t == 1
        prefix = combined
    if overlap:
        return "Overlap"
    return "Direct" if direct else "NonDirectNoOverlap"


class TestKvClosure:
    def test_current_is_direct_with_unit_ideal(self):
        gens = [unit(2, i, j) for i in range(2) for j in range(2)]
        pres = SubalgebraPresentation(tuple(gens), v_deg_bound=2, iter_bound=4)
        got = kv_closure(pres)
        assert got.directness == "Direct"
        assert got.ideal_q == PolyMatrix.identity(2, "v")
        assert got.certified_at_bound == 2

    def test_scalar_ideal_overlaps(self):
        g = e_nq(1, PolyMatrix([[v]], "v"))
        pres = SubalgebraPresentation((g,), v_deg_bound=3, iter_bound=8)
        got = kv_closure(pres)
        assert got.directness == "Overlap"
        assert got.ideal_q == PolyMatrix([[v]], "v")

    def test_matrix_ideal_overlaps(self):
        q = PolyMatrix.diag([one_v, v], "v")
        gens = [
            unit(2, 0, 0),
            unit(2, 1, 0),
            unit(2, 0, 1, V - D),
            unit(2, 1, 1, V - D),
        ]
        pres = SubalgebraPresentation(tuple(gens), v_deg_bound=3, iter_bound=8)
        got = kv_closure(pres)
        assert got.directness == "Overlap"
        assert got.ideal_q == q

    def test_element_outside_the_extracted_ideal_is_bound_too_small(self):
        # C is the k[D]-span of v and v^2, whose D = 0 rows give Q = (v);
        # but v itself is no multiple M(D, v) * (v - D)
        pres = SubalgebraPresentation(
            (ConformalElement([[-V]]),), v_deg_bound=2, iter_bound=4
        )
        with pytest.raises(
            BoundTooSmallError, match="spanned element escapes the extracted ideal"
        ):
            kv_closure(pres)

    def test_rank_below_n_is_bound_too_small(self):
        pres = SubalgebraPresentation((unit(2, 0, 0),), v_deg_bound=2, iter_bound=4)
        with pytest.raises(
            BoundTooSmallError, match="the k\\[v\\]-span has rank below 2"
        ):
            kv_closure(pres)

    @given(
        st.integers(1, 2).flatmap(
            lambda n: st.lists(
                elements(n, max_dd=1, max_dv=1, max_terms=2, coeff=st.integers(-2, 2)),
                min_size=1,
                max_size=2,
            )
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_directness_matches_the_all_layers_ranks(self, gens):
        """Stopping at the first layer that adds less than rank C gives the
        verdict of ranking every layer sum up to the bound."""
        pres = SubalgebraPresentation(tuple(gens), v_deg_bound=2, iter_bound=4)
        closure = subalgebra_closure(pres)
        assume(closure.fixed_point and closure.elements)
        try:
            got = kv_closure(pres, closure=closure)
        except BoundTooSmallError:
            assume(False)
        assert got.directness == all_layers_directness(closure)

    def test_generator_above_the_bound_is_bound_too_small(self):
        # the closure would drop v^3 and span only the scalar current
        gens = (ConformalElement.identity(1), ConformalElement([[V**3]]))
        pres = SubalgebraPresentation(gens, v_deg_bound=1, iter_bound=4)
        with pytest.raises(
            BoundTooSmallError, match="v-degree 3 above the v-degree bound 1"
        ):
            kv_closure(pres)

    def test_not_closed_raises(self):
        gens = [unit(2, 0, 0), unit(2, 0, 1), unit(2, 1, 0)]
        pres = SubalgebraPresentation(tuple(gens), v_deg_bound=2, iter_bound=1)
        with pytest.raises(NotClosedError):
            kv_closure(pres)

    def test_closure_at_another_bound_is_rejected(self):
        gens = (ConformalElement.identity(1), ConformalElement.identity(1).v_mul())
        closure = subalgebra_closure(SubalgebraPresentation(gens, 3, 8))
        pres = SubalgebraPresentation(gens, 1, 8)
        with pytest.raises(ValueError, match="bound 3.*bound 1"):
            kv_closure(pres, closure=closure)

    @pytest.mark.parametrize(
        "gens, bound",
        [
            pytest.param(
                lambda: [
                    unit(2, 0, 0),
                    unit(2, 1, 0),
                    unit(2, 0, 1, V - D),
                    unit(2, 1, 1, V - D),
                ],
                3,
                id="matrix-slice",
            ),
            pytest.param(
                lambda: [
                    apply_autom(unit(2, i, j), AutomorphismSpec(Fraction(0), upper_u()))
                    for i in range(2)
                    for j in range(2)
                ],
                2,
                id="conjugated-current",
            ),
            pytest.param(lambda: [e_nq(1, PolyMatrix([[v]], "v"))], 3, id="scalar-slice"),
        ],
    )
    def test_every_layer_has_the_rank_of_c(self, gens, bound):
        """The layer v^t * C encodes to C's rows shifted by t * N^2
        coordinates, so kv_closure ranks no layer on its own."""
        closure = subalgebra_closure(SubalgebraPresentation(tuple(gens()), bound, 8))
        assert closure.fixed_point
        n, ambient = closure.n, 2 * bound
        ncols = (ambient + 1) * n * n
        encode = cend.classify._encode
        c_rows = [encode(c, ambient) for c in closure.elements]
        rank_c = hermite_reduce(c_rows, ncols).rank
        assert rank_c == len(closure.elements)
        for t in range(1, bound + 1):
            layer = [
                encode(c * V**t, ambient) for c in closure.elements
            ]
            assert hermite_reduce(layer, ncols).rank == rank_c


class TestConjugationWitness:
    @given(
        st.integers(1, 3).flatmap(lambda n: unimodular(n)),
        st.lists(st.integers(-2, 2), max_size=2),
    )
    @settings(max_examples=60, deadline=None)
    def test_unimodular_multiple_divides_exactly(self, u, lower):
        """A square matrix with Smith form ``f * I`` is ``f`` times a
        unimodular matrix, so the witness search divides by ``f`` once."""
        f = UniPoly({len(lower): 1, **dict(enumerate(lower))}, "v")
        p_mat = u * f
        _, diag, _ = smith_normal_form(p_mat)
        assert diag == PolyMatrix.diag([f] * u.n, "v")
        assert p_mat.map(lambda e: e // f) == u


class TestClassify:
    def test_scalar_current(self):
        pres = SubalgebraPresentation(
            (ConformalElement.identity(1),), v_deg_bound=1, iter_bound=4
        )
        got = classify_irreducible(pres)
        assert got.verdict == "CurrentConjugate"
        assert got.witness.q == PolyMatrix.identity(1, "v")
        assert not got.alarm

    def test_matrix_current(self):
        gens = [unit(2, i, j) for i in range(2) for j in range(2)]
        pres = SubalgebraPresentation(tuple(gens), v_deg_bound=2, iter_bound=4)
        got = classify_irreducible(pres)
        assert got.verdict == "CurrentConjugate"
        # already a current algebra: the witness conjugation is constant
        assert all(
            got.witness.q.entry(i, j).degree in (None, 0)
            for i in range(2)
            for j in range(2)
        )

    def test_conjugated_current_recovers_witness(self):
        t = AutomorphismSpec(Fraction(0), upper_u())
        gens = [
            apply_autom(unit(2, i, j), t) for i in range(2) for j in range(2)
        ]
        pres = SubalgebraPresentation(tuple(gens), v_deg_bound=2, iter_bound=4)
        got = classify_irreducible(pres)
        assert got.verdict == "CurrentConjugate"
        assert got.witness.q == PolyMatrix(
            [[one_v, -v], [zero_v, one_v]], "v"
        )
        # and the witness indeed undoes the twist on every generator
        for g in gens:
            assert apply_autom(g, got.witness).deg_v in (None, 0)

    def test_scalar_left_ideal(self):
        g = e_nq(1, PolyMatrix([[v]], "v"))
        pres = SubalgebraPresentation((g,), v_deg_bound=3, iter_bound=8)
        got = classify_irreducible(pres)
        assert got.verdict == "LeftIdeal"
        assert got.ideal_q == PolyMatrix([[v]], "v")
        assert not got.alarm

    def test_matrix_left_ideal(self):
        gens = [
            unit(2, 0, 0),
            unit(2, 1, 0),
            unit(2, 0, 1, V - D),
            unit(2, 1, 1, V - D),
        ]
        pres = SubalgebraPresentation(tuple(gens), v_deg_bound=3, iter_bound=8)
        got = classify_irreducible(pres)
        assert got.verdict == "LeftIdeal"
        assert got.ideal_q == PolyMatrix.diag([one_v, v], "v")
        assert not got.alarm

    def test_under_bounded_budget_stays_unknown(self):
        """A too-small v-degree budget must never produce a wrong verdict."""
        g = e_nq(1, PolyMatrix([[v * v]], "v"))
        pres = SubalgebraPresentation((g,), v_deg_bound=2, iter_bound=8)
        got = classify_irreducible(pres)
        assert got.verdict == "Unknown"
        assert got.reason is not None

    def test_squared_ideal_resolves_at_larger_bound(self):
        g = e_nq(1, PolyMatrix([[v * v]], "v"))
        pres = SubalgebraPresentation((g,), v_deg_bound=5, iter_bound=10)
        got = classify_irreducible(pres)
        assert got.verdict == "LeftIdeal"
        assert got.ideal_q == PolyMatrix([[v * v]], "v")
        assert not got.alarm

    @pytest.mark.parametrize(
        "top, bound",
        [(V**3, 1), (V**3, 2), (V**2 - D, 1)],
        ids=["v3-bound1", "v3-bound2", "v2-minus-d-bound1"],
    )
    def test_generator_above_the_bound_stays_unknown(self, top, bound):
        """A generator the closure drops must not leave a current algebra
        to certify."""
        gens = (ConformalElement.identity(1), ConformalElement([[top]]))
        got = classify_irreducible(SubalgebraPresentation(gens, bound))
        assert got.verdict == "Unknown"
        assert got.reason == (
            f"a generator has v-degree {top.deg_v} above the v-degree bound {bound}"
        )

    @pytest.mark.parametrize(
        "top, bound", [(V**3, 3), (V**2 - D, 2)], ids=["v3-bound3", "v2-minus-d-bound2"]
    )
    def test_generator_inside_the_bound_gives_the_unit_ideal(self, top, bound):
        gens = (ConformalElement.identity(1), ConformalElement([[top]]))
        got = classify_irreducible(SubalgebraPresentation(gens, bound))
        assert got.verdict == "LeftIdeal"
        assert got.ideal_q == PolyMatrix.identity(1, "v")

    @pytest.mark.parametrize("bound", [8, 9])
    def test_r_conjugated_units_are_current_conjugate(self, bound):
        """The matrix units conjugated by R = [[2v^4 + 1, v^2], [2v^2, 1]]
        reach v-degree 8; the exact density check needs no degree bound, so
        the default arguments find a witness."""
        r = PolyMatrix([[2 * v**4 + one_v, v * v], [2 * v * v, one_v]], "v")
        t = AutomorphismSpec(Fraction(0), r)
        gens = tuple(apply_autom(unit(2, i, j), t) for i in range(2) for j in range(2))
        got = classify_irreducible(SubalgebraPresentation(gens, v_deg_bound=bound))
        assert got.verdict == "CurrentConjugate"
        for g in gens:
            assert apply_autom(g, got.witness).deg_v in (None, 0)

    def test_non_dense_input_is_refused(self):
        # the corner unit alone acts reducibly; no positive verdict allowed
        pres = SubalgebraPresentation(
            (unit(2, 0, 0),), v_deg_bound=1, iter_bound=4
        )
        got = classify_irreducible(pres)
        assert got.verdict == "Unknown"
        assert "precondition" in got.reason

    def test_reducible_diagonal_is_refused(self):
        # D*Id closes onto scalars, whose module action fixes each line
        pres = SubalgebraPresentation(
            (ConformalElement.identity(2).d_mul(),), v_deg_bound=1, iter_bound=4
        )
        got = classify_irreducible(pres)
        assert got.verdict == "Unknown"
        assert "precondition" in got.reason

    @pytest.mark.parametrize("n", [2, 3])
    def test_cyclic_shift_is_not_a_conjugated_current(self, n):
        """The shift S = sum_k e_(k+1)k (the swap matrix at n = 2) acts
        densely, and the identity strips v from C = k[D]{S^i}; but C has
        k[D]-rank n < n^2, so it is no conjugate of Cur_n."""
        shift = sum(
            (unit(n, (k + 1) % n, k) for k in range(n)), ConformalElement.zero(n)
        )
        assert orbit_density_check([shift]).verdict == "Dense"
        got = classify_irreducible(SubalgebraPresentation((shift,), v_deg_bound=1))
        assert got.verdict == "Unknown"
        assert got.reason == "the witness carries C onto a proper subalgebra of Cur_N"
