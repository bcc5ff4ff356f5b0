"""Seeded self-checks spanning every layer of the package.

``verify_suite`` draws deterministic random instances, evaluates one exact
identity family per check, and aggregates the outcomes into a JSON-friendly
report.  Each check is a generator that yields one ``(ok, description)``
outcome per case, and :meth:`CheckResult.collect` counts them, so no case is
counted without being checked.  Every check uses rational arithmetic end to
end, so a single failure means a genuine broken identity, never rounding
noise.

The checks are grouped into suites mirroring the module layout (``core``,
``operators``, ``weyl``, ``ideals``, ``autom``, ``classify``); ``suite="all"``
runs everything.  Reports are deterministic for a fixed ``(seed, suite,
sizes, bounds)``: each check derives its own generator from the seed and the
check tag, so adding or filtering checks never shifts another check's draws.

``corrupt=True`` is an internal hook for testing the harness itself: it
perturbs the conformal product used by the identity loops, and the affected
tags must then report failures (a silent all-green corrupted run would mean
the checks are vacuous).  The benchmark's self-test passes it too, to show
that its output check rejects a report with failures.
"""

from __future__ import annotations

import random
from collections.abc import Mapping, Sequence
from fractions import Fraction
from math import factorial

from .classify import (
    AutomorphismSpec,
    SubalgebraPresentation,
    apply_autom,
    apply_autom_weyl,
    canonicalize_Q,
    classify_irreducible,
    compose_autom,
    e_nq,
    left_ideal_member,
    _left_ideal_test,
    _lift,
)
from .conformal import (
    ConformalElement,
    check_associativity,
    check_lie,
    bracket,
    locality,
    locality_bound,
    nproduct,
    nproducts,
    phi,
    phi_inv,
    sigma,
)
from .errors import CheckResult, InvariantError
from .operators import (
    OperatorSample,
    act,
    element_sequence,
    fit_differential_sequence,
    reconstruct,
    symbol,
    verify_composition,
)
from .poly import BiPoly, PolyMatrix, UniPoly, smith_normal_form
from .sampling import (
    rand_autom,
    rand_conformal,
    rand_polymatrix,
    rand_unipoly,
    rand_weyl,
    rand_weyl_matrix,
)
from .weyl import (
    WeylElement,
    WeylMatrix,
    h_sequences,
    q_valuation,
    rebase_coefficients,
    rebase_inverse,
    split_by_shift,
    verify_h_identities,
    weyl_endo,
    weyl_mul,
)

SUITES = ("core", "operators", "weyl", "ideals", "autom", "classify")

_DEFAULT_SIZES = (1, 2, 3)
_DEFAULT_BOUNDS = {"deg": 2, "n": 3, "cases": 3}

_MAX_EXAMPLES = 3  # failure descriptions kept per check in the report


class _Ctx:
    """Bundle of knobs a check reads: generator, sizes, bounds, products.

    ``prod`` and ``nproducts`` are the products the identity loops test;
    under ``corrupt`` every product they return is perturbed.
    """

    __slots__ = ("rng", "sizes", "deg", "n_max", "cases", "corrupt")

    def __init__(self, rng, sizes, deg, n_max, cases, corrupt):
        self.rng = rng
        self.sizes = sizes
        self.deg = deg
        self.n_max = n_max
        self.cases = cases
        self.corrupt = corrupt

    def _perturbed(self, p: ConformalElement) -> ConformalElement:
        return p + ConformalElement.identity(p.n) if self.corrupt else p

    def prod(self, a, n, b):
        return self._perturbed(nproduct(a, n, b))

    def nproducts(self, a, b):
        """The product table of (a, b); its length is their locality."""
        return tuple(map(self._perturbed, nproducts(a, b)))


def _at(table, k: int, n: int) -> ConformalElement:
    """Entry ``k`` of a product table; entries past its end are zero."""
    return table[k] if k < len(table) else ConformalElement.zero(n)


def _replay(got: CheckResult, prefix: str):
    """A library check's result as outcomes, its failures under ``prefix``."""
    for failure in got.failures:
        yield False, prefix + failure
    for _ in range(got.cases - len(got.failures)):
        yield True, prefix


def _unit(n: int, i: int, j: int) -> ConformalElement:
    return ConformalElement.single(n, i, j, BiPoly.const(1))


def _regular_polymatrix(rng, n: int, max_deg: int) -> PolyMatrix:
    while True:
        q = rand_polymatrix(rng, n, "v", max_deg=max_deg)
        if not q.det().is_zero():
            return q


# ---------------------------------------------------------------------------
# core: product family, bracket, isomorphisms
# ---------------------------------------------------------------------------


def _chk_locality_truncation(ctx):
    for n in ctx.sizes:
        for _ in range(ctx.cases):
            a = rand_conformal(ctx.rng, n, ctx.deg, ctx.deg)
            b = rand_conformal(ctx.rng, n, ctx.deg, ctx.deg)
            lim = locality(a, b)
            ok = lim <= locality_bound(a, b)
            yield ok, f"size {n}: scan exceeded the degree bound"
            # both products lie past the table, so they are computed afresh
            ok = ctx.prod(a, lim, b).is_zero() and ctx.prod(a, lim + 1, b).is_zero()
            yield ok, f"size {n}: nonzero product at the locality index"


def _chk_left_shift(ctx):
    for n in ctx.sizes:
        for _ in range(ctx.cases):
            a = rand_conformal(ctx.rng, n, ctx.deg, ctx.deg)
            b = rand_conformal(ctx.rng, n, ctx.deg, ctx.deg)
            for k in range(1, ctx.n_max + 1):
                ok = ctx.prod(a.d_mul(), k, b) == ctx.prod(a, k - 1, b) * (-k)
                yield ok, f"size {n}: left shift broke at n={k}"
            # n = 0 must kill the shifted argument entirely
            ok = ctx.prod(a.d_mul(), 0, b).is_zero()
            yield ok, f"size {n}: left shift broke at n=0"


def _chk_right_shift(ctx):
    for n in ctx.sizes:
        for _ in range(ctx.cases):
            a = rand_conformal(ctx.rng, n, ctx.deg, ctx.deg)
            b = rand_conformal(ctx.rng, n, ctx.deg, ctx.deg)
            bd = b.d_mul()
            ab = [ctx.prod(a, k, b) for k in range(ctx.n_max + 1)]
            ok = ctx.prod(a, 0, bd) == ab[0].d_mul()
            yield ok, f"size {n}: right shift broke at n=0"
            for k in range(1, ctx.n_max + 1):
                ok = ctx.prod(a, k, bd) == ab[k].d_mul() + ab[k - 1] * k
                yield ok, f"size {n}: right shift broke at n={k}"


def _chk_associativity(ctx):
    reps = max(1, ctx.cases - 1)
    for n in ctx.sizes:
        for _ in range(reps):
            a = rand_conformal(ctx.rng, n, ctx.deg, ctx.deg)
            b = rand_conformal(ctx.rng, n, ctx.deg, ctx.deg)
            c = rand_conformal(ctx.rng, n, ctx.deg, ctx.deg)
            yield from _replay(check_associativity(a, b, c, 2, 2), f"size {n}: ")


def _chk_bracket(ctx):
    for n in ctx.sizes:
        # the nested bracket sums grow fast; keep big sizes slim
        deg = ctx.deg if n == 1 else 1
        terms = 1 if n >= 3 else 2
        reps = 1 if n >= 3 else max(1, ctx.cases - 1)
        for _ in range(reps):
            a = rand_conformal(ctx.rng, n, deg, deg, terms=terms)
            b = rand_conformal(ctx.rng, n, deg, deg, terms=terms)
            c = rand_conformal(ctx.rng, n, deg, deg, terms=terms)
            yield from _replay(check_lie(a, b, c, 2, 2), f"size {n}: ")


def _chk_virasoro(ctx):
    if not ctx.sizes:
        return
    ell = ConformalElement([[-BiPoly.v()]])
    expected = {0: ell.d_mul() * (-1), 1: ell * (-2)}
    for k in range(6):
        want = expected.get(k, ConformalElement.zero(1))
        yield bracket(ell, k, ell) == want, f"wrong bracket value at n={k}"


def _chk_shift_transport(ctx):
    for n in ctx.sizes:
        for _ in range(ctx.cases):
            a = rand_conformal(ctx.rng, n, ctx.deg, ctx.deg)
            b = rand_conformal(ctx.rng, n, ctx.deg, ctx.deg)
            pa, pb = phi(a), phi(b)
            ok = phi_inv(pa) == a and phi(phi_inv(a)) == a
            yield ok, f"size {n}: shift inverse failed to cancel"
            table = nproducts(pa, pb, circ=True)
            for k in range(ctx.n_max + 1):
                ok = phi(ctx.prod(a, k, b)) == _at(table, k, n)
                yield ok, f"size {n}: transport broke at n={k}"


def _chk_transpose_twist(ctx):
    for n in ctx.sizes:
        deg = ctx.deg if n <= 2 else 1
        for _ in range(ctx.cases):
            a = rand_conformal(ctx.rng, n, deg, deg)
            b = rand_conformal(ctx.rng, n, deg, deg)
            sa, sb = sigma(a), sigma(b)
            yield sigma(sa) == a, f"size {n}: twist is not involutive"
            ok = sigma(a.d_mul()) == sa.d_mul() * (-1)
            yield ok, f"size {n}: twist does not negate the shift"
            ab, table = ctx.nproducts(a, b), nproducts(sb, sa)
            for k in range(max(len(ab), len(table))):
                rhs = ConformalElement.zero(n)
                for s, prod in enumerate(table[k:]):
                    t = prod._mul_monomial(s, 0)
                    t = t * Fraction(-1 if s % 2 else 1, factorial(s))
                    rhs = rhs + t
                ok = sigma(_at(ab, k, n)) == rhs
                yield ok, f"size {n}: anti-morphism broke at n={k}"


# ---------------------------------------------------------------------------
# operators: symbols, action, reconstruction
# ---------------------------------------------------------------------------


def _chk_operator_composition(ctx):
    for n in ctx.sizes:
        if n > 2:
            continue
        for _ in range(ctx.cases):
            a = rand_conformal(ctx.rng, n, ctx.deg, ctx.deg)
            b = rand_conformal(ctx.rng, n, ctx.deg, ctx.deg)
            for i in range(3):
                for j in range(3):
                    yield from _replay(verify_composition(a, b, i, j), f"size {n}: ")


def _chk_operator_action(ctx):
    for n in ctx.sizes:
        for _ in range(ctx.cases):
            a = rand_conformal(ctx.rng, n, ctx.deg, ctx.deg)
            b = rand_conformal(ctx.rng, n, ctx.deg, ctx.deg)
            table = ctx.nproducts(a, b)
            for k in range(len(table) + 1):
                ok = act(symbol(a, k), b) == _at(table, k, n)
                yield ok, f"size {n}: action mismatch at n={k}"


def _chk_symbol_roundtrip(ctx):
    for n in ctx.sizes:
        for _ in range(ctx.cases):
            a = rand_conformal(ctx.rng, n, ctx.deg, ctx.deg)
            seq = element_sequence(a)
            yield reconstruct(seq) == a, f"size {n}: reconstruction changed the element"
            ok = all(
                seq.operator(k) == symbol(a, k) for k in range(len(seq.coeffs) + 1)
            )
            yield ok, f"size {n}: sequence and symbols disagree"


def _chk_fit_from_samples(ctx):
    for n in ctx.sizes:
        for _ in range(ctx.cases):
            a = rand_conformal(ctx.rng, n, ctx.deg, ctx.deg)
            seq = element_sequence(a)
            top = len(seq.coeffs)
            samples = [
                OperatorSample(k, seq.operator(k)) for k in range(top + 1)
            ]
            ok = fit_differential_sequence(samples) == seq
            yield ok, f"size {n}: fitted sequence differs"


# ---------------------------------------------------------------------------
# weyl: normal form, endomorphisms, coefficient calculus
# ---------------------------------------------------------------------------


def _chk_weyl_associativity(ctx):
    if not ctx.sizes:
        return
    for _ in range(ctx.cases * len(ctx.sizes)):
        a = rand_weyl(ctx.rng, ctx.deg, ctx.deg)
        b = rand_weyl(ctx.rng, ctx.deg, ctx.deg)
        c = rand_weyl(ctx.rng, ctx.deg, ctx.deg)
        ok = weyl_mul(weyl_mul(a, b), c) == weyl_mul(a, weyl_mul(b, c))
        yield ok, "element product is not associative"
    for n in ctx.sizes:
        u = rand_weyl_matrix(ctx.rng, n, ctx.deg, ctx.deg)
        w = rand_weyl_matrix(ctx.rng, n, ctx.deg, ctx.deg)
        x = rand_weyl_matrix(ctx.rng, n, ctx.deg, ctx.deg)
        yield (u * w) * x == u * (w * x), f"size {n}: matrix product is not associative"


def _chk_weyl_commutation(ctx):
    if not ctx.sizes:
        return
    p, q, one = WeylElement.p(), WeylElement.q(), WeylElement.one()
    yield weyl_mul(q, p) - weyl_mul(p, q) == one, "qp - pq is not 1"
    for _ in range(ctx.cases * len(ctx.sizes)):
        alpha = Fraction(ctx.rng.randint(-2, 2))
        h = rand_unipoly(ctx.rng, "p", max_deg=2, terms=2, span=2)
        ep, eq = weyl_endo(p, alpha, h), weyl_endo(q, alpha, h)
        ok = weyl_mul(eq, ep) - weyl_mul(ep, eq) == one
        yield ok, "substitution broke the commutation relation"
        a = rand_weyl(ctx.rng, ctx.deg, ctx.deg)
        b = rand_weyl(ctx.rng, ctx.deg, ctx.deg)
        lhs = weyl_endo(weyl_mul(a, b), alpha, h)
        ok = lhs == weyl_mul(weyl_endo(a, alpha, h), weyl_endo(b, alpha, h))
        yield ok, "substitution is not multiplicative"


def _chk_h_sequences(ctx):
    if not ctx.sizes:
        return
    for _ in range(ctx.cases):
        h = rand_unipoly(ctx.rng, "p", max_deg=3, terms=2, span=2)
        yield from _replay(verify_h_identities(h, 8), "")


def _chk_shift_split(ctx):
    if not ctx.sizes:
        return
    q = WeylElement.q()
    for _ in range(ctx.cases):
        h = rand_unipoly(ctx.rng, "p", max_deg=2, terms=2, span=2)
        seqs = h_sequences(h, 6)
        hw = WeylElement.from_poly(h)
        lo_pow = WeylElement.one()
        up_pow = WeylElement.one()
        for k in range(7):
            stem, c = split_by_shift(lo_pow)
            ok = weyl_mul(stem, q) + WeylElement.from_poly(c) == lo_pow
            yield ok, f"split does not recompose at n={k}"
            ok = c == seqs.lower[k] and split_by_shift(up_pow)[1] == seqs.upper[k]
            yield ok, f"split misses the coefficient sequences at n={k}"
            lo_pow = weyl_mul(lo_pow, q - hw)
            up_pow = weyl_mul(up_pow, q + hw)


def _chk_rebase_roundtrip(ctx):
    if not ctx.sizes:
        return
    for _ in range(ctx.cases * len(ctx.sizes)):
        h = rand_unipoly(ctx.rng, "p", max_deg=2, terms=2, span=2)
        coeffs = [
            rand_unipoly(ctx.rng, "p", max_deg=2, terms=2, span=2)
            for _ in range(ctx.rng.randint(1, 5))
        ]
        ok = rebase_inverse(rebase_coefficients(coeffs, h), h) == coeffs
        yield ok, "rebase then inverse is not the identity"
        ok = rebase_coefficients(rebase_inverse(coeffs, h), h) == coeffs
        yield ok, "inverse then rebase is not the identity"


# ---------------------------------------------------------------------------
# ideals: diagonal form and one-sided ideals
# ---------------------------------------------------------------------------


def _unimodular(w: PolyMatrix) -> bool:
    """Whether ``det w`` is a nonzero constant."""
    det = w.det()
    return not det.is_zero() and det.degree == 0


def _chk_smith_witnesses(ctx):
    for n in ctx.sizes:
        for _ in range(ctx.cases):
            q = rand_polymatrix(ctx.rng, n, "v", max_deg=ctx.deg)
            t, dg, u = smith_normal_form(q)
            yield t * q * u == dg, f"size {n}: witnesses do not transform Q"
            ok = _unimodular(t) and _unimodular(u)
            yield ok, f"size {n}: witness is not unimodular"
            diag = [dg.entry(i, i) for i in range(n)]
            off_ok = all(
                dg.entry(i, j).is_zero()
                for i in range(n)
                for j in range(n)
                if i != j
            )
            chain_ok = all(
                diag[i + 1].is_zero()
                or (not diag[i].is_zero() and diag[i + 1].exact_div(diag[i]))
                for i in range(n - 1)
            )
            yield off_ok and chain_ok, f"size {n}: result is not a divisibility chain"


def _chk_ideal_left_action(ctx):
    for n in ctx.sizes:
        for _ in range(ctx.cases):
            q = _regular_polymatrix(ctx.rng, n, ctx.deg)
            member = _left_ideal_test(q)
            m = rand_conformal(ctx.rng, n, 1, 1)
            x = m * phi_inv(_lift(q))
            yield member(x), f"size {n}: generated element not recognized"
            c = rand_conformal(ctx.rng, n, 1, 1)
            for k, prod in enumerate(ctx.nproducts(c, x)):
                yield member(prod), f"size {n}: left action escaped at n={k}"


def _chk_ideal_corner_generator(ctx):
    for n in ctx.sizes:
        for _ in range(ctx.cases):
            q = _regular_polymatrix(ctx.rng, n, ctx.deg)
            x = e_nq(n, q)
            gen = phi_inv(_lift(q))
            yield _left_ideal_test(q)(x), f"size {n}: corner generator not a member"
            ok = all(
                x.entry(i, j).is_zero()
                for i in range(n - 1)
                for j in range(n)
            ) and all(
                x.entry(n - 1, j) == gen.entry(n - 1, j)
                for j in range(n)
            )
            yield ok, f"size {n}: corner generator has wrong shape"


def _chk_canonical_transport(ctx):
    for n in ctx.sizes:
        for _ in range(max(1, ctx.cases - 1)):
            q = _regular_polymatrix(ctx.rng, n, 1)
            try:
                dg, _, spec = canonicalize_Q(q)
            except InvariantError:
                yield False, f"size {n}: sampled transport failed"
                continue
            ok = all(
                dg.entry(i, j).is_zero()
                for i in range(n)
                for j in range(n)
                if i != j
            )
            yield ok, f"size {n}: canonical form is not diagonal"
            yield _unimodular(spec.q), f"size {n}: transport witness not unimodular"
            ok = left_ideal_member(apply_autom(e_nq(n, q), spec), dg)
            yield ok, f"size {n}: corner generator not transported"


# ---------------------------------------------------------------------------
# autom: the two-parameter transform group and its operator image
# ---------------------------------------------------------------------------


def _chk_autom_homomorphism(ctx):
    for n in ctx.sizes:
        for _ in range(ctx.cases):
            t = rand_autom(ctx.rng, n)
            a = rand_conformal(ctx.rng, n, 1, 1)
            b = rand_conformal(ctx.rng, n, 1, 1)
            image = nproducts(apply_autom(a, t), apply_autom(b, t))
            for k, prod in enumerate(ctx.nproducts(a, b)):
                ok = apply_autom(prod, t) == _at(image, k, n)
                yield ok, f"size {n}: transform broke the product at n={k}"


def _chk_autom_composition(ctx):
    for n in ctx.sizes:
        for _ in range(ctx.cases):
            t1 = rand_autom(ctx.rng, n)
            t2 = rand_autom(ctx.rng, n)
            a = rand_conformal(ctx.rng, n, 1, 1)
            ok = apply_autom(apply_autom(a, t1), t2) == apply_autom(
                a, compose_autom(t1, t2)
            )
            yield ok, f"size {n}: composition law broke on elements"
            s1 = rand_autom(ctx.rng, n, with_h=True)
            s2 = rand_autom(ctx.rng, n, with_h=True)
            w = rand_weyl_matrix(ctx.rng, n, 1, 1)
            ok = apply_autom_weyl(apply_autom_weyl(w, s1), s2) == apply_autom_weyl(
                w, compose_autom(s1, s2)
            )
            yield ok, f"size {n}: composition law broke on operators"


def _chk_autom_bridge(ctx):
    for n in ctx.sizes:
        for _ in range(ctx.cases):
            t = rand_autom(ctx.rng, n)
            a = rand_conformal(ctx.rng, n, 1, 1)
            image = apply_autom(a, t)
            for k in range(ctx.n_max + 1):
                ok = symbol(image, k) == apply_autom_weyl(symbol(a, k), t)
                yield ok, f"size {n}: operator images diverge at n={k}"


def _chk_autom_discontinuity(ctx):
    if not ctx.sizes:
        return
    t = AutomorphismSpec(
        Fraction(0), PolyMatrix.identity(1, "v"), UniPoly.gen("p")
    )
    for k in range(1, 9):
        w = WeylMatrix([[WeylElement.q(k)]])
        yield q_valuation(w) == k, f"wrong valuation before the transform at n={k}"
        ok = q_valuation(apply_autom_weyl(w, t)) == 0
        yield ok, f"valuation survived the re-basing at n={k}"


# ---------------------------------------------------------------------------
# classify: structure relations and the desk-scale classification runs
# ---------------------------------------------------------------------------


def _chk_structure_relations(ctx):
    for n in ctx.sizes:
        if n > 2:
            continue
        for _ in range(ctx.cases):
            mats = [
                rand_polymatrix(ctx.rng, n, "v", max_deg=ctx.deg)
                for _ in range(4)
            ]
            a, b, a1, b1 = mats
            ea, ea1 = _lift(a), _lift(a1)
            fb, fb1 = phi_inv(_lift(b)), phi_inv(_lift(b1))
            x = ea * fb
            y = ea1 * fb1
            first = ctx.nproducts(ea, fb)
            for k in range(len(first) + 1):
                want = x if k == 0 else ConformalElement.zero(n)
                ok = _at(first, k, n) == want
                yield ok, f"size {n}: first relation broke at n={k}"
            deriv = b * a1
            second, third = ctx.nproducts(x, ea1), ctx.nproducts(x, y)
            for k in range(max(len(second), len(third)) + 1):
                core = _lift(a * deriv)
                ok = _at(second, k, n) == core
                yield ok, f"size {n}: second relation broke at n={k}"
                ok = _at(third, k, n) == core * fb1
                yield ok, f"size {n}: third relation broke at n={k}"
                deriv = deriv.map(lambda f: f.derivative())


def _chk_classification_instances(ctx):
    if not ctx.sizes:
        return
    v = UniPoly.gen("v")
    one = UniPoly.const(1, "v")
    v_minus_d = BiPoly.v() - BiPoly.D()

    def run(label, pres, verdict, check):
        got = classify_irreducible(pres)
        if got.verdict != verdict or got.alarm:
            return False, f"{label}: verdict {got.verdict}, alarm {got.alarm}"
        return check(got), f"{label}: certificate does not match"

    yield run(
        "scalar current",
        SubalgebraPresentation(
            (ConformalElement.identity(1),), v_deg_bound=1, iter_bound=4
        ),
        "CurrentConjugate",
        lambda g: g.witness.q == PolyMatrix.identity(1, "v"),
    )
    yield run(
        "matrix current",
        SubalgebraPresentation(
            tuple(_unit(2, i, j) for i in range(2) for j in range(2)),
            v_deg_bound=2,
            iter_bound=4,
        ),
        "CurrentConjugate",
        lambda g: all(
            g.witness.q.entry(i, j).degree in (None, 0)
            for i in range(2)
            for j in range(2)
        ),
    )
    twist = AutomorphismSpec(
        Fraction(0), PolyMatrix([[one, v], [UniPoly.zero("v"), one]], "v")
    )
    yield run(
        "conjugated current",
        SubalgebraPresentation(
            tuple(
                apply_autom(_unit(2, i, j), twist)
                for i in range(2)
                for j in range(2)
            ),
            v_deg_bound=2,
            iter_bound=4,
        ),
        "CurrentConjugate",
        lambda g: all(
            apply_autom(apply_autom(_unit(2, i, j), twist), g.witness).deg_v
            in (None, 0)
            for i in range(2)
            for j in range(2)
        ),
    )
    yield run(
        "scalar slice",
        SubalgebraPresentation(
            (e_nq(1, PolyMatrix([[v]], "v")),), v_deg_bound=3, iter_bound=8
        ),
        "LeftIdeal",
        lambda g: g.ideal_q == PolyMatrix([[v]], "v"),
    )
    yield run(
        "matrix slice",
        SubalgebraPresentation(
            (
                _unit(2, 0, 0),
                _unit(2, 1, 0),
                ConformalElement.single(2, 0, 1, v_minus_d),
                ConformalElement.single(2, 1, 1, v_minus_d),
            ),
            v_deg_bound=3,
            iter_bound=8,
        ),
        "LeftIdeal",
        lambda g: g.ideal_q == PolyMatrix.diag([one, v], "v"),
    )


_CHECKS = (
    ("core", "locality-truncation", _chk_locality_truncation),
    ("core", "left-shift-compat", _chk_left_shift),
    ("core", "right-shift-leibniz", _chk_right_shift),
    ("core", "product-associativity", _chk_associativity),
    ("core", "bracket-laws", _chk_bracket),
    ("core", "virasoro-witness", _chk_virasoro),
    ("core", "shift-transport", _chk_shift_transport),
    ("core", "transpose-twist", _chk_transpose_twist),
    ("operators", "operator-composition", _chk_operator_composition),
    ("operators", "operator-action", _chk_operator_action),
    ("operators", "symbol-reconstruct-roundtrip", _chk_symbol_roundtrip),
    ("operators", "fit-from-samples", _chk_fit_from_samples),
    ("weyl", "weyl-associativity", _chk_weyl_associativity),
    ("weyl", "weyl-commutation", _chk_weyl_commutation),
    ("weyl", "h-sequence-identities", _chk_h_sequences),
    ("weyl", "shift-split", _chk_shift_split),
    ("weyl", "rebase-roundtrip", _chk_rebase_roundtrip),
    ("ideals", "smith-witnesses", _chk_smith_witnesses),
    ("ideals", "ideal-left-action", _chk_ideal_left_action),
    ("ideals", "ideal-corner-generator", _chk_ideal_corner_generator),
    ("ideals", "canonical-diagonal-transport", _chk_canonical_transport),
    ("autom", "autom-homomorphism", _chk_autom_homomorphism),
    ("autom", "autom-composition", _chk_autom_composition),
    ("autom", "autom-operator-bridge", _chk_autom_bridge),
    ("autom", "autom-discontinuity", _chk_autom_discontinuity),
    ("classify", "current-structure-relations", _chk_structure_relations),
    ("classify", "classification-instances", _chk_classification_instances),
)


def verify_suite(
    seed: int = 42,
    suite: str = "all",
    sizes: Sequence[int] | None = None,
    bounds: Mapping[str, int] | None = None,
    corrupt: bool = False,
) -> dict:
    """Run the property checks and return a deterministic report.

    ``sizes`` selects the matrix sizes random elements are drawn at (default
    1..3; an empty list runs every check at zero cases).  ``bounds`` may
    override ``deg`` (entry degrees), ``n`` (product index ceiling in the
    identity loops) and ``cases`` (draws per size per check).  The report
    carries one entry per check with its case and failure counts plus at most
    three failure descriptions; ``ok`` is True iff no check failed.
    """
    if suite != "all" and suite not in SUITES:
        raise ValueError(
            f"unknown suite {suite!r}; expected 'all' or one of {', '.join(SUITES)}"
        )
    if sizes is None:
        sizes = _DEFAULT_SIZES
    sizes = list(sizes)
    if any(not isinstance(s, int) or isinstance(s, bool) or s < 1 for s in sizes):
        raise ValueError("sizes must be positive integers")
    if bounds is None:
        bounds = {}
    if not isinstance(bounds, Mapping):
        raise ValueError("bounds must map bound names to integers")
    eff = dict(_DEFAULT_BOUNDS)
    for key, val in bounds.items():
        if key not in eff:
            raise ValueError(f"unknown bound {key!r}")
        if not isinstance(val, int) or isinstance(val, bool) or val < 1:
            raise ValueError("bounds must be positive integers")
        eff[key] = val

    checks = []
    total_cases = total_failures = 0
    for suite_name, tag, fn in _CHECKS:
        if suite != "all" and suite_name != suite:
            continue
        ctx = _Ctx(
            random.Random(f"{seed}:{tag}"),
            sizes,
            eff["deg"],
            eff["n"],
            eff["cases"],
            corrupt,
        )
        got = CheckResult.collect(fn(ctx))
        total_cases += got.cases
        total_failures += len(got.failures)
        entry = {
            "suite": suite_name,
            "tag": tag,
            "cases": got.cases,
            "failures": len(got.failures),
        }
        if got.failures:
            entry["examples"] = list(got.failures[:_MAX_EXAMPLES])
        checks.append(entry)
    return {
        "seed": seed,
        "suite": suite,
        "sizes": sizes,
        "bounds": eff,
        "cases": total_cases,
        "failures": total_failures,
        "ok": total_failures == 0,
        "checks": checks,
    }
