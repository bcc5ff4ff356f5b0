"""Acceptance gate: one test per advertised guarantee of the package.

Every check here is exact -- rational arithmetic, zero tolerance.  Random
draws are seeded per test, so a failure always reproduces.  The whole module
is meant to be read top to bottom as the contract of the library:

  01  product family satisfies the defining axioms
  02  both associativity expansions (and a corruption control)
  03  bracket laws
  04  Virasoro witness values
  05  shift isomorphism transports products and inverts
  06  symbol composition rules and sequence reconstruction
  07  operator action realizes the products
  08  Weyl normal form vs. an independent single-swap oracle
  09  shift-by-h coefficient sequences
  10  diagonalization witnesses and left-ideal membership
  11  transform group structure and the discontinuity witness
  12  desk-scale classification instances
  13  structure relations for current/shift generators
  14  byte-identical seeded verification runs
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

from test_weyl import slow_mul

from cend.classify import (
    AutomorphismSpec,
    SubalgebraPresentation,
    apply_autom,
    apply_autom_weyl,
    canonicalize_Q,
    classify_irreducible,
    compose_autom,
    e_nq,
    left_ideal_member,
)
from cend.conformal import (
    ConformalElement,
    bracket,
    check_associativity,
    check_lie,
    locality,
    locality_bound,
    nproduct,
    phi,
    phi_inv,
    v_id,
)
from cend.operators import (
    act,
    element_sequence,
    orbit_density_check,
    reconstruct,
    symbol,
    verify_composition,
)
from cend.poly import BiPoly, PolyMatrix, UniPoly, smith_normal_form
from cend.sampling import (
    rand_autom,
    rand_conformal,
    rand_fraction,
    rand_polymatrix,
    rand_weyl,
    rand_weyl_matrix,
)
from cend.weyl import (
    WeylElement,
    WeylMatrix,
    h_sequences,
    q_valuation,
    rebase_coefficients,
    rebase_inverse,
    split_by_shift,
    verify_h_identities,
    weyl_mul,
)


def _rng(tag: str) -> random.Random:
    return random.Random(f"acceptance:{tag}")


def _eval_matrix(m: PolyMatrix, t: BiPoly) -> ConformalElement:
    """Substitute the matrix's variable by the bivariate polynomial t."""
    powers = [BiPoly.const(1)]

    def at(f: UniPoly) -> BiPoly:
        acc = BiPoly.zero()
        for d in range((f.degree or 0) + 1):
            while len(powers) <= d:
                powers.append(powers[-1] * t)
            c = f.coeff(d)
            if c:
                acc = acc + powers[d] * BiPoly.const(c)
        return acc

    return ConformalElement(
        [[at(m.entry(i, j)) for j in range(m.n)] for i in range(m.n)]
    )


def _of_v(m: PolyMatrix) -> ConformalElement:
    return _eval_matrix(m, BiPoly.v())


def _of_v_minus_d(m: PolyMatrix) -> ConformalElement:
    return _eval_matrix(m, BiPoly.v() - BiPoly.D())


def _diag_weyl(size: int, e: WeylElement) -> WeylMatrix:
    zero = WeylElement.zero()
    return WeylMatrix(
        [[e if i == j else zero for j in range(size)] for i in range(size)]
    )


def test_01_product_family_satisfies_the_defining_axioms():
    rng = _rng("axioms")
    checked = 0
    for size, terms, reps in ((1, 3, 90), (2, 2, 70), (3, 1, 40)):
        for _ in range(reps):
            a = rand_conformal(rng, size, 3, 3, terms=terms)
            b = rand_conformal(rng, size, 3, 3, terms=terms)
            # truncation: products vanish from the degree bound onwards
            bound = locality_bound(a, b)
            assert nproduct(a, bound, b).is_zero()
            assert nproduct(a, bound + 1, b).is_zero()
            assert locality(a, b) <= bound
            # shifted first argument lowers the index
            da, db = a.d_mul(), b.d_mul()
            assert nproduct(da, 0, b).is_zero()
            for n in range(1, 7):
                assert nproduct(da, n, b) == nproduct(a, n - 1, b) * (-n)
            # shifted second argument obeys the Leibniz-style rule
            assert nproduct(a, 0, db) == nproduct(a, 0, b).d_mul()
            for n in range(1, 7):
                assert nproduct(a, n, db) == nproduct(a, n, b).d_mul() + (
                    nproduct(a, n - 1, b) * n
                )
            checked += 1
    assert checked == 200


def test_02_both_associativity_expansions_hold_and_corruption_is_caught():
    rng = _rng("assoc")
    checked = 0
    for size, terms, reps in ((1, 2, 60), (2, 1, 40)):
        for _ in range(reps):
            a, b, c = (
                rand_conformal(rng, size, 3, 3, terms=terms) for _ in range(3)
            )
            got = check_associativity(a, b, c, 4, 4)
            assert got.ok, got.failures
            checked += 1
    assert checked == 100

    # negative control: a drifted product must break the same expansions
    def bad(x, n, y):
        out = nproduct(x, n, y)
        return out + ConformalElement.scalar(out.n, BiPoly.const(1))

    a, b, c = (rand_conformal(rng, 1, 2, 2) for _ in range(3))
    broken = False
    for n in range(3):
        for m in range(3):
            lhs = bad(bad(a, n, b), m, c)
            rhs = ConformalElement.zero(1)
            for s in range(n + 1):
                t = bad(a, n - s, bad(b, m + s, c)) * comb(n, s)
                rhs = rhs + (-t if s % 2 else t)
            broken = broken or lhs != rhs
    assert broken


def test_03_bracket_is_skew_and_satisfies_the_jacobi_expansion():
    rng = _rng("lie")
    checked = 0
    for size, deg, terms, reps in ((1, 2, 2, 70), (2, 1, 1, 30)):
        for _ in range(reps):
            a, b, c = (
                rand_conformal(rng, size, deg, deg, terms=terms)
                for _ in range(3)
            )
            got = check_lie(a, b, c, 2, 2)
            assert got.ok, got.failures
            checked += 1
    assert checked == 100


def test_04_negated_multiplier_is_a_virasoro_element():
    ell = v_id(1) * (-1)
    assert bracket(ell, 0, ell) == ell.d_mul() * (-1)
    assert bracket(ell, 1, ell) == ell * (-2)
    for n in range(2, 9):
        assert bracket(ell, n, ell).is_zero()


def test_05_shift_isomorphism_transports_products_and_inverts():
    rng = _rng("phi")
    checked = 0
    for size, reps in ((1, 60), (2, 40)):
        for _ in range(reps):
            a = rand_conformal(rng, size, 2, 2)
            b = rand_conformal(rng, size, 2, 2)
            assert phi_inv(phi(a)) == a
            assert phi(phi_inv(a)) == a
            fa, fb = phi(a), phi(b)
            for n in range(locality_bound(a, b) + 1):
                assert phi(nproduct(a, n, b)) == nproduct(fa, n, fb, circ=True)
            checked += 1
    assert checked == 100


def test_06_operator_symbols_compose_and_reconstruct_exactly():
    rng = _rng("bridge")
    checked = 0
    for size, reps in ((1, 50), (2, 50)):
        for _ in range(reps):
            a = rand_conformal(rng, size)
            b = rand_conformal(rng, size)
            for n in range(4):
                for m in range(4):
                    got = verify_composition(a, b, n, m)
                    assert got.ok, (size, n, m, got)
            assert reconstruct(element_sequence(a)) == a
            checked += 1
    assert checked == 100


def test_07_operator_action_realizes_the_products_and_composes():
    rng = _rng("act")
    checked = 0
    for size, reps in ((1, 50), (2, 50)):
        for _ in range(reps):
            a = rand_conformal(rng, size)
            b = rand_conformal(rng, size)
            n = rng.randrange(0, 5)
            assert act(symbol(a, n), b) == nproduct(a, n, b)
            w1 = rand_weyl_matrix(rng, size)
            w2 = rand_weyl_matrix(rng, size)
            assert act(w1 * w2, b) == act(w1, act(w2, b))
            checked += 1
    assert checked == 100


def test_08_normal_form_multiplication_matches_the_single_swap_oracle():
    rng = _rng("weyl")
    for _ in range(100):
        a = rand_weyl(rng, max_dp=5, max_dq=5, terms=3)
        b = rand_weyl(rng, max_dp=5, max_dq=5, terms=3)
        assert weyl_mul(a, b) == slow_mul(a, b)
    # every sampled transform preserves the defining commutation relation
    for _ in range(20):
        size = rng.choice((1, 2))
        t = rand_autom(rng, size, with_h=True)
        tq = apply_autom_weyl(_diag_weyl(size, WeylElement.q()), t)
        tp = apply_autom_weyl(_diag_weyl(size, WeylElement.p()), t)
        assert tq * tp - tp * tq == WeylMatrix.identity(size)


def test_09_shift_coefficient_sequences_satisfy_their_identities():
    rng = _rng("hseq")
    q = WeylElement.q()
    for _ in range(20):
        h = UniPoly(
            {
                d: rand_fraction(rng, span=3, max_den=3)
                for d in range(rng.randrange(0, 4) + 1)
            },
            "p",
        )
        got = verify_h_identities(h, 12)
        assert got.ok, got
        # the lower sequence is exactly the shift-free part of (q - h)^n
        seqs = h_sequences(h, 10)
        hw = WeylElement.from_poly(h)
        power = WeylElement.one()
        for n in range(11):
            stem, c = split_by_shift(power)
            assert c == seqs.lower[n]
            assert stem * q + WeylElement.from_poly(c) == power
            power = power * (q - hw)
        # rebasing coefficient lists is invertible
        coeffs = [
            UniPoly(
                {d: rand_fraction(rng, span=3, max_den=2) for d in range(3)},
                "p",
            )
            for _ in range(4)
        ]
        assert rebase_inverse(rebase_coefficients(coeffs, h), h) == coeffs
        assert rebase_coefficients(rebase_inverse(coeffs, h), h) == coeffs


def test_10_diagonalization_witnesses_and_ideal_membership_are_exact():
    rng = _rng("ideal")
    for _ in range(50):
        size = rng.randrange(1, 4)
        q = rand_polymatrix(rng, size, max_deg=3)
        t, dg, u = smith_normal_form(q)
        assert t * q * u == dg
        for w in (t, u):
            det = w.det()
            assert not det.is_zero() and det.degree == 0

    members = 0
    while members < 100:
        size = rng.choice((1, 2))
        q = rand_polymatrix(rng, size, max_deg=2)
        if q.det().is_zero():
            continue
        gen = _of_v_minus_d(q)
        x = rand_conformal(rng, size, 1, 1) * gen
        assert left_ideal_member(x, q)
        a = rand_conformal(rng, size, 1, 1)
        for n in range(locality(a, x) + 1):
            assert left_ideal_member(nproduct(a, n, x), q)
            members += 1

    for _ in range(20):
        size = rng.choice((1, 2, 3))
        q = rand_polymatrix(rng, size, max_deg=2)
        if q.det().is_zero():
            continue
        assert left_ideal_member(e_nq(size, q), q)


def test_11_transforms_are_homomorphisms_and_form_a_group():
    rng = _rng("autom")
    for _ in range(50):
        size = rng.choice((1, 2))
        t1 = rand_autom(rng, size)
        t2 = rand_autom(rng, size)
        a = rand_conformal(rng, size, 2, 2)
        b = rand_conformal(rng, size, 2, 2)
        n = rng.randrange(0, 4)
        assert apply_autom(nproduct(a, n, b), t1) == nproduct(
            apply_autom(a, t1), n, apply_autom(b, t1)
        )
        assert apply_autom(apply_autom(a, t1), t2) == apply_autom(
            a, compose_autom(t1, t2)
        )

    # adding p to the shift breaks continuity: every image keeps order zero
    t = AutomorphismSpec(
        Fraction(0), PolyMatrix.identity(1, "v"), UniPoly.gen("p")
    )
    for n in range(9):
        w = WeylMatrix([[WeylElement.q(n)]])
        assert q_valuation(apply_autom_weyl(w, t)) == 0


def test_12_desk_scale_classification_returns_the_expected_verdicts():
    v = UniPoly.gen("v")
    one_v = UniPoly.const(1, "v")
    zero_v = UniPoly.zero("v")

    def unit(n, i, j, f=BiPoly.const(1)):
        return ConformalElement.single(n, i, j, f)

    curr1 = (ConformalElement.identity(1),)
    curr2 = tuple(unit(2, i, j) for i in range(2) for j in range(2))
    twist = AutomorphismSpec(
        Fraction(0), PolyMatrix([[one_v, v], [zero_v, one_v]], "v")
    )
    twisted = tuple(apply_autom(g, twist) for g in curr2)
    ideal1 = (e_nq(1, PolyMatrix([[v]], "v")),)
    ideal2 = (
        unit(2, 0, 0),
        unit(2, 1, 0),
        unit(2, 0, 1, BiPoly.v() - BiPoly.D()),
        unit(2, 1, 1, BiPoly.v() - BiPoly.D()),
    )

    runs = (
        (curr1, 1, 4, "CurrentConjugate", None),
        (curr2, 2, 4, "CurrentConjugate", None),
        (twisted, 2, 4, "CurrentConjugate", None),
        (ideal1, 3, 8, "LeftIdeal", PolyMatrix([[v]], "v")),
        (ideal2, 3, 8, "LeftIdeal", PolyMatrix.diag([one_v, v], "v")),
    )
    for gens, v_bound, iters, verdict, expected_q in runs:
        pres = SubalgebraPresentation(
            gens, v_deg_bound=v_bound, iter_bound=iters
        )
        got = classify_irreducible(pres)
        assert got.verdict == verdict
        assert not got.alarm
        if verdict == "CurrentConjugate":
            # the witness must strip every multiplier power from the input
            assert got.witness is not None
            for g in gens:
                assert apply_autom(g, got.witness).deg_v in (None, 0)
        else:
            # returned divisor agrees with the expected one up to units
            assert canonicalize_Q(got.ideal_q)[0] == canonicalize_Q(
                expected_q
            )[0]
        assert orbit_density_check(list(gens)).verdict == "Dense"


def test_13_current_and_shift_generators_satisfy_the_structure_relations():
    rng = _rng("structure")
    for _ in range(50):
        size = rng.choice((1, 2))
        a_m, b_m, a1_m, b1_m = (
            rand_polymatrix(rng, size, max_deg=3) for _ in range(4)
        )
        ea = _of_v(a_m)
        fb = _of_v_minus_d(b_m)
        x = ea * fb
        ea1 = _of_v(a1_m)
        y = ea1 * _of_v_minus_d(b1_m)
        zero = ConformalElement.zero(size)

        # multiplication part sees the shifted factor only at index zero
        for n in range(locality(ea, fb) + 2):
            assert nproduct(ea, n, fb) == (x if n == 0 else zero)

        # products against current and mixed elements differentiate the core
        deriv = b_m * a1_m
        for n in range(max(locality(x, ea1), locality(x, y)) + 1):
            core = _of_v(a_m * deriv)
            assert nproduct(x, n, ea1) == core
            assert nproduct(x, n, y) == core * _of_v_minus_d(b1_m)
            deriv = deriv.map(lambda f: f.derivative())


def test_14_seeded_verification_runs_are_byte_identical(monkeypatch):
    # the children import cend from this checkout, whatever PYTHONPATH says
    src = str(Path(__file__).resolve().parent.parent / "src")
    rest = os.environ.get("PYTHONPATH")
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, rest])))
    cmd = [sys.executable, "-m", "cend", "verify", "--seed", "42"]
    first = subprocess.run(cmd, input="", capture_output=True, text=True)
    second = subprocess.run(cmd, input="", capture_output=True, text=True)
    assert first.returncode == 0
    assert second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.strip()
