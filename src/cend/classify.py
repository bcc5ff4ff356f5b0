"""Automorphisms, one-sided ideals, and classification of conformal subalgebras.

The automorphisms of the ambient algebra acting here come in a two-parameter
family (a shift of the polynomial variable and a unimodular conjugation),
extended on the operator side by a third parameter that re-bases the
translation generator.  On top of them this module builds:

* membership tests for the standard one-sided ideals, decided over ``k[v]``
  from the Smith form ``T * Q * U = diag(d_j)``: after ``phi``, an element
  lies in the left ideal of ``Q`` exactly when column ``j`` of its product
  with ``U`` is divisible by ``d_j`` in every D-coefficient,
* a canonical form for the matrix that cuts out a left ideal,
* closure of a finitely generated subalgebra under all n-products
  (as a finitely encoded fixed-point computation): each product's integer
  numerators, read from the n-product sweep, are tested for membership in
  the current ``k[D]``-span by pseudo-division on integers, and only
  non-members become ``Fraction`` rows for the Hermite reduction,
* the induced ``k[v]``-span of a closed subalgebra together with a
  directness analysis, and
* the classification routine that decides whether an irreducible
  subalgebra is conjugate to a current algebra or equal to a left ideal.

Everything is exact; verdicts that depend on a degree bound say so instead
of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .conformal import (
    ConformalElement,
    _product_bound,
    _sesquilinear_sweep,
    phi,
    phi_inv,
)
from .errors import (
    BoundTooSmallError,
    DimensionMismatchError,
    InvariantError,
    NotClosedError,
    SingularMatrixError,
)
from .poly import (
    BiPoly,
    PolyMatrix,
    UniPoly,
    hermite_reduce,
    rat,
    smith_normal_form,
    unimodular_inverse,
)
from .weyl import WeylMatrix, weyl_endo

__all__ = [
    "AutomorphismSpec",
    "Classification",
    "ClosureResult",
    "KvClosureResult",
    "SubalgebraPresentation",
    "apply_autom",
    "apply_autom_weyl",
    "canonicalize_Q",
    "classify_irreducible",
    "compose_autom",
    "e_nq",
    "kv_closure",
    "left_ideal_member",
    "right_ideal_member",
    "subalgebra_closure",
]


# --------------------------------------------------------------------------
# automorphism specifications
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AutomorphismSpec:
    """Data ``(alpha, Q, h)`` of an automorphism.

    ``alpha`` shifts the polynomial variable, ``Q`` (a unimodular matrix
    over ``k[v]``) conjugates, and ``h`` (a polynomial in ``p``) re-bases
    the translation generator on the operator side.  The subalgebra level
    action requires ``h = 0``; the operator level action supports all three.
    """

    alpha: Fraction
    q: PolyMatrix
    h: UniPoly = field(default_factory=lambda: UniPoly.zero("p"))

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", rat(self.alpha))
        if self.q.var != "v":
            object.__setattr__(self, "q", self.q.retag("v"))
        if self.h.var != "p":
            object.__setattr__(self, "h", self.h.retag("p"))

    @property
    def n(self) -> int:
        return self.q.n


def compose_autom(t1: AutomorphismSpec, t2: AutomorphismSpec) -> AutomorphismSpec:
    """The spec acting like ``t1`` followed by ``t2``.

    Substituting the action of ``t2`` into the action of ``t1`` shifts every
    piece of ``t1`` by ``alpha2``, whence the composite
    ``(alpha1 + alpha2, Q1(v + alpha2) * Q2(v), h2(p) + h1(p + alpha2))``.
    """
    if t1.n != t2.n:
        raise DimensionMismatchError(f"sizes {t1.n} and {t2.n}")
    return AutomorphismSpec(
        t1.alpha + t2.alpha,
        t1.q.shift(t2.alpha) * t2.q,
        t2.h + t1.h.shift(t2.alpha),
    )


def _lift(q: PolyMatrix) -> ConformalElement:
    """A matrix over ``k[x]`` read as a D-free element in ``v``."""
    return ConformalElement.from_d_coeffs({0: q}, q.n)


def apply_autom(a: ConformalElement, t: AutomorphismSpec) -> ConformalElement:
    """Image of ``a`` under the automorphism ``t`` (requires ``t.h = 0``).

    The action is ``a(D, v) -> Q^{-1}(v) * a(D, v + alpha) * Q(v - D)``:
    the two evaluation points of ``Q`` differ because conjugation has to
    commute with the left and the right polynomial actions separately.
    """
    if not t.h.is_zero():
        raise ValueError("subalgebra-level transforms require h = 0")
    if a.n != t.n:
        raise DimensionMismatchError(f"sizes {a.n} and {t.n}")
    q_inv = _lift(unimodular_inverse(t.q))
    return q_inv * a._subst_v(t.alpha, 0) * phi_inv(_lift(t.q))


def apply_autom_weyl(w: WeylMatrix, t: AutomorphismSpec) -> WeylMatrix:
    """Image of an operator matrix: ``Q^{-1}(p) * w(p + alpha, q - h(p)) * Q(p)``."""
    if w.n != t.n:
        raise DimensionMismatchError(f"sizes {w.n} and {t.n}")
    qp = t.q.retag("p")
    q_inv = WeylMatrix.from_poly_matrix(unimodular_inverse(qp))
    q_right = WeylMatrix.from_poly_matrix(qp)
    moved = w.map(lambda e: weyl_endo(e, t.alpha, t.h))
    return q_inv * moved * q_right


# --------------------------------------------------------------------------
# one-sided ideals
# --------------------------------------------------------------------------


def left_ideal_member(x: ConformalElement, q: PolyMatrix) -> bool:
    """Whether ``x`` lies in the left ideal of all ``M(D, v) * Q(v - D)``.

    Raises :class:`SingularMatrixError` when ``det Q = 0`` (the ideal is not
    cut out by a regular matrix, and the Smith-form test needs every
    invariant factor of ``Q`` to be nonzero).
    """
    if x.n != q.n:
        raise DimensionMismatchError(f"sizes {x.n} and {q.n}")
    return _left_ideal_test(q)(x)


def _left_ideal_test(q: PolyMatrix):
    """``left_ideal_member(., q)`` with Q's Smith form built once; the
    returned test takes elements of Q's size.  ``phi`` carries
    ``M(D, v) * Q(v - D)`` to ``M(D, v + D) * Q(v)``."""
    test = _right_factor_test(q)
    return lambda x: test(phi(x))


def _right_factor_test(q: PolyMatrix):
    """A test of whether ``y = M(D, v) * Q(v)`` for some ``M``.

    With ``T * Q * U = diag(d_0, ..., d_{N-1})`` and ``T``, ``U``
    unimodular, ``y = M * Q`` holds exactly when ``y * U = (M * T^{-1}) *
    diag(d)``, that is when column ``j`` of ``y * U(v)`` is divisible by
    ``d_j`` in every D-coefficient.  Raises :class:`SingularMatrixError`
    when ``det Q = 0``.
    """
    _, diag, u = smith_normal_form(q)
    divisors = []  # (d_j, column j of U) for each nonconstant d_j
    for j in range(q.n):
        d = diag.entry(j, j)
        if d.is_zero():
            raise SingularMatrixError("divisor matrix has zero determinant")
        if d.degree:
            divisors.append((d, [u.entry(k, j)._c for k in range(q.n)]))

    def test(y: ConformalElement) -> bool:
        for d, u_col in divisors:
            # {(row, D-degree): {v-degree: coefficient}} of column j of y * U
            col: dict = {}
            for (r, k, i, p), a in y._c.items():
                cell = col.setdefault((r, i), {})
                for e, b in u_col[k].items():
                    cell[p + e] = cell.get(p + e, 0) + a * b
            if any(UniPoly._new(c, q.var) % d for c in col.values()):
                return False
        return True

    return test


def right_ideal_member(x: ConformalElement, p: PolyMatrix) -> bool:
    """Whether ``x`` lies in the right ideal of all ``P(v) * M(D, v)``."""
    if x.n != p.n:
        raise DimensionMismatchError(f"sizes {x.n} and {p.n}")
    # the entries commute, so P * M = X exactly when M^T * P^T = X^T
    return _right_factor_test(p.transpose())(x.transpose())


def e_nq(n: int, q: PolyMatrix) -> ConformalElement:
    """The distinguished generator ``e_{NN} * Q(v - D)`` of the left ideal."""
    if q.n != n:
        raise DimensionMismatchError(f"sizes {n} and {q.n}")
    corner = ConformalElement.single(n, n - 1, n - 1, BiPoly.const(1))
    return corner * phi_inv(_lift(q))


def canonicalize_Q(
    q: PolyMatrix,
) -> tuple[PolyMatrix, PolyMatrix, AutomorphismSpec]:
    """Diagonal ideal datum equivalent to ``Q``, with conjugation witnesses.

    Returns ``(Dg, T, t)`` where ``Dg`` is the diagonal of monic invariant
    factors, ``T * Q * U = Dg`` with both witnesses unimodular, and
    ``t = (0, U, 0)`` is the automorphism carrying the left ideal of ``Q``
    onto the left ideal of ``Dg``.  For regular ``Q`` that transport is
    re-verified here on a deterministic sample of ideal members.
    """
    t_mat, diag, u_mat = smith_normal_form(q)
    spec = AutomorphismSpec(Fraction(0), u_mat)
    if not q.det().is_zero():
        gen = phi_inv(_lift(q))
        member = _left_ideal_test(diag)
        for m in _ambient_samples(q.n):
            x = m * gen
            if not member(apply_autom(x, spec)):
                raise InvariantError(
                    "canonicalization failed to transport a sampled member"
                )
    return diag, t_mat, spec


# --------------------------------------------------------------------------
# subalgebra closure
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SubalgebraPresentation:
    """Finite generating data: generators plus the degree/iteration budget."""

    generators: tuple[ConformalElement, ...]
    v_deg_bound: int
    iter_bound: int = 12

    def __post_init__(self) -> None:
        object.__setattr__(self, "generators", tuple(self.generators))
        n = self.generators[0].n if self.generators else 0
        for g in self.generators:
            if g.n != n:
                raise DimensionMismatchError("generators of mixed size")
        if self.v_deg_bound < 1 or self.iter_bound < 1:
            raise ValueError("bounds must be at least 1")

    @property
    def n(self) -> int:
        return self.generators[0].n if self.generators else 0


@dataclass(frozen=True)
class ClosureResult:
    """Fixed point (or best effort) of closing generators under n-products.

    ``elements`` is a canonical echelon basis of the computed span as a
    ``k[D]``-module.  ``fixed_point`` says whether another round of products
    added nothing; ``overflow`` says whether some product was discarded for
    exceeding the v-degree bound.  The two flags are independent: a span can
    be stable at the bound while still producing out-of-bound products.
    """

    n: int
    v_deg_bound: int
    elements: tuple[ConformalElement, ...]
    fixed_point: bool
    overflow: bool
    iterations: int


_ZERO_D = UniPoly.zero("D")


def _encode(a: ConformalElement, v_bound: int) -> list[UniPoly] | None:
    """Coordinates of ``a`` over ``k[D]``, indexed by (v-degree, row, col).

    Returns None when the element exceeds the v-degree bound.
    """
    n = a.n
    coords: dict[int, dict[int, Fraction]] = {}
    for (r, c, d, e), x in a._c.items():
        if e > v_bound:
            return None
        coords.setdefault((e * n + r) * n + c, {})[d] = x
    return _vector(coords, n, v_bound)


def _vector(coords: dict, n: int, v_bound: int) -> list[UniPoly]:
    """The coordinate vector with ``{index: {D-degree: coefficient}}`` filled in."""
    vec = [_ZERO_D] * ((v_bound + 1) * n * n)  # UniPoly values are never mutated
    for idx, by_d in coords.items():
        vec[idx] = UniPoly._new(by_d, "D")
    return vec


def _product_coords(
    a: ConformalElement, b: ConformalElement, v_bound: int
) -> tuple[list[dict[int, dict[int, int]]], int, bool]:
    """The nonzero products ``nproducts(a, b)`` inside the v-degree bound.

    Returns ``(coords, den, overflow)``: each product's coordinates (as
    indexed by :func:`_encode`) in the sparse integer form
    ``{index: {D-degree: numerator}}`` over the shared denominator ``den``,
    read straight from the n-product sweep's accumulators, and whether some
    product exceeded the bound (it is dropped).  Zero products are skipped.
    """
    n = a.n
    accs, den = _sesquilinear_sweep(a, b, range(_product_bound(a, b, False)), False)
    coords = []
    overflow = False
    for acc in accs:
        vec: dict[int, dict[int, int]] = {}
        for (r, c, d, e), x in acc.items():
            if x:
                if e > v_bound:
                    overflow = True
                    break
                vec.setdefault((e * n + r) * n + c, {})[d] = x
        else:
            if vec:
                coords.append(vec)
    return coords, den, overflow


def _decode(vec: list[UniPoly], n: int) -> ConformalElement:
    c: dict = {}
    for idx, f in enumerate(vec):
        e, rest = divmod(idx, n * n)
        r, col = divmod(rest, n)
        for d, a in f._c.items():
            c[r, col, d, e] = a
    return ConformalElement._new(c, n)


def subalgebra_closure(pres: SubalgebraPresentation) -> ClosureResult:
    """Close the generators under all n-products inside the v-degree bound.

    Products whose v-degree exceeds the bound are dropped (and flagged);
    everything else is absorbed into a canonical ``k[D]``-module basis until
    it stops growing or the iteration budget runs out.
    """
    n = pres.n
    bound = pres.v_deg_bound
    overflow = False

    rows = []
    for g in pres.generators:
        vec = _encode(g, bound)
        if vec is None:
            overflow = True
        else:
            rows.append(vec)
    basis = hermite_reduce(rows, (bound + 1) * n * n)
    elements = [_decode(r, n) for r in basis.rows]

    fixed_point = False
    iterations = 0
    fresh = list(elements)
    while iterations < pres.iter_bound:
        iterations += 1
        # non-members in first-seen order, keyed by their set of terms; a
        # repeat would be reduced again
        new_rows: dict[frozenset, list[UniPoly]] = {}
        # Pairs with at least one factor from the last wave suffice: older
        # pairs were already reduced against a smaller basis, and bases only
        # grow, so their products stay inside the span.
        pool = [(a, b) for a in fresh for b in elements]
        pool += [(a, b) for a in elements for b in fresh if a not in fresh]
        for a, b in pool:
            products, den, over = _product_coords(a, b, bound)
            overflow = overflow or over
            for ints in products:
                if not basis.member(ints):
                    coords = {
                        i: {d: Fraction(x, den) for d, x in p.items()}
                        for i, p in ints.items()
                    }
                    key = frozenset(
                        (i, d, x) for i, p in coords.items() for d, x in p.items()
                    )
                    if key not in new_rows:
                        new_rows[key] = _vector(coords, n, bound)
        if not new_rows:
            fixed_point = True
            break
        basis = hermite_reduce(list(basis.rows) + list(new_rows.values()), basis.ncols)
        decoded = [_decode(r, n) for r in basis.rows]
        fresh = [e for e in decoded if e not in elements]
        elements = decoded

    return ClosureResult(
        n=n,
        v_deg_bound=bound,
        elements=tuple(elements),
        fixed_point=fixed_point,
        overflow=overflow,
        iterations=iterations,
    )


# --------------------------------------------------------------------------
# k[v]-span of a closed subalgebra
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class KvClosureResult:
    """The ideal generated by ``k[v] * C`` together with a directness verdict.

    ``ideal_q`` is the canonical (echelon, regular) matrix over ``k[v]`` whose
    left ideal contains ``C``.  ``directness`` is ``"Direct"`` when the
    layers ``v^t * C`` meet trivially up to the bound, ``"Overlap"`` when
    already ``C`` meets ``v * C``, and ``"NonDirectNoOverlap"`` when the
    first layer to meet the earlier ones comes later (a pattern the theory
    excludes).  All verdicts are certified only up to ``certified_at_bound``.
    """

    ideal_q: PolyMatrix
    directness: str
    certified_at_bound: int
    ambient_bound: int


def _kv_ideal_matrix(elements: list[ConformalElement], n: int) -> PolyMatrix | None:
    """Row-reduce the D=0 specializations into a square matrix over ``k[v]``.

    Setting ``D = 0`` in a left-ideal element ``M(D, v) * Q(v - D)`` leaves
    ``M(0, v) * Q(v)``, so the row space over ``k[v]`` of the specialized
    elements recovers the row space of ``Q``.  Returns None when the rows do
    not span full rank yet.
    """
    zero = PolyMatrix.zeros(n, "v")
    rows = [r for e in elements for r in e.d_coeffs().get(0, zero).rows]
    basis = hermite_reduce(rows, n)
    if basis.rank < n:
        return None
    return PolyMatrix(basis.rows, "v")


def kv_closure(
    pres: SubalgebraPresentation,
    closure: ClosureResult | None = None,
) -> KvClosureResult:
    """Span a closed subalgebra by ``k[v]`` and identify the resulting ideal.

    Raises :class:`NotClosedError` when the presentation does not reach a
    fixed point, and :class:`BoundTooSmallError` when a generator lies above
    the v-degree bound (the closure would drop it), the span has rank below
    N, or some element of ``C`` escapes the ideal it extracts at the
    available v-degree budget.
    A ``closure`` passed in must have been computed at the presentation's
    v-degree bound; otherwise :class:`ValueError` names both bounds.
    """
    top = max((g.deg_v or 0 for g in pres.generators), default=0)
    if top > pres.v_deg_bound:
        raise BoundTooSmallError(
            f"a generator has v-degree {top} above the v-degree bound "
            f"{pres.v_deg_bound}"
        )
    if closure is None:
        closure = subalgebra_closure(pres)
    if closure.v_deg_bound != pres.v_deg_bound:
        raise ValueError(
            f"closure computed at v-degree bound {closure.v_deg_bound}, "
            f"presentation has bound {pres.v_deg_bound}"
        )
    if not closure.fixed_point:
        raise NotClosedError(
            f"no fixed point within {pres.iter_bound} rounds at "
            f"v-degree bound {pres.v_deg_bound}"
        )
    if not closure.elements:
        raise BoundTooSmallError("the presentation spans nothing")
    n = pres.n
    bound = pres.v_deg_bound
    ambient = 2 * bound
    ncols = (ambient + 1) * n * n

    # The layer v^t * C encodes to C's rows at the v-bound shifted by
    # t * N^2 coordinates and padded to the ambient width, so every layer
    # has the rank of C.
    rows = [_encode(c, bound) for c in closure.elements]

    def layer(t):
        pad, rest = [_ZERO_D] * (t * n * n), [_ZERO_D] * ((bound - t) * n * n)
        return [pad + r + rest for r in rows]

    # Directness of the sum C + vC + v^2 C + ...: the sum of submodules of a
    # free k[D]-module is direct exactly when the ranks add, and each layer
    # adds at most rank C, so the first layer that adds less decides.
    prefix = hermite_reduce(layer(0), ncols)
    rank_c = prefix.rank
    directness = "Direct"
    for t in range(1, bound + 1):
        combined = hermite_reduce(list(prefix.rows) + layer(t), ncols)
        if combined.rank < prefix.rank + rank_c:
            directness = "Overlap" if t == 1 else "NonDirectNoOverlap"
            break
        prefix = combined

    # Extract the ideal matrix from the D=0 specializations of C.  At D = 0
    # the rows of v^t * c are v^t times the rows of c, so the later layers
    # add nothing to the k[v]-row span.
    q_full = _kv_ideal_matrix(list(closure.elements), n)
    if q_full is None:
        raise BoundTooSmallError(
            f"the k[v]-span has rank below {n} at v-degree bound {bound}"
        )

    # Every element of C must lie in the left ideal the matrix cuts out,
    # decided exactly from its Smith form.  The ideal is closed under
    # v^t * Id and under left n-products with anything, so testing C covers
    # every layer v^t * C and every product a (n) x with x in C.
    member = _left_ideal_test(q_full)
    for x in closure.elements:
        if not member(x):
            raise BoundTooSmallError("spanned element escapes the extracted ideal")

    return KvClosureResult(
        ideal_q=q_full,
        directness=directness,
        certified_at_bound=bound,
        ambient_bound=ambient,
    )


def _ambient_samples(n: int) -> list[ConformalElement]:
    one = BiPoly.const(1)
    samples = [
        ConformalElement.identity(n),
        ConformalElement.identity(n).v_mul(),
        ConformalElement.identity(n).d_mul(),
    ]
    for i in range(n):
        for j in range(n):
            samples.append(ConformalElement.single(n, i, j, one))
    return samples


# --------------------------------------------------------------------------
# classification
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Classification:
    """Outcome of the irreducible-subalgebra classification.

    ``verdict`` is one of ``"CurrentConjugate"`` (with a conjugating
    ``witness``), ``"LeftIdeal"`` (with the cut-out matrix ``ideal_q``), or
    ``"Unknown"`` (with a ``reason``).  ``alarm`` marks the pattern that the
    structure theory excludes for genuinely irreducible inputs; it is
    reported rather than silently coerced into one of the good verdicts.
    """

    verdict: str
    bound: int
    witness: AutomorphismSpec | None = None
    ideal_q: PolyMatrix | None = None
    reason: str | None = None
    alarm: bool = False


def _lowest_order_matrices(elements) -> list[PolyMatrix]:
    """Leading (lowest D-order) coefficient matrix of each element."""
    out = []
    for e in elements:
        coeffs = e.d_coeffs()
        if not coeffs:
            continue
        out.append(coeffs[min(coeffs)])
    return out


def _conjugation_witness(
    closure: ClosureResult,
) -> AutomorphismSpec | None:
    """Search for ``R`` with ``R^{-1}(v) * C * R(v - D)`` free of ``v``.

    Candidate columns are drawn, untouched, from the orbit of a coordinate
    vector under the lowest-order coefficient matrices of the closure basis.
    (Re-combining them over ``k[v]`` would collapse the very twist the
    witness has to capture, so only rank bookkeeping uses echelon form.)
    When independent columns fill a square matrix ``P`` whose Smith form
    ``T * P * U`` is ``f * I``, the candidate ``P / f = T^{-1} * U^{-1}`` is
    unimodular; it is then verified against every basis element.
    """
    n = closure.n
    s0 = _lowest_order_matrices(closure.elements)
    if not s0:
        return None
    for col in range(n):
        columns: list[list[UniPoly]] = []
        rank = 0
        for mat in s0:
            vec = [mat.entry(i, col) for i in range(n)]
            if all(f.is_zero() for f in vec):
                continue
            grown = hermite_reduce(columns + [vec], n).rank
            if grown > rank:
                columns.append(vec)
                rank = grown
            if rank == n:
                break
        if rank < n:
            continue
        p_mat = PolyMatrix(
            [[columns[j][i] for j in range(n)] for i in range(n)], "v"
        )
        _, diag, _ = smith_normal_form(p_mat)
        f = diag.entry(0, 0)
        if any(diag.entry(i, i) != f for i in range(n)):
            continue
        witness = AutomorphismSpec(Fraction(0), p_mat.map(lambda e: e // f))
        if all(
            apply_autom(x, witness).deg_v in (None, 0)
            for x in closure.elements
        ):
            return witness
    return None


def classify_irreducible(
    pres: SubalgebraPresentation,
    deg_bound: int = 6,
    n_bound: int = 6,
) -> Classification:
    """Decide whether a presentation is current-conjugate or a left ideal.

    The decision procedure follows the structure of the span ``k[v] * C``:
    a direct sum points at a conjugated current algebra (a witness is then
    searched for and verified), an overlap at ``v * C`` points at the left
    ideal whose matrix ``kv_closure`` extracted and certified to contain
    ``C``, and anything else contradicts irreducibility and raises the alarm
    flag.  Density of the generated module is checked first; without it no
    positive verdict is attempted.
    """
    from .operators import orbit_density_check

    bound = pres.v_deg_bound
    density = orbit_density_check(
        list(pres.generators), deg_bound=deg_bound, n_bound=n_bound
    )
    if density.verdict != "Dense":
        return Classification(
            verdict="Unknown",
            bound=bound,
            reason="irreducibility precondition not established: "
            + density.reason,
        )

    closure = subalgebra_closure(pres)
    try:
        kv = kv_closure(pres, closure=closure)
    except (NotClosedError, BoundTooSmallError) as exc:
        return Classification(verdict="Unknown", bound=bound, reason=str(exc))

    if kv.directness == "Overlap":
        return Classification(
            verdict="LeftIdeal", bound=bound, ideal_q=kv.ideal_q
        )

    if kv.directness == "NonDirectNoOverlap":
        return Classification(
            verdict="Unknown",
            bound=bound,
            reason="the k[v]-span is neither direct nor overlapping at v*C, "
            "which the structure theory excludes for irreducible inputs",
            alarm=True,
        )

    witness = _conjugation_witness(closure)
    if witness is not None:
        return Classification(
            verdict="CurrentConjugate", bound=bound, witness=witness
        )
    return Classification(
        verdict="Unknown",
        bound=bound,
        reason="direct k[v]-span but no conjugating witness found "
        "at this bound",
    )
