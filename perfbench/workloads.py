"""Seeded workloads for the benchmark: inputs, the timed call, output checks.

Each workload turns a seed into rounds of operations with a fixed mix of
kinds; only the random entries change from round to round and from seed to
seed, so the cost of a round is steady.  An operation is run by one client,
closed loop, and the library receives only the generated inputs.  Every
operation's output is encoded as canonical JSON for ``output_sha`` and
checked after the timed loop.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "cend" / "__init__.py").is_file():
    raise ImportError(f"no cend package under {SRC}")
sys.path.insert(0, str(SRC))

import cend  # noqa: E402
import cend.cli  # noqa: E402
from cend import (  # noqa: E402
    AutomorphismSpec,
    BiPoly,
    ConformalElement,
    PolyMatrix,
    SubalgebraPresentation,
    UniPoly,
    act,
    apply_autom,
    e_nq,
    left_ideal_member,
    nproduct,
    phi,
    phi_inv,
    subalgebra_closure,
    symbol,
    verify_suite,
)

# The timed calls go through the ``cend`` namespace, which the tracer
# rebinds; the names imported above stay untraced and serve the checks.
from cend.conformal import nproduct_recursive  # noqa: E402
from cend.poly import hermite_reduce  # noqa: E402
from cend.sampling import (  # noqa: E402
    rand_conformal,
    rand_polymatrix,
)
from cend.serialize import (  # noqa: E402
    canonical_dumps,
    classification_to_json,
    closure_to_json,
    conformal_to_json,
    polymatrix_to_json,
    weylmatrix_to_json,
)
from cend.verify import SUITES  # noqa: E402

if Path(cend.__file__).resolve().parent != SRC / "cend":
    raise ImportError(f"cend imported from {cend.__file__}, not from {SRC}")

# sha256 of `cend verify --seed 42` stdout, the full report of every suite.
PINNED_VERIFY_SHA = "008eee9a2dc3c1a18bd592a716f725efd4ee84f949a12a516647548c87803d8c"


@dataclass(frozen=True)
class Op:
    """One operation: a kind label (fixed per round slot) and its inputs."""

    kind: str
    data: tuple


class Workload:
    """A workload makes rounds of operations, runs one, encodes and checks
    its output.  ``round_s`` is the nominal time of one round on a 2-core
    2.0 GHz Xeon."""

    round_s: float
    tracer = None  # the tracer of a traced pass, for work done in children

    def final_check(self) -> list[str]:
        """Checks run once after all operations; failures as messages."""
        return []


def _unit(n: int, i: int, j: int) -> ConformalElement:
    return ConformalElement.single(n, i, j, BiPoly.const(1))


def _at_v_minus_d(q: PolyMatrix) -> ConformalElement:
    """``Q(v - D)`` for a matrix ``Q`` over ``k[v]``."""
    return phi_inv(
        ConformalElement(
            [[BiPoly.from_uni(q.entry(i, j), "v") for j in range(q.n)] for i in range(q.n)]
        )
    )


def _hermite_form(q: PolyMatrix) -> PolyMatrix:
    rows = [[q.entry(i, j) for j in range(q.n)] for i in range(q.n)]
    return PolyMatrix(hermite_reduce(rows, q.n).rows, "v")


# ---------------------------------------------------------------------------
# products: the multiply side of the kernel and the locality scan
# ---------------------------------------------------------------------------


class Products(Workload):
    """Fresh random pairs at N = 1..3, degrees 1..4; a third use circ."""

    round_s = 1.8

    @staticmethod
    def _element(rng: random.Random, n: int, deg: int) -> ConformalElement:
        """Every entry ``c1 D^deg + c2 v^deg + c3 D^h v^(deg-h)``, h = deg // 2.

        The support is fixed and only the coefficients are drawn, so both
        degrees are exactly ``deg`` and the cost of a pair hardly depends on
        the seed.
        """
        h = deg // 2

        def entry():
            c1, c2, c3 = (rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(3))
            return BiPoly({(deg, 0): c1, (0, deg): c2, (h, deg - h): c3})

        return ConformalElement([[entry() for _ in range(n)] for _ in range(n)])

    def make_round(self, rng: random.Random) -> list[Op]:
        ops = []
        for n in (1, 2, 3):
            for deg in (1, 2, 3, 4):
                a, b = self._element(rng, n, deg), self._element(rng, n, deg)
                circ = (n + deg) % 3 == 0
                ops.append(Op(f"N{n}deg{deg}", (a, b, circ, rng.random(), rng.random() < 0.25)))
        return ops

    def run(self, op: Op):
        a, b, circ, u, _ = op.data
        lim = cend.locality(a, b, circ=circ)
        prods = [cend.nproduct(a, k, b, circ=circ) for k in range(lim)]
        br = cend.bracket(a, 0, b)
        k = int(u * lim)
        w = cend.symbol(a, k)
        return lim, prods, br, k, w, cend.act(w, b)

    def encode(self, op: Op, out) -> str:
        lim, prods, br, k, w, x = out
        return canonical_dumps(
            {
                "locality": lim,
                "products": [conformal_to_json(p) for p in prods],
                "bracket": conformal_to_json(br),
                "index": k,
                "symbol": weylmatrix_to_json(w),
                "act": conformal_to_json(x),
            }
        )

    def check(self, op: Op, out) -> list[str]:
        a, b, circ, _, sampled = op.data
        lim, prods, _, k, _, x = out
        fails = []
        # The circle products are the default ones transported by phi.
        pa, pb = (phi_inv(a), phi_inv(b)) if circ else (a, b)
        for j, p in enumerate(prods):
            ref = act(symbol(pa, j), pb)
            if (phi(ref) if circ else ref) != p:
                fails.append(f"product {j} disagrees with act(symbol)")
        if not nproduct(a, lim, b, circ=circ).is_zero():
            fails.append(f"product {lim} past the locality is nonzero")
        if lim and prods[-1].is_zero():
            fails.append(f"product {lim - 1} below the locality is zero")
        if x != nproduct(a, k, b):
            fails.append(f"act(symbol(a, {k}), b) is not the product")
        if sampled and lim and nproduct_recursive(a, k, b, circ=circ) != prods[k]:
            fails.append(f"product {k} disagrees with the recursion")
        return fails


# ---------------------------------------------------------------------------
# classify: closure, Hermite reduction, Smith form, density
# ---------------------------------------------------------------------------


def _fixed_instances() -> list[Op]:
    """The five classification instances of the verify suite."""
    v = UniPoly.gen("v")
    one = UniPoly.const(1, "v")
    twist = AutomorphismSpec(Fraction(0), PolyMatrix([[one, v], [UniPoly.zero("v"), one]], "v"))
    units = [_unit(2, i, j) for i in range(2) for j in range(2)]
    vmd = BiPoly.v() - BiPoly.D()
    slice_gens = (
        _unit(2, 0, 0),
        _unit(2, 1, 0),
        ConformalElement.single(2, 0, 1, vmd),
        ConformalElement.single(2, 1, 1, vmd),
    )
    return [
        Op("scalar-current", (SubalgebraPresentation((ConformalElement.identity(1),), 1, 4), "CurrentConjugate", None)),
        Op("matrix-current", (SubalgebraPresentation(tuple(units), 2, 4), "CurrentConjugate", None)),
        Op(
            "conjugated-current",
            (SubalgebraPresentation(tuple(apply_autom(u, twist) for u in units), 2, 4), "CurrentConjugate", None),
        ),
        Op("scalar-slice", (SubalgebraPresentation((e_nq(1, PolyMatrix([[v]], "v")),), 3, 8), "LeftIdeal", PolyMatrix([[v]], "v"))),
        Op("matrix-slice", (SubalgebraPresentation(slice_gens, 3, 8), "LeftIdeal", PolyMatrix.diag([one, v], "v"))),
    ]


class Classify(Workload):
    """Presentations with known answers, plus plain closures at v-bounds 2-5."""

    round_s = 10.0

    def _conjugated(self, rng: random.Random, n: int) -> Op:
        """Matrix units under the transvection ``1 + s v e_(0, N-1)``.

        Only ``s`` is drawn: the corner is fixed because the cost of the
        classification changes by half with the transvection's position.
        """
        one, zero = UniPoly.const(1, "v"), UniPoly.zero("v")
        corner = UniPoly.monomial(1, rng.choice((-2, -1, 1, 2)), "v")
        q = PolyMatrix(
            [[one if i == j else corner if (i, j) == (0, n - 1) else zero for j in range(n)] for i in range(n)],
            "v",
        )
        t = AutomorphismSpec(Fraction(0), q)
        gens = tuple(apply_autom(_unit(n, i, j), t) for i in range(n) for j in range(n))
        bound = max(g.deg_v or 0 for g in gens)
        return Op(f"conjugated-N{n}", (SubalgebraPresentation(gens, bound, 4), "CurrentConjugate", None))

    def _slice(self, rng: random.Random, v_bound: int, kind: str) -> Op:
        """Matrix units times ``Q(v - D)`` with ``Q = P diag(1, v - c) P^-1``.

        ``P`` is a constant transvection; small integers for ``c`` and ``P``
        keep the cost of one closure within a few percent across seeds.
        """
        one, zero = UniPoly.const(1, "v"), UniPoly.zero("v")
        k, c = rng.choice((-1, 1)), rng.choice((-1, 1))
        p = PolyMatrix([[one, UniPoly.const(k, "v")], [zero, one]], "v")
        p_inv = PolyMatrix([[one, UniPoly.const(-k, "v")], [zero, one]], "v")
        q = p * PolyMatrix.diag([one, UniPoly.gen("v") - UniPoly.const(c, "v")], "v") * p_inv
        qv = _at_v_minus_d(q)
        pres = SubalgebraPresentation(tuple(_unit(2, i, j) * qv for i in range(2) for j in range(2)), v_bound, 8)
        if kind == "closure":
            return Op(f"closure-b{v_bound}", (pres, "closure", q))
        return Op(f"slice-b{v_bound}", (pres, "LeftIdeal", _hermite_form(q)))

    def make_round(self, rng: random.Random) -> list[Op]:
        # Three cheap N=2 conjugations put the middle of the sorted times
        # inside one kind (closure-b2), away from the gaps between kinds.
        ops = [self._conjugated(rng, 2) for _ in range(3)] + [self._conjugated(rng, 3)]
        ops += [self._slice(rng, b, "classify") for b in (2, 3)]
        ops += [self._slice(rng, b, "closure") for b in (2, 3, 4, 5)]
        return ops + _fixed_instances()

    def run(self, op: Op):
        pres, expect, _ = op.data
        if expect == "closure":
            return cend.subalgebra_closure(pres)
        return cend.classify_irreducible(pres)

    def encode(self, op: Op, out) -> str:
        if op.data[1] == "closure":
            return canonical_dumps(closure_to_json(out))
        return canonical_dumps(classification_to_json(out))

    def check(self, op: Op, out) -> list[str]:
        pres, expect, q = op.data
        if expect == "closure":
            if not out.fixed_point:
                return ["closure reached no fixed point"]
            if not all(left_ideal_member(x, q) for x in out.elements):
                return ["closure element outside the left ideal of Q"]
            return []
        if out.alarm:
            return ["alarm raised"]
        if out.verdict != expect:
            return [f"verdict {out.verdict}, expected {expect}: {out.reason}"]
        if expect == "LeftIdeal" and out.ideal_q != q:
            return ["ideal_q is not the canonical form of Q"]
        if expect == "CurrentConjugate":
            closure = subalgebra_closure(pres)
            if not all(apply_autom(x, out.witness).deg_v in (None, 0) for x in closure.elements):
                return ["witness leaves a closure element with v"]
        return []


# ---------------------------------------------------------------------------
# verify: the self-check suites users run to trust an install
# ---------------------------------------------------------------------------


class Verify(Workload):
    """``verify_suite(seed, suite)`` for each of the six suites."""

    round_s = 5.0

    def make_round(self, rng: random.Random) -> list[Op]:
        seed = rng.randrange(10**6)
        return [Op(suite, (seed, suite)) for suite in SUITES]

    def run(self, op: Op):
        return cend.verify_suite(*op.data)

    def encode(self, op: Op, out) -> str:
        return canonical_dumps(out)

    def check(self, op: Op, out) -> list[str]:
        return [] if out["ok"] else [f"report not ok: {out['failures']} failures"]

    def final_check(self) -> list[str]:
        text = canonical_dumps(verify_suite(42, "all")) + "\n"
        if hashlib.sha256(text.encode()).hexdigest() != PINNED_VERIFY_SHA:
            return ["verify_suite(42, 'all') report digest changed"]
        return []


# ---------------------------------------------------------------------------
# cli: one `python -m cend <cmd>` child per operation
# ---------------------------------------------------------------------------


def _child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


class Cli(Workload):
    """README commands through the CLI, one child process at a time."""

    round_s = 1.2

    def __init__(self):
        self._env = _child_env()

    def make_round(self, rng: random.Random) -> list[Op]:
        def elem(n, deg=2):
            return conformal_to_json(rand_conformal(rng, n, deg, deg))

        n = rng.choice((1, 2))
        while True:
            q = rand_polymatrix(rng, 2, "v", max_deg=2)
            if not q.det().is_zero():
                break
        scalar = ConformalElement.identity(1) * rng.choice((1, 2, 3))
        jobs = [
            ("nproduct", ["--n", str(rng.randint(0, 2))], {"a": elem(n), "b": elem(n), "circ": rng.random() < 0.5}),
            ("locality", [], {"a": elem(n), "b": elem(n)}),
            ("smith", [], polymatrix_to_json(q)),
            ("symbol", ["--n", str(rng.randint(0, 3))], {"a": elem(2, 3)}),
            ("phi", [], {"a": elem(2, 3), "inverse": rng.random() < 0.5}),
            (
                "classify",
                [],
                {"generators": [conformal_to_json(scalar)], "vDegBound": 1, "iterBound": 4},
            ),
        ]
        return [Op(cmd, ([cmd, *args], canonical_dumps(payload))) for cmd, args, payload in jobs]

    def run(self, op: Op):
        argv, payload = op.data
        if self.tracer is None:
            cmd = [sys.executable, "-m", "cend", *argv]
        else:
            cmd = [sys.executable, str(ROOT / "perfbench" / "cli_child.py"), *argv]
        done = subprocess.run(
            cmd, input=payload.encode(), capture_output=True, cwd=ROOT, env=self._env, timeout=120
        )
        if self.tracer is not None:
            self.tracer.merge(json.loads(done.stderr.decode().splitlines()[-1]))
        return done.returncode, done.stdout

    def encode(self, op: Op, out) -> str:
        return out[1].decode()

    def check(self, op: Op, out) -> list[str]:
        argv, payload = op.data
        code, stdout = out
        if code != 0:
            return [f"exit status {code}"]
        buf = io.StringIO()
        stdin = sys.stdin
        sys.stdin = io.StringIO(payload)
        try:
            with contextlib.redirect_stdout(buf):
                status = cend.cli.main(argv)
        finally:
            sys.stdin = stdin
        if status != 0 or buf.getvalue().encode() != stdout:
            return ["stdout differs from in-process cli.main"]
        return []


WORKLOADS = {"products": Products, "classify": Classify, "verify": Verify, "cli": Cli}


def rounds_for(name: str, seconds: float) -> int:
    """Rounds per run, fixed by workload and ``--seconds``, never by speed,
    so a run does the same work on every commit."""
    return max(1, round(seconds / WORKLOADS[name].round_s))


def make_rounds(workload: Workload, name: str, seed: int, rounds: int) -> list[list[Op]]:
    rng = random.Random(f"{name}:{seed}")
    return [workload.make_round(rng) for _ in range(rounds)]
