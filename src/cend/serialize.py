"""Canonical JSON encoding and decoding for every public value type.

One wire shape per type, shared by the CLI and the verification harness:

* rationals as strings ``"a"`` or ``"a/b"``,
* univariate polynomials as degree-sorted ``[degree, coeff]`` pairs,
* bivariate polynomials as ``[degD, degV, coeff]`` triples,
* Weyl elements as ``[degP, degQ, coeff]`` triples,
* matrices as row-major nested lists of the entry encoding,
* structured values as objects with fixed key sets.

Dumping is canonical (sorted keys, sorted monomial lists, no whitespace
variation) so that identical values always serialize to identical bytes.
Decoders validate shape and raise ``ValueError`` on malformed input.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .classify import (
    AutomorphismSpec,
    Classification,
    ClosureResult,
    KvClosureResult,
    SubalgebraPresentation,
)
from .conformal import ConformalElement
from .operators import DensityResult, DifferentialSequence, OperatorSample
from .poly import BiPoly, PolyMatrix, UniPoly, rat
from .weyl import HSeqPair, WeylElement, WeylMatrix

__all__ = [
    "autom_from_json",
    "autom_to_json",
    "bipoly_from_json",
    "bipoly_to_json",
    "canonical_dumps",
    "classification_to_json",
    "closure_to_json",
    "conformal_from_json",
    "conformal_to_json",
    "density_to_json",
    "diffseq_from_json",
    "diffseq_to_json",
    "hseq_to_json",
    "kv_result_to_json",
    "polymatrix_from_json",
    "polymatrix_to_json",
    "presentation_from_json",
    "presentation_to_json",
    "rat_from_json",
    "rat_to_json",
    "sample_from_json",
    "sample_to_json",
    "unipoly_from_json",
    "unipoly_to_json",
    "weyl_from_json",
    "weyl_to_json",
    "weylmatrix_from_json",
    "weylmatrix_to_json",
]


def canonical_dumps(obj: Any) -> str:
    """Serialize with sorted keys and fixed separators (byte-stable)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# --------------------------------------------------------------------------
# scalars and polynomials
# --------------------------------------------------------------------------


def rat_to_json(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _is_int(data: Any) -> bool:
    """An integer field: JSON true/false decode to bool, a subclass of int."""
    return isinstance(data, int) and not isinstance(data, bool)


def rat_from_json(data: Any) -> Fraction:
    if isinstance(data, bool):
        raise ValueError("rational expected, got a boolean")
    if isinstance(data, (int, str)):
        try:
            return rat(data) if isinstance(data, str) else Fraction(data)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad rational {data!r}") from exc
    raise ValueError(f"rational expected, got {type(data).__name__}")


def unipoly_to_json(f: UniPoly) -> list:
    return [[d, rat_to_json(c)] for d, c in sorted(f.items())]


def unipoly_from_json(data: Any, var: str) -> UniPoly:
    if not isinstance(data, list):
        raise ValueError("polynomial expected as a list of [degree, coeff]")
    coeffs = {}
    for item in data:
        if not isinstance(item, list) or len(item) != 2:
            raise ValueError(f"bad polynomial term {item!r}")
        d, c = item
        if not _is_int(d) or d < 0:
            raise ValueError(f"bad degree {d!r}")
        coeffs[d] = coeffs.get(d, Fraction(0)) + rat_from_json(c)
    return UniPoly(coeffs, var)


def _encode_terms(f: BiPoly | WeylElement) -> list:
    return [[i, j, rat_to_json(c)] for i, j, c in f.items()]


def _decode_terms(data: Any, what: str, shape: str) -> list:
    """Validate a list of ``[i, j, coeff]`` triples and decode its terms."""
    if not isinstance(data, list):
        raise ValueError(f"{what} expected as a list of {shape}")
    terms = []
    for item in data:
        if not isinstance(item, list) or len(item) != 3:
            raise ValueError(f"bad {what} term {item!r}")
        i, j, c = item
        if not _is_int(i) or not _is_int(j) or i < 0 or j < 0:
            raise ValueError(f"bad degrees in {item!r}")
        terms.append((i, j, rat_from_json(c)))
    return terms


def bipoly_to_json(f: BiPoly) -> list:
    return _encode_terms(f)


def bipoly_from_json(data: Any) -> BiPoly:
    return BiPoly(_decode_terms(data, "polynomial", "[degD, degV, coeff]"))


def weyl_to_json(w: WeylElement) -> list:
    return _encode_terms(w)


def weyl_from_json(data: Any) -> WeylElement:
    return WeylElement(_decode_terms(data, "operator", "[degP, degQ, coeff]"))


# --------------------------------------------------------------------------
# matrices
# --------------------------------------------------------------------------


def _square_rows(data: Any, what: str) -> list:
    if not isinstance(data, list) or not data:
        raise ValueError(f"{what} expected as a nonempty nested list")
    n = len(data)
    for r in data:
        if not isinstance(r, list) or len(r) != n:
            raise ValueError(f"{what} must be square")
    return data


def polymatrix_to_json(m: PolyMatrix) -> list:
    return [[unipoly_to_json(m.entry(i, j)) for j in range(m.n)] for i in range(m.n)]


def polymatrix_from_json(data: Any, var: str) -> PolyMatrix:
    rows = _square_rows(data, "matrix")
    return PolyMatrix(
        [[unipoly_from_json(e, var) for e in r] for r in rows], var
    )


def weylmatrix_to_json(m: WeylMatrix) -> list:
    return [[weyl_to_json(e) for e in r] for r in m.rows]


def weylmatrix_from_json(data: Any) -> WeylMatrix:
    rows = _square_rows(data, "operator matrix")
    return WeylMatrix([[weyl_from_json(e) for e in r] for r in rows])


def conformal_to_json(a: ConformalElement) -> dict:
    return {
        "N": a.n,
        "entries": [[bipoly_to_json(e) for e in r] for r in a.rows],
    }


def conformal_from_json(data: Any) -> ConformalElement:
    if not isinstance(data, dict) or "entries" not in data:
        raise ValueError('conformal element expected as {"N", "entries"}')
    rows = _square_rows(data["entries"], "conformal element")
    n = data.get("N", len(rows))
    if not _is_int(n) or n != len(rows):
        raise ValueError(f"size field {n} does not match {len(rows)} rows")
    return ConformalElement([[bipoly_from_json(e) for e in r] for r in rows])


# --------------------------------------------------------------------------
# operator-side values
# --------------------------------------------------------------------------


def diffseq_to_json(seq: DifferentialSequence) -> dict:
    return {
        "N": seq.n,
        "coeffs": [polymatrix_to_json(m) for m in seq.coeffs],
    }


def diffseq_from_json(data: Any) -> DifferentialSequence:
    if not isinstance(data, dict) or "coeffs" not in data:
        raise ValueError('differential sequence expected as {"N", "coeffs"}')
    mats = data["coeffs"]
    if not isinstance(mats, list):
        raise ValueError("coefficient list expected")
    n = data.get("N")
    if not mats:
        if not _is_int(n) or n < 1:
            raise ValueError("an empty sequence needs an explicit size field")
        return DifferentialSequence(n, ())
    coeffs = tuple(polymatrix_from_json(m, "p") for m in mats)
    if n is not None and (not _is_int(n) or n != coeffs[0].n):
        raise ValueError(f"size field {n} does not match the matrices")
    return DifferentialSequence(coeffs[0].n, coeffs)


def sample_to_json(s: OperatorSample) -> dict:
    return {"n": s.n, "op": weylmatrix_to_json(s.op)}


def sample_from_json(data: Any) -> OperatorSample:
    if not isinstance(data, dict) or "n" not in data or "op" not in data:
        raise ValueError('operator sample expected as {"n", "op"}')
    if not _is_int(data["n"]) or data["n"] < 0:
        raise ValueError(f"bad sample index {data['n']!r}")
    return OperatorSample(data["n"], weylmatrix_from_json(data["op"]))


def hseq_to_json(pair: HSeqPair) -> dict:
    return {
        "h": unipoly_to_json(pair.h),
        "lower": [unipoly_to_json(f) for f in pair.lower],
        "upper": [unipoly_to_json(f) for f in pair.upper],
    }


# --------------------------------------------------------------------------
# classification-side values
# --------------------------------------------------------------------------


def autom_to_json(t: AutomorphismSpec) -> dict:
    return {
        "alpha": rat_to_json(t.alpha),
        "Q": polymatrix_to_json(t.q),
        "h": unipoly_to_json(t.h),
    }


def autom_from_json(data: Any) -> AutomorphismSpec:
    if not isinstance(data, dict) or "Q" not in data:
        raise ValueError('automorphism expected as {"alpha", "Q", "h"}')
    alpha = rat_from_json(data.get("alpha", 0))
    q = polymatrix_from_json(data["Q"], "v")
    h = unipoly_from_json(data.get("h", []), "p")
    return AutomorphismSpec(alpha, q, h)


def presentation_to_json(pres: SubalgebraPresentation) -> dict:
    return {
        "generators": [conformal_to_json(g) for g in pres.generators],
        "vDegBound": pres.v_deg_bound,
        "iterBound": pres.iter_bound,
    }


def presentation_from_json(data: Any) -> SubalgebraPresentation:
    if not isinstance(data, dict) or "generators" not in data:
        raise ValueError(
            'presentation expected as {"generators", "vDegBound", "iterBound"}'
        )
    gens = data["generators"]
    if not isinstance(gens, list):
        raise ValueError("generator list expected")
    v_bound = data.get("vDegBound", 4)
    iter_bound = data.get("iterBound", 12)
    if not _is_int(v_bound) or not _is_int(iter_bound):
        raise ValueError("bounds must be integers")
    return SubalgebraPresentation(
        tuple(conformal_from_json(g) for g in gens),
        v_deg_bound=v_bound,
        iter_bound=iter_bound,
    )


def closure_to_json(c: ClosureResult) -> dict:
    return {
        "N": c.n,
        "vDegBound": c.v_deg_bound,
        "elements": [conformal_to_json(e) for e in c.elements],
        "fixedPoint": c.fixed_point,
        "overflow": c.overflow,
        "iterations": c.iterations,
    }


def kv_result_to_json(r: KvClosureResult) -> dict:
    return {
        "idealQ": polymatrix_to_json(r.ideal_q),
        "directness": r.directness,
        "certifiedAtBound": r.certified_at_bound,
        "ambientBound": r.ambient_bound,
    }


def density_to_json(r: DensityResult) -> dict:
    out: dict[str, Any] = {"verdict": r.verdict}
    if r.reason is not None:
        out["reason"] = r.reason
    if r.submodule is not None:
        out["submodule"] = [[unipoly_to_json(e) for e in row] for row in r.submodule]
    return out


def classification_to_json(c: Classification) -> dict:
    out: dict[str, Any] = {"verdict": c.verdict, "bound": c.bound}
    if c.witness is not None:
        out["witness"] = autom_to_json(c.witness)
    if c.ideal_q is not None:
        out["idealQ"] = polymatrix_to_json(c.ideal_q)
    if c.reason is not None:
        out["reason"] = c.reason
    if c.alarm:
        out["alarm"] = True
    return out
