"""Command-line surface: one subcommand per public operation.

Payloads arrive as JSON on standard input, results leave as canonical JSON
(sorted keys, no whitespace) on standard output, so identical invocations are
byte-identical.  ``--render`` switches the output of algebraic results to a
human-readable layout; it is display-only and never parsed back.

Exit codes: 0 on success, 1 on a domain error (JSON error object on standard
error) or a failed verification run, 2 on malformed input or usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from dataclasses import replace

from .classify import (
    apply_autom,
    apply_autom_weyl,
    classify_irreducible,
    kv_closure,
    left_ideal_member,
    right_ideal_member,
    subalgebra_closure,
)
from .conformal import (
    bracket,
    locality,
    locality_bound,
    nproduct,
    phi,
    phi_inv,
    sigma,
)
from .errors import CendError
from .operators import (
    act,
    fit_differential_sequence,
    orbit_density_check,
    reconstruct,
    symbol,
)
from .poly import smith_normal_form
from .render import (
    render_classification,
    render_closure,
    render_diffseq,
    render_hseq,
    render_kv_result,
    render_matrix,
    render_report,
)
from .serialize import (
    autom_from_json,
    canonical_dumps,
    classification_to_json,
    closure_to_json,
    conformal_from_json,
    conformal_to_json,
    density_to_json,
    diffseq_from_json,
    diffseq_to_json,
    hseq_to_json,
    kv_result_to_json,
    polymatrix_from_json,
    polymatrix_to_json,
    presentation_from_json,
    sample_from_json,
    unipoly_from_json,
    unipoly_to_json,
    weyl_from_json,
    weyl_to_json,
    weylmatrix_from_json,
    weylmatrix_to_json,
)
from .verify import SUITES, verify_suite
from .weyl import h_sequences, split_by_shift, rebase_coefficients, rebase_inverse, verify_h_identities


def _object(payload) -> dict:
    if not isinstance(payload, dict):
        raise ValueError("payload must be a JSON object")
    return payload


def _field(payload, name: str):
    if name not in _object(payload):
        raise ValueError(f"payload is missing the field {name!r}")
    return payload[name]


def _flag(payload, name: str, default: bool = False) -> bool:
    val = _object(payload).get(name, default)
    if not isinstance(val, bool):
        raise ValueError(f"field {name!r} must be a boolean")
    return val


def _presentation(args, payload):
    pres = presentation_from_json(payload)
    if getattr(args, "iter_bound", None) is not None:
        pres = replace(pres, iter_bound=args.iter_bound)
    return pres


# Each handler returns (json-ready object, rendered text or None, exit status).


def _cmd_nproduct(args, payload):
    a = conformal_from_json(_field(payload, "a"))
    b = conformal_from_json(_field(payload, "b"))
    out = nproduct(a, args.n, b, circ=_flag(payload, "circ"))
    return conformal_to_json(out), render_matrix(out), 0


def _cmd_locality(args, payload):
    a = conformal_from_json(_field(payload, "a"))
    b = conformal_from_json(_field(payload, "b"))
    lim = locality(a, b, circ=_flag(payload, "circ"))
    bound = locality_bound(a, b)
    text = f"locality {lim} (degree scan bound {bound})"
    return {"locality": lim, "bound": bound}, text, 0


def _cmd_bracket(args, payload):
    a = conformal_from_json(_field(payload, "a"))
    b = conformal_from_json(_field(payload, "b"))
    out = bracket(a, args.n, b)
    return conformal_to_json(out), render_matrix(out), 0


def _cmd_phi(args, payload):
    a = conformal_from_json(_field(payload, "a"))
    out = phi_inv(a) if _flag(payload, "inverse") else phi(a)
    return conformal_to_json(out), render_matrix(out), 0


def _cmd_sigma(args, payload):
    a = conformal_from_json(_field(payload, "a"))
    out = sigma(a)
    return conformal_to_json(out), render_matrix(out), 0


def _cmd_symbol(args, payload):
    a = conformal_from_json(_field(payload, "a"))
    out = symbol(a, args.n)
    return weylmatrix_to_json(out), render_matrix(out), 0


def _cmd_act(args, payload):
    w = weylmatrix_from_json(_field(payload, "w"))
    b = conformal_from_json(_field(payload, "b"))
    out = act(w, b)
    return conformal_to_json(out), render_matrix(out), 0


def _cmd_reconstruct(args, payload):
    out = reconstruct(diffseq_from_json(payload))
    return conformal_to_json(out), render_matrix(out), 0


def _cmd_fit_seq(args, payload):
    samples = _field(payload, "samples")
    if not isinstance(samples, list):
        raise ValueError("field 'samples' must be a list")
    seq = fit_differential_sequence([sample_from_json(s) for s in samples])
    return diffseq_to_json(seq), render_diffseq(seq), 0


def _cmd_smith(args, payload):
    q = polymatrix_from_json(payload, "v")
    t, dg, u = smith_normal_form(q)
    obj = {
        "Dg": polymatrix_to_json(dg),
        "T": polymatrix_to_json(t),
        "U": polymatrix_to_json(u),
    }
    text = "\n".join(
        label + "\n" + render_matrix(m)
        for label, m in (("Dg:", dg), ("T:", t), ("U:", u))
    )
    return obj, text, 0


def _cmd_autom(args, payload):
    a = conformal_from_json(_field(payload, "a"))
    t = autom_from_json(_field(payload, "autom"))
    out = apply_autom(a, t)
    return conformal_to_json(out), render_matrix(out), 0


def _cmd_autom_weyl(args, payload):
    w = weylmatrix_from_json(_field(payload, "w"))
    t = autom_from_json(_field(payload, "autom"))
    out = apply_autom_weyl(w, t)
    return weylmatrix_to_json(out), render_matrix(out), 0


def _cmd_ideal_member(args, payload):
    x = conformal_from_json(_field(payload, "x"))
    q = polymatrix_from_json(_field(payload, "Q"), "v")
    side = payload.get("side", "left")
    if side == "left":
        member = left_ideal_member(x, q)
    elif side == "right":
        member = right_ideal_member(x, q)
    else:
        raise ValueError("field 'side' must be 'left' or 'right'")
    text = f"{side} ideal member: {'yes' if member else 'no'}"
    return {"member": member, "side": side}, text, 0


def _cmd_hseq(args, payload):
    action = _object(payload).get("action", "sequences")
    if action not in ("sequences", "identities", "split", "rebase"):
        raise ValueError(
            "field 'action' must be one of sequences, identities, split, rebase"
        )
    if action == "split":
        w = weyl_from_json(_field(payload, "w"))
        stem, c = split_by_shift(w)
        obj = {"stem": weyl_to_json(stem), "shiftFree": unipoly_to_json(c)}
        return obj, None, 0
    h = unipoly_from_json(_field(payload, "h"), "p")
    if action == "sequences":
        pair = h_sequences(h, args.n)
        return hseq_to_json(pair), render_hseq(pair), 0
    if action == "identities":
        got = verify_h_identities(h, args.n)
        obj = {
            "h": str(h),
            "k_max": args.n,
            "cases": got.cases,
            "failures": list(got.failures),
            "ok": got.ok,
        }
        return obj, None, 0 if got.ok else 1
    coeffs = _field(payload, "coeffs")
    if not isinstance(coeffs, list):
        raise ValueError("field 'coeffs' must be a list")
    decoded = [unipoly_from_json(c, "p") for c in coeffs]
    fn = rebase_inverse if _flag(payload, "inverse") else rebase_coefficients
    out = fn(decoded, h)
    return {"coeffs": [unipoly_to_json(c) for c in out]}, None, 0


def _cmd_verify(args, payload):
    payload = _object(payload or {})
    report = verify_suite(
        seed=args.seed,
        suite=args.suite,
        sizes=payload.get("sizes"),
        bounds=payload.get("bounds"),
    )
    return report, render_report(report), 0 if report["ok"] else 1


def _cmd_classify(args, payload):
    pres = _presentation(args, payload)
    got = classify_irreducible(pres)
    return classification_to_json(got), render_classification(got), 0


def _cmd_kv_closure(args, payload):
    got = kv_closure(_presentation(args, payload))
    return kv_result_to_json(got), render_kv_result(got), 0


def _cmd_closure(args, payload):
    got = subalgebra_closure(_presentation(args, payload))
    return closure_to_json(got), render_closure(got), 0


def _cmd_density(args, payload):
    gens = _field(payload, "generators")
    if not isinstance(gens, list):
        raise ValueError("field 'generators' must be a list")
    got = orbit_density_check([conformal_from_json(g) for g in gens])
    text = got.verdict + (f" ({got.reason})" if got.reason else "")
    return density_to_json(got), text, 0


_HANDLERS = {
    "nproduct": _cmd_nproduct,
    "locality": _cmd_locality,
    "bracket": _cmd_bracket,
    "phi": _cmd_phi,
    "sigma": _cmd_sigma,
    "symbol": _cmd_symbol,
    "act": _cmd_act,
    "reconstruct": _cmd_reconstruct,
    "fit-seq": _cmd_fit_seq,
    "smith": _cmd_smith,
    "autom": _cmd_autom,
    "autom-weyl": _cmd_autom_weyl,
    "ideal-member": _cmd_ideal_member,
    "hseq": _cmd_hseq,
    "verify": _cmd_verify,
    "classify": _cmd_classify,
    "kv-closure": _cmd_kv_closure,
    "closure": _cmd_closure,
    "density": _cmd_density,
}

# which commands read a JSON payload from standard input
_NO_PAYLOAD = {"verify"}  # verify's payload is optional


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cend",
        description="Exact conformal-endomorphism arithmetic over the rationals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_, *, n=None, render=True):
        p = sub.add_parser(name, help=help_)
        if n is not None:
            required, default = n
            p.add_argument(
                "--n",
                type=int,
                required=required,
                default=default,
                help="product / operator index",
            )
        if render:
            p.add_argument(
                "--render",
                action="store_true",
                help="human-readable output instead of JSON",
            )
        return p

    add("nproduct", "n-th product of two elements", n=(True, None))
    add("locality", "least index past which all products vanish")
    add("bracket", "n-th commutator bracket", n=(True, None))
    add("phi", "shift isomorphism onto the circle products (payload key 'inverse')")
    add("sigma", "transpose anti-involution")
    add("symbol", "operator image at one index", n=(True, None))
    add("act", "apply an operator matrix to an element")
    add("reconstruct", "element from its differential coefficient sequence")
    add("fit-seq", "recover a coefficient sequence from operator samples")
    add("smith", "diagonal form with unimodular witnesses")
    add("autom", "apply a subalgebra-level transform (h = 0)")
    add("autom-weyl", "apply a transform on the operator side")
    add("ideal-member", "one-sided ideal membership (payload key 'side')")
    p = add("hseq", "shift-by-h coefficient calculus (payload key 'action')")
    p.add_argument("--n", type=int, default=8, help="sequence length bound")
    p = add("verify", "run the seeded self-check suite")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument(
        "--suite", default="all", choices=("all",) + SUITES, help="check group"
    )
    p = add("classify", "classify the subalgebra a presentation generates")
    p.add_argument("--iter-bound", type=int, default=None, help="closure iteration cap")
    p = add("kv-closure", "coefficient closure and its ideal certificate")
    p.add_argument("--iter-bound", type=int, default=None, help="closure iteration cap")
    p = add("closure", "product closure of a presentation")
    p.add_argument("--iter-bound", type=int, default=None, help="closure iteration cap")
    add("density", "decide dense operator action on the column space")
    return parser


def _read_payload(args) -> object:
    # a terminal would wait for end-of-file before an optional payload
    if args.command in _NO_PAYLOAD and sys.stdin.isatty():
        return None
    raw = sys.stdin.read()
    if not raw.strip():
        if args.command in _NO_PAYLOAD:
            return None
        raise ValueError("expected a JSON payload on standard input")
    return json.loads(raw)


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        payload = _read_payload(args)
        obj, text, status = _HANDLERS[args.command](args, payload)
    except CendError as err:
        sys.stderr.write(canonical_dumps(err.payload()) + "\n")
        return 1
    except (ValueError, KeyError, TypeError, IndexError) as err:
        msg = str(err) or err.__class__.__name__
        sys.stderr.write(
            canonical_dumps({"error": "MalformedInput", "message": msg}) + "\n"
        )
        return 2
    if getattr(args, "render", False) and text is not None:
        print(text)
    else:
        print(canonical_dumps(obj))
    return status


if __name__ == "__main__":
    sys.exit(main())
