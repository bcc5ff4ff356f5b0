"""Human-readable rendering of result values (display only, never parsed).

The wire format stays JSON; these helpers exist for the ``--render`` flag
and lean on the ``__str__`` implementations of the core types, adding
multi-line layout for matrices and prose for structured verdicts.
"""

from __future__ import annotations

from .classify import Classification, ClosureResult, KvClosureResult
from .operators import DifferentialSequence
from .poly import PolyMatrix, _SparseMatrix
from .weyl import HSeqPair

__all__ = [
    "render_classification",
    "render_closure",
    "render_diffseq",
    "render_hseq",
    "render_kv_result",
    "render_matrix",
    "render_report",
]


def _grid(rows: list[list[str]]) -> str:
    widths = [max(len(r[j]) for r in rows) for j in range(len(rows[0]))]
    lines = []
    for r in rows:
        cells = [c.rjust(w) for c, w in zip(r, widths)]
        lines.append("[ " + "  ".join(cells) + " ]")
    return "\n".join(lines)


def render_matrix(m: PolyMatrix | _SparseMatrix) -> str:
    return _grid([[str(e) for e in r] for r in m.rows])


def render_diffseq(seq: DifferentialSequence) -> str:
    if not seq.coeffs:
        return f"zero differential sequence (N = {seq.n})"
    blocks = [
        f"A_{s} =\n{render_matrix(m)}" for s, m in enumerate(seq.coeffs)
    ]
    return "\n".join(blocks)


def render_hseq(pair: HSeqPair) -> str:
    lines = [f"h = {pair.h}"]
    for k, (lo, up) in enumerate(zip(pair.lower, pair.upper)):
        lines.append(f"k = {k}:  lower = {lo}   upper = {up}")
    return "\n".join(lines)


def render_closure(c: ClosureResult) -> str:
    lines = [
        f"closure of size-{c.n} presentation at v-degree bound {c.v_deg_bound}:",
        f"  fixed point: {'yes' if c.fixed_point else 'no'}"
        f"   overflow: {'yes' if c.overflow else 'no'}"
        f"   rounds: {c.iterations}",
        f"  basis ({len(c.elements)} elements):",
    ]
    for e in c.elements:
        lines.append("    " + str(e))
    return "\n".join(lines)


def render_kv_result(r: KvClosureResult) -> str:
    return "\n".join(
        [
            f"directness: {r.directness} "
            f"(certified at v-degree bound {r.certified_at_bound})",
            "ideal matrix Q:",
            render_matrix(r.ideal_q),
        ]
    )


def render_classification(c: Classification) -> str:
    lines = [f"verdict: {c.verdict} (bound {c.bound})"]
    if c.witness is not None:
        lines.append(f"conjugating witness: alpha = {c.witness.alpha}, Q =")
        lines.append(render_matrix(c.witness.q))
    if c.ideal_q is not None:
        lines.append("left-ideal matrix Q:")
        lines.append(render_matrix(c.ideal_q))
    if c.reason:
        lines.append(f"reason: {c.reason}")
    if c.alarm:
        lines.append("ALARM: result contradicts the structure theory")
    return "\n".join(lines)


def render_report(report: dict) -> str:
    lines = [
        f"verification (seed {report['seed']}, suite {report['suite']}): "
        f"{report['cases']} cases, {report['failures']} failures",
    ]
    for check in report["checks"]:
        mark = "ok " if check["failures"] == 0 else "FAIL"
        lines.append(
            f"  [{mark}] {check['tag']}: {check['cases']} cases"
            + (
                f", {check['failures']} failures"
                if check["failures"]
                else ""
            )
        )
    return "\n".join(lines)
