"""Golden corpus: CLI stdout compared byte for byte with committed files.

Each file under ``tests/golden`` is the stdout of one ``python -m cend``
invocation, recorded before the n-product kernel was reworked.  A fresh run
must reproduce it exactly; comparing two fresh runs with each other (as the
acceptance gate does) would let a consistent regression through.

To re-record a file after an intended output change, run its command from the
repository root, e.g. ``PYTHONPATH=src python -m cend verify --seed 42
< /dev/null > tests/golden/verify_seed42.txt``.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden"

# The README examples, verbatim.
V_ID1_PAIR = """{"a": {"N":1,"entries":[[[[0,1,"1"]]]]},
        "b": {"N":1,"entries":[[[[0,1,"1"]]]]}}"""
SMITH = '[[[], [[1,"1"]]], [[[1,"1"]], []]]'
SCALAR_CURRENT = """{"generators":[{"N":1,"entries":[[[[0,0,"1"]]]]}],
        "vDegBound":1,"iterBound":4}"""

# The 2x2 "matrix slice": e00, e10, (v - D) e01, (v - D) e11 at v-bound 3.
_V_MINUS_D = '[[0,1,"1"],[1,0,"-1"]]'
MATRIX_SLICE = (
    '{"generators":['
    '{"N":2,"entries":[[[[0,0,"1"]],[]],[[],[]]]},'
    '{"N":2,"entries":[[[],[]],[[[0,0,"1"]],[]]]},'
    '{"N":2,"entries":[[[],%s],[[],[]]]},'
    '{"N":2,"entries":[[[],[]],[[],%s]]}'
    '],"vDegBound":3,"iterBound":8}'
) % (_V_MINUS_D, _V_MINUS_D)

# The same slice at v-bound 5: six rounds (words of up to six generators),
# and some products overflow.
MATRIX_SLICE_B5 = MATRIX_SLICE.replace('"vDegBound":3', '"vDegBound":5')

# The 2x2 matrix units under the transvection (0, [[1, v], [0, 1]]), the
# same generators as the benchmark's "conjugated-current": a witness is found.
CONJUGATED_CURRENT = (
    '{"generators":['
    '{"N":2,"entries":[[[[0,0,"1"]],[[0,1,"1"],[1,0,"-1"]]],[[],[]]]},'
    '{"N":2,"entries":[[[],[[0,0,"1"]]],[[],[]]]},'
    '{"N":2,"entries":[[[[0,1,"-1"]],[[0,2,"-1"],[1,1,"1"]]],'
    '[[[0,0,"1"]],[[0,1,"1"],[1,0,"-1"]]]]},'
    '{"N":2,"entries":[[[],[[0,1,"-1"]]],[[],[[0,0,"1"]]]]}'
    '],"iterBound":4,"vDegBound":2}'
)

# The 2x2 matrix units under (0, R, 0), R = [[2v^4 + 1, v^2], [2v^2, 1]], at
# v-bound 8: the generators reach v-degree 8, and the exact density check
# lets classification find the witness at the default bounds.
R_CONJUGATED = (
    '{"generators":['
    '{"N":2,"entries":[[[[0,0,"1"],[0,4,"2"],[1,3,"-8"],[2,2,"12"],[3,1,"-8"],'
    '[4,0,"2"]],[[0,2,"1"],[1,1,"-2"],[2,0,"1"]]],[[[0,2,"-2"],[0,6,"-4"],'
    '[1,5,"16"],[2,4,"-24"],[3,3,"16"],[4,2,"-4"]],[[0,4,"-2"],[1,3,"4"],'
    '[2,2,"-2"]]]]},'
    '{"N":2,"entries":[[[[0,2,"2"],[1,1,"-4"],[2,0,"2"]],[[0,0,"1"]]],'
    '[[[0,4,"-4"],[1,3,"8"],[2,2,"-4"]],[[0,2,"-2"]]]]},'
    '{"N":2,"entries":[[[[0,2,"-1"],[0,6,"-2"],[1,5,"8"],[2,4,"-12"],[3,3,"8"],'
    '[4,2,"-2"]],[[0,4,"-1"],[1,3,"2"],[2,2,"-1"]]],[[[0,0,"1"],[0,4,"4"],'
    '[0,8,"4"],[1,3,"-8"],[1,7,"-16"],[2,2,"12"],[2,6,"24"],[3,1,"-8"],'
    '[3,5,"-16"],[4,0,"2"],[4,4,"4"]],[[0,2,"1"],[0,6,"2"],[1,1,"-2"],'
    '[1,5,"-4"],[2,0,"1"],[2,4,"2"]]]]},'
    '{"N":2,"entries":[[[[0,4,"-2"],[1,3,"4"],[2,2,"-2"]],[[0,2,"-1"]]],'
    '[[[0,2,"2"],[0,6,"4"],[1,1,"-4"],[1,5,"-8"],[2,0,"2"],[2,4,"4"]],'
    '[[0,0,"1"],[0,4,"2"]]]]}'
    '],"vDegBound":8}'
)

# Density: the N=1 identity is Dense; v*Id_1 is Reducible, since every
# operator maps k[p] into p*k[p].
IDENTITY_1 = '{"generators":[{"N":1,"entries":[[[[0,0,"1"]]]]}]}'
V_ID1 = '{"generators":[{"N":1,"entries":[[[[0,1,"1"]]]]}]}'
# The upper-triangular current algebra e00, e01, e11 at N=2: the orbit of e_0
# stays in component 0, so k[p]*e_0 is the invariant submodule.
UPPER_TRIANGULAR = (
    '{"generators":['
    '{"N":2,"entries":[[[[0,0,"1"]],[]],[[],[]]]},'
    '{"N":2,"entries":[[[],[[0,0,"1"]]],[[],[]]]},'
    '{"N":2,"entries":[[[],[]],[[],[[0,0,"1"]]]]}'
    "]}"
)
# The N=3 cyclic shift e10 + e21 + e02: Dense, but the orbit of e_0 reaches
# e_0 again only through a word of length 3.
CYCLIC_SHIFT = (
    '{"generators":[{"N":3,"entries":'
    '[[[],[],[[0,0,"1"]]],[[[0,0,"1"]],[],[]],[[],[[0,0,"1"]],[]]]}]}'
)

# The operator side.  A 2x2 element with D^2 terms and rational coefficients,
# [[3/2 D^2 v + v^2, -D], [0, 2 + 1/3 D^2]], for `symbol`.
SYMBOL_ELEMENT = (
    '{"a":{"N":2,"entries":[[[[2,1,"3/2"],[0,2,"1"]],[[1,0,"-1"]]],'
    '[[],[[0,0,"2"],[2,0,"1/3"]]]]}}'
)
# w = [[p q + 1/2, q^2], [-p, 0]], applied to an element and transformed.
_W = '[[[[1,1,"1"],[0,0,"1/2"]],[[0,2,"1"]]],[[[1,0,"-1"]],[]]]'
ACT = (
    '{"w":%s,"b":{"N":2,"entries":[[[[1,2,"1"]],[[0,1,"2/3"]]],'
    '[[[2,0,"1"]],[[0,3,"-1"],[1,1,"1"]]]]}}' % _W
)
# The degree-2 unimodular Q = [[1 + v^2, v], [v, 1]] (det 1).
_Q2 = '[[[[0,"1"],[2,"1"]],[[1,"1"]]],[[[1,"1"]],[[0,"1"]]]]'
AUTOM_WEYL = '{"w":%s,"autom":{"alpha":"1/2","Q":%s,"h":[[0,"2"],[1,"-1"]]}}' % (
    _W,
    _Q2,
)
AUTOM = (
    '{"a":{"N":2,"entries":[[[[0,1,"1"],[1,0,"-1"]],[]],[[[1,1,"1/2"]],'
    '[[0,0,"1"]]]]},"autom":{"alpha":"-1/3","Q":%s}}' % _Q2
)
# Samples n = 0, 1, 3 of the family of [[v - D, 0], [1/2 D v, 1]].
FIT_SEQ = (
    '{"samples":[{"n":0,"op":[[[[1,0,"1"]],[]],[[],[[0,0,"1"]]]]},'
    '{"n":1,"op":[[[[0,0,"1"],[1,1,"1"]],[]],[[[1,0,"-1/2"]],[[0,1,"1"]]]]},'
    '{"n":3,"op":[[[[0,2,"3"],[1,3,"1"]],[]],[[[1,2,"-3/2"]],[[0,3,"1"]]]]}]}'
)

CASES = [
    ("nproduct.txt", ["nproduct", "--n", "1"], V_ID1_PAIR),
    ("locality.txt", ["locality"], V_ID1_PAIR),
    ("locality_render.txt", ["locality", "--render"], V_ID1_PAIR),
    ("smith.txt", ["smith"], SMITH),
    ("classify.txt", ["classify"], SCALAR_CURRENT),
    ("closure_matrix_slice.txt", ["closure"], MATRIX_SLICE),
    ("kv_closure_matrix_slice.txt", ["kv-closure"], MATRIX_SLICE),
    ("classify_matrix_slice.txt", ["classify"], MATRIX_SLICE),
    ("closure_matrix_slice_b5.txt", ["closure"], MATRIX_SLICE_B5),
    ("classify_conjugated_current.txt", ["classify"], CONJUGATED_CURRENT),
    ("classify_r_conjugated.txt", ["classify"], R_CONJUGATED),
    ("verify_weyl_seed7.txt", ["verify", "--suite", "weyl", "--seed", "7"], ""),
    ("verify_seed42.txt", ["verify", "--seed", "42"], ""),
    ("density_identity.txt", ["density"], IDENTITY_1),
    ("density_v_id1.txt", ["density"], V_ID1),
    ("density_no_generators.txt", ["density"], '{"generators": []}'),
    ("density_upper_triangular.txt", ["density"], UPPER_TRIANGULAR),
    ("density_cyclic_shift.txt", ["density"], CYCLIC_SHIFT),
    ("hseq_identities.txt", ["hseq", "--n", "4"], '{"action": "identities", "h": [[1, "1"]]}'),
    ("symbol.txt", ["symbol", "--n", "3"], SYMBOL_ELEMENT),
    ("symbol_render.txt", ["symbol", "--n", "3", "--render"], SYMBOL_ELEMENT),
    ("act.txt", ["act"], ACT),
    ("autom_weyl.txt", ["autom-weyl"], AUTOM_WEYL),
    ("autom.txt", ["autom"], AUTOM),
    ("fit_seq.txt", ["fit-seq"], FIT_SEQ),
]


def _run_cend(argv, stdin):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(REPO / "src"), path])))
    return subprocess.run(
        [sys.executable, "-m", "cend", *argv],
        input=stdin.encode(),
        capture_output=True,
        cwd=REPO,
        env=env,
        timeout=600,
    )


@pytest.mark.parametrize("name,argv,stdin", CASES, ids=[c[0] for c in CASES])
def test_cli_stdout_matches_golden_file(name, argv, stdin):
    proc = _run_cend(argv, stdin)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / name).read_bytes()


def test_every_golden_file_has_a_case():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(c[0] for c in CASES)


def test_verify_report_keeps_its_pinned_digest():
    data = (GOLDEN / "verify_seed42.txt").read_bytes()
    assert len(data) == 2017
    assert hashlib.sha256(data).hexdigest() == (
        "008eee9a2dc3c1a18bd592a716f725efd4ee84f949a12a516647548c87803d8c"
    )
