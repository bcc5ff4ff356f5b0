"""Command-line plumbing: payload decoding, exit codes, canonical output."""

import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import cend.cli
from cend.cli import main
from cend.conformal import ConformalElement, phi
from cend.poly import BiPoly, PolyMatrix, UniPoly
from cend.render import render_matrix
from cend.serialize import canonical_dumps, conformal_from_json, conformal_to_json

V_ID1 = '{"N":1,"entries":[[[[0,1,"1"]]]]}'
REPO = Path(__file__).resolve().parents[1]


@pytest.fixture
def cli(monkeypatch, capsys):
    def run(argv, payload=""):
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        status = main(argv)
        out, err = capsys.readouterr()
        return status, out, err

    return run


class TestHappyPaths:
    def test_nproduct_example(self, cli):
        status, out, err = cli(
            ["nproduct", "--n", "1"], '{"a": %s, "b": %s}' % (V_ID1, V_ID1)
        )
        assert (status, err) == (0, "")
        assert out == V_ID1 + "\n"

    def test_smith_round(self, cli):
        zero, v = [], [[1, "1"]]
        payload = json.dumps([[zero, v], [v, zero]])
        status, out, _ = cli(["smith"], payload)
        assert status == 0
        got = json.loads(out)
        assert got["Dg"] == [[v, zero], [zero, v]]
        assert got["T"] == [[[[0, "1"]], zero], [zero, [[0, "1"]]]]
        assert got["U"] == [[zero, [[0, "1"]]], [[[0, "1"]], zero]]

    def test_output_is_deterministic(self, cli):
        payload = '{"a": %s, "b": %s}' % (V_ID1, V_ID1)
        first = cli(["bracket", "--n", "0"], payload)
        second = cli(["bracket", "--n", "0"], payload)
        assert first == second

    def test_phi_inverse_flag(self, cli):
        a = conformal_from_json(json.loads(V_ID1))
        image = canonical_dumps(conformal_to_json(phi(a)))
        status, out, _ = cli(["phi"], '{"a": %s, "inverse": true}' % image)
        assert status == 0
        assert out == V_ID1 + "\n"

    def test_render_flag_switches_to_text(self, cli):
        payload = '{"a": %s}' % V_ID1
        status, out, _ = cli(["sigma", "--render"], payload)
        a = conformal_from_json(json.loads(V_ID1))
        assert status == 0
        assert out == render_matrix(
            ConformalElement([[BiPoly.v() - BiPoly.D()]])
        ) + "\n"
        assert not out.startswith("{")

    def test_ideal_member_sides(self, cli):
        unit_q = json.dumps([[[[0, "1"]]]])
        for side in ("left", "right"):
            payload = '{"x": %s, "Q": %s, "side": "%s"}' % (V_ID1, unit_q, side)
            status, out, _ = cli(["ideal-member"], payload)
            assert status == 0
            assert json.loads(out) == {"member": True, "side": side}

    def test_hseq_actions(self, cli):
        p = [[1, "1"]]
        status, out, _ = cli(["hseq", "--n", "3"], '{"h": %s}' % json.dumps(p))
        assert status == 0
        assert json.loads(out)["lower"][1] == [[1, "-1"]]

        status, out, _ = cli(
            ["hseq", "--n", "6"],
            '{"action": "identities", "h": %s}' % json.dumps(p),
        )
        assert status == 0
        assert json.loads(out)["ok"] is True

        status, out, _ = cli(
            ["hseq"], '{"action": "split", "w": [[0, 2, "1"]]}'
        )
        assert status == 0
        assert json.loads(out) == {"stem": [[0, 1, "1"]], "shiftFree": []}

        status, out, _ = cli(
            ["hseq"],
            '{"action": "rebase", "h": %s, "coeffs": [[[0, "1"]], [[1, "1"]]]}'
            % json.dumps(p),
        )
        assert status == 0
        assert json.loads(out) == {"coeffs": [[[0, "1"]], []]}

    def test_classify_scalar_current(self, cli):
        payload = json.dumps(
            {
                "generators": [json.loads(V_ID1.replace('[[[[0,1,"1"]]]]',
                                                        '[[[[0,0,"1"]]]]'))],
                "vDegBound": 1,
                "iterBound": 4,
            }
        )
        status, out, _ = cli(["classify"], payload)
        assert status == 0
        assert json.loads(out)["verdict"] == "CurrentConjugate"

    def test_density_uses_camel_case_keys(self, cli):
        payload = '{"generators": [%s]}' % V_ID1
        status, out, _ = cli(["density"], payload)
        assert status == 0
        assert set(json.loads(out)) == {"verdict", "reason", "submodule"}


def _stub_report(ok: bool) -> dict:
    return {
        "seed": 0,
        "suite": "all",
        "sizes": [],
        "bounds": {},
        "cases": 0,
        "failures": 0 if ok else 1,
        "ok": ok,
        "checks": [],
    }


class TestVerifyCommand:
    def test_empty_stdin_is_allowed(self, cli, monkeypatch):
        monkeypatch.setattr(
            cend.cli, "verify_suite", lambda **kw: _stub_report(True)
        )
        status, out, _ = cli(["verify"], "")
        assert status == 0
        assert json.loads(out)["ok"] is True

    def test_terminal_stdin_is_not_read(self, capsys, monkeypatch):
        class Terminal:
            def isatty(self):
                return True

            def read(self):
                raise AssertionError("verify read a terminal")

        monkeypatch.setattr("sys.stdin", Terminal())
        monkeypatch.setattr(
            cend.cli, "verify_suite", lambda **kw: _stub_report(True)
        )
        assert main(["verify"]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True

    def test_failing_report_exits_one(self, cli, monkeypatch):
        monkeypatch.setattr(
            cend.cli, "verify_suite", lambda **kw: _stub_report(False)
        )
        status, out, _ = cli(["verify"], "")
        assert status == 1
        assert json.loads(out)["ok"] is False

    def test_payload_narrows_run(self, cli):
        status, out, _ = cli(
            ["verify", "--suite", "weyl", "--seed", "7"],
            '{"sizes": [1], "bounds": {"cases": 1}}',
        )
        assert status == 0
        report = json.loads(out)
        assert report["ok"] is True
        assert {c["suite"] for c in report["checks"]} == {"weyl"}


class TestErrorPaths:
    def test_domain_error_exits_one(self, cli):
        # conjugating by a non-unimodular matrix is a domain error
        payload = '{"a": %s, "autom": {"Q": [[[[1, "1"]]]]}}' % V_ID1
        status, out, err = cli(["autom"], payload)
        assert status == 1
        assert out == ""
        assert json.loads(err)["error"] == "NotUnimodular"

    def test_non_unimodular_error_names_the_determinant(self, cli):
        # Q = [[1 + v, v], [v, 1]] has det 1 + v - v^2
        q = '[[[[0,"1"],[1,"1"]],[[1,"1"]]],[[[1,"1"]],[[0,"1"]]]]'
        a = '{"N":2,"entries":[[[[0,1,"1"]],[]],[[],[]]]}'
        status, out, err = cli(["autom"], '{"a": %s, "autom": {"Q": %s}}' % (a, q))
        assert (status, out) == (1, "")
        assert err == (
            '{"error":"NotUnimodular","message":'
            '"determinant -v^2 + v + 1 is not a nonzero constant"}\n'
        )

    def test_bad_json_exits_two(self, cli):
        status, _, err = cli(["sigma"], "{not json")
        assert status == 2
        assert json.loads(err)["error"] == "MalformedInput"

    def test_missing_field_exits_two(self, cli):
        status, _, err = cli(["nproduct", "--n", "0"], '{"a": %s}' % V_ID1)
        assert status == 2
        assert "missing" in json.loads(err)["message"]

    def test_empty_stdin_exits_two(self, cli):
        status, _, err = cli(["sigma"], "")
        assert status == 2
        assert json.loads(err)["error"] == "MalformedInput"

    def test_non_integer_bound_exits_two(self, cli):
        gen = '{"N":1,"entries":[[[[0,1,"1"]]]]}'
        for bounds in ('"vDegBound":true,"iterBound":3',
                       '"vDegBound":2,"iterBound":3.0'):
            payload = '{"generators":[%s],%s}' % (gen, bounds)
            status, out, err = cli(["closure"], payload)
            assert status == 2 and out == ""
            assert json.loads(err)["error"] == "MalformedInput"

    @pytest.mark.parametrize(
        "command,payload",
        [
            pytest.param(["hseq"], '"x"', id="hseq-string-payload"),
            pytest.param(["verify"], '{"bounds": [1]}', id="verify-list-bounds"),
        ],
    )
    def test_non_object_input_exits_two(self, cli, command, payload):
        status, out, err = cli(command, payload)
        assert status == 2 and out == ""
        assert json.loads(err)["error"] == "MalformedInput"

    def test_bad_hseq_action_is_named_before_missing_h(self, cli):
        status, out, err = cli(["hseq"], '{"action": ["x"]}')
        assert status == 2 and out == ""
        error = json.loads(err)
        assert error["error"] == "MalformedInput"
        assert "'action'" in error["message"]

    def test_bad_side_exits_two(self, cli):
        payload = '{"x": %s, "Q": [[[[0, "1"]]]], "side": "up"}' % V_ID1
        status, _, err = cli(["ideal-member"], payload)
        assert status == 2

    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sigma", "--frob"])
        assert exc.value.code == 2
        capsys.readouterr()


def _write_console_script(bin_dir, name, target):
    """Write the wrapper an installer writes for ``name = "module:func"``."""
    module, func = target.split(":")
    script = bin_dir / name
    script.write_text(
        f"#!{sys.executable}\n"
        "import re\n"
        "import sys\n"
        f"from {module} import {func}\n"
        "if __name__ == '__main__':\n"
        "    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])\n"
        f"    sys.exit({func}())\n"
    )
    script.chmod(0o755)


class TestProcessEntryPoints:
    @staticmethod
    def _use_checkout(monkeypatch, bin_dir=None):
        """Child processes import ``cend`` from this checkout's ``src`` and,
        if ``bin_dir`` is given, find commands there first."""
        for name, path in [("PYTHONPATH", REPO / "src"), ("PATH", bin_dir)]:
            if path is not None:
                rest = os.environ.get(name)
                monkeypatch.setenv(name, os.pathsep.join(filter(None, [str(path), rest])))

    def test_module_invocation_matches_example(self, monkeypatch):
        self._use_checkout(monkeypatch)
        proc = subprocess.run(
            [sys.executable, "-m", "cend", "nproduct", "--n", "1"],
            input='{"a": %s, "b": %s}' % (V_ID1, V_ID1),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == V_ID1 + "\n"

    def test_console_script_installed(self, monkeypatch, tmp_path):
        # Installs the declared script itself, so the test checks this
        # checkout's entry point whether or not cend is pip-installed.
        try:
            import tomllib
        except ModuleNotFoundError:  # Python 3.10
            tomllib = pytest.importorskip("tomli")
        with open(REPO / "pyproject.toml", "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        _write_console_script(tmp_path, "cend", scripts["cend"])
        self._use_checkout(monkeypatch, bin_dir=tmp_path)
        exe = shutil.which("cend")
        assert exe is not None
        proc = subprocess.run(
            [exe, "sigma"], input='{"a": %s}' % V_ID1,
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["N"] == 1
