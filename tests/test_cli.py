"""CLI envelopes, golden vectors, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cyclokit
from cyclokit.cli import INDEX_CEILING, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_envelope(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def without_elapsed(out: str) -> str:
    """stdout with the envelope's elapsed_ms dropped; every other byte kept."""
    *lines, last = out.splitlines()
    env = json.loads(last)
    del env["elapsed_ms"]
    return "\n".join(lines + [json.dumps(env)]) + "\n"


def run_module(*args, python_flags=()):
    src = str(Path(cyclokit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "cyclokit", *args],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )


class TestBasicCommands:
    def test_phi_15(self, capsys):
        code, out, _ = run_cli(capsys, "phi", "15")
        env = last_envelope(out)
        assert code == 0
        assert env["command"] == "phi"
        assert env["result"]["num"] == ["1", "-1", "0", "1", "-1", "1", "0", "-1", "1"]
        assert env["result"]["den"] == "1"
        assert env["elapsed_ms"] >= 0

    def test_inv_1_15(self, capsys):
        code, out, _ = run_cli(capsys, "inv", "1", "15")
        env = last_envelope(out)
        assert code == 0
        assert env["result"]["num"] == ["0", "-1", "-1", "0", "-1", "0", "0", "-1"]
        assert env["result"]["den"] == "1"

    def test_res_6_3(self, capsys):
        code, out, _ = run_cli(capsys, "res", "6", "3")
        assert code == 0
        assert last_envelope(out)["result"]["resultant"] == "4"

    def test_eval(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "15", "2")
        assert code == 0
        assert last_envelope(out)["result"]["value"] == "151"

    def test_phi_invalid_argument(self, capsys):
        code, out, err = run_cli(capsys, "phi", "0")
        assert code == 2 and not out and "error" in err

    def test_inv_non_coprime_is_precondition_failure(self, capsys):
        code, out, err = run_cli(capsys, "inv", "3", "3")
        assert code == 3 and not out and "error" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("phi", "{big}"),
            ("eval", "{big}", "2"),
            ("res", "{big}", "3"),
            ("res", "3", "{big}"),
            ("inv", "{big}", "3"),
            ("inv", "3", "{big}"),
        ],
    )
    @pytest.mark.parametrize("big", [INDEX_CEILING + 1, 15015])
    def test_index_above_ceiling_is_precondition_failure(self, capsys, argv, big):
        started = time.perf_counter()
        code, out, err = run_cli(capsys, *(a.format(big=big) for a in argv))
        assert time.perf_counter() - started < 1.0
        assert code == 3 and not out and "ceiling" in err

    def test_index_at_ceiling_is_admitted(self, capsys):
        code, out, _ = run_cli(capsys, "phi", str(INDEX_CEILING))
        assert code == 0 and last_envelope(out)["params"] == {"n": INDEX_CEILING}

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestVerify:
    def test_theorem1_mode(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--mode", "theorem1", "--max", "7")
        lines = out.strip().splitlines()
        env = json.loads(lines[-1])
        assert code == 0
        assert env["result"]["failed"] == 0
        # 4 primes -> 12 ordered pairs -> 7 cases each
        assert env["result"]["checked"] == 84
        reports = [json.loads(line) for line in lines[:-1]]
        assert len(reports) == 84
        assert all(rep["ok"] for rep in reports)
        assert {rep["case"] for rep in reports} == {
            "i-a", "i-b", "ii-a", "ii-b", "iii-a", "iii-b", "iv",
        }

    def test_resultants_mode(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--mode", "resultants", "--max", "12")
        env = last_envelope(out)
        assert code == 0
        assert env["result"]["checked"] == sum(m - 1 for m in range(2, 13))
        assert env["result"]["failed"] == 0

    def test_lamleung_mode(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--mode", "lamleung", "--max", "13")
        env = last_envelope(out)
        assert code == 0 and env["result"]["failed"] == 0

    def test_alternation_mode(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--mode", "alternation", "--max", "7")
        env = last_envelope(out)
        assert code == 0 and env["result"]["failed"] == 0

    def test_ceiling_enforced(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--mode", "theorem1", "--max", "50")
        assert code == 2 and "error" in err


class TestTorus:
    def test_symbolic_params_golden(self, capsys):
        code, out, _ = run_cli(capsys, "torus", "params", "--q", "0", "--p", "3", "--r", "5")
        env = last_envelope(out)
        assert code == 0
        res = env["result"]
        assert res["symbolic"] is True
        assert res["u1"]["num"] == ["1"]
        assert res["u_pr"]["num"] == ["0", "-1", "-1", "0", "-1", "0", "0", "-1"]
        assert res["u_p"]["num"] == ["0", "-1"]
        assert res["u_r"]["num"] == ["1", "0", "0", "1"]
        assert res["v1"]["num"] == ["9", "-16", "7", "6", "-10", "8", "-3", "-2", "2"]
        assert res["v2"]["num"] == ["-6", "-10", "-12", "-9", "-6", "-2"]

    def test_concrete_params_include_evaluations(self, capsys):
        code, out, _ = run_cli(capsys, "torus", "params", "--q", "7", "--p", "3", "--r", "5")
        env = last_envelope(out)
        assert code == 0
        res = env["result"]
        assert res["symbolic"] is False
        assert res["evaluations"]["u_p"] == "-7"
        assert res["norm_exponents"]["1"] == str((7**15 - 1) // 6)

    def test_roundtrip(self, capsys):
        code, out, _ = run_cli(
            capsys, "torus", "roundtrip", "--q", "5", "--p", "2", "--r", "3",
            "--count", "25", "--seed", "42",
        )
        env = last_envelope(out)
        assert code == 0
        assert env["result"]["count"] == 25 and env["result"]["passes"] == 25
        assert env["result"]["field"]["n"] == 6

    def test_roundtrip_vector_records(self, capsys):
        code, out, _ = run_cli(
            capsys, "torus", "roundtrip", "--q", "5", "--p", "2", "--r", "3",
            "--count", "4", "--seed", "42", "--vectors", "2",
        )
        lines = out.strip().splitlines()
        assert code == 0 and len(lines) == 3  # two vector lines + envelope
        vec = json.loads(lines[0])
        assert set(vec) == {"x", "components", "recombined", "ok"}
        assert set(vec["components"]) == {"t1", "tp", "tr", "tpr"}
        assert vec["ok"] is True
        assert all(len(vec[k]) == 6 for k in ("x", "recombined"))

    def test_theta_demo(self, capsys):
        code, out, _ = run_cli(
            capsys, "torus", "theta-demo", "--q", "5", "--p", "2", "--r", "3",
            "--count", "5", "--seed", "7",
        )
        env = last_envelope(out)
        assert code == 0
        assert env["result"]["passes"] == 5
        assert env["result"]["dimensions"]["balanced"] is True

    def test_field_ceiling(self, capsys):
        code, _, err = run_cli(
            capsys, "torus", "roundtrip", "--q", "101", "--p", "23", "--r", "29"
        )
        assert code == 3 and "error" in err

    def test_symbolic_mode_only_for_params(self, capsys):
        code, _, err = run_cli(capsys, "torus", "roundtrip", "--q", "0", "--p", "3", "--r", "5")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("action", ["roundtrip", "theta-demo"])
    def test_negative_count_is_usage_error(self, capsys, action):
        code, out, err = run_cli(
            capsys, "torus", action, "--q", "5", "--p", "2", "--r", "3", "--count", "-1"
        )
        assert code == 2 and not out and "error" in err

    def test_negative_vectors_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "torus", "roundtrip", "--q", "5", "--p", "2", "--r", "3",
            "--count", "2", "--vectors", "-3",
        )
        assert code == 2 and not out and "error" in err


class TestDeterminism:
    def test_repeat_run_identical_modulo_elapsed(self, capsys):
        def snapshot():
            _, out, _ = run_cli(
                capsys, "torus", "roundtrip", "--q", "5", "--p", "2", "--r", "3",
                "--count", "10", "--seed", "9",
            )
            env = last_envelope(out)
            env.pop("elapsed_ms")
            return env

        assert snapshot() == snapshot()

    # sha256 of stdout without elapsed_ms, recorded with the schoolbook field
    # multiply that the packed kernel replaced
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ("torus", "roundtrip", "--q", "7", "--p", "3", "--r", "5",
                 "--count", "3", "--seed", "1", "--vectors", "3"),
                "c26777d196425bf012b8984930e61739dca5ca32cbc743e4525da68e6b6c516e",
            ),
            (
                ("torus", "theta-demo", "--q", "5", "--p", "2", "--r", "3",
                 "--count", "5", "--seed", "7"),
                "83660e571312ba2d1663717224aec5b2f7f47dec378b36d09a8fbab4e6a7836e",
            ),
            # the six Bezout exponent polynomials, symbolic and at q = 7
            (
                ("torus", "params", "--q", "0", "--p", "3", "--r", "5"),
                "5c1b10c01ef99c79254712b7037a904fd8a3e2241992d51e90fef1adfb82c68f",
            ),
            (
                ("torus", "params", "--q", "7", "--p", "3", "--r", "5"),
                "69ab321dcd22c2bdb86d146ff44aaa961fb2ff8117428fc1a05bc9057fb37999",
            ),
        ],
    )
    def test_seeded_torus_output_golden(self, capsys, argv, digest):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(without_elapsed(out).encode()).hexdigest() == digest

    # the degree-840 paths of the Bezout oracle and of the resultant, recorded
    # with the Fraction-based extended Euclid that pseudo-division replaced
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ("inv", "29", "899"),
                "3ee08390896cc9d26d6a7f7383c949c52ef64a05efe1b195afd0689be7a68b2e",
            ),
            (
                ("res", "899", "29"),
                "b172e44f4c0cd0adabc4a7b69876328e66b83018040bfc40fc6a21d1085fc578",
            ),
        ],
    )
    def test_seeded_oracle_output_golden(self, capsys, argv, digest):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(without_elapsed(out).encode()).hexdigest() == digest

    def test_verify_stream_deterministic(self, capsys):
        def lines():
            _, out, _ = run_cli(capsys, "verify", "--mode", "alternation", "--max", "7")
            return out.strip().splitlines()[:-1]

        assert lines() == lines()


def test_module_entry_point():
    proc = run_module("phi", "3")
    assert proc.returncode == 0
    env = json.loads(proc.stdout.strip())
    assert env["result"]["num"] == ["1", "1", "1"]


@pytest.mark.parametrize(
    "argv",
    [
        ("torus", "roundtrip", "--q", "5", "--p", "2", "--r", "3", "--count", "5", "--seed", "3"),
        ("verify", "--mode", "theorem1", "--max", "7"),
    ],
    ids=["roundtrip", "theorem1"],
)
def test_optimized_interpreter_output_identical(argv):
    plain = run_module(*argv)
    optimized = run_module(*argv, python_flags=("-O",))
    assert plain.returncode == optimized.returncode == 0
    assert without_elapsed(optimized.stdout) == without_elapsed(plain.stdout)
