"""CLI envelopes, golden vectors, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cyclokit
import cyclokit.cyclotomic as cyclotomic_module
from cyclokit import cli, finitefield, intpoly, inverses, torus
from cyclokit.cli import COUNT_CEILING, INDEX_CEILING, PR_CEILING, main
from cyclokit.cyclotomic import cyclotomic


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_envelope(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def run_python(*args):
    """A fresh interpreter with this checkout's package on its path."""
    src = str(Path(cyclokit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )


def run_module(*args, python_flags=()):
    return run_python(*python_flags, "-m", "cyclokit", *args)


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

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="the interpreter has no integer string limit",
    )
    @pytest.mark.parametrize("n, q_exponent", [(211, 60), (3001, 4299)])
    def test_eval_over_string_limit_is_precondition_failure(self, capsys, n, q_exponent):
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "eval", str(n), str(10**q_exponent))
        assert time.perf_counter() - started < 1.0
        assert code == 3 and not out and "limit" in err

    @pytest.mark.parametrize("exc, expected", [(ArithmeticError, 1), (ZeroDivisionError, 3)])
    def test_arithmetic_error_exit_code(self, capsys, monkeypatch, exc, expected):
        # ZeroDivisionError is an ArithmeticError but keeps its precondition exit
        def broken(params):
            raise exc("T_pr slot exponent must reduce to p*r")

        monkeypatch.setattr(torus, "composite_exponents", broken)
        code, out, err = run_cli(capsys, "torus", "theta-demo", "--q", "7", "--p", "2", "--r", "3")
        assert code == expected and not out
        assert len(err.splitlines()) == 1 and err.startswith("error:") and "Traceback" not in err
        assert run_cli(capsys, "inv", "3", "3")[0] == 3

    def test_membership_failure_is_precondition_failure(self, capsys, monkeypatch):
        def broken(comps, params):
            raise torus.TorusMembershipError("component t1 is not in T_1")

        monkeypatch.setattr(torus, "recombine", broken)
        code, out, err = run_cli(
            capsys, "torus", "roundtrip", "--q", "7", "--p", "3", "--r", "5", "--count", "1"
        )
        assert code == 3 and not out
        assert err == "error: component t1 is not in T_1\n"

    def test_failed_roundtrip_trial_exits_1(self, capsys, monkeypatch):
        real, calls = torus.recombine, []

        def wrong_second(comps, params):
            calls.append(comps)
            back = real(comps, params)
            wrong = back.field.element((back.coeffs[0] + 1, *back.coeffs[1:]))  # back + 1
            return wrong if len(calls) == 2 else back

        monkeypatch.setattr(torus, "recombine", wrong_second)
        code, out, err = run_cli(
            capsys, "torus", "roundtrip", "--q", "7", "--p", "3", "--r", "5",
            "--count", "3", "--vectors", "3",
        )
        *vectors, envelope = map(json.loads, out.splitlines())
        assert code == 1 and not err
        assert [line["ok"] for line in vectors] == [True, False, True]
        assert envelope["result"]["passes"] == 2 and envelope["result"]["count"] == 3

    def test_failed_theta_trial_exits_1(self, capsys, monkeypatch):
        real, calls = torus.theta_reverse, []

        def wrong_first(x1, xpr, params):
            calls.append(x1)
            x, xp, xr = real(x1, xpr, params)
            wrong = xr.field.element((xr.coeffs[0] + 1, *xr.coeffs[1:]))  # xr + 1
            return (x, xp, wrong) if len(calls) == 1 else (x, xp, xr)

        monkeypatch.setattr(torus, "theta_reverse", wrong_first)
        code, out, err = run_cli(
            capsys, "torus", "theta-demo", "--q", "5", "--p", "2", "--r", "3", "--count", "2"
        )
        result = last_envelope(out)["result"]
        assert code == 1 and not err and len(out.splitlines()) == 1
        assert result["passes"] == 1 < result["count"] == 2

    def test_inexact_resultant_step_exits_1(self, capsys, monkeypatch):
        # res 10 7 divides its third remainder by beta = 4; adding 1 to the second
        # remainder's constant term (Phi_10 by the first remainder, of degree 3) makes
        # that division inexact, which is a failed invariant, not a usage error
        pseudo_divrem = intpoly._pseudo_divrem

        def broken(a, b):
            scale, q, r = pseudo_divrem(a, b)
            if (len(a), len(b)) == (5, 4):
                r = [r[0] + 1, *r[1:]]
            return scale, q, r

        monkeypatch.setattr(intpoly, "_pseudo_divrem", broken)
        with pytest.raises(ArithmeticError, match="not divisible by 4"):
            intpoly.resultant(cyclotomic(10), cyclotomic(7))
        code, out, err = run_cli(capsys, "res", "10", "7")
        assert code == 1 and not out
        assert err == "error: coefficients not divisible by 4\n"

    def test_inexact_bezout_residual_exits_1(self, capsys, monkeypatch):
        # the residual den - a*U of xgcd_rational(Phi_899, Phi_29) is the only dividend other
        # than Phi_899 divided by Phi_29; a remainder left there is a failed certificate
        pseudo_divrem = intpoly._pseudo_divrem
        phi899, phi29 = cyclotomic(899).coeffs, cyclotomic(29).coeffs
        broken_calls = []

        def broken(a, b):
            scale, q, r = pseudo_divrem(a, b)
            broken_calls.append(tuple(b) == phi29 and tuple(a) != phi899)
            if broken_calls[-1]:
                r = [r[0] + 1, *r[1:]]
            return scale, q, r

        monkeypatch.setattr(intpoly, "_pseudo_divrem", broken)
        with pytest.raises(ArithmeticError, match="Bezout residual"):
            intpoly.xgcd_rational(cyclotomic(899), cyclotomic(29))
        assert broken_calls[-1] and broken_calls.count(True) == 1  # the last division only
        code, out, err = run_cli(capsys, "inv", "899", "29")
        assert code == 1 and not out
        assert err == "error: Bezout residual does not divide exactly\n"

    def test_negative_apostol_exponent_exits_1(self, capsys, monkeypatch):
        # mu(1) = +1 read as -1 makes the closed form 2^-1 for Res(Phi_2, Phi_1); Phi_1 and
        # Phi_2 are built, and cached, first, as their own series read mu(1) too
        cyclotomic(1), cyclotomic(2)
        moebius = cyclotomic_module.moebius
        monkeypatch.setattr(cyclotomic_module, "moebius", lambda k: -1 if k == 1 else moebius(k))
        message = "exponent -1 of 2 in Res(Phi_2, Phi_1) is negative"
        with pytest.raises(ArithmeticError, match=re.escape(message)):
            cyclotomic_module.resultant_apostol(2, 1)
        code, out, err = run_cli(capsys, "verify", "--mode", "resultants", "--max", "2")
        assert code == 1 and not out
        assert err == f"error: {message}\n"

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

    def test_alternation_failure_is_reported_and_exits_1(self, capsys, monkeypatch):
        difference_inverse = inverses.difference_inverse

        def broken(p, r):
            if (p, r) == (3, 5):
                raise ValueError("difference inverse signs do not alternate for (3, 5)")
            return difference_inverse(p, r)

        monkeypatch.setattr(inverses, "difference_inverse", broken)
        code, out, err = run_cli(capsys, "verify", "--mode", "alternation", "--max", "5")
        *lines, envelope = out.splitlines()
        assert code == 1 and not err
        assert [line for line in lines if '"ok": false' in line] == [
            '{"p": 3, "r": 5, "ok": false, "coeffs": []}'
        ]
        assert json.loads(envelope)["result"] == {
            "mode": "alternation", "max": 5, "checked": 6, "failed": 1,
        }


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

    def test_composite_q_is_usage_error(self, capsys):
        # a plain ValueError from the library, not one of the CLI's own errors
        code, out, err = run_cli(capsys, "torus", "params", "--q", "4", "--p", "3", "--r", "5")
        assert code == 2 and not out
        assert len(err.splitlines()) == 1 and err.startswith("error:") and "prime" in err

    def test_symbolic_mode_only_for_params(self, capsys):
        code, _, err = run_cli(capsys, "torus", "roundtrip", "--q", "0", "--p", "3", "--r", "5")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("p, r", [("1", "5"), ("3", "1")])
    def test_index_below_2_states_the_rule(self, capsys, p, r):
        code, out, err = run_cli(capsys, "torus", "params", "--q", "0", "--p", p, "--r", r)
        assert code == 2 and not out
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert "p and r must be >= 2 and q >= 0" in err and "positive" not in err

    @pytest.mark.parametrize("action", ["roundtrip", "theta-demo"])
    def test_negative_count_is_usage_error(self, capsys, action):
        code, out, err = run_cli(
            capsys, "torus", action, "--q", "5", "--p", "2", "--r", "3", "--count", "-1"
        )
        assert code == 2 and not out and "error" in err

    @pytest.mark.parametrize("action", ["roundtrip", "theta-demo"])
    @pytest.mark.parametrize("count", [COUNT_CEILING + 1, 10**30])
    def test_count_above_ceiling_is_precondition_failure(self, capsys, monkeypatch, action, count):
        def no_field(q, n):
            raise AssertionError("a field was built before the --count check")

        monkeypatch.setattr(finitefield, "make_ext_field", no_field)
        started = time.perf_counter()
        code, out, err = run_cli(
            capsys, "torus", action, "--q", "2", "--p", "2", "--r", "61", "--count", str(count)
        )
        assert time.perf_counter() - started < 1.0
        assert code == 3 and not out and "ceiling" in err

    @pytest.mark.parametrize("q", ["0", "2"])
    @pytest.mark.parametrize("p, r", [(3, 5347), (5347, 3), (127, 131), (10**30, 3)])
    def test_pr_above_ceiling_is_precondition_failure(self, capsys, monkeypatch, q, p, r):
        assert p * r > PR_CEILING

        def no_exponents(p, r):
            raise AssertionError("the Bezout exponents were derived before the p*r check")

        monkeypatch.setattr(torus, "derive_exponent_polys", no_exponents)
        started = time.perf_counter()
        code, out, err = run_cli(
            capsys, "torus", "params", "--q", q, "--p", str(p), "--r", str(r)
        )
        assert time.perf_counter() - started < 1.0
        assert code == 3 and not out and "ceiling" in err

    @pytest.mark.parametrize("p, r", [(3, 5333), (5333, 3), (2, 7993)])
    def test_pr_at_ceiling_is_admitted(self, capsys, monkeypatch, p, r):
        # the slowest shapes under the ceiling (0.4-0.5 s cold) get past the guard
        assert p * r <= PR_CEILING

        def reached(p, r):
            raise ArithmeticError("derive_exponent_polys reached")

        monkeypatch.setattr(torus, "derive_exponent_polys", reached)
        code, out, err = run_cli(
            capsys, "torus", "params", "--q", "0", "--p", str(p), "--r", str(r)
        )
        assert code == 1 and not out and "reached" in err

    def test_default_count_is_admitted(self):
        # the default --count, 100, is also the count of the README examples
        argv = ["torus", "theta-demo", "--q", "7", "--p", "3", "--r", "5"]
        assert cli._build_parser().parse_args(argv).count == 100 <= COUNT_CEILING

    # the embedding scan never finished at (7, 2, 13), whose subfield of
    # degree 13 has 7^13 elements
    @pytest.mark.parametrize("q, p, r", [(7, 2, 13), (65537, 2, 3)])
    def test_large_subfield_theta_demo_exits_cleanly(self, capsys, q, p, r):
        torus._embedding.cache_clear()
        started = time.perf_counter()
        code, out, _ = run_cli(
            capsys, "torus", "theta-demo", "--q", str(q), "--p", str(p), "--r", str(r),
            "--count", "1",
        )
        assert time.perf_counter() - started < 2.0
        assert code == 0 and last_envelope(out)["result"]["passes"] == 1

    def test_split_that_never_separates_exits_1(self, capsys, monkeypatch):
        torus._embedding.cache_clear()
        monkeypatch.setattr(torus, "_split", lambda g, delta, d, big: g)
        code, out, err = run_cli(
            capsys, "torus", "theta-demo", "--q", "5", "--p", "2", "--r", "3", "--count", "1"
        )
        assert code == 1 and not out
        assert len(err.splitlines()) == 1 and err.startswith("error:") and "Traceback" not in err
        assert "q=5" in err and "n=6" in err

    def test_negative_vectors_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "torus", "roundtrip", "--q", "5", "--p", "2", "--r", "3",
            "--count", "2", "--vectors", "-3",
        )
        assert code == 2 and not out and "error" in err

    # the options each torus action reads past --q --p --r
    ACTION_OPTIONS = {
        "params": set(),
        "roundtrip": {"--count", "--seed", "--vectors"},
        "theta-demo": {"--count", "--seed"},
    }

    @pytest.mark.parametrize("option", ["--count", "--seed", "--vectors"])
    @pytest.mark.parametrize("action", ["params", "roundtrip", "theta-demo"])
    def test_option_accepted_exactly_when_the_action_reads_it(
        self, capsys, monkeypatch, action, option
    ):
        argv = ["torus", action, "--q", "5", "--p", "2", "--r", "3", option, "1"]
        if option in self.ACTION_OPTIONS[action]:
            code, out, err = run_cli(capsys, *argv)
            *lines, envelope = map(json.loads, out.splitlines())
            assert code == 0 and not err
            read = {
                "--count": envelope["result"]["count"] == 1,
                "--seed": envelope["params"]["seed"] == 1,
                "--vectors": len(lines) == 1,
            }
            assert read[option]
            return

        def nothing_built(*args):
            raise AssertionError("the command ran past argparse")

        monkeypatch.setattr(finitefield, "make_ext_field", nothing_built)
        monkeypatch.setattr(torus, "derive_exponent_polys", nothing_built)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and not out
        assert f"unrecognized arguments: {option} 1" in err

    @pytest.mark.parametrize("vectors", ["-1", "0", "5"])
    def test_theta_demo_rejects_vectors_of_any_value(self, capsys, vectors):
        argv = ["torus", "theta-demo", "--q", "5", "--p", "2", "--r", "3", "--vectors", vectors]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and not out
        assert "unrecognized arguments: --vectors" in err and "must be >= 0" not in err

    @pytest.mark.parametrize(
        "action, message",
        [
            ("roundtrip", "--count and --vectors must be >= 0"),
            ("theta-demo", "--count must be >= 0"),
        ],
    )
    def test_negative_check_names_only_the_options_read(self, capsys, action, message):
        code, out, err = run_cli(
            capsys, "torus", action, "--q", "5", "--p", "2", "--r", "3", "--count", "-1"
        )
        assert code == 2 and not out and err == f"error: {message}\n"

    @pytest.mark.parametrize("action", ["params", "roundtrip", "theta-demo"])
    def test_action_help_lists_only_the_options_read(self, capsys, action):
        with pytest.raises(SystemExit) as exc:
            main(["torus", action, "--help"])
        help_text = capsys.readouterr().out
        assert exc.value.code == 0
        listed = set(re.findall(r"--[a-z]+", help_text)) - {"--help"}
        assert listed == {"--q", "--p", "--r"} | self.ACTION_OPTIONS[action]
        assert ("0 = symbolic params" in help_text) == (action == "params")


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

    def test_verify_stream_deterministic(self, capsys):
        def lines():
            _, out, _ = run_cli(capsys, "verify", "--mode", "alternation", "--max", "7")
            return out.strip().splitlines()[:-1]

        assert lines() == lines()


# negative, 0, 1, small primes, composites, INDEX_CEILING and one past it, and
# one huge value. inv and res are slow only between two distinct large indices,
# and INDEX_CEILING is the only large one here: the slowest inv/res/eval pair of
# these values takes milliseconds in-process
FUZZ_VALUES = st.sampled_from(
    (-7, -1, 0, 1, 2, 3, 5, 7, 4, 6, 15, INDEX_CEILING, INDEX_CEILING + 1, 10**30)
).map(str)


@st.composite
def fuzz_argv(draw):
    stray = False  # whether argv carries an option its torus action does not read
    command = draw(st.sampled_from(["phi", "res", "inv", "eval", "verify", "torus"]))
    if command == "phi":
        argv = [command, draw(FUZZ_VALUES)]
    elif command in ("res", "inv", "eval"):
        argv = [command, draw(FUZZ_VALUES), draw(FUZZ_VALUES)]
    elif command == "verify":
        mode = draw(st.sampled_from(["theorem1", "resultants", "lamleung", "alternation", "x"]))
        argv = [command, "--mode", mode, "--max", draw(FUZZ_VALUES)]
    else:
        action = draw(st.sampled_from(sorted(cli._TORUS_ACTIONS)))
        options = cli._TORUS_ACTIONS[action][1]
        argv = [command, action]
        for flag in ("--q", "--p", "--r"):  # lean to primes so more calls build a field
            argv += [flag, draw(st.one_of(st.sampled_from("2357"), FUZZ_VALUES))]
        for name in options:
            argv += [f"--{name}", draw(FUZZ_VALUES)]
        if draw(st.booleans()):  # an option this action does not read, from another one or verify
            unread = [name for name in ("count", "seed", "vectors", "max") if name not in options]
            argv += [f"--{draw(st.sampled_from(unread))}", draw(FUZZ_VALUES)]
            stray = True
    if draw(st.booleans()) and draw(st.booleans()):
        argv = argv[:-1]  # a missing operand or option value
    return argv, stray


@given(fuzz_argv())
@settings(max_examples=150, deadline=None)
def test_argv_fuzz_reaches_a_documented_exit(case):
    argv, stray = case
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert time.perf_counter() - started < 2.0, argv
    assert code in (0, 1, 2, 3), argv
    assert code == 2 or not stray, argv
    assert "Traceback" not in err.getvalue(), argv


@pytest.mark.parametrize(
    "argv",
    [
        # q^(p*r) = 2^123, the widest field with q = 2 under the 2^128 ceiling
        ("torus", "params", "--q", "2", "--p", "3", "--r", "41"),
        ("torus", "roundtrip", "--q", "2", "--p", "3", "--r", "41", "--count", "1"),
        # the largest prime q with q^6 <= 2^128
        ("torus", "params", "--q", "2642239", "--p", "2", "--r", "3"),
        ("torus", "roundtrip", "--q", "2642239", "--p", "2", "--r", "3", "--count", "1"),
        ("torus", "roundtrip", "--q", "7", "--p", "3", "--r", "5", "--count", str(COUNT_CEILING)),
        # the slowest v1/v2 shapes under PR_CEILING: small p, large r
        ("torus", "params", "--q", "0", "--p", "3", "--r", "5333"),
        ("torus", "params", "--q", "0", "--p", "2", "--r", "7993"),
    ],
    ids=[
        "params-2^123", "roundtrip-2^123", "params-q^6", "roundtrip-q^6", "roundtrip-count-ceiling",
        "params-q0-3x5333", "params-q0-2x7993",
    ],
)
def test_in_ceiling_edges_exit_0_quickly(capsys, argv):
    started = time.perf_counter()
    code, out, _ = run_cli(capsys, *argv)
    assert time.perf_counter() - started < 2.0
    assert code == 0 and last_envelope(out)["command"] == "torus"


def test_cli_import_loads_no_rational_arithmetic():
    # every cold command pays for what `import cyclokit.cli` loads
    probe = "import sys, cyclokit.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    proc = run_python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_module_entry_point():
    proc = run_module("phi", "3")
    assert proc.returncode == 0
    env = json.loads(proc.stdout.strip())
    assert env["result"]["num"] == ["1", "1", "1"]


def _pinned_rows():
    """(exit code, sha256, argv) for each row of pinned_commands.txt; '#' starts a comment."""
    for line in (Path(__file__).parent / "pinned_commands.txt").read_text().splitlines():
        if fields := line.partition("#")[0].split():
            yield int(fields[0]), fields[1], tuple(fields[2:])


PINNED = list(_pinned_rows())


@pytest.mark.parametrize("code, digest, argv", PINNED, ids=[" ".join(argv) for *_, argv in PINNED])
def test_pinned_command(code, digest, argv):
    # one run under python -O per row: test_no_bare_assert_in_src shows that src/ has nothing
    # that -O strips, and every digest was recorded where plain python printed the same bytes
    assert [row[2] for row in PINNED].count(argv) == 1, "each argv is pinned once"
    proc = run_module(*argv, python_flags=("-O",))
    printed = re.sub(r'"elapsed_ms": [0-9.]+', "", proc.stdout) + proc.stderr
    assert (proc.returncode, hashlib.sha256(printed.encode()).hexdigest()) == (code, digest)
