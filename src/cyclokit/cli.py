"""Command-line surface: construction, resultants, inverses, sweeps, torus demo.

Every command prints a single JSON envelope on stdout:

    {"command": ..., "params": ..., "result": ..., "elapsed_ms": ...}

Verification sweeps additionally stream one JSON line per checked
instance before the summary envelope. Polynomials always serialize as
little-endian decimal-string arrays with an explicit denominator field.

Exit codes: 0 success; 1 a mathematical check failed; 2 usage error, such as
`verify --max` outside [2, 31] or an option that the torus action does not read;
3 a mathematical precondition or resource ceiling was violated, such as the
torus ceiling p*r <= 16000, which alone bounds `torus params --q 0`.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from itertools import combinations, permutations

# the rest of the package, and random, load in the commands that run them
from .cyclotomic import (
    PrimePair,
    cyclotomic,
    euler_phi,
    lam_leung_phi_pr,
    nontrivial_resultant,
    primes_upto,
    resultant_apostol,
)
from .intpoly import IntPoly, PreconditionError, ScaledPoly, _height, resultant

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3

VERIFY_CEILING = 31
INDEX_CEILING = 3003  # phi/res/inv/eval; see _check_indices
FIELD_ORDER_CEILING = 2**128
# Measured cold on a 2-core Xeon VM: torus params --q 0 at p*r near 16000 takes 0.12-0.17 s, p = 2 to 113,
# against 0.11-0.13 s at (3, 5) and the slowest inv's 5.3-5.8 s; q >= 2 has p*r <= 128 by the field ceiling.
PR_CEILING = 16000
# Measured on a 2-core Xeon VM over 11 shapes: theta-demo ops under the field ceiling are slowest at q=3,
# n=74 and n=77, 2.9 and 2.5 ms each (q=2, n=122 and 123: 2.1 and 1.8 ms; medians of six runs), so
# 200 take 0.45-1.5 s cold with 0.15-1.2 s of set-up, below the slowest inv under INDEX_CEILING.
COUNT_CEILING = 200


class UsageError(ValueError):
    pass


def _poly_payload(value: IntPoly | ScaledPoly) -> dict:
    if isinstance(value, IntPoly):
        value = ScaledPoly(value)
    return value.to_json_dict()


def _emit(command: str, params: dict, result, started: float) -> None:
    envelope = {
        "command": command,
        "params": params,
        "result": result,
        "elapsed_ms": round((time.perf_counter() - started) * 1000.0, 3),
    }
    print(json.dumps(envelope))


def _check_indices(*indices: int) -> None:
    # Measured cold on a 2-core Xeon VM, the slowest under INDEX_CEILING: inv (3003, 2261) 5.3-5.8 s,
    # (3003, 2431) 4.5-5.0 s, res (3003, 2431) 2.2-2.4 s, phi/eval 0.12-0.13 s (2-3 ms of it builds
    # Phi_3003); inv (2002, 3003) 0.6-0.7 s. 3003 is the largest index the goldens and benchmark use.
    if min(indices) < 1:
        raise UsageError("indices must be >= 1")
    if max(indices) > INDEX_CEILING:
        raise PreconditionError(f"index {max(indices)} exceeds the ceiling {INDEX_CEILING}")


def _cmd_phi(args) -> tuple[dict, dict, int]:
    _check_indices(args.n)
    return {"n": args.n}, _poly_payload(cyclotomic(args.n)), EXIT_OK


def _cmd_res(args) -> tuple[dict, dict, int]:
    _check_indices(args.m, args.n)
    value = resultant(cyclotomic(args.m), cyclotomic(args.n))
    return {"m": args.m, "n": args.n}, {"resultant": str(value)}, EXIT_OK


def _cmd_inv(args) -> tuple[dict, dict, int]:
    from .inverses import inverse_mod

    _check_indices(args.m, args.n)
    inv = inverse_mod(args.m, args.n)
    return {"m": args.m, "n": args.n}, _poly_payload(inv), EXIT_OK


def _cmd_eval(args) -> tuple[dict, dict, int]:
    _check_indices(args.n)
    # |Phi_n(q)| <= (|q| + 1)^phi(n) bounds the digits str() must print
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    digits = math.floor(euler_phi(args.n) * math.log10(abs(args.q) + 1)) + 1
    if limit and digits > limit:
        raise PreconditionError(f"value may need {digits} digits, over the str() limit {limit}")
    return (
        {"n": args.n, "q": args.q},
        {"value": str(cyclotomic(args.n).evaluate(args.q))},
        EXIT_OK,
    )


def _verify_theorem1(bound: int):
    from .inverses import verify_closed_forms

    for p, r in permutations(primes_upto(bound), 2):
        for report in verify_closed_forms(PrimePair(p, r)):
            line = report.to_json_dict()
            line["ok"] = report.bound_satisfied
            if not line["ok"]:  # passing lines keep their bytes
                line["failed_check"] = report.failed_check
            yield line


def _verify_resultants(bound: int):
    for m in range(2, bound + 1):
        phi_m = cyclotomic(m)
        for n in range(1, m):
            closed = resultant_apostol(m, n)
            generic = resultant(phi_m, cyclotomic(n))
            ok = closed == abs(generic) and (n == 1 or generic > 0)
            ok = ok and nontrivial_resultant(m, n) == (closed != 1)  # the ratio criterion
            yield {
                "m": m,
                "n": n,
                "closed": str(closed),
                "generic": str(generic),
                "ok": ok,
            }


def _verify_lamleung(bound: int):
    for p, r in combinations(primes_upto(bound), 2):
        built = lam_leung_phi_pr(p, r)
        ok = built == cyclotomic(p * r) and _height(built.coeffs) <= 1
        yield {"p": p, "r": r, "ok": ok}


def _verify_alternation(bound: int):
    from .inverses import difference_inverse

    for p, r in permutations(primes_upto(bound), 2):
        try:
            du = difference_inverse(p, r)
            ok = True
            coeffs = du.to_decimal_strings()
        except ValueError:
            ok, coeffs = False, []
        yield {"p": p, "r": r, "ok": ok, "coeffs": coeffs}


_VERIFY_MODES = {
    "theorem1": _verify_theorem1,
    "resultants": _verify_resultants,
    "lamleung": _verify_lamleung,
    "alternation": _verify_alternation,
}


def _cmd_verify(args) -> tuple[dict, dict, int]:
    if args.max < 2 or args.max > VERIFY_CEILING:
        raise UsageError(f"--max must lie in [2, {VERIFY_CEILING}]")
    checked = failed = 0
    for line in _VERIFY_MODES[args.mode](args.max):
        checked += 1
        if not line["ok"]:
            failed += 1
        print(json.dumps(line))
    result = {"mode": args.mode, "max": args.max, "checked": checked, "failed": failed}
    return (
        {"mode": args.mode, "max": args.max},
        result,
        EXIT_OK if failed == 0 else EXIT_CHECK_FAILED,
    )


def _torus_guard(q: int, p: int, r: int) -> None:
    if p * r > PR_CEILING:  # before Phi_pr is built and before p, r are tested for primality
        raise PreconditionError(f"p*r = {p * r} exceeds the ceiling {PR_CEILING}")
    if q < 2:
        return
    # bit-length pretest keeps the guard cheap for absurd inputs
    definitely_over = p * r * (q.bit_length() - 1) > 128
    if definitely_over or q ** (p * r) > FIELD_ORDER_CEILING:
        raise PreconditionError(
            f"field order q^(p*r) exceeds the ceiling 2^128 for q={q}, p={p}, r={r}"
        )


def _torus_params_payload(args) -> dict:
    from .torus import derive_exponent_polys, derive_params

    q, tail = args.q, {}
    if q == 0:  # symbolic mode: keep q as the indeterminate
        exps = derive_exponent_polys(args.p, args.r)
    else:
        params = derive_params(q, args.p, args.r)
        exps = params.exps
        tail = {
            "evaluations": {name: str(getattr(exps, name).evaluate(q)) for name in exps._fields},
            "norm_exponents": {str(k): str(v) for k, v in sorted(params.norm_exponents.items())},
        }
    polys = {name: _poly_payload(getattr(exps, name)) for name in exps._fields}
    return {"symbolic": q == 0, **polys, **tail}


def _roundtrip_trials(args, params, field, rng) -> tuple[int, dict]:
    from .finitefield import random_nonzero
    from .torus import decompose, recombine

    passes = 0

    def coeffs(e):
        return [str(c) for c in e.coeffs]

    for i in range(args.count):
        x = random_nonzero(field, rng)
        comps = decompose(x, params)
        back = recombine(comps, params)
        ok = back == x**field.n
        passes += ok
        if i < args.vectors:  # regression-pinnable test vectors, one JSON line each
            print(
                json.dumps(
                    {
                        "x": coeffs(x),
                        "components": {name: coeffs(getattr(comps, name)) for name in comps._fields},
                        "recombined": coeffs(back),
                        "ok": ok,
                    }
                )
            )
    return passes, {
        "field": {
            "q": str(args.q),
            "n": field.n,
            "modulus": field.modulus.to_decimal_strings(),
        },
    }


def _theta_trials(args, params, big, rng) -> tuple[int, dict]:
    from .finitefield import make_ext_field, random_nonzero
    from .torus import kernel_annihilator, theta, theta_dimensions, theta_reverse

    p, r = args.p, args.r
    field_p = make_ext_field(args.q, p)
    field_r = make_ext_field(args.q, r)
    kern = kernel_annihilator(params)
    passes = 0
    for _ in range(args.count):
        x = random_nonzero(big, rng) ** params.norm_exponents[big.n]
        xp = random_nonzero(field_p, rng)
        xr = random_nonzero(field_r, rng)
        x1, xpr = theta(x, xp, xr, params)
        back = theta_reverse(x1, xpr, params)
        if back == (x**kern.d_x, xp**kern.d_p, xr**kern.d_r):
            passes += 1
    ins, outs = theta_dimensions(p, r)
    return passes, {
        "dimensions": {
            "domain": list(ins),
            "codomain": list(outs),
            "balanced": sum(ins) == sum(outs),
        },
        "kernel": {"exponent": str(kern.exponent), "power": kern.power},
    }


_TORUS_ACTIONS = {  # trial driver (None for params); option read past --q --p --r: its default
    "params": (None, {}),
    "roundtrip": (_roundtrip_trials, {"count": 100, "seed": 0, "vectors": 0}),
    "theta-demo": (_theta_trials, {"count": 100, "seed": 0}),
}


def _cmd_torus(args) -> tuple[dict, dict, int]:
    if args.p < 2 or args.r < 2 or args.q < 0:
        raise UsageError("p and r must be >= 2 and q >= 0 (q = 0 gives symbolic params)")
    params_desc = {"action": args.action, "q": args.q, "p": args.p, "r": args.r}
    trials, options = _TORUS_ACTIONS[args.action]
    if trials is None:
        _torus_guard(args.q, args.p, args.r)
        return params_desc, _torus_params_payload(args), EXIT_OK
    if args.q == 0:
        raise UsageError("this action needs a prime q")
    sizes = [name for name in ("count", "vectors") if name in options]  # --seed may be negative
    if any(getattr(args, name) < 0 for name in sizes):
        raise UsageError(" and ".join(f"--{name}" for name in sizes) + " must be >= 0")
    if args.count > COUNT_CEILING:
        raise PreconditionError(f"--count {args.count} exceeds the ceiling {COUNT_CEILING}")
    _torus_guard(args.q, args.p, args.r)
    import random

    from .finitefield import make_ext_field
    from .torus import derive_params

    params_desc.update({"count": args.count, "seed": args.seed})
    params = derive_params(args.q, args.p, args.r)
    big = make_ext_field(args.q, params.pair.n)
    passes, tail = trials(args, params, big, random.Random(args.seed))
    payload = {"count": args.count, "passes": passes, "seed": args.seed, **tail}
    return params_desc, payload, EXIT_OK if passes == args.count else EXIT_CHECK_FAILED


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="cyclokit",
        description="exact cyclotomic-polynomial arithmetic, inverses, and torus maps",
    )
    sub = top.add_subparsers(dest="command", required=True)

    for name, handler, help_text, int_args in (
        ("phi", _cmd_phi, "coefficients of the n-th cyclotomic polynomial", "n"),
        ("res", _cmd_res, "resultant of two cyclotomic polynomials", "m n"),
        ("inv", _cmd_inv, "inverse of the m-th cyclotomic mod the n-th", "m n"),
        ("eval", _cmd_eval, "evaluate the n-th cyclotomic at an integer", "n q"),
    ):
        command = sub.add_parser(name, help=help_text)
        command.set_defaults(handler=handler, parser=command)
        for arg in int_args.split():
            command.add_argument(arg, type=int)

    p_verify = sub.add_parser("verify", help="verification sweeps (line-delimited JSON)")
    p_verify.set_defaults(handler=_cmd_verify, parser=p_verify)
    p_verify.add_argument("--mode", choices=sorted(_VERIFY_MODES), required=True)
    p_verify.add_argument("--max", type=int, default=13)

    # the usage shows the options after the action, for one given before it
    usage = "%(prog)s {" + ",".join(_TORUS_ACTIONS) + "} --q Q --p P --r R [action options]"
    p_torus = sub.add_parser("torus", help="subgroup decomposition demos", usage=usage)
    p_torus.set_defaults(handler=_cmd_torus)
    # each action's usage starts with prog, not with the usage above
    actions = p_torus.add_subparsers(dest="action", required=True, prog=p_torus.prog)
    for action, (trials, options) in _TORUS_ACTIONS.items():
        p_action = actions.add_parser(action)
        p_action.set_defaults(parser=p_action)
        q_help = "prime base" if trials else "prime base (0 = symbolic params)"
        for flag, help_text in (("--q", q_help), ("--p", None), ("--r", None)):
            p_action.add_argument(flag, type=int, required=True, help=help_text)
        for name, default in options.items():
            help_text = "emit the first N trials as JSON vector lines" if name == "vectors" else None
            p_action.add_argument(f"--{name}", type=int, default=default, help=help_text)
    return top


# the first row that matches gives the exit code, so a subclass comes before its base
_EXIT_CODES = (
    (UsageError, EXIT_USAGE),
    # the precondition base of intpoly: NotCoprimeError and TorusMembershipError derive from it
    ((PreconditionError, ZeroDivisionError), EXIT_PRECONDITION),
    (ArithmeticError, EXIT_CHECK_FAILED),  # a load-bearing invariant failed
    (ValueError, EXIT_USAGE),
)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args, extras = (top := _build_parser()).parse_known_args(argv)
    if extras:  # against the usage of the parser that read the first: top reads the words before the
        # command, the torus parser (in top's last action) those before its action, args.parser the rest
        upper = top._actions[-1].choices[args.command] if argv[0] == args.command else top
        leaf = argv[:2] == [args.command, getattr(args, "action", argv[1])]
        (args.parser if leaf else upper).error(f"unrecognized arguments: {' '.join(extras)}")
    started = time.perf_counter()
    try:
        params, result, code = args.handler(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for types, code in _EXIT_CODES if isinstance(exc, types))
    _emit(args.command, params, result, started)
    return code
