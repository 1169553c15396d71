"""The three seeded workloads of the cyclokit benchmark.

A run's plan is a fixed list of distinct ops and a number of passes over
it, each pass in a fresh seeded order. Both are fixed by the workload, the
seed and --seconds, so two runs with the same arguments do the same work
even when the program gets faster. The seed picks the order and the random
inputs; the program receives the generated inputs and nothing else.

Each op returns (ok, canonical, cal): ``ok`` is the exact output check
counted into ``failed``; ``canonical`` holds the output bytes, which must
repeat exactly on every pass and go into a digest compared with one
recorded at a known-good commit; ``cal`` is the calibration a child process
measured (see calib.py), or None when the op ran in this process.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import random
import re
import statistics
import subprocess
import sys
import time

import calib
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

CLI_TIMEOUT_S = 60.0


def _mod(name: str):
    # import_module, not attribute access: the package re-exports the
    # function ``cyclotomic`` under the name of its module.
    return importlib.import_module(f"cyclokit.{name}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def digest(canonicals) -> str:
    h = hashlib.sha256()
    for c in canonicals:
        h.update(c.encode())
        h.update(b"\n")
    return h.hexdigest()


# -- inverse_sweep ------------------------------------------------------------

SWEEP_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


class InverseSweep:
    """verify_closed_forms over all 110 ordered prime pairs p, r <= 31, in every pass."""

    name = "inverse_sweep"
    runs_in_children = False
    median_per_op = True

    def setup(self):
        cyc = _mod("cyclotomic")
        cyc.cyclotomic(1)
        for p in SWEEP_PRIMES:
            cyc.cyclotomic(p)
            for r in SWEEP_PRIMES:
                if p < r:
                    cyc.cyclotomic(p * r)
        return None

    seconds_per_pass = 7.0  # on the reference machine, calibration included

    def make_ops(self, rng):
        return [(p, r) for p in SWEEP_PRIMES for r in SWEEP_PRIMES if p != r]

    def run_op(self, state, op):
        p, r = op
        pair = _mod("cyclotomic").PrimePair.of(p, r)
        reports = _mod("inverses").verify_closed_forms(pair)
        ok = len(reports) == 7 and all(rep.bound_satisfied for rep in reports)
        return ok, json.dumps([rep.to_json_dict() for rep in reports], sort_keys=True), None


# -- torus_roundtrip ----------------------------------------------------------

# (q, p, r) and distinct ops of each; 3:1 puts the median among the
# degree-15 ops and the tail (the 11th slowest of 88) among the degree-35 ops.
TORUS_MIX = (((7, 3, 5), 66), ((3, 5, 7), 22))


class TorusRoundtrip:
    """Criterion 08: decompose, four memberships, recombine == x**pr."""

    name = "torus_roundtrip"
    runs_in_children = False
    median_per_op = True

    def setup(self):
        torus, ff = _mod("torus"), _mod("finitefield")
        state = {}
        for (q, p, r), _ in TORUS_MIX:
            state[(q, p, r)] = (torus.derive_params(q, p, r), ff.make_ext_field(q, p * r))
        return state

    seconds_per_pass = 4.0

    def make_ops(self, rng):
        ops = []
        for (q, p, r), k in TORUS_MIX:
            for _ in range(k):
                coeffs = (0,) * (p * r)
                while not any(coeffs):
                    coeffs = tuple(rng.randrange(q) for _ in range(p * r))
                ops.append(((q, p, r), coeffs))
        return ops

    def run_op(self, state, op):
        qpr, coeffs = op
        params, field = state[qpr]
        torus, ff = _mod("torus"), _mod("finitefield")
        _, p, r = qpr
        n = p * r
        x = field.element(coeffs)
        c = torus.decompose(x, params)
        ok = (
            ff.torus_membership(c.t1, 1)
            and ff.torus_membership(c.tp, p)
            and ff.torus_membership(c.tr, r)
            and ff.torus_membership(c.tpr, n)
        )
        back = torus.recombine(c, params)
        ok = ok and back == x**n
        canonical = json.dumps(
            [qpr, coeffs, [e.coeffs for e in (c.t1, c.tp, c.tr, c.tpr)], back.coeffs]
        )
        return ok, canonical, None


# -- cli_cold -------------------------------------------------------------------

# The 18 distinct ops, run in 3 passes, give 54 latency samples. Sorted,
# they fall into clusters: small ranks 1-12, mid 13-39 and large 40-54. The
# two `inv` commands at about 0.39 s, each listed twice, hold ranks 22-33,
# so the median (ranks 27 and 28) falls in the middle of 12 like samples.
# The three (23,2,3) commands at about 0.7 s hold ranks 40-48, so the tail
# (rank 44, the 11th slowest) falls in the middle of 9 like samples. There
# a median or tail is not the edge of one op's few samples.
CLI_SMALL = (
    ("torus", "theta-demo", "--q", "5", "--p", "2", "--r", "3", "--count", "2"),
    ("torus", "theta-demo", "--q", "3", "--p", "2", "--r", "5", "--count", "2"),
    ("torus", "theta-demo", "--q", "2", "--p", "3", "--r", "7", "--count", "1"),
    ("torus", "theta-demo", "--q", "3", "--p", "2", "--r", "7", "--count", "1"),
)
CLI_MID = (
    ("res", "319", "29"),
    ("torus", "theta-demo", "--q", "13", "--p", "2", "--r", "3", "--count", "2"),
    ("verify", "--mode", "resultants", "--max", "30"),
    ("inv", "23", "667"),
    ("inv", "899", "29"),
    ("inv", "23", "667"),
    ("inv", "899", "29"),
    ("phi", "3003"),
    ("inv", "29", "899"),
)
CLI_LARGE = (
    ("torus", "theta-demo", "--q", "23", "--p", "2", "--r", "3", "--count", "2"),
    ("torus", "theta-demo", "--q", "23", "--p", "2", "--r", "3", "--count", "2"),
    ("torus", "theta-demo", "--q", "23", "--p", "2", "--r", "3", "--count", "2"),
    ("torus", "theta-demo", "--q", "29", "--p", "2", "--r", "3", "--count", "2"),
    ("torus", "theta-demo", "--q", "7", "--p", "3", "--r", "5", "--count", "1"),
)


# the envelope's last key; only its value may differ between runs
ELAPSED = re.compile(r', "elapsed_ms": [0-9.eE+-]+\}$')


def _strip_elapsed(stdout: str) -> str:
    """stdout byte for byte, without the value of elapsed_ms."""
    return ELAPSED.sub(', "elapsed_ms": _}', stdout)


def check_cli_output(code: int, stdout: str) -> tuple[bool, str]:
    """Exit 0 and, where the envelope reports them, passes == count or failed == 0."""
    if code != 0 or not stdout.strip():
        return False, ""
    try:
        canonical = _strip_elapsed(stdout)
        result = json.loads(stdout.splitlines()[-1])["result"]
    except (ValueError, KeyError, IndexError):
        return False, ""
    ok = True
    if "passes" in result:
        ok = result["passes"] == result["count"]
    if "failed" in result:
        ok = ok and result["failed"] == 0
    return ok, canonical


class CliCold:
    """One `python -m cyclokit ...` command per op, each in a fresh interpreter."""

    name = "cli_cold"
    runs_in_children = True
    median_per_op = False

    def setup(self):
        _mod("cli")
        return None

    seconds_per_pass = 7.0

    def make_ops(self, rng):
        ops = []
        for cmd in CLI_SMALL + CLI_MID + CLI_LARGE:
            if cmd[0] == "torus":
                cmd = cmd + ("--seed", str(rng.randrange(10**6)))
            ops.append(cmd)
        return ops

    def spawn(self, op, traced: bool):
        """Run one command; returns (exit code, stdout, stderr).

        The child (child.py) times the calibration kernel, then runs
        `python -m cyclokit <op>` as cyclokit.cli.main(op), with the
        wrappers installed when ``traced``.
        """
        argv = [sys.executable, os.path.join(HERE, "child.py"), "cli" if traced else "run", *op]
        env = child_env()
        env[tracer.SPAWN_ENV] = repr(time.perf_counter())
        try:
            done = subprocess.run(
                argv, env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            return -1, "", "timeout"
        return done.returncode, done.stdout, done.stderr

    def run_op(self, state, op):
        code, out, err = self.spawn(op, traced=False)
        ok, canonical = check_cli_output(code, out)
        cal = calib.parse_mark(err)
        return ok and cal is not None, canonical, cal


WORKLOADS = {w.name: w for w in (InverseSweep(), TorusRoundtrip(), CliCold())}


def plan(workload, seed: int, seconds: float):
    """(ops, orders): the distinct ops and one seeded order of their indices per pass.

    The number of passes is sized to about `seconds` of work on the
    reference machine (see README.md).
    """
    rng = random.Random(seed)
    ops = workload.make_ops(rng)
    orders = []
    for _ in range(max(1, round(seconds / workload.seconds_per_pass))):
        order = list(range(len(ops)))
        rng.shuffle(order)
        orders.append(order)
    return ops, orders


def execute(ops, orders, run_op, after_pass=None, between=None, in_children=False):
    """Run every pass; returns (latency, wall, failures, canonicals).

    latency[i] and wall[i] hold op i's executions. wall is an execution's
    wall time; latency is the same at reference speed (calib.py), scaled by
    the calibration kernel's time next to it: the geometric mean of one run
    just before and one just after the op or, ``in_children``, the kernel
    time the op's child process measured. An execution fails when it
    raises, its check fails or its output differs from the op's first pass;
    ``failures`` names the op and the reason for each failed one.
    ``between(k)`` runs untimed after the k-th execution.
    """
    clock = time.perf_counter
    latency = [[] for _ in ops]
    walls = [[] for _ in ops]
    canon = [None] * len(ops)
    failures = []
    done = 0
    for order in orders:
        for i in order:
            before = None if in_children else calib.measure()[0]
            t0 = clock()
            try:
                ok, canonical, cal = run_op(ops[i])
                reason = "check failed"
            except Exception as exc:  # a failing op is counted, the run goes on
                ok, cal = False, None
                canonical = reason = f"raised {type(exc).__name__}: {exc}"
            wall = clock() - t0
            if cal is not None:
                kernel_s, spent = cal
                wall -= spent
            else:  # in process, or a child that failed before it could report
                after = calib.measure()[0]
                kernel_s = math.sqrt(before * after) if before else after
            walls[i].append(wall)
            latency[i].append(wall * calib.REF_S / kernel_s)
            if canon[i] is None:
                canon[i] = canonical
            elif ok and canonical != canon[i]:
                ok, reason = False, "output differs from its first pass"
            if not ok:
                failures.append(f"{ops[i]!r:.200}: {reason}")
            done += 1
            if between is not None:
                between(done)
        if after_pass is not None:
            after_pass()
    return latency, walls, failures, canon


def samples(workload, per_op_values):
    """The run's latency samples from per-op lists of executions.

    A warm workload's op runs in several passes; its sample is the median
    of its executions, which drops an execution that a burst of load on the
    machine slowed. cli_cold has 18 distinct ops, too few for a tail
    with ten samples beyond it, so each of its executions is a sample.
    """
    if workload.median_per_op:
        return [statistics.median(v) for v in per_op_values]
    return [x for v in per_op_values for x in v]
