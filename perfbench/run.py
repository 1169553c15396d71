"""cyclokit benchmark: three seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its src/.
Each workload runs a fixed plan (workloads.plan) of distinct ops and passes
over them, sized to about S seconds on the reference machine, one op at a
time in this process with no threads; cli_cold starts one interpreter per
op. Every execution is timed at reference speed: its wall time scaled by a
calibration kernel timed next to it (calib.py). A warm workload's latency
samples are its ops' medians over their passes; cli_cold's are its
executions (workloads.samples). ops_per_s is the number of samples over
their sum.

stdout: one detail line {"perfbench": {...}} with run metadata, the tail
percentile and sample count, fail_ratio, the output digest and the exact
operation counts; then, as the last line, one JSON object with the
keys correct, attempted, failed and metrics. With --trace 0 the metrics are
the end_to_end metrics of BENCHMARK.json, with --trace 1 its per_layer
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import calib
import tracer
import workloads

HERE = workloads.HERE
ROOT = workloads.ROOT
SRC = workloads.SRC

DEFAULT_SEED = 1
HELD_OUT_SEED = 97
SETUP_PROBES = 9
CHILD_TIMEOUT_S = 170.0


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program() -> None:
    """Import cyclokit from this checkout's src/, and from nowhere else."""
    package = os.path.join(SRC, "cyclokit")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        fail(f"no cyclokit sources under {SRC}; run from the root of a checkout")
    sys.path.insert(1, SRC)
    import cyclokit

    if os.path.realpath(os.path.dirname(cyclokit.__file__)) != os.path.realpath(package):
        fail(f"imported cyclokit from {cyclokit.__file__}, not from {package}")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


# -- measuring ---------------------------------------------------------------------


def probe_setup(name: str) -> tuple[float, float]:
    """(at reference speed, wall): seconds from starting a fresh interpreter
    until the workload's state is built, without the calibration kernel."""
    argv = [sys.executable, os.path.join(HERE, "child.py"), "setup", name]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=workloads.child_env())
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        rest = proc.stdout.read()
        proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    words = line.split()
    cal = calib.parse_mark(rest)
    if words[:1] != ["ready"] or len(words) != 2 or cal is None or proc.returncode != 0:
        fail(f"set-up of {name} failed in a fresh interpreter")
    wall = ready - t0 - float(words[1])
    return wall * calib.REF_S / cal[0], wall


def tail(latencies):
    """Latency at the highest percentile with at least ten ops beyond it."""
    ordered = sorted(latencies)
    k = max(0, len(ordered) - 11)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def trace_warm(name: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, os.path.join(HERE, "child.py"), "trace", name, str(seed), str(seconds)]
    done = subprocess.run(
        argv, capture_output=True, text=True, env=workloads.child_env(), timeout=CHILD_TIMEOUT_S
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        fail(f"traced run of {name} exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def trace_cli(workload, ops, orders) -> dict:
    counters: dict = {"cli.stdout_bytes": 0}

    def run_op(op):
        code, out, err = workload.spawn(op, traced=True)
        marked = [ln for ln in err.splitlines() if ln.startswith(tracer.MARK)]
        if marked:
            tracer.add_counters(counters, json.loads(marked[-1][len(tracer.MARK):]))
        counters["cli.stdout_bytes"] += len(out.encode())
        ok, canonical = workloads.check_cli_output(code, out)
        cal = calib.parse_mark(err)
        return ok and bool(marked) and cal is not None, canonical, cal

    per_pass, after_pass = tracer.pass_recorder(lambda: counters)
    _, wall, failures, canon = workloads.execute(
        ops, orders, run_op, after_pass, in_children=True
    )
    return {
        "ops": len(ops),
        "executions": sum(map(len, orders)),
        "failures": failures,
        "wall_s": workloads.samples(workload, wall),
        "digest": workloads.digest(canon),
        "per_pass": per_pass,
        "mul_calls_in_ops": counters.get("finitefield.mul.calls", 0),
        "counters": counters,
    }


def layer_metrics(traced: dict, untraced_wall_s) -> dict:
    c = traced["counters"]
    out = {}
    for name in list(tracer.FUNCTIONS) + list(tracer.METHODS):
        for stat in ("calls", "self_s"):
            out[f"{name}.{stat}"] = c.get(f"{name}.{stat}", 0)
    for key in tracer.EXTRAS:
        out[key] = c.get(key, 0)
    for key in ("cli.process_start_s", "cli.import_s", "cli.stdout_bytes"):
        out[key] = c.get(key, 0)
    out["finitefield.mul.per_op"] = traced["mul_calls_in_ops"] / traced["executions"]
    # in wall time: the traced half of a warm workload runs in another
    # interpreter, where the calibration kernel runs at another speed
    untraced_ops_per_s = len(untraced_wall_s) / sum(untraced_wall_s)
    traced_ops_per_s = len(traced["wall_s"]) / sum(traced["wall_s"])
    out["trace.untraced_ops_per_s"] = untraced_ops_per_s
    out["trace.traced_ops_per_s"] = traced_ops_per_s
    out["trace.overhead_ratio"] = traced_ops_per_s / untraced_ops_per_s
    return out


# -- metadata ----------------------------------------------------------------------


def git_revision() -> str | None:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def source_lines() -> dict:
    package = os.path.join(SRC, "cyclokit")
    out = {}
    for fname in sorted(os.listdir(package)):
        if fname.endswith(".py"):
            with open(os.path.join(package, fname)) as fh:
                out[fname] = sum(1 for line in fh if line.strip())
    return out


def metadata(args, ops: int, passes: int) -> dict:
    return {
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "git_revision": git_revision(),
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "ops": ops,
        "passes": passes,
        "source_lines": source_lines(),
    }


# -- main --------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    load_program()
    spec = load_spec()
    workload = workloads.WORKLOADS[args.workload]

    state = workload.setup()
    ops, orders = workloads.plan(workload, args.seed, args.seconds)
    # recorded per seed and number of distinct ops; "*" when the outputs
    # do not depend on the seed
    references = load_reference().get(args.workload, {})
    reference = references.get(f"{args.seed}:{len(ops)}", references.get("*"))
    attempted = sum(map(len, orders))
    # set-up probes are spread over the run, so that they see the same
    # machine as the ops do
    setup_samples = []  # (at reference speed, wall)
    step = 0 if args.trace else max(1, attempted // SETUP_PROBES)

    def probe(done):
        if step and done % step == 0 and len(setup_samples) < SETUP_PROBES:
            setup_samples.append(probe_setup(workload.name))

    latency, wall, failures, canon = workloads.execute(
        ops,
        orders,
        lambda op: workload.run_op(state, op),
        between=probe,
        in_children=workload.runs_in_children,
    )
    latency = workloads.samples(workload, latency)
    wall = workloads.samples(workload, wall)
    dig = workloads.digest(canon)
    digests = [dig]
    detail = metadata(args, len(ops), len(orders))

    if args.trace:
        if workload.runs_in_children:
            traced = trace_cli(workload, ops, orders)
        else:
            traced = trace_warm(workload.name, args.seed, args.seconds)
        attempted += traced["executions"]
        failures += traced["failures"]
        digests.append(traced["digest"])
        values = layer_metrics(traced, wall)
        by_ops: dict = {}  # passes over the same ops must make the same counts
        for order, counts in zip(orders, traced["per_pass"]):
            by_ops.setdefault(frozenset(order), []).append(counts)
        detail["exact_counts"] = tracer.exact_counts(traced["counters"])
        detail["exact_counts_repeat_per_pass"] = all(
            c == same[0] for same in by_ops.values() for c in same
        )
        detail["per_layer"] = values
        wanted = spec["per_layer"]
    else:
        who = resource.RUSAGE_CHILDREN if workload.runs_in_children else resource.RUSAGE_SELF
        tail_s, tail_pct = tail(latency)
        values = {
            "ops_per_s": len(latency) / sum(latency),
            "op_p50_ms": statistics.median(latency) * 1e3,
            "op_tail_ms": tail_s * 1e3,
            "setup_s": statistics.median(s for s, _ in setup_samples),
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        }
        # the same metrics in unscaled wall time, for reading next to them
        unscaled = {
            "ops_per_s": len(wall) / sum(wall),
            "op_p50_ms": statistics.median(wall) * 1e3,
            "op_tail_ms": tail(wall)[0] * 1e3,
            "setup_s": statistics.median(w for _, w in setup_samples),
        }
        detail.update(
            tail_percentile=tail_pct,
            tail_samples=len(latency),
            wall_time=unscaled,
            setup_samples=setup_samples,
        )
        wanted = spec["end_to_end"]

    # the traced run must reproduce the untraced outputs; both must match
    # the recorded reference where there is one for this seed
    digest_ok = all(d == (reference or dig) for d in digests)
    failed = len(failures)
    detail.update(
        fail_ratio={"value": failed / attempted, "unit": "1"},
        failures=failures[:5],
        digest=dig,
        reference_digest=reference,
        digest_ok=digest_ok,
    )
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail(f"no value for {missing}")
    print(json.dumps({"perfbench": detail}))
    result = {
        "correct": failed == 0 and digest_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
