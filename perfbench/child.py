"""Fresh-interpreter entry points of the benchmark.

    child.py setup <workload>                  build the shared state, print "ready"
    child.py trace <workload> <seed> <seconds> traced set-up and plan, print a JSON report
    child.py run <cyclokit arguments...>       `python -m cyclokit`
    child.py cli <cyclokit arguments...>       `python -m cyclokit` with the wrappers installed

``setup``, ``run`` and ``cli`` time the calibration kernel (calib.py) before
they import the program and again when they are done. ``setup`` prints
"ready <seconds spent on the kernel>" as soon as the state is built, then
its calibration line. ``run`` and ``cli`` print the command's own stdout
unchanged and write the calibration, and for ``cli`` the trace, as marked
lines on stderr.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(1, SRC)


def run(argv) -> int:
    import calib

    start = calib.measure(calib.CHILD_RUNS)
    import cyclokit.cli

    try:
        return sys.modules["cyclokit.cli"].main(argv)
    finally:
        sys.stdout.flush()
        sys.stderr.write(calib.mark_line(start))


def cli(argv) -> int:
    import calib

    start = calib.measure(calib.CHILD_RUNS)
    t0 = time.perf_counter()
    import cyclokit.cli

    import_s = time.perf_counter() - t0
    import tracer

    spawned = float(os.environ[tracer.SPAWN_ENV])
    tr = tracer.Tracer()
    tr.install()
    code = 1
    try:
        code = sys.modules["cyclokit.cli"].main(argv)
    finally:
        sys.stdout.flush()
        report = {
            "cli.process_start_s": STARTED - spawned,
            "cli.import_s": import_s,
            **tr.counters(),
        }
        sys.stderr.write(tracer.MARK + json.dumps(report) + "\n")
        sys.stderr.write(calib.mark_line(start))
    return code


def setup(name: str) -> int:
    import calib

    start = calib.measure(calib.CHILD_RUNS)
    import workloads

    workloads.WORKLOADS[name].setup()
    print(f"ready {start[1]!r}", flush=True)
    sys.stdout.write(calib.mark_line(start))
    return 0


def trace(name: str, seed: int, seconds: float) -> int:
    import importlib

    importlib.import_module("cyclokit.cli")  # load every module before rebinding
    import tracer
    import workloads

    tr = tracer.Tracer()
    tr.install()
    workload = workloads.WORKLOADS[name]
    state = workload.setup()
    ops, orders = workloads.plan(workload, seed, seconds)
    before = tr.counters()
    per_pass, after_pass = tracer.pass_recorder(tr.counters)
    _, wall, failures, canon = workloads.execute(
        ops, orders, lambda op: workload.run_op(state, op), after_pass
    )
    after = tr.counters()
    report = {
        "ops": len(ops),
        "executions": sum(map(len, orders)),
        "failures": failures,
        "wall_s": workloads.samples(workload, wall),
        "digest": workloads.digest(canon),
        "per_pass": per_pass,
        "mul_calls_in_ops": after["finitefield.mul.calls"] - before["finitefield.mul.calls"],
        "counters": after,
    }
    print(json.dumps(report))
    return 0


def main(argv) -> int:
    mode = argv[0]
    if mode == "run":
        return run(argv[1:])
    if mode == "cli":
        return cli(argv[1:])
    if mode == "setup":
        return setup(argv[1])
    if mode == "trace":
        return trace(argv[1], int(argv[2]), float(argv[3]))
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
