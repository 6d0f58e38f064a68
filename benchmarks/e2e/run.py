"""The repository benchmark: four workloads, each in a fresh process.

    PYTHONPATH=src python benchmarks/e2e/run.py --seed 0
    python3 benchmarks/e2e/run.py --workload protected_kernel --seed 3 \\
        --seconds 15 --trace 0

Every metric prints as ``<workload> <metric> <value> <unit>`` and the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Without ``--trace`` the
metrics are the end-to-end ones of ``BENCHMARK.json``; with it, the
per-layer ones.  The exit status is 0 when every check passed, 1 when a
check failed (the result is still printed) and 2 when the benchmark
could not run at all (no result is printed).

This process only orchestrates.  ``setup_s`` is the median of five
fresh-process set-ups, each timed from spawning the process to the
moment it is ready to start the timed phase; the fifth is the process
that then runs the timed phase.  A traced run alternates untraced and
traced processes of the workload's traced shape, three of each, and
reports the median of each per-layer metric over the traced ones.  The
untraced ones give ``trace.overhead_pct`` and ``trace.residual_pct``:
how far the traced phase, less the calibrated wrapper cost, lands from
the untraced phase.  Beyond 10% the layer shares are flagged
provisional.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SOURCE = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
EXPECTED_PATH = HERE / "expected.json"

WORKLOAD_NAMES = (
    "protected_kernel",
    "unprotected_compute",
    "figure5_suite",
    "fleet_mix",
)
#: Fresh-process set-ups timed on top of the one that runs the workload.
SETUP_SAMPLES = 4
#: Untraced/traced process pairs in a traced run.
TRACE_PAIRS = 3
#: Largest ``trace.residual_pct`` (either sign) at which the per-layer
#: self times are taken to add up.
RESIDUAL_LIMIT_PCT = 10.0
#: Hang guard per child process.
CHILD_TIMEOUT_S = 170.0

READY = "E2E-READY"
RESULT = "E2E-RESULT "


class BenchError(Exception):
    """The benchmark itself could not run (not a failed check)."""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", "--workloads", dest="workloads", nargs="+",
        choices=WORKLOAD_NAMES, default=list(WORKLOAD_NAMES),
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="timed-phase length (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="per-layer run (a bare --trace means 1)",
    )
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: proves the plumbing only")
    parser.add_argument("--json", dest="json_path",
                        help="also write the full report here")
    parser.add_argument("--chrome-trace", dest="chrome_dir",
                        help="traced runs write <dir>/<workload>.trace.json")
    parser.add_argument("--record", action="store_true",
                        help="store this run's fingerprints as expected")
    # Internal: the per-workload child processes.
    parser.add_argument("--child", choices=("setup", "run"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--traced-shape", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- child process -----------------------------------------------------------------


def child_main(args) -> int:
    tracer = None
    if args.trace:
        from layers import LayerTracer

        # Before the workload builds a Machine: compiled code binds
        # what it sees.
        tracer = LayerTracer()
        tracer.install()
    from workloads import WORKLOADS

    (name,) = args.workloads
    profile = "smoke" if args.smoke else "full"
    workload = WORKLOADS[name](args.seed, profile, args.traced_shape)
    try:
        workload.setup()
        print(READY, flush=True)
        if args.child == "setup":
            return 0
        if tracer is not None:
            tracer.start(workload.boot_caches())
        started = time.perf_counter()
        outcome = workload.run(args.seconds, tracer)
        phase_s = time.perf_counter() - started
        if tracer is not None:
            tracer.stop()
        workload.check(outcome)
    finally:
        workload.close()
    layers = dict(outcome.layers)
    if tracer is not None:
        layers.update(tracer.metrics())
        if args.chrome_dir:
            path = Path(args.chrome_dir) / f"{name}.trace.json"
            path.write_text(json.dumps(tracer.chrome_trace()) + "\n")
    guest = outcome.guest
    for key, value in guest.items():
        layers[f"guest.{key}"] = value
    if guest.get("instret"):
        layers["guest.cpi"] = guest["cycles"] / guest["instret"]
    payload = {
        "metrics": outcome.metrics,
        "layers": layers,
        "guest": guest,
        "shape": workload.shape,
        "fingerprint": outcome.fingerprint,
        "info": outcome.info,
        "phase_s": phase_s,
        "corrected_s": tracer.corrected_s() if tracer is not None else None,
        "attempted": outcome.attempted,
        "failures": outcome.failures,
    }
    print(RESULT + json.dumps(payload), flush=True)
    return 0


# -- orchestration -----------------------------------------------------------------


def spawn(args, name: str, child: str, trace: int = 0,
          traced_shape: bool = False) -> tuple[float, dict | None]:
    """Run one child; return (seconds until ready, result payload)."""
    argv = [
        sys.executable, str(HERE / "run.py"), "--child", child,
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if args.smoke:
        argv.append("--smoke")
    if traced_shape:
        argv.append("--traced-shape")
    if trace and args.chrome_dir:
        argv += ["--chrome-trace", args.chrome_dir]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SOURCE), env.get("PYTHONPATH")])
    )
    started = time.perf_counter()
    process = subprocess.Popen(
        argv, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT
    )
    watchdog = threading.Timer(CHILD_TIMEOUT_S, process.kill)
    watchdog.start()
    ready = None
    result = None
    try:
        for line in process.stdout:
            if line.startswith(READY) and ready is None:
                ready = time.perf_counter() - started
            elif line.startswith(RESULT):
                result = json.loads(line[len(RESULT):])
        code = process.wait()
    finally:
        watchdog.cancel()
        process.stdout.close()
        if process.poll() is None:
            process.kill()
            process.wait()
    if code != 0 or ready is None or (child == "run" and result is None):
        raise BenchError(f"{name}: {child} process failed (exit {code})")
    return ready, result


def load_expected() -> dict:
    try:
        with open(EXPECTED_PATH) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def measure(args, name: str, spec: dict, expected: dict) -> dict:
    """Run one workload; return its report entry."""
    failures = []
    attempted = 0

    def check(ok: bool, message: str) -> None:
        nonlocal attempted
        attempted += 1
        if not ok:
            failures.append(message)

    info = {}
    if args.trace:
        # Alternate untraced and traced processes, so host drift between
        # the two sides of a pair stays small.
        pairs = [
            (spawn(args, name, "run", traced_shape=True)[1],
             spawn(args, name, "run", trace=1, traced_shape=True)[1])
            for _ in range(TRACE_PAIRS)
        ]
        for reference, traced in pairs:
            check(traced["layers"].get("machine.compile.calls", 0) > 0,
                  "traced run compiled no blocks: tiers stood down")
            untraced_blocks = reference["info"].get("compiled_blocks")
            traced_blocks = traced["info"].get("compiled_blocks")
            check(untraced_blocks == traced_blocks,
                  f"traced run compiled {traced_blocks} blocks, "
                  f"untraced {untraced_blocks}")
        runs = [run for pair in pairs for run in pair]
        result = runs[-1]

        def median_pct(key):
            return statistics.median(
                100.0 * (traced[key] / reference["phase_s"] - 1.0)
                for reference, traced in pairs
            )

        values = {
            entry["name"]: statistics.median(
                traced["layers"].get(entry["name"], 0) for _, traced in pairs
            )
            for entry in spec["per_layer"]
        }
        values["trace.overhead_pct"] = median_pct("phase_s")
        values["trace.residual_pct"] = median_pct("corrected_s")
        if abs(values["trace.residual_pct"]) > RESIDUAL_LIMIT_PCT:
            info["layer_shares"] = (
                "provisional: self times less wrapper cost miss the "
                f"untraced phase by {values['trace.residual_pct']:+.1f}%"
            )
        units = {entry["name"]: entry["unit"] for entry in spec["per_layer"]}
    else:
        setups = [
            spawn(args, name, "setup")[0] for _ in range(SETUP_SAMPLES)
        ]
        ready, result = spawn(args, name, "run")
        setups.append(ready)
        values = {"setup_s": statistics.median(setups), **result["metrics"]}
        units = {entry["name"]: entry["unit"] for entry in spec["end_to_end"]}
        missing = sorted(set(units) - set(values))
        check(not missing, f"metrics missing: {missing}")
        values = {key: values.get(key, 0) for key in units}
        runs = [result]
    recorded = expected.get(name, {}).get(result["shape"], {})
    recorded = recorded.get(str(args.seed))
    for run in runs:
        failures += run["failures"]
        attempted += run["attempted"]
        if recorded is not None:
            check(run["fingerprint"] == recorded,
                  "fingerprint differs from expected.json")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "metrics": values,
        "units": units,
        "guest": result["guest"],
        "shape": result["shape"],
        "fingerprint": result["fingerprint"],
        "info": {**result["info"], **info},
    }


def record_expected(report: dict, seed: int) -> None:
    expected = load_expected()
    for name, entry in report.items():
        shapes = expected.setdefault(name, {})
        shapes.setdefault(entry["shape"], {})[str(seed)] = entry["fingerprint"]
    with open(EXPECTED_PATH, "w") as handle:
        json.dump(expected, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if not (SOURCE / "repro").is_dir() or not SPEC_PATH.is_file():
        print(f"e2e: no {SOURCE / 'repro'} or {SPEC_PATH} to benchmark",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.chrome_dir:
        Path(args.chrome_dir).mkdir(parents=True, exist_ok=True)
    expected = {} if args.record else load_expected()
    report = {}
    try:
        for name in args.workloads:
            entry = measure(args, name, spec, expected)
            report[name] = entry
            for metric, value in entry["metrics"].items():
                print(f"{name} {metric} {value!r} {entry['units'][metric]}",
                      flush=True)
            for key, value in entry["info"].items():
                print(f"# {name} {key} {value!r}", flush=True)
            for failure in entry["failures"]:
                print(f"# {name} FAILED {failure}", flush=True)
    except BenchError as error:
        print(f"e2e: {error}", file=sys.stderr)
        return 2
    profile = "smoke" if args.smoke else "full"
    if args.record:
        record_expected(report, args.seed)
    if args.json_path:
        with open(args.json_path, "w") as handle:
            json.dump({
                "seed": args.seed,
                "profile": profile,
                "seconds": args.seconds,
                "trace": args.trace,
                "workloads": report,
            }, handle, indent=2, sort_keys=True)
            handle.write("\n")
    single = len(report) == 1
    metrics = {
        (metric if single else f"{name}/{metric}"): {
            "value": value, "unit": entry["units"][metric],
        }
        for name, entry in report.items()
        for metric, value in entry["metrics"].items()
    }
    correct = all(entry["correct"] for entry in report.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(e["attempted"] for e in report.values()),
        "failed": sum(e["failed"] for e in report.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
