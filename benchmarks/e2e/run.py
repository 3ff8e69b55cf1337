"""The repo's wall-clock benchmark: four workloads, two clocks, a per-layer trace.

    PYTHONPATH=src python benchmarks/e2e/run.py --all --seed 1
    python benchmarks/e2e/run.py --workload oltp_point --seed 3 --seconds 10 --trace 0

Every workload runs in its default configuration, each pass in a fresh
interpreter.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics`` (see
``BENCHMARK.json`` at the repository root); the exit code is non-zero on any
correctness or durability failure.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
# The program under test is built from the checkout this file sits in.
sys.path.insert(0, os.path.join(REPO, "src"))

from e2ebench import spec, trace  # noqa: E402

from e2ebench.spec import FULL, REFERENCE, SETUP, SMOKE, TRACED, UNTRACED  # noqa: E402

#: Set-ups per run whose median is ``setup_s`` (the end-to-end pass is one).
SETUP_SAMPLES = 3
#: One workload's passes together stay inside the driver's 180 s per run.
RUN_BUDGET_S = 170
#: A pass whose *process* died (signal, uncaught exception, no result line)
#: or outran the budget is started once more when at least this much of the
#: budget is left.  Only the process is retried: a pass that ran to its end
#: and counted wrong results or failed checks reports them and is final.
RETRY_NEEDS_S = 60


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--all", action="store_true", help="run every workload")
    which.add_argument("--workload", choices=spec.ALL)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="nominal length of the timed phase "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--scale", choices=(FULL, SMOKE), default=FULL)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="also replay stage by stage and emit the "
                             "per-layer metrics")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run the selection this many times (a run set "
                             "for compare.py)")
    parser.add_argument("--out", help="write the result document here")
    parser.add_argument("--trace-out",
                        help="write the span file here (one workload only)")
    parser.add_argument("--work-dir", default=os.path.join(HERE, ".work"),
                        help="scratch directory for logs and snapshots")
    # One pass in this process; used by this script to start its own workers.
    parser.add_argument("--pass", dest="run_pass", help=argparse.SUPPRESS)
    parser.add_argument("--expected", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
            args.seconds = float(json.load(handle)["run_seconds"])
    if args.trace_out and args.all:
        parser.error("--trace-out needs --workload")
    return args


# -- passes in fresh interpreters ------------------------------------------------------


class PassFailed(RuntimeError):
    pass


class Passes:
    """Starts the passes of one workload run, all inside one time budget."""

    def __init__(self, args: argparse.Namespace, workload: str) -> None:
        self.args = args
        self.workload = workload
        self.deadline = time.monotonic() + RUN_BUDGET_S
        #: Passes whose process died and was started again, with the reason.
        self.retried: List[str] = []

    def run(self, which: str, expected: Optional[str] = None) -> Dict[str, Any]:
        args = self.args
        command = [
            sys.executable, os.path.abspath(__file__), "--pass", which,
            "--workload", self.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--scale", args.scale,
            "--work-dir", args.work_dir,
        ]
        if expected is not None:
            command += ["--expected", expected]
        if which == TRACED and args.trace_out:
            command += ["--trace-out", args.trace_out]
        try:
            return _run_once(command, self.deadline - time.monotonic())
        except PassFailed as error:
            reason = f"{self.workload}: {which} pass {error}"
        left = self.deadline - time.monotonic()
        if left < RETRY_NEEDS_S:
            raise PassFailed(reason)
        print(f"{reason}; starting it once more", file=sys.stderr)
        self.retried.append(reason)
        try:
            return _run_once(command, left)
        except PassFailed as error:
            raise PassFailed(f"{reason}; again: {error}") from None


def _run_once(command: List[str], timeout: float) -> Dict[str, Any]:
    # Its own process group: a pass that hangs is stopped together with the
    # shard workers it started.  Its stderr (a traceback) goes to ours.
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        stdout, _ = process.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        _stop(process)
        raise PassFailed(f"did not end within the {timeout:.0f} s left of "
                         f"the run's {RUN_BUDGET_S} s") from None
    except BaseException:
        _stop(process)
        raise
    finally:
        _stop_group(process.pid)
    if process.returncode != 0:
        raise PassFailed(f"exited with code {process.returncode}")
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise PassFailed("exited with code 0 but printed no result") from None


def _stop_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _stop(process: subprocess.Popen) -> None:
    _stop_group(process.pid)
    process.kill()
    process.wait()


# -- one workload ------------------------------------------------------------------------


def run_workload(args: argparse.Namespace, workload: str) -> Dict[str, Any]:
    """All passes of one workload; returns the run record."""
    os.makedirs(args.work_dir, exist_ok=True)
    expected = None
    failed = 0
    errors: List[str] = []
    passes = Passes(args, workload)
    try:
        if workload == spec.HTAP_TPCH:
            expected = os.path.join(
                args.work_dir, f"expected-{os.getpid()}-{args.seed}.json"
            )
            reference = passes.run(REFERENCE, expected)
            failed += reference["failed"]
            errors += reference["errors"]
        setups = []
        if args.scale == FULL:
            setups = [passes.run(SETUP, expected)["setup"]["setup_s"]
                      for _ in range(SETUP_SAMPLES - 1)]
        untraced = passes.run(UNTRACED, expected)
        traced = passes.run(TRACED, expected) if args.trace else None
    finally:
        if expected is not None and os.path.exists(expected):
            os.remove(expected)

    setups.append(untraced["setup"]["setup_s"])
    attempted = untraced["attempted"]
    failed += untraced["failed"]
    errors += untraced["errors"]
    if traced is not None:
        attempted += traced["attempted"]
        failed += traced["failed"]
        errors += traced["errors"]
        if (traced["digest"], traced["sim_runtime_s"]) != \
                (untraced["digest"], untraced["sim_runtime_s"]):
            failed += 1
            errors.append("traced and untraced pass disagree on the result "
                          "digest or on sim_runtime_s")

    latency = untraced["latency"]
    samples = latency["samples"]
    values = {
        "setup_s": (statistics.median(setups), len(setups)),
        "ops_per_s": (samples / latency["wall_s"], samples),
        "p50_us": (latency["p50_us"], samples),
        "p99_us": (latency["p99_us"], samples),
        "sim_runtime_s": (untraced["sim_runtime_s"], samples),
        "peak_rss_mb": (untraced["peak_rss_mb"], 1),
        "failed_share": (failed / attempted, attempted),
    }
    for name, span_names in trace.LIFECYCLE_METRICS.items():
        values[name] = (
            sum(untraced["lifecycle"].get(span, 0.0) for span in span_names), 1
        )
    end_to_end = {
        metric.name: {"value": values[metric.name][0], "unit": metric.unit,
                      "samples": values[metric.name][1]}
        for metric in spec.END_TO_END if workload in metric.workloads
    }

    record: Dict[str, Any] = {
        "workload": workload, "seed": args.seed, "scale": args.scale,
        "seconds": args.seconds, "statements": untraced["statements"],
        "digest": untraced["digest"], "correct": failed == 0,
        "attempted": attempted, "failed": failed, "errors": errors,
        "passes_retried": passes.retried, "end_to_end": end_to_end,
    }
    if traced is not None:
        record["per_layer"] = per_layer(workload, untraced, traced)
    return record


def per_layer(workload: str, untraced: Dict[str, Any],
              traced: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    layers = dict(traced["layers"])
    for kind, summary in untraced["by_class"].items():
        layers[f"client.{kind}.p50_us"] = summary["p50_us"]
        layers[f"client.{kind}.p99_us"] = summary["p99_us"]
    wall = untraced["latency"]["wall_s"]
    layers["client.cpu_util"] = untraced["cpu_util"]
    # Whole timed loops, so the tracer's own work between spans counts.
    layers["client.trace_overhead_share"] = \
        traced["loop_wall_s"] / untraced["loop_wall_s"] - 1.0
    # What Session.execute spends outside the four stages it calls.
    layers["api.session.self_share"] = (wall - traced["stage_seconds"]) / wall
    return {
        metric.name: {"value": layers[metric.name], "unit": metric.unit}
        for metric in spec.PER_LAYER
        if workload in metric.workloads and metric.name in layers
    }


# -- reporting ---------------------------------------------------------------------------


def fingerprint() -> Dict[str, Any]:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    try:
        commit = subprocess.run(
            ["git", "-C", REPO, "rev-parse", "HEAD"], capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(), "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(), "numpy": numpy_version,
        "git_commit": commit,
    }


def print_record(record: Dict[str, Any]) -> None:
    statements = record["statements"]
    print(f"== {record['workload']}  seed={record['seed']} "
          f"scale={record['scale']} seconds={record['seconds']:g}  "
          f"statements: {statements['warmup']} warm-up + "
          f"{statements['timed']} timed {statements['by_class']}  "
          f"digest={record['digest']}")
    for name, entry in record["end_to_end"].items():
        print(f"  {name:<44} {entry['value']:>16.6g} {entry['unit']:<13} "
              f"n={entry['samples']}")
    for name, entry in record.get("per_layer", {}).items():
        print(f"  {name:<44} {entry['value']:>16.6g} {entry['unit']}")
    for error in record["errors"]:
        print(f"  FAILED: {error}")
        print(f"{record['workload']} seed {record['seed']} FAILED: {error}",
              file=sys.stderr)


def contract_line(record: Dict[str, Any], traced: bool) -> str:
    """The driver's result line: every listed metric, whatever the workload.

    A per-layer metric whose layer is not on this workload's path is reported
    as 0 here (and only here: the result document leaves it out).
    """
    if traced:
        measured = record["per_layer"]
        metrics = {
            metric.name: {
                "value": measured.get(metric.name, {"value": 0.0})["value"],
                "unit": metric.unit,
            }
            for metric in spec.PER_LAYER
        }
    else:
        metrics = {
            name: {"value": record["end_to_end"][name]["value"],
                   "unit": record["end_to_end"][name]["unit"]}
            for name in spec.CONTRACT_END_TO_END
        }
    return json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"], "metrics": metrics,
    })


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.run_pass:
        from e2ebench import worker
        return worker.main(args)

    workloads = spec.ALL if args.all else (args.workload,)
    document = {"fingerprint": fingerprint(), "scale": args.scale,
                "seconds": args.seconds, "runs": []}
    last = None
    try:
        for _ in range(args.repeat):
            for workload in workloads:
                last = run_workload(args, workload)
                document["runs"].append(last)
                print_record(last)
                sys.stdout.flush()
    except PassFailed as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")
    else:
        print("RESULT " + json.dumps(document))
    correct = all(run["correct"] for run in document["runs"])
    if len(document["runs"]) == 1:
        print(contract_line(last, bool(args.trace)))
    else:
        print(f"{len(document['runs'])} runs, "
              f"{'all correct' if correct else 'FAILED'}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
