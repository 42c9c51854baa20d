"""One workload in one fresh interpreter.

``run.py`` starts this script once per run, so ``ru_maxrss`` belongs to
this workload alone, plus a few times with ``--setup-only`` to sample
set-up time.  It writes one JSON object as its last line of output.

Usage: python3 perfbench/worker.py --workload NAME --seed N --seconds S
       --trace 0|1 --t0 PERF_COUNTER_AT_SPAWN [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import workloads  # pins BLAS threads, then imports numpy, scipy and robustrates

T_IMPORTED = time.perf_counter()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tracing import Tracer  # noqa: E402


def git_sha() -> str | None:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = workloads.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "CHUNK_PATHS": sys.modules["robustrates.mc"].CHUNK_PATHS,
        "blas_threads": {v: os.environ.get(v) for v in workloads.BLAS_THREAD_VARS},
    }


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def closed_loop(
    wl, inputs, seconds: float, tracer: Tracer | None = None, with_reference: bool = False
) -> list[dict]:
    """Run operations back to back until ``seconds`` have passed.

    Each operation is one public call plus its check, timed together.  With
    ``with_reference`` the workload's reference kernel runs before the first
    operation and after each one, and each operation records the mean of
    the two kernel times around it as ``ref_s``.
    """
    ops = []
    ref_before = timed(wl.reference) if with_reference else None
    deadline = time.perf_counter() + seconds
    while not ops or time.perf_counter() < deadline:
        answer = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                answer = wl.run(inputs)
                problems = wl.check(inputs, answer)
            else:
                with tracer.operation():
                    answer = wl.run(inputs)
                    problems = wl.check(inputs, answer)
        except Exception as exc:  # a failing operation is counted, not fatal
            traceback.print_exc()
            problems = [f"{type(exc).__name__}: {exc}"]
        elapsed = time.perf_counter() - t0
        op = {"s": elapsed, "problems": problems}
        if with_reference:
            ref_after = timed(wl.reference)
            op["ref_s"] = 0.5 * (ref_before + ref_after)
            ref_before = ref_after
        if answer is not None:
            op["rows"] = wl.rows(answer)
            op["headline_error"] = wl.headline_error(answer)
        ops.append(op)
    return ops


def alternating_loop(wl, inputs, seconds: float, tracer: Tracer) -> tuple[list, list]:
    """Alternate untraced and traced operations until ``seconds`` have passed,
    so both halves see the same machine state and their difference is the
    tracing overhead."""
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        untraced += closed_loop(wl, inputs, 0.0)
        tracer.install()
        try:
            traced += closed_loop(wl, inputs, 0.0, tracer)
        finally:
            tracer.uninstall()
    return untraced, traced


def summarize(ops: list[dict], reference: list | None = None) -> dict:
    """Failures, the result digest and the answer-derived values of a loop.

    Every operation repeats the same inputs, so a result that differs from
    ``reference`` (by default the first answer) is a failure too: reruns
    must be bit-identical.
    """
    answered = [op for op in ops if "rows" in op]
    rows = reference if reference is not None else answered[0]["rows"] if answered else None
    for op in answered:
        if op["rows"] != rows:
            op["problems"].append("result differs from the run's first answer")
    failures = [p for op in ops for p in op["problems"]]
    return {
        "op_s": [op["s"] for op in ops],
        "ref_s": [op["ref_s"] for op in ops if "ref_s" in op],
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op["problems"]),
        "failures": failures[:20],
        "rows": rows,
        "digest": workloads.digest(rows) if rows is not None else None,
        "headline_error": answered[0]["headline_error"] if answered else None,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.build(args.seed)
    t_ready = time.perf_counter()
    out = {"setup_s": t_ready - args.t0, "import_s": T_IMPORTED - args.t0}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    out["env"] = environment()
    out["updates_per_op"] = inputs.updates
    if args.trace == 0:
        out.update(summarize(closed_loop(wl, inputs, args.seconds, with_reference=True)))
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        tracer = Tracer()
        untraced_ops, traced_ops = alternating_loop(wl, inputs, args.seconds, tracer)
        untraced = summarize(untraced_ops)
        nesting = tracer.nesting_problems()
        if nesting:
            traced_ops[0]["problems"] += nesting[:10]
        traced = summarize(traced_ops, reference=untraced["rows"])
        layers = tracer.medians()
        layers["trace.overhead_s"] = statistics.median(traced["op_s"]) - statistics.median(untraced["op_s"])
        layers["process.import_s"] = out["import_s"]
        out.update(traced)
        out["untraced_op_s"] = untraced["op_s"]
        out["attempted"] += untraced["attempted"]
        out["failed"] += untraced["failed"]
        out["failures"] += untraced["failures"]
        out["layers"] = layers
        out["absent"] = sorted(tracer.absent_metrics())
        out["spans"] = tracer.spans
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
