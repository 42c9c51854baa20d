"""Benchmark of robustrates: four workloads, timed end to end and per module.

    python3 perfbench/run.py --workload gap --seed 1 --seconds 20 --trace 0

Runs one workload (``gap``, ``verify``, ``adaptive`` or ``gheat``; see
``workloads.py``) in a closed loop: one caller in one fresh interpreter,
BLAS pinned to one thread, each operation one public library call whose
answer is checked against a closed form or oracle.  The seed builds the
inputs.

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced operations and prints the
per-layer metrics, including the tracing overhead (traced minus untraced
median ``op_s``).  The last line of output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
full run record (environment, result digest, samples, spans) is written to
``perfbench/runs/<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RUNS = HERE / "runs"
#: fresh interpreters that only set up, besides the measuring one
SETUP_PROBES = 4
#: the whole run ends within this many seconds
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def spawn(worker_args: list[str], deadline: float) -> dict:
    """Run the worker in a fresh interpreter and parse its last output line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    t0 = time.perf_counter()
    cmd = [sys.executable, str(WORKER), *worker_args, "--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within {remaining:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed nothing")
    return json.loads(lines[-1])


def tail(samples: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, and its value."""
    k = len(samples) - 10
    if k < 1:
        return None
    return 100.0 * k / len(samples), sorted(samples)[k - 1]


def ref_ratios(res: dict) -> list[float]:
    """Each operation's wall time over the reference kernel time around it."""
    return [s / r for s, r in zip(res["op_s"], res["ref_s"], strict=True)]


def end_to_end(res: dict, setups: list[float]) -> dict[str, float]:
    """End-to-end metrics.

    ``op_ref`` is the median over operations of the operation's wall time
    divided by the workload's reference kernel time measured around it, and
    ``updates_per_ref`` the work done per reference time.  They carry the
    bounds in BENCHMARK.json: on a shared 2-vCPU host, wall times drifted
    by up to 2x within minutes, far past any bound, while these ratios
    held still.

    The wall-time figures ``op_s`` and ``updates_per_s`` are printed and
    recorded, as is ``se2_s``: the headline error squared times ``op_s``,
    not bounded because its se part alone varies from seed to seed by 9-22%
    (quartile spread over twelve seeds at 2048 paths).
    """
    if res["headline_error"] is None:
        raise BenchError("no operation returned an answer: " + "; ".join(res["failures"]))
    ratios = ref_ratios(res)
    op_s = statistics.median(res["op_s"])
    return {
        "op_ref": statistics.median(ratios),
        "updates_per_ref": res["updates_per_op"] * len(ratios) / sum(ratios),
        "op_s": op_s,
        "updates_per_s": res["updates_per_op"] * len(res["op_s"]) / sum(res["op_s"]),
        "ref_s": statistics.median(res["ref_s"]),
        "se2_s": res["headline_error"] ** 2 * op_s,
        "peak_rss_mb": res["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    probes = 0 if args.trace else SETUP_PROBES
    setups = [spawn(common + ["--setup-only"], deadline)["setup_s"] for _ in range(probes)]
    res = spawn(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
    setups.append(res["setup_s"])

    if args.trace:
        wanted, values = spec["per_layer"], res["layers"]
    else:
        wanted, values = spec["end_to_end"], end_to_end(res, setups)
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in wanted
        if m["name"] in values
    }
    missing = [m["name"] for m in wanted if m["name"] not in values and m["name"] not in res.get("absent", ())]
    if missing:
        raise BenchError(f"metrics not computed: {missing}")

    RUNS.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_samples_s": setups,
        "metrics": metrics,
        **{k: v for k, v in res.items() if k not in ("setup_s", "layers")},
    }
    (RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))

    n, failed = res["attempted"], res["failed"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {n} operations")
    print(f"failed_ratio {failed / n:.6g} 1 ({failed} of {n} failed)")
    for problem in res["failures"]:
        print(f"  failure: {problem}")
    if args.trace:
        samples = {"op_s (traced)": (res["op_s"], "s"), "op_s (untraced)": (res["untraced_op_s"], "s")}
    else:
        samples = {"op_s (wall time, not bounded)": (res["op_s"], "s"), "op_ref": (ref_ratios(res), "ref")}
    for label, (times, unit) in samples.items():
        t = tail(times)
        print(
            f"{label} median {statistics.median(times):.6g} {unit}"
            + (f", p{t[0]:.0f} {t[1]:.6g} {unit}" if t else "")
            + f", n={len(times)}"
        )
    if res["digest"] is not None:
        print(f"result digest {res['digest']}")
    print(f"environment {json.dumps(res['env'])}")
    for name in res.get("absent", ()):
        print(f"{name}: absent (boundary not found)")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"updates_per_s = {values['updates_per_s']:.6g} 1/s (wall time, not bounded)")
        print(f"ref_s = {values['ref_s']:.6g} s (median reference kernel time)")
        print(f"se2_s = {values['se2_s']:.6g} price2.s (not bounded: varies with the seed)")
    print(json.dumps({"correct": failed == 0, "attempted": n, "failed": failed, "metrics": metrics}))
    return 0


def _exit_on_sigterm(signum, frame):
    # SystemExit unwinds through subprocess.run, which kills and reaps the worker
    sys.exit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(1)
