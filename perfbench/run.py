"""Sweep-pipeline benchmark: one workload per run, every metric by name.

Run from the root of a checkout::

    python3 perfbench/run.py --workload mm-sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` makes a separate traced run and prints the per-layer
ones.  Every cell result is checked against the digests committed in
``perfbench/digests.json``.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  A
result document with host provenance (and, when traced, every span) is
written to ``.perfbench_runs/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOADS = ("mm-sweep", "disk-sweep", "mp-sweep")
SETUP_PROBES = 3


def load_program() -> None:
    """Import the package under test from this checkout's ``src``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"no program to benchmark: {SRC / 'repro'} is missing")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"imported repro from {repro.__file__}, not from {SRC}")


def make_workload(name: str):
    """Import every layer the workload calls and build it."""
    from perfbench.harness import load_digests

    digests = load_digests()
    if name == "mp-sweep":
        from perfbench.mpstudy import MpWorkload

        return MpWorkload(digests["mp-sweep"]["series"]), digests[name]["cells"]
    from perfbench.sweeps import SweepWorkload

    return SweepWorkload(name), digests[name]["cells"]


def set_up(name: str, seed: int, scratch: Path):
    """Imports, cell-list construction and one uncounted warm-up cell.

    Returns the workload, its expected digests, and the set-up time in
    host seconds and in reference seconds (see ``harness.Clock``).
    """
    t0 = time.perf_counter()
    load_program()
    workload, expected = make_workload(name)
    workload.setup(seed, scratch)
    workload.warmup()
    host_s = time.perf_counter() - t0

    from perfbench.harness import CALIBRATION_REF_S, calibration_task

    calibration = statistics.median(calibration_task() for _ in range(3))
    return workload, expected, host_s, host_s * CALIBRATION_REF_S / calibration


def probe_setup(name: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, measured inside it."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def metric_specs(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {entry["name"]: entry["unit"] for entry in section}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    out_dir = ROOT / ".perfbench_runs"
    out_dir.mkdir(exist_ok=True)
    workload, expected, setup_host_s, setup_s = set_up(args.workload, args.seed, out_dir)
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    from repro.obs.prof import host_provenance

    from perfbench.harness import Checker

    units = metric_specs(bool(args.trace))
    checker = Checker(expected)
    tracer = None
    host_metrics = {}
    if args.trace:
        values, tracer = workload.traced(args.seconds, checker)
        for name in units:
            if name not in values and name.startswith(workload.layers_not_run):
                values[name] = 0.0  # this workload never calls that layer
    else:
        probes = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        values = workload.measure(args.seconds, checker)
        values["setup_s"] = statistics.median([setup_s, *probes])
        host_metrics = {**workload.host_metrics, "host_setup_s": setup_host_s}
    if set(values) != set(units):
        raise SystemExit(
            f"metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json"
        )

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    summary = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    host = host_provenance()
    document = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "host_seconds_metrics": host_metrics,
        "problems": checker.problems,
        **summary,
    }
    document["calibration"] = workload.calibration
    if tracer is not None:
        document["spans"] = [span.to_json() for span in tracer.spans]
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(document, indent=1) + "\n")

    for problem in checker.problems:
        print(f"FAILED {problem}")
    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:14.6g} {metric['unit']}")
    print(f"host {json.dumps(host, sort_keys=True)}")
    print(f"result document {path.relative_to(ROOT)}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
