"""Regenerate ``perfbench/digests.json``, the expected cell results.

Run from the root of a checkout, only when a change to the program is
meant to change simulation results::

    python3 perfbench/make_digests.py

It runs every cell of every workload (both sweeps and the
``ext-multiprocessor`` study) and records a digest of each result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from repro.experiments import parallel
    from repro.experiments.extensions import ext_multiprocessor
    from repro.experiments.parallel import execute_cells

    from perfbench import mpstudy, sweeps
    from perfbench.harness import DIGESTS_PATH, result_digest
    from perfbench.spans import Tracer

    doc: dict = {}
    for name, sweep in sweeps.SWEEPS.items():
        cells = sweep.cells(sweeps.SCALE)
        results = execute_cells(cells, jobs=2)
        doc[name] = {
            "cells": {sweeps.cell_id(cell): result_digest(results[cell.key]) for cell in cells}
        }
        print(f"{name}: {len(cells)} cells", file=sys.stderr)

    with parallel.execution(jobs=1):
        figure = ext_multiprocessor(mpstudy.SCALE)
    series = {name: [list(point) for point in figure.series[name]] for name in mpstudy.POLICIES}
    replica = mpstudy.MpWorkload(series)
    replica.setup(0, ROOT)
    results, replica_series, _ = replica._layers(Tracer(enabled=False))
    if replica_series != series:
        raise SystemExit(f"traced replica {replica_series} != study {series}")
    doc["mp-sweep"] = {
        "series": series,
        "cells": {key: result_digest(result) for key, result in sorted(results.items())},
    }
    DIGESTS_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS_PATH.relative_to(ROOT)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
