"""What the layer benches share: one thread per BLAS pool, the
`--src/--quick/--label/--out` command line, the machine record and the
merge of an entry into a JSON file under its label.

Import this module before NumPy: the thread counts are read when NumPy
loads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path
from typing import Callable

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from speed import SpeedSampler  # noqa: E402


def main(doc: str, quick_help: str, measure: Callable[[bool, SpeedSampler], dict],
         argv=None) -> int:
    """Parse the command line, put --src first on the import path, and
    print the entry measure(quick, sampler) returns, with the machine
    record first, or merge it into --out under --label."""
    ap = argparse.ArgumentParser(description=doc.split("\n")[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="the package source to measure (default: this checkout's src/)")
    ap.add_argument("--quick", action="store_true", help=quick_help)
    ap.add_argument("--label", default="change")
    ap.add_argument("--out", type=Path, help="JSON file to merge the entry into")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    with SpeedSampler() as sampler:
        entry = {
            "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                        "numpy": np.__version__, "processor": platform.processor()},
            **measure(args.quick, sampler),
        }
    if args.out is None:
        print(json.dumps({args.label: entry}, indent=1))
        return 0
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data[args.label] = entry
    args.out.write_text(json.dumps(data, indent=1) + "\n")
    return 0
