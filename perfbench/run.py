"""Benchmark entry point: run one workload in this process, print one JSON line.

    python3 perfbench/run.py --workload paper_n500 --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace
1`` runs the same workload once untraced and once traced and prints the
per-layer metrics.  The last line of standard output is always the JSON
result; progress and failures go to standard error.  The exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOADS = ("paper_n500", "scale_ring", "churn_lossy", "net_loopback")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    sys.path[:0] = [str(src), str(HERE)]
    try:
        import repro
    except ImportError as exc:
        print(f"cannot import the program from {src}: {exc}", file=sys.stderr)
        return 2
    if src not in Path(repro.__file__).resolve().parents:
        print(f"the program was imported from {repro.__file__}, not {src}", file=sys.stderr)
        return 2

    if args.trace:
        import layers

        result = layers.run(args.workload, args.seed, args.seconds, OUT_DIR)
    elif args.workload == "net_loopback":
        import loopback

        result = loopback.run(args.seed, args.seconds)
    else:
        import simrun

        result = simrun.run(args.workload, args.seed, args.seconds)

    errors = list(result["errors"])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    printed = {name: unit for name, (_value, unit) in result["metrics"].items()}
    if printed != declared:
        errors.append(f"metrics differ from BENCHMARK.json: {sorted(set(printed) ^ set(declared))}")
    for name, (value, _unit) in list(result["metrics"].items()):
        if not math.isfinite(value):
            errors.append(f"{name} is not a finite number")
            result["metrics"][name] = (0.0, _unit)
    for err in errors[:50]:
        print(f"FAIL {args.workload}: {err}", file=sys.stderr)
    print(json.dumps(result.get("notes", {}), sort_keys=True), file=sys.stderr)
    doc = {
        "correct": not errors,
        "attempted": int(result["attempted"]),
        "failed": len(errors),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    }
    print(json.dumps(doc))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
