"""Collect sets of benchmark runs and compare two of them.

    # ten runs of every workload from one checkout
    python3 perfbench/compare.py collect --out perfbench/out/a.jsonl --seeds 1-10
    # parent and change interleaved, alternating which runs first
    python3 perfbench/compare.py collect --checkout ../parent --checkout . \\
        --out perfbench/out/parent.jsonl --out perfbench/out/change.jsonl --seeds 1-10
    # the comparison
    python3 perfbench/compare.py report perfbench/out/parent.jsonl perfbench/out/change.jsonl

``report`` prints, per workload and end-to-end metric, the median and
quartiles of each set and a verdict under the metric's bound from
BENCHMARK.json:

* ``unresolved`` — a set's spread (interquartile range over median)
  exceeds the bound, and not every run of the change beats every run of
  the parent;
* ``worse`` — the change's median is worse than the parent's by more
  than the bound;
* ``gain`` — the pair rule holds: pairing the i-th runs of the two sets,
  the change wins at least nine tenths of the pairs (ties count for
  neither), and the medians differ by more than the parent's
  interquartile range;
* ``same`` — none of these.

The spread of ``setup_s`` is not gated (its runs include process
start-up), only its median.  The share of failed operations of each set
is printed too; a gain does not count when the change fails more.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent


def _spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _seeds(text: str) -> List[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def collect(args) -> int:
    spec = _spec()
    checkouts = [Path(c).resolve() for c in (args.checkout or ["."])]
    outs = [Path(o).resolve() for o in args.out]
    if len(outs) != len(checkouts):
        sys.exit("give one --out per --checkout")
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    for out in outs:
        out.parent.mkdir(parents=True, exist_ok=True)
    for wl in workloads:
        for i, seed in enumerate(_seeds(args.seeds)):
            order = list(range(len(checkouts)))
            if i % 2:
                order.reverse()
            for j in order:
                cmd = spec["command"] + [
                    "--workload", wl, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", "0",
                ]
                proc = subprocess.run(cmd, cwd=checkouts[j], capture_output=True, text=True)
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
                with open(outs[j], "a") as fh:
                    fh.write(json.dumps({"workload": wl, "seed": seed,
                                         "exit": proc.returncode, "result": result}) + "\n")
                print(f"{wl} seed {seed} [{checkouts[j].name}] exit {proc.returncode}", flush=True)
    return 0


def _load(path: str) -> Dict[str, List[dict]]:
    runs: Dict[str, List[dict]] = {}
    for line in Path(path).read_text().splitlines():
        row = json.loads(line)
        runs.setdefault(row["workload"], []).append(row)
    for rows in runs.values():
        rows.sort(key=lambda r: r["seed"])
    return runs


def _stats(values: List[float]):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return med, q1, q3


def _verdict(metric: dict, parent: List[float], change: List[float], fails_more: bool) -> str:
    sign = 1.0 if metric["better"] == "higher" else -1.0
    bound = metric["bound"]
    pm, pq1, pq3 = _stats(parent)
    cm, cq1, cq3 = _stats(change)
    spread = lambda med, q1, q3: (q3 - q1) / abs(med) if med else float("inf")
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if metric["name"] != "setup_s" and not all_better and (
        spread(pm, pq1, pq3) > bound or spread(cm, cq1, cq3) > bound
    ):
        return "unresolved"
    if sign * (cm - pm) < -bound * abs(pm):
        return "worse"
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    pairs = min(len(parent), len(change))
    if pairs and wins >= 0.9 * pairs and sign * (cm - pm) > (pq3 - pq1) and not fails_more:
        return "gain"
    return "same"


def report(args) -> int:
    spec = _spec()
    parent, change = _load(args.parent), _load(args.change)
    worst = 0
    print(f"{'workload':14s} {'metric':16s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'bound':>6s}  verdict")
    for wl in [w["name"] for w in spec["workloads"]]:
        p_rows, c_rows = parent.get(wl, []), change.get(wl, [])
        ok_p = [r["result"] for r in p_rows if r["result"]]
        ok_c = [r["result"] for r in c_rows if r["result"]]
        if not ok_p or not ok_c:
            print(f"{wl:14s} missing runs ({len(ok_p)} parent, {len(ok_c)} change)")
            worst = 1
            continue
        share = lambda rs: sum(r["failed"] for r in rs) / max(1, sum(r["attempted"] for r in rs))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            pv = [r["metrics"][name]["value"] for r in ok_p]
            cv = [r["metrics"][name]["value"] for r in ok_c]
            verdict = _verdict(metric, pv, cv, share(ok_c) > share(ok_p))
            worst = max(worst, verdict in ("worse", "unresolved"))
            fmt = lambda v: "{:10.4g} [{:.4g}, {:.4g}]".format(*_stats(v))
            print(f"{wl:14s} {name:16s} {fmt(pv):>34s} {fmt(cv):>34s} "
                  f"{metric['bound']:6.2f}  {verdict}")
        print(f"{wl:14s} {'failed share':16s} {share(ok_p):>34.6g} {share(ok_c):>34.6g}")
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", help="run the benchmark over seeds")
    c.add_argument("--checkout", action="append", help="checkout root (repeat for a pair)")
    c.add_argument("--out", action="append", required=True, help="JSON-lines file per checkout")
    c.add_argument("--workload", action="append", help="default: every workload")
    c.add_argument("--seeds", default="1-10", help="range, e.g. 1-10")
    r = sub.add_parser("report", help="compare two collected sets")
    r.add_argument("parent")
    r.add_argument("change")
    args = parser.parse_args(argv)
    return collect(args) if args.cmd == "collect" else report(args)


if __name__ == "__main__":
    sys.exit(main())
