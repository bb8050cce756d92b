"""Paired benchmark runs of two checkouts; writes medians and quartiles.

    python3 bench/pairs.py --base ../parent --change . \
        --workload transforms=10 --workload classify=5 --seconds 20 --out BENCH_N.json

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout with the
same seed, one after the other, alternating which goes first so that a slow
drift of the machine's speed hits both sides alike. The output holds, per
workload and end-to-end metric, every run's value and the median and
quartiles of each side, plus the benchmark's environment stamp. Each run's
count of attempted ops is stored beside its metrics and printed next to its
``peak_rss_mb``: the benchmark keeps every op's output until the run ends,
so a run that completes more ops peaks higher on unchanged code. Each
end-to-end metric also gets the relative change of its median, signed so
that positive is worse, beside its bound from the change checkout's
``BENCHMARK.json``; a change beyond the bound is printed and stored as a
breach. Beside it go the pairs the change won: those whose change run is
better than the base run of the same seed (a tie counts for neither side),
so a claim of "better in 9 of 10 pairs" reads straight off the file. One
pair is enough to write the file; its median and quartiles are its value.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(stamp, result) printed by one benchmark run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    q1, q2, q3 = (statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1
                  else values * 3)
    return {"median": q2, "q1": q1, "q3": q3, "runs": values}


def bound_check(metrics: dict, declared: dict) -> dict:
    """Per end-to-end metric: median change for the worse, bound, breach, pairs won."""
    out = {}
    for name, spec in declared.items():
        base, change = metrics[name]["base"], metrics[name]["change"]
        sign = -1.0 if spec["better"] == "higher" else 1.0
        b, c = base["median"], change["median"]
        worse = sign * ((c - b) / abs(b) if b else float(c != b))
        # per pair, against the base run of the same seed; a tie is no win
        won = sum(sign * (c - b) < 0 for b, c in zip(base["runs"], change["runs"]))
        out[name] = {"worse_by": worse, "bound": spec["bound"], "breach": worse > spec["bound"],
                     "change_won": won}
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", action="append", required=True, metavar="NAME=PAIRS")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--first-seed", type=int, default=1001)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    declared = {m["name"]: m for m in
                json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]}
    doc = {"seconds": args.seconds, "workloads": {}}
    for spec in args.workload:
        workload, _, pairs = spec.partition("=")
        runs = {"base": [], "change": []}
        for i in range(int(pairs)):
            seed = args.first_seed + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                stamp, result = run_once(getattr(args, side), workload, seed, args.seconds)
                runs[side].append(result)
                doc.setdefault("stamp", {k: v for k, v in stamp["stamp"].items()
                                         if k not in ("seed", "source_sha256", "workload")})
                metrics = result["metrics"]
                print(f"{workload} seed {seed} {side}: {metrics['ops_per_s']['value']:.3g} "
                      f"ops/s, peak_rss_mb {metrics['peak_rss_mb']['value']:.2f} after "
                      f"{result['attempted']} ops", file=sys.stderr)
        names = runs["base"][0]["metrics"]
        entry = doc["workloads"][workload] = {
            "pairs": int(pairs),
            "seeds": [args.first_seed + i for i in range(int(pairs))],
            "correct": {side: [r["correct"] for r in rs] for side, rs in runs.items()},
            "attempted": {side: [r["attempted"] for r in rs] for side, rs in runs.items()},
            "metrics": {
                name: {"unit": names[name]["unit"],
                       **{side: summary([r["metrics"][name]["value"] for r in rs])
                          for side, rs in runs.items()}}
                for name in names
            },
        }
        entry["bounds"] = bound_check(entry["metrics"], declared)
        for name, b in entry["bounds"].items():
            how = "worse" if b["worse_by"] > 0 else "better"
            print(f"{workload} {name}: median {abs(b['worse_by']):.1%} {how}, bound "
                  f"{b['bound']:.0%}, change won {b['change_won']} of {pairs} pairs"
                  + (" BREACH" if b["breach"] else ""), file=sys.stderr)
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
