"""Decision differential of ``classify`` and the closure truths between two checkouts.

    python3 bench/decisions.py [--checkout DIR]

Runs one fresh interpreter on the package in ``DIR/src`` (default: the
checkout holding this script) and one on this checkout's, each over the same
cases, then prints what moved from DIR to this checkout. The cases are the
13 catalog members, each at the parameters of the closure sweep in
``tests/test_handles.py``, then ``reciprocal`` of each member, and
``product``, ``scale_add(1, ., .)``, ``scale_add(0, ., .)`` and ``compose``
of each ordered pair: 702 handles, each classified at tol 0.01 and 0.05 on
the default grid. A case records the ``classify`` label (or the type of the
exception it raised) and the handle's truth label, which for a closure is
the constructors' prediction from the members' truths.

Printed, in this order:

* label changes: a case whose ``classify`` tag (or exception) moved;
* order changes: a case with the same tag whose orders moved, with the
  largest difference;
* truth changes: a handle whose truth label moved, with its label from
  ``classify`` at each tol on this checkout;
* per checkout, the right / Undecided / wrong / no-truth counts of
  ``classify`` against the truth: right when the tags match and every finite
  order lies within 0.05 of the truth's (the closure sweep's tolerance),
  Undecided when ``classify`` is, no-truth when the truth is Undecided.

Deterministic and offline; a few seconds per checkout. Against
its own checkout it prints no changes. It is not part of the test suite.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# prints one JSON line per (handle, tol): name, tol, label dict or error, truth dict
RUNNER = """
import json, warnings
import tailorder as to
POINTS = {
    "log_perturbed_power": {"alpha": -2.0, "c": 0.5},
    "oset_geometric": {"alpha": 1.0, "beta": 0.0, "x_a": 2.0},
    "oset_tower": {"c": 1.0, "alpha": -1.0},
    "pareto_tail": {"alpha": 1.5},
    "power_tail": {"alpha": -2.0},
    "ramp_power": {"alpha": 1.0},
}
members = [to.make_named(n, POINTS.get(n)) for n in to.catalog_names()]
handles = members + [to.reciprocal(u) for u in members]
for op in (to.product, lambda u, v: to.scale_add(1.0, u, v),
           lambda u, v: to.scale_add(0.0, u, v), to.compose):
    handles += [op(u, v) for u in members for v in members]
for h in handles:
    truth = h.truth.label.to_dict() if h.truth is not None else {"tag": "Undecided"}
    for tol in (0.01, 0.05):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                label = to.classify(h, tol=tol).to_dict()
            except Exception as exc:
                label = {"tag": "error: " + type(exc).__name__}
        print(json.dumps({"name": h.name, "tol": tol, "label": label, "truth": truth}))
"""

_INF = float("inf")


def orders(label: dict) -> tuple[float, float] | None:
    """The (mu, nu) of a label dict; None for Undecided and errors."""
    tag = label["tag"]
    if tag == "M":
        return label["rho"], label["rho"]
    if tag == "Oscillating":
        return label["mu"], label["nu"]
    return {"MInf": (-_INF, -_INF), "MNegInf": (_INF, _INF)}.get(tag)


def show(label: dict) -> str:
    tag = label["tag"]
    if tag == "M":
        return f"M({label['rho']:g})"
    if tag == "Oscillating":
        return f"Oscillating({label['mu']:g}, {label['nu']:g})"
    return tag


def verdict(label: dict, truth: dict, tol: float = 0.05) -> str:
    if truth["tag"] == "Undecided":
        return "no-truth"
    if label["tag"] == "Undecided":
        return "undecided"
    got, want = orders(label), orders(truth)
    if label["tag"] != truth["tag"] or got is None:
        return "wrong"
    return "right" if all(a == b or abs(a - b) <= tol for a, b in zip(got, want)) else "wrong"


def collect(checkout: Path) -> dict:
    """{(name, tol): record} from one fresh interpreter on ``checkout/src``."""
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"))
    proc = subprocess.run([sys.executable, "-c", RUNNER], env=env, capture_output=True,
                          text=True, check=True)
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    return {(r["name"], r["tol"]): r for r in records}


def counts(records: dict) -> dict:
    out = dict.fromkeys(("right", "undecided", "wrong", "no-truth"), 0)
    for r in records.values():
        out[verdict(r["label"], r["truth"])] += 1
    return out


def differential(base: dict, change: dict) -> list[str]:
    lines = []
    if base.keys() != change.keys():
        lines.append(f"cases differ: {len(base.keys() - change.keys())} only in the base, "
                     f"{len(change.keys() - base.keys())} only in this checkout")
    keys = sorted(base.keys() & change.keys())
    tags = [k for k in keys if base[k]["label"]["tag"] != change[k]["label"]["tag"]]
    lines.append(f"label changes: {len(tags)}")
    lines += [f"  tol {k[1]:g} {k[0]}: {show(base[k]['label'])} -> {show(change[k]['label'])}"
              for k in tags]
    moved = [k for k in keys if k not in tags and base[k]["label"] != change[k]["label"]]
    lines.append(f"order changes: {len(moved)}")
    for k in moved:
        delta = max(abs(a - b) if a != b else 0.0  # an infinite edge that stays
                    for a, b in zip(orders(base[k]["label"]), orders(change[k]["label"])))
        lines.append(f"  tol {k[1]:g} {k[0]}: {show(base[k]['label'])} -> "
                     f"{show(change[k]['label'])} (by {delta:.3g})")
    truths = sorted({k[0] for k in keys if base[k]["truth"] != change[k]["truth"]})
    lines.append(f"truth changes: {len(truths)}")
    for name in truths:
        b, c = base[(name, 0.05)]["truth"], change[(name, 0.05)]["truth"]
        read = ", ".join(show(change[(name, tol)]["label"]) for tol in (0.01, 0.05))
        lines.append(f"  {name}: {show(b)} -> {show(c)} (classify at tol 0.01, 0.05: {read})")
    lines.append("against the truth: right undecided wrong no-truth")
    for side, records in (("  base", base), ("  this", change)):
        lines.append(f"{side} " + " ".join(str(v) for v in counts(records).values()))
    return lines


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    this = Path(__file__).resolve().parents[1]
    ap.add_argument("--checkout", type=Path, default=this,
                    help="base checkout whose src/ is compared (default: this one)")
    args = ap.parse_args()
    base, change = collect(args.checkout), collect(this)
    print(f"cases {len(change)}: {len(change) // 2} handles at tol 0.01 and 0.05")
    print("\n".join(differential(base, change)))


if __name__ == "__main__":
    main()
