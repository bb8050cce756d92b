"""Command-line front end.

Subcommands: ``classify`` (orders, class, moment index), ``report`` (full
condition suite for the detected class), ``simulate`` (block maxima), and
``plots`` (CSV emission for external plotting).

Exit codes: 0 decided, 1 usage error, 2 input/data error, 3 undecided
classification, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import sys
from pathlib import Path

import numpy as np

from . import evt as evt_mod
from . import karamata as kar
from . import tauberian as taub
from .errors import (
    ClassMismatch,
    DivergentTail,
    DomainError,
    FormatError,
    ParamError,
    PreconditionError,
    QuadratureFailure,
    TailOrderError,
    UndecidedConvergence,
)
from .handles import FunctionHandle, load_csv, make_named
from .labels import TAG_M, TAG_M_INF, TAG_M_NEG_INF
from .order import (
    GridSpec,
    check_second_characterization,
    classify,
    estimate_kappa,
    estimate_orders,
    probe_integral_convergence,
    rv_ratio_test,
)
from .report import TOOL_VERSION, ReportDocument, estimate_dict, grid_dict

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_UNDECIDED = 3
EXIT_NUMERIC = 4

_DATA_ERRORS = (FormatError, ParamError, DomainError)
_NUMERIC_ERRORS = (QuadratureFailure, UndecidedConvergence, DivergentTail,
                   PreconditionError, ClassMismatch)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise _UsageError(message)


def _parse_params(items) -> dict:
    out = {}
    for item in items or []:
        if "=" not in item:
            raise _UsageError(f"--param expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        try:
            out[key.strip()] = float(raw)
        except ValueError:
            raise _UsageError(f"--param {key}: non-numeric value {raw!r}") from None
    return out


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built on first use and kept for the process."""
    p = _Parser(prog="tailorder", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, data_ok=True):
        src = sp.add_mutually_exclusive_group(required=True)
        src.add_argument("--fn", help="catalog function name")
        if data_ok:
            src.add_argument("--data", help="CSV file (header x,value or x,logvalue)")
        sp.add_argument("--param", action="append", metavar="K=V",
                        help="function parameter (repeatable)")
        sp.add_argument("--xmin", type=float, default=None, help="log10 grid start")
        sp.add_argument("--xmax", type=float, default=None, help="log10 grid end")
        sp.add_argument("--points", type=int, default=None, help="grid points")
        sp.add_argument("--tol", type=float, default=0.05, help="classification tolerance")
        sp.add_argument("--out", help="write the JSON report to this path")

    sp = sub.add_parser("classify", help="class, orders and moment index")
    add_common(sp)

    sp = sub.add_parser("report", help="full condition suite for the class")
    add_common(sp)
    sp.add_argument("--r", action="append", type=float, metavar="R",
                    help="integral-ratio exponent (repeatable; default -1 0.5 1 3)")
    sp.add_argument("--b", type=float, default=2.0, help="integral base point")
    sp.add_argument("--tauberian", action="store_true",
                    help="run the transform order-preservation check")

    sp = sub.add_parser("simulate", help="block maxima simulation")
    add_common(sp, data_ok=False)
    sp.add_argument("--n", action="append", type=int, metavar="N",
                    help="block size (repeatable; default 10000)")
    sp.add_argument("--reps", type=int, default=1000, help="replications")
    sp.add_argument("--seed", type=int, default=None, help="RNG seed")
    sp.add_argument("--subsequences", action="store_true",
                    help="two-subsequence non-convergence witness")

    sp = sub.add_parser("plots", help="emit orders/kappa/ratio CSV data")
    add_common(sp)
    sp.add_argument("--plots", required=True, metavar="DIR",
                    help="output directory for CSV files")
    sp.add_argument("--r", action="append", type=float, metavar="R",
                    help="extra probe exponent for the kappa trace")
    sp.add_argument("--t", action="append", type=float, metavar="T",
                    help="ratio-test scale (default 2 5 10)")
    return p


def _load_handle(args) -> tuple[FunctionHandle, dict]:
    if getattr(args, "data", None):
        path = Path(args.data)
        handle = load_csv(path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        return handle, {"kind": "csv", "path": str(path), "sha256": digest}
    params = _parse_params(args.param)
    handle = make_named(args.fn, params)
    return handle, {"kind": "named", "name": args.fn, "params": params}


def _grid_for(args, handle: FunctionHandle) -> GridSpec:
    lo, hi, pts = args.xmin, args.xmax, args.points
    if handle.log_domain is not None:
        dlo, dhi = handle.log_domain
        lo = max(lo if lo is not None else dlo / math.log(10.0), dlo / math.log(10.0), 0.0)
        hi = min(hi if hi is not None else dhi / math.log(10.0), dhi / math.log(10.0))
        pts = pts or 2000
        if lo == 0.0 and args.xmin is None:
            # the table reaches down to x = 1, where the order ratio divides
            # by log x = 0: start one grid step above it
            lo = hi / max(pts - 1, 1)
        return GridSpec(log10_x_min=lo, log10_x_max=hi, points=pts, windows=8)
    return GridSpec(
        log10_x_min=lo if lo is not None else 1.0,
        log10_x_max=hi if hi is not None else 8.0,
        points=pts or 2000,
        windows=8,
    )


def _base_document(args, handle, descriptor, grid, tol, extra_provenance=None):
    """(document, label, kappa): kappa is None for tables."""
    mu, nu = orders = estimate_orders(handle, grid)
    label = classify(handle, grid, tol, orders=orders)
    kappa = None
    if handle.log_domain is None:  # moment probing integrates from x = 1
        kappa = estimate_kappa(handle, grid)
    estimates = {
        "mu": estimate_dict(mu),
        "nu": estimate_dict(nu),
        "kappa": estimate_dict(kappa),
        "rho": label.rho if label.is_m else None,
    }
    provenance = {
        "tool": TOOL_VERSION,
        "grid": grid_dict(grid),
        "tol": tol,
        "seed": getattr(args, "seed", None),
    }
    provenance.update(extra_provenance or {})
    doc = ReportDocument(
        input=descriptor,
        class_label=label.to_dict(),
        estimates=estimates,
        provenance=provenance,
    )
    return doc, label, kappa


def _emit(doc: ReportDocument, args) -> None:
    text = doc.to_json()
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        sys.stdout.write(text + "\n")


def _cmd_classify(args) -> int:
    handle, descriptor = _load_handle(args)
    grid = _grid_for(args, handle)
    doc, label, _ = _base_document(args, handle, descriptor, grid, args.tol)
    _emit(doc, args)
    return EXIT_OK if label.is_decided else EXIT_UNDECIDED


def _cmd_report(args) -> int:
    handle, descriptor = _load_handle(args)
    grid = _grid_for(args, handle)
    tol = args.tol
    doc, label, kappa = _base_document(args, handle, descriptor, grid, tol,
                                       extra_provenance={"b": args.b, "r": args.r})
    if not label.is_decided:
        _emit(doc, args)
        return EXIT_UNDECIDED
    # every check below gets the label, kappa and scaling-ratio test computed
    # here instead of recomputing them
    conditions = []
    rv = None
    if label.tag == TAG_M:
        if handle.log_domain is not None:
            lo, hi = np.exp(handle.log_domain)
            raise ParamError(
                "report cannot check a finite-order table: the representation integrates "
                "from b, and the ratio test and the moment index evaluate U beyond the "
                f"tabulated range x in [{lo:g}, {hi:g}]")
        rep = kar.extract_representation(handle, args.b, grid, tol, label=label)
        conditions.append(kar.verify_representation(handle, rep, grid, tol).to_dict())
        conditions.append(check_second_characterization(
            handle, grid, tol, label=label, kappa=kappa).to_dict())
        rv = rv_ratio_test(handle, grid=grid, tol=tol)
        conditions.append(rv.to_dict())
        for r in args.r or (-1.0, 0.5, 1.0, 3.0):
            conditions.append(kar.karamata_theorem_report(
                handle, r, args.b, grid, tol, label=label, rv=rv).to_dict())
    elif label.tag in (TAG_M_INF, TAG_M_NEG_INF):
        inf_rep = kar.extract_representation_inf(handle, args.b, grid, tol, label=label)
        conditions.append(inf_rep.report.to_dict())
    if args.tauberian:
        conditions.append(taub.tauberian_check(handle, grid=grid, tol=tol,
                                               label=label).to_dict())
    evt_section = None
    if handle.truth is not None and handle.truth.is_tail:
        D = evt_mod.distribution_for(handle)
        evt_section = {"domain_attraction": evt_mod.classify_domain_attraction(
            D, grid, tol, label=label, rv=rv).to_dict()}
    doc = ReportDocument(
        input=doc.input, class_label=doc.class_label, estimates=doc.estimates,
        conditions=conditions, evt=evt_section, provenance=doc.provenance,
    )
    _emit(doc, args)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    reps = args.reps
    if reps >= 1000 and args.seed is None:
        raise _UsageError("--seed is required for reps >= 1000")
    seed = args.seed if args.seed is not None else 0
    handle, descriptor = _load_handle(args)
    if handle.truth is None or not handle.truth.is_tail:
        raise ParamError(f"{args.fn} is not a survival function")
    grid = _grid_for(args, handle)
    doc, label, _ = _base_document(args, handle, descriptor, grid, args.tol)
    D = evt_mod.distribution_for(handle)
    n_values = args.n or [10000]
    alpha = None
    if label.is_m and label.rho is not None and label.rho < 0:
        alpha = -label.rho
    sim = evt_mod.block_maxima_simulate(D, n_values, reps, seed,
                                        candidate_alpha=alpha)
    evt_section = {"simulation": sim.to_dict()}
    if args.subsequences:
        evt_section["subsequences"] = evt_mod.subsequence_witness(
            D, reps=reps, seed=seed)
    doc = ReportDocument(
        input=doc.input, class_label=doc.class_label, estimates=doc.estimates,
        conditions=[], evt=evt_section, provenance=doc.provenance,
    )
    _emit(doc, args)
    return EXIT_OK


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def _cmd_plots(args) -> int:
    handle, _descriptor = _load_handle(args)
    grid = _grid_for(args, handle)
    out_dir = Path(args.plots)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        xs = grid.xs()
        rs = np.asarray(handle.log_at(xs), dtype=float) / np.log(xs)
        _write_csv(out_dir / "orders.csv", ["x", "log_u_over_log_x"],
                   zip(map(float, xs), map(float, rs)))
        r_values = sorted(set([-3.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0]
                              + list(args.r or [])))
        if handle.log_domain is None:
            rows = []
            for r in r_values:
                verdict = probe_integral_convergence(handle, r, grid)
                rows.append((float(r), verdict.tag, float(verdict.trace[-1][1])))
            _write_csv(out_dir / "kappa_trace.csv",
                       ["r", "verdict", "log_partial_integral"], rows)
        ts = args.t or [2.0, 5.0, 10.0]
        sub = xs[:: max(1, len(xs) // 200)]
        rows = []
        for t in ts:
            xs_t = sub
            if handle.log_domain is not None:  # only x with x * t inside the table
                lo, hi = handle.log_domain
                log_xt = np.log(sub * t)
                xs_t = sub[(log_xt >= lo) & (log_xt <= hi)]
            ratio = np.exp(np.asarray(handle.log_at(xs_t * t), dtype=float)
                           - np.asarray(handle.log_at(xs_t), dtype=float))
            rows.extend((float(t), float(x), float(v)) for x, v in zip(xs_t, ratio))
        _write_csv(out_dir / "ratio.csv", ["t", "x", "ratio"], rows)
    except OSError as exc:
        raise FormatError(f"cannot write plot data: {exc}") from None
    return EXIT_OK


_COMMANDS = {
    "classify": _cmd_classify,
    "report": _cmd_report,
    "simulate": _cmd_simulate,
    "plots": _cmd_plots,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except _DATA_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TailOrderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
