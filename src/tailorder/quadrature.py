"""Log-space quadrature primitives.

Integrals of positive integrands are carried as logarithms throughout, so
integrands ranging over thousands of orders of magnitude never overflow.

The workhorse is the exponential cell rule on a grid in u = log x:
within a cell the log-integrand is treated as linear, giving the exact cell
mass du * exp(g0) * phi(g1 - g0) with phi(d) = (exp(d) - 1)/d. The rule is
exact for power-law integrands, and exact for dyadic step integrands when the
grid is octave-aligned. Cell endpoints are probed with a small inward nudge
so right-continuous steps resolve to the correct side despite float rounding
of exp/log at the breakpoints. At an infinite end the rule takes its limits:
a cell's mass is +inf at a +inf end, else 0 (log -inf) at a -inf end.

``cell_log_masses`` is the one entry point. It takes the edges of one grid,
or rows of edges along the last axis: (..., k+1) edges give (..., k) masses,
each row with the bits it has alone, so unrelated cells go as (n, 2) rows.
The rule is evaluated without repeated passes. Each edge is exponentiated
once and serves as one cell's upper end and the next cell's lower end. log
phi is one expm1, divide and log over all cells; the cells with |d| < 1e-8
(where 0/0 would read NaN) and d > 700 (where expm1 overflows) are patched
afterwards, and only when a batch has any. The bits are those of the
formulas above, evaluated cell by cell. The callers choose the grids: the
octave probes of the moment index kappa in ``order``, the cumulative
integrals in ``karamata``.

Integrals in linear x (the Laplace transform, convolutions) use the one
Gauss-Kronrod entry point, ``adaptive_log_quad``: a batched adaptive G7-K15
rule that refines many integrals together, given as (n, k) panel arrays. Each
starts from dyadic panels: edges at 0, at every power of two 1, 2, 4, ...
below its upper limit, at the limit itself and at any point where the
integrand changes scale. Power-law mass near 0 and the exponential decay
beyond the peak then sit in panels a Kronrod rule resolves at once, so a
batch converges in one or two rounds instead of halving huge panels. The
Laplace transform also grades its panels toward 0, with edges at 1/8, 1/64,
1/512 and 1/4096, so that a y**alpha cusp at 0 is not halved one panel per
round; the convolution, folded at x/2, keeps the dyadic panels alone.

A round evaluates its panels in blocks of at most 512, and the bits stay
those of a single block. A 128-point batch starts from thousands of panels
(1,536 for a transform, 1,977 for a convolution). As one (panels, 15) array
each, its temporaries would be 184 KB and 237 KB, beyond the 128 KiB above
which glibc maps memory afresh, and every call would fault their pages in
again. A block's temporaries are 60 KiB, which the allocator mostly serves
from heap memory already in use.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import QuadratureFailure

_NUDGE = 1e-12


def _log_phi(d: np.ndarray) -> np.ndarray:
    """log((exp(d) - 1) / d), the exponential-rule correction, of a float
    array, under the caller's errstate.

    One expm1, divide and log over all of d; the rare cells are patched
    after, and only when there are any: 1 + d/2 for |d| < 1e-8 (where 0/0
    would read NaN), d - log d for d > 700 (where expm1 overflows). A NaN
    in d takes the patch path too, which leaves it NaN.
    """
    out = np.abs(d, out=np.empty(d.shape))
    small = not np.minimum.reduce(out, axis=None, initial=math.inf) >= 1e-8
    big = not np.maximum.reduce(d, axis=None, initial=-math.inf) <= 700.0
    np.expm1(d, out=out)
    np.divide(out, d, out=out)
    np.log(out, out=out)
    if small:
        cells = np.abs(d) < 1e-8
        out[cells] = np.log(1.0 + d[cells] / 2.0)
    if big:
        cells = d > 700.0
        big_d = d[cells]
        out[cells] = big_d - np.log(big_d)
    return out


def logsumexp(values: np.ndarray) -> float:
    v = np.asarray(values, dtype=float)
    m = v.max(initial=-math.inf)
    if math.isinf(m):
        return float(m)
    return float(m + math.log(np.exp(v - m).sum()))


def cell_log_masses(log_f, u_edges: np.ndarray) -> np.ndarray:
    """Per-cell log of integral exp(log_f(u)) du over the cells of u-grids.

    ``u_edges`` holds grids along its last axis: (..., k+1) edges give the
    (..., k) masses of their consecutive cells. ``log_f`` maps x arrays to
    log-integrand values; the ends are evaluated just inside each cell, all
    cells with one ``log_f`` call per side.
    """
    u_edges = np.asarray(u_edges, dtype=float)
    x = np.exp(u_edges)
    g_lo = log_f(x[..., :-1] * (1.0 + _NUDGE))
    g_hi = log_f(x[..., 1:] * (1.0 - _NUDGE))
    return _cell_rule(g_lo, g_hi, u_edges[..., 1:] - u_edges[..., :-1])


def _cell_rule(g_lo: np.ndarray, g_hi: np.ndarray, width: np.ndarray) -> np.ndarray:
    """g_lo + log(width) + log_phi(g_hi - g_lo), with the limits at infinite ends."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = np.log(width, out=np.empty(np.shape(width)))
        out += g_lo
        out += _log_phi(np.asarray(g_hi - g_lo))
    # the rule's limits at an infinite end, where it reads inf - inf: a +inf
    # end gives mass +inf; a -inf end beside a finite or -inf one gives 0
    if math.isnan(np.minimum.reduce(out, axis=None, initial=math.inf)):
        nan = np.isnan(out)
        out[nan] = np.where(np.maximum(g_lo, g_hi)[nan] == math.inf, math.inf, -math.inf)
    return out


def moment_log_f(handle, p: float):
    """x -> log(x**p U(x)): x**(p-1) U(x) dx = exp(p u) U(e^u) du in u = log x."""
    return lambda x: p * np.log(x) + handle.log_at(x)


# ---------------------------------------------------------------------------
# batched adaptive Gauss-Kronrod in log space (transform and convolution)
# ---------------------------------------------------------------------------

# 15-point Kronrod nodes on [0, 1] (the rule is symmetric), their weights and
# the weights of the embedded 7-point Gauss rule (zero at Kronrod-only nodes)
_GK_HALF_NODES = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
])
_GK_HALF_WK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
_GK_HALF_WG = np.array([
    0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
    0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327,
])
GK_X = np.concatenate([-_GK_HALF_NODES, _GK_HALF_NODES[-2::-1]])
GK_WK = np.concatenate([_GK_HALF_WK, _GK_HALF_WK[-2::-1]])
GK_WG = np.concatenate([_GK_HALF_WG, _GK_HALF_WG[-2::-1]])


def dyadic_edges(top: np.ndarray, *points: np.ndarray) -> np.ndarray:
    """Starting panel edges of integrals over [0, top[i]], one sorted row each.

    Row i holds 0, the powers of two 1, 2, 4, ... clipped to top[i], top[i]
    and each of ``points`` (its i-th entry, or the one value of a scalar)
    clipped to top[i]. Powers at or above top[i] repeat it, so the empty
    panels (a == b) of a row must be dropped.
    """
    top = np.asarray(top, dtype=float)
    n_powers, p, t_max = 0, 1.0, top.max(initial=0.0)
    while p < t_max:
        n_powers, p = n_powers + 1, 2.0 * p
    edges = np.concatenate([np.zeros((top.size, 1)),
                            np.minimum(2.0 ** np.arange(n_powers), top[:, None]),
                            top[:, None],
                            *(np.minimum(q, top)[:, None] for q in points)], axis=1)
    return np.sort(edges, axis=1)


def _segment_logsumexp(v: np.ndarray, ids: np.ndarray, n: int):
    """(log sum exp of v, max of v) per segment id in 0..n-1."""
    m = np.full(n, -np.inf)
    np.maximum.at(m, ids, v)
    shift = np.where(m > -np.inf, m, 0.0)
    with np.errstate(divide="ignore"):
        total = shift + np.log(np.bincount(ids, weights=np.exp(v - shift[ids]),
                                           minlength=n))
    return total, m


# panels per block of a Gauss-Kronrod round: a (512, 15) float64 temporary is
# 60 KiB. A power of two, so that block boundaries fall on the row groups in
# which the BLAS matrix-vector kernel reduces (4 rows in OpenBLAS's dgemv),
# and every row rounds as it would in one block.
_GK_BLOCK = 512


def _gk_panels(log_f, a: np.ndarray, b: np.ndarray, ids: np.ndarray):
    """(log K15, log |K15 - G7|) of every panel [a, b] of integral ids.

    The panels go to ``log_f`` in blocks of at most _GK_BLOCK, one call each.
    Every panel is computed on its own, so the bits do not depend on the
    blocks, with one exception that the split avoids: numpy reduces a
    one-row block with a dot product, which rounds unlike the kernel's
    remainder rows. A lone last panel therefore shares the last half block.
    """
    starts = list(range(0, a.size, _GK_BLOCK))
    if len(starts) > 1 and a.size - starts[-1] == 1:
        starts[-1] -= _GK_BLOCK // 2
    log_k, log_err = np.empty(a.size), np.empty(a.size)
    for lo, hi in zip(starts, starts[1:] + [a.size]):
        log_k[lo:hi], log_err[lo:hi] = _gk_block(log_f, a[lo:hi], b[lo:hi], ids[lo:hi])
    return log_k, log_err


def _gk_block(log_f, a: np.ndarray, b: np.ndarray, ids: np.ndarray):
    """(log K15, log |K15 - G7|) of the panels of one block, one ``log_f`` call;
    first a QuadratureFailure if a panel's outermost nodes round onto its ends."""
    half = 0.5 * (b - a)
    x = (0.5 * (a + b))[:, None] + half[:, None] * GK_X
    inside = (x[:, 0] > a) & (x[:, -1] < b)
    if not inside.all():
        i = int(np.argmin(inside))
        raise QuadratureFailure(f"adaptive quadrature: panel [{a[i]:.3g}, {b[i]:.3g}] is too "
                                "narrow for its nodes")
    g = np.asarray(log_f(x, ids), dtype=float)
    # row maxima through a transposed copy, which numpy reduces far faster
    # than many 15-long rows; a NaN or +inf anywhere in a row propagates
    m = np.ascontiguousarray(g.T).max(axis=0)
    if not (m < np.inf).all():
        raise QuadratureFailure("adaptive quadrature: log-integrand is NaN or +inf")
    shift = np.where(m > -np.inf, m, 0.0)
    e = g - shift[:, None]
    np.exp(e, out=e)
    k15 = e @ GK_WK
    g7 = e @ GK_WG
    with np.errstate(divide="ignore"):
        return shift + np.log(k15 * half), shift + np.log(np.abs(k15 - g7) * half)


# relative error at which an adaptive Gauss-Kronrod integral is done, and the
# integrand evaluations one integral may take before it fails
_REL_TOL = 1e-8
_MAX_EVALS = 100_000


def adaptive_log_quad(log_f, a, b) -> np.ndarray:
    """log of integral exp(log_f) for n integrals at once, by adaptive G7-K15.

    Row i of the (n, k) arrays a and b holds the initial panels [a, b] of
    integral i, which partition its range; empty panels (b <= a) are
    dropped. Each round evaluates every new panel of every unfinished
    integral with ``log_f(x[P, 15], ids[P])`` calls on blocks of at most
    _GK_BLOCK panels, ids being the rows the panels belong to, and reduces
    per-integral totals and error bounds |K15 - G7| in log space. An
    integral is done once its error is at most _REL_TOL of its total; for
    the others, every panel carrying more than its share of the allowed
    error (and always the worst one) is halved.
    QuadratureFailure when an unfinished integral has used _MAX_EVALS
    integrand evaluations. An integral without panels is 0 (log -inf).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = a.shape[0]
    keep = b > a
    a, b, ids = a[keep], b[keep], np.nonzero(keep)[0]
    log_tol = math.log(_REL_TOL)
    out = np.full(n, -np.inf)
    counts = np.bincount(ids, minlength=n)
    active = counts > 0
    evals = GK_X.size * counts
    log_k, log_err = _gk_panels(log_f, a, b, ids)
    while True:
        total, _ = _segment_logsumexp(log_k, ids, n)
        err, worst = _segment_logsumexp(log_err, ids, n)
        done = active & ((err == -np.inf) | (err <= total + log_tol))
        out[done] = total[done]
        active &= ~done
        if not active.any():
            return out
        over = active & (evals >= _MAX_EVALS)
        if over.any():
            i = int(np.argmax(over))
            with np.errstate(over="ignore"):
                rel = float(np.exp(err[i] - total[i]))
            raise QuadratureFailure(
                f"adaptive quadrature: error {rel:.2e} relative after "
                f"{int(evals[i])} evaluations"
            )
        keep = active[ids]
        a, b, ids, log_k, log_err = a[keep], b[keep], ids[keep], log_k[keep], log_err[keep]
        share = total + log_tol - np.log(np.bincount(ids, minlength=n).clip(min=1))
        split = (log_err > share[ids]) | (log_err == worst[ids])
        mid = 0.5 * (a[split] + b[split])
        new_a = np.concatenate([a[split], mid])
        new_b = np.concatenate([mid, b[split]])
        new_ids = np.concatenate([ids[split], ids[split]])
        new_k, new_err = _gk_panels(log_f, new_a, new_b, new_ids)
        evals += GK_X.size * np.bincount(new_ids, minlength=n)
        stay = ~split
        a = np.concatenate([a[stay], new_a])
        b = np.concatenate([b[stay], new_b])
        ids = np.concatenate([ids[stay], new_ids])
        log_k = np.concatenate([log_k[stay], new_k])
        log_err = np.concatenate([log_err[stay], new_err])

