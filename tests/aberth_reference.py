"""The root finder as it stood before its sweeps were made lean: a frozen
copy of polyarith's roots pipeline, kept as the reference that the current
one must match bit for bit (roots, residual_bound and iterations).

Only the coercion and the result types come from polyarith; every step of
the solve below is the old code, unchanged.
"""

import math

import numpy as np

from feketedyn.polyarith import RootFindingError, RootSet, _coerce_coeffs


def _powers(z: np.ndarray, d: int) -> np.ndarray:
    # z**0 .. z**d along a new last axis, as running products
    pw = np.empty(z.shape + (d + 1,), dtype=z.dtype)
    pw[..., 0] = 1.0
    pw[..., 1:] = z[..., None]
    return np.cumprod(pw, axis=-1, out=pw)


def _quadratic_roots(c: np.ndarray) -> np.ndarray:
    # rows (c0, c1, c2) -> (K, 2); the sign choice avoids cancellation
    c0, c1, c2 = c[:, 0], c[:, 1], c[:, 2]
    sq = np.sqrt(c1 * c1 - 4.0 * c2 * c0)
    sq = np.where((np.conj(c1) * sq).real < 0, -sq, sq)
    q = -0.5 * (c1 + sq)
    return np.stack([q / c2, c0 / q], axis=1)


def _newton_polygon(y: np.ndarray):
    """Log radii and angles of starting points from a (K, d+1) stack of log
    coefficient moduli y_i = log|a_i| (Bini 1996).

    Each edge (k, l) of the upper convex hull of the points (i, y_i) puts
    l - k points on the circle of log radius (y_k - y_l) / (l - k), the
    geometric mean modulus of that many roots. Returns the (K, d) log radii
    and angles as a fraction of a full turn.
    """
    n_rows, n = y.shape
    d = n - 1
    cols = np.arange(n)
    log_r = np.empty((n_rows, d))
    turn = np.empty((n_rows, d))
    k = np.zeros(n_rows, dtype=int)  # current hull vertex of each row
    edge = 0
    while True:
        rows = np.nonzero(k < d)[0]
        if len(rows) == 0:
            break
        kr = k[rows]
        span = cols - kr[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = (y[rows] - y[rows, kr][:, None]) / span
        slope[span <= 0] = -np.inf
        # among equal slopes the farthest point ends the edge
        end = d - np.argmax(slope[:, ::-1], axis=1)
        on_edge = (cols[:d] >= kr[:, None]) & (cols[:d] < end[:, None])
        i, j = np.nonzero(on_edge)
        log_r[rows[i], j] = -slope[i, end[i]]
        turn[rows[i], j] = (j - kr[i]) / (end - kr)[i] + edge / d
        k[rows] = end
        edge += 1
    return log_r, turn


def _aberth(a: np.ndarray, tol_abs: np.ndarray, z: np.ndarray):
    """Aberth simultaneous iteration on a (K, d+1) stack of monic rows from
    the (K, d) starting points z, for at most 500 sweeps.

    A row leaves the sweep once none of its roots moves or its largest |p|
    is below 0.01 tol_abs. Returns the (K, d) roots and the sweep count of
    the slowest row.
    """
    d = a.shape[1] - 1
    # p and p' in one product: columns a_i and (i + 1) a_{i+1}
    pair = np.zeros(a.shape + (2,), dtype=np.complex128)
    pair[:, :, 0] = a
    pair[:, :-1, 1] = a[:, 1:] * np.arange(1, d + 1)
    moving = np.ones(z.shape, dtype=bool)
    live = np.arange(len(a))
    diag = np.arange(d)
    sweeps = 0
    while len(live) and sweeps < 500:
        sweeps += 1
        zl, coef = z[live], pair[live]
        pv = _powers(zl, d) @ coef
        if not pv[..., 1].all():
            zl = np.where(pv[..., 1] == 0, zl * (1 + 1e-8) + 1e-12, zl)
            pv = _powers(zl, d) @ coef
        p, dp = pv[..., 0], pv[..., 1]
        w = p / dp
        diff = zl[:, :, None] - zl[:, None, :]
        diff[:, diag, diag] = 1.0
        s = np.reciprocal(diff).sum(axis=2) - 1.0  # subtract the diagonal's 1/1
        mv = moving[live]
        corr = np.where(mv, w / (1.0 - w * s), 0.0)
        zl = zl - corr
        mv &= np.abs(corr) > 1e-14 * (1.0 + np.abs(zl))
        z[live], moving[live] = zl, mv
        done = ~np.any(mv, axis=1) | (np.max(np.abs(p), axis=1) <= 0.01 * tol_abs[live])
        live = live[~done]
    return z, sweeps


def _aberth_rows(work: np.ndarray, tol: float):
    """Roots (K, d) and sweep count of a stack with nonzero constant terms.

    Each row starts on its Newton polygon with radii clipped to the
    overflow-safe range 10^(+-250/d). A row whose polygon reaches past the
    clip would start too far from its roots and can diverge, so it is
    solved in w = z / R instead: R is the geometric midpoint of its extreme
    polygon radii, and the monic coefficients a_i R^(i-d) are formed in log
    space so that nothing overflows. Rows inside the clip are not touched.
    """
    d = work.shape[1] - 1
    scale = 1.0 + np.max(np.abs(work), axis=1)
    lead = work[:, -1]
    a = work / lead[:, None]
    tol_abs = tol * scale / np.abs(lead)
    log_r, turn = _newton_polygon(np.log(np.abs(a)))
    cap = 250.0 * math.log(10.0) / d
    wide = ~np.all(np.abs(log_r) <= cap, axis=1)
    if wide.any():
        aw = work[wide]
        y = np.log(np.abs(aw))
        lr, turn[wide] = _newton_polygon(y)
        log_big = 0.5 * (np.max(lr, axis=1) + np.min(lr, axis=1))
        yq = y + (np.arange(d + 1) - d) * log_big[:, None] - y[:, -1:]
        phase = aw / np.abs(aw)
        a[wide] = np.where(aw == 0, 0.0, np.exp(yq) * phase / phase[:, -1:])
        tol_abs[wide] = tol * (1.0 + np.exp(np.max(yq, axis=1)))
        log_r[wide] = lr - log_big[:, None]
    # deterministic perturbation: Bini's rotation 0.7 plus a tiny radial ramp
    ramp = 1 + 1e-4 * (np.arange(d) + 1) / d
    z = np.exp(np.clip(log_r, -cap, cap)) * ramp * np.exp(1j * (2 * np.pi * turn + 0.7))
    z, sweeps = _aberth(a, tol_abs, z)
    if wide.any():
        z[wide] *= np.exp(log_big)[:, None]
    return z, sweeps


def _merge_clusters(z: np.ndarray, radius: float) -> np.ndarray:
    """Replace each group of a row's roots that chain together by the group
    mean; rows without a close pair are skipped. Two roots are close below
    radius * min(1, larger modulus): relative below modulus 1, so roots of
    tiny modulus are not merged into a plausible zero."""
    d = z.shape[1]
    if d < 2:
        return z
    mod = np.abs(z)
    scale = np.minimum(1.0, np.maximum(mod[:, :, None], mod[:, None, :]))
    close = np.abs(z[:, :, None] - z[:, None, :]) < radius * scale
    close[:, np.arange(d), np.arange(d)] = False
    for r in np.nonzero(np.any(close, axis=(1, 2)))[0]:
        seen = np.zeros(d, dtype=bool)
        for i in range(d):
            if seen[i]:
                continue
            # breadth-first closure of the proximity graph
            group = [i]
            frontier = [i]
            seen[i] = True
            while frontier:
                j = frontier.pop()
                for m in np.nonzero(close[r, j] & ~seen)[0]:
                    seen[m] = True
                    group.append(m)
                    frontier.append(m)
            if len(group) > 1:
                z[r, group] = np.mean(z[r, group])
    return z


# bytes of the complex128 power table of one slice of a stacked solve
_STACK_BYTES = 16 * 2**20


def _solve_rows(c: np.ndarray, tol: float):
    """Roots (K, d), residual bounds (K,) and sweep count of a (K, d+1) stack."""
    d = c.shape[1] - 1
    found = np.zeros((len(c), d), dtype=np.complex128)
    sweeps = 0
    # exact zero constant coefficients peel off roots at the origin
    n_zero = np.argmax(c != 0, axis=1)
    with np.errstate(all="ignore"):
        for m in sorted(set(n_zero.tolist())):
            rows = np.nonzero(n_zero == m)[0]
            work = c[rows, m:]
            if d - m == 1:
                found[rows, m] = -work[:, 0] / work[:, 1]
            elif d - m == 2:
                found[rows, m:] = _quadratic_roots(work)
            elif d - m > 2:
                z, k = _aberth_rows(work, tol)
                found[rows, m:] = z
                sweeps = max(sweeps, k)
        found = _merge_clusters(found, math.sqrt(tol))
        vals = np.abs(_powers(found, d) @ c[:, :, None])[..., 0]
        denom = (_powers(np.abs(found), d) @ np.abs(c)[:, :, None])[..., 0]
        return found, np.max(vals / (1.0 + denom), axis=1), sweeps


def roots(p, tol: float = 1e-10) -> RootSet:
    """All complex roots with multiplicity via Aberth simultaneous iteration.

    p is one polynomial or a (K, d+1) stack of ascending coefficient rows,
    solved in one iteration (in slices whose power table stays under 16 MiB);
    for a stack, roots is (K, d). Every row has its own starting points on
    the Newton polygon of its coefficient moduli, stopping test, zero-root
    peeling and residual certificate. Roots closer than sqrt(tol) times
    min(1, the larger modulus) are merged into multiplicity clusters, and
    each row is sorted by real, then imaginary part. Raises
    RootFindingError, naming the row of a stack, when a scaled residual is
    above tol or not finite.
    """
    c = _coerce_coeffs(p)
    stacked = c.ndim == 2
    c = np.atleast_2d(c)
    d = c.shape[1] - 1
    if d < 1:
        raise ValueError("constant polynomial: no roots to compute")
    step = max(1, _STACK_BYTES // (16 * d * (d + 1)))
    parts = [_solve_rows(c[i:i + step], tol) for i in range(0, len(c) or 1, step)]
    found = np.concatenate([f for f, _, _ in parts])
    bounds = np.concatenate([b for _, b, _ in parts])
    failed = np.nonzero(~(bounds <= tol))[0]
    if len(failed):
        i = int(failed[0])
        what = (f"row {i} of a stack of {len(c)} degree-{d} polynomials"
                if stacked else f"degree {d} polynomial")
        raise RootFindingError(
            f"root finding did not converge for {what} "
            f"(scaled residual {bounds[i]:.3e}, tol {tol:.1e})"
        )
    order = np.lexsort((found.imag, found.real), axis=-1)
    found = np.take_along_axis(found, order, axis=1)
    return RootSet(roots=found if stacked else found[0],
                   residual_bound=float(np.max(bounds, initial=0.0)),
                   iterations=max(k for _, _, k in parts))

