"""Exact polynomial layer: integer polynomials, rationals, root finding, generators.

Coefficients are always stored ascending (constant term first), mirroring the
text format ``c0 c1 ... cd``. Integer polynomials carry exact arbitrary
precision coefficients; numerical work happens on complex128 copies.
"""

from __future__ import annotations

import dataclasses
import math
from functools import lru_cache

import numpy as np


class RootFindingError(RuntimeError):
    """Simultaneous iteration failed to reach the requested residual."""


# --------------------------------------------------------------------------- #
# integer polynomials
# --------------------------------------------------------------------------- #


@dataclasses.dataclass(frozen=True)
class IntPolynomial:
    """Polynomial with exact integer coefficients, ascending order.

    >>> p = IntPolynomial((-2, 0, 1))   # z^2 - 2
    >>> p.degree, p(3)
    (2, 7)
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        cs = tuple(int(c) for c in self.coeffs)
        while len(cs) > 1 and cs[-1] == 0:
            cs = cs[:-1]
        if not cs:
            cs = (0,)
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return self.leading == 1

    @property
    def content(self) -> int:
        return math.gcd(*(abs(c) for c in self.coeffs)) if len(self.coeffs) > 1 else abs(self.coeffs[0])

    def primitive_normalized(self) -> "IntPolynomial":
        """Divide out the content and make the leading coefficient positive."""
        c = self.content
        if c == 0:
            return self
        sign = -1 if self.leading < 0 else 1
        return IntPolynomial(tuple(sign * x // c for x in self.coeffs))

    @property
    def complex_coeffs(self) -> np.ndarray:
        """A fresh complex128 copy of the coefficients, which callers may write."""
        return np.array([complex(c) for c in self.coeffs])

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(tuple(out))

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return IntPolynomial(tuple(out))

    def divmod_exact(self, divisor: "IntPolynomial") -> "IntPolynomial":
        """Exact division over the integers; raises if it does not divide."""
        rem = list(self.coeffs)
        dlead = divisor.leading
        dd = divisor.degree
        out = [0] * (len(rem) - dd)
        for i in range(len(rem) - 1, dd - 1, -1):
            q, r = divmod(rem[i], dlead)
            if r != 0:
                raise ValueError("not an exact integer division")
            out[i - dd] = q
            for j, c in enumerate(divisor.coeffs):
                rem[i - dd + j] -= q * c
        if any(rem):
            raise ValueError("nonzero remainder in exact division")
        return IntPolynomial(tuple(out))

    @classmethod
    def from_text(cls, text: str) -> "IntPolynomial":
        """Parse the ``c0 c1 ... cd`` whitespace-separated format."""
        parts = text.split()
        if not parts:
            raise ValueError("empty polynomial text")
        return cls(tuple(int(p) for p in parts))

    def to_text(self) -> str:
        return " ".join(str(c) for c in self.coeffs)


def horner(coeffs: np.ndarray, z) -> np.ndarray:
    """P(z) by numpy Horner from ascending complex coefficients."""
    z = np.asarray(z, dtype=np.complex128)
    acc = np.full(z.shape, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc = acc * z + c
    return acc


def _coerce_coeffs(p) -> np.ndarray:
    # ascending complex coefficients of an IntPolynomial or an array: 1-D for
    # one polynomial, trimmed of trailing zeros, or a (K, d+1) stack
    if isinstance(p, IntPolynomial):
        return p.complex_coeffs
    c = np.asarray(p, dtype=np.complex128)
    if c.ndim < 2:
        n = len(c)
        while n > 1 and c[n - 1] == 0:
            n -= 1
        return np.array(c[:n])
    if c.ndim > 2 or np.any(c[:, -1] == 0):
        raise ValueError("a stack is (K, d+1) with nonzero leading coefficients")
    return c


# --------------------------------------------------------------------------- #
# exact evaluation at dyadic points (large-coefficient safety)
# --------------------------------------------------------------------------- #

# Coefficient mass above which float Horner on [-2, 2]-scale points loses the
# value to cancellation; DynGreenEvaluator steps such integer polynomials with
# eval_intpoly instead.
EXACT_EVAL_COEFF_SUM = 2**30


def _big_to_float(n: int, shift: int) -> float:
    # float(n * 2**shift) without overflowing the int -> float conversion
    if n == 0:
        return 0.0
    bl = n.bit_length()
    if bl > 1000:
        drop = bl - 64
        n >>= drop
        shift += drop
    try:
        return math.ldexp(float(n), shift)
    except OverflowError:
        return math.inf if n > 0 else -math.inf


def eval_intpoly(p: IntPolynomial, w: complex) -> complex:
    """P(w) at one point: exact big-integer Horner at the dyadic value of w,
    rounded once to a Python complex. A point with a NaN part gives NaN."""
    if w != w:  # a NaN part has no dyadic value
        return complex(math.nan, math.nan)
    coeffs = p.coeffs
    nr, dr = float(w.real).as_integer_ratio()
    ni, di = float(w.imag).as_integer_ratio()
    kr, ki = dr.bit_length() - 1, di.bit_length() - 1
    k = max(kr, ki)
    a = nr << (k - kr)
    b = ni << (k - ki)
    d = len(coeffs) - 1
    x, y = coeffs[-1], 0
    for i in range(d - 1, -1, -1):
        x, y = x * a - y * b, x * b + y * a
        if coeffs[i]:
            x += coeffs[i] << (k * (d - i))
    sh = -k * d
    return complex(_big_to_float(x, sh), _big_to_float(y, sh))


# --------------------------------------------------------------------------- #
# root finding (Aberth simultaneous iteration)
# --------------------------------------------------------------------------- #


@dataclasses.dataclass(frozen=True, eq=False)
class RootSet:
    """All roots with multiplicity, plus the scaled residual certificate.

    residual_bound is the backward-error style quantity
    max_j |P(z_j)| / (1 + sum_i |c_i| |z_j|^i); a converged solve sits near
    machine epsilon regardless of coefficient or root magnitudes. For a
    stack of K polynomials, roots is (K, degree) and residual_bound is the
    worst row's. iterations counts Aberth sweeps (0 for closed forms).
    """

    roots: np.ndarray  # complex128, (degree,) or (K, degree)
    residual_bound: float
    iterations: int = 0

    @property
    def max_modulus(self) -> float:
        return float(np.max(np.abs(self.roots)))


def _powers(z: np.ndarray, d: int, out=None) -> np.ndarray:
    # z**0 .. z**d along a new last axis, as running products, into out
    # (of shape z.shape + (d + 1,)) when given
    pw = np.empty(z.shape + (d + 1,), dtype=z.dtype) if out is None else out
    pw[..., 0] = 1.0
    pw[..., 1:] = z[..., None]
    return np.multiply.accumulate(pw, axis=-1, out=pw)


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
    rows = np.arange(n_rows)
    log_r = np.empty((n_rows, d))
    turn = np.empty((n_rows, d))
    k = np.zeros(n_rows, dtype=int)  # current hull vertex of each row
    edge = 0
    # a finished row (k = d) has no later point: its edge ends at d again
    # and writes nothing
    while np.count_nonzero(k < d):
        span = cols - k[:, None]
        slope = (y - y[rows, k][:, None]) / span
        np.copyto(slope, -np.inf, where=span <= 0)
        # among equal slopes the farthest point ends the edge
        end = d - slope[:, ::-1].argmax(axis=1)
        # the points from k on; later edges overwrite those past the end
        ahead = span[:, :d] >= 0
        np.copyto(log_r, -slope[rows, end][:, None], where=ahead)
        np.copyto(turn, span[:, :d] / (end - k)[:, None] + edge / d, where=ahead)
        k = end
        edge += 1
    return log_r, turn


def _aberth(a: np.ndarray, tol_abs: np.ndarray, z: np.ndarray):
    """Aberth simultaneous iteration on a (K, d+1) stack of monic rows from
    the (K, d) starting points z, for at most 500 sweeps.

    A row leaves the sweep once none of its roots moves or its largest |p|
    is below 0.01 tol_abs. Returns z, updated to the (K, d) roots, and the
    sweep count of the slowest row.
    """
    n_rows, d = z.shape
    # p and p' in one product: columns a_i and (i + 1) a_{i+1}
    pair = np.zeros(a.shape + (2,), dtype=np.complex128)
    pair[:, :, 0] = a
    pair[:, :-1, 1] = a[:, 1:] * np.arange(1, d + 1)
    # the live rows' state, compacted when rows leave (until then zl is z);
    # they sweep in the leading rows of buffers allocated once
    live = np.arange(n_rows)
    zl, coef, lim = z, pair, 0.01 * tol_abs
    moving = np.ones(z.shape, dtype=bool)
    powers = np.empty((n_rows, d, d + 1), dtype=np.complex128)
    pv = np.empty((n_rows, d, 2), dtype=np.complex128)
    diff = np.empty((n_rows, d, d), dtype=np.complex128)
    diag = diff.reshape(n_rows, d * d)[:, ::d + 1]

    def values(zl, coef):
        # p and p' at zl: the power table times coef
        return np.matmul(_powers(zl, d, powers[:len(zl)]), coef, out=pv[:len(zl)])

    sweeps = 0
    while len(live) and sweeps < 500:
        sweeps += 1
        n = len(live)
        pd = values(zl, coef)
        if np.count_nonzero(pd[..., 1]) < n * d:
            zl[...] = np.where(pd[..., 1] == 0, zl * (1 + 1e-8) + 1e-12, zl)
            pd = values(zl, coef)
        p = pd[..., 0]
        w = p / pd[..., 1]
        gaps = diff[:n]
        np.subtract(zl[:, :, None], zl[:, None, :], out=gaps)
        diag[:n] = 1.0
        s = np.add.reduce(np.reciprocal(gaps, out=gaps), axis=2)
        s -= 1.0  # subtract the diagonal's 1/1
        corr = w / (1.0 - w * s)
        # a root that stopped keeps its bits (z - 0 is z) and stays stopped
        np.subtract(zl, corr, out=zl, where=moving)
        moving &= np.abs(corr) > 1e-14 * (1.0 + np.abs(zl))
        keep = (np.logical_or.reduce(moving, axis=1)
                & ~(np.maximum.reduce(np.abs(p), axis=1) <= lim))
        if np.count_nonzero(keep) < n:
            z[live] = zl
            live, zl, coef, lim, moving = (live[keep], zl[keep], coef[keep],
                                           lim[keep], moving[keep])
    z[live] = zl
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
    scale = 1.0 + np.maximum.reduce(np.abs(work), axis=1)
    lead = work[:, -1]
    a = work / lead[:, None]
    tol_abs = tol * scale / np.abs(lead)
    log_r, turn = _newton_polygon(np.log(np.abs(a)))
    cap = 250.0 * math.log(10.0) / d
    wide = np.nonzero(~np.logical_and.reduce(np.abs(log_r) <= cap, axis=1))[0]
    if len(wide):
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
    ramp = 1 + 1e-4 * np.arange(1, d + 1) / d
    # np.clip as a maximum and a minimum, which skip its wrapper
    radius = np.exp(np.minimum(np.maximum(log_r, -cap), cap))
    z = radius * ramp * np.exp(1j * (2 * np.pi * turn + 0.7))
    z, sweeps = _aberth(a, tol_abs, z)
    if len(wide):
        z[wide] *= np.exp(log_big)[:, None]
    return z, sweeps


def _merge_clusters(z: np.ndarray, radius: float) -> None:
    """Replace, in place, each group of a row's roots that chain together by
    the group mean; rows without a close pair are skipped. Two roots are
    close below radius * min(1, larger modulus): relative below modulus 1,
    so roots of tiny modulus are not merged into a plausible zero."""
    d = z.shape[1]
    if d < 2:
        return
    # |z_i - z_j| >= |Re z_i - Re z_j| and radius * scale <= radius, so a
    # close pair needs two real parts less than radius apart: other rows
    # are skipped before the pairwise test
    re = np.sort(z.real, axis=1)
    rows = np.flatnonzero(~(np.minimum.reduce(re[:, 1:] - re[:, :-1], axis=1) >= radius))
    if not len(rows):
        return
    zr = z[rows]
    mod = np.abs(zr)
    scale = np.minimum(1.0, np.maximum(mod[:, :, None], mod[:, None, :]))
    close = np.abs(zr[:, :, None] - zr[:, None, :]) < radius * scale
    close.reshape(len(zr), d * d)[:, ::d + 1] = False
    for r in np.nonzero(close.any(axis=(1, 2)))[0]:
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
                z[rows[r], group] = np.mean(zr[r, group])


# bytes of the complex128 power table of one slice of a stacked solve
_STACK_BYTES = 16 * 2**20


def _solve_rows(c: np.ndarray, tol: float, found: np.ndarray):
    """Roots of a (K, d+1) stack into the zeroed (K, d) found; returns the
    residual bounds (K,) and the sweep count."""
    d = c.shape[1] - 1
    sweeps = 0
    # exact zero constant coefficients peel off roots at the origin
    n_zero = (c != 0).argmax(axis=1)
    peels = sorted(set(n_zero.tolist()))
    with np.errstate(all="ignore"):
        for m in peels:
            rows = slice(None) if len(peels) == 1 else np.nonzero(n_zero == m)[0]
            # contiguous, as a gather of the rows is: numpy's complex
            # multiply rounds differently on strided operands
            work = np.ascontiguousarray(c[rows, m:])
            if d - m == 1:
                found[rows, m] = -work[:, 0] / work[:, 1]
            elif d - m == 2:
                found[rows, m:] = _quadratic_roots(work)
            elif d - m > 2:
                z, k = _aberth_rows(work, tol)
                found[rows, m:] = z
                sweeps = max(sweeps, k)
        _merge_clusters(found, math.sqrt(tol))
        vals = np.abs(_powers(found, d) @ c[:, :, None])[..., 0]
        denom = (_powers(np.abs(found), d) @ np.abs(c)[:, :, None])[..., 0]
        return np.maximum.reduce(vals / (1.0 + denom), axis=1), sweeps


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
    if not stacked:
        c = c[None, :]
    d = c.shape[1] - 1
    if d < 1:
        raise ValueError("constant polynomial: no roots to compute")
    found = np.zeros((len(c), d), dtype=np.complex128)
    bounds = np.empty(len(c))
    sweeps = 0
    step = max(1, _STACK_BYTES // (16 * d * (d + 1)))
    for i in range(0, len(c), step):
        bounds[i:i + step], k = _solve_rows(c[i:i + step], tol, found[i:i + step])
        sweeps = max(sweeps, k)
    converged = bounds <= tol
    if np.count_nonzero(converged) < len(c):
        i = int(converged.argmin())
        what = (f"row {i} of a stack of {len(c)} degree-{d} polynomials"
                if stacked else f"degree {d} polynomial")
        raise RootFindingError(
            f"root finding did not converge for {what} "
            f"(scaled residual {bounds[i]:.3e}, tol {tol:.1e})"
        )
    # the roots are finite here, and a stable sort of complex numbers orders
    # by real, then imaginary part, keeping ties such as 0.0 and -0.0 in place
    found.sort(axis=1, kind="stable")
    return RootSet(roots=found if stacked else found[0],
                   residual_bound=float(np.maximum.reduce(bounds, initial=0.0)),
                   iterations=sweeps)


# --------------------------------------------------------------------------- #
# generators
# --------------------------------------------------------------------------- #


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> IntPolynomial:
    """n-th cyclotomic polynomial by iterated exact division of z^n - 1."""
    if n < 1:
        raise ValueError("n must be positive")
    num = IntPolynomial((-1,) + (0,) * (n - 1) + (1,))
    for d in range(1, n):
        if n % d == 0:
            num = num.divmod_exact(cyclotomic(d))
    return num


@lru_cache(maxsize=None)
def chebyshev_monic(n: int) -> IntPolynomial:
    """Monic Chebyshev-type polynomial 2*T_n(z/2) via the three-term recurrence."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    p_prev = IntPolynomial((2,))
    if n == 0:
        return p_prev
    p_cur = IntPolynomial((0, 1))
    z = IntPolynomial((0, 1))
    for _ in range(n - 1):
        p_prev, p_cur = p_cur, z * p_cur - p_prev
    return p_cur


def runaway_drift(d: int) -> int:
    return math.floor(math.exp(math.sqrt(d)))


def runaway_family(d: int) -> IntPolynomial:
    """x^d - N_d x^{d-1} + 1 with drift N_d = floor(exp(sqrt(d)))."""
    if d < 2:
        raise ValueError("degree must be at least 2")
    n = runaway_drift(d)
    return IntPolynomial((1,) + (0,) * (d - 2) + (-n, 1))


def power_map(n: int) -> IntPolynomial:
    if n < 2:
        raise ValueError("degree must be at least 2")
    return IntPolynomial((0,) * n + (1,))
