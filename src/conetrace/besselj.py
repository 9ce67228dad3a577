"""Bessel functions J_nu of real nonnegative order, with zeros.

Cone mode sums need J_nu for arbitrary real order nu = 2 pi |k| / rho,
so the function is implemented in-repo rather than taken from a library
that is also used as ground truth.  One routine gives J and J' together:
`bessel_j_pair` returns both and `bessel_j` the first, so the mode
build, the placement of the zeros and any other iteration on J run one
code path.
It refuses a negative or non-finite order or argument with
BesselFailureError.  Two regimes:

* ascending power series for small argument (x <= 4) or argument at
  most half the order (x <= nu / 2), its first 60 terms summed in one
  shot, each as exp of its logarithm to dodge overflow (math.lgamma for
  log Gamma(nu + m + 1), a module constant for log m!).  The
  alternating terms cancel, so the accuracy is absolute, not relative
  to J_nu, and it worsens with x: against mpmath the error on orders up
  to 8 is at most about 4e-15 at x = 4 (4e-12 at x = 10), where the
  integral below errs by at most about 3.4e-15, so the switch sits at
  x = 4.  Where x <= nu / 2 with nu >= 20 the error is below 1e-18;
  there J_nu itself is so small that the relative error can be large
  (1e-5 at nu = 160, x = 79.9, and the wrong sign at nu = 400, x = 199),
* Schlaefli's integral representation elsewhere,
      J_nu(x) = (1/pi) int_0^pi cos(nu t - x sin t) dt
              - sin(nu pi)/pi int_0^inf exp(-nu t - x sinh t) dt,
  with Gauss-Legendre on the oscillatory part and scaled Gauss-Laguerre
  on the monotone tail.  The Legendre rule is sized by the integrand's
  top frequency: the phase nu t - x sin t has slope nu - x cos t, at
  most nu + x, and the rule takes 0.8 (nu + x) + 40 nodes rounded up to
  a multiple of 64 (x the largest argument of the batch).  The total
  phase variation nu pi + 2 x, which overstates the work, would ask for
  three to four times as many.  On a scan of 13 orders from 0 to 800,
  each at 7 arguments spread over the domain, 0.8 (nu + x) + 40 is at
  least 1.21 times the smallest node count that puts both J and J'
  within 2e-13 of scipy's jv; the tightest points lie at x = nu / 2.
  Rounding up to a multiple of 64 lets the many (nu, x) of a mode build
  share a handful of rules from the package's cached rule source
  (`quadrature.gauss_legendre`).  The rule is checked on the
  domain nu pi + 2 x <= 3360, where it never takes more than 1408
  nodes; a phase variation beyond it raises BesselFailureError rather
  than integrating where nothing was checked.
  The node count is even and the nodes mirror about pi / 2, where
  sin t is even, so the phase at the mirror pi - t of a node t is
  nu pi - nu t - x sin t.  Expanding both cosines around x sin t folds
  the Legendre sum onto the half of the nodes below pi / 2, whose part
  of J and J' (the Laguerre tail aside) is
      J  = (C a + S b) / pi,    J' = (C (b sin t) - S (a sin t)) / pi,
  with C and S the matrices cos(x sin t) and sin(x sin t) over points
  and half-nodes, and per-node weights
      a = w (cos(nu t) (1 + cos(nu pi)) + sin(nu pi) sin(nu t)),
      b = w (sin(nu t) (1 - cos(nu pi)) + sin(nu pi) cos(nu t)).
  So J and J' together take one cos and one sin per point and
  half-node, half the trig work of evaluating the two phase matrices
  on every node.  cos(nu pi) and sin(nu pi) come from nu reduced mod 2,
  which keeps them accurate at large orders.

Zeros are counted and certified by linear algebra and placed by J.  The
three-term recurrence makes 1/j_{nu,m} the positive eigenvalues of the
infinite symmetric tridiagonal matrix with zero diagonal and
off-diagonal 1/(2 sqrt((nu+k)(nu+k+1))), k = 1, 2, ... (Ikebe 1975,
Math. Comp. 29; Ball 2000, Math. Comp. 69).  The zero diagonal pairs
the eigenvalues as +-1/j, so the square of the matrix splits into two
tridiagonal blocks (odd and even rows) that each carry 1/j^2; the odd
one is used.  Truncated to 1.1 (x_max - nu) + 4 x_max^(1/3) + 10 rows
of the unsquared matrix, it holds every zero up to x_max as the matrix
of 3 (x_max - nu) + 300 rows does: on a scan of nu in [0, 370] and
x_max <= 900 with nu pi + 2 x_max <= 3360, within 5.1e-14 relative.
The cube-root term is the width of the turning-point zone x ~ nu,
where the eigenvectors of the zeros near x_max reach deepest into the
matrix; without it, 1.1 (x_max - nu) + 20 rows miss by 7e-6 at
nu = 320, x_max = 343.  A batch of orders (a cone mode build asks for
its whole ladder of orders at once) goes through four steps:

* count: the positive pivots of the LDL^T factorization of the block
  minus 1/x^2 count the zeros below x (Sturm's count).  The blocks are
  padded to one height with decoupled zero rows, which never count, so
  one pass down the rows counts every order, or every zero, at once.
  The count runs 1e-6 past x_max, and the placed zeros decide which
  are kept, so a zero within the matrix's rounding of x_max is kept or
  dropped by its own value;
* start: McMahon's expansion in beta = (m + nu/2 - 1/4) pi where its
  last term is below 1e-5 (or nu < 1), and elsewhere Olver's uniform
  expansion nu z(zeta) + f1(zeta) / nu in the Airy zeros;
* place: Halley's iteration on J, with J'' from Bessel's equation for
  free.  A zero is done once its step is at most 1e-6, which the cubic
  convergence leaves within rounding, and J' is carried to it by the
  step's Taylor series.  With the first three Airy zeros from a table,
  one pass settles all but a few zeros of each order;
* certify: the counts at z (1 - 1e-8) and z (1 + 1e-8) must be m - 1
  and m for the m-th zero z, else BesselFailureError.  A start that
  Halley drives onto a neighbouring zero leaves a true zero of J in the
  wrong place, which only this index check sees.

The eigenvalues know nothing of the quadrature, so the two check each
other, and nothing here calls a library Bessel function or eigensolver:
the package needs numpy alone, and tests use those libraries as ground
truth.  On every order of the cone mode builds of criterion 3 and of
the benchmark's cone_front workload, and on the row-rule scan of the
tests (34,720 zeros), the zeros match a LAPACK eigensolve of the same
blocks followed by one Newton step of J within 2.4e-16 relative, and
J' at them within 1.1e-13.

Everything is deterministic and vectorized over the argument.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BesselFailureError
from .quadrature import gauss_laguerre, gauss_legendre

__all__ = ["bessel_j", "bessel_j_pair", "bessel_j_zeros"]

_SERIES_X_MAX = 4.0
_SERIES_TERMS = 60
# log m! of each term m of the series, one row per term
_LOG_FACTORIAL = np.array([math.lgamma(m + 1.0)
                           for m in range(_SERIES_TERMS)])[:, None]
_GL_RUNG = 64  # Legendre node counts are multiples of this
_TAIL_NODES = 80  # Laguerre nodes of the Schlaefli integral's tail
_SPAN_TOP = 3360.0  # largest phase variation nu pi + 2 x supported
# the zeros: the count runs _COUNT_MARGIN past x_max; a start is McMahon's
# where its last term is below _MCMAHON_TOL; Halley ends a zero once its
# step is at most _HALLEY_STOP, within _HALLEY_PASSES passes; the Ikebe
# count certifies the m-th zero z at z (1 -+ _CERT_DELTA)
_COUNT_MARGIN = 1e-6
_MCMAHON_TOL = 1e-5
_HALLEY_STOP = 1e-6
_HALLEY_PASSES = 8
_CERT_DELTA = 1e-8
# the first zeros of Ai, and the coefficients of t^-2, ..., t^-10 in
# the asymptotic series of the others
_AIRY_FIRST = (-2.338107410459767, -4.08794944413097, -5.520559828095551)
_AIRY_SERIES = (5.0 / 48.0, -5.0 / 36.0, 77125.0 / 82944.0,
                -108056875.0 / 6967296.0, 162375596875.0 / 334430208.0)


def _nodes(nu: float, x_max: float) -> int:
    """Legendre node count for the Schlaefli integral up to x_max: the
    rung at or above 0.8 (nu + x_max) + 40, nu + x_max being the top
    frequency of its integrand."""
    return _GL_RUNG * math.ceil((0.8 * (nu + x_max) + 40) / _GL_RUNG)


def _check_span(nu: float, x_max: float, what: str) -> None:
    span = nu * math.pi + 2.0 * x_max
    if span > _SPAN_TOP:
        raise BesselFailureError(
            f"{what}: phase variation {span:.6g} exceeds {_SPAN_TOP:g}, "
            f"the domain the Gauss-Legendre rule is checked on")


def _series(nu: float, x: np.ndarray):
    """(J, J') from the first _SERIES_TERMS terms of the ascending series,
    one column of terms per point, summed in one shot.  The sum runs
    down the columns, so it adds the terms in order."""
    m = np.arange(_SERIES_TERMS, dtype=float)[:, None]
    power = 2.0 * m + nu
    pos = x > 0  # x = 0 takes the limits below
    xs = np.where(pos, x, 1.0)
    log_gamma = np.array([math.lgamma(nu + k + 1.0)
                          for k in range(_SERIES_TERMS)])[:, None]
    terms = np.where(m % 2 == 0, 1.0, -1.0) * np.exp(
        power * np.log(xs / 2.0) - (_LOG_FACTORIAL + log_gamma))
    j = np.where(pos, terms.sum(axis=0), 1.0 if nu == 0.0 else 0.0)
    d = np.where(pos, (terms * power / xs).sum(axis=0),
                 0.5 if nu == 1.0 else 0.0)
    return j, d


def _schlaefli(nu: float, x: np.ndarray):
    """(J, J') from Schlaefli's integral, both from the same trig
    matrices; the Legendre integral is folded onto the nodes below
    pi / 2 (see the module docstring)."""
    x_max = float(np.max(x, initial=0.0))
    _check_span(nu, x_max, f"J_{nu:g} at {x_max:g}")
    half = _nodes(nu, x_max) // 2
    t, w = gauss_legendre(2 * half)
    theta = 0.5 * np.pi * (t[:half] + 1.0)
    wt = 0.5 * np.pi * w[:half]
    sin_theta = np.sin(theta)
    # fmod is exact, so cos and sin of nu pi stay accurate at large nu
    r = math.fmod(nu, 2.0)
    c, s = math.cos(math.pi * r), math.sin(math.pi * r)
    cos_nt, sin_nt = np.cos(nu * theta), np.sin(nu * theta)
    # the cos and sin weights of the node and its mirror pi - theta
    a = wt * (cos_nt * (1.0 + c) + s * sin_nt)
    b = wt * (sin_nt * (1.0 - c) + s * cos_nt)
    arg = x[:, None] * sin_theta[None, :]
    cos_arg, sin_arg = np.cos(arg), np.sin(arg)
    j = (cos_arg @ a + sin_arg @ b) / np.pi
    d = (cos_arg @ (b * sin_theta) - sin_arg @ (a * sin_theta)) / np.pi
    if abs(s) > 1e-15:
        u, lw = gauss_laguerre(_TAIL_NODES)
        scale = nu + x[:, None] + 1.0
        tt = u[None, :] / scale
        sinh_tt = np.sinh(tt)
        # integrand times e^{+u}, matching the e^{-u} in the Laguerre
        # weights; the exponent stays bounded by the scale choice
        f = np.exp(-x[:, None] * (sinh_tt - tt)
                   - (nu + x[:, None]) * tt + u[None, :])
        j = j - (s / np.pi) * (f @ lw / scale[:, 0])
        d = d + (s / np.pi) * ((f * sinh_tt) @ lw / scale[:, 0])
    return j, d


def _pair(nu: float, x):
    """(J_nu(x), J_nu'(x)): floats for a float x, arrays of x's shape
    otherwise.  The public functions both call this and never each
    other, so each public call is one span to the benchmark's tracer."""
    if not 0.0 <= nu < math.inf:
        raise BesselFailureError(f"order must be finite and nonnegative: {nu}")
    arr = np.asarray(x, dtype=float)
    if not np.all((0.0 <= arr) & (arr < math.inf)):
        raise BesselFailureError("argument must be finite and nonnegative")
    flat = np.atleast_1d(arr)
    j, d = np.empty_like(flat), np.empty_like(flat)
    small = (flat <= _SERIES_X_MAX) | (flat <= 0.5 * nu)
    for part, fn in ((small, _series), (~small, _schlaefli)):
        if np.any(part):
            j[part], d[part] = fn(nu, flat[part])
    if arr.ndim == 0:
        return float(j[0]), float(d[0])
    return j, d


def bessel_j_pair(nu: float, x):
    """(J_nu(x), J_nu'(x)) for real nu >= 0 and x >= 0 (scalar or array)."""
    return _pair(nu, x)


def bessel_j(nu: float, x):
    """J_nu(x) for real nu >= 0 and x >= 0 (scalar or array)."""
    return _pair(nu, x)[0]


def _ikebe_blocks(nus: np.ndarray, cut: float):
    """(diag, off2): the odd-row blocks of the squared Ikebe matrices of
    the orders nus, truncated by the row rule for cut, one column per
    order: diag[i] and off2[i] hold row i's diagonal and the square of
    its coupling to row i + 1.  A block shorter than the tallest is
    padded with zero rows that no coupling reaches, so their pivots are
    -sigma and never count."""
    # half the rows of the unsquared matrix that the row rule asks for
    rows = np.ceil((1.1 * (cut - nus) + 4.0 * cut ** (1.0 / 3.0) + 10)
                   / 2).astype(int)
    k = np.arange(1, 2 * rows.max())[:, None]
    a = 0.5 / np.sqrt((nus + k) * (nus + k + 1.0))  # a[i] = a_{i+1}
    # the odd rows of the square are B B^T, B lower bidiagonal with
    # diagonal a_1, a_3, ... and subdiagonal a_2, a_4, ...
    d, s = a[0::2], a[1::2]
    diag = d * d
    diag[1:] += s * s
    off2 = (d[:-1] * s) ** 2
    r = np.arange(len(diag))[:, None]
    diag[r >= rows] = 0.0
    off2[r[:-1] + 1 >= rows] = 0.0
    return diag, off2


def _count_above(blocks, cols, sigma) -> np.ndarray:
    """For each point p, the eigenvalues of block cols[p] above sigma[p]:
    the positive pivots of the LDL^T factorization of block - sigma
    (Sturm's count), all points in one pass down the rows."""
    diag, off2 = blocks
    sigma = np.broadcast_to(sigma, np.shape(cols))
    q = diag[0][cols] - sigma
    count = (q > 0).astype(np.int64)
    # a zero pivot divides to -inf below it, the count of sigma + 0
    with np.errstate(divide="ignore"):
        for i in range(1, len(diag)):
            q = (diag[i][cols] - sigma) - off2[i - 1][cols] / q
            count += q > 0
    return count


def _airy_zeros(m: np.ndarray) -> np.ndarray:
    """The m-th zero a_m of Ai: the first three from DLMF Table 9.9.1, the
    rest from the asymptotic series -T(3 pi (4m-1)/8) (DLMF 9.9.6,
    9.9.18) through t^-10, within 1.5e-10 from m = 4 on.  The series errs
    by 5.3e-4 at best at m = 1 and by 5e-7 at m = 2, which would cost a
    second Halley pass on nearly every order."""
    t = 3.0 * np.pi * (4.0 * m - 1.0) / 8.0
    u = t ** -2.0
    tail = 0.0
    for c in reversed(_AIRY_SERIES):
        tail = (tail + c) * u
    series = -t ** (2.0 / 3.0) * (1.0 + tail)
    first = np.minimum(m, len(_AIRY_FIRST)).astype(int) - 1
    return np.where(m <= len(_AIRY_FIRST), np.take(_AIRY_FIRST, first), series)


def _starts(nu: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Starts for the m-th zeros of J_nu, from McMahon's expansion in
    beta = (m + nu/2 - 1/4) pi (DLMF 10.21.19) where its last term is
    below _MCMAHON_TOL or nu < 1, and elsewhere from Olver's uniform
    expansion nu z(zeta) + f1(zeta) / nu with zeta = nu^(-2/3) a_m
    (DLMF 10.20.2, 10.21.43)."""
    b8 = 8.0 * (m + 0.5 * nu - 0.25) * np.pi
    mu = 4.0 * nu * nu
    c = 1.0 / b8
    c2 = c * c
    last = ((mu - 1.0) * (64.0 / 105.0) * c * c2 ** 3
            * (((6949.0 * mu - 153855.0) * mu + 1585743.0) * mu - 6277237.0))
    out = b8 / 8.0 - (mu - 1.0) * c * (
        1.0 + c2 * ((4.0 / 3.0) * (7.0 * mu - 31.0)
                    + c2 * (32.0 / 15.0) * ((83.0 * mu - 982.0) * mu + 3779.0)))
    out -= last
    olver = (np.abs(last) > _MCMAHON_TOL) & (nu >= 1.0)
    if np.any(olver):
        nu, m = nu[olver], m[olver]
        zeta = nu ** (-2.0 / 3.0) * _airy_zeros(m)
        # z(zeta) solves sqrt(z^2 - 1) - arcsec z = w; Newton from the
        # right of the root, where the left side is increasing and convex
        w = (2.0 / 3.0) * (-zeta) ** 1.5
        z = np.maximum(w + 0.5 * np.pi,
                       1.0 + (1.5 * w / math.sqrt(2.0)) ** (2.0 / 3.0))
        for _ in range(7):
            r = np.sqrt(z * z - 1.0)
            z -= (r - np.arccos(1.0 / z) - w) * z / r
        r = np.sqrt(z * z - 1.0)
        h_sq = np.sqrt(4.0 * zeta / (1.0 - z * z))
        b0 = (-5.0 / (48.0 * zeta * zeta)
              + (5.0 / (24.0 * r ** 3) + 1.0 / (8.0 * r)) / np.sqrt(-zeta))
        out[olver] = nu * z + 0.5 * z * h_sq * b0 / nu
    return out


def _halley(nu: float, starts: np.ndarray):
    """(zeros, J_nu' at them) by Halley's iteration on the in-repo J from
    the starts.  J'' = -J'/x - (1 - nu^2/x^2) J costs nothing more, so
    the step is 2 J J' / (2 J'^2 - J J''); a zero's iteration ends once
    its step is at most _HALLEY_STOP, after which the cubic convergence
    leaves it within rounding, and the slope is carried to the new point
    by its Taylor series, J' - J'' step + J''' step^2 / 2."""
    x = starts.copy()
    slopes = np.empty_like(x)
    todo = np.arange(len(x))
    for _ in range(_HALLEY_PASSES):
        if len(todo) == 0:
            return x, slopes
        at = x[todo]
        j, jp = bessel_j_pair(nu, at)
        bend = 1.0 - (nu / at) ** 2
        jpp = -jp / at - bend * j
        jppp = (jp / at - jpp) / at - 2.0 * nu * nu / at ** 3 * j - bend * jp
        step = 2.0 * j * jp / (2.0 * jp * jp - j * jpp)
        x[todo] = at - step
        slopes[todo] = jp - step * (jpp - 0.5 * step * jppp)
        todo = todo[~(np.abs(step) <= _HALLEY_STOP)]  # a NaN step stays
    if len(todo) == 0:
        return x, slopes
    raise BesselFailureError(
        f"Halley's iteration on J_{nu:g} left {len(todo)} zeros unsettled "
        f"after {_HALLEY_PASSES} passes")


def _certify(blocks, nus, cols, index, zeros) -> None:
    """The counts of block cols[p] at z (1 - delta) and z (1 + delta) must
    be m - 1 and m for each zero z = zeros[p] of index m = index[p] of
    the order nus[cols[p]], else BesselFailureError."""
    below = _count_above(blocks, cols, (zeros * (1.0 - _CERT_DELTA)) ** -2)
    above = _count_above(blocks, cols, (zeros * (1.0 + _CERT_DELTA)) ** -2)
    bad = np.nonzero((below != index - 1) | (above != index))[0]
    if len(bad):
        p = bad[0]
        raise BesselFailureError(
            f"zero {index[p]} of J_{nus[cols[p]]:g} placed at {zeros[p]:.15g}: "
            f"the Ikebe count finds {below[p]} zeros below it and "
            f"{above[p]} up to it; zeros failing the count: {len(bad)}")


def _solve(nus: list, x_max: float) -> list:
    """[(zeros of J_nu up to x_max, J_nu' at them)] for the orders nus,
    each below x_max: counted, started, placed and certified in one
    batch."""
    orders = np.array(nus, dtype=float)
    # the count reaches a little past x_max, so a zero that the matrix
    # puts just above it is still placed; the placed values decide
    cut = x_max + _COUNT_MARGIN
    blocks = _ikebe_blocks(orders, cut)
    counts = _count_above(blocks, np.arange(len(nus)), cut ** -2)
    # one entry per zero: its order's column and its index m
    cols = np.repeat(np.arange(len(nus)), counts)
    ends = np.cumsum(counts)
    index = np.arange(1, len(cols) + 1) - np.repeat(ends - counts, counts)
    starts = _starts(orders[cols], index.astype(float))
    placed = [_halley(nu, part)
              for nu, part in zip(nus, np.split(starts, ends[:-1]))]
    _certify(blocks, orders, cols, index,
             np.concatenate([zeros for zeros, _ in placed]))
    out = []
    for zeros, slopes in placed:
        keep = zeros <= x_max
        zeros, slopes = zeros[keep], slopes[keep]
        zeros.flags.writeable = slopes.flags.writeable = False
        out.append((zeros, slopes))
    return out


# (nu, x_max) -> (zeros, slopes), read-only, for the orders of the
# latest batch
_held: dict = {}
_EMPTY = np.array([])
_EMPTY.flags.writeable = False


def _zero_batch(nus, x_max: float) -> list:
    """[(zeros of J_nu up to x_max, J_nu' at them) for nu in nus], both
    read-only.  The orders not held are solved in one batch, and then
    the orders of nus replace what is held, so a cone mode build that
    asks for its ladder of orders first finds each order held when it
    reads it through `bessel_j_zeros`."""
    if not math.isfinite(x_max):
        raise BesselFailureError(f"x_max must be finite: {x_max}")
    for nu in nus:
        if not (math.isfinite(nu) and nu >= 0):
            raise BesselFailureError(
                f"order must be finite and nonnegative: {nu}")
    missing = sorted({nu for nu in nus
                      if nu < x_max and (nu, x_max) not in _held})
    for nu in missing:
        _check_span(nu, x_max, f"zeros of J_{nu:g} up to {x_max:g}")
    fresh = dict(zip(missing, _solve(missing, x_max))) if missing else {}
    got = [fresh[nu] if nu in fresh
           else _held.get((nu, x_max), (_EMPTY, _EMPTY)) for nu in nus]
    if fresh:
        _held.clear()
        _held.update(((nu, x_max), pair) for nu, pair in zip(nus, got))
    return got


def bessel_j_zeros(nu: float, x_max: float) -> np.ndarray:
    """All positive zeros of J_nu up to x_max, each within rounding of
    the in-repo J."""
    return _zero_batch((nu,), x_max)[0][0].copy()
