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
  most half the order (x <= nu / 2), its first 60 terms summed in
  order, each as exp of its logarithm to dodge overflow (math.lgamma for
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
  a multiple of 64, each point on its own rung.  The total
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
  sin t is even: at t = pi / 2 +- tau the phase is
  nu pi / 2 - x cos tau +- nu tau, so a node's cosine and its mirror's
  add to 2 cos(nu tau) cos(x sin t - nu pi / 2).  That folds the
  Legendre sum onto the half of the nodes below pi / 2, whose part of J
  and J' (the Laguerre tail aside) is
      J  = sum W cos(phi) / pi,    J' = -sum W sin t sin(phi) / pi,
  with phi = x sin t - nu pi / 2 over points and half-nodes and the
  per-node weight W = 2 w cos(nu tau), w the node's Legendre weight.
  So J and J' together take one cos and one sin per point and
  half-node, half the trig work of evaluating the phase on every node.
  nu pi / 2 comes from nu reduced mod 4, which keeps it accurate at
  large orders.

A call takes an array of orders that broadcasts with the arguments (a
scalar order takes the same path), so a cone mode build evaluates all
its orders at once.  The Schlaefli points are grouped by rung and, in a
rung, sorted by order; they go in chunks of at most 2^13 point-nodes,
and a chunk builds the weights W of the orders it holds, so the orders
of a rung share one Legendre rule and no weight table spans a whole
rung.  A point's J and J' depend on its own order and argument alone:
a batch gives every point its scalar call's values, bit for bit.

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
  free, over every zero of the batch: each pass evaluates all the
  unsettled zeros of every order in one `bessel_j_pair` call.  A zero
  is done once its step is at most 1e-6, which the cubic convergence
  leaves within rounding, and J' is carried to it by the step's Taylor
  series.  With the first three Airy zeros from a table, one pass
  settles all but a few zeros of the ladder, and a second the rest;
* certify: the counts at z (1 - 1e-8) and z (1 + 1e-8) must be m - 1
  and m for the m-th zero z, else BesselFailureError.  A start that
  Halley drives onto a neighbouring zero leaves a true zero of J in the
  wrong place, which only this index check sees.  Each zero is counted
  on its order's block truncated by the row rule for cut = z (1 + 1e-8),
  which holds every zero up to that cut.  Taken tallest truncation
  first, the zeros still counting at a row are a prefix of them, so
  the pass down the rows does about half the work of counting every
  zero on the block for x_max.

The eigenvalues know nothing of the quadrature, so the two check each
other, and nothing here calls a library Bessel function or eigensolver:
the package needs numpy alone, and tests use those libraries as ground
truth.  On every order of the cone mode builds of criterion 3 and of
the benchmark's cone_front workload, and on the row-rule scan of the
tests (34,720 zeros), the zeros match a LAPACK eigensolve of the same
blocks followed by one Newton step of J within 3.4e-16 relative (all
but the first zero of J_1, at x = 3.83 in the series regime: 6.7e-16,
and 9.2e-16 from mpmath's), and J' at them within 1.2e-13; against
scipy, the mode builds' zeros lie within 1.0e-15 relative of its jv's
and J' at them within 2.0e-13 of its jvp.

Everything is deterministic and vectorized over the order and the
argument.
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
# the series and the integral build their matrices of points by terms or
# nodes in chunks of at most this many elements
_CHUNK = 1 << 13
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


def _nodes(nu, x):
    """Legendre node count for the Schlaefli integral at each point: the
    rung at or above 0.8 (nu + x) + 40, nu + x being the top frequency
    of its integrand."""
    return _GL_RUNG * np.ceil((0.8 * (nu + x) + 40) / _GL_RUNG).astype(int)


def _check_span(nu, x, what: str) -> None:
    """Refuse a point of the 1-D nu and x, broadcast together, whose phase
    variation nu pi + 2 x exceeds _SPAN_TOP; `what` names the worst
    point, formatted with its nu and x."""
    span = nu * math.pi + 2.0 * x
    if np.any(span > _SPAN_TOP):
        worst = np.argmax(span)
        name = what.format(nu=np.broadcast_to(nu, span.shape)[worst],
                           x=np.broadcast_to(x, span.shape)[worst])
        raise BesselFailureError(
            f"{name}: phase variation {span[worst]:.6g} exceeds "
            f"{_SPAN_TOP:g}, the domain the Gauss-Legendre rule is checked on")


def _series(nu, x: np.ndarray):
    """(J, J') from the first _SERIES_TERMS terms of the ascending series,
    nu broadcast against the 1-D x: one column of terms per point, in
    chunks of at most _CHUNK terms, summed down the columns in order."""
    nu = np.broadcast_to(nu, x.shape)
    orders, which = np.unique(nu, return_inverse=True)
    # log Gamma(nu + m + 1), one row per term m and one column per order,
    # taken one float at a time
    log_gamma = np.fromiter(
        (math.lgamma(v + m + 1.0) for m in range(_SERIES_TERMS)
         for v in orders.tolist()),
        float, _SERIES_TERMS * len(orders)).reshape(_SERIES_TERMS, -1)
    m = np.arange(_SERIES_TERMS, dtype=float)[:, None]
    sign = np.where(m % 2 == 0, 1.0, -1.0)
    j, d = np.empty_like(x), np.empty_like(x)
    size = _CHUNK // _SERIES_TERMS
    for lo in range(0, len(x), size):
        part = slice(lo, lo + size)
        xp, order = x[part], nu[part]
        pos = xp > 0  # x = 0 takes the limits below
        xs = np.where(pos, xp, 1.0)
        power = 2.0 * m + order
        terms = log_gamma[:, which[part]]
        terms += _LOG_FACTORIAL
        np.subtract(power * np.log(xs / 2.0), terms, out=terms)
        np.exp(terms, out=terms)
        terms *= sign
        power *= terms
        power /= xs
        # cumsum adds in order whatever the number of columns, where a
        # sum over a single column would add the terms pairwise
        j[part] = np.where(pos, np.cumsum(terms, axis=0, out=terms)[-1],
                           np.where(order == 0.0, 1.0, 0.0))
        d[part] = np.where(pos, np.cumsum(power, axis=0, out=power)[-1],
                           np.where(order == 1.0, 0.5, 0.0))
    return j, d


def _schlaefli(nu, x: np.ndarray):
    """(J, J') from Schlaefli's integral, nu broadcast against the 1-D x,
    both from the same trig matrices; the Legendre integral is folded
    onto the nodes below pi / 2 (see the module docstring).  Each point
    takes its own rung, and the points of a rung go in chunks of at most
    _CHUNK point-nodes, each chunk with one row of weights per order."""
    nu = np.broadcast_to(nu, x.shape)
    _check_span(nu, x, "J_{nu:g} at {x:g}")
    half = _nodes(nu, x) // 2
    j, d = np.empty_like(x), np.empty_like(x)
    # a set, not np.unique, whose first call loads numpy.ma (about 10 ms)
    for h in sorted(set(half.tolist())):
        points = np.flatnonzero(half == h)
        # by order, so that each chunk takes a run of neighbouring orders;
        # which[i] is the rank of the order of points[i] among the rung's
        ladder = nu[points]
        by_order = np.argsort(ladder, kind="stable")
        points, ladder = points[by_order], ladder[by_order]
        fresh = np.concatenate([[True], ladder[1:] != ladder[:-1]])
        orders, which = ladder[fresh], np.cumsum(fresh) - 1
        # the phase shift nu pi / 2 of each order, from nu mod 4, which is
        # exact, so the shift stays accurate at large nu
        shift = 0.5 * np.pi * np.fmod(orders, 4.0)
        t, w = gauss_legendre(2 * h)
        tau = 0.5 * np.pi * t[:h]  # t - pi / 2 at the nodes below pi / 2
        wt = np.pi * w[:h]
        sin_t = np.cos(tau)
        size = max(1, _CHUNK // h)
        for lo in range(0, len(points), size):
            p = points[lo:lo + size]
            row = which[lo:lo + size]
            run = slice(row[0], row[-1] + 1)
            row = row - row[0]
            # the weight of a node and its mirror, one row per point
            weight = (wt * np.cos(orders[run, None] * tau))[row]
            phase = x[p, None] * sin_t
            phase -= shift[run][row, None]
            cos_phase = np.cos(phase)
            sin_phase = np.sin(phase, out=phase)
            cos_phase *= weight
            sin_phase *= weight
            sin_phase *= sin_t
            j[p] = cos_phase.sum(axis=1)
            d[p] = sin_phase.sum(axis=1)
    j /= np.pi
    d /= -np.pi
    s = np.sin(np.pi * np.fmod(nu, 2.0))
    tail = np.flatnonzero(np.abs(s) > 1e-15)
    if len(tail):
        u, lw = gauss_laguerre(_TAIL_NODES)
        size = _CHUNK // _TAIL_NODES
        for lo in range(0, len(tail), size):
            p = tail[lo:lo + size]
            xp, top = x[p, None], nu[p, None] + x[p, None]
            scale = top + 1.0
            tt = u / scale
            sinh_tt = np.sinh(tt)
            # integrand times e^{+u}, matching the e^{-u} in the Laguerre
            # weights; the exponent stays bounded by the scale choice
            f = np.exp(-xp * (sinh_tt - tt) - top * tt + u) * lw
            j[p] -= (s[p] / np.pi) * (f.sum(axis=1) / scale[:, 0])
            d[p] += (s[p] / np.pi) * ((f * sinh_tt).sum(axis=1) / scale[:, 0])
    return j, d


def _pair(nu, x):
    """(J_nu(x), J_nu'(x)) with nu and x broadcast together: floats where
    both are floats, arrays of the broadcast shape otherwise.  The public
    functions both call this and never each other, so each public call
    is one span to the benchmark's tracer."""
    orders = np.asarray(nu, dtype=float)
    arr = np.asarray(x, dtype=float)
    shape = np.broadcast_shapes(orders.shape, arr.shape)
    bad = ~((0.0 <= orders) & (orders < math.inf))
    if np.any(bad):
        raise BesselFailureError(
            f"order must be finite and nonnegative: {orders[bad].flat[0]}")
    if not np.all((0.0 <= arr) & (arr < math.inf)):
        raise BesselFailureError("argument must be finite and nonnegative")
    flat_nu = np.broadcast_to(orders, shape).ravel()
    flat = np.broadcast_to(arr, shape).ravel()
    j, d = np.empty_like(flat), np.empty_like(flat)
    small = (flat <= _SERIES_X_MAX) | (flat <= 0.5 * flat_nu)
    for part, fn in ((small, _series), (~small, _schlaefli)):
        if np.any(part):
            j[part], d[part] = fn(flat_nu[part], flat[part])
    if not shape:
        return float(j[0]), float(d[0])
    return j.reshape(shape), d.reshape(shape)


def bessel_j_pair(nu, x):
    """(J_nu(x), J_nu'(x)) for real nu >= 0 and x >= 0, scalars or arrays
    that broadcast together."""
    return _pair(nu, x)


def bessel_j(nu, x):
    """J_nu(x) for real nu >= 0 and x >= 0, scalars or arrays that
    broadcast together."""
    return _pair(nu, x)[0]


def _rows(nus, cut):
    """Half the rows of the unsquared Ikebe matrix of order nus that the
    row rule asks for to hold the zeros up to cut: the height of the
    odd-row block."""
    return np.ceil((1.1 * (cut - nus) + 4.0 * cut ** (1.0 / 3.0) + 10)
                   / 2).astype(int)


def _ikebe_blocks(nus: np.ndarray, cut: float):
    """(diag, off2): the odd-row blocks of the squared Ikebe matrices of
    the orders nus, truncated by the row rule for cut, one column per
    order: diag[i] and off2[i] hold row i's diagonal and the square of
    its coupling to row i + 1.  A block shorter than the tallest is
    padded with zero rows that no coupling reaches, so their pivots are
    -sigma and never count."""
    rows = _rows(nus, cut)
    k = np.arange(1, 2 * rows.max())[:, None]
    # a[i] = a_{i+1} = 0.5 / sqrt((nu + i + 1) (nu + i + 2)), in place
    a = nus + k
    a *= a + 1.0
    np.divide(0.5, np.sqrt(a, out=a), out=a)
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


def _count_above(blocks, cols, sigma, rows=None) -> np.ndarray:
    """For each point p, the eigenvalues above sigma[p] of block cols[p]
    truncated to its first rows[p] rows (default: all of them): the
    positive pivots of the LDL^T factorization of block - sigma (Sturm's
    count), all points in one pass down the rows.  The points are taken
    tallest truncation first, so each row updates a prefix of them."""
    diag, off2 = blocks
    cols = np.asarray(cols)
    height = len(diag)
    rows = np.broadcast_to(np.minimum(height if rows is None else rows,
                                      height), cols.shape)
    order = np.argsort(-rows, kind="stable")
    cols = cols[order]
    sigma = np.broadcast_to(sigma, cols.shape)[order]
    # reach[i]: the number of points whose truncated block has row i
    reach = len(cols) - np.cumsum(np.bincount(rows, minlength=height))
    q = diag[0][cols] - sigma
    count = (q > 0).astype(np.int32)
    # a zero pivot divides to -inf below it, the count of sigma + 0
    with np.errstate(divide="ignore"):
        for i in range(1, height):
            n = reach[i]
            if n == 0:
                break
            c = cols[:n]
            q = q[:n]
            np.divide(off2[i - 1][c], q, out=q)
            np.subtract(diag[i][c] - sigma[:n], q, out=q)
            count[:n] += q > 0
    out = np.empty_like(count)
    out[order] = count
    return out


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


def _halley_step(order: np.ndarray, at: np.ndarray):
    """(new point, J' there, step) of one Halley step from the points at
    toward zeros of J_order.  J'' = -J'/x - (1 - nu^2/x^2) J costs
    nothing more, so the step is 2 J J' / (2 J'^2 - J J''), and the slope
    is carried to the new point by its Taylor series,
    J' - J'' step + J''' step^2 / 2.  The arithmetic runs in place on the
    step's own arrays, each operation the one these formulas take, in
    their order, so the results are theirs bit for bit."""
    j, jp = bessel_j_pair(order, at)
    # bend = 1 - (nu / x)^2
    bend = np.divide(order, at)
    np.multiply(bend, bend, out=bend)
    np.subtract(1.0, bend, out=bend)
    # jpp = -J' / x - bend J
    jpp = np.divide(jp, at)
    np.negative(jpp, out=jpp)
    tmp = np.multiply(bend, j)
    jpp -= tmp
    # jppp = (J' / x - jpp) / x - 2 nu^2 / x^3 J - bend J'
    jppp = np.divide(jp, at)
    jppp -= jpp
    jppp /= at
    np.multiply(order, 2.0, out=tmp)
    tmp *= order
    cube = np.power(at, 3)
    tmp /= cube
    tmp *= j
    jppp -= tmp
    np.multiply(bend, jp, out=tmp)
    jppp -= tmp
    # step = 2 J J' / (2 J'^2 - J jpp), kept in bend
    step = np.multiply(j, 2.0, out=bend)
    step *= jp
    np.multiply(jp, 2.0, out=cube)
    cube *= jp
    np.multiply(j, jpp, out=tmp)
    cube -= tmp
    step /= cube
    point = np.subtract(at, step, out=cube)
    # J' - step (jpp - step jppp / 2), kept in j
    slope = np.multiply(step, 0.5, out=j)
    slope *= jppp
    np.subtract(jpp, slope, out=slope)
    slope *= step
    np.subtract(jp, slope, out=slope)
    return point, slope, step


def _halley(nu: np.ndarray, m: np.ndarray):
    """(zeros, J' at them) by Halley's iteration on the in-repo J from the
    starts of the m[i]-th zero of J_nu[i]: each pass evaluates all
    unsettled zeros of the batch in one `bessel_j_pair` call.  The first
    pass takes every zero, and while it evaluates J it holds no array of
    the batch but the starts.  A zero's iteration ends once its step is
    at most _HALLEY_STOP, after which the cubic convergence leaves it
    within rounding."""
    x, slopes, step = _halley_step(nu, _starts(nu, m))
    todo = np.flatnonzero(~(np.abs(step) <= _HALLEY_STOP))  # a NaN stays
    for _ in range(_HALLEY_PASSES - 1):
        if len(todo) == 0:
            return x, slopes
        x[todo], slopes[todo], step = _halley_step(nu[todo], x[todo])
        todo = todo[~(np.abs(step) <= _HALLEY_STOP)]
    if len(todo) == 0:
        return x, slopes
    raise BesselFailureError(
        f"Halley's iteration left {len(todo)} zeros unsettled after "
        f"{_HALLEY_PASSES} passes, the first of J_{nu[todo[0]]:g}")


def _certify(nus, cols, index, zeros) -> None:
    """The Ikebe counts at z (1 - delta) and z (1 + delta) must be m - 1
    and m for each zero z = zeros[p] of index m = index[p] of the order
    nus[cols[p]], else BesselFailureError.  Each zero is counted on the
    block of its order truncated by the row rule for cut = z (1 + delta),
    which holds every zero up to that cut."""
    if len(zeros) == 0:
        return
    cut = zeros * (1.0 + _CERT_DELTA)
    blocks = _ikebe_blocks(nus, cut.max())
    rows = _rows(nus[cols], cut)
    below = _count_above(blocks, cols, (zeros * (1.0 - _CERT_DELTA)) ** -2,
                         rows)
    above = _count_above(blocks, cols, cut ** -2, rows)
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
    batch, each pair read-only views of the batch's arrays."""
    orders = np.array(nus, dtype=float)
    # the count reaches a little past x_max, so a zero that the matrix
    # puts just above it is still placed; the placed values decide
    cut = x_max + _COUNT_MARGIN
    counts = _count_above(_ikebe_blocks(orders, cut), np.arange(len(nus)),
                          cut ** -2)
    # one entry per zero: its order's column and its index m
    cols = np.repeat(np.arange(len(nus)), counts)
    index = (np.arange(1, len(cols) + 1)
             - np.repeat(np.cumsum(counts) - counts, counts))
    zeros, slopes = _halley(orders[cols], index)
    _certify(orders, cols, index, zeros)
    keep = zeros <= x_max
    zeros, slopes = zeros[keep], slopes[keep]
    zeros.flags.writeable = slopes.flags.writeable = False
    ends = np.cumsum(np.bincount(cols[keep], minlength=len(nus)))[:-1]
    return list(zip(np.split(zeros, ends), np.split(slopes, ends)))


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
    bad = [nu for nu in nus if not (math.isfinite(nu) and nu >= 0)]
    if bad:
        raise BesselFailureError(
            f"order must be finite and nonnegative: {bad[0]}")
    missing = sorted({nu for nu in nus
                      if nu < x_max and (nu, x_max) not in _held})
    fresh = {}
    if missing:
        _check_span(np.array(missing), x_max, "zeros of J_{nu:g} up to {x:g}")
        fresh = dict(zip(missing, _solve(missing, x_max)))
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
