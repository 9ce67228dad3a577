"""DOP853, the explicit Runge-Kutta pair of order 8(5, 3) of Dormand and
Prince with its order-7 dense output (Hairer, Nørsett and Wanner,
*Solving Ordinary Differential Equations I*, 2nd ed., §II.5, and their
Fortran code DOP853), and Brent's root finder for its events.  Every
geodesic leg (`geodesics`) and every Jacobi solve (`jacobi`) runs on it.

The algorithm is the one scipy.integrate's DOP853 implements, step for
step: the same tableau; the initial step of HNW §II.4; the error norm
that blends the fifth- and third-order estimates E5 and E3 over the
scale atol + rtol max(|y|, |y_new|); and the step control
h <- h min(10, max(0.2, 0.9 err^(-1/8))), with no growth right after a
rejection.  Terminal events are found the same way too: g changes sign
between two accepted steps in the event's direction, and Brent's method
on that step's interpolant, with xtol = rtol = 4 eps, places it.  The
stage sums are grouped differently from scipy's, and the E5 estimate
cancels to about 1e-10 of its terms, so step sizes differ from scipy's
by about 1e-7 relative and solutions agree to the tolerance.

What differs is the cost of a step:

* the stages of an attempt go into one (16, n) array, which an accepted
  step keeps, and each stage's argument is one row combination
  y + (h A)[s] @ K;
* a step's dense output (three more stages and the D @ K product) is
  built only when its interpolant is first read inside the step: event
  location reads the last step's, and a path's samples read a few
  others; a read at the step's end, such as a run's end state, is
  y0 + (y1 - y0), the interpolant's value there, and builds nothing;
* `Solution` evaluates one time by a bisection and seven weights, and
  many times by one product over the steps they fall in.

A non-finite state or error estimate raises StepFailureError at once,
where scipy shrinks the step to its floor first; so does a step that
falls below ten units in the last place of t.  Integration runs forward
only (t1 >= t0).  Because a step's three dense-output stages run when
its interpolant is first read, an exception that `fun` raises only on
one of them comes out of that read, a `Solution` call that may come
long after `solve` returned, and not out of `solve`; scipy, asked for
dense output, evaluates them during the solve.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergenceError, StepFailureError

__all__ = ["Result", "Solution", "brent", "solve"]

N_STAGES = 12  # stages of a step; row 12 of K is f at the step's end
N_EXTENDED = 16  # with the three stages that only the dense output needs

C = np.array([
    0.0,
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
    1.0,
    0.1,
    0.2,
    0.777777777777777777777777777778,
])

_A_ROWS = {
    1: {0: 5.26001519587677318785587544488e-2},
    2: {0: 1.97250569845378994544595329183e-2,
        1: 5.91751709536136983633785987549e-2},
    3: {0: 2.95875854768068491816892993775e-2,
        2: 8.87627564304205475450678981324e-2},
    4: {0: 2.41365134159266685502369798665e-1,
        2: -8.84549479328286085344864962717e-1,
        3: 9.24834003261792003115737966543e-1},
    5: {0: 3.7037037037037037037037037037e-2,
        3: 1.70828608729473871279604482173e-1,
        4: 1.25467687566822425016691814123e-1},
    6: {0: 3.7109375e-2,
        3: 1.70252211019544039314978060272e-1,
        4: 6.02165389804559606850219397283e-2,
        5: -1.7578125e-2},
    7: {0: 3.70920001185047927108779319836e-2,
        3: 1.70383925712239993810214054705e-1,
        4: 1.07262030446373284651809199168e-1,
        5: -1.53194377486244017527936158236e-2,
        6: 8.27378916381402288758473766002e-3},
    8: {0: 6.24110958716075717114429577812e-1,
        3: -3.36089262944694129406857109825,
        4: -8.68219346841726006818189891453e-1,
        5: 2.75920996994467083049415600797e1,
        6: 2.01540675504778934086186788979e1,
        7: -4.34898841810699588477366255144e1},
    9: {0: 4.77662536438264365890433908527e-1,
        3: -2.48811461997166764192642586468,
        4: -5.90290826836842996371446475743e-1,
        5: 2.12300514481811942347288949897e1,
        6: 1.52792336328824235832596922938e1,
        7: -3.32882109689848629194453265587e1,
        8: -2.03312017085086261358222928593e-2},
    10: {0: -9.3714243008598732571704021658e-1,
         3: 5.18637242884406370830023853209,
         4: 1.09143734899672957818500254654,
         5: -8.14978701074692612513997267357,
         6: -1.85200656599969598641566180701e1,
         7: 2.27394870993505042818970056734e1,
         8: 2.49360555267965238987089396762,
         9: -3.0467644718982195003823669022},
    11: {0: 2.27331014751653820792359768449,
         3: -1.05344954667372501984066689879e1,
         4: -2.00087205822486249909675718444,
         5: -1.79589318631187989172765950534e1,
         6: 2.79488845294199600508499808837e1,
         7: -2.85899827713502369474065508674,
         8: -8.87285693353062954433549289258,
         9: 1.23605671757943030647266201528e1,
         10: 6.43392746015763530355970484046e-1},
    # row 12 is B, the weights of the order-8 solution
    12: {0: 5.42937341165687622380535766363e-2,
         5: 4.45031289275240888144113950566,
         6: 1.89151789931450038304281599044,
         7: -5.8012039600105847814672114227,
         8: 3.1116436695781989440891606237e-1,
         9: -1.52160949662516078556178806805e-1,
         10: 2.01365400804030348374776537501e-1,
         11: 4.47106157277725905176885569043e-2},
    13: {0: 5.61675022830479523392909219681e-2,
         6: 2.53500210216624811088794765333e-1,
         7: -2.46239037470802489917441475441e-1,
         8: -1.24191423263816360469010140626e-1,
         9: 1.5329179827876569731206322685e-1,
         10: 8.20105229563468988491666602057e-3,
         11: 7.56789766054569976138603589584e-3,
         12: -8.298e-3},
    14: {0: 3.18346481635021405060768473261e-2,
         5: 2.83009096723667755288322961402e-2,
         6: 5.35419883074385676223797384372e-2,
         7: -5.49237485713909884646569340306e-2,
         10: -1.08347328697249322858509316994e-4,
         11: 3.82571090835658412954920192323e-4,
         12: -3.40465008687404560802977114492e-4,
         13: 1.41312443674632500278074618366e-1},
    15: {0: -4.28896301583791923408573538692e-1,
         5: -4.69762141536116384314449447206,
         6: 7.68342119606259904184240953878,
         7: 4.06898981839711007970213554331,
         8: 3.56727187455281109270669543021e-1,
         12: -1.39902416515901462129418009734e-3,
         13: 2.9475147891527723389556272149,
         14: -9.15095847217987001081870187138},
}
A = np.zeros((N_EXTENDED, N_EXTENDED))
for _row, _entries in _A_ROWS.items():
    for _col, _value in _entries.items():
        A[_row, _col] = _value
B = A[N_STAGES, :N_STAGES]

# the fifth- and third-order error estimates, over K's first 13 rows
E5 = np.zeros(N_STAGES + 1)
for _col, _value in {0: 0.1312004499419488073250102996e-1,
                     5: -0.1225156446376204440720569753e+1,
                     6: -0.4957589496572501915214079952,
                     7: 0.1664377182454986536961530415e+1,
                     8: -0.3503288487499736816886487290,
                     9: 0.3341791187130174790297318841,
                     10: 0.8192320648511571246570742613e-1,
                     11: -0.2235530786388629525884427845e-1}.items():
    E5[_col] = _value
E3 = np.zeros(N_STAGES + 1)
E3[:-1] = B
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1

# the dense output's last four coefficient rows; the first three are
# closed forms in the step's ends
D = np.zeros((4, N_EXTENDED))
_D_ROWS = (
    {0: -0.84289382761090128651353491142e+1,
     5: 0.56671495351937776962531783590,
     6: -0.30689499459498916912797304727e+1,
     7: 0.23846676565120698287728149680e+1,
     8: 0.21170345824450282767155149946e+1,
     9: -0.87139158377797299206789907490,
     10: 0.22404374302607882758541771650e+1,
     11: 0.63157877876946881815570249290,
     12: -0.88990336451333310820698117400e-1,
     13: 0.18148505520854727256656404962e+2,
     14: -0.91946323924783554000451984436e+1,
     15: -0.44360363875948939664310572000e+1},
    {0: 0.10427508642579134603413151009e+2,
     5: 0.24228349177525818288430175319e+3,
     6: 0.16520045171727028198505394887e+3,
     7: -0.37454675472269020279518312152e+3,
     8: -0.22113666853125306036270938578e+2,
     9: 0.77334326684722638389603898808e+1,
     10: -0.30674084731089398182061213626e+2,
     11: -0.93321305264302278729567221706e+1,
     12: 0.15697238121770843886131091075e+2,
     13: -0.31139403219565177677282850411e+2,
     14: -0.93529243588444783865713862664e+1,
     15: 0.35816841486394083752465898540e+2},
    {0: 0.19985053242002433820987653617e+2,
     5: -0.38703730874935176555105901742e+3,
     6: -0.18917813819516756882830838328e+3,
     7: 0.52780815920542364900561016686e+3,
     8: -0.11573902539959630126141871134e+2,
     9: 0.68812326946963000169666922661e+1,
     10: -0.10006050966910838403183860980e+1,
     11: 0.77771377980534432092869265740,
     12: -0.27782057523535084065932004339e+1,
     13: -0.60196695231264120758267380846e+2,
     14: 0.84320405506677161018159903784e+2,
     15: 0.11992291136182789328035130030e+2},
    {0: -0.25693933462703749003312586129e+2,
     5: -0.15418974869023643374053993627e+3,
     6: -0.23152937917604549567536039109e+3,
     7: 0.35763911791061412378285349910e+3,
     8: 0.93405324183624310003907691704e+2,
     9: -0.37458323136451633156875139351e+2,
     10: 0.10409964950896230045147246184e+3,
     11: 0.29840293426660503123344363579e+2,
     12: -0.43533456590011143754432175058e+2,
     13: 0.96324553959188282948394950600e+2,
     14: -0.39177261675615439165231486172e+2,
     15: -0.14972683625798562581422125276e+3},
)
for _row, _entries in enumerate(_D_ROWS):
    for _col, _value in _entries.items():
        D[_row, _col] = _value
del _row, _col, _value, _entries

SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0
ERROR_EXPONENT = -1.0 / 8.0  # -1 / (error estimator order 7 + 1)
EPS = float(np.finfo(float).eps)
# Brent's method stops once the bracket's half-width is below
# (xtol + BRENT_RTOL |x|) / 2, or fails after BRENT_MAXITER iterations
# (brentq's defaults); an event is placed with xtol = BRENT_RTOL
BRENT_RTOL = 4 * EPS
BRENT_MAXITER = 100

# E5 and E3 padded to K's 16 rows, so one product gives both estimates
_E53 = np.zeros((2, N_EXTENDED))
_E53[0, :N_STAGES + 1] = E5
_E53[1, :N_STAGES + 1] = E3
_C = C.tolist()
_A_STEP = A[:N_STAGES + 1]  # the stages' rows and B


class _Step:
    """One accepted step from t0 to t0 + h.  Its stages K are kept, and
    the interpolant's coefficients are built from them on first use."""

    __slots__ = ("fun", "t0", "h", "y0", "y1", "K", "_G")

    def __init__(self, fun, t0, h, y0, y1, K):
        self.fun, self.t0, self.h = fun, t0, h
        self.y0, self.y1, self.K = y0, y1, K
        self._G = None

    @classmethod
    def constant(cls, t0: float, y: np.ndarray) -> "_Step":
        """The step of a zero-length span: y at every t."""
        step = cls(None, t0, 1.0, y, y, None)
        step._G = np.zeros((8, y.size))
        step._G[7] = y
        return step

    def coefficients(self) -> np.ndarray:
        """Rows F_0 .. F_6 of the interpolant, then y0."""
        if self._G is None:
            K, h, t0, y0 = self.K, self.h, self.t0, self.y0
            for s in range(N_STAGES + 1, N_EXTENDED):
                K[s] = self.fun(t0 + _C[s] * h, y0 + (h * A[s]) @ K)
            G = np.empty((8, y0.size))
            dy = self.y1 - y0
            G[0] = dy
            G[1] = h * K[0] - dy
            G[2] = 2.0 * dy - h * (K[N_STAGES] + K[0])
            G[3:7] = h * (D @ K)
            G[7] = y0
            self._G = G
        return self._G

    def __call__(self, t: float) -> np.ndarray:
        x = (t - self.t0) / self.h
        if x == 1.0 and self._G is None:
            # the step's end: every weight but those of F_0 = y1 - y0 and
            # y0 is 0, so the interpolant reads y0 + F_0 without being built
            return self.y0 + (self.y1 - self.y0)
        u = 1.0 - x
        w1 = x * u
        w2 = w1 * x
        w3 = w2 * u
        w4 = w3 * x
        w5 = w4 * u
        return np.dot((x, w1, w2, w3, w4, w5, w5 * x, 1.0), self.coefficients())


class Solution:
    """Dense output of a run of accepted steps: step i answers on
    [ts[i], ts[i+1]], a time on a step boundary belongs to the step
    before it, and a time outside [ts[0], ts[-1]] is extrapolated from
    the nearer end step (the conventions of scipy's OdeSolution).

    Step i's interpolant, with x = (t - t0_i) / h_i and u = 1 - x, is
    y0 + F_0 x + F_1 x u + F_2 x^2 u + F_3 x^2 u^2 + F_4 x^3 u^2
    + F_5 x^3 u^3 + F_6 x^4 u^3.  Called with a float the solution
    returns the state, shape (n,); with an array of times, shape
    (n,) + t.shape."""

    def __init__(self, ts, steps):
        self._ts = [float(t) for t in ts]
        self.ts = np.array(self._ts)
        self.steps = list(steps)

    def __call__(self, t):
        if np.ndim(t) == 0:
            t = float(t)
            return self.steps[self._index(t)](t)
        t = np.asarray(t, dtype=float)
        flat = t.reshape(-1)
        which = np.clip(np.searchsorted(self.ts, flat, side="left") - 1,
                        0, len(self.steps) - 1)
        used, pos = np.unique(which, return_inverse=True)
        steps = [self.steps[i] for i in used]
        G = np.stack([step.coefficients() for step in steps])[pos]
        x = ((flat - np.array([step.t0 for step in steps])[pos])
             / np.array([step.h for step in steps])[pos])
        u = 1.0 - x
        W = np.empty((flat.size, 8))
        W[:, 0] = x
        for k in range(1, 7):
            np.multiply(W[:, k - 1], u if k % 2 else x, out=W[:, k])
        W[:, 7] = 1.0
        return np.einsum("mk,mkn->nm", W, G).reshape((-1,) + t.shape)

    def knots(self):
        """Each step's start time and the state stored there, shape
        (n, steps): the solution at every step boundary but the last,
        read without building an interpolant."""
        return self.ts[:-1], np.array([step.y0 for step in self.steps]).T

    def _index(self, t: float) -> int:
        i = bisect.bisect_left(self._ts, t) - 1
        return min(max(i, 0), len(self.steps) - 1)

    @classmethod
    def joined(cls, solutions) -> "Solution":
        """One solution from runs that each start where the last ended."""
        ts, steps = solutions[0]._ts[:1], []
        for sol in solutions:
            ts += sol._ts[1:]
            steps += sol.steps
        return cls(ts, steps)


@dataclass
class Result:
    """Where a run stopped: at t1, or at the first terminal event."""

    t: float
    y: np.ndarray
    sol: Solution
    event: int | None  # index of the event that stopped the run


def _rms(x: np.ndarray) -> float:
    return math.sqrt(float(x @ x)) / math.sqrt(x.size)


def _initial_step(fun, t0, y0, f0, span, rtol, atol) -> float:
    """HNW §II.4's starting step for an error estimator of order 7."""
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    f1 = np.asarray(fun(t0 + h0, y0 + h0 * f0), dtype=float)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    return min(100 * h0, h1, span)


def _crossed(g_old: float, g_new: float, direction: float) -> bool:
    if direction > 0:
        return g_old <= 0 <= g_new
    if direction < 0:
        return g_old >= 0 >= g_new
    return g_old <= 0 <= g_new or g_old >= 0 >= g_new


def solve(fun, t0: float, t1: float, y0, *, rtol: float, atol,
          events=()) -> Result:
    """Integrate y' = fun(t, y) from y(t0) = y0 up to t1 >= t0.

    `atol` is a float or one value per component.  Each event is a pair
    (g, direction) with g(y) a float: the run stops at the first zero of
    any g that it crosses in that direction (rising for +1, falling for
    -1, either for 0), between two accepted steps.  StepFailureError on
    a step below its floor or a non-finite state or error estimate.
    """
    t0, t1 = float(t0), float(t1)
    if not t1 >= t0:
        raise ValueError(f"integration runs forward only, not from {t0!r} to {t1!r}")
    y = np.array(y0, dtype=float)
    n = y.size
    if t1 == t0:
        return Result(t1, y, Solution([t0, t1], [_Step.constant(t0, y)]), None)
    atol = np.broadcast_to(np.asarray(atol, dtype=float), (n,))
    f = np.asarray(fun(t0, y), dtype=float)
    h_abs = _initial_step(fun, t0, y, f, t1 - t0, rtol, atol)
    g = [gv(y) for gv, _ in events]
    ts, steps = [t0], []
    t = t0
    while t < t1:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise StepFailureError(
                    f"step size {h_abs:.3g} fell below its floor at t = {t:.17g}")
            # zeroed, since each stage's row combination spans all 16 rows
            K = np.zeros((N_EXTENDED, n))
            K[0] = f
            t_new = min(t + h_abs, t1)
            h = t_new - t
            h_abs = h
            hA = h * _A_STEP
            for s in range(1, N_STAGES):
                K[s] = fun(t + _C[s] * h, y + hA[s] @ K)
            y_new = y + hA[N_STAGES] @ K
            K[N_STAGES] = fun(t_new, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err = (_E53 @ K) / scale
            e5, e3 = float(err[0] @ err[0]), float(err[1] @ err[1])
            if e5 == 0 and e3 == 0:
                error_norm = 0.0
            else:
                error_norm = h * e5 / math.sqrt((e5 + 0.01 * e3) * n)
            if not math.isfinite(error_norm):
                raise StepFailureError(
                    f"non-finite error estimate in the step from t = {t:.17g}")
            if error_norm < 1:
                factor = (MAX_FACTOR if error_norm == 0 else
                          min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT))
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True
        # a non-finite stage shows in the error estimate, but f at the
        # step's end does not enter it
        if not np.isfinite(y_new + K[N_STAGES]).all():
            raise StepFailureError(f"non-finite state or slope at t = {t_new:.17g}")
        step = _Step(fun, t, h, y, y_new, K)
        steps.append(step)
        t, y, f = t_new, y_new, K[N_STAGES]
        ts.append(t)
        if events:
            g_new = [gv(y) for gv, _ in events]
            hit = None
            for i, ((gv, direction), a, b) in enumerate(zip(events, g, g_new)):
                if _crossed(a, b, direction):
                    root = brent(lambda s, _gv=gv: _gv(step(s)), step.t0, t,
                                 xtol=BRENT_RTOL)
                    if hit is None or root < hit[0]:
                        hit = (root, i)
            if hit is not None:
                ts[-1] = hit[0]
                return Result(hit[0], step(hit[0]), Solution(ts, steps), hit[1])
            g = g_new
    return Result(t, y, Solution(ts, steps), None)


def brent(f, a: float, b: float, *, xtol: float) -> float:
    """A zero of f between a and b, where f(a) and f(b) differ in sign,
    by Brent's method (R. P. Brent, *Algorithms for Minimization without
    Derivatives*, 1973, ch. 4), iteration for iteration as
    scipy.optimize.brentq runs it with its default rtol and maxiter: done
    once the bracket's half-width is below (xtol + BRENT_RTOL |x|) / 2.
    ValueError for a bracket without a sign change or a NaN value of f,
    NoConvergenceError after BRENT_MAXITER iterations."""
    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"f is NaN at x = {x!r}")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and (math.copysign(1.0, fpre)
                                        != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic extrapolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # a good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise NoConvergenceError(
        f"Brent's method did not converge in {BRENT_MAXITER} iterations")
