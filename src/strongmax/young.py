"""Young-function calculus.

Canonical families (powers, t[1+(log+ t)^(n-1)] and its iterates, the
exponential-class dual), convex conjugates, inverses, the O'Neil triple
inequality check, and a tail-exponent classifier for the B*_p
integrability condition.

Evaluation maps are vectorized over numpy arrays of any shape and may
return +inf (extended values are legal for conjugates).

Every conjugate has one evaluation path. A family with a closed form
(t^s, and t(1+log+ t), which is Phi_2 and l_log_l(1)) carries it as the
array map closed_complementary, +inf only where it overflows. Every other
function goes through one numeric kernel: a grid argmax over the whole
double range, the points 0, 2^(8j) for -134 <= j <= 127 and the largest
double, refined by a vectorized golden-section ascent. Where Phi(t)
overflows, the objective s*t - Phi(t) is -inf, or inf - inf, which counts
as -inf; so the kernel needs no cap, and it gives +inf only where s*t
overflows while Phi(t) stays finite.

A family whose Luxemburg equation has a closed form carries a start for
the Luxemburg norm (luxemburg_start): a map from rows (r, k) of cell values
and their weights (cell measure over set measure) to one estimate of each
row's norm, which orlicz then certifies. t^s gives (w sum v^s)^(1/s), and
Phi_2 (also l_log_l(1)) a solve on the sorted row, exact between
consecutive cell values; every other family has none.

Every inverse has one path too: a bisection over the bit patterns of the
doubles in [0, largest double], which are ordered as the doubles are, run
on every point of an array of y in lockstep. It stops at two adjacent
doubles and returns the upper one, b, so that Phi(b) >= y > Phi(the
double below b) holds by construction. An eval gives a 0-d input the bits
of the same value in an array (its powers go through _pow), so the array
inverse equals the scalar calls point for point.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

# the numeric conjugate's grid: 0, every 2^(8j) that is a double (-134 <= j
# <= 127), and the largest double
CONJ_GRID = np.concatenate([[0.0], np.ldexp(1.0, 8 * np.arange(-134, 128)),
                            [np.finfo(np.float64).max]])
MAX_BITS = int(np.finfo(np.float64).max.view(np.int64))  # the largest double's bit pattern
ONEIL_SAMPLES = tuple(np.logspace(-6, 9, 61))  # the t of the O'Neil triple check
BP_EPS = 0.05  # half-width of the borderline band of B*_p tail exponents


class YoungFunctionError(ValueError):
    pass


@dataclass(frozen=True)
class YoungFunction:
    """Evaluable convex increasing function with Phi(0) = 0.

    is_submultiplicative is a tri-state flag: True / False / None (unknown).
    """

    eval: Callable[[np.ndarray], np.ndarray]
    label: str
    is_submultiplicative: bool | None = None
    closed_complementary: Callable[[np.ndarray], np.ndarray] | None = None
    luxemburg_start: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def __call__(self, t):
        return self.eval(np.asarray(t, dtype=np.float64))

    def __repr__(self):
        return f"YoungFunction({self.label})"


def _logp(t: np.ndarray) -> np.ndarray:
    """log+ t = max(log t, 0): log 1 = 0.0 for every t <= 1 (zero and
    negatives too), and NaN at NaN, which Phi keeps since it multiplies by t."""
    return np.log(np.maximum(t, 1.0))


def _pow(x, s) -> np.ndarray:
    """x**s taken on an array, so a 0-d x gets the bits of the same value in
    a larger array: ``**`` on a numpy scalar (what arithmetic on a 0-d array
    returns) calls the C ``pow``, while on an array numpy may dispatch to a
    SIMD ``pow`` that differs in the last bit."""
    return np.asarray(x) ** s


# --- canonical families -----------------------------------------------------


def power(s: float) -> YoungFunction:
    """Phi(t) = t^s, s >= 1 and finite."""
    if not 1 <= s < math.inf:
        raise YoungFunctionError(f"power exponent must be finite and >= 1 for convexity, got {s}")

    def conj(y):
        # sup_t {yt - t^s}, attained at t* = (y/s)^(1/(s-1)); 0 (at t = 0) for y <= 0
        y = np.asarray(y, dtype=np.float64)
        if s == 1.0:
            return np.where(y <= 1.0, 0.0, np.inf)
        with np.errstate(over="ignore", invalid="ignore"):
            tstar = _pow(y / s, 1.0 / (s - 1.0))
            tpow = _pow(tstar, s)
            return np.where(y <= 0.0, 0.0, np.where(np.isinf(tpow), np.inf, y * tstar - tpow))

    def ev(t):
        with np.errstate(over="ignore"):
            return np.asarray(t, dtype=np.float64) ** s

    def start(v, w):
        # mean (v/lam)^s = 1 at lam = (w sum v^s)^(1/s)
        with np.errstate(over="ignore"):
            return _pow(w * np.add.reduce(_pow(v, s), axis=1), 1.0 / s)

    return YoungFunction(ev, label=f"t^{s:g}", is_submultiplicative=True,
                         closed_complementary=conj, luxemburg_start=start)


def l_log_l(k: int, outer: float = 1.0) -> YoungFunction:
    """[t(1+log+ t)^k]^outer."""
    if k < 0 or not 1 <= outer < math.inf:
        raise YoungFunctionError(f"need k >= 0 and a finite outer >= 1, got k={k}, outer={outer}")

    def ev(t):
        t = np.asarray(t, dtype=np.float64)
        with np.errstate(over="ignore"):
            base = t * _pow(1.0 + _logp(t), k)
            return base if outer == 1.0 else _pow(base, outer)

    phi2 = (k, outer) == (1, 1.0)
    return YoungFunction(ev, label=f"[t(1+log+t)^{k}]^{outer:g}",
                         is_submultiplicative=True if outer == 1.0 else None,
                         closed_complementary=_conj_phi2 if phi2 else None,
                         luxemburg_start=_start_phi2 if phi2 else None)


def phi_n(n: int) -> YoungFunction:
    """Phi_n(t) = t[1 + (log+ t)^(n-1)]; Phi_1(t) = t by convention.

    For n = 1 the log-power term is void (the endpoint bound in dimension
    one is the plain weak (1,1) estimate), so Phi_1 is the identity.
    """
    if n < 1:
        raise YoungFunctionError("n must be >= 1")
    if n == 1:
        return replace(power(1.0), label="Phi_1")

    def ev(t):
        t = np.asarray(t, dtype=np.float64)
        with np.errstate(over="ignore"):
            return t * (1.0 + _pow(_logp(t), n - 1))

    return YoungFunction(ev, label=f"Phi_{n}", is_submultiplicative=True,
                         closed_complementary=_conj_phi2 if n == 2 else None,
                         luxemburg_start=_start_phi2 if n == 2 else None)


def _conj_phi2(y):
    """Conjugate of Phi_2(t) = t(1+log+ t).

    0 for y <= 1; y - 1 on (1, 2], from the kink at t = 1 where Phi_2'
    jumps from 1 to 2; e^(y-2) above 2, attained where 2 + log t = y.
    """
    y = np.asarray(y, dtype=np.float64)
    with np.errstate(over="ignore"):
        return np.where(y <= 1.0, 0.0, np.where(y <= 2.0, y - 1.0, np.exp(y - 2.0)))


def _start_phi2(v, w):
    """Root of mean Phi_2(v/lam) = 1 per row of v (r, k), with weights w.

    With v_1 >= ... >= v_k, on lam in [v_(J+1), v_J) the mean is
    (w/lam)(S_1 + A_J - B_J log lam), S_1 the row sum and A_J, B_J the sums
    of v log v and of v over the J largest cells; the mean at each v_j finds
    the segment, and Newton on S_1 + A_J - B_J log lam - lam/w, convex and
    decreasing, rises to the root from max(v_(J+1), w S_1), a lower bound
    (Jensen).
    """
    w = np.asarray(w, dtype=np.float64)
    s1 = np.add.reduce(v, axis=1)
    v = -np.sort(-v, axis=1)
    # the mean at lam is at least w S_1 / lam, so every v_j that can bound the
    # root's segment from above is at least w S_1: only those are taken
    above = v >= (w * s1)[:, None]
    v = v[:, : int(np.where(above[:, -1], v.shape[1] - 1, np.argmin(above, axis=1)).max()) + 1]
    r, k = np.arange(v.shape[0]), v.shape[1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        logv = np.log(v)
        a = v * logv  # NaN at the zero cells, which sort last and never hold the root
        a[:, 0] += s1
        a, b = np.cumsum(a, axis=1), np.cumsum(v, axis=1)  # S_1 + A_j and B_j
        # the mean at v_j is <= 1 for every j below J and for none from J on
        meets = a - b * logv <= np.divide(v, w[:, None], out=logv)
        j = np.where(meets[:, -1], k, np.argmin(meets, axis=1))
        a, b = np.where(j > 0, a[r, j - 1], s1), np.where(j > 0, b[r, j - 1], 0.0)
        lam = np.maximum(np.where(j < k, v[r, np.minimum(j, k - 1)], 0.0), w * s1)
        # the relative error after a step of relative size d is below d^2 / 2
        wi = 1.0 / w
        for _ in range(64):
            step = np.maximum((a - b * np.log(lam) - lam * wi) / (b / lam + wi), 0.0)
            lam = lam + step
            if not np.any(step > 1e-8 * lam):
                break
    return lam


def iterate(phi: YoungFunction, m: int) -> YoungFunction:
    """m-fold composition of phi with itself; m = 1 gives phi."""
    if not (m >= 1 and float(m).is_integer()):
        raise YoungFunctionError(f"m must be an integer >= 1, got {m}")
    if m == 1:
        return phi

    def ev(t):
        out = np.asarray(t, dtype=np.float64)
        for _ in range(int(m)):
            out = phi.eval(out)
        return out

    return YoungFunction(ev, label=f"{phi.label}^({m})",
                         is_submultiplicative=phi.is_submultiplicative)


def phi_n_iter(n: int, m: int) -> YoungFunction:
    """m-fold composition of Phi_n with itself."""
    return iterate(phi_n(n), m)


def psi_n(n: int) -> YoungFunction:
    """Psi_n(t) = exp(t^(1/(n-1))) - 1 for n >= 2."""
    if n < 2:
        raise YoungFunctionError(f"psi_n needs n >= 2, got {n}")

    e = 1.0 / (n - 1)

    def ev(t):
        t = np.asarray(t, dtype=np.float64)
        with np.errstate(over="ignore"):
            return np.expm1(t**e)

    return YoungFunction(ev, label=f"Psi_{n}")


def identity() -> YoungFunction:
    return power(1.0)


# --- conjugate, inverse -----------------------------------------------------


def _conjugate_vectorized(phi: YoungFunction, sv) -> np.ndarray:
    """sup_t { s*t - phi(t) } at every point of sv, any shape.

    Grid argmax over CONJ_GRID, then a vectorized golden-section ascent on
    the two grid cells around each maximizer. A NaN objective (inf - inf)
    counts as -inf.
    """
    sv = np.asarray(sv, dtype=np.float64)
    flat = sv.ravel()
    ts = CONJ_GRID
    with np.errstate(over="ignore", invalid="ignore"):
        phits = phi.eval(ts)
        obj = flat[:, None] * ts[None, :] - phits[None, :]
    obj = np.where(np.isnan(obj), -np.inf, obj)
    k = np.argmax(obj, axis=1)
    out = np.zeros_like(flat)
    rest = flat != 0.0
    if np.any(rest):
        kr = k[rest]
        a = ts[np.maximum(kr - 1, 0)]
        b = ts[np.minimum(kr + 1, len(ts) - 1)]
        s = flat[rest]

        def f(t):
            with np.errstate(over="ignore", invalid="ignore"):
                v = s * t - phi.eval(t)
            return np.where(np.isnan(v), -np.inf, v)

        invphi = (math.sqrt(5.0) - 1.0) / 2.0
        for _ in range(90):
            c = b - invphi * (b - a)
            d = a + invphi * (b - a)
            left = f(c) >= f(d)
            b = np.where(left, d, b)
            a = np.where(left, a, c)
        out[rest] = np.maximum(np.maximum(f(a), np.maximum(f(b), f(0.5 * a + 0.5 * b))), 0.0)
    return out.reshape(sv.shape)


def complementary(phi: YoungFunction) -> YoungFunction:
    """The complementary Young function: closed_complementary, else the numeric kernel."""
    conj = phi.closed_complementary
    if conj is None:
        conj = functools.partial(_conjugate_vectorized, phi)
    return YoungFunction(conj, label=f"conj[{phi.label}]")


def complementary_value(phi: YoungFunction, s: float) -> float:
    """The complementary function of phi at one point s >= 0."""
    if s < 0:
        raise YoungFunctionError("conjugate argument must be >= 0")
    return float(complementary(phi).eval(np.float64(s)))


def inverse(phi: YoungFunction, y):
    """The least double b with phi(b) >= y: phi(b) >= y > phi(the double
    below b), at every point of y. 0 at y = 0 and +inf at y = +inf. A float
    y gives a float, an array y an array of its shape.

    Bisects the bit patterns of the doubles in [0, largest double], which
    are ordered as the doubles are, for every point of y in lockstep with one
    array phi call per step; lo keeps phi(lo) < y and hi phi(hi) >= y until
    they are adjacent. A point is halved as it would be alone, so each
    result is its scalar call's wherever phi's array values are its scalar
    ones. Raises when phi stays below y on every double.
    """
    y = np.asarray(y, dtype=np.float64)
    if not np.all(y >= 0):
        raise YoungFunctionError(f"inverse argument must be >= 0, got {y}")

    def reaches(bits: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            return phi.eval(bits.view(np.float64)) >= y

    inner = (y > 0) & (y < math.inf)
    short = inner & ~reaches(np.full(y.shape, MAX_BITS))
    if short.any():
        raise YoungFunctionError(f"{phi.label}: inverse bracket unbounded at y={y[short].flat[0]}")
    lo, hi = np.zeros(y.shape, np.int64), np.full(y.shape, MAX_BITS)
    while (step := hi - lo > 1).any():
        mid = lo + (hi - lo) // 2
        up = reaches(mid)
        hi = np.where(step & up, mid, hi)
        lo = np.where(step & ~up, mid, lo)
    out = np.where(inner, hi.view(np.float64), y)
    return float(out) if out.ndim == 0 else out


def oneil_triple_check(a: YoungFunction, b: YoungFunction, c: YoungFunction) -> tuple[bool, float]:
    """Check A^{-1}(t) C^{-1}(t) <= B^{-1}(t) on the log-spaced ONEIL_SAMPLES.

    Returns (holds, worst margin) with margin = min_t B^{-1}/(A^{-1} C^{-1}).
    """
    ts = np.array(ONEIL_SAMPLES)
    ia, ic, ib = inverse(a, ts), inverse(c, ts), inverse(b, ts)
    prod = ia * ic
    # a min over Python floats, as a loop over the samples takes it
    worst = min([math.inf] + (ib[prod != 0.0] / prod[prod != 0.0]).tolist())
    return worst >= 1.0 - 1e-12, worst


# --- B*_p classification ----------------------------------------------------

CONVERGENT = "convergent"
DIVERGENT = "divergent"
BORDERLINE = "borderline"


def bp_star_classify(phi: YoungFunction, p: float, n: int) -> tuple[str, float]:
    """Classify the tail of the B*_p integrand Phi_n(phi(t)) / t^(p+1).

    Fits the log-log slope over t in [1e2, 1e8]; convergent when the tail
    exponent is <= -1 - BP_EPS, divergent when >= -1 + BP_EPS, otherwise
    borderline (which gates as divergent). Returns (class, fitted exponent).
    """
    if not 1 < p < math.inf:
        raise YoungFunctionError(f"B*_p needs a finite p > 1, got {p}")
    pn = phi_n(n)
    ts = np.logspace(2, 8, 49)
    with np.errstate(over="ignore"):
        integrand = pn.eval(phi.eval(ts)) / ts ** (p + 1.0)
    if not np.all(np.isfinite(integrand)) or np.any(integrand <= 0):
        return DIVERGENT, math.inf
    slope = np.polyfit(np.log(ts), np.log(integrand), 1)[0]
    if slope <= -1.0 - BP_EPS:
        return CONVERGENT, float(slope)
    if slope >= -1.0 + BP_EPS:
        return DIVERGENT, float(slope)
    return BORDERLINE, float(slope)


def in_bp_star(phi: YoungFunction, p: float, n: int) -> bool:
    return bp_star_classify(phi, p, n)[0] == CONVERGENT
