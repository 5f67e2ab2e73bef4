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
function goes through one numeric kernel: a grid argmax over t in
[0, T_LARGE], refined by a vectorized golden-section ascent. The kernel
cannot tell a finite supremum reached past T_LARGE from +inf, so it
reports +inf there; the cap stays because a grid without one would have
to reach t where Phi(t) overflows, and the objective s*t - Phi(t) is
then inf - inf.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

T_LARGE = 1e9  # cap used to detect unbounded conjugates / brackets
REL_TOL = 1e-12  # relative bracket width at which every bisection stops
ONEIL_SAMPLES = tuple(np.logspace(-6, 9, 61))  # the t of the O'Neil triple check
BP_EPS = 0.05  # half-width of the borderline band of B*_p tail exponents


class YoungFunctionError(ValueError):
    pass


@dataclass(frozen=True)
class YoungFunction:
    """Evaluable convex increasing function with Phi(0) = 0.

    is_submultiplicative is a tri-state flag: True / False / None (unknown).
    closed_inverse, when present, is used instead of bisection.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    label: str
    is_submultiplicative: bool | None = None
    closed_inverse: Callable[[np.ndarray], np.ndarray] | None = None
    closed_complementary: Callable[[np.ndarray], np.ndarray] | None = None

    def __call__(self, t):
        return self.eval(np.asarray(t, dtype=np.float64))

    def __repr__(self):
        return f"YoungFunction({self.label})"


def _logp(t: np.ndarray) -> np.ndarray:
    """log+ t = max(log t, 0): log 1 = 0.0 for every t <= 1 (zero and
    negatives too), and NaN at NaN, which Phi keeps since it multiplies by t."""
    return np.log(np.maximum(t, 1.0))


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
            tstar = (y / s) ** (1.0 / (s - 1.0))
            tpow = tstar**s
            return np.where(y <= 0.0, 0.0, np.where(np.isinf(tpow), np.inf, y * tstar - tpow))

    return YoungFunction(
        eval=lambda t: np.asarray(t, dtype=np.float64) ** s,
        label=f"t^{s:g}",
        is_submultiplicative=True,
        closed_inverse=lambda y: np.asarray(y, dtype=np.float64) ** (1.0 / s),
        closed_complementary=conj,
    )


def l_log_l(k: int, outer: float = 1.0) -> YoungFunction:
    """[t(1+log+ t)^k]^outer."""
    if k < 0 or not 1 <= outer < math.inf:
        raise YoungFunctionError(f"need k >= 0 and a finite outer >= 1, got k={k}, outer={outer}")

    def ev(t):
        t = np.asarray(t, dtype=np.float64)
        with np.errstate(over="ignore"):
            base = t * (1.0 + _logp(t)) ** k
            return base if outer == 1.0 else base**outer

    return YoungFunction(ev, label=f"[t(1+log+t)^{k}]^{outer:g}",
                         is_submultiplicative=True if outer == 1.0 else None,
                         closed_complementary=_conj_phi2 if (k, outer) == (1, 1.0) else None)


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
            return t * (1.0 + _logp(t) ** (n - 1))

    return YoungFunction(ev, label=f"Phi_{n}", is_submultiplicative=True,
                         closed_complementary=_conj_phi2 if n == 2 else None)


def _conj_phi2(y):
    """Conjugate of Phi_2(t) = t(1+log+ t).

    0 for y <= 1; y - 1 on (1, 2], from the kink at t = 1 where Phi_2'
    jumps from 1 to 2; e^(y-2) above 2, attained where 2 + log t = y.
    """
    y = np.asarray(y, dtype=np.float64)
    with np.errstate(over="ignore"):
        return np.where(y <= 1.0, 0.0, np.where(y <= 2.0, y - 1.0, np.exp(y - 2.0)))


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
        x = t**e
        return np.where(x > 700.0, np.inf, np.expm1(np.minimum(x, 700.0)))

    return YoungFunction(
        ev, label=f"Psi_{n}",
        closed_inverse=lambda y: np.log1p(np.asarray(y, dtype=np.float64)) ** (n - 1),
    )


def identity() -> YoungFunction:
    return power(1.0)


def _integer(v) -> int:
    """v as an int; a value with a fractional part raises ValueError
    instead of being truncated."""
    if not float(v).is_integer():
        raise ValueError(f"{v!r} is not an integer")
    return int(v)


# family name -> (builder, the type of each parameter it takes)
_FAMILIES = {
    "power": (power, {"s": float}),
    "phi_n": (phi_n, {"n": _integer}),
    "phi_n_iter": (phi_n_iter, {"n": _integer, "m": _integer}),
    "llogl": (l_log_l, {"k": _integer, "outer": float}),
    "psi_n": (psi_n, {"n": _integer}),
    "identity": (identity, {}),
}


def from_config(name: str, **params) -> YoungFunction:
    """Build a canonical Young function from a family name + parameters."""
    if name not in _FAMILIES:
        raise YoungFunctionError(f"unknown Young family {name!r}")
    build, types = _FAMILIES[name]
    try:
        return build(**{k: types[k](v) for k, v in params.items()})
    except (KeyError, TypeError, ValueError) as exc:
        raise YoungFunctionError(f"{name} takes {sorted(types)}, got {params}: {exc}") from None


# --- conjugate, inverse -----------------------------------------------------


def _conjugate_vectorized(phi: YoungFunction, sv) -> np.ndarray:
    """sup_t { s*t - phi(t) } at every point of sv, any shape.

    Grid argmax over 401 points of [0, T_LARGE], then a vectorized golden-section ascent on
    the two grid cells around each maximizer. +inf where the maximizer is the
    last grid point and the objective still rises over the last millionth
    below T_LARGE.
    """
    sv = np.asarray(sv, dtype=np.float64)
    flat = sv.ravel()
    ts = np.concatenate([[0.0], np.logspace(-12, math.log10(T_LARGE), 400)])
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
        best = np.maximum(f(a), np.maximum(f(b), f(0.5 * (a + b))))
        # a maximizer in the last grid cell, which is 12.8% wide, may still
        # lie below T_LARGE; only a rise at T_LARGE itself means +inf
        rising = (kr == len(ts) - 1) & (f(ts[-1]) > f(ts[-1] * (1.0 - 1e-6)))
        out[rest] = np.where(rising, np.inf, np.maximum(best, 0.0))
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


def inverse(phi: YoungFunction, y: float) -> float:
    """Smallest t with phi(t) >= y, by bracketing bisection; +inf at y = +inf.

    hi doubles from 1 up to the largest double, and the midpoint is formed
    as 0.5 * lo + 0.5 * hi, which equals 0.5 * (lo + hi) on normal doubles
    and cannot overflow. Below about 5e-312, REL_TOL * hi rounds to 0, so
    the bisection also stops once lo and hi are adjacent doubles.
    """
    if not y >= 0:
        raise YoungFunctionError(f"inverse argument must be >= 0, got {y}")
    if y == 0.0:
        return 0.0
    if phi.closed_inverse is not None:
        return float(phi.closed_inverse(np.float64(y)))
    if y == math.inf:
        return math.inf

    def reaches(t: float) -> bool:
        with np.errstate(over="ignore"):
            return float(phi.eval(np.float64(t))) >= y

    hi = 1.0
    while not reaches(hi):
        if hi == sys.float_info.max:
            raise YoungFunctionError(f"{phi.label}: inverse bracket unbounded at y={y}")
        hi = min(2.0 * hi, sys.float_info.max)
    lo = 0.0
    while hi - lo > REL_TOL * hi:
        mid = 0.5 * lo + 0.5 * hi
        if not lo < mid < hi:
            break
        if reaches(mid):
            hi = mid
        else:
            lo = mid
    return hi


def oneil_triple_check(a: YoungFunction, b: YoungFunction, c: YoungFunction) -> tuple[bool, float]:
    """Check A^{-1}(t) C^{-1}(t) <= B^{-1}(t) on the log-spaced ONEIL_SAMPLES.

    Returns (holds, worst margin) with margin = min_t B^{-1}/(A^{-1} C^{-1}).
    """
    worst = math.inf
    for t in ONEIL_SAMPLES:
        ia, ic, ib = inverse(a, float(t)), inverse(c, float(t)), inverse(b, float(t))
        prod = ia * ic
        if prod == 0.0:
            continue
        worst = min(worst, ib / prod)
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
