"""Reference values the benchmark checks each job against.

Everything here is computed with plain numpy from the generated inputs,
independently of the package's own code paths, except the closed-form
Young inverses (``phi.inv``), which are the definition the forward map
and the Luxemburg norm are built on.  Where a repository test checks the
same quantity, the tolerance is that test's.
"""

import math

import numpy as np

# relative tolerances unless named _ABS
TOL_LP = 1e-10          # tests/test_orlicz.py: Luxemburg norm of t^p = Lp norm
TOL_INDICATOR = 1e-12   # tests/test_orlicz.py: indicator closed form
TOL_NORMS = 1e-12       # l1 / linf / l2 / TV: the same sums up to summation order
TOL_BESOV = 1e-9        # same nodes and closed forms; only the 1e-14 bisection differs
TOL_MODULAR = 1e-9      # the bisection stops at 1e-14 relative
TOL_D_HAT = 5e-4        # tests/test_condition.py: condition sup against its closed form
TOL_SLOPE_ABS = 0.01    # tests/test_condition.py: off-critical tail slope
TOL_RECORDED = 5e-4     # recorded values without a closed form, at the D_hat tolerance
TOL_SECOND_BOUND = 1e-6  # acceptance criterion 3: example second bound convergence


def grid_norms(values, h):
    """l1, linf, l2 and the anisotropic TV with zero padding."""
    d = values.ndim
    a = np.abs(values)
    tv = 0.0
    for axis in range(d):
        pad = [(1, 1) if i == axis else (0, 0) for i in range(d)]
        tv += float(np.abs(np.diff(np.pad(values, pad), axis=axis)).sum())
    return {
        "l1": float(a.sum()) * h ** d,
        "linf": float(a.max()),
        "l2": math.sqrt(float((a * a).sum()) * h ** d),
        "tv": tv * h ** (d - 1),
    }


def lp(values, h, p):
    a = np.abs(values)
    return float((a ** p).sum() * h ** values.ndim) ** (1.0 / p)


def _shift_sum_p(values, k, p):
    """sum of |f(x + k) - f(x)|^p over the lattice, f zero outside its box."""
    diff = np.zeros(tuple(n + abs(ki) for n, ki in zip(values.shape, k)))
    diff[tuple(slice(max(-ki, 0), max(-ki, 0) + n) for n, ki in zip(values.shape, k))] += values
    diff[tuple(slice(max(ki, 0), max(ki, 0) + n) for n, ki in zip(values.shape, k))] -= values
    return float((np.abs(diff) ** p).sum())


def power_besov(values, h, p, theta, nodes=256):
    """Besov-Orlicz norm for Phi = t^p, Psi = t^-theta with the package's
    default window: the Luxemburg norms of the shift differences are Lp
    norms, so the modulus is a prefix max of closed forms."""
    d = values.ndim
    cell = h ** d
    nz = np.nonzero(values)
    diam = math.sqrt(sum(((i.max() - i.min() + 1) * h) ** 2 for i in nz))
    t_lo, t_hi = h, diam + 2.0 * h
    ts = np.geomspace(t_lo, t_hi, nodes)
    cap = diam + h
    m = int(math.floor(cap / h + 1e-12))
    rng_ = np.arange(-m, m + 1)
    ks = np.stack(np.meshgrid(*[rng_] * d, indexing="ij"), -1).reshape(-1, d)
    lens = np.sqrt((ks ** 2).sum(1))
    keep = (lens > 0) & (lens <= cap / h + 1e-12)
    ks, lens = ks[keep], lens[keep]
    order = np.argsort(lens, kind="stable")
    ks, lens = ks[order], lens[order]
    norms = np.array([_shift_sum_p(values, tuple(int(c) for c in k), p) for k in ks])
    norms = (norms * cell) ** (1.0 / p)
    prefix = np.maximum.accumulate(norms)
    saturated = (2.0 * float((np.abs(values) ** p).sum()) * cell) ** (1.0 / p)

    def omega(t):
        if t > cap + h:
            return max(omega(cap), saturated)
        idx = np.searchsorted(lens * h, t + 1e-12 * h, side="right")
        return float(prefix[idx - 1]) if idx else 0.0

    om = np.array([omega(float(t)) for t in ts])
    w = ts ** (-theta)
    mid = float(np.trapezoid(w * om / ts, ts))
    head = (om[0] / t_lo) * t_lo ** (-theta) * t_lo / (1.0 - theta)
    tail = saturated * t_hi ** (-theta) / theta
    orlicz = lp(values, h, p)
    semi = mid + head + tail
    return {"orlicz_part": orlicz, "seminorm_part": semi, "total": orlicz + semi}


def forward_from_inverse(inv, x):
    """Phi(x) for an array x by bisection on the closed-form inverse."""
    x = np.asarray(x, dtype=np.float64)
    lo = np.zeros_like(x)
    hi = np.ones_like(x)
    while True:
        short = inv(hi) < x
        if not short.any():
            break
        lo = np.where(short, hi, lo)
        hi = np.where(short, 2.0 * hi, hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        below = inv(mid) < x
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        if np.all(hi - lo <= 1e-15 * hi):
            break
    return 0.5 * (lo + hi)


def modular(values, h, inv, lam):
    """integral of Phi(|f| / lam), grouping equal |values|."""
    a = np.abs(values[values != 0.0])
    uniq, counts = np.unique(a, return_counts=True)
    return float((forward_from_inverse(inv, uniq / lam) * counts).sum()) * h ** values.ndim


def indicator_norm(level, measure, inv):
    """Luxemburg norm of level times the indicator of a set of this measure."""
    return abs(level) / float(inv(1.0 / measure))


def power_condition_closed_form(p, d):
    """sup of the two-integral condition for Phi = t^p at the critical theta:
    1/theta_c from the first integral plus p/((d-1)(p-1)) from the second."""
    return p / (d - (d - 1) * p) + p / ((d - 1) * (p - 1))


def symdiff_exact(d, r, delta):
    """Volume of the symmetric difference of two radius-r balls at distance delta."""
    vd = unit_ball_volume(d)
    if delta >= 2.0 * r:
        return 2.0 * vd * r ** d
    if d == 1:
        inter = 2.0 * r - delta
    elif d == 2:
        inter = 2.0 * r * r * math.acos(delta / (2.0 * r)) \
            - 0.5 * delta * math.sqrt(4.0 * r * r - delta * delta)
    else:
        inter = math.pi * (4.0 * r + delta) * (2.0 * r - delta) ** 2 / 12.0
    return 2.0 * vd * r ** d - 2.0 * inter


def unit_ball_volume(d):
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def largest_axis_l1_shift(values, h, t):
    """L1 norm of the shift difference along the longest axis vector of length
    at most t: a lower bound for the L1 modulus at t."""
    m = int(math.floor(t / h + 1e-12))
    best = 0.0
    for axis in range(values.ndim):
        k = [0] * values.ndim
        k[axis] = m
        best = max(best, _shift_sum_p(values, tuple(k), 1.0))
    return best * h ** values.ndim
