"""Cesaro means of composition-operator orbits and mean-ergodicity verdicts.

The composition operator C_phi f = f o phi is power bounded with norm one on
the disc algebra and on the bounded holomorphic functions.  Whether its
Cesaro means (1/n) sum_{m<=n} C_phi^m converge -- pointwise (mean ergodic) or
in operator norm (uniformly mean ergodic) -- is decided by the dynamics of
the symbol.  This module computes the numerical evidence (orbit averages,
visit densities, exponential-sum statistics, the boundary witness gap) and
assembles per-space verdicts from the classification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np

from . import dynamics
from .symbols import (Orbit, Symbol, _closed_form, _exact_seed, _folded_blocks,
                      _horner, _image_radius_bound, _is_inner, _moebius_image_circle,
                      _origin_contraction, boundary_points, orbit_blocks)
from .weighted import VAlpha

# Decision-rule tags carried by verdicts.  Stable identifiers: downstream
# tooling and the acceptance suite match on them.
TAG_PERIODIC_ROTATION = "Thm 2.2(i)"
TAG_APERIODIC_ROTATION = "Thm 2.2(ii)"
TAG_INTERIOR_SUP_DECAY = "Thm 3.2"
TAG_INTERIOR_A = "Thm 3.3"
TAG_BOUNDARY_OBSTRUCTION = "Thm 3.3 / Remark 3.7"
TAG_BOUNDARY_DW = "Thm 3.5"
TAG_DENSITY = "Thm 3.6(ii)"
TAG_LFT = "Prop 3.9"
TAG_BLASCHKE = "Prop 3.10"
TAG_WEIGHTED_PERIODIC = "Appendix Thm (i)"
TAG_WEIGHTED_APERIODIC = "Appendix Thm (ii)"

SPACES = ("A", "Hinf", "Hv", "Hv0")
SPACE_NAMES = {
    "A": "disc algebra",
    "Hinf": "bounded holomorphic functions",
    "Hv": "weighted sup-norm space",
    "Hv0": "weighted little space",
}

YES, NO, UNKNOWN = "yes", "no", "unknown"


# ---------------------------------------------------------------------------
# Test functions

class TestFunction:
    """Element of the disc algebra used to probe the Cesaro means."""

    def __call__(self, z):
        raise NotImplementedError

    def boundary_sup(self) -> float:  # an upper bound on |f| over the closed disc
        raise NotImplementedError


@dataclass(frozen=True)
class Monomial(TestFunction):
    """z**j.

    A numpy array is raised to j >= 3 by binary powering in numpy
    multiplications, the algorithm of CPython's complex ** for small
    integer powers: a few SIMD products cost less than numpy's
    element-by-element complex power, and the relative error of the
    product grows at most linearly in j (Higham, Accuracy and Stability
    of Numerical Algorithms, ch. 3).  Smaller j, Python scalars and mpmath
    values take z**j.  j = 1 does so on purpose, though powering would
    return z itself: the untraced baseline pass of perfbench is mostly
    ``cesaro_final_means`` of z on a rotation, and made faster it would
    fall below the interval its sampler needs (ROADMAP item 9).
    """

    j: int

    def __post_init__(self):
        if self.j < 0:
            raise ValueError("monomial degree must be >= 0")

    def __call__(self, z):
        if self.j == 0:
            return 1.0 + 0.0 * z
        if self.j < 3 or not isinstance(z, np.ndarray):
            return z ** self.j
        power, square, j = None, z, self.j
        while True:
            if j & 1:
                power = square if power is None else power * square
            j >>= 1
            if not j:
                return power
            square = square * square

    def boundary_sup(self) -> float:
        return 1.0


@dataclass(frozen=True)
class TaylorFn(TestFunction):
    """Power series test function; no self-map requirement, just coefficients."""

    coeffs: tuple

    def __init__(self, coeffs):
        cs = tuple(complex(c) for c in coeffs)
        object.__setattr__(self, "coeffs", cs)
        object.__setattr__(self, "_bare", len(cs) > 1 and _exact_seed(cs[-1]))

    def __call__(self, z):
        return _horner(self.coeffs, z, self._bare)

    def boundary_sup(self) -> float:
        return float(sum(abs(c) for c in self.coeffs))  # the triangle inequality


@dataclass(frozen=True)
class HalfPointWitness(TestFunction):
    """((z + z0) / 2)^k for a boundary point z0: peaks exactly at z0."""

    z0: complex
    k: int

    def __post_init__(self):
        z0 = complex(self.z0)
        if abs(abs(z0) - 1.0) > 1e-10:
            raise ValueError("witness base point must lie on the unit circle")
        if self.k < 1:
            raise ValueError("witness power must be >= 1")
        object.__setattr__(self, "z0", z0)

    def __call__(self, z):
        g = (z + self.z0) / 2.0
        if self.k < 2**53:
            return g ** self.k
        value = _huge_power(np.asarray(g, dtype=complex).ravel(), self.k).reshape(np.shape(g))
        return value if isinstance(g, np.ndarray) else complex(value)

    def boundary_sup(self) -> float:
        # |g|^k attains its maximum 1 exactly at z0, which a sample grid can
        # miss for large k; return the exact value.
        return 1.0


# Precision of ``_huge_power`` beyond the bit length of k: the phase
# k arg(g) is then off by less than 2**-1090, so a power that is exactly
# 1, such as i**(2**3173), comes out as 1 + 0j.
HUGE_POWER_GUARD_BITS = 1100


def _huge_power(g: np.ndarray, k: int) -> np.ndarray:
    """g**k, elementwise on a flat array, for an integer k >= 2**53, which
    no double holds exactly.

    Each g is taken as the exact value of its two doubles.  Where an upper
    bound on k log|g|, over the rounding of |g| and of its log, is below
    -800, |g|^k is under the least subnormal double and the value is 0; k
    is scaled by 2**-e to a double and the product back by 2**e, so this
    saturates instead of overflowing.  The other points, those within about
    800/k of the circle, are raised in mpmath as e^(k log g) at the bit
    length of k plus ``HUGE_POWER_GUARD_BITS``, which reduces the phase
    k arg(g) mod 2 pi correctly.  On the closed disc |g| <= 1; a point
    outside it by rounding is taken on the circle, as no double can give
    the power it would have.
    """
    e = k.bit_length() - 53
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_modulus = np.minimum(np.log(np.abs(g)), 0.0)
        exponent = np.ldexp(k / 2**e * (log_modulus * (1.0 - 2.0**-50) + 2.0**-50), e)
    value = np.zeros(g.shape, dtype=complex)
    for i in np.flatnonzero(exponent > -800.0):
        with mp.workprec(k.bit_length() + HUGE_POWER_GUARD_BITS):
            w = mp.mpc(g[i].real, g[i].imag)
            if abs(w) > 1:
                w /= abs(w)
            value[i] = complex(mp.exp(mp.mpf(k) * mp.log(w)))
    return value


# ---------------------------------------------------------------------------
# Cesaro traces

@dataclass(frozen=True)
class CesaroTrace:
    """Running Cesaro means (1/n) sum_{m<=n} f(phi^m(z)) for n = 1..N."""

    z: complex
    n: int
    partial_means: np.ndarray
    final: complex
    orbit: np.ndarray = field(repr=False)


def _divide(sums: np.ndarray, counts) -> np.ndarray:
    # by parts: numpy's complex / integer is a complex division, which does
    # not give (49+0j)/49 == 1
    return sums.real / counts + 1j * (sums.imag / counts)


def cesaro_apply(s: Symbol, f: TestFunction, z: complex, n: int) -> CesaroTrace:
    """One orbit pass: the partial means are the running sums of f along the
    orbit divided by the step count.

    Power boundedness is asserted on the way out: no partial mean may exceed
    ``f.boundary_sup()``, an upper bound on |f|.
    """
    z = complex(z)
    orbit = np.concatenate([block[:, 0] for _, block in orbit_blocks(s, [z], n)])
    # Running sums in blocks of ceil(sqrt(n)): a cumsum within each block
    # plus the running total of the block sums before it.  Each sum then
    # takes about 2 sqrt(n) roundings, where one cumsum over the orbit
    # takes up to n.
    width = math.isqrt(n - 1) + 1
    sums = np.zeros(-(-n // width) * width, dtype=complex)
    sums[:n] = f(orbit)
    sums = np.cumsum(sums.reshape(-1, width), axis=1)
    sums[1:] += np.cumsum(sums[:-1, -1])[:, None]
    means = _divide(sums.ravel()[:n], np.arange(1, n + 1))
    sup = f.boundary_sup()
    if float(np.max(np.abs(means))) > sup + 1e-9:
        raise ArithmeticError(
            "a partial mean exceeded the sup of the test function; "
            "power boundedness violated (invalid symbol or function)"
        )
    return CesaroTrace(z, n, means, complex(means[-1]), orbit)


def cesaro_final_means(s: Symbol, f: TestFunction, seeds, n: int) -> np.ndarray:
    """Final Cesaro mean at step n for an array of seeds, in one sweep.

    f is evaluated once on each computed row of the orbits
    (``symbols._folded_blocks``).  Where the orbits repeat, as those of an
    exact rotation do from their first row, those of a real contraction
    from the row where its closed form settles, and stepped orbits that
    settle bit for bit on a cycle from its onset, the p rows of one period
    stand for the rest: their sum is added once per full period left, and
    the first rows of it once for a partial period.  The cost is that of
    the onset and the period, not of n.  The sum then differs from the one
    over every row only in its rounding, which the tests hold within
    n 2^-53 sup|f|.

    Where 0 attracts, the sum stops once the rest of it is certified below
    a quarter unit of the running sum of every seed (``_tail_test``): for f
    = z^j, j >= 1, on a stepped symbol with phi(0) = 0 exactly, whose
    orbits would otherwise shrink through the whole exponent range of
    doubles before they repeat.  Its cost is then that of the certificate,
    tens of rows, not of n.
    """
    seeds = np.asarray(seeds, dtype=complex)
    total = np.zeros(seeds.size, dtype=complex)
    for m0, block, period in _folded_blocks(s, seeds, n, _tail_test(s, f, seeds, n, total)):
        values = f(block)
        total += np.sum(values, axis=0)
        if period is not None:
            full, part = divmod(n - m0 - len(block), period)
            cycle = values[len(values) - period:]
            total += full * np.sum(cycle, axis=0) + np.sum(cycle[:part], axis=0)
    return _divide(total, n).reshape(seeds.shape)


def _identity(z):
    return z


def _tail_test(s: Symbol, f, seeds: np.ndarray, n: int, total: np.ndarray):
    """The stop of ``cesaro_final_means`` at an attracting origin: a
    function of the last row w = phi^M(seeds) saying whether the rest of
    each seed's sum of f over n rows is below a quarter unit of its running
    sum ``total``, which the sweep updates in place.  None, and every row
    summed, unless f is z^j with j >= 1 (the identity or a ``Monomial``)
    and the symbol has an origin contraction L (``symbols._origin_contraction``)
    below 1 at the largest |seed|.

    With a = |w|, r the largest a and L = L(r) < 1, every later point has
    modulus at most a L^(m-M), plus 2^-997 for the values rounded below the
    normal range (at most 2^-1050 per evaluation, and 1 - L >= 2^-53).  A
    power z^j, formed by products, is at most (|z| (1 + 2^-51))^j.  So the
    rest is at most (a (1 + 2^-51) L)^j / (1 - L) + n j 2^-990.  The test
    asks for it to be at most 2^-56 |total|, half a quarter unit, which
    leaves a factor two for the rounding of the bound itself; the floor
    n j 2^-990 keeps |total| above 2^-934.  It also asks for a > 2^-900, as
    the relative rounding model holds only well inside the normal range.
    A seed with a = 0 has nothing left to add: 0 is fixed exactly and
    f(0) = 0, and a zero of either sign leaves the running sum, which
    starts at +0, as it is.  Any other f or symbol, and seeds where
    L(r) >= 1 (on the circle, G(1) = 1 for a Blaschke product), sum every
    row as before.
    """
    j = 1 if f is _identity else f.j if isinstance(f, Monomial) else 0
    contraction = _origin_contraction(s) if j >= 1 else None
    if contraction is None or not contraction(float(np.max(np.abs(seeds), initial=0.0))) < 1.0:
        return None
    floor = float(n) * j * 2.0**-990

    def negligible(row):
        a = np.abs(row)
        L = contraction(float(np.max(a, initial=0.0)))
        if not L < 1.0:
            return False
        rest = (a * ((1.0 + 2.0**-51) * L)) ** j / (1.0 - L) + floor
        return bool(np.all((a == 0.0) | ((a > 2.0**-900) & (rest <= 2.0**-56 * np.abs(total)))))
    return negligible


def cesaro_orbit_mean(s: Symbol, z, n: int):
    """Average (1/n) sum phi^m(z).  Accepts a scalar seed or an array of
    seeds.  For a seed in the open disc it converges to the Denjoy-Wolff
    point of every symbol that is not an elliptic automorphism; seeds on
    the circle need not follow (under z^2 the seeds 1 and -1 give 1).

    The means of the identity under ``cesaro_final_means``: the points
    themselves are summed, with no power taken (numpy's z**1 is z), and
    the sum stops where 0 attracts once its rest is certified negligible.
    """
    if isinstance(z, np.ndarray):
        return cesaro_final_means(s, _identity, z, n)
    return complex(cesaro_final_means(s, _identity, np.array([z], dtype=complex), n)[0])


def rotation_cesaro_limit(k: int, coeffs) -> list[complex]:
    """Limit of the Cesaro means under a rotation of order k, at the
    coefficient level: only exponents divisible by k survive."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return [complex(c) if j % k == 0 else 0.0j for j, c in enumerate(coeffs)]


# ---------------------------------------------------------------------------
# Rotation monomial means

@dataclass(frozen=True)
class MonomialMean:
    value: complex
    sup_norm_exact: float
    sup_norm_bound: float
    periodic: bool


def monomial_mean(lam: complex, j: int, n: int) -> MonomialMean:
    """(1/n) sum_{m<=n} lam^{j m}, with the exact sup norm of the
    corresponding monomial mean and the 2/(n |1 - lam^j|) bound.

    The mean is the geometric sum mu (1 - mu^n) / (n (1 - mu)), mu = lam^j,
    and its norm |mu - mu^{n+1}| / (n |1 - mu|); the tests hold both to the
    direct sum within 1e-12.  When lam^j is numerically one, the mean is
    identically one and the periodic branch is taken instead.
    """
    lam = complex(lam)
    if j < 1:
        raise ValueError("j must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    if abs(abs(lam) - 1.0) > 1e-12:
        raise ValueError("lam must be unimodular")
    mu = lam ** j
    if abs(mu - 1.0) <= 1e-14:
        return MonomialMean(1.0 + 0.0j, 1.0, math.inf, True)
    numer = mu - mu ** n * mu
    value = numer / (n * (1.0 - mu))
    denom = n * abs(1.0 - mu)
    sup_exact = abs(numer) / denom
    sup_bound = 2.0 / denom
    if abs(value) > sup_bound + 1e-12:
        raise ArithmeticError("mean modulus exceeds the 2/(n|1-lam^j|) bound")
    return MonomialMean(value, sup_exact, sup_bound, False)


# ---------------------------------------------------------------------------
# Orbit densities

@dataclass(frozen=True)
class DensityEstimate:
    z: complex
    neighborhood_radius: float
    n: int
    hits: int
    running_min_ratio: float
    estimate: float


# Relative and absolute rounding margin of the absorption test, a few units
# of 2**-53 on each of its operations.
ABSORPTION_ROUNDING = 2.0**-48


def _lft_absorption(s: Symbol, z0: complex, r: float):
    """The exact absorption test of a linear-fractional symbol: a function
    saying whether the orbit of each point w provably stays in B(z0, r), or
    None when the symbol has no closed form or no point can be certified.

    In the coordinate y of ``symbols._ClosedForm`` (y = w for an affine map,
    y = 1/(w - q) otherwise) the map is y -> kappa y + gamma.
    - kappa = 1 (parabolic): y_m = y + m gamma, so |y_m| >= |y| once
      Re(conj(y) gamma) >= 0, which has the sign of Re(gamma (w - q)).  A
      point that also lies within rho = r - |z0 - q| of q stays there.
    - |kappa| < 1: |y_m - y*| shrinks, y* = gamma/(1 - kappa), so the orbit
      stays in B(z0, r) when |y - y*| + |y* - c'| <= R', with c' and R' the
      centre and radius of the image of B(z0, r): conj(z0 - q)/D and r/D,
      D = |z0 - q|^2 - r^2 (z0 and r for an affine map).  With u = w - q,
      |y - y*| = |1 - y* u|/|u|, which needs no division.
    Each test is asked with a rounding margin on every term, and on D
    relative to the |z0 - q|^2 + r^2 that it cancels.  There is none when
    the ball holds q, and none for |kappa| within 1e-12 of 1 but not 1:
    there the map is elliptic up to rounding
    (``symbols._moebius_normal_form``), and which side of 1 |kappa| falls on
    is rounding too.  A seed on q, the repelling point, is never certified.
    """
    form = _closed_form(s)
    if form is None:
        return None
    eps = ABSORPTION_ROUNDING
    r = r / (1.0 + eps)
    gamma, q = form.gamma, form.q
    if form.kappa_m1 == 0:
        if q is None:  # an affine map with kappa = 1 fixes no point, or every point
            return None
        rho = r - abs(z0 - q) * (1.0 + eps)
        if rho <= 0.0:
            return None

        def parabolic(w):
            u = w - q
            return ((np.abs(u) * (1.0 + eps) <= rho)
                    & ((gamma * u).real >= eps * abs(gamma) * np.abs(u)))
        return parabolic
    if not form.log_r < -1e-12:
        return None
    y_star = -gamma / form.kappa_m1
    if q is None:
        centre, radius, k = z0, r, eps
    else:
        d2 = abs(z0 - q) ** 2
        D = d2 - r * r
        if D <= eps * (d2 + r * r):  # the ball (nearly) holds q
            return None
        centre, radius, k = (z0 - q).conjugate() / D, r / D, eps * (d2 + r * r) / D
    bound = radius - abs(y_star - centre) - k * (abs(centre) + radius) - eps * abs(y_star)
    if bound <= 0.0:
        return None

    def contracting(w):
        if q is None:
            return np.abs(w - y_star) + eps <= bound
        u = w - q
        return np.abs(1.0 - y_star * u) + eps <= bound * np.abs(u)
    return contracting


def _visits(s: Symbol, seeds, z0: complex, radii, n: int):
    """Visits of each seed's orbit to B(z0, r) for each radius r: the hit
    counts and the running minimum of hits(m)/m over m >= n/2, each of shape
    (len(radii), len(seeds)), and the step after which every orbit was
    certified to stay in every ball (None when all n steps were taken).

    When the symbol is linear-fractional, each orbit point is put to the
    absorption test ``_lft_absorption`` for the smallest radius.  Every step
    is taken when the test does not apply, or when some seed is never
    absorbed.  Once every seed has had an absorbed point, by step a, each
    later step hits every ball: hits(n) = hits(a) + n - a, and hits(m)/m =
    1 - (a - hits(a))/m is nondecreasing for m > a, so the running minimum
    over those m is its value at max(a + 1, n/2).  The steps up to a are
    counted as they are taken; after a, the counts are those of the exact
    orbit of the point taken at the absorption step.
    """
    radii = np.asarray(radii, dtype=float)[:, None, None]
    bad = radii[~((radii > 0.0) & (radii < math.inf))]
    if bad.size:
        raise ValueError(f"radius must be finite and positive, got {bad[0]:g}")
    absorption = _lft_absorption(s, complex(z0), float(radii.min()))
    hits, min_ratio = 0, np.inf
    absorbed_by = np.zeros(np.size(seeds), dtype=bool)
    for m0, block in orbit_blocks(s, seeds, n):
        m = np.arange(m0 + 1, m0 + len(block) + 1)
        dist = np.abs(block - z0)
        rows = None
        if absorption is not None:
            absorbed = absorption(block)
            now = absorbed.any(axis=0)
            if np.all(absorbed_by | now):
                # the row of the block where the last seed was absorbed
                rows = 1 + int(np.argmax(absorbed, axis=0).max(where=~absorbed_by, initial=0))
                dist, m = dist[:rows], m[:rows]
            absorbed_by |= now
        counts = np.cumsum(dist < radii, axis=1) + hits
        hits = counts[:, -1:]
        ratios = counts[:, m >= n // 2] / m[m >= n // 2, None]
        min_ratio = np.minimum(min_ratio, ratios.min(axis=1, initial=np.inf))
        if rows is not None:
            a = m0 + rows
            if a < n:
                first = max(a + 1, n // 2)
                min_ratio = np.minimum(min_ratio, ((hits + (first - a)) / first)[:, 0])
                hits = hits + (n - a)
            return hits[:, 0], min_ratio, a if a < n else None
    return hits[:, 0], min_ratio, None


def orbit_density(s: Symbol, z: complex, z0: complex, radius: float,
                  n: int) -> DensityEstimate:
    """Fraction of the first n orbit points of z that land in B(z0, radius).

    ``running_min_ratio`` is the smallest hits(m)/m over the second half
    m in [n/2, n]; a persistent low value is finite-N evidence that the
    lower density of visits stays below one.  For a linear-fractional
    symbol the orbit stops once it is certified to stay in the ball
    (``_lft_absorption``), with the counts that stepping on would give.
    """
    z = complex(z)
    hits, min_ratio, _ = _visits(s, [z], complex(z0), [float(radius)], n)
    return DensityEstimate(z, radius, n, int(hits[0, 0]), float(min_ratio[0, 0]),
                           int(hits[0, 0]) / n)


class DensitySweep(list):
    """The estimates of ``density_sweep``, radius by radius, and
    ``certified_step``: the step after which every orbit was certified to
    stay in every ball (None when every step was taken)."""

    certified_step: int | None = None


def density_sweep(s: Symbol, seeds, z0: complex, radii, n: int) -> DensitySweep:
    """orbit_density over many seeds and several radii at once.

    For a linear-fractional symbol the orbits stop once every one of them
    is certified to stay in the smallest ball (``_lft_absorption``); the
    estimates are those of stepping on, and ``certified_step`` names the
    step.  Other symbols take every step."""
    seeds = np.asarray(seeds, dtype=complex)
    radii = [float(r) for r in radii]
    hits, min_ratio, step = _visits(s, seeds, complex(z0), radii, n)
    seeds, hits, min_ratio = seeds.ravel().tolist(), hits.tolist(), min_ratio.tolist()
    sweep = DensitySweep(
        DensityEstimate(seed, r, n, h, ratio, h / n)
        for r, row, ratios in zip(radii, hits, min_ratio)
        for seed, h, ratio in zip(seeds, row, ratios))
    sweep.certified_step = step
    return sweep


# ---------------------------------------------------------------------------
# Weyl statistics

@dataclass(frozen=True)
class WeylReport:
    max_abs_mean: float
    per_j: list[float]


def weyl_test(orbit: Orbit, j_max: int) -> WeylReport:
    """|(1/N) sum (phi^m(w))^j| for j = 1..j_max.

    All means tending to zero is the exponential-sum criterion for the orbit,
    which must lie within 1e-6 of the circle, being uniformly distributed.
    """
    if j_max < 1:
        raise ValueError("j_max must be >= 1")
    pts = orbit.points
    if float(np.max(np.abs(np.abs(pts) - 1.0))) > 1e-6:
        raise ValueError("orbit is not within 1e-6 of the unit circle")
    per_j = []
    power = np.ones_like(pts)
    for _ in range(j_max):
        power = power * pts
        per_j.append(float(abs(np.mean(power))))
    return WeylReport(max(per_j), per_j)


# ---------------------------------------------------------------------------
# Boundary witness gap

# |phi(zeta)/zeta - 1| at or below this is the rounding of the coefficients
# (1.4e-17 for polynomials whose double coefficients sum to 1): zeta is then
# taken as a fixed point of phi.
FIXED_POINT_SNAP_TOL = 1e-14
# Rounding margin per orbit step taken off the witness bound.
GAP_ROUNDING_PER_STEP = 2.0**-50


@dataclass(frozen=True)
class GapWitness:
    """The witness g = ((z + zeta)/2)^k, k = 2**k_log2, and the certified
    lower bound ``gap`` on |g(zeta) - (1/n) sum_m g(phi^m(0))|.

    r is half the orbit's distance to zeta and rho = sqrt(1 - r^2/4).  As
    doubles, rho rounds to 1 once r is below about 2e-8, and r to 0 below
    about 5e-324; k_log2 keeps the scale.
    """

    k_log2: int
    gap: float
    r: float
    rho: float


def boundary_gap_witness(s: Symbol, z0: complex, n: int) -> GapWitness:
    """Uniform lower gap 1/2 for the Cesaro means at a boundary attracting
    point, witnessed by g(z) = (z + zeta)/2 raised to a power of two.

    With zeta = z0/|z0| and r half the least distance from 0, phi(0), ...,
    phi^n(0) to zeta, k = 2**k_log2 is the least power of two with
    k r^2/8 >= log 2, so rho^k <= 1/2 for rho = sqrt(1 - r^2/4), the maximum
    of |(z + zeta)/2| on the closed disc off B(zeta, r).  Since |g(zeta)| = 1,
    the triangle inequality gives gap >= 1 - (1/n) sum_{m=1..n}
    |g(phi^m(0))|^k, which is at least 1/2; ``gap`` is this bound less a
    rounding margin of n * 2**-50.

    The orbit runs in doubles, centred on zeta: u_m = phi^m(0)/zeta - 1 obeys
    u <- psi0 + u * chi(u), with psi0 = phi(zeta)/zeta - 1 computed once at 40
    digits (the symbol's evaluator on mpmath values) and chi(u) the divided
    difference of phi between zeta and zeta(1 + u).  u is kept as a
    mantissa and a binary exponent, so orbits that close in on zeta at a
    geometric rate never underflow.  Each term |g|^k = (1 + y)^(k/2), with
    y = |1 + u/2|^2 - 1 formed from the mantissa, is rounded up to
    e^(k y/2), whose exponent is an exact power-of-two scaling.

    The margin covers the rounding of the steps (a relative error of a few
    units of 2**-53 in u per step, which adds up while the steps contract
    toward zeta, as they do at an attracting zeta) and of the sum: a term
    e^(-x) whose exponent is off by a relative d moves by at most d/e.

    Snap rule: when |psi0| <= FIXED_POINT_SNAP_TOL, zeta is taken as fixed
    (psi0 := 0), as for double coefficients that miss a boundary fixed point
    by their rounding.  Raises ArithmeticError when an orbit point leaves
    the closed disc (the bound would not hold), and when the orbit reaches
    zeta exactly (no avoidance radius exists).
    """
    z0 = complex(z0)
    if abs(abs(z0) - 1.0) > 1e-8:
        raise ValueError("z0 must lie on the unit circle")
    if n < 1:
        raise ValueError("n must be >= 1")
    zeta = z0 / abs(z0)
    with mp.workdps(40):
        zeta_mp = mp.mpc(zeta)
        psi0 = complex(s(zeta_mp) / zeta_mp - 1)
    if abs(psi0) <= FIXED_POINT_SNAP_TOL:
        psi0 = 0j
    chi = s._divided_difference(zeta)
    # u = mant * 2**exp with |mant| in [1/2, 1); the seed 0 is u = -1
    mant, exp = -0.5 + 0j, 1
    nearest = (exp, abs(mant))
    ys, y_exps = [], []  # y_m = ys[m] * 2**y_exps[m]
    for step in range(1, n + 1):
        u = mant * math.ldexp(1.0, exp)
        slope = chi(zeta + zeta * u)
        if psi0:
            mant, exp = psi0 + u * slope, 0
        else:
            mant *= slope
        size, shift = math.frexp(abs(mant))
        if size == 0.0:
            raise ArithmeticError(
                f"orbit of 0 reaches z0 exactly within {n} steps; "
                "no avoidance radius exists at this n"
            )
        mant = complex(math.ldexp(mant.real, -shift), math.ldexp(mant.imag, -shift))
        exp += shift
        nearest = min(nearest, (exp, size))
        # |phi^m(0)|^2 - 1 = 2**exp (2 Re mant + |mant|^2 2**exp), and
        # y = |1 + u/2|^2 - 1 = 2**exp (Re mant + |mant|^2 2**exp / 4)
        sq = (mant.real * mant.real + mant.imag * mant.imag) * math.ldexp(1.0, exp)
        if not 2.0 * mant.real + sq <= 0.0:  # also when not a number
            raise ArithmeticError(f"orbit of 0 leaves the closed disc at step {step}")
        ys.append(mant.real + 0.25 * sq)
        y_exps.append(exp)
    exp_r, size_r = nearest[0] - 1, nearest[1]  # r = size_r * 2**exp_r
    r = math.ldexp(size_r, exp_r)
    k_log2 = max(0, math.ceil(math.log2(8.0 * math.log(2.0))
                              - 2.0 * (math.log2(size_r) + exp_r)))
    with np.errstate(over="ignore"):
        exponents = np.ldexp(np.maximum(np.negative(ys), 0.0), np.array(y_exps) + k_log2 - 1)
    mean = math.fsum(np.exp(-exponents)) / n
    return GapWitness(k_log2, 1.0 - mean - n * GAP_ROUNDING_PER_STEP, r,
                      math.sqrt(1.0 - r * r / 4))


# ---------------------------------------------------------------------------
# Verdicts

@dataclass(frozen=True)
class ErgodicityVerdict:
    """Per-space decision with the rule tag and the numeric evidence used.

    ``mean_ergodic`` / ``uniformly_mean_ergodic`` take values yes / no /
    unknown; a yes on the uniform side forces a yes on the mean side, and an
    unknown always carries an explanation in ``evidence``.
    """

    space: str
    mean_ergodic: str
    uniformly_mean_ergodic: str
    theorem_tag: str
    evidence: list

    def __post_init__(self):
        if self.space not in SPACES:
            raise ValueError(f"unknown space {self.space!r}")
        if self.uniformly_mean_ergodic == YES and self.mean_ergodic != YES:
            raise ValueError("uniform mean ergodicity implies mean ergodicity")

    def to_dict(self):
        return {
            "space": self.space,
            "space_name": SPACE_NAMES[self.space],
            "mean_ergodic": self.mean_ergodic,
            "uniformly_mean_ergodic": self.uniformly_mean_ergodic,
            "theorem_tag": self.theorem_tag,
            "evidence": [
                {"name": name, "value": _json_value(value)}
                for name, value in self.evidence
            ],
        }


def _json_value(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    return value


# Budgets of the numerical evidence; ``verdict`` says what each one counts.
SUP_NORM_N = 40
MAX_PERIOD = 3
SUP_DECAY_DECISIVE = 0.2


def _elliptic_verdict(space: str, cls: dynamics.EllipticAutomorphism | None,
                      weight=None) -> ErgodicityVerdict:
    periodic = cls is None or cls.periodic  # None encodes the identity
    period = 1 if cls is None else cls.period
    evidence = [("period", period if periodic else "aperiodic")]
    if cls is not None:
        evidence.append(("multiplier", cls.multiplier))
        evidence.append(("fixed_point", cls.fixed_point))
    is_rotation = cls is None or abs(cls.fixed_point) < 1e-10
    if space in ("A", "Hinf"):
        if periodic:
            return ErgodicityVerdict(space, YES, YES, TAG_PERIODIC_ROTATION, evidence)
        if space == "A":
            return ErgodicityVerdict(space, YES, NO, TAG_APERIODIC_ROTATION, evidence)
        return ErgodicityVerdict(space, NO, NO, TAG_APERIODIC_ROTATION, evidence)
    # Weighted spaces: decided for rotations only; conjugation does not
    # preserve radial weights, and boundedness can fail off-center.
    if not is_rotation:
        evidence.append(("note", "weighted verdicts cover rotations about 0 only"))
        return ErgodicityVerdict(space, UNKNOWN, UNKNOWN, TAG_WEIGHTED_PERIODIC, evidence)
    if periodic:
        return ErgodicityVerdict(space, YES, YES, TAG_WEIGHTED_PERIODIC, evidence)
    matched = isinstance(weight, VAlpha) and abs(weight.seq.lam - (
        cls.multiplier if cls is not None else 1.0)) < 1e-9
    if space == "Hv0":
        if matched:
            evidence.append(("weight", "v_alpha adapted to this rotation"))
            return ErgodicityVerdict(space, YES, NO, TAG_WEIGHTED_APERIODIC, evidence)
        evidence.append(("note", "mean ergodic for every typical weight; "
                                 "uniformity depends on the weight"))
        return ErgodicityVerdict(space, YES, UNKNOWN, TAG_WEIGHTED_APERIODIC, evidence)
    if matched:
        evidence.append(("weight", "v_alpha adapted to this rotation"))
        return ErgodicityVerdict(space, NO, NO, TAG_WEIGHTED_APERIODIC, evidence)
    evidence.append(("note", "decided only for the adapted v_alpha weight"))
    return ErgodicityVerdict(space, UNKNOWN, UNKNOWN, TAG_WEIGHTED_APERIODIC, evidence)


def _interior_verdict(s: Symbol, space: str, cls: dynamics.InteriorDW) -> ErgodicityVerdict:
    evidence = [("z0", cls.z0), ("multiplier_modulus", cls.multiplier_modulus)]
    tag = TAG_INTERIOR_SUP_DECAY if space == "Hinf" else TAG_INTERIOR_A
    if space in ("Hv", "Hv0"):
        evidence.append(("note", "weighted theory covers rotation symbols only"))
        return ErgodicityVerdict(space, UNKNOWN, UNKNOWN, tag, evidence)
    if dynamics._as_moebius(s) is not None and _is_inner(s):
        # A degree-one map onto the circle is an automorphism, whose interior
        # fixed point cannot attract; rounding decided one of the two.
        evidence.append(("note", "contradiction: classified with an interior attracting "
                                 "point, yet an automorphism to within AUTOMORPHISM_TOL"))
        return ErgodicityVerdict(space, UNKNOWN, UNKNOWN, tag, evidence)
    # Certificate: a symbol that maps the closed disc into D(0, R), R < 1,
    # is a strict contraction of the hyperbolic metric on that compact
    # image (Schwarz-Pick, Earle-Hamilton), so phi^n -> z0 uniformly.  R is
    # taken with its rounding, and the margin is that of the
    # boundary-periodic-point search, which returns no point for such symbols.
    bound, rounding = _image_radius_bound(s)
    if bound + rounding < 1.0 - 1e-10:
        evidence.append(("image_radius_bound", bound))
        return ErgodicityVerdict(space, YES, YES, tag, evidence)
    periodic_pts = (dynamics._boundary_fixed_points(s)
                    or dynamics.boundary_periodic_points(s, MAX_PERIOD))
    if periodic_pts:
        bp = periodic_pts[0]
        evidence.append(("boundary_periodic_point", bp.point))
        evidence.append(("boundary_periodic_period", bp.period))
        evidence.append(("boundary_periodic_residual", bp.residual))
        if space == "A":
            tag = TAG_BOUNDARY_OBSTRUCTION
        return ErgodicityVerdict(space, NO, NO, tag, evidence)
    sups = dynamics.sup_distance_sequence(s, cls.z0, SUP_NORM_N)
    evidence.append(("sup_distance_first", float(sups[0])))
    evidence.append(("sup_distance_last", float(sups[-1])))
    evidence.append(("sup_norm_n", SUP_NORM_N))
    # Once some iterate maps the closed disc into a ball around z0 compactly
    # inside the disc, later iterates converge to z0 uniformly.
    decisive = min(SUP_DECAY_DECISIVE, 0.5 * (1.0 - abs(cls.z0)))
    if sups[-1] <= decisive:
        return ErgodicityVerdict(space, YES, YES, tag, evidence)
    evidence.append(("note", "no boundary periodic point found and the sup "
                             "norms did not decay decisively at this budget"))
    return ErgodicityVerdict(space, UNKNOWN, UNKNOWN, tag, evidence)


def _boundary_seeds(z0: complex, count: int) -> np.ndarray:
    seeds = boundary_points(count)
    keep = np.abs(seeds - z0) > 1e-6
    return seeds[keep]


def _boundary_verdict(s: Symbol, space: str, cls) -> ErgodicityVerdict:
    z0 = cls.z0
    parabolic = isinstance(cls, dynamics.ParabolicDW)
    evidence = [("z0", z0), ("angular_derivative", cls.angular_derivative)]
    if 0.0 < 1.0 - cls.angular_derivative < dynamics.BORDERLINE_BAND and not parabolic:
        evidence.append(("warning", "angular derivative within 1e-4 of 1; "
                                    "hyperbolic/parabolic split is borderline"))
    if space == "Hinf":
        return ErgodicityVerdict(space, NO, NO, TAG_BOUNDARY_DW, evidence)
    if space in ("Hv", "Hv0"):
        evidence.append(("note", "weighted theory covers rotation symbols only"))
        return ErgodicityVerdict(space, UNKNOWN, UNKNOWN, TAG_BOUNDARY_DW, evidence)
    # Disc algebra: uniform mean ergodicity always fails at a boundary
    # attracting point; mean ergodicity follows the exact dichotomies for
    # Moebius and inner symbols (``_is_inner``), the contact set otherwise.
    inner = _is_inner(s)
    mo = dynamics._as_moebius(s)
    if mo is not None:
        # Prop 3.9: mean ergodic unless a hyperbolic automorphism
        evidence.append(("image_is_unit_circle", inner))
        if not inner:
            center, radius = _moebius_image_circle(mo)
            evidence.append(("tangency_gap", abs((1.0 - abs(center)) - radius)))
        elif not parabolic:
            evidence.append(("repelling_fixed_point", "present (hyperbolic automorphism)"))
        return ErgodicityVerdict(space, NO if inner and not parabolic else YES, NO,
                                 f"{TAG_LFT} + {TAG_BOUNDARY_DW}", evidence)
    if inner:  # a Blaschke product of degree two or more
        evidence.append(("blaschke_degree", s.degree))
        return ErgodicityVerdict(space, NO, NO,
                                 f"{TAG_BLASCHKE} + {TAG_BOUNDARY_DW}", evidence)
    # Generic route: a polynomial of degree d >= 2 that is not inner.  Points
    # of the disc tend to z0, and so do points of the circle that phi maps
    # into the disc.  The others stay in the contact set {|phi| = 1}, the
    # double zeros of the trigonometric polynomial 1 - |phi|^2 of degree d:
    # at most d points, z0 among them.  So every orbit converges unless a
    # cycle other than z0, of period at most d - 1, lies on the circle, and
    # pointwise convergence of the bounded Cesaro means is weak convergence
    # in A (Rainwater), hence norm convergence (Yosida-Eberlein).
    tag = f"{TAG_DENSITY} + {TAG_BOUNDARY_DW}"
    needed = s.degree - 1
    searched = min(needed, dynamics.PERIOD_CAP)
    others = [bp for bp in dynamics.boundary_periodic_points(s, searched)
              if abs(bp.point - z0) > 1e-6]
    if others:
        evidence.append(("boundary_periodic_point", others[0].point))
        return ErgodicityVerdict(space, NO, NO, tag, evidence)
    evidence.append(("boundary_period_searched", searched))
    if searched < needed:
        evidence.append(("note", f"cycles of period above {searched} were not searched"))
        return ErgodicityVerdict(space, UNKNOWN, NO, tag, evidence)
    return ErgodicityVerdict(space, YES, NO, tag, evidence)


def verdict(s: Symbol, space: str, weight=None,
            cls: dynamics.SymbolClass | None = None) -> ErgodicityVerdict:
    """Mean-ergodicity verdict for the composition operator on one space.

    Classifies the symbol, then applies the decision rules: periodic
    elliptic automorphisms are uniformly mean ergodic everywhere; aperiodic
    rotations are mean ergodic on the disc algebra but not uniformly, and not
    mean ergodic on the bounded functions; boundary attracting points are
    never uniformly mean ergodic, with the exact Moebius/Blaschke
    dichotomies and the contact set deciding mean ergodicity.

    At an interior attracting point, an image-radius bound R (exact for
    Moebius maps, sum |c_k| for polynomial and Taylor symbols) that lies
    below 1 - 1e-10 with its rounding added proves uniform convergence
    phi^n -> z0 and gives yes/yes with evidence ``image_radius_bound``, R
    itself; otherwise a boundary periodic point obstructs (a fixed point
    read from phi(z) = z, else one the sampled search finds), or sup-norm
    decay of the iterates decides.  At a boundary attracting point of a
    polynomial of degree d that is not inner, a boundary cycle other than
    z0, of period at most d - 1, answers no on A; none answers yes, with
    evidence ``boundary_period_searched``, and unknown where d - 1 exceeds
    ``dynamics.PERIOD_CAP`` and the search stops there.
    A degree-one symbol classified with an interior attracting point that
    also passes the automorphism test (``symbols._is_inner``) contradicts
    itself: it answers unknown/unknown, with a note naming the
    contradiction, and runs no experiment.
    ``unknown`` is a valid outcome and carries its reason.  ``cls``, when
    given, is the symbol's ``dynamics.classify`` result and saves
    classifying it again.

    Budgets, all module constants, none set by a caller: SUP_NORM_N
    iterates of ``symbols.disc_grid``; boundary periodic points up to
    MAX_PERIOD at an interior attracting point, and up to d - 1 but at
    most ``dynamics.PERIOD_CAP`` at a boundary one.
    """
    if space not in SPACES:
        raise ValueError(f"space must be one of {SPACES}")
    if cls is None:
        cls = dynamics.classify(s)
    if isinstance(cls, dynamics.Identity):
        return _elliptic_verdict(space, None, weight)
    if isinstance(cls, dynamics.EllipticAutomorphism):
        return _elliptic_verdict(space, cls, weight)
    if isinstance(cls, dynamics.InteriorDW):
        return _interior_verdict(s, space, cls)
    return _boundary_verdict(s, space, cls)
