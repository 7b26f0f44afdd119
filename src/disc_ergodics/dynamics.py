"""Fixed points, Denjoy-Wolff points, and classification of disc self-maps.

Every non-identity self-map of the disc that is not an elliptic automorphism
has a unique Denjoy-Wolff point: the attracting fixed point in the closed
disc toward which all forward orbits converge locally uniformly.  This module
locates it, measures angular derivatives at boundary fixed points, and sorts
symbols into the five dynamical classes that drive the ergodicity verdicts.

Linear-fractional symbols are classified from the normal form of
``symbols._moebius_normal_form`` (fixed points p, q and kappa = phi'(p)),
evaluated in doubles; the orbit engine evaluates it at 40 digits.  Other
symbols are classified by iteration plus Newton polishing.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass, fields

import numpy as np

from .symbols import (
    Blaschke,
    Moebius,
    Polynomial,
    Symbol,
    _as_moebius,
    _image_radius_bound,
    _is_inner,
    _moebius_normal_form,
    disc_grid,
    orbit_blocks,
    rotation_fraction,
)

# |angular derivative - 1| below TOL_PARABOLIC means parabolic; doubles give
# roughly 1e-8 accuracy on the derivative, so 1e-6 leaves margin.  Borderline
# values within BORDERLINE_BAND of 1 are flagged in classification notes.
TOL_PARABOLIC = 1e-6
BORDERLINE_BAND = 1e-4
DW_MAX_ITER = 10**6  # step budget of the Denjoy-Wolff orbit
DW_TOL = 1e-6  # step size at which it stops; Newton polish takes it further
BOUNDARY_PROXIMITY_TOL = 1e-6
FIXED_POINT_RESIDUAL_TOL = 1e-8
PERIOD_SAMPLES = 2048  # equispaced angles that bracket boundary periodic points
PERIOD_CAP = 8  # longest period boundary_periodic_points searches
CONTRACTION_GRID = 16  # rings, and angles per ring, of local_contraction_check
# Degree cap of the fixed-point equation: its zeros take 1-6.5 ms at degree 16,
# about what a sampled search of such a map takes (3-8 ms), and overflow at 64
FIXED_POINT_DEGREE_CAP = 16


class EllipticInputError(ValueError):
    """Denjoy-Wolff search received an elliptic automorphism or the identity."""


class NonConvergenceError(RuntimeError):
    """Orbit iteration exhausted its budget without meeting the tolerance."""

    def __init__(self, message, last_point=None, iterations=0):
        super().__init__(message)
        self.last_point = last_point
        self.iterations = iterations


class UnclassifiableError(RuntimeError):
    """Residuals exceeded every tolerance; refusing to guess a class."""


# ---------------------------------------------------------------------------
# Classification records

class _Record:
    """Classification record; ``to_dict`` gives complex fields as [re, im]."""

    def to_dict(self):
        doc = {"kind": self.kind}
        for f in fields(self):
            value = getattr(self, f.name)
            doc[f.name] = [value.real, value.imag] if f.type == "complex" else value
        return doc


@dataclass(frozen=True)
class Identity(_Record):
    kind = "identity"


@dataclass(frozen=True)
class EllipticAutomorphism(_Record):
    """Automorphism with an interior fixed point; conjugate to a rotation.

    ``period`` is the least k with multiplier**k == 1 (within 1e-10), or None
    when no k up to the search bound ``symbols.PERIOD_SEARCH_MAX`` works
    ("aperiodic" -- a numerical, not mathematical, statement).
    """

    fixed_point: complex
    multiplier: complex
    period: int | None

    kind = "elliptic_automorphism"

    @property
    def periodic(self) -> bool:
        return self.period is not None


@dataclass(frozen=True)
class InteriorDW(_Record):
    z0: complex
    multiplier_modulus: float

    kind = "interior_dw"


@dataclass(frozen=True)
class HyperbolicDW(_Record):
    z0: complex
    angular_derivative: float

    kind = "hyperbolic_dw"


@dataclass(frozen=True)
class ParabolicDW(_Record):
    z0: complex
    angular_derivative: float

    kind = "parabolic_dw"


SymbolClass = Identity | EllipticAutomorphism | InteriorDW | HyperbolicDW | ParabolicDW


@dataclass(frozen=True)
class DWResult:
    point: complex
    iterations_used: int
    residual: float
    convergence_rate_estimate: float


# ---------------------------------------------------------------------------
# Moebius fixed points

def _double_normal_form(m: Moebius) -> tuple[complex, complex | None, complex]:
    """p, q and kappa of ``_moebius_normal_form`` in doubles, with a
    (numerically) double root merged: p = q = (a - d)/2c, kappa = 1.

    (d - a)^2 + 4bc equals tr^2 - 4 det, so a small value relative to |det|
    means a (numerically) parabolic map; below the cancellation noise floor
    of the sum the split roots carry no information either way.  The
    midpoint must also be fixed, to FIXED_POINT_RESIDUAL_TOL: a hyperbolic
    automorphism with multiplier near 1 passes the first test, yet fixes +-1.
    """
    p, q, kappa = _moebius_normal_form(m.a, m.b, m.c, m.d)
    if p is None:
        raise ValueError("an affine map with a = d fixes no finite point or every point")
    B, bc = m.d - m.a, m.b * m.c
    noise_floor = 9e-16 * max(abs(B) ** 2, 4.0 * abs(bc))
    if q is not None and abs(B * B + 4.0 * bc) <= max(4e-9 * abs(m.det), noise_floor):
        mid = -B / (2.0 * m.c)
        if abs(m(mid) - mid) <= FIXED_POINT_RESIDUAL_TOL:
            p = q = mid
            kappa = 1.0
    return p, q, kappa


def _interior_rotation(m: Moebius) -> tuple[complex, complex] | None:
    """(p, kappa/|kappa|) when the Moebius map m is an elliptic automorphism
    fixing p in the disc, else None: the one test for "elliptic".  Its fixed
    points p and 1/conj(p) stay apart however small the angle, so they are
    not merged.
    """
    if not _is_inner(m):
        return None
    p, q, kappa = _moebius_normal_form(m.a, m.b, m.c, m.d)
    if q is not None and abs(q) < abs(p):  # taken when ||kappa| - 1| > 1e-12
        p, kappa = q, 1.0 / kappa
    if p is None or abs(p) >= 1.0 - BOUNDARY_PROXIMITY_TOL or abs(abs(kappa) - 1.0) > 1e-6:
        return None
    return p, kappa / abs(kappa)


def moebius_fixed_points(m: Moebius) -> list[tuple[complex, int]]:
    """Finite fixed points of a Moebius map as (point, multiplicity) pairs,
    the Denjoy-Wolff candidate first.

    A double root is reported once with multiplicity 2.  An affine map
    (c = 0) contributes its single finite fixed point, and raises ValueError
    when a = d (a translation, or the identity).
    """
    p, q, _ = _double_normal_form(m)
    return [(p, 2)] if p == q else [(p, 1)] if q is None else [(p, 1), (q, 1)]


def _is_identity_probe(s: Symbol) -> bool:
    probes = [0.0, 0.5, -0.5, 0.5j, -0.5j, 0.3 + 0.4j, -0.2 + 0.7j, 0.9]
    return all(abs(complex(s(z)) - z) <= 1e-12 for z in probes)


# ---------------------------------------------------------------------------
# Denjoy-Wolff point

def denjoy_wolff(s: Symbol) -> DWResult:
    """Locate the Denjoy-Wolff point.

    Moebius maps use the attracting fixed point of their normal form; other
    symbols iterate from 0 until successive steps shrink below ``DW_TOL``,
    within ``DW_MAX_ITER`` steps, and the rate estimate is the last ratio of
    step sizes.  Parabolic-type convergence (~C/n) can exhaust the budget at
    tight tolerances; then NonConvergenceError reports the last point
    instead of an answer.
    """
    if _is_identity_probe(s):
        raise EllipticInputError("the identity has no Denjoy-Wolff point")
    mo = _as_moebius(s)
    if mo is not None and _interior_rotation(mo) is not None:
        raise EllipticInputError("elliptic automorphism: it fixes an interior point")
    if isinstance(s, Moebius):
        p, _, kappa = _double_normal_form(s)
        if abs(p) > 1.0 + 1e-8:
            raise UnclassifiableError("no fixed point of the Moebius map on the closed disc")
        return DWResult(p, 0, abs(complex(s(p)) - p), min(abs(kappa), 1.0))
    z = 0.0 + 0.0j
    prev_step = None
    rate = math.nan
    for n in range(1, DW_MAX_ITER + 1):
        w = complex(s(z))
        step = abs(w - z)
        if prev_step is not None and prev_step > 0:
            rate = step / prev_step
        if step < DW_TOL:
            residual = abs(complex(s(w)) - w)
            return DWResult(w, n, residual, rate if not math.isnan(rate) else 0.0)
        prev_step = step
        z = w
    raise NonConvergenceError(
        f"no convergence within {DW_MAX_ITER} iterations at tol {DW_TOL:g}",
        last_point=z,
        iterations=DW_MAX_ITER,
    )


# ---------------------------------------------------------------------------
# Angular derivative

def angular_derivative(s: Symbol, z0: complex) -> float:
    """|phi'(z0)| at a boundary fixed point z0.

    Every symbol kind extends holomorphically across the circle (a Taylor
    symbol is its stored polynomial), so by the Julia-Caratheodory theorem
    the angular derivative is the modulus of the analytic derivative
    (Cowen-MacCluer 1995, ch. 2).
    """
    z0 = complex(z0)
    if abs(abs(z0) - 1.0) > 1e-8:
        raise ValueError(f"z0 = {z0!r} is not on the unit circle")
    if abs(complex(s(z0)) - z0) > FIXED_POINT_RESIDUAL_TOL:
        raise ValueError(f"z0 = {z0!r} is not fixed by the symbol")
    return abs(complex(s.derivative(z0)))


# ---------------------------------------------------------------------------
# Classification

def _rotation_period(multiplier: complex) -> int | None:
    # the least k <= PERIOD_SEARCH_MAX with |multiplier^k - 1| <= 1e-10, if
    # any: the denominator of the turns' nearest fraction or none
    k = rotation_fraction(cmath.phase(multiplier) / (2.0 * math.pi)).denominator
    return k if abs(multiplier ** k - 1.0) <= 1e-10 else None


def _polish_fixed_point(s: Symbol, z: complex) -> complex:
    # Newton on phi(z) - z, 120 steps at most; linear but sure-footed even at
    # a parabolic (multiplicity-two) boundary fixed point, where the error halves.
    for _ in range(120):
        f = complex(s(z)) - z
        if abs(f) < 1e-15:
            break
        df = complex(s.derivative(z)) - 1.0
        if df == 0:
            break
        step = f / df
        if abs(step) > 0.5:
            step *= 0.5 / abs(step)
        z = z - step
    return z


def _boundary_class(s: Symbol, z0: complex) -> SymbolClass:
    z0 = z0 / abs(z0)
    deriv = angular_derivative(s, z0)
    if abs(deriv - 1.0) <= TOL_PARABOLIC:
        return ParabolicDW(z0, deriv)
    if deriv < 1.0:
        return HyperbolicDW(z0, deriv)
    raise UnclassifiableError(
        f"boundary fixed point {z0!r} has angular derivative {deriv:.8g} > 1; "
        "not a Denjoy-Wolff point"
    )


def classify(s: Symbol) -> SymbolClass:
    """Sort a symbol into identity / elliptic automorphism / interior DW /
    hyperbolic DW / parabolic DW.

    Linear-fractional symbols are classified from their normal form: an
    automorphism fixing a point of the disc is an elliptic automorphism, and
    otherwise the attracting fixed point is interior or on the circle.
    Everything else goes through the Denjoy-Wolff search; its candidate is
    Newton-polished and verified against FIXED_POINT_RESIDUAL_TOL before
    being believed.  Raises
    UnclassifiableError instead of guessing when residuals stay large.
    """
    if _is_identity_probe(s):
        return Identity()
    mo = _as_moebius(s)
    if mo is not None:
        rotation = _interior_rotation(mo)
        if rotation is not None:
            p, lam = rotation
            return EllipticAutomorphism(p, lam, _rotation_period(lam))
        p, _, kappa = _double_normal_form(mo)
        if abs(p) < 1.0 - BOUNDARY_PROXIMITY_TOL:
            return InteriorDW(p, abs(kappa))
        if abs(p) > 1.0 + 1e-8:
            raise UnclassifiableError("no fixed point of the Moebius map on the closed disc")
        return _boundary_class(s, p)
    # General route, one for every other kind (a Taylor symbol is its stored
    # polynomial): iterate, polish, then decide interior vs boundary.
    try:
        point = denjoy_wolff(s).point
    except NonConvergenceError as exc:
        point = exc.last_point
    point = _polish_fixed_point(s, point)
    residual = abs(complex(s(point)) - point)
    if residual > FIXED_POINT_RESIDUAL_TOL:
        raise UnclassifiableError(
            f"fixed-point residual {residual:.3g} exceeds {FIXED_POINT_RESIDUAL_TOL:g}"
        )
    if abs(point) < 1.0 - BOUNDARY_PROXIMITY_TOL:
        return InteriorDW(point, abs(complex(s.derivative(point))))
    return _boundary_class(s, point)


# ---------------------------------------------------------------------------
# Sup norms of iterates

def sup_norm_sequence(s: Symbol, n_max: int) -> np.ndarray:
    """Grid sup of |phi^n| for n = 1..n_max in a single sweep."""
    return sup_distance_sequence(s, 0.0, n_max)


def sup_norm_iterate(s: Symbol, n: int) -> float:
    """Grid maximum of |phi^n| over the closed disc."""
    return float(sup_norm_sequence(s, n)[-1])


def sup_distance_sequence(s: Symbol, z0: complex, n_max: int) -> np.ndarray:
    """Grid sup of |phi^n - z0| for n = 1..n_max, over ``symbols.disc_grid``.

    The conjugation-invariant decay statistic for an interior attracting
    point z0: it reduces to the plain sup norm when z0 = 0.  When phi maps
    the circle onto itself (``symbols._is_inner``), so does every phi^n: the
    sup over the closed disc is then 1 + |z0|, returned without stepping.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if _is_inner(s):
        return np.full(n_max, 1.0 + abs(z0))
    out = np.empty(n_max)
    for m0, block in orbit_blocks(s, disc_grid(), n_max):
        out[m0:m0 + len(block)] = np.max(np.abs(block - z0), axis=1)
    return out


# ---------------------------------------------------------------------------
# Boundary periodic points

@dataclass(frozen=True)
class BoundaryPeriodicPoint:
    point: complex
    period: int
    residual: float


# Bisection levels resolved per array evaluation of the gap: the 2**3 - 1
# midpoints that a bracket can need over its next three levels are evaluated
# together.  Three measured fastest; deeper levels evaluate more midpoints
# than their saved calls are worth.
BISECTION_DEPTH = 3
# The PERIOD_SAMPLES equispaced angles t of [0, 2 pi), with e^{it} and e^{-it}
_SAMPLE_ANGLES = np.linspace(0.0, 2.0 * np.pi, PERIOD_SAMPLES, endpoint=False)
_SAMPLE_UNITS = np.exp(1j * _SAMPLE_ANGLES), np.exp(-1j * _SAMPLE_ANGLES)


def _turned_orbit(s: Symbol, units, period) -> np.ndarray:
    """phi^k(e^{it}) e^{-it} along one orbit of the points e^{it}, given as
    the pair ``units`` = (e^{it}, e^{-it}): row k - 1 holds the k-th
    iterate.  Its argument is the wrapped argument gap
    arg(phi^k(e^{it}) e^{-it}) in (-pi, pi], and its modulus |phi^k(e^{it})|.

    Each point is stepped up to its own period (``period``: an int, or an
    int array with one entry per point), longest periods first, and its
    later rows are nan.
    """
    period = np.broadcast_to(period, units[0].shape)
    order = np.argsort(-period, kind="stable")
    live, turn_back = units[0][order], units[1][order]
    turned = np.full((int(period.max()), len(order)), np.nan, dtype=complex)
    for k in range(1, len(turned) + 1):
        live = s(live[:np.count_nonzero(period >= k)])
        turned[k - 1, order[:len(live)]] = live * turn_back[:len(live)]
    return turned


def _midpoint_tree(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    # the midpoints of the next BISECTION_DEPTH levels, in heap order: node
    # i bisects (l, h), node 2i + 1 then bisects (l, mid), node 2i + 2 (mid, h)
    bounds, mids = [(lo, hi)], []
    for i in range(2**BISECTION_DEPTH - 1):
        left, right = bounds[i]
        mids.append(0.5 * (left + right))
        bounds += [(left, mids[-1]), (mids[-1], right)]
    return np.array(mids)


def _register(s: Symbol, found: list, angles: list, q: complex, period: int):
    """Add the circle point q, with its minimal period, to ``found`` (in the
    order of the angles in [0, 2 pi) of ``angles``) if |phi^period(q) - q|
    <= 1e-10 and no point of ``found`` lies within 1e-8 (2e-8 in angle)."""
    orbit = [q]
    for _ in range(period):
        orbit.append(complex(s(orbit[-1])))
    residual = abs(orbit[period] - q)
    if not residual <= 1e-10:  # also when a zero did not converge (nan)
        return
    minimal = next((d for d in range(1, period) if period % d == 0
                    and abs(orbit[d] - q) <= FIXED_POINT_RESIDUAL_TOL), period)
    angle = math.atan2(q.imag, q.real) % (2.0 * math.pi)
    for shift in (0.0, 2.0 * math.pi, -2.0 * math.pi):
        for i in range(bisect.bisect_left(angles, angle + shift - 2e-8),
                       bisect.bisect_right(angles, angle + shift + 2e-8)):
            if abs(found[i].point - q) < 1e-8:
                return
    i = bisect.bisect_right(angles, angle)
    angles.insert(i, angle)
    found.insert(i, BoundaryPeriodicPoint(q, minimal, residual))


def boundary_periodic_points(s: Symbol, max_period: int) -> list[BoundaryPeriodicPoint]:
    """Periodic points of the symbol on the unit circle, up to ``max_period``.

    A point q is reported only if it passes the residual test
    |phi^p(q) - q| <= 1e-10, which needs |phi^p(q)| >= 1 - 1e-10.  When the
    symbol maps the closed disc into a disc of radius R, and R plus its
    rounding is below 1 - 1e-10 (the residual test's margin;
    ``symbols._image_radius_bound``), so does every iterate, and the search
    returns [] without sampling.

    Otherwise roots of phi^p(e^{it}) = e^{it} are bracketed by strict sign
    changes of the wrapped argument gap arg(phi^p(e^{it})) - t on
    PERIOD_SAMPLES equispaced angles, skipping branch jumps of the wrapped
    argument; exact zeros of the gap are taken as they are.  One orbit of
    the angles gives the gaps of every period p <= max_period.  A bracket
    is dropped where no point of it can pass the residual test: for a
    polynomial symbol, |phi^p(e^{it})| changes at most at the rate L^p,
    L = sum k |c_k| >= sup |phi'| on the closed disc, so on a bracket of
    width h it is at most the mean of its two end values plus L^p h/2, and
    a bracket where that bound is below 1 - 2e-10 is dropped (the other
    1e-10 covers the rounding of the orbits).  The brackets
    of all periods are bisected together, each for at most 80 levels or
    until it is narrower than 1e-14: one array evaluation of the gap covers
    the next BISECTION_DEPTH levels of every open bracket, which are then
    resolved in order, so the roots are those of bisecting one level per
    evaluation, bit for bit.  Candidates are kept by the rule of
    ``_register``, whose residual test also discards argument crossings
    where the modulus drops inside the disc (the symbol need not carry the
    circle onto itself).
    """
    if not 1 <= max_period <= PERIOD_CAP:
        raise ValueError(f"max_period must be between 1 and {PERIOD_CAP}")
    bound, rounding = _image_radius_bound(s)
    if bound + rounding < 1.0 - 1e-10:
        return []
    found, angles = [], []
    t = _SAMPLE_ANGLES
    t_next = np.append(t[1:], 2.0 * np.pi)
    turned = _turned_orbit(s, _SAMPLE_UNITS, max_period)
    gaps, moduli = np.angle(turned), np.abs(turned)
    g_next = np.roll(gaps, -1, axis=1)
    rate = (float(sum(k * abs(c) for k, c in enumerate(s.coeffs)))
            if isinstance(s, Polynomial) else math.inf)
    reach = 0.5 * (moduli + np.roll(moduli, -1, axis=1) + rate ** np.arange(
        1, max_period + 1)[:, None] * (2.0 * np.pi / PERIOD_SAMPLES))
    # brackets in row-major order: by period, then by angle
    row, col = np.nonzero((gaps * g_next < 0.0) & (np.abs(gaps) + np.abs(g_next) < np.pi)
                          & ~(reach < 1.0 - 2e-10))
    period, lo, hi, glo = row + 1, t[col], t_next[col], gaps[row, col]
    active, levels = np.arange(len(col)), 0
    while len(active) and levels < 80:
        mids = _midpoint_tree(lo[active], hi[active])
        periods = np.tile(period[active], len(mids))
        units = np.exp(1j * mids.ravel()), np.exp(-1j * mids.ravel())
        gm_tree = np.angle(_turned_orbit(s, units, periods)[
            periods - 1, np.arange(len(periods))]).reshape(mids.shape)
        at, node = np.arange(len(active)), np.zeros(len(active), dtype=np.intp)
        for _ in range(min(BISECTION_DEPTH, 80 - levels)):
            idx, mid, gm = active[at], mids[node, at], gm_tree[node, at]
            left = glo[idx] * gm < 0.0
            hit = gm == 0.0  # an exact root closes its bracket on itself
            hi[idx[left | hit]] = mid[left | hit]
            lo[idx[~left]] = mid[~left]
            glo[idx[~left]] = gm[~left]
            keep = ~hit & (hi[idx] - lo[idx] >= 1e-14)
            at, node = at[keep], (2 * node + 2 - left)[keep]
        active, levels = active[at], levels + BISECTION_DEPTH
    roots = 0.5 * (lo + hi)
    for p in range(1, max_period + 1):
        for root in np.concatenate((t[gaps[p - 1] == 0.0], roots[period == p])):
            _register(s, found, angles, cmath.exp(1j * float(root)), p)
    return found


def _boundary_fixed_points(s: Symbol) -> list[BoundaryPeriodicPoint]:
    """Fixed points of the symbol on the circle, by the rule of ``_register``,
    from the zeros r of phi(z) - z, or of e^{i theta} prod (z - a_k) -
    z prod (1 - conj(a_k) z) for a Blaschke product, projected to e^{i arg r}.
    Other kinds, and equations above FIXED_POINT_DEGREE_CAP, give []."""
    if isinstance(s, Polynomial):  # coefficients in descending order
        c = np.polysub(s.coeffs[::-1], [1.0, 0.0])
    elif isinstance(s, Blaschke):
        c = np.polysub(s._unit * np.poly(s.zeros),
                       np.append(np.poly(np.conj(s.zeros))[::-1], 0.0))
    else:
        return []
    c = np.trim_zeros(c, "f")
    if not 1 < len(c) <= FIXED_POINT_DEGREE_CAP + 1:
        return []
    # Durand-Kerner steps from n points of the unit circle, turned by 0.4 off
    # symmetric positions; np.roots would page in 1 MB of LAPACK code for them
    c, n = c / c[0], len(c) - 1
    z = np.exp(1j * (2.0 * np.pi * np.arange(n) / n + 0.4))
    for _ in range(300):
        step = np.polyval(c, z) / (z[:, None] - z + np.eye(n)).prod(axis=1)
        z = z - step
        if np.all(np.abs(step) <= 1e-15 * (1.0 + np.abs(z))):
            break
    found, angles = [], []
    for r in z:
        _register(s, found, angles, cmath.exp(1j * cmath.phase(r)), 1)
    return found


# ---------------------------------------------------------------------------
# Local contraction

@dataclass(frozen=True)
class ContractionReport:
    rho: float
    passed: bool


def local_contraction_check(s: Symbol, z0: complex, r: float) -> ContractionReport:
    """Largest ratio |phi(z) - z0| / |z - z0| over B(z0, r) within the disc,
    sampled on CONTRACTION_GRID rings of as many angles each.

    A ratio below one certifies local attraction toward the fixed point z0 on
    the sampled neighborhood.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    z0 = complex(z0)
    if abs(complex(s(z0)) - z0) > FIXED_POINT_RESIDUAL_TOL:
        raise ValueError("z0 must be a fixed point")
    radii = r * (np.arange(1, CONTRACTION_GRID + 1) / CONTRACTION_GRID)
    angles = np.exp(1j * 2.0 * np.pi * np.arange(CONTRACTION_GRID) / CONTRACTION_GRID)
    pts = (z0 + radii[:, None] * angles[None, :]).ravel()
    pts = pts[np.abs(pts) <= 1.0]
    if len(pts) == 0:
        raise ValueError("no sample points inside the closed disc")
    ratios = np.abs(s(pts) - z0) / np.abs(pts - z0)
    rho = float(np.max(ratios))
    return ContractionReport(rho, rho < 1.0)


# ---------------------------------------------------------------------------
# Report serialization

def classification_to_dict(c: SymbolClass, s: Symbol | None = None) -> dict:
    doc = c.to_dict()
    if s is not None and not isinstance(c, Identity):
        point = c.fixed_point if isinstance(c, EllipticAutomorphism) else c.z0
        doc["residual"] = abs(complex(s(point)) - point)
    doc["tolerances"] = {
        "tol_parabolic": TOL_PARABOLIC,
        "fixed_point_residual": FIXED_POINT_RESIDUAL_TOL,
    }
    return doc
