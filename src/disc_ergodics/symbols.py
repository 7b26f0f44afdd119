"""Analytic self-maps of the closed unit disc.

A symbol is a holomorphic map of the closed disc into itself, given in one of
three concrete forms: a Moebius map (az+b)/(cz+d), a finite Blaschke product,
or a polynomial.  A truncated Taylor series is the polynomial it stores, with
a coefficient budget.  Every symbol validates itself at construction;
evaluation, differentiation and iteration accept plain complex scalars or
numpy arrays.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
import struct
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np

# Construction / evaluation tolerances.  SELF_MAP_TOL is the slack allowed on
# the grid maximum of |phi|; doubles never exceed it for a genuine self-map
# whose evaluation is well conditioned (``_rounding_condition``).
# POLE_MARGIN keeps Moebius poles off the closed disc.
SELF_MAP_TOL = 1e-9
UNIT_ROUNDOFF = 2.0**-53
POLE_MARGIN = 1e-12
DET_TOL = 1e-12
TAYLOR_TRUNCATION_DEFAULT = 4096
GRID_ANGLES, GRID_RINGS = 512, 64  # disc_grid: points per ring, rings inside the circle
# Relative defect of the automorphism identity (``_is_inner``) taken as
# rounding: make_automorphism("elliptic", ...) misses it by up to 7e-11 when
# its coefficients cancel (a map near the identity, with p near the circle).
AUTOMORPHISM_TOL = 1e-10


class SymbolError(ValueError):
    """Invalid symbol: broken invariant or failed self-map validation."""


class SymbolParseError(SymbolError):
    """Malformed symbol document.  ``path`` points at the offending field."""

    def __init__(self, message, path=""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


def _require_finite(z: complex, name: str) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise SymbolError(f"{name} must have finite components, got {z!r}")
    return z


def boundary_points(n: int) -> np.ndarray:
    """n equispaced points on the unit circle, starting at 1."""
    t = 2.0 * np.pi * np.arange(n) / n
    return np.exp(1j * t)


@functools.cache
def disc_grid() -> np.ndarray:
    """Deterministic sampling of the closed disc, boundary-dominant.

    Rings at radius one, at zero, and at Chebyshev-spaced radii accumulating
    toward the boundary, where extremes of |phi^n| concentrate: 33,281
    points.  Built once and shared, so the array is read-only.
    """
    angles = boundary_points(GRID_ANGLES)
    cheb = np.cos(np.pi * (2.0 * np.arange(GRID_RINGS) + 1.0) / (4.0 * GRID_RINGS))
    radii = np.concatenate(([1.0], cheb))
    grid = (radii[:, None] * angles[None, :]).ravel()
    grid = np.concatenate((grid, [0.0 + 0.0j]))
    grid.flags.writeable = False
    return grid


def _horner(coeffs, z):
    """Evaluate sum coeffs[j] * z**j (ascending order) by Horner's scheme."""
    if len(coeffs) == 0:
        return 0.0 * z
    acc = coeffs[-1] + 0.0 * z
    for c in reversed(coeffs[:-1]):
        acc = acc * z + c
    return acc


def _synthetic_division(coeffs, zeta):
    """Coefficients of (p(z) - p(zeta)) / (z - zeta), ascending."""
    quotient = [0j] * (len(coeffs) - 1)
    acc = 0j
    for j in range(len(coeffs) - 1, 0, -1):
        acc = acc * zeta + coeffs[j]
        quotient[j - 1] = acc
    return quotient


class Symbol:
    """Base class for validated analytic self-maps of the closed disc."""

    kind = "abstract"

    def __call__(self, z):
        raise NotImplementedError

    def derivative(self, z):
        """phi'(z): the divided difference at z = zeta."""
        return self._divided_difference(z)(z)

    def _divided_difference(self, zeta):
        """z -> (phi(z) - phi(zeta)) / (z - zeta), which is phi'(zeta) at
        z = zeta.  zeta and z may be complex scalars, numpy arrays of one
        shape, or mpmath values."""
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError

    def _validate_self_map(self):
        """Raise SymbolError unless the symbol maps the closed disc into itself.

        The exact image-radius bound R (``_image_radius_bound``) settles it
        without sampling when R <= 1 + SELF_MAP_TOL/2 and rounding cannot
        carry R or the grid values of |phi| past the other half
        (``_rounding_condition``): ``self_map_check`` would pass.  Otherwise
        ``self_map_check`` decides, so the same symbols are accepted and the
        same errors raised as by the grid alone.
        """
        if (_image_radius_bound(self) <= 1.0 + SELF_MAP_TOL / 2
                and _rounding_condition(self) * UNIT_ROUNDOFF <= SELF_MAP_TOL / 2):
            return
        report = self_map_check(self)
        if not report.passed:
            raise SymbolError(
                f"not a self-map of the closed disc: |phi({report.witness!r})| "
                f"= {report.max_modulus:.6g} > 1 + {SELF_MAP_TOL:g}"
            )

    def _reject_boundary_constant(self):
        # A constant of modulus one maps the open disc onto the boundary and
        # is not an analytic self-map of the disc.
        probes = [0.0, 0.37, 0.41j, -0.53 + 0.11j]
        values = [complex(self(p)) for p in probes]
        if max(abs(v - values[0]) for v in values) < 1e-15 and abs(values[0]) >= 1.0 - 1e-12:
            raise SymbolError("constant symbol with unimodular value is not admitted")


@dataclass(frozen=True)
class Moebius(Symbol):
    """z -> (a z + b) / (c z + d), with the pole off the closed disc."""

    a: complex
    b: complex
    c: complex
    d: complex

    kind = "moebius"

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, _require_finite(getattr(self, name), name))
        if abs(self.det) <= DET_TOL:
            raise SymbolError(f"degenerate Moebius map: |ad - bc| = {abs(self.det):.3g}")
        if self.c != 0:
            pole = -self.d / self.c
            if abs(pole) <= 1.0 + POLE_MARGIN:
                raise SymbolError(
                    f"pole at {pole!r} lies on the closed disc (denominator vanishes)"
                )
        elif self.d == 0:
            raise SymbolError("c = d = 0 gives an identically infinite map")
        self._reject_boundary_constant()
        self._validate_self_map()

    @classmethod
    def _unchecked(cls, a, b, c, d) -> "Moebius":
        # For forms derived from an already validated symbol.
        m = object.__new__(cls)
        for name, value in zip("abcd", (a, b, c, d)):
            object.__setattr__(m, name, complex(value))
        return m

    @property
    def det(self) -> complex:
        return self.a * self.d - self.b * self.c

    def __call__(self, z):
        den = self.c * z + self.d
        if isinstance(den, np.ndarray):
            if np.any(np.abs(den) < 1e-300):
                raise SymbolError("evaluation at a pole of the Moebius map")
        elif abs(den) < 1e-300:
            raise SymbolError("evaluation at a pole of the Moebius map")
        return (self.a * z + self.b) / den

    def _divided_difference(self, zeta):
        scale = self.det / (self.c * zeta + self.d)
        return lambda z: scale / (self.c * z + self.d)

    def to_dict(self) -> dict:
        return {
            "kind": "moebius",
            "a": _complex_out(self.a),
            "b": _complex_out(self.b),
            "c": _complex_out(self.c),
            "d": _complex_out(self.d),
        }


def moebius_product(outer: Moebius, inner: Moebius) -> Moebius:
    """Moebius map acting as outer after inner (matrix product of coefficients).

    Plumbing for building automorphisms and conjugations; general symbolic
    composition is deliberately not offered.
    """
    return Moebius(
        outer.a * inner.a + outer.b * inner.c,
        outer.a * inner.b + outer.b * inner.d,
        outer.c * inner.a + outer.d * inner.c,
        outer.c * inner.b + outer.d * inner.d,
    )


def moebius_inverse(m: Moebius) -> Moebius:
    return Moebius(m.d, -m.b, -m.c, m.a)


@dataclass(frozen=True)
class Blaschke(Symbol):
    """Finite Blaschke product e^{i rotation} prod (z - a_i) / (1 - conj(a_i) z)."""

    rotation: float
    zeros: tuple

    kind = "blaschke"

    def __init__(self, rotation, zeros):
        object.__setattr__(self, "rotation", float(rotation))
        zs = tuple(_require_finite(a, "zeros[%d]" % i) for i, a in enumerate(zeros))
        object.__setattr__(self, "zeros", zs)
        if not zs:
            raise SymbolError("a Blaschke product needs at least one factor")
        for i, a in enumerate(zs):
            if abs(a) >= 1.0:
                raise SymbolError(f"zeros[{i}] = {a!r} must lie in the open disc")
        self._validate_self_map()

    @property
    def degree(self) -> int:
        return len(self.zeros)

    def __call__(self, z):
        acc = cmath.exp(1j * self.rotation) + 0.0 * z
        for a in self.zeros:
            acc = acc * (z - a) / (1.0 - np.conjugate(a) * z)
        return acc

    def _divided_difference(self, zeta):
        # Product rule for divided differences: B[zeta, z] =
        # e^{i t} sum_j prod_{i<j} b_i(z) * b_j[zeta, z] * prod_{i>j} b_i(zeta),
        # b_j[zeta, z] = (1 - |a_j|^2) / ((1 - conj(a_j) zeta)(1 - conj(a_j) z)).
        weights, tail = [], cmath.exp(1j * self.rotation)
        for a in reversed(self.zeros):
            den = 1.0 - a.conjugate() * zeta
            weights.append(tail * (1.0 - abs(a) ** 2) / den)
            tail *= (zeta - a) / den
        weights.reverse()

        def divided(z):
            total, head = 0j, 1.0
            for a, weight in zip(self.zeros, weights):
                den = 1.0 - a.conjugate() * z
                total += head * weight / den
                head *= (z - a) / den
            return total
        return divided

    def to_dict(self) -> dict:
        return {
            "kind": "blaschke",
            "rotation": self.rotation,
            "zeros": [_complex_out(a) for a in self.zeros],
        }


@dataclass(frozen=True)
class Polynomial(Symbol):
    """Polynomial self-map, coefficients in ascending degree order."""

    coeffs: tuple

    kind = "polynomial"

    def __init__(self, coeffs):
        cs = tuple(_require_finite(c, "coeffs[%d]" % i) for i, c in enumerate(coeffs))
        if not cs:
            raise SymbolError("empty coefficient list")
        object.__setattr__(self, "coeffs", cs)
        self._check_document()
        self._reject_boundary_constant()
        self._validate_self_map()

    def _check_document(self):
        """What a subclass checks of its document, before the self-map checks."""

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, z):
        return _horner(self.coeffs, z)

    def _divided_difference(self, zeta):
        quotient = _synthetic_division(self.coeffs, zeta)
        return lambda z: _horner(quotient, z)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "coeffs": [_complex_out(c) for c in self.coeffs]}


@dataclass(frozen=True)
class Taylor(Polynomial):
    """A power series given by its first coefficients, at most ``truncation``.

    The symbol is the ``Polynomial`` sum c_k z^k of its stored coefficients;
    it adds only the document's coefficient budget.  ``abs_sum_bound``, when
    supplied, is a validation only: construction fails if sum |c_k| of the
    stored coefficients exceeds it.
    """

    truncation: int = TAYLOR_TRUNCATION_DEFAULT
    abs_sum_bound: float | None = None

    kind = "taylor"

    def __init__(self, coeffs, truncation=TAYLOR_TRUNCATION_DEFAULT, abs_sum_bound=None):
        object.__setattr__(self, "truncation", int(truncation))
        object.__setattr__(self, "abs_sum_bound", None if abs_sum_bound is None else float(abs_sum_bound))
        super().__init__(coeffs)

    # The polynomial's own evaluator, bound here as well: an evaluation
    # counter that wraps each class's __call__ finds it in vars(Taylor).
    __call__ = Polynomial.__call__

    def _check_document(self):
        if len(self.coeffs) > self.truncation:
            raise SymbolError(
                f"{len(self.coeffs)} coefficients exceed the truncation budget {self.truncation}"
            )
        abs_sum = float(sum(abs(c) for c in self.coeffs))
        if not math.isfinite(abs_sum):
            raise SymbolError("absolute coefficient sum is not finite")
        if self.abs_sum_bound is None:
            return
        if not math.isfinite(self.abs_sum_bound):
            raise SymbolError(f"abs_sum_bound must be finite, got {self.abs_sum_bound!r}")
        if abs_sum > self.abs_sum_bound + 1e-12:
            raise SymbolError(
                f"absolute coefficient sum {abs_sum:.6g} exceeds the certified "
                f"bound {self.abs_sum_bound:.6g}"
            )

    def to_dict(self) -> dict:
        doc = {**super().to_dict(), "truncation": self.truncation}
        if self.abs_sum_bound is not None:
            doc["abs_sum_bound"] = self.abs_sum_bound
        return doc


@dataclass(frozen=True)
class SelfMapReport:
    max_modulus: float
    witness: complex
    passed: bool


def self_map_check(s: Symbol) -> SelfMapReport:
    """Grid maximum of |phi| over the closed disc.

    Passes when the maximum stays within SELF_MAP_TOL of one; by the maximum
    modulus principle the boundary rings dominate, so the grid is
    boundary-heavy.  Reporting only; constructors raise on failure.
    """
    grid = disc_grid()
    try:
        values = np.abs(s(grid))
    except SymbolError:
        # A pole on the closed disc: find a boundary witness by scalar probing.
        worst, witness = math.inf, 1.0 + 0.0j
        for z in boundary_points(GRID_ANGLES):
            try:
                m = abs(complex(s(complex(z))))
            except SymbolError:
                return SelfMapReport(math.inf, complex(z), False)
            if m > worst:
                worst, witness = m, complex(z)
        return SelfMapReport(worst, witness, worst <= 1.0 + SELF_MAP_TOL)
    idx = int(np.argmax(values))
    max_mod = float(values[idx])
    return SelfMapReport(max_mod, complex(grid[idx]), max_mod <= 1.0 + SELF_MAP_TOL)


def _moebius_image_circle(m: Moebius) -> tuple[complex, float]:
    """Center and radius of the image of the unit circle under a Moebius map.

    The pole lies off the closed disc (|d| > |c|), so the circle goes to the
    circle with center (b conj(d) - a conj(c)) / (|d|^2 - |c|^2) and radius
    |ad - bc| / (|d|^2 - |c|^2) (Cowen-MacCluer 1995, ch. 2), both in closed
    form: a radius of 1e-7 comes out as 1e-7 itself.
    """
    scale = abs(m.d) ** 2 - abs(m.c) ** 2
    return (m.b * m.d.conjugate() - m.a * m.c.conjugate()) / scale, abs(m.det) / scale


def _image_radius_bound(s: Symbol) -> float:
    """A radius R with |phi| <= R on the closed disc (infinite when unknown).

    Exact for Moebius maps, |center| + radius of the image circle
    (``_moebius_image_circle``), and for Blaschke products, which are
    unimodular on the circle: 1.  The triangle inequality, sum |c_k|, for
    polynomial symbols, Taylor symbols included.
    """
    if isinstance(s, Polynomial):
        return float(sum(abs(c) for c in s.coeffs))
    if isinstance(s, Blaschke):
        return 1.0
    if isinstance(s, Moebius):
        center, radius = _moebius_image_circle(s)
        return abs(center) + radius
    return math.inf


def _is_inner(s: Symbol) -> bool:
    """Whether phi maps the unit circle onto itself, read from the
    coefficients.  Blaschke products do.  A linear-fractional map does when
    it is an automorphism, M* J M = |det M| J with J = diag(1, -1):
    conj(a) b = conj(c) d and |a|^2 + |b|^2 = |c|^2 + |d|^2, to
    AUTOMORPHISM_TOL relative to their sum of squares (Cowen-MacCluer 1995,
    ch. 0 and 2), a scale that does not cancel near the circle as the
    |d|^2 - |c|^2 of ``_moebius_image_circle`` does.  A polynomial symbol
    does when sum_{j != k} |c_j| + ||c_k| - 1| <= SELF_MAP_TOL, c_k
    its largest coefficient: that sum bounds ||phi| - 1| on the circle.
    """
    if isinstance(s, Blaschke):
        return True
    mo = _as_moebius(s)
    if mo is not None:
        a, b, c, d = mo.a, mo.b, mo.c, mo.d
        defect = abs(a.conjugate() * b - c.conjugate() * d) + abs(
            abs(a) ** 2 + abs(b) ** 2 - abs(c) ** 2 - abs(d) ** 2)
        return defect <= AUTOMORPHISM_TOL * (abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2)
    if isinstance(s, Polynomial):
        moduli = [abs(c) for c in s.coeffs]
        top = max(moduli)
        return sum(moduli) - top + abs(top - 1.0) <= SELF_MAP_TOL
    return False


def _rounding_condition(s: Symbol) -> float:
    """K such that K * UNIT_ROUNDOFF bounds how far rounding in doubles can
    carry |phi| on the grid of ``self_map_check``, or ``_image_radius_bound``,
    above the exact value (infinite when unknown).

    K is the condition number of evaluating phi with a safety factor of
    about 4; the grid points lie off the circle by up to 2 UNIT_ROUNDOFF.
    Horner's scheme loses about 2n roundoffs in n coefficients, a Blaschke
    factor 2/(1 - |a|) (a zero 1e-15 inside a grid point of the circle makes
    the grid read |phi| = 1.07 there, and reject that self-map), and a
    Moebius map (|a| + |b| + |c| + |d|)/(|d| - |c|), which also bounds the
    cancellation in the |d|^2 - |c|^2 of R.
    """
    if isinstance(s, Polynomial):
        return 8.0 * len(s.coeffs)
    if isinstance(s, Blaschke):
        return sum(8.0 / (1.0 - abs(a)) for a in s.zeros)
    if isinstance(s, Moebius):
        return 16.0 * (abs(s.a) + abs(s.b) + abs(s.c) + abs(s.d)) / (abs(s.d) - abs(s.c))
    return math.inf


@dataclass(frozen=True)
class Orbit:
    """Forward orbit phi(z), phi^2(z), ..., phi^n(z) of a starting point."""

    start: complex
    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=complex)
        object.__setattr__(self, "points", pts)
        if len(pts) and float(np.max(np.abs(pts))) > 1.0 + SELF_MAP_TOL:
            raise SymbolError("orbit leaves the closed disc")


# ---------------------------------------------------------------------------
# The orbit engine

# Points per block: 128 KiB of complex values.  Larger blocks gain little
# and raise the peak memory (2**16 points added 6 MB to a benchmark run).
BLOCK_POINTS = 2**13
# Rounding a unit complex number to doubles moves it off the circle by less
# (at most 7.7e-17 for cmath.exp(2j*pi*t), 2000 random t); see _ClosedForm.
ROTATION_SNAP_TOL = 1e-16
# Largest rotation order recognised as periodic.
PERIOD_SEARCH_MAX = 10**4


def rotation_fraction(turns: float) -> Fraction:
    """The fraction a/k closest to ``turns`` with k <= PERIOD_SEARCH_MAX.

    Any a/k in lowest terms with k in range and |k turns - a| below
    1/(2 PERIOD_SEARCH_MAX) is this fraction, since every other fraction in
    range lies at least 1/(k PERIOD_SEARCH_MAX) from a/k.  So the period of
    a rotation, and the rational rotation number of a closed-form orbit,
    are read off it without stepping.
    """
    return Fraction(turns).limit_denominator(PERIOD_SEARCH_MAX)


def _as_moebius(s: Symbol) -> Moebius | None:
    """Moebius form of the symbol when one exists (degree-one cases).

    Derived once per symbol and kept on it, without validating it again:
    the symbol it comes from already passed the self-map check.
    """
    if isinstance(s, Moebius):
        return s
    if "_moebius" not in s.__dict__:
        form = None
        if isinstance(s, Blaschke) and s.degree == 1:
            rot = cmath.exp(1j * s.rotation)
            a = s.zeros[0]
            form = Moebius._unchecked(rot, -rot * a, -a.conjugate(), 1.0)
        elif isinstance(s, Polynomial):
            cs = list(s.coeffs)
            while cs and abs(cs[-1]) == 0.0:
                cs.pop()
            if len(cs) == 2:
                form = Moebius._unchecked(cs[1], cs[0], 0.0, 1.0)
        s.__dict__["_moebius"] = form
    return s.__dict__["_moebius"]


def _moebius_normal_form(a, b, c, d, sqrt=cmath.sqrt):
    """Fixed points p, q and multiplier kappa = phi'(p) of z -> (az + b)/(cz + d)
    (Cowen-MacCluer 1995, ch. 0), in the precision of the coefficients;
    ``sqrt`` is that precision's square root.

    The fixed points are the roots of c z^2 + (d - a) z - b, by the
    cancellation-stable quadratic formula, and kappa = (ad - bc)/(cp + d)^2.
    p attracts (|kappa| <= 1), except that of two fixed points with |kappa|
    within 1e-12 of 1 (elliptic, up to rounding) p is the one in the disc.
    An affine map (c = 0) has q = None and kappa = a/d, and p = None when
    a = d.
    """
    if c == 0:
        return (None if a == d else b / (d - a)), None, a / d
    B = d - a
    root = sqrt(B * B + 4 * b * c)
    if (B.conjugate() * root).real < 0:
        root = -root
    h = -(B + root) / 2  # |h| >= |B|/2, so neither root -b/h nor h/c cancels
    p, q, det = (-b / h if h else h), h / c, a * d - b * c
    kappa = det / (c * p + d) ** 2
    if (abs(q) < abs(p) if abs(abs(kappa) - 1) <= 1e-12 else abs(kappa) > 1):
        p, q = q, p
        kappa = det / (c * p + d) ** 2
    return p, q, kappa


class _ClosedForm:
    """phi^m of a linear-fractional map phi, from its normal form
    (``_moebius_normal_form``).

    An affine map is y -> kappa y + gamma with y = z.  Otherwise q is a
    fixed point with |phi'(q)| >= 1, and y = 1/(z - q) conjugates phi to
    y -> kappa y + gamma, where kappa = phi'(p) at the other fixed point p
    and gamma = c/(cp + d).  Either way y_m = kappa^m y + gamma S_m,
    S_m = (kappa^m - 1)/(kappa - 1) (= m when kappa = 1), which covers
    parabolic maps (p = q) and nearly coalescing fixed points alike.
    |kappa| <= 1 up to rounding, so kappa^m cannot overflow (about q it
    would); kappa^m - 1 is formed without cancellation.  Seeds on p or q are
    returned as they are.

    p, q and kappa are those of the double coefficients, found at 40 digits
    and rounded: the map iterated is the one that stepping iterates.
    kappa = e^{log_r + 2 pi i turns}, with ``turns`` a double-double.
    |kappa| within ROTATION_SNAP_TOL of 1 is taken as 1, and turns within
    it of a fraction (``rotation_fraction``), compared exactly, as that
    fraction; either snap moves kappa^m by at most 2 pi 1e-16 m, and phi^m
    by that times the conjugation's distortion.  Both together make an
    exact rotation, unless kappa = 1: phi^m then depends on m only through
    m mod ``period``, the fraction's denominator (None for other maps).
    m turns are reduced to quarter turns, exact, plus at most an eighth:
    kappa = -1 gives exactly -1.
    """

    def __init__(self, m: Moebius):
        with mp.workdps(40):
            a, b, c, d = (mp.mpc(v) for v in (m.a, m.b, m.c, m.d))
            p, q, kappa = _moebius_normal_form(a, b, c, d, mp.sqrt)
            gamma = b / d if q is None else c / (c * p + d)
            self.p, self.q = (None if v is None else complex(v) for v in (p, q))
            self.gamma, self.log_r = complex(gamma), float(mp.log(abs(kappa)))
            turns = mp.arg(kappa) / (2 * mp.pi)
            self.turns = (float(turns), float(turns - float(turns)))
        if abs(self.log_r) <= ROTATION_SNAP_TOL:
            self.log_r = 0.0
        ratio = rotation_fraction(self.turns[0])
        if abs(sum(map(Fraction, self.turns)) - ratio) <= Fraction(ROTATION_SNAP_TOL):
            self.turns = ratio
        self.kappa_m1 = self.powers(np.ones(1, dtype=np.int64))[1][0]
        self.period = (self.turns.denominator if isinstance(self.turns, Fraction)
                       and self.log_r == 0.0 and self.kappa_m1 != 0 else None)

    def powers(self, m: np.ndarray):
        """kappa^m and kappa^m - 1 for integers m >= 1.

        With turns a/k and more than k values of m, the unit part is formed
        for m = 0 ... k-1 only and read at m mod k, bit for bit the same;
        then |kappa| = 1 needs no exp at all.
        """
        one_period = isinstance(self.turns, Fraction) and self.turns.denominator < len(m)
        if isinstance(self.turns, Fraction):
            num, den = self.turns.numerator, self.turns.denominator
            t = ((np.arange(den) if one_period else m) % den * num % den) / den
        else:  # m * turns mod 1 to 1e-16 for m < 2**27: m * high is exact
            head, tail = self.turns
            high = 134217729.0 * head - (134217729.0 * head - head)
            t = m * high
            t = (t - np.rint(t)) + m * ((head - high) + tail)
        k = np.rint(4.0 * t)
        f = 0.5 * np.pi * (4.0 * t - k)
        quarter = (k % 4).astype(np.int64)
        unit = np.array([1.0, 1j, -1.0, -1j])[quarter] * np.exp(1j * f)
        unit_m1 = np.where(quarter == 0, 1j * np.sin(f) - 2.0 * np.sin(0.5 * f) ** 2,
                           unit - 1.0)
        if one_period:
            unit, unit_m1 = unit[m % den], unit_m1[m % den]
            if self.log_r == 0.0:
                return unit, unit_m1
        return np.exp(m * self.log_r) * unit, np.expm1(m * self.log_r) * unit + unit_m1

    def iterates(self, seeds: np.ndarray, m: np.ndarray) -> np.ndarray:
        """phi^m(seeds), one row per m."""
        power, power_m1 = self.powers(m)
        sums = m if self.kappa_m1 == 0 else power_m1 / self.kappa_m1
        with np.errstate(divide="ignore", invalid="ignore"):
            y = seeds if self.q is None else 1.0 / (seeds - self.q)
            w = power[:, None] * y + (self.gamma * sums)[:, None]
            if self.q is not None:
                w = self.q + 1.0 / w
        fixed = (seeds == self.p) | (seeds == self.q)
        w[:, fixed] = seeds[fixed]
        return w


def _closed_form(s: Symbol) -> _ClosedForm | None:
    # once per symbol; None unless the symbol is linear-fractional
    if "_closed_form" not in s.__dict__:
        m = _as_moebius(s)
        s.__dict__["_closed_form"] = None if m is None else _ClosedForm(m)
    return s.__dict__["_closed_form"]


def _bits(z: complex) -> bytes:
    return struct.pack("2d", z.real, z.imag)


def orbit_blocks(s: Symbol, seeds, n: int):
    """The orbits of the seeds for n steps, in blocks of consecutive iterates.

    Yields (m0, W), W of shape (rows, len(seeds)), whose row i is
    phi^(m0+i+1) of the seeds; a block holds about BLOCK_POINTS points, at
    least one row.  Linear-fractional symbols (Moebius maps, degree-one
    Blaschke products, affine polynomial and Taylor symbols) get each block
    in closed form (``_ClosedForm``).  Other symbols are stepped, a single
    seed in Python complex arithmetic.  So is an array that fills a block by
    itself (the sup-norm grid): with one row per block the closed form has
    no steps to save.

    An orbit that repeats with a period of at most one block is computed
    through one period of the repeat, which is tiled into the rest of the
    orbit, so every block is exactly the one computed row by row.  An exact
    rotation (``_ClosedForm.period``) repeats from its first row.  A stepped
    orbit, each row a function of the one before, stops at the first row
    equal bit for bit to a row of its block or to the row before the block:
    one period into its cycle, or within two when the cycle began before
    the block.  With one row per block only the row before is compared, so
    no key of the grid is hashed.  A stepped orbit that leaves the closed
    disc (a point not finite, or of modulus above 1 + SELF_MAP_TOL) raises
    SymbolError naming the step; so does a seed, before any step, naming
    the seed.  n < 1 raises ValueError.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    seeds = np.asarray(seeds, dtype=complex).ravel()
    outside = ~(np.abs(seeds) <= 1.0 + SELF_MAP_TOL)
    if outside.any():
        raise SymbolError(f"seed {complex(seeds[np.argmax(outside)])!r} is not a point "
                          "of the closed disc")
    rows = max(1, BLOCK_POINTS // max(1, len(seeds)))
    form = _closed_form(s) if rows > 1 else None
    one = len(seeds) == 1
    w = complex(seeds[0]) if one else seeds
    # a row's key: its bytes, or for one seed its value, whose bits are
    # compared on a match (0 == -0, but they print differently); a value
    # whose bits differ from its match's is keyed by its bits
    key, cycle = (w if one else w.tobytes()), None
    if form is not None and form.period is not None and form.period <= rows:
        start, cycle = 0, form.iterates(seeds, np.arange(1, min(form.period, n) + 1))
    for m0 in range(0, n, rows):
        count = min(rows, n - m0)
        if cycle is not None:
            yield m0, cycle[(np.arange(m0, m0 + count) - start) % len(cycle)]
            continue
        if form is not None:
            yield m0, form.iterates(seeds, np.arange(m0 + 1, m0 + count + 1))
            continue
        points = [w if one else None]  # the row before the block (one seed's), then its rows
        # the index of the row a key repeats, or i for a new one, which is kept
        seen = {key: 0}.setdefault if rows > 1 else lambda k, i, last=key: i - (k == last)
        with np.errstate(over="ignore", invalid="ignore"):  # the disc check reports it
            for i in range(1, count + 1):
                w = complex(s(w)) if one else s(w)
                points.append(w)
                key = w if one else w.tobytes()
                j = seen(key, i)
                if j != i and one and _bits(w) != _bits(points[j]):
                    j = seen(_bits(w), i)  # 0 == -0: this value is keyed by its bits
                if j != i:
                    start, cycle = m0 + j, np.array(points[j + 1:]).reshape(i - j, len(seeds))
                    break
        # a lone row of a large grid is passed on as it is, not copied
        block = points[1][None] if len(points) == 2 and not one else \
            np.array(points[1:]).reshape(len(points) - 1, len(seeds))
        outside = ~(np.abs(block) <= 1.0 + SELF_MAP_TOL).all(axis=1)
        if outside.any():
            raise SymbolError(f"orbit leaves the closed disc at step {m0 + 1 + np.argmax(outside)}")
        if len(block) < count:  # the rest repeats rows computed above
            tail = cycle[(np.arange(m0 + len(block), m0 + count) - start) % len(cycle)]
            block = np.concatenate((block, tail))
        yield m0, block


def iterate(s: Symbol, z: complex, n: int) -> Orbit:
    """Orbit of z under s for n steps; raises if the orbit leaves the disc."""
    z = complex(z)
    return Orbit(z, np.concatenate([block[:, 0] for _, block in orbit_blocks(s, [z], n)]))


def iterate_array(s: Symbol, z: np.ndarray, n: int) -> np.ndarray:
    """Final iterate phi^n applied elementwise to an array of seeds."""
    w = np.asarray(z, dtype=complex)
    last = w.ravel()
    for _, block in orbit_blocks(s, last, n):
        last = block[-1]
    return last.reshape(w.shape)


# ---------------------------------------------------------------------------
# Automorphisms

def make_automorphism(kind: str, *, angle: float | None = None,
                      fixed_point: complex = 0.0,
                      multiplier: float | None = None,
                      translation: float | None = None) -> Moebius:
    """Disc automorphism of the requested dynamical type.

    elliptic    rotation by ``angle`` about an interior ``fixed_point``;
    hyperbolic  fixed points +1 and -1, derivative ``multiplier`` in (0,1)
                at the attracting point +1;
    parabolic   single boundary fixed point +1, built by conjugating the
                half-plane translation w -> w + translation through the
                Cayley map sigma(z) = i (1+z) / (1-z).
    """
    if kind == "elliptic":
        if angle is None:
            raise ValueError("elliptic automorphism needs an angle")
        p = _require_finite(fixed_point, "fixed_point")
        if abs(p) >= 1.0:
            raise ValueError("elliptic fixed point must lie in the open disc")
        rot = Moebius(cmath.exp(1j * float(angle)), 0.0, 0.0, 1.0)
        if p == 0:
            return rot
        swap = Moebius(-1.0, p, -np.conjugate(p), 1.0)  # involution exchanging 0 and p
        return moebius_product(moebius_product(swap, rot), swap)
    if kind == "hyperbolic":
        if multiplier is None or not 0.0 < float(multiplier) < 1.0:
            raise ValueError("hyperbolic automorphism needs a multiplier in (0, 1)")
        mu = float(multiplier)
        return Moebius(1.0 + mu, 1.0 - mu, 1.0 - mu, 1.0 + mu)
    if kind == "parabolic":
        if translation is None or float(translation) == 0.0:
            raise ValueError("parabolic automorphism needs a nonzero real translation")
        b = float(translation)
        return Moebius(2j - b, b, -b, b + 2j)
    raise ValueError(f"unknown automorphism kind {kind!r}")


# ---------------------------------------------------------------------------
# Serialization

def _complex_out(z: complex) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _complex_in(value, path: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        z = complex(float(value), 0.0)
    elif isinstance(value, (list, tuple)) and len(value) == 2 and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
    ):
        z = complex(float(value[0]), float(value[1]))
    else:
        raise SymbolParseError("expected a number or an [re, im] pair", path)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise SymbolParseError("components must be finite", path)
    return z


_SYMBOL_FIELDS = {
    "moebius": {"a", "b", "c", "d"},
    "blaschke": {"rotation", "zeros"},
    "polynomial": {"coeffs"},
    "taylor": {"coeffs", "truncation", "abs_sum_bound"},
}


def parse_symbol(doc) -> Symbol:
    """Build a validated symbol from a JSON document (text or parsed dict).

    Complex entries may be numbers or [re, im] pairs; ``Symbol.to_dict``
    always emits pairs, and parse_symbol(s.to_dict()) reproduces s
    bit-exactly.
    """
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise SymbolParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SymbolParseError("symbol document must be a JSON object")
    kind = doc.get("kind")
    if kind not in _SYMBOL_FIELDS:
        raise SymbolParseError(
            f"unknown kind {kind!r}; expected one of {sorted(_SYMBOL_FIELDS)}", "kind"
        )
    extra = set(doc) - _SYMBOL_FIELDS[kind] - {"kind"}
    if extra:
        raise SymbolParseError(f"unknown fields {sorted(extra)}", kind)
    try:
        if kind == "moebius":
            vals = {}
            for name in ("a", "b", "c", "d"):
                if name not in doc:
                    raise SymbolParseError("missing field", name)
                vals[name] = _complex_in(doc[name], name)
            return Moebius(**vals)
        if kind == "blaschke":
            if "rotation" not in doc or "zeros" not in doc:
                raise SymbolParseError("blaschke needs 'rotation' and 'zeros'", kind)
            rotation = doc["rotation"]
            if isinstance(rotation, bool) or not isinstance(rotation, (int, float)):
                raise SymbolParseError("expected a real number", "rotation")
            if not isinstance(doc["zeros"], list):
                raise SymbolParseError("expected a list", "zeros")
            zeros = [_complex_in(v, f"zeros[{i}]") for i, v in enumerate(doc["zeros"])]
            return Blaschke(rotation, zeros)
        if not isinstance(doc.get("coeffs"), list):
            raise SymbolParseError("expected a list", "coeffs")
        coeffs = [_complex_in(v, f"coeffs[{i}]") for i, v in enumerate(doc["coeffs"])]
        if kind == "polynomial":
            return Polynomial(coeffs)
        truncation = doc.get("truncation", TAYLOR_TRUNCATION_DEFAULT)
        if isinstance(truncation, bool) or not isinstance(truncation, int):
            raise SymbolParseError("expected an integer", "truncation")
        bound = doc.get("abs_sum_bound")
        if bound is not None and (isinstance(bound, bool) or not isinstance(bound, (int, float))):
            raise SymbolParseError("expected a real number", "abs_sum_bound")
        return Taylor(coeffs, truncation, bound)
    except SymbolError as exc:
        if isinstance(exc, SymbolParseError):
            raise
        raise SymbolParseError(str(exc), kind) from exc


def symbol_to_json(s: Symbol) -> str:
    return json.dumps(s.to_dict(), indent=2, sort_keys=True)
