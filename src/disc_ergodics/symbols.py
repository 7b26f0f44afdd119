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
# whose evaluation is well conditioned (``_image_radius_bound``).
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


def _exact_seed(c) -> bool:
    """Whether c has, at every finite z, the bits of the broadcast c + 0 z:
    c is a Python complex with no component -0.0, to which 0 z would give
    the sign of a zero that depends on z."""
    return (type(c) is complex and (c.real or math.copysign(1.0, c.real) > 0)
            and (c.imag or math.copysign(1.0, c.imag) > 0))


def _horner(coeffs, z, bare=False):
    """Evaluate sum coeffs[j] * z**j (ascending order) by Horner's scheme.

    ``bare``: start at c[-1] * z + c[-2], without broadcasting c[-1] to the
    shape of z first.  The caller passes it for two or more coefficients
    whose last has the bits of that broadcast (``_exact_seed``).  Each
    product keeps its operand order, acc * z, as numpy's SIMD complex
    multiply is not commutative in the last bit; so every value is the one
    the broadcast start gives.
    """
    if len(coeffs) == 0:
        return 0.0 * z
    acc = coeffs[-1] if bare else coeffs[-1] + 0.0 * z
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
        without sampling when R <= 1 + SELF_MAP_TOL/2 and its rounding, which
        bounds that of R and of the grid values of |phi|, is within the other
        half: ``self_map_check`` would pass.  Otherwise ``self_map_check``
        decides, so the same symbols are accepted and the same errors raised
        as by the grid alone.
        """
        bound, rounding = _image_radius_bound(self)
        if bound <= 1.0 + SELF_MAP_TOL / 2 and rounding <= SELF_MAP_TOL / 2:
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
        object.__setattr__(self, "_unit", cmath.exp(1j * self.rotation))  # e^{i rotation}
        object.__setattr__(self, "_bare", _exact_seed(self._unit))
        self._validate_self_map()

    @property
    def degree(self) -> int:
        return len(self.zeros)

    def __call__(self, z):
        # As in ``_horner``: the product starts at e^{it} itself when that has
        # the bits of the broadcast e^{it} + 0 z (``_bare``), and keeps the
        # operand order acc * (z - a), conj(a) * z of every product, as
        # numpy's SIMD complex multiply is not commutative in the last bit;
        # so every value is the one the broadcast start gives.
        acc = self._unit
        if not self._bare:
            acc = acc + 0.0 * z
        for a in self.zeros:
            acc = acc * (z - a) / (1.0 - np.conjugate(a) * z)
        return acc

    def _divided_difference(self, zeta):
        # Product rule for divided differences: B[zeta, z] =
        # e^{i t} sum_j prod_{i<j} b_i(z) * b_j[zeta, z] * prod_{i>j} b_i(zeta),
        # b_j[zeta, z] = (1 - |a_j|^2) / ((1 - conj(a_j) zeta)(1 - conj(a_j) z)).
        weights, tail = [], self._unit
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
        object.__setattr__(self, "_bare", len(cs) > 1 and _exact_seed(cs[-1]))
        self._check_document()
        self._reject_boundary_constant()
        self._validate_self_map()

    def _check_document(self):
        """What a subclass checks of its document, before the self-map checks."""

    @property
    def degree(self) -> int:
        """The index of the last nonzero coefficient; trailing zeros do not count."""
        d = len(self.coeffs) - 1
        while d > 0 and self.coeffs[d] == 0:
            d -= 1
        return d

    def __call__(self, z):
        return _horner(self.coeffs, z, self._bare)

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


def _image_radius_bound(s: Symbol) -> tuple[float, float]:
    """A radius R with |phi| <= R on the closed disc, and a bound on how far
    rounding in doubles can carry R, or |phi| on the grid of
    ``self_map_check``, above the exact value (both infinite when unknown).

    R is exact for Moebius maps, |center| + radius of the image circle
    (``_moebius_image_circle``), and for Blaschke products, which are
    unimodular on the circle: 1.  The triangle inequality, sum |c_k|, for
    polynomial symbols, Taylor symbols included.

    The rounding is K UNIT_ROUNDOFF, K the condition number of evaluating
    phi with a safety factor of about 4; the grid points lie off the circle
    by up to 2 UNIT_ROUNDOFF.  Horner's scheme loses about 2n roundoffs in
    n coefficients, a Blaschke factor 2/(1 - |a|) (a zero 1e-15 inside a
    grid point of the circle makes the grid read |phi| = 1.07 there, and
    reject that self-map), and a Moebius map (|a| + |b| + |c| + |d|)/(|d| -
    |c|), which also bounds the cancellation in the |d|^2 - |c|^2 of R.
    """
    if isinstance(s, Polynomial):
        return float(sum(abs(c) for c in s.coeffs)), 8.0 * len(s.coeffs) * UNIT_ROUNDOFF
    if isinstance(s, Blaschke):
        return 1.0, sum(8.0 / (1.0 - abs(a)) for a in s.zeros) * UNIT_ROUNDOFF
    if isinstance(s, Moebius):
        center, radius = _moebius_image_circle(s)
        condition = 16.0 * (abs(s.a) + abs(s.b) + abs(s.c) + abs(s.d)) / (abs(s.d) - abs(s.c))
        return abs(center) + radius, condition * UNIT_ROUNDOFF
    return math.inf, math.inf


def _origin_contraction(s: Symbol):
    """For a stepped symbol that fixes 0 exactly, a function r -> L with
    |fl phi(w)| <= L |w| wherever |w| <= r and the evaluation stays in the
    normal range; None for other symbols.

    The symbols are polynomial and Taylor symbols with c_0 = 0 and Blaschke
    products with a zero at 0, of degree two or more (linear-fractional
    ones have a closed form).  By the refined Schwarz lemma |phi(w)| <=
    |w| G(r) (Cowen-MacCluer 1995, ch. 2), with G(r) = sum_{k>=1} |c_k|
    r^(k-1) for a polynomial, and for a Blaschke product the product of
    (r + |a|)/(1 + |a| r) over its zeros, one zero at 0 left out.  L is
    G(r) times 1 plus twice the evaluator's rounding of
    ``_image_radius_bound``, relative to these same sums (Horner's scheme,
    Higham 2002 sec. 5.1; the d factors of a Blaschke product), once for
    the evaluation and once for forming G(r) itself.  Values rounded below
    the normal range add at most 2^-1050 to |fl phi(w)|, for fewer than a
    million coefficients or zeros: a few units of 2^-1075 per operation,
    none of them scaled up, as |w| <= 1 and every |c_k| <= 1.
    """
    if _as_moebius(s) is not None:
        return None
    if isinstance(s, Polynomial) and s.coeffs[0] == 0:
        moduli = [abs(c) for c in reversed(s.coeffs[1:])]

        def factor(r):
            g = 0.0
            for m in moduli:
                g = g * r + m
            return g
    elif isinstance(s, Blaschke) and 0 in s.zeros:
        zeros = list(s.zeros)
        zeros.remove(0)
        moduli = [abs(a) for a in zeros]

        def factor(r):
            return math.prod((r + m) / (1.0 + m * r) for m in moduli)
    else:
        return None
    scale = 1.0 + 2.0 * _image_radius_bound(s)[1]
    return lambda r: factor(r) * scale


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
# Rows of the first block of an orbit that may stop early (``_folded_blocks``)
_FIRST_BLOCK_ROWS = 8
# Rounding a unit complex number to doubles moves it off the circle by less
# (at most 7.7e-17 for cmath.exp(2j*pi*t), 2000 random t); see _ClosedForm.
ROTATION_SNAP_TOL = 1e-16
# log 2^-54, half a unit in the last place of 1, and log 2^-1075, below
# which a double rounds to 0 (``_ClosedForm.settling``)
_HALF_UNIT_LOG, _UNDERFLOW_LOG = -54 * math.log(2.0), -1075 * math.log(2.0)
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
            a = s.zeros[0]
            form = Moebius._unchecked(s._unit, -s._unit * a, -a.conjugate(), 1.0)
        elif isinstance(s, Polynomial) and s.degree == 1:
            form = Moebius._unchecked(s.coeffs[1], s.coeffs[0], 0.0, 1.0)
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

    A real contraction, turns 0 and log_r < 0 (hyperbolic automorphisms,
    tangent maps, dilations r z, their conjugates), settles in doubles:
    from some row on, every row of its orbit is, bit for bit, the limit
    row L of ``settling``, the formula at an m' with exp(m' log_r) = 0.
    The first row that is L, with expm1(m log_r) = -1, is where every later
    row is L (``settled``), because:
    - turns 0 gives the unit part 1 and its unit - 1 as 0 exactly;
    - exp(m log_r) does not increase with m, and expm1(m log_r) stays at
      -1 once it reaches it, so from there gamma S_m is that of L;
    - each component of fl(kappa^m y) then shrinks toward 0 with a fixed
      sign, a zero keeping its sign, and adding gamma S_m rounds
      monotonically.
    So a row of y that equals L's lies between it and L at every later m,
    and equals it.  The rows are compared in y, before z = q + 1/y, which
    is not monotone, and seeds on p or q are left out.  Without the expm1
    condition, or comparing rows of z, a row can match L and a later one
    not.  Complex kappa and |kappa| = 1 never settle this way: their tails
    keep moving in the last bit.
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

    def _conjugated(self, seeds: np.ndarray, m: np.ndarray):
        # the rows y_m = kappa^m y + gamma S_m, and the kappa^m - 1 of each
        power, power_m1 = self.powers(m)
        sums = m if self.kappa_m1 == 0 else power_m1 / self.kappa_m1
        y = seeds if self.q is None else 1.0 / (seeds - self.q)
        return power[:, None] * y + (self.gamma * sums)[:, None], power_m1

    def _fixed(self, seeds: np.ndarray) -> np.ndarray:
        # the seeds on p or q, which are returned as they are
        return (seeds == self.p) | (seeds == self.q)

    def _unconjugated(self, seeds: np.ndarray, y: np.ndarray) -> np.ndarray:
        w = y if self.q is None else self.q + 1.0 / y
        fixed = self._fixed(seeds)
        w[:, fixed] = seeds[fixed]
        return w

    def iterates(self, seeds: np.ndarray, m: np.ndarray) -> np.ndarray:
        """phi^m(seeds), one row per m."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return self._unconjugated(seeds, self._conjugated(seeds, m)[0])

    def settling(self, seeds: np.ndarray, n: int):
        """(estimate, limit) for the orbits of a real contraction that are
        estimated to settle within n rows; None for other maps and orbits.

        limit is the row y_m' of the coordinate y at an m' with
        exp(m' log_r) = 0 (it underflows below -745.2).  estimate is the row
        by which every row is expected to equal it: expm1(m log_r) rounds
        to -1 once m log_r < log 2^-54, and kappa^m y, a component at a
        time, rounds away against a limit component c once below half its
        unit in the last place, 2^-54 |c|, or below 2^-1075 where c = 0.
        It only says where to look; ``settled`` decides.
        """
        if not (self.turns == 0 and self.log_r < 0.0) or _HALF_UNIT_LOG / self.log_r + 1 >= n:
            return None
        free = ~self._fixed(seeds)
        with np.errstate(divide="ignore", invalid="ignore"):
            limit, _ = self._conjugated(seeds, np.array([math.ceil(-746.0 / self.log_r)]))
            y = seeds[free] if self.q is None else 1.0 / (seeds[free] - self.q)
            target = np.maximum(np.log(np.abs(limit[0, free].view(float))) + _HALF_UNIT_LOG,
                                _UNDERFLOW_LOG)
            rows = (target - np.log(np.abs(y.view(float)))) / self.log_r
        estimate = max(_HALF_UNIT_LOG / self.log_r, float(np.max(rows, initial=0.0)))
        estimate = math.ceil(estimate) + 1
        return (estimate, limit[0]) if estimate < n else None

    def settled(self, seeds: np.ndarray, m: np.ndarray, limit: np.ndarray):
        """``iterates`` of m, and the index of the first of those rows from
        which every row is the limit of ``settling`` (None when none is): a
        row of y equal to it bit for bit, with expm1(m log_r) = -1."""
        with np.errstate(divide="ignore", invalid="ignore"):
            y, power_m1 = self._conjugated(seeds, m)
            fixed = np.repeat(self._fixed(seeds), 2)  # both components
            same = ((y.view(np.int64) == limit.view(np.int64)) | fixed).all(axis=1)
            same &= power_m1 == -1.0
            return self._unconjugated(seeds, y), (int(np.argmax(same)) if same.any() else None)


def _closed_form(s: Symbol) -> _ClosedForm | None:
    # once per symbol; None unless the symbol is linear-fractional
    if "_closed_form" not in s.__dict__:
        m = _as_moebius(s)
        s.__dict__["_closed_form"] = None if m is None else _ClosedForm(m)
    return s.__dict__["_closed_form"]


def _bits(z: complex) -> bytes:
    return struct.pack("2d", z.real, z.imag)


def _block_rows(seeds: int) -> int:
    # rows per block for this many seeds: about BLOCK_POINTS points, at least one row
    return max(1, BLOCK_POINTS // max(1, seeds))


def _block_spans(n: int, first: int, rows: int):
    # (m0, count) of the blocks of n rows: the first of ``first`` rows, each
    # next one twice the last, up to ``rows``
    m0, count = 0, first
    while m0 < n:
        count = min(count, n - m0)
        yield m0, count
        m0, count = m0 + count, min(2 * count, rows)


def _folded_blocks(s: Symbol, seeds, n: int, stop=None):
    """The engine under ``orbit_blocks``: its blocks and checks, except that
    the block in which the orbit is found to repeat is the last, and ends
    after its computed rows.

    Yields (m0, W, period).  period is None, except on that last block when
    rows are left after it: W then ends with one period of the cycle, and
    the rows after W repeat that period from its first row.

    Closed forms repeat in two ways.  An exact rotation computes one period
    from the first row.  A real contraction whose settle estimate
    (``_ClosedForm.settling``) is below n ends at its first row from which
    every row is the same (``_ClosedForm.settled``), a cycle of period 1;
    its first block spans the estimate, and each later one doubles.  Other
    closed forms, and real contractions estimated to settle after n, are
    computed in blocks of full length.

    ``stop``, when given, is asked after each block of a stepped orbit that
    leaves rows, with the block's last row, whether the rest of the orbit
    is needed; the engine ends there on a true answer.  Its blocks then
    start at _FIRST_BLOCK_ROWS rows and double, so that the question comes
    early.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    seeds = np.asarray(seeds, dtype=complex).ravel()
    outside = ~(np.abs(seeds) <= 1.0 + SELF_MAP_TOL)
    if outside.any():
        raise SymbolError(f"seed {complex(seeds[np.argmax(outside)])!r} is not a point "
                          "of the closed disc")
    rows = _block_rows(len(seeds))
    form = _closed_form(s) if rows > 1 else None
    if form is not None and form.period is not None and form.period <= rows:
        cycle = form.iterates(seeds, np.arange(1, min(form.period, n) + 1))
        yield 0, cycle, form.period if form.period < n else None
        return
    if form is not None:
        settling = form.settling(seeds, n)
        first = rows if settling is None else min(rows, settling[0])
        for m0, count in _block_spans(n, first, rows):
            m = np.arange(m0 + 1, m0 + count + 1)
            if settling is None:
                yield m0, form.iterates(seeds, m), None
                continue
            block, i = form.settled(seeds, m, settling[1])
            if i is not None and m0 + i + 1 < n:
                yield m0, block[:i + 1], 1
                return
            yield m0, block, None
        return
    one = len(seeds) == 1
    w = complex(seeds[0]) if one else seeds
    # a row's key: its bytes, or for one seed its value, whose bits are
    # compared on a match (0 == -0, but they print differently); a value
    # whose bits differ from its match's is keyed by its bits
    key = w if one else w.tobytes()
    first = rows if stop is None else min(rows, _FIRST_BLOCK_ROWS)
    for m0, count in _block_spans(n, first, rows):
        points = [w if one else None]  # the row before the block (one seed's), then its rows
        # the index of the row a key repeats, or i for a new one, which is kept
        seen = {key: 0}.setdefault if rows > 1 else lambda k, i, last=key: i - (k == last)
        period = None
        with np.errstate(over="ignore", invalid="ignore"):  # the disc check reports it
            for i in range(1, count + 1):
                w = complex(s(w)) if one else s(w)
                points.append(w)
                key = w if one else w.tobytes()
                j = seen(key, i)
                if j != i and one and _bits(w) != _bits(points[j]):
                    j = seen(_bits(w), i)  # 0 == -0: this value is keyed by its bits
                if j != i:
                    period = i - j
                    break
        # a lone row of a large grid is passed on as it is, not copied
        block = points[1][None] if len(points) == 2 and not one else \
            np.array(points[1:]).reshape(len(points) - 1, len(seeds))
        outside = ~(np.abs(block) <= 1.0 + SELF_MAP_TOL).all(axis=1)
        if outside.any():
            raise SymbolError(f"orbit leaves the closed disc at step {m0 + 1 + np.argmax(outside)}")
        if period is not None and m0 + len(block) < n:
            yield m0, block, period
            return
        yield m0, block, None
        if stop is not None and m0 + count < n and stop(block[-1]):
            return


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
    orbit, so every block is exactly the one computed row by row, and a
    copy of its own.  An exact rotation (``_ClosedForm.period``) repeats
    from its first row.  A real contraction (0 < kappa < 1: hyperbolic
    automorphisms, tangent maps, dilations and their conjugates) settles in
    doubles, no sooner than 37.4/|log kappa| rows in, on a row that every
    later row repeats bit for bit (``_ClosedForm.settling``): a cycle of
    period 1.  A stepped orbit, each row a function of the one before,
    stops at the first row equal bit for bit to a row of its block or to
    the row before the block: one period into its cycle, or within two
    when the cycle began before the block.  With one row per block only
    the row before is compared, so no key of the grid is hashed.  The rows
    are computed by ``_folded_blocks``, which leaves the repeat folded into
    one period and a count; this only tiles it.  A sum over the orbit can
    read the fold instead, as ``ergodicity.cesaro_final_means`` does, at
    the cost of the computed rows whatever n; it then differs from a sum
    over the tiled rows only in its rounding (n 2^-53 sup|f| in the tests
    of those means).  That sum can also end the orbit early, through the
    engine's ``stop``, once a bound on the rest of it is negligible: orbits
    attracted to 0 = phi(0) shrink through the whole exponent range of
    doubles before they repeat, and the refined Schwarz lemma
    (``_origin_contraction``) bounds every step after the first tens;
    orbit_blocks itself never stops early.  A stepped orbit that leaves
    the closed disc (a point not finite, or of modulus above 1 +
    SELF_MAP_TOL) raises SymbolError naming the step; so does a seed,
    before any step, naming the seed.  n < 1 raises ValueError.
    """
    for m0, block, period in _folded_blocks(s, seeds, n):
        if period is None:
            yield m0, block
            continue
        # row m >= end repeats the cycle's row (m - end) % period
        end, cycle = m0 + len(block), block[len(block) - period:]
        rows = _block_rows(block.shape[1])
        for m1 in range(m0, n, rows):
            tail = cycle[(np.arange(max(m1, end), min(m1 + rows, n)) - end) % period]
            yield m1, tail if m1 >= end else np.concatenate((block, tail))


def iterate(s: Symbol, z: complex, n: int) -> Orbit:
    """Orbit of z under s for n steps; raises if the orbit leaves the disc."""
    z = complex(z)
    return Orbit(z, np.concatenate([block[:, 0] for _, block in orbit_blocks(s, [z], n)]))


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
