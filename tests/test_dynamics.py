import cmath
import math
import time
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import disc_ergodics as de
from disc_ergodics import dynamics, symbols
from disc_ergodics.symbols import _as_moebius, _closed_form, boundary_points
from invariants import (
    SEED,
    check_boundary_fixed_points,
    check_boundary_periodic_points,
    check_classify_conjugation_invariance,
    random_automorphism,
    random_circle_symbol,
    random_interior_blaschke,
    random_linear_fractional,
)

HALF = de.Moebius(1, 0, 0, 2)
HYPERBOLIC = de.Moebius(2, 1, 1, 2)
TANGENT = de.Moebius(1, 1, 0, 2)
PARABOLIC = de.make_automorphism("parabolic", translation=1.0)
ZSQ = de.Blaschke(0.0, [0.0, 0.0])
BLEND = de.Polynomial([0, 0.5, 0.5])


# ---------------------------------------------------------------------------
# fixed points

def test_moebius_fixed_points_hyperbolic():
    pts = {round(p.real, 9) for p, _ in de.moebius_fixed_points(HYPERBOLIC)}
    assert pts == {1.0, -1.0}
    for p, _ in de.moebius_fixed_points(HYPERBOLIC):
        assert abs(complex(HYPERBOLIC(p)) - p) <= 1e-14


def test_moebius_fixed_points_forced_factorization():
    s = de.Moebius(1, 0, -1, 2)  # z / (2 - z): z (1 - z) = 0
    pts = sorted((p.real for p, _ in de.moebius_fixed_points(s)))
    assert pts == pytest.approx([0.0, 1.0], abs=1e-14)


def test_moebius_fixed_points_parabolic_double_root():
    fps = de.moebius_fixed_points(PARABOLIC)
    assert len(fps) == 1
    point, multiplicity = fps[0]
    assert multiplicity == 2
    assert point == pytest.approx(1.0, abs=1e-9)


def test_moebius_fixed_points_rejects_identity():
    with pytest.raises(ValueError):
        de.moebius_fixed_points(de.Moebius(1, 0, 0, 1))


# ---------------------------------------------------------------------------
# Denjoy-Wolff search

def test_dw_half():
    res = de.denjoy_wolff(HALF)
    assert res.point == 0 and res.residual == 0


def test_dw_tangent_iterative_polynomial():
    # the affine map as a 3-coefficient polynomial walks the iterative path
    s = de.Polynomial([0.5, 0.5, 0.0])
    res = de.denjoy_wolff(s)
    assert abs(res.point - 1.0) <= 1e-5
    assert 5 <= res.iterations_used <= 40  # closed form 1 - 2^-n
    assert res.convergence_rate_estimate == pytest.approx(0.5, abs=1e-6)


def test_dw_refuses_an_elliptic_blaschke_factor_at_once():
    # a degree-one Blaschke product is linear-fractional: no orbit is stepped
    t0 = time.perf_counter()
    with pytest.raises(de.EllipticInputError):
        de.denjoy_wolff(de.Blaschke(1.0, [0.3]))
    assert time.perf_counter() - t0 < 0.01


def test_dw_hyperbolic_picks_attracting_side():
    res = de.denjoy_wolff(HYPERBOLIC)
    assert res.point == pytest.approx(1.0, abs=1e-12)
    assert abs(complex(HYPERBOLIC.derivative(res.point))) < 1.0
    assert abs(complex(HYPERBOLIC.derivative(-1.0))) > 1.0


def test_dw_rejects_elliptic():
    with pytest.raises(de.EllipticInputError):
        de.denjoy_wolff(de.Moebius(1j, 0, 0, 1))
    with pytest.raises(de.EllipticInputError):
        de.denjoy_wolff(de.Moebius(1, 0, 0, 1))


def test_dw_nonconvergence_reports_last_point(monkeypatch):
    # (1 + z^2)/2 approaches its boundary fixed point at speed ~ 1/n, so the
    # successive steps (~1/n^2) cannot meet a 1e-14 tolerance in 50 steps
    s = de.Polynomial([0.5, 0.0, 0.5])
    monkeypatch.setattr(dynamics, "DW_MAX_ITER", 50)
    monkeypatch.setattr(dynamics, "DW_TOL", 1e-14)
    with pytest.raises(de.NonConvergenceError) as err:
        de.denjoy_wolff(s)
    assert err.value.last_point is not None


# ---------------------------------------------------------------------------
# angular derivative

def test_angular_derivative_examples():
    assert de.angular_derivative(TANGENT, 1.0) == pytest.approx(0.5, abs=1e-12)
    assert de.angular_derivative(PARABOLIC, 1.0) == pytest.approx(1.0, abs=1e-10)
    assert de.angular_derivative(ZSQ, 1.0) == pytest.approx(2.0, abs=1e-10)


def test_angular_derivative_taylor_equals_polynomial():
    # a Taylor symbol is its stored polynomial, so |phi'(1)| is read alike
    s = de.Taylor([0.5, 0.5, 0.0])
    assert de.angular_derivative(s, 1.0) == pytest.approx(0.5, abs=1e-8)
    hyp = de.Taylor([0.19, 0.8, 0.01])
    assert de.angular_derivative(hyp, 1.0) == pytest.approx(0.82, abs=1e-5)
    for t in (s, hyp):
        assert de.angular_derivative(t, 1.0) == de.angular_derivative(de.Polynomial(t.coeffs), 1.0)


def test_angular_derivative_requires_fixed_point():
    with pytest.raises(ValueError):
        de.angular_derivative(TANGENT, -1.0)
    with pytest.raises(ValueError):
        de.angular_derivative(TANGENT, 0.5)


# ---------------------------------------------------------------------------
# classification

def test_classify_rotation_period_four():
    cls = de.classify(de.Moebius(1j, 0, 0, 1))
    assert isinstance(cls, de.EllipticAutomorphism)
    assert cls.fixed_point == 0 and cls.multiplier == 1j and cls.period == 4


def test_rotation_period_is_the_least_power_near_one():
    # read off the nearest fraction; the reference steps the powers
    rng = np.random.default_rng(11)
    turns = [a / k for k, a in ((1, 0), (2, 1), (7, 3), (360, 7), (9973, 5000))]
    turns += list(rng.uniform(0, 1, 5)) + [0.25 + 1e-12, 0.25 + 2e-11, 0.25 + 1e-9, -3 / 8]
    for t in turns:
        lam = cmath.exp(2j * math.pi * t)
        w, least = lam, None
        for k in range(1, 10**4 + 1):
            if abs(w - 1.0) <= 1e-10:
                least = k
                break
            w *= lam
        assert dynamics._rotation_period(lam) == least, t


def test_classify_blend_interior_with_boundary_fixed_point():
    cls = de.classify(BLEND)
    assert isinstance(cls, de.InteriorDW)
    assert abs(cls.z0) <= 1e-12
    assert cls.multiplier_modulus == pytest.approx(0.5, abs=1e-12)
    # the boundary fixed point at 1 is seen by the periodic-point search
    pts = de.boundary_periodic_points(BLEND, 1)
    assert any(abs(bp.point - 1.0) < 1e-9 for bp in pts)


def test_classify_parabolic():
    cls = de.classify(PARABOLIC)
    assert isinstance(cls, de.ParabolicDW)
    assert abs(cls.z0 - 1.0) <= 1e-9
    assert cls.angular_derivative == pytest.approx(1.0, abs=1e-9)


def test_classify_identity_and_aperiodic():
    assert isinstance(de.classify(de.Moebius(1, 0, 0, 1)), de.Identity)
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    rot = de.Moebius(cmath.exp(2j * math.pi * golden), 0, 0, 1)
    cls = de.classify(rot)
    assert isinstance(cls, de.EllipticAutomorphism)
    assert cls.period is None


def test_classify_elliptic_off_center():
    s = de.make_automorphism("elliptic", angle=2 * math.pi / 5, fixed_point=0.4 - 0.1j)
    cls = de.classify(s)
    assert isinstance(cls, de.EllipticAutomorphism)
    assert cls.fixed_point == pytest.approx(0.4 - 0.1j, abs=1e-9)
    assert cls.period == 5


@pytest.mark.parametrize("angle", [1e-4, 6e-5, 4e-5, 2e-5, 1e-5, 1e-6, 1e-7])
@pytest.mark.parametrize("p0", [0.5, 0.3 + 0.4j, 0.85j])
def test_classify_elliptic_with_a_small_angle(angle, p0):
    # |kappa - 1| < 6.3e-5 merges the fixed points p0 and 1/conj(p0) in
    # doubles, and below t = 3e-5 the trace misses the elliptic margin
    s = de.make_automorphism("elliptic", angle=angle, fixed_point=p0)
    cls = de.classify(s)
    assert isinstance(cls, de.EllipticAutomorphism)
    assert abs(cls.fixed_point - p0) <= 1e-8
    assert cls.multiplier == pytest.approx(cmath.exp(1j * angle), abs=1e-12)
    assert cls.period is None
    with pytest.raises(de.EllipticInputError):
        de.denjoy_wolff(s)


@pytest.mark.parametrize("p0, angle", [(0.999, 0.5), (0.999, 1e-5), (0.9999, 1e-5),
                                        (0.9999, 0.5), (0.999, 3.0), (1.0 - 2e-6, 1e-3)])
def test_classify_elliptic_near_the_circle(p0, angle):
    # |kappa| misses 1 by more than 1e-12 here, so the normal form's
    # attracting root is 1/conj(p0), outside the disc; and the image circle's
    # |d|^2 - |c|^2 cancels, so that the last three miss its unit-circle test
    s = de.make_automorphism("elliptic", angle=angle, fixed_point=p0)
    cls = de.classify(s)
    assert isinstance(cls, de.EllipticAutomorphism)
    assert abs(cls.fixed_point - p0) <= 1e-8
    with pytest.raises(de.EllipticInputError):
        de.denjoy_wolff(s)


def test_classify_blaschke_boundary_hyperbolic():
    # ((z + 0.6) / (1 + 0.6 z))^2 fixes 1 with derivative 2(1-a)/(1+a) = 0.5
    s = de.Blaschke(0.0, [-0.6, -0.6])
    cls = de.classify(s)
    assert isinstance(cls, de.HyperbolicDW)
    assert abs(cls.z0 - 1.0) <= 1e-9
    assert cls.angular_derivative == pytest.approx(0.5, abs=1e-9)


def test_classify_taylor_boundary_hyperbolic():
    s = de.Taylor([0.19, 0.8, 0.01])
    cls = de.classify(s)
    assert isinstance(cls, de.HyperbolicDW)
    assert abs(cls.z0 - 1.0) <= 1e-6
    assert cls.angular_derivative == pytest.approx(0.82, abs=1e-4)


# ---------------------------------------------------------------------------
# the Moebius normal form against reference implementations
#
# ``symbols._moebius_normal_form`` is the only place that finds the fixed
# points and multiplier of a linear-fractional map.  The references below
# find them independently: a quadratic in doubles with its own root
# selection and classification branches, and 40-digit roots with the
# multiplier (cq + d)/(cp + d) for the closed-form orbit engine.

def _reference_fixed_points(m):
    # roots of c z^2 + (d - a) z - b in doubles, a near-double root merged
    A, B, C = m.c, m.d - m.a, -m.b
    if abs(A) <= 1e-15 * max(1.0, abs(B), abs(C)):
        return [(-C / B, 1)]
    disc = B * B - 4.0 * A * C
    noise_floor = 9e-16 * max(abs(B) ** 2, 4.0 * abs(A) * abs(C))
    if abs(disc) <= max(4e-9 * abs(m.det), noise_floor):
        return [(-B / (2.0 * A), 2)]
    sq = cmath.sqrt(disc)
    if (B.conjugate() * sq).real < 0:
        sq = -sq
    q = -0.5 * (B + sq)
    return [(q / A, 1), (C / q, 1)]


def _reference_dw(m):
    # the first fixed point on the closed disc that is double or attracting
    for p, mult in _reference_fixed_points(m):
        dp = abs(complex(m.derivative(p)))
        if abs(p) <= 1.0 + 1e-8 and (mult == 2 or dp <= 1.0 + 1e-12):
            assert mult == 2 or dp <= 1.0 - 1e-12 or abs(p) >= 1.0 - 1e-8, "elliptic"
            return p
    raise AssertionError("no attracting fixed point on the closed disc")


def _reference_image_circle(m):
    # center and radius of the image of the unit circle under a Moebius map,
    # in closed form (Cowen-MacCluer 1995, ch. 2)
    scale = abs(m.d) ** 2 - abs(m.c) ** 2
    return (m.b * m.d.conjugate() - m.a * m.c.conjugate()) / scale, abs(m.det) / scale


def _reference_classify(s):
    # the two linear-fractional branches of classify; the image circle is
    # the unit circle when |center| + |radius - 1| <= 1e-10
    mo = _as_moebius(s)
    center, radius = _reference_image_circle(mo)
    if isinstance(s, de.Blaschke) or abs(center) + abs(radius - 1.0) <= 1e-10:
        if ((mo.a + mo.d) ** 2 / mo.det).real < 4.0 - 1e-9:
            p = min((p for p, _ in _reference_fixed_points(mo)), key=abs)
            lam = complex(mo.derivative(p))
            lam /= abs(lam)
            return de.EllipticAutomorphism(p, lam, dynamics._rotation_period(lam))
        return dynamics._boundary_class(s, _reference_dw(mo))
    p = _reference_dw(mo)
    if abs(p) < 1.0 - dynamics.BOUNDARY_PROXIMITY_TOL:
        return de.InteriorDW(p, abs(complex(s.derivative(p))))
    return dynamics._boundary_class(s, p)


def _reference_closed_form(m):
    # the closed-form orbit engine's normal form, roots and multiplier at 40
    # digits, with its snaps
    form = object.__new__(symbols._ClosedForm)
    with mp.workdps(40):
        a, b, c, d = (mp.mpc(v) for v in (m.a, m.b, m.c, m.d))
        if c == 0:
            p, q, kappa, gamma = (None if a == d else b / (d - a)), None, a / d, b / d
        else:
            root = mp.sqrt((d - a) ** 2 + 4 * b * c)
            p, q = (a - d + root) / (2 * c), (a - d - root) / (2 * c)
            kappa = (c * q + d) / (c * p + d)
            if abs(q) < abs(p) if abs(mp.log(abs(kappa))) <= 1e-12 else abs(kappa) > 1:
                p, q, kappa = q, p, 1 / kappa
            gamma = c / (c * p + d)
        form.p, form.q = (None if v is None else complex(v) for v in (p, q))
        form.gamma, form.log_r = complex(gamma), float(mp.log(abs(kappa)))
        turns = mp.arg(kappa) / (2 * mp.pi)
        form.turns = (float(turns), float(turns - float(turns)))
    if abs(form.log_r) <= symbols.ROTATION_SNAP_TOL:
        form.log_r = 0.0
    ratio = symbols.rotation_fraction(form.turns[0])
    if abs(form.turns[0] - ratio) <= symbols.ROTATION_SNAP_TOL:
        form.turns = ratio
    form.kappa_m1 = form.powers(np.ones(1, dtype=np.int64))[1][0]
    return form


def _multiplier(cls):
    if isinstance(cls, de.EllipticAutomorphism):
        return cls.multiplier
    return cls.multiplier_modulus if isinstance(cls, de.InteriorDW) else cls.angular_derivative


def _linear_fractional_cases():
    yield from ((name, de.gallery_symbol(name)) for name in de.GALLERY_NAMES
                if _as_moebius(de.gallery_symbol(name)) is not None)
    rng = np.random.default_rng(SEED + 9)
    for i in range(2000):
        yield f"case {i}", random_linear_fractional(rng)[0]


def test_normal_form_matches_the_references():
    seeds = np.array([0.0, 0.3 + 0.4j, -0.5j, 0.9, 1.0, cmath.exp(2j)])
    steps = np.array([1, 7, 10**3, 10**6])
    kinds = set()
    for name, s in _linear_fractional_cases():
        got, want = de.classify(s), _reference_classify(s)
        kinds.add(got.kind)
        assert got.kind == want.kind, name
        assert getattr(got, "period", None) == getattr(want, "period", None), name
        point = got.fixed_point if isinstance(got, de.EllipticAutomorphism) else got.z0
        want_point = want.fixed_point if isinstance(want, de.EllipticAutomorphism) else want.z0
        assert abs(point - want_point) <= 1e-12, name
        assert abs(_multiplier(got) - _multiplier(want)) <= 1e-12, name
        form, ref = _closed_form(s), _reference_closed_form(_as_moebius(s))
        # bit for bit, except the low double of unsnapped turns: its last
        # bits lie below the 40-digit working precision, where two formulas
        # for kappa round differently (3e-43 apart in one case here)
        assert repr((form.p, form.q, form.gamma, form.log_r)) \
            == repr((ref.p, ref.q, ref.gamma, ref.log_r)), name
        if isinstance(ref.turns, Fraction):
            assert form.turns == ref.turns, name
        else:
            assert form.turns[0] == ref.turns[0], name
            assert abs(form.turns[1] - ref.turns[1]) <= 1e-39, name
        assert form.iterates(seeds, steps).tobytes() == ref.iterates(seeds, steps).tobytes(), name
    assert kinds == {"elliptic_automorphism", "interior_dw", "hyperbolic_dw", "parabolic_dw"}


@pytest.mark.parametrize("doc", [
    {"kind": "moebius", "a": [2, 0], "b": [1, 0], "c": [1, 0], "d": [2, 0]},
    {"kind": "blaschke", "rotation": 0.3, "zeros": [[0.5, 0.2]]},
    {"kind": "polynomial", "coeffs": [[0.2, 0.1], [0.5, 0.3]]},
], ids=lambda doc: doc["kind"])
def test_classify_leaves_the_closed_form_unbuilt(doc):
    # the 40-digit form costs about ten times a classification in doubles
    s = de.parse_symbol(doc)
    de.classify(s)
    assert "_closed_form" not in s.__dict__


# ---------------------------------------------------------------------------
# sup norms

def test_sup_norm_halving_exact():
    for n in (1, 3, 5):
        assert de.sup_norm_iterate(HALF, n) == pytest.approx(2.0 ** (-n), abs=1e-12)


def test_sup_norm_square_sticks_at_one():
    assert de.sup_norm_iterate(ZSQ, 4) == pytest.approx(1.0, abs=1e-12)


def test_sup_norms_of_an_inner_symbol_need_no_grid():
    # phi^n maps the circle onto itself; stepping the grid's circle points,
    # which carry |z| = 1 + O(2^-53), left the closed disc at step 24
    z0 = 0.3 - 0.4j
    for s in (de.gallery_symbol("zsq"), de.Polynomial([0, 0, 1])):
        assert np.array_equal(de.sup_norm_sequence(s, 40), np.ones(40))
        assert np.array_equal(dynamics.sup_distance_sequence(s, z0, 40), np.full(40, 1.0 + abs(z0)))


def test_sup_norm_blend_does_not_vanish():
    # the boundary fixed point keeps the sup at one
    assert de.sup_norm_iterate(BLEND, 50) == pytest.approx(1.0, abs=1e-9)


def test_sup_norm_schwarz_decrease():
    sups = de.sup_norm_sequence(de.Polynomial([0, 0.4, 0.3]), 40)
    assert np.all(np.diff(sups) <= 1e-12)


# ---------------------------------------------------------------------------
# boundary periodic points

def test_boundary_periodic_points_square_fixed():
    pts = de.boundary_periodic_points(ZSQ, 1)
    assert len(pts) == 1
    assert abs(pts[0].point - 1.0) <= 1e-10
    assert pts[0].period == 1 and pts[0].residual <= 1e-10


def test_boundary_periodic_points_square_period_two():
    pts = de.boundary_periodic_points(ZSQ, 2)
    # z^4 = z on the circle: cube roots of unity
    roots = [1.0, cmath.exp(2j * math.pi / 3), cmath.exp(4j * math.pi / 3)]
    assert len(pts) == 3
    for bp in pts:
        nearest = min(roots, key=lambda r: abs(r - bp.point))
        assert abs(bp.point - nearest) <= 1e-9
        assert bp.period == (1 if abs(nearest - 1.0) < 1e-9 else 2)


def test_boundary_periodic_points_hyperbolic_pair():
    pts = de.boundary_periodic_points(HYPERBOLIC, 1)
    values = sorted(round(p.point.real, 9) for p in pts)
    assert values == [-1.0, 1.0]
    assert all(p.period == 1 and p.residual <= 1e-10 for p in pts)


def test_boundary_periodic_points_blend_finds_one():
    pts = de.boundary_periodic_points(BLEND, 2)
    assert len(pts) == 1
    assert abs(pts[0].point - 1.0) <= 1e-10


def test_boundary_periodic_points_none_for_half():
    assert de.boundary_periodic_points(HALF, 2) == []


def test_boundary_periodic_points_square_to_period_four():
    # z^(2^p) = z on the circle: the (2^p - 1)-th roots of unity; the point
    # e^(2 pi i f) has minimal period the least p with (2^p - 1) f integral
    minimal = {}
    for n in (1, 3, 7, 15):
        for k in range(n):
            f = Fraction(k, n)
            minimal[f] = min(p for p in range(1, 5) if (f * (2**p - 1)).denominator == 1)
    assert len(minimal) == 21
    pts = de.boundary_periodic_points(ZSQ, 4)
    assert len(pts) == 21
    matched = set()
    for bp in pts:
        f = min(minimal, key=lambda g: abs(cmath.exp(2j * math.pi * g) - bp.point))
        assert abs(cmath.exp(2j * math.pi * f) - bp.point) <= 1e-9
        assert bp.period == minimal[f]
        matched.add(f)
    assert len(matched) == 21


@pytest.mark.parametrize("s", [
    HALF,
    de.Moebius(0.9, 0, 0, 1),
    de.Polynomial([0.1, 0.3j, -0.4, 0.15]),
], ids=["z_half", "dilation", "polynomial"])
def test_boundary_periodic_points_skip_maps_into_smaller_disc(s, monkeypatch):
    def no_sampling(*args):
        raise AssertionError("sampled a symbol whose image misses the circle")

    monkeypatch.setattr(dynamics, "_turned_orbit", no_sampling)
    assert de.boundary_periodic_points(s, 8) == []
    # the search samples through the patched name: a symbol that reaches the
    # circle does
    with pytest.raises(AssertionError, match="sampled"):
        de.boundary_periodic_points(ZSQ, 1)


def test_boundary_periodic_points_rotated_polynomial_not_skipped():
    # psi(z) = conj(lam) p(lam z) with p = 0.5 z + 0.3 z^2 + 0.2 z^3 fixes
    # conj(lam); its coefficient bound is 1, the edge of the skip rule
    lam = cmath.exp(0.7j)
    s = de.Polynomial([c * lam ** (k - 1) for k, c in enumerate([0.0, 0.5, 0.3, 0.2])])
    assert abs(symbols._image_radius_bound(s)[0] - 1.0) <= 1e-15
    pts = de.boundary_periodic_points(s, 2)
    assert len(pts) == 1
    assert abs(pts[0].point - lam.conjugate()) <= 1e-10 and pts[0].period == 1


@pytest.mark.parametrize("m", [
    HALF, TANGENT, HYPERBOLIC, de.Moebius(0.3, 0.2j, 0.4, 1.0),
    de.Moebius(1e-8, 0.5, 0, 1),
])
def test_image_radius_bound_is_the_moebius_maximum(m):
    sampled = float(np.max(np.abs(m(boundary_points(1 << 14)))))
    bound, _ = symbols._image_radius_bound(m)
    assert sampled - 1e-12 <= bound <= sampled + 1e-6


def _gap(s, t, period):
    # the wrapped argument gap of one period, stepped from e^{it}
    w = np.exp(1j * t)
    for _ in range(period):
        w = s(w)
    return np.angle(w * np.exp(-1j * t))


def _scalar_bisection_search(s, max_period, samples=2048):
    """Reference: the search one period at a time, with one scalar bisection
    level per gap evaluation for each bracket."""
    found = []

    def register(t_root, period):
        q = cmath.exp(1j * t_root)
        w = q
        for _ in range(period):
            w = complex(s(w))
        residual = abs(w - q)
        if residual > 1e-10:
            return
        minimal = period
        for d in range(1, period):
            if period % d:
                continue
            wd = q
            for _ in range(d):
                wd = complex(s(wd))
            if abs(wd - q) <= dynamics.FIXED_POINT_RESIDUAL_TOL:
                minimal = d
                break
        if all(abs(known.point - q) >= 1e-8 for known in found):
            found.append(dynamics.BoundaryPeriodicPoint(q, minimal, residual))

    t = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    for period in range(1, max_period + 1):
        gaps = _gap(s, t, period)
        for i in range(samples):
            ga, gb = gaps[i], gaps[(i + 1) % samples]
            if ga == 0.0:
                register(float(t[i]), period)
                continue
            if ga * gb >= 0.0 or abs(ga) + abs(gb) >= np.pi:
                continue
            lo = float(t[i])
            hi = float(t[i + 1]) if i + 1 < samples else 2.0 * np.pi
            glo = float(ga)
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                gm = float(_gap(s, np.array([mid]), period)[0])
                if gm == 0.0:
                    lo = hi = mid
                    break
                if glo * gm < 0.0:
                    hi = mid
                else:
                    lo, glo = mid, gm
                if hi - lo < 1e-14:
                    break
            register(0.5 * (lo + hi), period)
    found.sort(key=lambda bp: math.atan2(bp.point.imag, bp.point.real) % (2.0 * math.pi))
    return found


def test_boundary_periodic_points_match_scalar_bisection():
    # bit for bit: points, periods, residuals and their order
    rng = np.random.default_rng(11)
    cases = [ZSQ, BLEND, HYPERBOLIC, TANGENT, PARABOLIC]
    cases += [random_circle_symbol(rng) for _ in range(12)]
    for s in cases:
        for max_period in (1, 2, 3):
            assert de.boundary_periodic_points(s, max_period) == \
                _scalar_bisection_search(s, max_period), (s, max_period)
    # the benchmark's obstructed interior family: 0 attracts, and the
    # circle carries periodic points of every period
    total = 0
    for i in range(8):
        s, max_period = random_interior_blaschke(rng), 1 + i % 4
        got = de.boundary_periodic_points(s, max_period)
        assert got == _scalar_bisection_search(s, max_period), (s, max_period)
        total += len(got)
    assert total >= 150


def _same_points(read, searched, tol=1e-12):
    return len(read) == len(searched) and all(
        min(abs(a.point - b.point) for b in searched) <= tol for a in read)


@pytest.mark.parametrize("s, expected", [
    (ZSQ, [1.0]),  # a repeated zero at 0: the equation z^2 - z ends in a zero
    (de.Taylor([0, 0, 1]), [1.0]),
    (de.Polynomial([0, 0.5, 0.5, 0]), [1.0]),  # a trailing zero coefficient
    # ((z + 0.6)/(1 + 0.6 z))^2: 9 z^2 + 14 z + 9 = 0 puts two more on the circle
    (de.Blaschke(0.0, [-0.6, -0.6]), [1.0, (-7 + 32**0.5 * 1j) / 9, (-7 - 32**0.5 * 1j) / 9]),
], ids=["zsq", "taylor_z2", "trailing_zero", "repeated_blaschke_zero"])
def test_boundary_fixed_points_from_their_equation(s, expected):
    read = dynamics._boundary_fixed_points(s)
    assert _same_points(read, de.boundary_periodic_points(s, 1))
    assert _same_points(read, [dynamics.BoundaryPeriodicPoint(q, 1, 0.0) for q in expected])
    assert all(bp.period == 1 and bp.residual <= 1e-10 for bp in read)
    angles = [cmath.phase(bp.point) % (2 * math.pi) for bp in read]
    assert angles == sorted(angles)


def test_boundary_fixed_points_up_to_the_degree_cap():
    # (z + z^d)/2 fixes the (d - 1)-th roots of unity; phi(z) - z has degree d
    cap = dynamics.FIXED_POINT_DEGREE_CAP
    at_cap = de.Polynomial([0, 0.5] + [0] * (cap - 2) + [0.5])
    read = dynamics._boundary_fixed_points(at_cap)
    assert len(read) == cap - 1 and _same_points(read, de.boundary_periodic_points(at_cap, 1))
    assert dynamics._boundary_fixed_points(de.Polynomial([0, 0.5] + [0] * (cap - 1) + [0.5])) == []


def test_boundary_fixed_points_of_a_moebius_map_are_not_read():
    # z/(2 - z) fixes 1, but linear-fractional maps are left to the search
    s = de.Moebius(1, 0, -1, 2)
    assert dynamics._boundary_fixed_points(s) == []
    assert [bp.point for bp in de.boundary_periodic_points(s, 1)] == [1.0]


def test_register_applies_the_residual_and_duplicate_rules():
    # near the fixed point 1 of BLEND, |phi(e^{it}) - e^{it}| is about |t|/2
    found, angles = [], []
    for t in (4e-10, 1e-10, -1e-10):
        dynamics._register(BLEND, found, angles, cmath.exp(1j * t), 1)
    dynamics._register(BLEND, found, angles, complex("nan+nanj"), 1)  # an unsettled zero
    assert [bp.point for bp in found] == [cmath.exp(1e-10j)]


def test_boundary_fixed_points_invariants():
    assert check_boundary_fixed_points(200) >= 200


# ---------------------------------------------------------------------------
# contraction and circle images

def test_local_contraction_tangent():
    rep = de.local_contraction_check(TANGENT, 1.0, 0.5)
    assert rep.passed
    assert rep.rho == pytest.approx(0.5, abs=1e-12)


def test_local_contraction_square_fails():
    rep = de.local_contraction_check(ZSQ, 1.0, 0.1)
    assert not rep.passed
    assert 1.8 <= rep.rho <= 2.05


def test_local_contraction_parabolic_fails():
    rep = de.local_contraction_check(PARABOLIC, 1.0, 0.1)
    assert not rep.passed
    assert rep.rho >= 0.999


def test_image_circle_half():
    center, radius = _reference_image_circle(HALF)
    assert abs(center) <= 1e-14 and radius == pytest.approx(0.5, abs=1e-14)
    assert symbols._image_radius_bound(HALF)[0] == abs(center) + radius


def test_image_circle_automorphism():
    # an automorphism maps the circle onto itself: R = 1 up to rounding
    for s in (HYPERBOLIC, PARABOLIC):
        center, radius = _reference_image_circle(s)
        bound, _ = symbols._image_radius_bound(s)
        assert bound == abs(center) + radius
        assert abs(bound - 1.0) <= 1e-15, s


def test_image_circle_tangent():
    center, radius = _reference_image_circle(TANGENT)
    assert center == pytest.approx(0.5, abs=1e-12)
    assert radius == pytest.approx(0.5, abs=1e-12)
    # internally tangent to the unit circle at 1: R = |center| + radius = 1
    assert symbols._image_radius_bound(TANGENT)[0] == pytest.approx(1.0, abs=1e-12)
    assert dict(de.verdict(TANGENT, "A").evidence)["tangency_gap"] <= 1e-12


def test_image_circle_small_radius_is_exact():
    # the closed form gives |ad - bc| / (|d|^2 - |c|^2) = 1e-7 itself; a
    # circle fitted through three image points was off by 8e-4 relative
    s = de.Moebius(1e-7, 0.5, 0, 1)
    center, radius = symbols._moebius_image_circle(s)
    assert center == 0.5
    assert radius == pytest.approx(1e-7, rel=1e-15)
    assert symbols._image_radius_bound(s)[0] == 0.5 + radius


def test_image_circle_unit_test_matches_boundary_oracle():
    # Near-automorphisms phi = auto((1 - eps) z): R is the maximum of |phi|
    # on 4096 boundary points up to rounding.  Where max ||phi| - 1| is
    # <= 1e-10 there, R lies within 1e-10 of 1: not below 1 - 1e-10 and at
    # most 1 + SELF_MAP_TOL/2, the sides of the image-radius certificate
    # and of validation that R = 1 is on.  Cases within a factor 2 of the
    # margin are skipped.
    rng = np.random.default_rng(7)
    pts = boundary_points(4096)
    decided = {True: 0, False: 0}
    for _ in range(400):
        eps = 10.0 ** rng.uniform(-13.0, -8.0)
        s = de.moebius_product(random_automorphism(rng), de.Moebius(1.0 - eps, 0, 0, 1))
        moduli = np.abs(s(pts))
        bound, rounding = symbols._image_radius_bound(s)
        assert abs(bound - float(np.max(moduli))) <= rounding, s
        deviation = float(np.max(np.abs(moduli - 1.0)))
        if 0.5e-10 <= deviation <= 2e-10:
            continue
        if deviation <= 1e-10:
            assert 1.0 - 1e-10 <= bound <= 1.0 + 1e-10, (s, deviation)
        decided[deviation <= 1e-10] += 1
    assert min(decided.values()) >= 100


# ---------------------------------------------------------------------------
# invariants

def test_fixed_point_residuals():
    for s, period in ((ZSQ, 2), (HYPERBOLIC, 1), (BLEND, 1)):
        for bp in de.boundary_periodic_points(s, period):
            w = bp.point
            for _ in range(bp.period):
                w = complex(s(w))
            assert abs(w - bp.point) <= 1e-8


def test_conjugation_invariance():
    assert check_classify_conjugation_invariance(100) >= 100


def test_boundary_periodic_points_invariants():
    assert check_boundary_periodic_points(100) >= 100


def test_denjoy_wolff_consistency_across_seeds():
    rng = np.random.default_rng(5)
    for s, parabolic in ((HALF, False), (HYPERBOLIC, False), (TANGENT, False),
                         (PARABOLIC, True), (ZSQ, False), (BLEND, False)):
        z0 = de.classify(s).z0 if not isinstance(de.classify(s), de.EllipticAutomorphism) else None
        seeds = np.array([0.9 * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())
                          for _ in range(10)])
        finals = seeds
        for _, block in symbols.orbit_blocks(s, seeds, 10**4):
            finals = block[-1]
        spread = float(np.max(np.abs(finals - finals[0])))
        assert spread <= 1e-4
        if not parabolic:
            assert float(np.max(np.abs(finals - z0))) <= 1e-4


def test_tangency_dichotomy():
    # auto(r z) maps the closed disc strictly inside it, auto(r z + 1 - r)
    # onto a disc tangent to the circle at auto(1): R = |center| + radius
    # of the closed-form image circle, below 1 - 1e-8 or within 1e-8 of 1
    rng = np.random.default_rng(13)
    for _ in range(60):
        auto, r = random_automorphism(rng), rng.uniform(0.3, 0.95)
        for inner, tangent in ((de.Moebius(r, 0, 0, 1), False),
                               (de.Moebius(r, 1.0 - r, 0, 1), True)):
            s = de.moebius_product(auto, inner)
            center, radius = _reference_image_circle(s)
            bound, _ = symbols._image_radius_bound(s)
            assert bound == pytest.approx(abs(center) + radius, rel=1e-15), s
            if tangent:
                assert abs(bound - 1.0) <= 1e-8, s
            else:
                assert bound < 1.0 - 1e-8, s
