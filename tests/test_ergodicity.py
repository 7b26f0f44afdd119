import cmath
import math

import mpmath as mp
import numpy as np
import pytest

import disc_ergodics as de
from invariants import (CountingSymbol, check_cesaro_power_boundedness,
                        check_lft_density_certificate, random_automorphism)

HALF = de.Moebius(1, 0, 0, 2)
HYPERBOLIC = de.Moebius(2, 1, 1, 2)
TANGENT = de.Moebius(1, 1, 0, 2)
PARABOLIC = de.make_automorphism("parabolic", translation=1.0)
ZSQ = de.Blaschke(0.0, [0.0, 0.0])
MINUS = de.Moebius(-1, 0, 0, 1)
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
ROT_GOLDEN = de.Moebius(cmath.exp(2j * math.pi * GOLDEN), 0, 0, 1)


# ---------------------------------------------------------------------------
# Cesaro traces

def test_cesaro_involution_kills_odd_part():
    trace = de.cesaro_apply(MINUS, de.Monomial(1), 1.0, 2)
    assert trace.final == 0  # orbit -1, 1 averages to zero


def test_cesaro_halving_mean_tends_to_zero():
    trace = de.cesaro_apply(HALF, de.Monomial(1), 1.0, 1000)
    # exact mean (1 - 2^-N)/N
    assert trace.final == pytest.approx((1.0 - 2.0 ** -1000) / 1000, abs=1e-15)


def test_cesaro_tangent_mean_near_one():
    trace = de.cesaro_apply(TANGENT, de.Monomial(1), 0.0, 10**4)
    expected = 1.0 - (1.0 - 2.0 ** -(10**4)) / 10**4
    assert abs(trace.final - 1.0) <= 2e-3
    assert trace.final == pytest.approx(expected, abs=1e-10)


def test_cesaro_trace_shape_and_orbit():
    trace = de.cesaro_apply(ZSQ, de.Monomial(2), 0.5, 8)
    assert trace.n == 8 and len(trace.partial_means) == 8
    assert trace.orbit is not None and abs(trace.orbit[0] - 0.25) < 1e-15
    assert trace.partial_means[-1] == trace.final


def test_cesaro_final_means_matches_scalar():
    seeds = np.array([0.3, -0.4j, 0.2 + 0.1j])
    vector = de.cesaro_final_means(HYPERBOLIC, de.Monomial(1), seeds, 500)
    for seed, value in zip(seeds, vector):
        scalar = de.cesaro_apply(HYPERBOLIC, de.Monomial(1), complex(seed), 500).final
        assert abs(scalar - value) <= 1e-12


def test_cesaro_final_means_keeps_the_seeds_shape():
    seeds = np.array([[0.3, -0.4j], [0.2 + 0.1j, 0.9]])
    means = de.cesaro_final_means(HYPERBOLIC, de.Monomial(1), seeds, 50)
    assert means.shape == (2, 2)
    flat = de.cesaro_final_means(HYPERBOLIC, de.Monomial(1), seeds.ravel(), 50)
    assert np.array_equal(means.ravel(), flat)
    assert de.cesaro_final_means(HYPERBOLIC, de.Monomial(1), np.array(0.3), 50).shape == ()


def test_cesaro_apply_bounds_a_taylor_function_by_its_coefficients():
    # z^512 - z^1536 vanishes at the 1,024th roots of unity, where a sampled
    # sup reads 7.1e-13, yet reaches 2 between them; no Cesaro mean exceeds
    # the coefficient sum, so power boundedness holds
    coeffs = [0.0] * 1537
    coeffs[512], coeffs[1536] = 1.0, -1.0
    f = de.TaylorFn(coeffs)
    assert f.boundary_sup() == 2.0
    assert abs(f(cmath.exp(1j * math.pi / 1024))) == pytest.approx(2.0, abs=1e-12)
    trace = de.cesaro_apply(de.gallery_symbol("rot_golden"), f, 1.0, 50)
    assert float(np.max(np.abs(trace.partial_means))) > 0.1
    assert float(np.max(np.abs(trace.partial_means))) <= 2.0


def test_empty_orbits_are_rejected():
    with pytest.raises(ValueError, match="^n must be >= 1$"):
        de.iterate(HALF, 0.5, 0)
    with pytest.raises(ValueError, match="^n must be >= 1$"):
        de.cesaro_apply(HALF, de.Monomial(1), 0.5, 0)
    with pytest.raises(ValueError):
        de.cesaro_final_means(HALF, de.Monomial(1), np.array([0.5]), 0)
    with pytest.raises(ValueError):
        de.density_sweep(HALF, np.array([0.5]), 0.0, [0.1], 0)
    with pytest.raises(ValueError):
        de.orbit_density(HALF, 0.5, 0.0, 0.1, 0)


# Each entry point that takes seeds, called on one seed z: the orbit engine
# refuses a seed outside the closed disc before any step.
SEEDED = {
    "iterate": lambda s, z: de.iterate(s, z, 10),
    "cesaro_apply": lambda s, z: de.cesaro_apply(s, de.Monomial(1), z, 10),
    "cesaro_final_means": lambda s, z: de.cesaro_final_means(s, de.Monomial(1), [0.5, z], 10),
    "cesaro_orbit_mean": lambda s, z: de.cesaro_orbit_mean(s, z, 10),
}


@pytest.mark.parametrize("z", [math.nan, complex(0.0, math.inf), 1.5, 1.0 + 2e-9],
                         ids=["nan", "inf", "1.5", "1+2e-9"])
@pytest.mark.parametrize("entry", sorted(SEEDED))
def test_seeds_outside_the_disc_are_refused(entry, z):
    for s in (HALF, de.Polynomial([0, 0.5, 0.25])):
        counted = CountingSymbol(s)
        with pytest.raises(de.SymbolError) as err:
            SEEDED[entry](counted, z)
        assert str(err.value) == f"seed {complex(z)!r} is not a point of the closed disc"
        assert counted.calls == 0
    # on the circle, within rounding of it, is in the disc
    SEEDED[entry](HALF, 1.0 + 1e-12)


@pytest.mark.parametrize("radius", [0.0, -0.5, math.nan, math.inf])
def test_density_radii_must_be_finite_and_positive(radius):
    message = f"radius must be finite and positive, got {radius:g}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        de.orbit_density(TANGENT, 0.0, 1.0, radius, 100)
    with pytest.raises(ValueError, match=f"^{message}$"):
        de.density_sweep(TANGENT, [0.0, 0.5j], 1.0, [0.1, radius], 100)


# ---------------------------------------------------------------------------
# orbit means

def test_orbit_mean_rotation_period_four_cancels():
    rot = de.Moebius(1j, 0, 0, 1)
    assert abs(de.cesaro_orbit_mean(rot, 0.5, 4)) <= 1e-16


def test_orbit_mean_hyperbolic():
    assert abs(de.cesaro_orbit_mean(HYPERBOLIC, 0.0, 10**4) - 1.0) <= 1e-2


def test_orbit_mean_parabolic():
    assert abs(de.cesaro_orbit_mean(PARABOLIC, 0.0, 10**5) - 1.0) <= 5e-2


def test_orbit_mean_deviation_shrinks_with_n():
    # Cesaro-mean distance to the attracting point decays ~ log n / n
    for s, z0 in ((HYPERBOLIC, 1.0), (HALF, 0.0)):
        d1 = abs(de.cesaro_orbit_mean(s, 0.2, 10**3) - z0)
        d2 = abs(de.cesaro_orbit_mean(s, 0.2, 10**4) - z0)
        assert d2 < d1


# ---------------------------------------------------------------------------
# rotation limits

def test_rotation_limit_keeps_multiples():
    assert de.rotation_cesaro_limit(2, [1, 1, 1]) == [1, 0, 1]
    assert de.rotation_cesaro_limit(1, [2, 3j]) == [2, 3j]
    assert de.rotation_cesaro_limit(4, [0, 0, 0, 1, 1, 1]) == [0, 0, 0, 0, 1, 0]


def test_rotation_limit_identity_for_exact_period():
    # at N divisible by the rotation order the running mean is the limit
    coeffs = [0.2, 0.3, 0.1j, -0.4, 0.25]
    f = de.TaylorFn(coeffs)
    limit = de.TaylorFn(de.rotation_cesaro_limit(4, coeffs))
    rot = de.Moebius(1j, 0, 0, 1)
    for z in (0.0, 0.7, -0.3 + 0.4j, 1j):
        trace = de.cesaro_apply(rot, f, z, 8)
        assert abs(trace.final - complex(limit(z))) <= 1e-12


# ---------------------------------------------------------------------------
# monomial means

def test_monomial_mean_order_four():
    res = de.monomial_mean(1j, 1, 2)
    assert res.value == pytest.approx((1j - 1.0) / 2.0, abs=1e-15)
    assert res.sup_norm_exact == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-13)
    # the exact norm and the bound coincide here; allow one ulp
    assert abs(res.value) <= res.sup_norm_bound + 1e-15


def test_monomial_mean_periodic_branch():
    res = de.monomial_mean(-1.0, 2, 7)
    assert res.periodic and res.value == 1.0


def test_monomial_mean_respects_bound():
    lam = cmath.exp(2j * math.pi * 0.3)
    res = de.monomial_mean(lam, 1, 10**4)
    assert abs(res.value) <= 2.0 / (10**4 * abs(1.0 - lam))


def test_monomial_mean_consistency_across_orders():
    lam = cmath.exp(2j * math.pi * (math.sqrt(2.0) - 1.0))
    for j in range(1, 6):
        for n in (10**2, 10**3, 10**4):
            res = de.monomial_mean(lam, j, n)
            assert abs(abs(res.value) - res.sup_norm_exact) <= 1e-12
            assert abs(res.value) <= res.sup_norm_bound + 1e-15


def _direct_monomial_mean(lam, j, n):
    # the mean summed power by power, and the norm from the same last power
    mu = complex(lam) ** j
    total, power = 0.0j, 1.0 + 0.0j
    for _ in range(n):
        power *= mu
        total += power
    return total / n, abs(mu - power * mu) / (n * abs(1.0 - mu))


def test_monomial_mean_matches_the_direct_sum():
    # criterion 02's grid, then 200 random unimodular lam, each with a
    # random j <= 5 and n <= 10^4
    rng = np.random.default_rng(202)
    lam = cmath.exp(2j * math.pi * (math.sqrt(2.0) - 1.0))
    cases = [(lam, j, n) for j in range(1, 6) for n in (10**2, 10**3, 10**4)]
    cases += [(cmath.exp(2j * math.pi * rng.random()), int(rng.integers(1, 6)),
               int(rng.integers(1, 10**4 + 1))) for _ in range(200)]
    worst = 0.0
    for lam, j, n in cases:
        res = de.monomial_mean(lam, j, n)
        value, norm = _direct_monomial_mean(lam, j, n)
        assert not res.periodic
        gap = max(abs(res.value - value), abs(res.sup_norm_exact - norm))
        assert gap <= 1e-12, (lam, j, n, gap)
        worst = max(worst, gap)
    print(f"monomial_mean: largest deviation from the direct sum {worst:.2e}")


# ---------------------------------------------------------------------------
# densities

def test_density_tangent_orbit_enters_and_stays():
    d = de.orbit_density(TANGENT, 0.0, 1.0, 0.1, 1000)
    assert d.estimate >= 0.99
    assert d.hits == 1000 - 3  # enters at step 4: 2^-m < 0.1
    assert d.running_min_ratio == (500 - 3) / 500  # taken over m >= n/2 only


def test_density_repelling_seed_never_visits():
    d = de.orbit_density(HYPERBOLIC, -1.0, 1.0, 0.5, 1000)
    assert d.estimate == 0.0 and d.running_min_ratio == 0.0


def test_density_two_cycle_avoids_target():
    seed = cmath.exp(2j * math.pi / 3.0)
    d = de.orbit_density(ZSQ, seed, 1.0, 0.5, 1000)
    assert d.estimate == 0.0


def test_density_sweep_matches_scalar():
    seeds = np.exp(2j * np.pi * np.arange(4) / 4.0 + 0.3j)
    sweep = de.density_sweep(PARABOLIC, seeds, 1.0, [0.1], 2000)
    for d in sweep:
        single = de.orbit_density(PARABOLIC, d.z, 1.0, 0.1, 2000)
        assert single.hits == d.hits
        assert single.running_min_ratio == pytest.approx(d.running_min_ratio, abs=1e-12)


def test_density_sweep_names_its_certified_step():
    seeds = np.exp(2j * np.pi * np.arange(1, 8) / 8.0)
    assert de.density_sweep(PARABOLIC, seeds, 1.0, [0.1], 5000).certified_step < 5000
    assert de.density_sweep(HYPERBOLIC, seeds, 1.0, [0.1], 5000).certified_step < 5000
    # a seed on the repelling point -1 is never absorbed
    assert de.density_sweep(HYPERBOLIC, np.append(seeds, -1.0), 1.0, [0.1],
                            5000).certified_step is None
    assert de.density_sweep(ZSQ, 0.5 * seeds, 0.0, [0.1], 50).certified_step is None


# ---------------------------------------------------------------------------
# exact absorption of linear-fractional orbits

def test_lft_absorption_applies_only_where_it_certifies():
    absorption = de.ergodicity._lft_absorption
    assert absorption(ZSQ, 0.0, 0.1) is None  # no closed form
    assert absorption(HYPERBOLIC, 1.0, 2.5) is None  # the ball holds both fixed points
    # |kappa| = 1 - 3.6e-15 in its closed form: elliptic up to rounding
    assert absorption(de.make_automorphism("elliptic", angle=1.0, fixed_point=0.9j),
                      0.9j, 0.05) is None
    assert absorption(PARABOLIC, 0.5, 0.1) is None  # the ball misses the fixed point
    assert not absorption(HYPERBOLIC, 1.0, 0.1)(np.array([-1.0 + 0j]))[0]


@pytest.mark.parametrize("s, z0", [
    (PARABOLIC, 1.0), (HYPERBOLIC, 1.0), (TANGENT, 1.0), (HALF, 0.0),
    (de.Blaschke(0.5, [0.4 - 0.3j]), None),
    (de.moebius_product(de.make_automorphism("elliptic", angle=1.0, fixed_point=0.3),
                        de.Moebius(0.95, 0.0, 0.0, 1.0)), None)])
def test_lft_absorbed_orbits_stay_in_the_ball(s, z0):
    # later points of absorbed orbits, in closed form, are in B(z0, r); the
    # last map spirals into its interior fixed point
    if z0 is None:
        z0 = de.classify(s).z0
    rng = np.random.default_rng(11)
    steps = np.unique(np.geomspace(1, 10**5, 300).astype(np.int64))
    form = de.symbols._closed_form(s)
    for r in (0.3, 0.05):
        w = z0 + 2.0 * r * np.sqrt(rng.uniform(size=1000)) * np.exp(2j * np.pi * rng.random(1000))
        w = w[np.abs(w) <= 1.0]
        absorbed = de.ergodicity._lft_absorption(s, complex(z0), r)(w)
        assert 50 <= absorbed.sum() < len(w)
        assert np.all(np.abs(form.iterates(w[absorbed], steps) - z0) < r)


# ---------------------------------------------------------------------------
# horodisc certificate of the density route

def _horodisc_reach(zeta, z0, w):
    """Largest distance from z0 to the closed horodisc at zeta through w."""
    R = abs(zeta - w) ** 2 / (1.0 - abs(w) ** 2)
    return abs(z0 - zeta / (1.0 + R)) + R / (1.0 + R)


def _absorbed(w, z0, delta, r):
    w = np.asarray(w, dtype=complex)
    return de.ergodicity._absorbed(w, np.abs(w - z0), delta, r)


@pytest.mark.parametrize("zeta", [1.0, -1.0, 1j])
def test_absorption_rejects_the_horodisc_far_point(zeta):
    # zeta (1 - R)/(1 + R) lies on the horocycle, 2R/(1 + R) from zeta
    for R in (0.5, 0.01, 1e-4, 1e-8):
        reach = 2.0 * R / (1.0 + R)
        far = zeta * (1.0 - R) / (1.0 + R)
        assert not _absorbed([far], zeta, 0.0, reach)[0], R
        inner = zeta * (1.0 - R / 4) / (1.0 + R / 4)
        assert _absorbed([inner], zeta, 0.0, reach)[0], R
        assert not _absorbed([inner], zeta, reach, reach)[0], R


def test_absorption_holds_with_a_planted_attractor_error():
    # z0 misses zeta = 1 by delta/2: an absorbed point's horodisc about the
    # true zeta must lie in B(z0, r)
    rng = np.random.default_rng(5)
    delta, r = 2e-3, 0.02
    z0 = cmath.exp(2j * math.asin(delta / 4))
    assert abs(abs(z0 - 1.0) - delta / 2) <= 1e-15
    offsets = rng.uniform(0.0, 0.05, 4000) * np.exp(1j * rng.uniform(-1.5, 1.5, 4000))
    radial = 1.0 - np.logspace(-9, -2, 200)  # absorbed if delta were dropped
    w = np.concatenate([z0 * (1.0 - offsets), z0 * radial])
    absorbed = _absorbed(w, z0, delta, r)
    assert absorbed.sum() >= 100
    for point in w[absorbed]:
        assert _horodisc_reach(1.0, z0, point) < r, point
    assert not _absorbed(z0 * (1.0 - 1e-6), z0, delta, r)


def test_density_certificate_matches_full_stepping():
    circle = de.ergodicity._boundary_seeds(1.0, 16)
    half = de.Polynomial([0.5, 0.0, 0.5])
    # (1 + z^2)/2 sends the circle's -1 + 1.2e-16i to 1 - 1.2e-16i, which it
    # fixes bit for bit, on the circle, where no horodisc certifies it:
    # every step is taken; seeds offset by half a step are certified
    for s, seeds, certified in ((de.Polynomial([0.19, 0.8, 0.01]), circle, True),
                                (de.Polynomial([0.25, 0.5, 0.25]), circle, True),
                                (half, circle * cmath.exp(1j * math.pi / 16), True),
                                (half, circle, False)):
        cls = de.classify(s)
        delta = de.ergodicity._attractor_error_bound(s, cls)
        for n in (1, 7, 300, 5000):
            full = de.ergodicity._visits(s, seeds, cls.z0, (0.5, 0.1, 0.02), n)
            fast = de.ergodicity._visits(s, seeds, cls.z0, (0.5, 0.1, 0.02), n, delta)
            assert np.array_equal(full[0], fast[0]) and np.array_equal(full[1], fast[1])
            assert fast[2] is None or fast[2] < n
        assert (fast[2] is not None) == certified, s


def test_lft_density_certificate_matches_every_row():
    assert check_lft_density_certificate(100) >= 100


def test_attractor_error_bound_checks_its_hypothesis():
    # parabolic at 1: phi''(1) = 1.4, and |phi'''| <= 1.2 on the closed disc
    cubic = de.Polynomial([0.5, 0.2, 0.1, 0.2])
    cls = de.classify(cubic)
    assert isinstance(cls, de.ParabolicDW)
    assert 0.0 < de.ergodicity._attractor_error_bound(cubic, cls) < 1e-7
    # taken at 0.05 from the fixed point, the derived delta is still next to
    # it; at 0.5 it reaches past where the cubic term is small
    near = de.ergodicity._attractor_error_bound(cubic, de.ParabolicDW(cmath.exp(0.05j), 1.0))
    assert 0.05 <= near < 0.1
    assert de.ergodicity._attractor_error_bound(cubic, de.ParabolicDW(cmath.exp(0.5j), 1.0)) is None
    # no coefficient bound for a Blaschke product
    blaschke = de.Blaschke(0.0, [0.5, -0.5])
    assert de.ergodicity._attractor_error_bound(blaschke, de.HyperbolicDW(1.0, 0.5)) is None


# ---------------------------------------------------------------------------
# Weyl statistics

def test_weyl_aperiodic_rotation_equidistributes():
    orbit = de.iterate(ROT_GOLDEN, 1.0, 10**4)
    report = de.weyl_test(orbit, 5)
    lam = cmath.exp(2j * math.pi * GOLDEN)
    for j, value in enumerate(report.per_j, start=1):
        assert value <= 2.0 / (10**4 * abs(1.0 - lam ** j)) + 1e-12


def test_weyl_involution_second_moment_sticks():
    orbit = de.iterate(MINUS, 1.0, 1000)
    report = de.weyl_test(orbit, 3)
    assert report.per_j[1] == pytest.approx(1.0, abs=1e-12)


def test_weyl_fixed_boundary_point():
    orbit = de.iterate(ZSQ, 1.0, 100)
    report = de.weyl_test(orbit, 2)
    assert report.per_j[0] == pytest.approx(1.0, abs=1e-12)


def test_weyl_requires_boundary_orbit():
    orbit = de.iterate(HALF, 1.0, 50)
    with pytest.raises(ValueError):
        de.weyl_test(orbit, 2)
    assert max(abs(np.mean(orbit.points ** j)) for j in (1, 2)) < 0.02


# ---------------------------------------------------------------------------
# witness gap

def test_gap_witness_tangent_small_n():
    w = de.boundary_gap_witness(TANGENT, 1.0, 3)
    assert w.r == pytest.approx(1.0 / 16.0, abs=1e-15)  # orbit 0.5, 0.75, 0.875
    assert w.gap >= 0.5 - 1e-9


def test_gap_witness_all_boundary_symbols():
    for s in (TANGENT, PARABOLIC, HYPERBOLIC):
        for n in (3, 10, 100):
            w = de.boundary_gap_witness(s, 1.0, n)
            assert w.gap >= 0.5 - 1e-9, (s, n, w)
            assert w.rho < 1.0 or w.r < 1e-20  # rho rounds to 1.0 only when r underflows


def _reference_witness(s, z0, n, k):
    """r and |z0^k - (1/n) sum g(phi^m(0))^k| for g = (z + z0)/2, with the
    orbit at 60 + 3n digits in mpmath: the former implementation of
    boundary_gap_witness, with k given."""
    with mp.workdps(60 + 3 * n):
        z0m = mp.mpc(z0)
        w = mp.mpc(0)
        orbit_pts = []
        for _ in range(n):
            w = s(w)
            orbit_pts.append(w)
        dmin = min([abs(p - z0m) for p in orbit_pts] + [abs(z0m)])
        total = mp.mpc(0)
        for p in orbit_pts:
            g = (p + z0m) / 2
            mag = abs(g)
            if mag == 0:
                continue
            log_mag = k * mp.log(mag)
            if log_mag < -745 * mp.log(10):
                continue
            total += mp.exp(log_mag + 1j * k * mp.arg(g))
        z0k = mp.exp(1j * mp.fmod(mp.arg(z0m) * k, 2 * mp.pi))
        return float(dmin / 2), float(abs(z0k - total / n))


@pytest.mark.parametrize("s", [
    de.gallery_symbol("hyperbolic"), de.gallery_symbol("parab"), de.gallery_symbol("tangent"),
    de.Blaschke(0, [-0.5, -0.5]),      # Denjoy-Wolff point 1, phi'(1) = 2/3
    de.Taylor([0.25, 0.625, 0.125]),   # Denjoy-Wolff point 1, phi'(1) = 0.875
], ids=["hyperbolic", "parab", "tangent", "blaschke", "taylor"])
def test_gap_witness_matches_high_precision_reference(s):
    for n in (3, 10, 100):
        w = de.boundary_gap_witness(s, 1.0, n)
        r, gap = _reference_witness(s, 1.0, n, 2**w.k_log2)
        assert w.r == pytest.approx(r, rel=1e-12, abs=0.0), (n, w, r)
        assert 0.5 <= w.gap <= gap + 1e-12, (n, w, gap)


def test_gap_witness_snaps_a_fixed_point_missed_by_rounding():
    # the coefficients sum to 1 + 1.4e-17: the fixed point near 1 lies just
    # outside the disc, and the orbit of 0 approaches it
    s = de.Polynomial([0.38709096345752936, 0.4978626669098771, 0.11504636963259353])
    for n in (200, 300):
        w = de.boundary_gap_witness(s, 1.0, n)
        assert math.isfinite(w.gap) and 0.5 <= w.gap <= 1.0, (n, w)


def test_gap_witness_raises_when_the_orbit_leaves_the_disc():
    # phi(1) = 1 + 1e-10 passes the 1e-9 self-map check, but its fixed point
    # 1 + 1e-9 attracts the orbit of 0 out of the closed disc
    s = de.Polynomial([0.3 + 1e-10, 0.5, 0.2])
    with pytest.raises(ArithmeticError, match="leaves the closed disc"):
        de.boundary_gap_witness(s, 1.0, 300)


def test_gap_witness_prints_at_ten_thousand_steps():
    for name in de.BOUNDARY_DW_NAMES:
        w = de.boundary_gap_witness(de.gallery_symbol(name), 1.0, 10**4)
        assert math.isfinite(w.gap) and w.gap >= 0.5, (name, w)
        assert f"k_log2={w.k_log2}" in repr(w)


def test_symbols_evaluate_mpmath_values():
    # boundary_gap_witness evaluates phi(z0) with each symbol's own
    # evaluator on mpmath values; at 60 digits it must agree with the
    # double evaluation
    symbols = (TANGENT, de.Blaschke(0.7, [0.3 + 0.2j, -0.5j]),
               de.Polynomial([0.1, 0.5j, 0.3]), de.Taylor([0.2, 0.3, -0.1j, 0.25]))
    with mp.workdps(60):
        for s in symbols:
            for z in (0.3 + 0.4j, -0.8j, 1.0, -0.6 + 0.8j):
                value = s(mp.mpc(z))
                assert isinstance(value, mp.mpc), type(value).__name__
                assert abs(complex(value) - complex(s(z))) <= 1e-15


def test_half_point_witness_saturates_at_huge_powers():
    w = de.HalfPointWitness(1.0, 2**3173)
    assert w(0.5) == 0.0 and w(1.0) == 1.0
    values = w(np.array([0.5, 1.0, -1.0, 0.3 + 0.2j, 1j]))
    assert np.array_equal(values, [0.0, 1.0, 0.0, 0.0, 0.0])
    # powers that are exactly 1 or -1 at the witness's own peak
    assert de.HalfPointWitness(1j, 2**3173)(1j) == 1
    assert de.HalfPointWitness(-1.0, 2**3173)(-1.0) == 1
    assert de.HalfPointWitness(-1.0, 2**3173 + 1)(-1.0) == -1
    assert de.HalfPointWitness(1j, 2**3173 + 1)(np.array([1j]))[0] == 1j
    # next to z0, where |g| rounds to 1, against the phase k arg(g) reduced
    # mod 2 pi at 4,000 bits
    near = np.array([complex(1.0, 1e-300), complex(1.0, 2.0**-40)])
    with mp.workprec(4000):
        turns = [mp.fmod(mp.mpf(2**3173) * mp.atan2(z.imag / 2, (1.0 + z.real) / 2), 2 * mp.pi)
                 for z in near]
        exact = [complex(mp.cos(t), mp.sin(t)) for t in turns]
    assert np.max(np.abs(w(near) - exact)) <= 1e-15


def test_half_point_witness_agrees_with_the_power():
    rng = np.random.default_rng(11)
    inside = np.sqrt(rng.uniform(0, 1, 40)) * np.exp(1j * rng.uniform(0, 2 * np.pi, 40))
    circle = np.exp(1j * rng.uniform(0, 2 * np.pi, 40))
    for z0 in (1.0, 1j, cmath.exp(2j)):
        z = np.concatenate([inside, circle, [z0]])
        for k in (1, 2, 7, 100, 101, 2**10, 2**20, 2**40):
            w = de.HalfPointWitness(z0, k)
            assert np.max(np.abs(w(z) - ((z + w.z0) / 2.0) ** k)) <= 1e-12
            for p in z[::9]:
                assert abs(w(complex(p)) - ((complex(p) + w.z0) / 2.0) ** k) <= 1e-12


def test_half_point_witness_above_two_to_the_53():
    # g = 1 - 2**-53 and k = 2**55 + 1: (1 - 2**-53)**k against 50 digits
    k = 2**55 + 1
    with mp.workdps(50):
        exact = float(mp.power(1 - mp.mpf(2) ** -53, k))
    value = de.HalfPointWitness(1.0, k)(1.0 - 2.0**-52)
    assert abs(value - exact) <= 1e-12 * exact


def test_gap_witness_rejects_interior_target():
    with pytest.raises(ValueError):
        de.boundary_gap_witness(TANGENT, 0.5, 3)


# ---------------------------------------------------------------------------
# verdicts

def _v(s, space, **kw):
    return de.verdict(s, space, **kw)


def test_verdict_needs_a_positive_density_budget():
    s = de.Polynomial([0.19, 0.8, 0.01])
    for n in (0, -5):
        with pytest.raises(ValueError, match="density_n must be positive"):
            de.verdict(s, "A", density_n=n)
    assert _v(s, "A", density_n=1).mean_ergodic in ("yes", "no", "unknown")


def test_verdict_interior_contraction():
    v = _v(HALF, "Hinf")
    assert (v.mean_ergodic, v.uniformly_mean_ergodic) == ("yes", "yes")
    assert v.theorem_tag == "Thm 3.2"
    va = _v(HALF, "A")
    assert (va.mean_ergodic, va.uniformly_mean_ergodic) == ("yes", "yes")


def test_verdict_square_boundary_obstruction():
    v = _v(ZSQ, "A")
    assert (v.mean_ergodic, v.uniformly_mean_ergodic) == ("no", "no")
    assert "Thm 3.3" in v.theorem_tag
    vh = _v(ZSQ, "Hinf")
    assert (vh.mean_ergodic, vh.uniformly_mean_ergodic) == ("no", "no")


def test_verdict_parabolic_vs_hyperbolic():
    vp = _v(PARABOLIC, "A")
    assert (vp.mean_ergodic, vp.uniformly_mean_ergodic) == ("yes", "no")
    assert "Prop 3.9" in vp.theorem_tag and "Thm 3.5" in vp.theorem_tag
    vh = _v(HYPERBOLIC, "A")
    assert (vh.mean_ergodic, vh.uniformly_mean_ergodic) == ("no", "no")
    vt = _v(TANGENT, "A")
    assert (vt.mean_ergodic, vt.uniformly_mean_ergodic) == ("yes", "no")


def test_verdict_rotations():
    rot4 = de.Moebius(1j, 0, 0, 1)
    v = _v(rot4, "A")
    assert (v.mean_ergodic, v.uniformly_mean_ergodic) == ("yes", "yes")
    assert v.theorem_tag == "Thm 2.2(i)"
    va = _v(ROT_GOLDEN, "A")
    assert (va.mean_ergodic, va.uniformly_mean_ergodic) == ("yes", "no")
    vh = _v(ROT_GOLDEN, "Hinf")
    assert (vh.mean_ergodic, vh.uniformly_mean_ergodic) == ("no", "no")
    assert va.theorem_tag == vh.theorem_tag == "Thm 2.2(ii)"


def test_verdict_identity_everywhere():
    from disc_ergodics.ergodicity import SPACES

    ident = de.Moebius(1, 0, 0, 1)
    for space in SPACES:
        v = _v(ident, space)
        assert (v.mean_ergodic, v.uniformly_mean_ergodic) == ("yes", "yes")


def test_verdict_weighted_rotation():
    seq = de.lacunary_exponents(theta="golden", R=2.0, K=12)
    w = de.make_weight_v_alpha(0.5, 0.5, seq)
    v0 = _v(ROT_GOLDEN, "Hv0", weight=w)
    assert (v0.mean_ergodic, v0.uniformly_mean_ergodic) == ("yes", "no")
    vinf = _v(ROT_GOLDEN, "Hv", weight=w)
    assert (vinf.mean_ergodic, vinf.uniformly_mean_ergodic) == ("no", "no")
    # without the adapted weight the uniform side stays open
    v_open = _v(ROT_GOLDEN, "Hv0")
    assert v_open.mean_ergodic == "yes"
    assert v_open.uniformly_mean_ergodic == "unknown"
    # periodic rotations are uniformly mean ergodic for every typical weight
    v_per = _v(de.Moebius(1j, 0, 0, 1), "Hv")
    assert (v_per.mean_ergodic, v_per.uniformly_mean_ergodic) == ("yes", "yes")


def test_verdict_small_tangent_image_circle():
    # phi(z) = 1e-8 z + 1 - 1e-8 sends the circle to a circle of radius 1e-8
    # tangent at 1; the closed-form image circle decides it without the
    # degenerate three-point fit
    v = de.verdict(de.Moebius(1e-8, 1 - 1e-8, 0, 1), "A")
    assert (v.mean_ergodic, v.uniformly_mean_ergodic) == ("yes", "no")
    assert v.theorem_tag == "Prop 3.9 + Thm 3.5"
    evidence = dict(v.evidence)
    assert evidence["image_is_unit_circle"] is False
    assert evidence["tangency_gap"] <= 1e-15


def test_verdict_conjugated_hyperbolic_near_the_circle():
    # sigma_p h sigma_p with p = 0.999i: |phi| is within 4.4e-16 of 1 on
    # 4096 circle points, but the image circle's |center| + |radius - 1|
    # reads 2.8e-9 and made it a non-automorphism, mean ergodic
    p = 0.999j
    sigma = de.Moebius(-1, p, -p.conjugate(), 1)
    h = de.make_automorphism("hyperbolic", multiplier=0.01)
    v = de.verdict(de.moebius_product(sigma, de.moebius_product(h, sigma)), "A")
    assert (v.mean_ergodic, v.uniformly_mean_ergodic) == ("no", "no")
    assert v.theorem_tag == "Prop 3.9 + Thm 3.5"
    assert dict(v.evidence)["image_is_unit_circle"] is True


def test_verdict_generic_boundary_routes():
    # nonlinear global contraction toward 1: density evidence says yes
    s = de.Polynomial([0.19, 0.8, 0.01])
    v = _v(s, "A")
    assert v.mean_ergodic == "yes" and v.uniformly_mean_ergodic == "no"
    assert "Thm 3.6(ii)" in v.theorem_tag
    # degree-two Blaschke with boundary attractor: exact dichotomy says no
    b = de.Blaschke(0.0, [-0.6, -0.6])
    vb = _v(b, "A", density_n=10**4)
    assert (vb.mean_ergodic, vb.uniformly_mean_ergodic) == ("no", "no")
    assert "Prop 3.10" in vb.theorem_tag


def test_verdict_interior_certificate():
    # |phi| <= 1/2 on the closed disc: decided without sampling
    evidence = dict(_v(HALF, "A").evidence)
    assert evidence["image_radius_bound"] == 0.5
    assert "sup_distance_last" not in evidence
    # sum |c_k| = 1.1 although sup |phi| is about 0.78: the sweep decides
    v = _v(de.Polynomial([0.3, 0.5, -0.3]), "A")
    assert (v.mean_ergodic, v.uniformly_mean_ergodic) == ("yes", "yes")
    evidence = dict(v.evidence)
    assert "sup_distance_last" in evidence and "image_radius_bound" not in evidence


def _count_searches(monkeypatch) -> list:
    searches = []
    search = de.dynamics.boundary_periodic_points

    def counting(s, max_period):
        searches.append(max_period)
        return search(s, max_period)

    monkeypatch.setattr(de.dynamics, "boundary_periodic_points", counting)
    return searches


@pytest.mark.parametrize("s, period", [
    (de.Polynomial([0, -0.5, 0, 0.5]), 2),  # no fixed point on the circle; the 2-cycle +-i
    # phi(z) - z of degree one above the cap
    (de.Polynomial([0, 0.5] + [0] * (de.dynamics.FIXED_POINT_DEGREE_CAP - 1) + [0.5]), 1),
    (de.Moebius(1, 0, -1, 2), 1),  # z/(2 - z) fixes 1; Moebius maps are not read
], ids=["two_cycle", "above_degree_cap", "moebius"])
def test_verdict_falls_back_to_the_period_search(s, period, monkeypatch):
    searches = _count_searches(monkeypatch)
    for space in ("A", "Hinf"):
        v = _v(s, space)
        assert (v.mean_ergodic, v.uniformly_mean_ergodic) == ("no", "no")
        assert dict(v.evidence)["boundary_periodic_period"] == period
    assert searches == [de.ergodicity.MAX_PERIOD] * 2


def test_verdict_reads_the_fixed_point_before_searching(monkeypatch):
    searches = _count_searches(monkeypatch)
    evidence = dict(_v(ZSQ, "A").evidence)
    assert evidence["boundary_periodic_point"] == 1.0
    assert evidence["boundary_periodic_period"] == 1 and searches == []


def test_planted_cycles_reach_the_search_as_before(monkeypatch):
    # (e^{2 pi i/k} z + z^{k+1})/2, conjugated by a rotation, fixes no point of
    # the circle for k >= 2, so its verdict is the search's, as without the
    # fixed-point equation; yes/yes for k >= 4 is the open wrong answer of a
    # search that stops at MAX_PERIOD = 3
    rng = np.random.default_rng(14)
    symbols = []
    for k in range(2, 9):
        lam = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        coeffs = [0.0, 0.5 * cmath.exp(2j * math.pi / k)] + [0.0] * (k - 1) + [0.5]
        symbols.append(de.Polynomial([c * lam ** (j - 1) for j, c in enumerate(coeffs)]))
    assert all(de.dynamics._boundary_fixed_points(s) == [] for s in symbols)
    reports = [_v(s, space).to_dict() for s in symbols for space in ("A", "Hinf")]
    monkeypatch.setattr(de.dynamics, "_boundary_fixed_points", lambda s: [])
    assert reports == [_v(s, space).to_dict() for s in symbols for space in ("A", "Hinf")]


def test_verdict_density_route_names_its_certificate():
    for s, certified in ((de.Polynomial([0.19, 0.8, 0.01]), True),
                         (de.Polynomial([0.5, 0.0, 0.5]), False)):
        cls = de.classify(s)
        evidence = dict(_v(s, "A", density_n=3000, cls=cls).evidence)
        seeds = de.ergodicity._boundary_seeds(cls.z0, de.ergodicity.DENSITY_SEEDS)
        hits, ratios, _ = de.ergodicity._visits(s, seeds, cls.z0, de.ergodicity.DENSITY_RADII, 3000)
        assert evidence["density_min_estimate"] == float(hits.min()) / 3000
        assert evidence["density_min_running_ratio"] == float(ratios.min())
        assert 0.0 < evidence["attractor_error_bound"] < 1e-12
        step = evidence["density_certified_step"]
        assert (step is not None and step < 3000) if certified else step is None


def test_certified_density_run_answers_yes():
    # ((1 + z)/2)^2: certified at step 196, the estimate at n = 10^5 is
    # 0.99806 < DENSITY_YES, but every orbit stays in every ball from then on
    v = _v(de.Polynomial([0.25, 0.5, 0.25]), "A")
    evidence = dict(v.evidence)
    assert evidence["density_certified_step"] == 196
    assert evidence["density_min_estimate"] < de.ergodicity.DENSITY_YES
    assert (v.mean_ergodic, v.uniformly_mean_ergodic) == ("yes", "no")


def test_verdict_unknown_is_allowed_and_flagged():
    v = _v(ZSQ, "Hv")
    assert v.mean_ergodic == "unknown"
    assert any(name == "note" for name, _ in v.evidence)


def test_verdict_serialization_round_trip():
    import json

    v = _v(PARABOLIC, "A")
    doc = json.loads(json.dumps(v.to_dict()))
    assert doc["mean_ergodic"] == "yes"
    assert doc["space"] == "A"
    assert isinstance(doc["evidence"], list)


# ---------------------------------------------------------------------------
# invariants

def test_constants_are_fixed():
    for s in (HALF, PARABOLIC, ZSQ, ROT_GOLDEN):
        trace = de.cesaro_apply(s, de.Monomial(0), 0.3, 50)
        assert np.all(trace.partial_means == 1.0)


def test_power_boundedness_random_cases():
    assert check_cesaro_power_boundedness(100) >= 100


def test_cesaro_dw_consistency_tail():
    # beyond N = 1e3 the deviation decays up to a 10/N fluctuation allowance
    for s, z0 in ((HYPERBOLIC, 1.0), (TANGENT, 1.0)):
        trace = de.cesaro_apply(s, de.Monomial(1), 0.5, 5000)
        devs = np.abs(trace.partial_means - z0)
        n = np.arange(1, 5001)
        tail = slice(1000, 5000)
        assert np.all(np.diff(devs[tail]) <= (10.0 / n[tail][:-1]))


def test_verdict_conjugation_invariance():
    rng = np.random.default_rng(23)
    for base in (PARABOLIC, HYPERBOLIC, TANGENT, HALF):
        psi = random_automorphism(rng)
        conj = de.moebius_product(de.moebius_product(psi, base), de.moebius_inverse(psi))
        for space in ("A", "Hinf"):
            v1, v2 = _v(base, space), _v(conj, space)
            assert v1.mean_ergodic == v2.mean_ergodic
            assert v1.uniformly_mean_ergodic == v2.uniformly_mean_ergodic
            assert v1.theorem_tag == v2.theorem_tag


def test_density_weyl_consistency():
    # an orbit whose power means vanish and which converges to the attractor
    # must spend almost all its time near that attractor
    orbit = de.iterate(HALF, 1.0, 10**5)
    assert max(abs(np.mean(orbit.points ** j)) for j in range(1, 6)) <= 0.01
    d = de.orbit_density(HALF, 1.0, 0.0, 0.1, 10**5)
    assert d.estimate >= 0.95
