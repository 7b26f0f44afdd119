"""Shared randomized invariant suites.

Each check runs a configurable number of cases from a seeded generator and
returns the number of cases exercised; failures raise AssertionError.  Both
the per-module tests and the acceptance harness drive these.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

import disc_ergodics as de
from disc_ergodics.dynamics import FIXED_POINT_RESIDUAL_TOL

SEED = 20240613


def _random_interior(rng, radius=0.95):
    r = radius * math.sqrt(rng.uniform(0.0, 1.0))
    t = rng.uniform(0.0, 2.0 * math.pi)
    return cmath.rect(r, t)


def random_symbol(rng) -> de.Symbol:
    """Random validated self-map drawn from all four representations."""
    kind = rng.integers(0, 4)
    if kind == 0:
        # automorphism composed with a contraction: always a self-map
        auto = de.make_automorphism("elliptic", angle=rng.uniform(0, 2 * math.pi),
                                    fixed_point=_random_interior(rng, 0.6))
        scale = de.Moebius(rng.uniform(0.2, 0.95), 0.0, 0.0, 1.0)
        return de.moebius_product(auto, scale)
    if kind == 1:
        degree = int(rng.integers(1, 4))
        zeros = [_random_interior(rng, 0.7) for _ in range(degree)]
        return de.Blaschke(rng.uniform(0, 2 * math.pi), zeros)
    coeffs = np.array([_random_interior(rng, 1.0) for _ in range(int(rng.integers(2, 6)))])
    coeffs *= rng.uniform(0.3, 0.95) / max(1e-9, np.sum(np.abs(coeffs)))
    if kind == 2:
        return de.Polynomial(list(coeffs))
    return de.Taylor(list(coeffs))


def random_automorphism(rng) -> de.Moebius:
    pick = rng.integers(0, 3)
    if pick == 0:
        return de.make_automorphism("elliptic", angle=rng.uniform(0.1, 6.0),
                                    fixed_point=_random_interior(rng, 0.7))
    if pick == 1:
        return de.make_automorphism("hyperbolic", multiplier=rng.uniform(0.1, 0.9))
    return de.make_automorphism("parabolic", translation=rng.uniform(0.3, 2.0))


def check_derivative_finite_difference(cases: int = 100) -> int:
    """Analytic derivative against the central difference with h = 1e-6."""
    rng = np.random.default_rng(SEED)
    h = 1e-6
    done = 0
    while done < cases:
        s = random_symbol(rng)
        for _ in range(4):
            z = _random_interior(rng, 0.9)
            exact = complex(s.derivative(z))
            approx = (complex(s(z + h)) - complex(s(z - h))) / (2.0 * h)
            assert abs(exact - approx) <= 1e-5 * (1.0 + abs(exact)), (s, z)
            done += 1
    return done


def check_schwarz_monotonicity(cases: int = 100) -> int:
    """Orbit moduli decrease when the attracting fixed point is the origin."""
    rng = np.random.default_rng(SEED + 1)
    done = 0
    while done < cases:
        mult = rng.uniform(0.1, 0.9)
        weight2 = rng.uniform(0.0, 1.0 - mult)
        s = de.Polynomial([0.0, mult, weight2])
        cls = de.classify(s)
        assert isinstance(cls, de.InteriorDW) and abs(cls.z0) < 1e-9
        z = _random_interior(rng, 0.99)
        orbit = de.iterate(s, z, 100)
        mods = np.abs(np.concatenate(([z], orbit.points)))
        assert np.all(np.diff(mods) <= 1e-12), s
        done += 1
    return done


def check_classify_conjugation_invariance(cases: int = 100) -> int:
    """Conjugation by an automorphism preserves the class and multiplier."""
    rng = np.random.default_rng(SEED + 2)
    done = 0
    while done < cases:
        base = random_automorphism(rng)
        if rng.uniform() < 0.5:
            base = de.moebius_product(base, de.Moebius(rng.uniform(0.3, 0.9), 0, 0, 1))
        psi = random_automorphism(rng)
        conj = de.moebius_product(de.moebius_product(psi, base), de.moebius_inverse(psi))
        c1, c2 = de.classify(base), de.classify(conj)
        assert c1.kind == c2.kind, (base, psi, c1, c2)
        if isinstance(c1, de.EllipticAutomorphism):
            assert abs(c1.multiplier - c2.multiplier) <= 1e-6
        elif isinstance(c1, de.InteriorDW):
            assert abs(c1.multiplier_modulus - c2.multiplier_modulus) <= 1e-6
        else:
            assert abs(c1.angular_derivative - c2.angular_derivative) <= 1e-6
        done += 1
    return done


def check_cesaro_power_boundedness(cases: int = 100) -> int:
    """No running mean of f along an orbit exceeds the sup of |f|."""
    rng = np.random.default_rng(SEED + 3)
    done = 0
    while done < cases:
        s = random_symbol(rng)
        j = int(rng.integers(0, 4))
        if j == 0:
            f = de.Monomial(int(rng.integers(0, 5)))
        else:
            f = de.TaylorFn([_random_interior(rng, 1.0) for _ in range(int(rng.integers(1, 5)))])
        z = _random_interior(rng, 1.0)
        trace = de.cesaro_apply(s, f, z, 200)
        sup = f.boundary_sup()
        assert float(np.max(np.abs(trace.partial_means))) <= sup + 1e-9
        done += 1
    return done


def check_weight_monotonicity(cases: int = 100) -> int:
    """v_alpha is 1 up to r0, continuous, non-increasing, and decays."""
    rng = np.random.default_rng(SEED + 4)
    seq = de.lacunary_exponents(theta="golden", R=2.0, K=28)
    done = 0
    while done < cases:
        alpha = rng.uniform(0.3, 0.9)
        # the tenfold decay at 1 - 1e-6 needs the plateau to end early:
        # its ratio is (S(r0)/S(1-1e-6))^alpha, small only for small r0
        r0 = rng.uniform(0.2, 0.45)
        k = int(rng.integers(20, 29))
        w = de.make_weight_v_alpha(alpha, r0, seq, k)
        radii = np.linspace(0.0, 1.0 - 1e-8, 240)
        values = np.array([w(float(r)) for r in radii])
        assert np.all(np.diff(values) <= 1e-12)
        assert abs(w(r0) - 1.0) <= 1e-12
        assert abs(w(r0 * 0.999) - w(min(r0 * 1.001, 1 - 1e-8))) <= 1e-2
        assert w(1.0 - 1e-6) < 0.1 * w(r0)
        done += 1
    return done


def random_circle_symbol(rng) -> de.Symbol:
    """Blaschke product or polynomial; most reach the unit circle.

    Polynomials are either a rotated mixture of monomials (c_0 = 0 or not,
    c_k >= 0 before rotation, sum c_k = 1), which fixes a boundary point, or
    a ``random_symbol`` polynomial with absolute coefficient sum below one.
    """
    pick = rng.integers(0, 3)
    if pick == 0:
        zeros = [_random_interior(rng, 0.7) for _ in range(int(rng.integers(1, 4)))]
        return de.Blaschke(rng.uniform(0, 2 * math.pi), zeros)
    if pick == 1:
        weights = rng.uniform(0.0, 1.0, int(rng.integers(3, 5)))
        if rng.uniform() < 0.5:
            weights[0] = 0.0
        weights /= weights.sum()
        lam = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        return de.Polynomial([c * lam ** (k - 1) for k, c in enumerate(weights)])
    coeffs = np.array([_random_interior(rng, 1.0) for _ in range(int(rng.integers(2, 6)))])
    coeffs *= rng.uniform(0.3, 0.95) / max(1e-9, np.sum(np.abs(coeffs)))
    return de.Polynomial(list(coeffs))


def check_boundary_periodic_points(cases: int = 100) -> int:
    """Reported boundary periodic points are unimodular, pass the residual
    test, carry their minimal period, and are at least 1e-8 apart."""
    rng = np.random.default_rng(SEED + 5)
    done = 0
    while done < cases:
        s = random_circle_symbol(rng)
        max_period = int(rng.integers(1, 4))
        points = de.boundary_periodic_points(s, max_period)
        for i, bp in enumerate(points):
            assert abs(abs(bp.point) - 1.0) <= 1e-12, (s, bp)
            assert bp.residual <= 1e-10 and 1 <= bp.period <= max_period, (s, bp)
            orbit = [bp.point]
            for _ in range(bp.period):
                orbit.append(complex(s(orbit[-1])))
            assert abs(orbit[-1] - bp.point) <= FIXED_POINT_RESIDUAL_TOL, (s, bp)
            assert all(abs(w - bp.point) > FIXED_POINT_RESIDUAL_TOL
                       for w in orbit[1:-1]), (s, bp)
            assert all(abs(bp.point - other.point) >= 1e-8
                       for other in points[i + 1:]), (s, bp)
        done += 1
    return done


ALL_CHECKS = {
    "derivative_vs_finite_difference": check_derivative_finite_difference,
    "schwarz_monotonicity": check_schwarz_monotonicity,
    "classify_conjugation_invariance": check_classify_conjugation_invariance,
    "cesaro_power_boundedness": check_cesaro_power_boundedness,
    "weight_monotonicity": check_weight_monotonicity,
    "boundary_periodic_points": check_boundary_periodic_points,
}
