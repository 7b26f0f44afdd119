"""Shared randomized invariant suites.

Each check runs a configurable number of cases from a seeded generator and
returns the number of cases exercised; failures raise AssertionError.  Both
the per-module tests and the acceptance harness drive these.
"""

from __future__ import annotations

import cmath
import math

import mpmath as mp
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
        return random_moebius_contraction(rng)
    if kind == 1:
        degree = int(rng.integers(1, 4))
        zeros = [_random_interior(rng, 0.7) for _ in range(degree)]
        return de.Blaschke(rng.uniform(0, 2 * math.pi), zeros)
    coeffs = np.array([_random_interior(rng, 1.0) for _ in range(int(rng.integers(2, 6)))])
    coeffs *= rng.uniform(0.3, 0.95) / max(1e-9, np.sum(np.abs(coeffs)))
    if kind == 2:
        return de.Polynomial(list(coeffs))
    return de.Taylor(list(coeffs))


def random_moebius_contraction(rng) -> de.Moebius:
    """An elliptic automorphism composed with a contraction: always a self-map."""
    auto = de.make_automorphism("elliptic", angle=rng.uniform(0, 2 * math.pi),
                                fixed_point=_random_interior(rng, 0.6))
    scale = de.Moebius(rng.uniform(0.2, 0.95), 0.0, 0.0, 1.0)
    return de.moebius_product(auto, scale)


def random_automorphism(rng) -> de.Moebius:
    pick = rng.integers(0, 3)
    if pick == 0:
        return de.make_automorphism("elliptic", angle=rng.uniform(0.1, 6.0),
                                    fixed_point=_random_interior(rng, 0.7))
    if pick == 1:
        return de.make_automorphism("hyperbolic", multiplier=rng.uniform(0.1, 0.9))
    return de.make_automorphism("parabolic", translation=rng.uniform(0.3, 2.0))


def conjugated_hyperbolic(rng) -> de.Moebius:
    """sigma_p h sigma_p: a hyperbolic automorphism h with multiplier
    10^U(-3, -0.05), conjugated by the involution sigma_p exchanging 0 and
    p, with 1 - |p| log-uniform in [1e-4, 1]."""
    p = (1.0 - 10.0 ** rng.uniform(-4.0, 0.0)) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
    sigma = de.Moebius(-1.0, p, -p.conjugate(), 1.0)
    h = de.make_automorphism("hyperbolic", multiplier=10.0 ** rng.uniform(-3.0, -0.05))
    return de.moebius_product(sigma, de.moebius_product(h, sigma))


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
        # the circle's sampled maximum is a lower bound on sup |f|, and
        # f.boundary_sup() an upper one; the smaller is the stricter test
        sup = min(f.boundary_sup(), float(np.max(np.abs(f(de.symbols.boundary_points(1024))))))
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


def random_interior_blaschke(rng) -> de.Blaschke:
    """Blaschke product of degree 2 or 3 with a zero at 0, which attracts;
    the circle carries repelling periodic points of every period."""
    zeros = [0j] + [_random_interior(rng, 0.9) for _ in range(int(rng.integers(1, 3)))]
    return de.Blaschke(rng.uniform(0, 2 * math.pi), zeros)


def boundary_touching_polynomial(rng) -> de.Polynomial:
    """sum c_k z^k with c_0 = 0, c_k >= 0 and sum c_k = 1, rotated: 0
    attracts, and the circle carries a repelling fixed point."""
    weights = rng.uniform(0.2, 1.0, int(rng.integers(2, 4)))
    u = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
    return de.Polynomial([0.0] + [c * u ** -k for k, c in enumerate(weights / weights.sum())])


def check_boundary_fixed_points(cases: int = 100) -> int:
    """The fixed points read from phi(z) = z are, as a set and to 1e-12, the
    period-1 points of the sampled search, on ``cases`` interior-attracting
    Blaschke products and as many ``random_circle_symbol`` maps."""
    rng = np.random.default_rng(SEED + 11)
    found = 0
    for make in (random_interior_blaschke, random_circle_symbol):
        for _ in range(cases):
            s = make(rng)
            read = de.dynamics._boundary_fixed_points(s)
            searched = de.boundary_periodic_points(s, 1)
            assert len(read) == len(searched), (s, read, searched)
            for a in read:
                assert a.period == 1 and a.residual <= 1e-10, (s, a)
                assert min(abs(a.point - b.point) for b in searched) <= 1e-12, (s, a)
            found += len(read)
    assert found >= cases, found
    return cases


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


def _rotated_parabolic(rng) -> de.Moebius:
    # the Cayley conjugate of w -> w + t, rotated to fix u = e^{i beta}
    t = rng.uniform(0.3, 3.0) * (1.0 if rng.uniform() < 0.5 else -1.0)
    u = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
    return de.Moebius(2j - t, t * u, -t * u.conjugate(), t + 2j)


def random_linear_fractional(rng) -> tuple[de.Symbol, tuple]:
    """A linear-fractional symbol and its coefficients (a, b, c, d) as a
    Moebius map, read off its own definition.

    Automorphisms, Moebius contractions, degree-one Blaschke products,
    affine polynomials, rotated parabolic automorphisms, and nearly
    parabolic maps parabolic o (1 - eps) z, eps log-uniform in
    [1e-10, 1e-4], whose two fixed points nearly coalesce.
    """
    pick = rng.integers(0, 6)
    if pick == 2:
        rot, a = rng.uniform(0, 2 * math.pi), _random_interior(rng, 0.9)
        e = cmath.exp(1j * rot)
        return de.Blaschke(rot, [a]), (e, -e * a, -a.conjugate(), 1.0)
    if pick == 3:
        a = rng.uniform(0.05, 0.95) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        b = (1.0 - abs(a)) * rng.uniform(0.3, 1.0) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        return de.Polynomial([b, a]), (a, b, 0.0, 1.0)
    if pick == 0:
        m = random_automorphism(rng)
    elif pick == 1:
        m = random_moebius_contraction(rng)
    elif pick == 4:
        m = _rotated_parabolic(rng)
    else:
        eps = 10.0 ** rng.uniform(-10.0, -4.0)
        m = de.moebius_product(_rotated_parabolic(rng), de.Moebius(1.0 - eps, 0.0, 0.0, 1.0))
    return m, (m.a, m.b, m.c, m.d)


def _exact_fixed_points(a, b, c, d) -> list[complex]:
    """Fixed points of (az + b)/(cz + d) at 50 digits, rounded to doubles."""
    with mp.workdps(50):
        a, b, c, d = (mp.mpc(v) for v in (a, b, c, d))
        if c == 0:
            return [complex(b / (d - a))]
        root = mp.sqrt((d - a) ** 2 + 4 * b * c)
        return [complex((a - d + root) / (2 * c)), complex((a - d - root) / (2 * c))]


def check_orbit_closed_form(cases: int = 100) -> int:
    """Closed-form orbits of linear-fractional symbols agree with stepping
    phi within 1e-12 + n 1e-15 at n = 1, 7, 10^3 and 2 10^4, and seeds that
    sit on a fixed point come back bit for bit.

    ``orbit_blocks`` runs the first 7 steps against the symbol's own
    evaluator; at n = 10^3 and 2 10^4 the closed form is taken directly and
    the reference steps the Moebius coefficients of all cases together, in
    one array.  A fixed point outside the closed disc is no seed of
    ``orbit_blocks``, which refuses it; the closed form still returns it.
    """
    rng = np.random.default_rng(SEED + 6)
    coeffs, seeds, closed = [], [], []
    for _ in range(cases):
        s, abcd = random_linear_fractional(rng)
        z = np.array([_random_interior(rng) for _ in range(6)]
                     + [cmath.exp(1j * rng.uniform(0, 2 * math.pi)) for _ in range(2)])
        w = z
        for m0, block in de.symbols.orbit_blocks(s, z, 7):
            for n, row in enumerate(block, start=m0 + 1):
                w = s(w)
                assert np.all(np.abs(row - w) <= 1e-12 + n * 1e-15), (s, n)
        fixed = np.array(_exact_fixed_points(*abcd))
        inside = np.abs(fixed) <= 1.0 + de.symbols.SELF_MAP_TOL
        for _, block in de.symbols.orbit_blocks(s, fixed[inside], 50):
            assert np.array_equal(block, np.broadcast_to(fixed[inside], block.shape)), (s, fixed)
        block = de.symbols._closed_form(s).iterates(fixed, np.arange(1, 51))
        assert np.array_equal(block, np.broadcast_to(fixed, block.shape)), (s, fixed)
        if not inside.all():
            try:
                next(de.symbols.orbit_blocks(s, fixed, 50))
            except de.SymbolError:
                pass
            else:
                raise AssertionError(f"{s}: seeded outside the disc at {fixed}")
        closed.append(de.symbols._closed_form(s).iterates(z, np.array([10**3, 2 * 10**4])))
        coeffs.append(np.broadcast_to(np.array(abcd, dtype=complex)[:, None], (4, len(z))))
        seeds.append(z)
    a, b, c, d = np.concatenate(coeffs, axis=1)
    w = np.concatenate(seeds)
    got = np.concatenate(closed, axis=1)
    for n in range(1, 2 * 10**4 + 1):
        w = (a * w + b) / (c * w + d)
        if n in (10**3, 2 * 10**4):
            assert np.all(np.abs(got[int(n > 10**3)] - w) <= 1e-12 + n * 1e-15), n
    return cases


def _boundary_attracting_polynomial(rng, parabolic: bool) -> de.Polynomial:
    # c_k >= 0 with sum c_k = 1 fixes 1, where the angular derivative is
    # sum k c_k: 1 when c_0 = sum_{k>=2} (k - 1) c_k, below 1 otherwise.
    # Rotated by u = e^{i beta}, c_k u^(1-k) fixes u.
    degree = int(rng.integers(2, 5))
    high = rng.uniform(0.0, 1.0, degree - 1)
    k = np.arange(2, degree + 1)
    if parabolic:
        high *= rng.uniform(0.1, 1.0) / np.sum(k * high)
        c0 = float(np.sum((k - 1) * high))
        c1 = 1.0 - c0 - float(np.sum(high))
    else:
        slope = rng.uniform(0.3, 0.95)
        high *= slope * rng.uniform(0.0, 0.6) / np.sum(k * high)
        c1 = slope - float(np.sum(k * high))
        c0 = 1.0 - c1 - float(np.sum(high))
    u = cmath.exp(1j * rng.uniform(0, 2 * math.pi)) if rng.uniform() < 0.5 else 1.0
    coeffs = [c0, c1] + [float(c) for c in high]
    return de.Polynomial([c * u ** (1 - j) for j, c in enumerate(coeffs)])


def _boundary_attracting_blaschke(rng, parabolic: bool) -> de.Blaschke:
    # A zero a with (1 - |a|^2)/|1 - a|^2 = b_j lies on the horocycle at 1
    # with centre b_j/(1 + b_j) and radius 1/(1 + b_j); with
    # e^{it} = prod (1 - conj a)/(1 - a) the product fixes 1, where its
    # angular derivative is sum b_j: 1, or below 1.
    degree = int(rng.integers(2, 4))
    shares = rng.uniform(0.2, 1.0, degree)
    shares *= (1.0 if parabolic else rng.uniform(0.3, 0.95)) / shares.sum()
    zeros = [b / (1 + b) + cmath.exp(1j * rng.uniform(0.5, 2 * math.pi - 0.5)) / (1 + b)
             for b in shares]
    rotation = sum(-2.0 * cmath.phase(1 - a) for a in zeros)
    return de.Blaschke(rotation, zeros)


def check_density_certificate(cases: int = 100) -> int:
    """Visit counts and running minima with the horodisc certificate equal
    those of full stepping, bit for bit.

    Symbols: boundary-attracting polynomials, hyperbolic and parabolic,
    some rotated, and Blaschke products of degree 2 and 3 with a boundary
    attracting point, plus (1 + z^2)/2.  Seeds on the circle and inside the
    disc.  delta is the verdict's for the polynomials; for a Blaschke
    product, which has no coefficient bound, it is set by hand.
    """
    rng = np.random.default_rng(SEED + 7)
    certified = 0
    for case in range(cases):
        pick = rng.integers(0, 4)
        if case == 0:
            s = de.Polynomial([0.5, 0.0, 0.5])
        elif pick < 2:
            s = _boundary_attracting_polynomial(rng, parabolic=pick == 1)
        else:
            s = _boundary_attracting_blaschke(rng, parabolic=pick == 3)
        cls = de.classify(s)
        assert isinstance(cls, (de.HyperbolicDW, de.ParabolicDW)), (s, cls)
        if isinstance(s, de.Blaschke):
            # the product fixes 1 up to the rounding of its zeros and
            # rotation; at a parabolic point that moves the fixed point, and
            # the classified z0, by up to about 3e-7 (300 products)
            delta = 1e-5
        else:
            delta = de.ergodicity._attractor_error_bound(s, cls)
            assert delta is not None, s
        count = int(rng.integers(1, 17))
        seeds = np.exp(2j * np.pi * (np.arange(count) + 0.5) / count) * cls.z0
        # a Blaschke product keeps the circle, where no orbit is certified
        inner = slice(None) if isinstance(s, de.Blaschke) else slice(None, None, 2)
        seeds[inner] *= rng.uniform(0.0, 1.0, seeds[inner].shape)
        radii = sorted(rng.choice([0.5, 0.2, 0.1, 0.05, 0.02], int(rng.integers(1, 4)),
                                  replace=False))
        n = int(10.0 ** rng.uniform(0.0, 3.5))
        full = de.ergodicity._visits(s, seeds, cls.z0, radii, n)
        fast = de.ergodicity._visits(s, seeds, cls.z0, radii, n, delta)
        assert full[2] is None, s
        assert np.array_equal(full[0], fast[0]), (s, seeds, radii, n, fast[2])
        assert np.array_equal(full[1], fast[1]), (s, seeds, radii, n, fast[2])
        certified += fast[2] is not None
    assert certified >= cases // 4, certified
    return cases


def reference_visits(s: de.Symbol, seeds, z0: complex, radii, n: int):
    """Hit counts and running minima of hits(m)/m over m >= n/2, shaped
    (len(radii), len(seeds)), from every row of ``orbit_blocks``."""
    radii = np.asarray(radii, dtype=float)[:, None, None]
    hits = np.zeros((len(radii), len(seeds)), dtype=np.int64)
    min_ratio = np.full(hits.shape, np.inf)
    for m0, block in de.symbols.orbit_blocks(s, seeds, n):
        m = np.arange(m0 + 1, m0 + len(block) + 1)
        counts = np.cumsum(np.abs(block - z0) < radii, axis=1) + hits[:, None, :]
        hits = counts[:, -1]
        late = m >= n // 2
        min_ratio = np.minimum(min_ratio, (counts[:, late] / m[late, None]).min(
            axis=1, initial=np.inf))
    return hits, min_ratio


def _random_lft_attractor(rng) -> tuple[de.Symbol, str]:
    """A linear-fractional symbol and its family: parabolic automorphisms
    fixing a quarter turn (kappa = 1 exactly) or a random point of the
    circle, hyperbolic automorphisms, some rotated, tangent maps, affine
    contractions, Moebius contractions (``random_moebius_contraction``),
    degree-one Blaschke products and elliptic automorphisms."""
    pick = rng.integers(0, 8)
    u = cmath.exp(1j * rng.uniform(0, 2 * math.pi)) if rng.uniform() < 0.5 else 1.0
    if pick == 0:
        t = rng.uniform(0.3, 3.0) * (1.0 if rng.uniform() < 0.5 else -1.0)
        u = 1j ** int(rng.integers(0, 4))
        return de.Moebius(2j - t, t * u, -t * u.conjugate(), t + 2j), "parabolic"
    if pick == 1:
        return _rotated_parabolic(rng), "rotated parabolic"
    if pick == 2:
        mu = rng.uniform(0.1, 0.9)
        return de.Moebius(1 + mu, (1 - mu) * u, (1 - mu) * u.conjugate(), 1 + mu), "hyperbolic"
    if pick == 3:
        t = rng.uniform(0.1, 0.9)
        return de.Moebius(1 - t, t * u, 0.0, 1.0), "tangent"
    if pick == 4:
        a = rng.uniform(0.05, 0.95) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        b = (1.0 - abs(a)) * rng.uniform(0.3, 1.0) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        return de.Polynomial([b, a]), "affine"
    if pick == 5:
        return de.Blaschke(rng.uniform(0, 2 * math.pi), [_random_interior(rng, 0.9)]), "blaschke"
    if pick == 6:
        return random_moebius_contraction(rng), "contraction"
    return de.make_automorphism("elliptic", angle=rng.uniform(0.1, 6.0),
                                fixed_point=_random_interior(rng, 0.9)), "elliptic"


def check_lft_density_certificate(cases: int = 100) -> int:
    """``density_sweep`` on linear-fractional symbols, which stops once the
    exact absorption test certifies every orbit, gives the hit counts and
    running minima of every row of ``orbit_blocks``, bit for bit.

    Seeds on the circle and inside the disc, one to three radii, n up to
    10^4 and z0 from ``classify``.  Orbits of a parabolic automorphism with
    kappa = 1 from circle seeds are certified by n >= 1000; a seed on the
    repelling fixed point, and an elliptic automorphism, never are.
    """
    rng = np.random.default_rng(SEED + 9)
    certified = 0
    for _ in range(cases):
        s, family = _random_lft_attractor(rng)
        cls = de.classify(s)
        elliptic = isinstance(cls, de.EllipticAutomorphism)
        z0 = cls.fixed_point if elliptic else cls.z0
        radii = sorted(rng.choice([0.5, 0.2, 0.1, 0.05, 0.02], int(rng.integers(1, 4)),
                                  replace=False))
        count = int(rng.integers(1, 13))
        toward = z0 / abs(z0) if abs(z0) > 0.5 else 1.0
        seeds = np.exp(2j * np.pi * (np.arange(count) + 0.5) / count) * toward
        circle = family == "parabolic" or (family != "elliptic" and rng.uniform() < 0.5)
        if not circle:
            # inside the disc, one seed within a quarter of the least radius of z0
            seeds[::2] *= rng.uniform(0.0, 1.0, seeds[::2].shape)
            seeds[0] = z0 - 0.25 * radii[0] * toward
        repelling = family == "hyperbolic" and rng.uniform() < 0.3
        if repelling:
            seeds[-1] = de.symbols._closed_form(s).q
        low = 3.0 if family == "parabolic" else 0.0
        n = int(10.0 ** rng.uniform(low, 4.0))
        sweep = de.density_sweep(s, seeds, z0, radii, n)
        hits, min_ratio = reference_visits(s, seeds, z0, radii, n)
        assert [d.hits for d in sweep] == hits.ravel().tolist(), (s, seeds, radii, n)
        assert [d.running_min_ratio for d in sweep] == min_ratio.ravel().tolist(), (s, seeds, n)
        step = sweep.certified_step
        assert step is None or 0 < step < n, (s, step)
        if family == "parabolic":
            assert step is not None, (s, seeds, radii, n)
        if repelling or elliptic:
            assert step is None, (s, seeds, radii, n)
        certified += step is not None
    assert certified >= cases // 3, certified
    return cases


class CountingSymbol(de.Symbol):
    """Wraps a symbol and counts its evaluations; the engine steps it."""

    def __init__(self, s: de.Symbol):
        self.s, self.calls = s, 0

    def __call__(self, z):
        self.calls += 1
        return self.s(z)


def stepped_orbit(s: de.Symbol, seeds, n: int) -> np.ndarray:
    """n rows of the plain step loop, one seed in Python complex arithmetic
    and several in one array, as ``orbit_blocks`` steps them."""
    seeds = np.asarray(seeds, dtype=complex).ravel()
    one = len(seeds) == 1
    w = complex(seeds[0]) if one else seeds
    rows = []
    with np.errstate(all="ignore"):
        for _ in range(n):
            w = complex(s(w)) if one else s(w)
            rows.append(w)
    return np.array(rows).reshape(n, len(seeds))


# Orbits of the 25-seed grid that repeat in doubles, from the benchmark's
# orbit_sweeps workload: rows of 0 and -0 alternate from step 971, and rows
# of +-5e-324 and 0 repeat with period 4 from step 1111.
GRID_25 = (np.array([0.1, 0.3, 0.5, 0.7, 0.9])[:, None]
           * np.exp(2j * np.pi * np.arange(5) / 5)[None, :]).ravel()
SIGNED_ZEROS = de.Blaschke(6.063071150875708, [0.0, 0.2742704144576519 + 0.37279115237706933j])
SUBNORMALS = de.Polynomial([0.0, -0.022056292374058584 + 0.5108417611523692j,
                            0.25765419349931257 + 0.12761170789248122j])


def stepped_cycle(s: de.Symbol, seeds, n: int) -> tuple[int, int] | None:
    """(onset, period) of the first repeat in n rows of the plain step
    loop: row onset + period is, bit for bit, row onset, the seeds being
    row 0.  None when no row repeats."""
    seeds = np.asarray(seeds, dtype=complex).ravel()
    first = {seeds.tobytes(): 0}
    for m, row in enumerate(stepped_orbit(s, seeds, n), 1):
        onset = first.setdefault(row.tobytes(), m)
        if onset != m:
            return onset, m - onset
    return None


def count_iterate_rows(monkeypatch) -> list:
    """Patches ``_ClosedForm.iterates`` to record the number of rows each
    call asks for; returns the record."""
    asked, iterates = [], de.symbols._ClosedForm.iterates

    def counting(form, seeds, m):
        asked.append(len(m))
        return iterates(form, seeds, m)

    monkeypatch.setattr(de.symbols._ClosedForm, "iterates", counting)
    return asked


def check_engine_matches_stepping(s: de.Symbol, seeds, n: int, want=None) -> int:
    """``orbit_blocks(s, seeds, n)`` gives the rows of the plain step loop
    (``want``, its first n rows taken) bit for bit, or, where that loop
    leaves the closed disc, raises SymbolError naming its first step
    outside.  Returns the number of evaluations of the symbol."""
    want = stepped_orbit(s, seeds, n) if want is None else want[:n]
    outside = ~(np.abs(want) <= 1.0 + de.symbols.SELF_MAP_TOL).all(axis=1)
    counting = CountingSymbol(s)
    try:
        got = np.concatenate([b for _, b in de.symbols.orbit_blocks(counting, seeds, n)])
    except de.SymbolError as exc:
        assert outside.any() and str(exc) == (
            f"orbit leaves the closed disc at step {1 + np.argmax(outside)}"), (s, n, exc)
        return counting.calls
    assert not outside.any(), (s, n)
    assert got.shape == want.shape and got.tobytes() == want.tobytes(), (s, seeds, n)
    return counting.calls


def check_orbit_early_exit(cases: int = 100) -> int:
    """Stepped orbits of random nonlinear symbols (``random_symbol`` draws
    that are not linear-fractional) pass ``check_engine_matches_stepping``,
    from one interior seed, up to 40 interior seeds or up to 16 seeds on the
    circle, for n log-uniform up to 3000; and orbits end early, with fewer
    evaluations than steps, in at least a quarter of the cases."""
    rng = np.random.default_rng(SEED + 8)
    ended = 0
    for _ in range(cases):
        s = random_symbol(rng)
        while de.symbols._as_moebius(s) is not None:
            s = random_symbol(rng)
        pick = rng.integers(0, 3)
        count = 1 if pick == 0 else int(rng.integers(2, 41 if pick == 1 else 17))
        if pick == 2:
            seeds = np.exp(2j * np.pi * (np.arange(count) + rng.uniform()) / count)
        else:
            seeds = np.array([_random_interior(rng) for _ in range(count)])
        n = int(10.0 ** rng.uniform(0.0, math.log10(3000)))
        ended += check_engine_matches_stepping(s, seeds, n) < n
    assert ended >= cases // 4, ended
    return cases


def check_inner_predicate(cases: int = 100) -> int:
    """``symbols._is_inner``, the one test for "phi maps the circle onto
    itself", holds for Blaschke products, unimodular monomials (as
    polynomials and as Taylor symbols) and automorphisms, and fails for
    Moebius contractions, ``random_symbol`` polynomial and Taylor symbols,
    and (z^2 + delta z)/(1 + delta) with delta >= 1e-8."""
    rng = np.random.default_rng(SEED + 10)
    is_inner = de.symbols._is_inner
    for _ in range(cases):
        s = random_symbol(rng)
        assert is_inner(s) == isinstance(s, de.Blaschke), s
        k, c = int(rng.integers(1, 6)), cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        monomial = [0.0] * k + [c]
        assert is_inner(de.Polynomial(monomial)) and is_inner(de.Taylor(monomial)), monomial
        s = random_automorphism(rng)
        assert is_inner(s), s
        s = random_moebius_contraction(rng)
        assert not is_inner(s), s
        delta = 10.0 ** rng.uniform(-8.0, 0.0)
        s = de.Polynomial([0.0, delta / (1.0 + delta), 1.0 / (1.0 + delta)])
        assert not is_inner(s), s
    return cases


def _classified(s: de.Symbol) -> str:
    try:
        return repr(de.classify(s))
    except de.UnclassifiableError as exc:
        return f"UnclassifiableError: {exc}"


def check_taylor_matches_polynomial(cases: int = 100) -> int:
    """A Taylor symbol is its stored polynomial: ``classify``, and
    ``angular_derivative`` at its boundary fixed points, agree bit for bit
    between ``Taylor(c)`` and ``Polynomial(c)``.  Coefficient lists come from
    ``random_symbol``, ``boundary_touching_polynomial`` and hyperbolic
    ``_boundary_attracting_polynomial``, ``cases`` of each."""
    rng = np.random.default_rng(SEED + 12)
    boundary = 0
    for _ in range(cases):
        s = random_symbol(rng)
        while not isinstance(s, (de.Polynomial, de.Taylor)):
            s = random_symbol(rng)
        for c in (s.coeffs, boundary_touching_polynomial(rng).coeffs,
                  _boundary_attracting_polynomial(rng, False).coeffs):
            taylor, poly = de.Taylor(c), de.Polynomial(c)
            assert _classified(taylor) == _classified(poly), c
            for bp in de.dynamics._boundary_fixed_points(poly):
                got = de.angular_derivative(taylor, bp.point)
                assert repr(got) == repr(de.angular_derivative(poly, bp.point)), (c, bp)
                boundary += 1
    assert boundary >= 2 * cases, boundary
    return cases


ALL_CHECKS = {
    "derivative_vs_finite_difference": check_derivative_finite_difference,
    "schwarz_monotonicity": check_schwarz_monotonicity,
    "classify_conjugation_invariance": check_classify_conjugation_invariance,
    "cesaro_power_boundedness": check_cesaro_power_boundedness,
    "weight_monotonicity": check_weight_monotonicity,
    "boundary_periodic_points": check_boundary_periodic_points,
    "boundary_fixed_points": check_boundary_fixed_points,
    "orbit_closed_form": check_orbit_closed_form,
    "density_certificate": check_density_certificate,
    "lft_density_certificate": check_lft_density_certificate,
    "orbit_early_exit": check_orbit_early_exit,
    "inner_predicate": check_inner_predicate,
    "taylor_matches_polynomial": check_taylor_matches_polynomial,
}
