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
# Coefficients of boundary-attracting polynomials decided at the cost of
# their period search (acceptance criteria 12 and 24): a nonlinear
# contraction toward 1, and the two of the benchmark's orbit_sweeps
# workload at seed 1
CRITERION_12_POLYNOMIALS = (
    [0.19, 0.8, 0.01],
    [0.38709096345752936, 0.4978626669098771, 0.11504636963259353],
    [0.49103519779211974, 0.41983567912134206, 0.05118314520104854, 0.03794597788548976])


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
        inverse = de.Moebius(psi.d, -psi.b, -psi.c, psi.a)
        conj = de.moebius_product(de.moebius_product(psi, base), inverse)
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


def centered_blaschke(rng, degree: int, low: float = 0.2, high: float = 0.7) -> de.Blaschke:
    """Blaschke product of the given degree with a zero at 0, its other
    zeros of modulus uniform in [low, high] and a random rotation, as
    perfbench's ``blaschke(degree)`` family (low 0.2, high 0.7)."""
    zeros = [0j] + [rng.uniform(low, high) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
                    for _ in range(degree - 1)]
    return de.Blaschke(rng.uniform(0, 2 * math.pi), zeros)


def centered_contraction_polynomial(rng, taylor: bool = False) -> de.Polynomial:
    """sum c_k z^k of degree 2 or 3 with c_0 = 0 and sum |c_k| in [0.5,
    0.8], so 0 attracts, as perfbench's ``contraction_polynomial(centered=True)``
    family; a Taylor symbol with the same coefficients when ``taylor``."""
    weights = rng.uniform(0.2, 1.0, int(rng.integers(2, 4)) + 1)
    weights[0] = 0.0
    weights *= rng.uniform(0.5, 0.8) / weights.sum()
    coeffs = [w * cmath.exp(1j * rng.uniform(0, 2 * math.pi)) for w in weights]
    return (de.Taylor if taylor else de.Polynomial)(coeffs)


def exact_means(f, folded, n: int) -> np.ndarray:
    """(1/n) sum_{m<=n} f(phi^m(seeds)) with each seed's sum exactly
    rounded, divided by n as ``cesaro_final_means`` divides.  ``folded`` is
    the list of blocks of ``symbols._folded_blocks(s, seeds, n)``, the rows
    the engine computes when it is not asked to stop; a folded cycle is
    counted as often as it recurs: k times a value is the sum of its exact
    products with the powers of two in k, so math.fsum rounds the whole
    sum once."""
    terms = []
    for m0, block, period in folded:
        values = np.asarray(f(block), dtype=complex)
        terms.append(values)
        if period is not None:
            full, part = divmod(n - m0 - len(values), period)
            cycle = values[len(values) - period:]
            terms.append(cycle[:part])
            terms += [cycle.real * 2.0**b + 1j * (cycle.imag * 2.0**b)
                      for b in range(full.bit_length()) if full >> b & 1]
    values = np.concatenate(terms)
    sums = np.array([complex(math.fsum(v.real), math.fsum(v.imag)) for v in values.T])
    return sums.real / n + 1j * (sums.imag / n)


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


class CountingTestFunction(de.TestFunction):
    """A test function that counts the orbit rows it is evaluated on.  It
    passes for the function it wraps, to ``isinstance`` and for its fields,
    so the library takes the path it takes for that function: a wrapped
    ``Monomial`` stops at an attracting origin as the monomial does."""

    def __init__(self, f: de.TestFunction):
        self.f, self.rows = f, 0

    @property
    def __class__(self):
        return type(self.f)

    def __getattr__(self, name):
        if name == "f":  # not set yet
            raise AttributeError(name)
        return getattr(self.f, name)

    def __call__(self, z):
        self.rows += len(z)
        return self.f(z)

    def boundary_sup(self) -> float:
        return self.f.boundary_sup()


def broadcast_horner(coeffs, z):
    """Reference for ``symbols._horner``: Horner's scheme started from the
    constant broadcast to the shape of z, c[-1] + 0 z."""
    if len(coeffs) == 0:
        return 0.0 * z
    acc = coeffs[-1] + 0.0 * z
    for c in reversed(coeffs[:-1]):
        acc = acc * z + c
    return acc


def broadcast_blaschke(s: de.Blaschke, z):
    """Reference for ``Blaschke.__call__``: the product started from the
    rotation broadcast to the shape of z, e^{it} + 0 z."""
    acc = cmath.exp(1j * s.rotation) + 0.0 * z
    for a in s.zeros:
        acc = acc * (z - a) / (1.0 - np.conjugate(a) * z)
    return acc


def _signed_zero_variant(c: complex, kind: int) -> complex:
    # c itself, or c with one component a zero of either sign
    return (c, complex(c.real, 0.0), complex(c.real, -0.0), complex(-0.0, c.imag))[kind % 4]


def evaluator_cases(rng) -> list:
    """(evaluator, reference) pairs for every form that ``symbols._horner``
    and ``Blaschke.__call__`` evaluate: polynomials of degree 0 to 8, Taylor
    symbols and Taylor test functions, and Blaschke products of degree 1 to
    4, with rotations 0, -0.0 and random, and a zero at 0 in some.  The
    coefficients, or zeros, of a case are all complex, all real, all real
    with imaginary part -0.0, or all imaginary with real part -0.0."""
    def coefficients(count, kind):
        cs = np.array([_random_interior(rng, 1.0) for _ in range(count)])
        cs *= rng.uniform(0.3, 0.9) / np.sum(np.abs(cs))
        return [_signed_zero_variant(complex(c), kind) for c in cs]

    cases = []
    for degree in range(9):
        for kind in range(4):
            s = de.Polynomial(coefficients(degree + 1, kind))
            cases.append((s, lambda z, cs=s.coeffs: broadcast_horner(cs, z)))
    for degree, kind in zip((0, 3, 7, 15), range(4)):
        for s in (de.Taylor(coefficients(degree + 1, kind)),
                  de.TaylorFn(coefficients(degree + 1, kind))):
            cases.append((s, lambda z, cs=s.coeffs: broadcast_horner(cs, z)))
    for degree in range(1, 5):
        for kind, rotation in enumerate((0.0, -0.0, rng.uniform(0.0, 2.0 * math.pi))):
            for first in (0j, _random_interior(rng, 0.7)):
                zeros = [first] + [_signed_zero_variant(_random_interior(rng, 0.7), kind + degree)
                                   for _ in range(degree - 1)]
                s = de.Blaschke(rotation, zeros)
                cases.append((s, lambda z, s=s: broadcast_blaschke(s, z)))
    return cases


def evaluation_points(rng) -> np.ndarray:
    """25 points of the closed disc: zeros of every sign, points on the
    axes with signed zero components, points on the circle and inside it."""
    special = [complex(x, y) for x in (0.0, -0.0) for y in (0.0, -0.0)]
    special += [0.5, -0.5, complex(0.5, -0.0), complex(-0.5, -0.0), 1.0, -1.0,
                complex(0.0, 0.7), complex(-0.0, -0.7), complex(5e-324, -5e-324)]
    circle = [cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi)) for _ in range(4)]
    inside = [_random_interior(rng, 1.0) for _ in range(25 - len(special) - len(circle))]
    return np.array(special + circle + inside)


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


def record_engine_calls(monkeypatch) -> list:
    """Patches the engine under ``cesaro_final_means`` to record each call:
    the stop it is given (None when every row is summed) and the rows it
    yields.  Returns the record, a list of dicts."""
    calls, engine = [], de.symbols._folded_blocks

    def recording(s, seeds, n, stop=None):
        call = {"stop": stop, "rows": 0}
        calls.append(call)
        for m0, block, period in engine(s, seeds, n, stop):
            call["rows"] += len(block)
            yield m0, block, period

    monkeypatch.setattr(de.ergodicity, "_folded_blocks", recording)
    return calls


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


def real_contraction(rng) -> de.Symbol:
    """A linear-fractional map with an attracting fixed point p and a real
    multiplier 0 < kappa < 1, of one of six kinds: a hyperbolic automorphism
    fixing +-u, u rotated or 1 (p on the real axis); a hyperbolic
    automorphism conjugated by the involution sigma_p exchanging 0 and p; a
    tangent map (1 - t) z + t u, u rotated or 1; a dilation r z; an affine
    polynomial b + a z with 0 < a < 1, b rotated or real; and sigma_p r z
    sigma_p, p rotated or real."""
    kind = int(rng.integers(0, 6))
    u = cmath.exp(1j * rng.uniform(0, 2 * math.pi)) if rng.uniform() < 0.7 else 1.0 + 0j
    r = rng.uniform(0.02, 0.98)
    if kind == 0:
        return de.Moebius(1 + r, (1 - r) * u, (1 - r) * u.conjugate(), 1 + r)
    if kind == 2:
        return de.Moebius(1 - r, r * u, 0, 1)
    if kind == 3:
        return de.Moebius(r, 0, 0, 1)
    if kind == 4:
        return de.Polynomial([(1 - r) * rng.uniform(0.0, 1.0) * u, r])
    p = rng.uniform(0.0, 0.9) * u
    sigma = de.Moebius(-1.0, p, -p.conjugate(), 1.0)
    inner = de.Moebius(1 + r, 1 - r, 1 - r, 1 + r) if kind == 1 else de.Moebius(r, 0, 0, 1)
    return de.moebius_product(sigma, de.moebius_product(inner, sigma))


def check_settled_orbits(cases: int = 100) -> int:
    """Orbits of ``real_contraction`` maps, which fold once their closed
    form settles (``symbols._ClosedForm.settling``), give at every m the
    rows of ``_ClosedForm.iterates`` bit for bit.  Seeds: up to 6 random
    points of the closed disc, 0 with each sign of its two components, a
    real seed, and p and q where they lie on the closed disc; n log-uniform
    up to 10^5, and 10^5 in every twentieth case.  At least nine in ten of
    the maps have turns 0 and log_r < 0, and at least a third of the
    orbits fold."""
    rng = np.random.default_rng(SEED + 27)
    real = folded = 0
    for k in range(cases):
        s = real_contraction(rng)
        form = de.symbols._closed_form(s)
        real += form.turns == 0 and form.log_r < 0.0
        seeds = [_random_interior(rng, 1.0) for _ in range(int(rng.integers(1, 7)))]
        seeds += [complex(x, y) for x in (0.0, -0.0) for y in (0.0, -0.0)]
        seeds += [rng.uniform(-1.0, 1.0)] + [v for v in (form.p, form.q) if v is not None
                                              and abs(v) <= 1.0 + de.symbols.SELF_MAP_TOL]
        seeds = np.array(seeds, dtype=complex)
        n = 10**5 if k % 20 == 0 else int(10.0 ** rng.uniform(0.0, 5.0))
        want = form.iterates(seeds, np.arange(1, n + 1))
        got = np.concatenate([b for _, b in de.symbols.orbit_blocks(s, seeds, n)])
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), (s, seeds, n)
        if form.settling(seeds, n) is not None:
            folded += list(de.symbols._folded_blocks(s, seeds, n))[-1][2] == 1
    assert real >= 0.9 * cases and folded >= cases // 3, (real, folded)
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
    "lft_density_certificate": check_lft_density_certificate,
    "orbit_early_exit": check_orbit_early_exit,
    "inner_predicate": check_inner_predicate,
    "taylor_matches_polynomial": check_taylor_matches_polynomial,
}
