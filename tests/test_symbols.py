import cmath
import json
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import disc_ergodics as de
from disc_ergodics import symbols
from disc_ergodics.symbols import _as_moebius, _bits, _closed_form, orbit_blocks
from invariants import (
    GRID_25,
    SIGNED_ZEROS,
    SUBNORMALS,
    CountingSymbol,
    check_derivative_finite_difference,
    check_engine_matches_stepping,
    check_orbit_closed_form,
    check_schwarz_monotonicity,
    count_iterate_rows,
    stepped_cycle,
    stepped_orbit,
)


HALF = de.Moebius(1, 0, 0, 2)                      # z/2
HYPERBOLIC = de.Moebius(2, 1, 1, 2)                # (2z+1)/(z+2)
TANGENT = de.Moebius(1, 1, 0, 2)                   # (z+1)/2
ZSQ = de.Blaschke(0.0, [0.0, 0.0])                 # z^2


# ---------------------------------------------------------------------------
# parsing

def test_parse_moebius_half():
    s = de.parse_symbol({"kind": "moebius", "a": 1, "b": 0, "c": 0, "d": 2})
    assert isinstance(s, de.Moebius)
    assert complex(s(0.6)) == 0.3


def test_parse_blaschke_is_square():
    s = de.parse_symbol({"kind": "blaschke", "rotation": 0, "zeros": [0, 0]})
    for z in (0.5, 0.3 + 0.4j, -0.9j):
        assert complex(s(z)) == pytest.approx(z * z, abs=1e-15)


def test_parse_rejects_pole_on_boundary():
    with pytest.raises(de.SymbolError):
        de.parse_symbol({"kind": "moebius", "a": 1, "b": 0, "c": 1, "d": 1})


def test_parse_reports_field_path():
    with pytest.raises(de.SymbolParseError) as err:
        de.parse_symbol({"kind": "blaschke", "rotation": 0, "zeros": [[2.0, 0.0]]})
    assert "zeros" in str(err.value)
    with pytest.raises(de.SymbolParseError) as err:
        de.parse_symbol({"kind": "moebius", "a": "x", "b": 0, "c": 0, "d": 2})
    assert err.value.path == "a"


def test_parse_rejects_unknown_fields_and_kind():
    with pytest.raises(de.SymbolParseError):
        de.parse_symbol({"kind": "moebius", "a": 1, "b": 0, "c": 0, "d": 2, "extra": 1})
    with pytest.raises(de.SymbolParseError):
        de.parse_symbol({"kind": "rational", "a": 1})


def test_round_trip_is_bit_exact():
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    symbols = [
        HYPERBOLIC,
        de.Moebius(cmath.exp(2j * math.pi * golden), 0, 0, 1),
        de.Blaschke(0.7853981633974483, [0.1 + 0.2j, -0.3j]),
        de.Polynomial([0, 0.5, 0.25 + 0.125j]),
        de.Taylor([0, 0.5, 0.25], truncation=64, abs_sum_bound=1.0),
    ]
    for s in symbols:
        again = de.parse_symbol(json.loads(de.symbol_to_json(s)))
        assert type(again) is type(s)
        assert again == s


# One document fault each, with the message the constructor raises; through
# parse_symbol it is a SymbolParseError at the path "taylor".
TAYLOR_FAULTS = {
    "truncation": (([0.1, 0.2, 0.3], 2, None), "3 coefficients exceed the truncation budget 2"),
    "above_bound": (([0.2, 0.3], 64, 0.4),
                    "absolute coefficient sum 0.5 exceeds the certified bound 0.4"),
    "sum_not_finite": (([1e308, 1e308], 64, None), "absolute coefficient sum is not finite"),
    "nan_bound": (([0.2, 0.3], 64, math.nan), "abs_sum_bound must be finite, got nan"),
    "inf_bound": (([0.2, 0.3], 64, math.inf), "abs_sum_bound must be finite, got inf"),
}


@pytest.mark.parametrize("fault", sorted(TAYLOR_FAULTS))
def test_taylor_document_checks(fault):
    (coeffs, truncation, bound), message = TAYLOR_FAULTS[fault]
    with pytest.raises(de.SymbolError) as err:
        de.Taylor(coeffs, truncation, bound)
    assert str(err.value) == message
    doc = {"kind": "taylor", "coeffs": coeffs, "truncation": truncation}
    if bound is not None:
        doc["abs_sum_bound"] = bound
    with pytest.raises(de.SymbolParseError) as err:
        de.parse_symbol(doc)
    assert err.value.path == "taylor" and str(err.value) == f"taylor: {message}"


def test_taylor_is_the_polynomial_it_stores():
    coeffs = [0.2, 0.3, -0.1j, 0.25]
    t, p = de.Taylor(coeffs, 16, 1.0), de.Polynomial(coeffs)
    assert isinstance(t, de.Polynomial) and t.coeffs == p.coeffs
    assert t != p and p != t  # a document with its budget is not the bare polynomial
    assert t.to_dict() == {"kind": "taylor", "coeffs": p.to_dict()["coeffs"],
                           "truncation": 16, "abs_sum_bound": 1.0}
    again = de.parse_symbol(de.symbol_to_json(t))
    assert type(again) is de.Taylor and again == t
    assert de.symbol_to_json(again) == de.symbol_to_json(t)


# ---------------------------------------------------------------------------
# evaluation and derivatives

def test_eval_examples():
    assert complex(ZSQ(0.5)) == pytest.approx(0.25, abs=1e-15)
    assert complex(HALF(1j)) == 0.5j
    assert complex(HYPERBOLIC(1.0)) == pytest.approx(1.0, abs=1e-15)  # (2+1)/(1+2)


def test_derivative_examples():
    # phi'(z) = 3/(z+2)^2 for the hyperbolic automorphism
    assert complex(HYPERBOLIC.derivative(1.0)) == pytest.approx(1.0 / 3.0, abs=1e-12)
    h = 1e-6
    fd = (complex(HYPERBOLIC(1.0)) - complex(HYPERBOLIC(1.0 - h))) / h
    assert abs(complex(HYPERBOLIC.derivative(1.0)) - fd) < 1e-5

    poly = de.Polynomial([0, 0, 1])
    assert complex(poly.derivative(1.0)) == 2.0

    ident = de.Blaschke(0.0, [0.0])  # single zero at the origin: the identity
    for z in (0.2, -0.5j, 0.3 + 0.3j):
        assert complex(ident.derivative(z)) == pytest.approx(1.0, abs=1e-15)


def test_blaschke_derivative_at_zero_of_factor():
    b = de.Blaschke(0.3, [0.4, -0.2j])
    z = 0.4  # a zero of the product; derivative must still be finite/correct
    h = 1e-6
    fd = (complex(b(z + h)) - complex(b(z - h))) / (2 * h)
    assert abs(complex(b.derivative(z)) - fd) <= 1e-6


def test_divided_differences_match_the_quotient_and_the_derivative():
    # phi' is the divided difference at z = zeta; the reference is mp.diff
    # of the symbol evaluated at 30 digits, so it shares no code with it
    symbols_ = (HYPERBOLIC, de.Blaschke(0.3, [0.4, -0.2j, 0.5 + 0.1j]),
                de.Polynomial([0.1, 0.5j, 0.3]), de.Taylor([0.2, 0.3, -0.1j, 0.25]))
    zetas = np.array([1.0, cmath.exp(2.1j), 0.4, -0.3 + 0.5j])
    for s in symbols_:
        with mp.workdps(30):
            reference = [complex(mp.diff(s, mp.mpc(zeta))) for zeta in zetas]
        on_array = s.derivative(zetas)
        for zeta, ref, value in zip(zetas, reference, on_array):
            assert abs(complex(s.derivative(complex(zeta))) - ref) <= 1e-15 * max(1.0, abs(ref))
            assert abs(value - ref) <= 1e-15 * max(1.0, abs(ref)), (s, zeta)
            divided = s._divided_difference(complex(zeta))
            for z in (0.3 + 0.4j, -0.8j, 0.0):
                quotient = (complex(s(z)) - complex(s(zeta))) / (z - zeta)
                assert abs(divided(z) - quotient) <= 1e-14, (s, zeta, z)


# ---------------------------------------------------------------------------
# iteration

def test_iterate_halving():
    orbit = de.iterate(HALF, 1.0, 3)
    assert np.allclose(orbit.points, [0.5, 0.25, 0.125], atol=0)


def test_iterate_tangent_closed_form():
    orbit = de.iterate(TANGENT, 0.0, 3)
    # phi^n(z) = 1 - (1 - z) / 2^n
    expected = [1.0 - 2.0 ** (-n) for n in (1, 2, 3)]
    assert np.allclose(orbit.points, expected, atol=1e-15)


def test_iterate_period_two():
    minus = de.Moebius(-1, 0, 0, 1)
    orbit = de.iterate(minus, 1j, 2)
    assert orbit.points[0] == -1j and orbit.points[1] == 1j


def test_iterate_semigroup_property():
    rng = np.random.default_rng(7)
    for s in (HALF, HYPERBOLIC, ZSQ, de.Polynomial([0, 0.5, 0.5])):
        for _ in range(5):
            z = 0.8 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) / math.sqrt(2)
            m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            full = de.iterate(s, z, m + n).points[-1]
            mid = de.iterate(s, z, m).points[-1]
            rest = de.iterate(s, complex(mid), n).points[-1]
            assert abs(full - rest) <= 1e-10


def test_orbit_blocks_do_not_depend_on_the_block_size(monkeypatch):
    # blocks of 2, 8 and 13107 rows
    seeds = np.array([0.3, -0.4j, 0.2 + 0.1j, 0.9, -0.7 + 0.2j])
    for s in (HYPERBOLIC, TANGENT, de.gallery_symbol("parab"), ZSQ,
              de.Polynomial([0.1, 0.5, 0.3])):
        runs = []
        for points in (10, 40, 2**16):
            monkeypatch.setattr(symbols, "BLOCK_POINTS", points)
            runs.append(np.concatenate([block for _, block in orbit_blocks(s, seeds, 300)]))
        assert runs[0].shape == (300, 5)
        assert all(np.array_equal(runs[0], other) for other in runs[1:]), s


def test_orbit_blocks_one_seed_steps_like_an_array():
    # a single seed is stepped in Python complex arithmetic, an array with
    # numpy: the same orbit up to roundoff
    s = de.Blaschke(0.4, [0.2 + 0.1j, -0.5])
    one = np.concatenate([b[:, 0] for _, b in orbit_blocks(s, [0.3 + 0.2j], 500)])
    many = np.concatenate([b[:, 1] for _, b in orbit_blocks(s, [0.1, 0.3 + 0.2j], 500)])
    assert np.max(np.abs(one - many)) <= 1e-13


def test_orbit_closed_form_invariants():
    assert check_orbit_closed_form(100) >= 100


def test_repeating_orbits_are_told_apart_bit_for_bit():
    rows = stepped_orbit(SIGNED_ZEROS, GRID_25, 1000)
    # equal as values: a value rule would take this period-2 cycle for a
    # fixed row, and print 0 where stepping prints -0
    assert np.array_equal(rows[970], rows[971]) and rows[970].tobytes() != rows[971].tobytes()
    assert rows[969].tobytes() != rows[971].tobytes() == rows[999].tobytes()
    rows = stepped_orbit(SUBNORMALS, GRID_25, 1200)
    assert 5e-324 in np.abs(rows[1110].real) and rows[1109].tobytes() != rows[1113].tobytes()
    assert all(rows[m].tobytes() == rows[m + 4].tobytes() for m in range(1110, 1196))


def test_stepped_orbits_end_early_with_the_stepped_blocks():
    # period 1 (z^2), 2 and 4 above, blend_half, and (1 + z^2)/2, which
    # never repeats from the circle; at the block edges and past them
    circle = np.exp(2j * np.pi * (np.arange(16) + 0.5) / 16)
    shapes = [ZSQ, de.gallery_symbol("blend_half"), SIGNED_ZEROS, SUBNORMALS,
              de.Polynomial([0.5, 0.0, 0.5])]
    for s in shapes:
        for seeds in (np.array([0.3 + 0.2j]), GRID_25, circle):
            rows = max(1, symbols.BLOCK_POINTS // len(seeds))
            want = stepped_orbit(s, seeds, max(rows + 1, 4000))
            for n in (1, rows - 1, rows, rows + 1, 4000):
                check_engine_matches_stepping(s, seeds, n, want)


def test_repeating_orbit_is_not_evaluated_to_the_end():
    counting = CountingSymbol(ZSQ)
    blocks = list(orbit_blocks(counting, GRID_25, 10**5))
    assert counting.calls <= 64
    assert sum(len(b) for _, b in blocks) == 10**5
    assert all(b.flags.writeable and b.shape[1] == 25 for _, b in blocks)
    assert np.all(blocks[-1][1][-1] == 0.0)


def test_stepped_orbits_stop_one_period_into_their_cycle():
    # one seed too: z^2 reaches 0 and -0 from 0.3 + 0.2j, equal as values
    blend = de.gallery_symbol("blend_half")
    cases = [(SIGNED_ZEROS, GRID_25, (971, 2)), (SUBNORMALS, GRID_25, (1111, 4)),
             (blend, GRID_25, (1081, 1)), (blend, [0.3 + 0.2j], (1074, 1)),
             (ZSQ, [0.3 + 0.2j], (11, 1))]
    for s, seeds, cycle in cases:
        assert stepped_cycle(s, seeds, 2000) == cycle
        onset, period = cycle
        assert check_engine_matches_stepping(s, seeds, 3000) == onset + period, s


def test_a_cycle_that_begins_before_its_block_closes_in_it(monkeypatch):
    # blocks of 243 and 139 rows start at steps 972 and 1112, inside the
    # first period of each cycle: it is seen one period after the block's
    # first step, within two periods of its onset
    for s, onset, period, rows in ((SIGNED_ZEROS, 971, 2, 243), (SUBNORMALS, 1111, 4, 139)):
        monkeypatch.setattr(symbols, "BLOCK_POINTS", rows * len(GRID_25))
        m0 = (onset + period - 1) // rows * rows
        assert onset < m0 < onset + period
        calls = check_engine_matches_stepping(s, GRID_25, 3000)
        assert calls == m0 + period < onset + 2 * period, s


def test_exact_rotations_compute_one_period(monkeypatch):
    # rotations about 0 and an elliptic map about p != 0, each snapped to
    # a period that does not divide the 481-row blocks of 17 seeds
    shapes = [de.Moebius(cmath.exp(2j * math.pi * p / q), 0, 0, 1)
              for p, q in ((1, 2), (2, 3), (-2, 5), (3, 7), (5, 8))]
    shapes.append(de.make_automorphism("elliptic", angle=6 * math.pi / 7, fixed_point=0.3 + 0.4j))
    asked = count_iterate_rows(monkeypatch)
    for s in shapes:
        form = _closed_form(s)
        seeds = np.concatenate([[form.p], 0.9 * np.exp(2j * np.pi * (np.arange(16) + 0.3) / 16)])
        assert form.period in (2, 3, 5, 7, 8) and 481 % form.period != 0, s
        assert symbols.BLOCK_POINTS // len(seeds) == 481
        asked.clear()
        blocks = list(orbit_blocks(s, seeds, 1500))
        assert asked == [form.period] and len(blocks) == 4, s
        for m0, block in blocks:
            want = form.iterates(seeds, np.arange(m0 + 1, m0 + len(block) + 1))
            assert block.flags.writeable and block.tobytes() == want.tobytes(), (s, m0)
        assert np.all(np.concatenate([b for _, b in blocks])[:, 0] == form.p)


def test_only_exact_rotations_are_tiled(monkeypatch):
    asked = count_iterate_rows(monkeypatch)
    third = cmath.exp(2j * math.pi / 3)
    shapes = [de.gallery_symbol("parab"), de.gallery_symbol("rot_golden"),
              de.Moebius(0.5 * third, 0, 0, 1),
              de.make_automorphism("elliptic", angle=2 * math.pi / 3, fixed_point=0.3 + 0.4j)]
    for s in shapes:
        form = _closed_form(s)
        assert form.period is None, s
        asked.clear()
        list(orbit_blocks(s, GRID_25, 1500))
        assert sum(asked) == 1500 and len(asked) == 5, s
    # turns of 1/3, with |kappa| = 1/2 and with |kappa| off 1 by 1.7e-16
    contraction, elliptic = (_closed_form(s) for s in shapes[2:])
    assert contraction.turns == elliptic.turns == Fraction(1, 3)
    assert contraction.log_r < 0.0 and elliptic.log_r != 0.0


def test_rotation_snap_compares_the_turn_exactly():
    def exact_distance(a, ratio):
        with mp.workdps(50):
            turn = mp.arg(mp.mpc(a)) / (2 * mp.pi)
            return float(abs(turn - mp.mpf(ratio.numerator) / ratio.denominator)), float(turn)

    # e^{2 pi i 2/3} and e^{-2 pi i 11/16} in doubles: their turns lie within
    # 1e-16 of -1/3 and 5/16, but their leading doubles two units in the
    # last place from those fractions' doubles
    for a, ratio in ((cmath.exp(4j * math.pi / 3), Fraction(-1, 3)),
                     (cmath.exp(-22j * math.pi / 16), Fraction(5, 16))):
        form = _closed_form(de.Moebius(a, 0, 0, 1))
        assert form.turns == ratio and form.period == ratio.denominator
        distance, head = exact_distance(a, ratio)
        assert 8e-17 < distance <= 1e-16
        assert abs(head - ratio) > 1e-16  # the float test missed them
    # 1.002e-16 from 1/3, which the float test took for 1/3
    a = -0.4999999999999995 + 0.866025403784439j
    form = _closed_form(de.Moebius(a, 0, 0, 1))
    assert not isinstance(form.turns, Fraction) and form.period is None
    assert 1e-16 < exact_distance(a, Fraction(1, 3))[0] < 1.01e-16
    assert form.log_r == 0.0 and abs(form.turns[0] - Fraction(1, 3)) <= 1e-16


def test_powers_from_one_period_match_the_per_m_path():
    # turns a/k with more than k values of m read kappa^m from one period; a
    # block of at most k values is computed value by value, so k-row chunks
    # of the same m are the reference
    def per_m(form, m, k):
        chunks = [form.powers(m[i:i + k]) for i in range(0, len(m), k)]
        return tuple(np.concatenate(part) for part in zip(*chunks))

    shapes = [de.gallery_symbol(name) for name in ("parab", "hyperbolic", "tangent", "z_half")]
    for k in range(2, 9):
        for a in (1, k - 1):
            kappa = cmath.exp(2j * math.pi * a / k)
            shapes += [de.Moebius(kappa, 0, 0, 1), de.Moebius(0.9 * kappa, 0, 0, 1)]
    shapes.append(de.make_automorphism("elliptic", angle=2 * math.pi * 3 / 7,
                                       fixed_point=0.3 + 0.4j))
    # k = 9,973 <= PERIOD_SEARCH_MAX: a block of 8,192 rows is shorter than
    # the period, one of 12,000 longer
    far = [de.Moebius(cmath.exp(2j * math.pi / 9973), 0, 0, 1),
           de.Moebius(0.9 * cmath.exp(2j * math.pi / 9973), 0, 0, 1)]
    cases = [(s, 600) for s in shapes] + [(s, rows) for s in far for rows in (8192, 12000)]
    denominators = set()
    for s, rows in cases:
        form = _closed_form(s)
        k = form.turns.denominator
        denominators.add(k)
        for start in (0, 10**6 + 17):
            m = np.arange(start + 1, start + rows + 1)
            got, want = form.powers(m), per_m(form, m, k)
            assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want)), (s, rows, start)
        # the call that sets kappa_m1 takes the per-m path; m = 1 at the
        # head of a block longer than k is read from the period
        one = form.powers(np.ones(1, dtype=np.int64))[1][0]
        assert _bits(one) == _bits(form.kappa_m1) == _bits(form.powers(m - start)[1][0]), s
    assert denominators == set(range(1, 9)) | {9973}
    assert _closed_form(de.gallery_symbol("parab")).kappa_m1 == 0.0


def test_stepped_orbit_leaving_the_disc_raises():
    # the product repels from the circle, so rounding moves circle seeds out
    s = de.Blaschke(0.3, [0.0, 0.5 + 0.2j])
    seeds = de.ergodicity._boundary_seeds(0.0, 8)
    with pytest.raises(de.SymbolError, match="orbit leaves the closed disc at step 26"):
        de.density_sweep(s, seeds, 0.0, [0.1], 2000)
    check_engine_matches_stepping(s, seeds, 2000)  # the plain loop's first step out
    # one seed, in Python complex arithmetic
    with pytest.raises(de.SymbolError, match="orbit leaves the closed disc at step"):
        de.iterate(s, cmath.exp(2j), 1000)
    check_engine_matches_stepping(s, [cmath.exp(2j)], 1000)


def test_closed_form_long_orbits_do_not_drift():
    circle = np.exp(2j * np.pi * np.arange(16) / 16)
    rot = de.gallery_symbol("rot_golden")
    rows = _closed_form(rot).iterates(circle, np.arange(10**9 + 1, 10**9 + 65))
    assert np.max(np.abs(np.abs(rows) - 1.0)) <= 1e-12
    # m turns are kept to double-double precision: after 10^7 steps the
    # phase still matches the exact power of the double multiplier
    m = 10**7 + 3
    with mp.workdps(50):
        exact = complex(mp.mpc(rot.a) ** m)
    got = _closed_form(rot).iterates(np.array([1.0]), np.array([m]))[0, 0]
    assert abs(cmath.phase(got / exact)) <= 1e-14
    for p, q in ((1, 2), (1, 3), (2, 5), (5, 6), (3, 7), (3, 8)):
        rot = de.Moebius(cmath.exp(2j * math.pi * p / q), 0, 0, 1)
        rows = _closed_form(rot).iterates(circle, np.array([q * 10**8, q * 10**8 + 1]))
        assert np.max(np.abs(rows[0] - circle)) <= 1e-12, (p, q)
        assert np.max(np.abs(rows[1] - rot(circle))) <= 1e-12, (p, q)


def test_closed_form_elliptic_orbits_drift_only_with_the_multiplier():
    # About a fixed point p != 0 the double coefficients are an automorphism
    # only up to rounding: |kappa| may differ from 1 by about 1e-16, and the
    # closed form, like stepping, then moves the seeds off their invariant
    # circle by m |log |kappa||, and by nothing more.
    seeds = np.concatenate([0.5 * np.exp(2j * np.pi * np.arange(16) / 16),
                            np.exp(2j * np.pi * np.arange(16) / 16)])
    m = np.arange(10**9 + 1, 10**9 + 65)
    shapes = [de.make_automorphism("elliptic", angle=t, fixed_point=p)
              for p in (0.3 + 0.4j, -0.5j, 0.6 - 0.2j, 0.85j) for t in (1.0, 2.5, 3.9)]
    shapes += [de.Blaschke(2.0, [0.3]), de.Blaschke(-2.5, [0.2 + 0.6j])]
    for s in shapes:
        form = _closed_form(s)
        p = form.p
        assert abs(p) < 1.0 and abs(complex(s(p)) - p) <= 1e-13, s
        assert abs(form.log_r) <= 1e-14, s
        radius = np.abs(seeds - p) / np.abs(1.0 - np.conj(p) * seeds)
        w = form.iterates(seeds, m)
        moved = np.abs(np.abs(w - p) / np.abs(1.0 - np.conj(p) * w) - radius)
        assert np.max(moved) <= 1e-12 + m[-1] * abs(form.log_r), s


def test_moebius_form_is_built_once_without_validation(monkeypatch):
    shapes = (de.Blaschke(0.3, [0.2 - 0.1j]), de.Polynomial([0.1, 0.5j, 0.0]),
              de.Taylor([0.2, -0.3]))
    monkeypatch.setattr(de.Moebius, "_validate_self_map", lambda self: 1 / 0)
    for s in shapes:
        form = _as_moebius(s)
        assert isinstance(form, de.Moebius) and _as_moebius(s) is form
        for z in (0.3, -0.5 + 0.2j, 1j):
            assert abs(complex(form(z)) - complex(s(z))) <= 1e-15
    assert _as_moebius(de.Polynomial([0.1, 0.5, 0.2])) is None


# ---------------------------------------------------------------------------
# self-map check

def test_self_map_check_square():
    report = de.self_map_check(ZSQ)
    assert report.passed
    assert report.max_modulus == pytest.approx(1.0, abs=1e-12)


def test_self_map_check_tangent_witness():
    report = de.self_map_check(TANGENT)
    assert report.passed
    assert report.max_modulus == pytest.approx(1.0, abs=1e-12)
    assert abs(report.witness - 1.0) < 1e-12


def test_self_map_check_fails_for_doubling():
    class Doubling:
        def __call__(self, z):
            return 2.0 * z

    report = de.self_map_check(Doubling())
    assert not report.passed
    assert report.max_modulus == pytest.approx(2.0, abs=1e-12)


def test_constructor_rejects_doubling():
    with pytest.raises(de.SymbolError):
        de.Polynomial([0, 2.0])


def test_disc_grid_is_built_once_and_read_only():
    grid = symbols.disc_grid()
    assert symbols.disc_grid() is grid
    assert not grid.flags.writeable
    with pytest.raises(ValueError):
        grid[0] = 0.5
    fresh = symbols.disc_grid.__wrapped__()
    assert fresh is not grid and np.array_equal(fresh, grid)


def test_self_map_check_on_the_shared_grid_matches_a_fresh_grid():
    fresh = symbols.disc_grid.__wrapped__()
    for name in de.GALLERY_NAMES:
        s = de.gallery_symbol(name)
        values = np.abs(s(fresh))
        idx = int(np.argmax(values))
        expected = de.SelfMapReport(float(values[idx]), complex(fresh[idx]),
                                    float(values[idx]) <= 1.0 + symbols.SELF_MAP_TOL)
        assert de.self_map_check(s) == expected, name


def _grid_decision(make):
    # what the grid alone decides: the symbol built unvalidated, then checked
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(de.Symbol, "_validate_self_map", lambda self: None)
        try:
            s = make()
        except de.SymbolError:
            return None  # rejected before validation (pole, determinant, ...)
    return de.self_map_check(s)


def _candidates_near_the_bound(rng):
    # Moebius maps rescaled to R = 1 + eps; polynomials with sum |c_k| =
    # 1 + eps, half of them rotated nonnegative mixtures that reach the
    # circle; Blaschke products with zeros 1e-15 to 1e-1 from the circle,
    # half of them radially inside a point of the validation grid
    grid_angles = de.symbols.boundary_points(512)
    for _ in range(150):
        eps = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-14.0, -7.0)
        a, b, c, d = (complex(*rng.normal(size=2)) for _ in range(4))
        if abs(d) < abs(c):
            c, d = d, c
        f = (1.0 + eps) / symbols._image_radius_bound(symbols.Moebius._unchecked(a, b, c, d))
        yield lambda a=a * f, b=b * f, c=c, d=d: de.Moebius(a, b, c, d)
        n = int(rng.integers(2, 7))
        coeffs = rng.normal(size=n) + 1j * rng.normal(size=n)
        if rng.uniform() < 0.5:
            lam = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            coeffs = np.abs(coeffs) * lam ** (np.arange(n) - 1.0)
        coeffs *= (1.0 + eps) / np.sum(np.abs(coeffs))
        yield lambda cs=list(coeffs): de.Polynomial(cs)
        zeros = []
        for _ in range(int(rng.integers(1, 4))):
            u = grid_angles[rng.integers(512)] if rng.uniform() < 0.5 \
                else cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            zeros.append(complex((1.0 - 10.0 ** rng.uniform(-15.0, -1.0)) * u))
        yield lambda zs=zeros, t=rng.uniform(0.0, 2.0 * math.pi): de.Blaschke(t, zs)


def test_constructors_decide_as_the_grid_does():
    rng = np.random.default_rng(2026)
    outcomes = {True: 0, False: 0}
    for make in _candidates_near_the_bound(rng):
        report = _grid_decision(make)
        if report is None:
            continue
        outcomes[report.passed] += 1
        if report.passed:
            make()
            continue
        with pytest.raises(de.SymbolError) as err:
            make()
        assert str(err.value) == (
            f"not a self-map of the closed disc: |phi({report.witness!r})| "
            f"= {report.max_modulus:.6g} > 1 + {symbols.SELF_MAP_TOL:g}")
    assert outcomes[True] >= 300 and outcomes[False] >= 25, outcomes


def test_gallery_is_validated_without_the_grid(monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("sampled the validation grid")

    monkeypatch.setattr(symbols, "self_map_check", no_grid)
    for name in de.GALLERY_NAMES:
        de.gallery_symbol(name)


def test_coefficient_sum_above_one_goes_through_the_grid(monkeypatch):
    reports = []

    def recording(s):
        reports.append(de.self_map_check(s))
        return reports[-1]

    monkeypatch.setattr(symbols, "self_map_check", recording)
    de.Polynomial([0.3, 0.5, -0.3])  # sum |c_k| = 1.1, max |p| on the circle 0.8
    assert len(reports) == 1 and reports[0].passed


# ---------------------------------------------------------------------------
# automorphism factory

def test_elliptic_at_origin_is_rotation():
    s = de.make_automorphism("elliptic", angle=math.pi, fixed_point=0.0)
    for z in (0.5, -0.25j):
        assert complex(s(z)) == pytest.approx(-z, abs=1e-15)


def test_hyperbolic_matches_example():
    s = de.make_automorphism("hyperbolic", multiplier=1.0 / 3.0)
    for z in (0.0, 0.5, -0.7j, 1.0, -1.0, 0.3 + 0.4j):
        assert complex(s(z)) == pytest.approx(complex(HYPERBOLIC(z)), abs=1e-12)
    assert complex(s(1.0)) == pytest.approx(1.0, abs=1e-12)
    assert complex(s(-1.0)) == pytest.approx(-1.0, abs=1e-12)
    assert complex(s.derivative(1.0)) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_parabolic_matches_cayley_conjugation():
    s = de.make_automorphism("parabolic", translation=1.0)
    expected = de.Moebius(2j - 1, 1, -1, 1 + 2j)
    for z in (0.0, 0.5, -0.7j, 0.3 + 0.4j):
        assert complex(s(z)) == pytest.approx(complex(expected(z)), abs=1e-14)
    assert complex(s(1.0)) == pytest.approx(1.0, abs=1e-14)
    assert complex(s.derivative(1.0)) == pytest.approx(1.0, abs=1e-12)


def test_elliptic_multiplier_off_center():
    s = de.make_automorphism("elliptic", angle=math.pi / 3, fixed_point=0.3)
    assert complex(s(0.3)) == pytest.approx(0.3, abs=1e-14)
    assert complex(s.derivative(0.3)) == pytest.approx(cmath.exp(1j * math.pi / 3), abs=1e-12)


def test_automorphism_parameter_validation():
    with pytest.raises(ValueError):
        de.make_automorphism("elliptic", angle=1.0, fixed_point=1.5)
    with pytest.raises(ValueError):
        de.make_automorphism("hyperbolic", multiplier=1.5)
    with pytest.raises(ValueError):
        de.make_automorphism("parabolic", translation=0.0)


# ---------------------------------------------------------------------------
# randomized invariants

def test_blaschke_boundary_modulus():
    from disc_ergodics.symbols import boundary_points

    rng = np.random.default_rng(11)
    circle = boundary_points(256)
    for _ in range(40):
        degree = int(rng.integers(1, 5))
        zeros = []
        for _ in range(degree):
            r = 0.8 * math.sqrt(rng.uniform())
            zeros.append(cmath.rect(r, rng.uniform(0, 2 * math.pi)))
        b = de.Blaschke(rng.uniform(0, 2 * math.pi), zeros)
        mods = np.abs(b(circle))
        assert float(np.max(np.abs(mods - 1.0))) <= 1e-10


def test_derivative_matches_finite_differences():
    assert check_derivative_finite_difference(100) >= 100


def test_schwarz_monotonicity():
    assert check_schwarz_monotonicity(100) >= 100
