"""Acceptance harness: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report.  Every tolerance is pinned here; the timing bounds are part of the
criteria and asserted.
"""

import cmath
import json
import math
import time

import numpy as np

import disc_ergodics as de
import invariants
from disc_ergodics import cli

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SQRT2M1 = math.sqrt(2.0) - 1.0


def _report(num: int, name: str, elapsed: float, bound: float | None, detail: str = ""):
    note = f" [{elapsed:.2f}s" + (f" < {bound:g}s]" if bound else "]")
    print(f"ACCEPTANCE {num:2d} {name}: PASS{note} {detail}")
    if bound is not None:
        assert elapsed < bound, f"criterion {num} exceeded its {bound}s budget"


def _grid(radii, angles):
    rs = np.asarray(radii)[:, None]
    ts = np.exp(2j * np.pi * np.arange(angles)[None, :] / angles)
    return (rs * ts).ravel()


def test_criterion_01_rotation_periodic_limit():
    t0 = time.perf_counter()
    rot = de.Moebius(1j, 0, 0, 1)
    coeffs = [1.0, 1.0, 1.0, 1.0, 1.0]
    f = de.TaylorFn(coeffs)
    limit = de.TaylorFn(de.rotation_cesaro_limit(4, coeffs))
    points = _grid([0.25, 0.5, 0.75, 1.0], 16)  # 64 points
    means = de.cesaro_final_means(rot, f, points, 4 * 10**3)
    gap = float(np.max(np.abs(means - limit(points))))
    assert gap <= 1e-10
    # scalar trace agrees with the vector sweep
    one = de.cesaro_apply(rot, f, complex(points[3]), 4 * 10**3).final
    assert abs(one - means[3]) <= 1e-12
    _report(1, "rotation periodic limit", time.perf_counter() - t0, 1.0,
            f"max deviation {gap:.2e}")


def test_criterion_02_rotation_monomial_norms():
    t0 = time.perf_counter()
    lam = cmath.exp(2j * math.pi * SQRT2M1)
    worst = 0.0
    for j in range(1, 6):
        for n in (10**2, 10**3, 10**4):
            res = de.monomial_mean(lam, j, n)
            assert abs(abs(res.value) - res.sup_norm_exact) <= 1e-12
            assert abs(res.value) <= res.sup_norm_bound + 1e-15
            worst = max(worst, abs(abs(res.value) - res.sup_norm_exact))
    _report(2, "rotation monomial norms", time.perf_counter() - t0, 1.0,
            f"worst formula gap {worst:.2e}")


def test_criterion_03_interior_contraction_ume():
    t0 = time.perf_counter()
    half = de.Moebius(1, 0, 0, 2)
    sups = de.sup_norm_sequence(half, 30)
    for n in range(1, 31):
        assert abs(sups[n - 1] - 2.0 ** (-n)) <= 1e-12
    v = de.verdict(half, "Hinf")
    assert (v.mean_ergodic, v.uniformly_mean_ergodic) == ("yes", "yes")
    assert v.theorem_tag == "Thm 3.2"
    _report(3, "interior attractor uniformly mean ergodic",
            time.perf_counter() - t0, None)


def test_criterion_04_boundary_obstruction():
    t0 = time.perf_counter()
    for s in (de.gallery_symbol("zsq"), de.gallery_symbol("blend_half")):
        pts = de.boundary_periodic_points(s, 1)
        assert any(abs(bp.point - 1.0) <= 1e-10 and bp.residual <= 1e-10
                   for bp in pts)
        v = de.verdict(s, "A")
        assert (v.mean_ergodic, v.uniformly_mean_ergodic) == ("no", "no")
    _report(4, "boundary fixed point obstructs", time.perf_counter() - t0, None)


def test_criterion_05_boundary_gap_witness():
    t0 = time.perf_counter()
    smallest = math.inf
    for name in de.BOUNDARY_DW_NAMES:
        s = de.gallery_symbol(name)
        for n in (3, 10, 100, 1000):
            w = de.boundary_gap_witness(s, 1.0, n)
            assert w.gap >= 0.5 - 1e-9, (name, n, w.gap)
            smallest = min(smallest, w.gap)
    _report(5, "boundary attractor never uniformly mean ergodic",
            time.perf_counter() - t0, 0.25, f"smallest gap {smallest:.6f}")


def test_criterion_06_parabolic_vs_hyperbolic_density():
    t0 = time.perf_counter()
    parab = de.gallery_symbol("parab")
    seeds = np.exp(2j * np.pi * np.arange(32) / 32)
    seeds = seeds[np.abs(seeds - 1.0) > 1e-9]  # exclude the attractor itself
    estimates = de.density_sweep(parab, seeds, 1.0, [0.1], 10**5)
    low = min(d.estimate for d in estimates)
    assert low >= 0.99
    vp = de.verdict(parab, "A")
    assert (vp.mean_ergodic, vp.uniformly_mean_ergodic) == ("yes", "no")
    hyper = de.gallery_symbol("hyperbolic")
    d = de.orbit_density(hyper, -1.0, 1.0, 0.1, 10**5)
    assert d.estimate == 0.0
    vh = de.verdict(hyper, "A")
    assert vh.mean_ergodic == "no"
    _report(6, "parabolic mean ergodic, hyperbolic not",
            time.perf_counter() - t0, 5.0, f"min parabolic density {low:.5f}")


def test_criterion_07_cesaro_denjoy_wolff():
    t0 = time.perf_counter()
    radii = [0.1, 0.3, 0.5, 0.7, 0.9]
    seeds = _grid(radii, 5)  # 25 seeds, |z| <= 0.9
    worst = 0.0
    for name in de.NON_ELLIPTIC_NAMES:
        s = de.gallery_symbol(name)
        cls = de.classify(s)
        means = de.cesaro_orbit_mean(s, seeds, 10**5)
        dev = float(np.max(np.abs(means - cls.z0)))
        assert dev <= 0.05, (name, dev)
        worst = max(worst, dev)
    _report(7, "Cesaro orbit means reach the attractor",
            time.perf_counter() - t0, 2.0, f"worst deviation {worst:.2e}")


def test_criterion_08_lacunary_construction():
    t0 = time.perf_counter()
    seq = de.lacunary_exponents(theta="golden", R=2.0, K=12)
    errs = de.brute_force_error_table("golden", 10**4)
    running = np.minimum.accumulate(errs)
    for k, n in enumerate(seq.exponents, start=1):
        threshold = 2.0 ** (-k)
        assert seq.errors[k - 1] <= threshold
        if n <= 10**4:
            # the brute-force table confirms the certified value and that the
            # exponent is a running argmin of |1 - lam^m|
            assert errs[n - 1] <= threshold * (1.0 + 1e-9)
            assert errs[n - 1] <= running[n - 1] * (1.0 + 1e-12)
        else:
            direct = 2.0 * abs(math.sin(math.pi * ((n * GOLDEN) % 1.0)))
            assert direct <= threshold * (1.0 + 1e-6)
    _report(8, "lacunary exponent selection", time.perf_counter() - t0, 5.0,
            f"exponents {seq.exponents[:4]}...{seq.exponents[-1]}")


def test_criterion_09_weighted_counterexample():
    t0 = time.perf_counter()
    seq = de.lacunary_exponents(theta="golden", R=2.0, K=30)
    w = de.make_weight_v_alpha(0.5, 0.5, seq, 30)
    pair = de.counterexample_pair(seq, 30, weight=w)
    probes = pair.report["weighted_probes"]
    g_vals = [p["v_abs_g"] for p in probes]
    f_vals = [p["v_abs_f"] for p in probes]
    assert all(b > a for a, b in zip(g_vals, g_vals[1:]))
    assert g_vals[-1] > 3.0 * g_vals[0]
    assert max(f_vals) <= 1.0 / (seq.R - 1.0)
    assert f_vals[-1] < f_vals[-2]
    _report(9, "weighted witness grows, disc-algebra witness decays",
            time.perf_counter() - t0, 1.0,
            f"growth x{g_vals[-1] / g_vals[0]:.2f}")


def test_criterion_10_aperiodic_rotation_dichotomy():
    t0 = time.perf_counter()
    lam = cmath.exp(2j * math.pi * GOLDEN)
    rot = de.Moebius(lam, 0, 0, 1)
    points = _grid([0.25, 0.5, 0.75, 1.0], 4)  # 16 points
    worst = 0.0
    for j in range(1, 9):
        means = de.cesaro_final_means(rot, de.Monomial(j), points, 10**5)
        worst = max(worst, float(np.max(np.abs(means))))
    assert worst <= 2e-4
    seq = de.lacunary_exponents(theta="golden", R=2.0, K=40)
    for K in (10, 20, 40):
        report = de.h2_norm_sq(de.counterexample_pair(seq, K).g)
        assert report.value == float(K)
        assert report.grows_with_terms
    _report(10, "aperiodic rotation: mean ergodic, obstruction certified",
            time.perf_counter() - t0, 3.0, f"max monomial mean {worst:.2e}")


def test_criterion_11_invariant_suites():
    t0 = time.perf_counter()
    counts = {}
    for name, check in invariants.ALL_CHECKS.items():
        counts[name] = check(100)
        assert counts[name] >= 100
    _report(11, "randomized invariant suites", time.perf_counter() - t0, 300.0,
            f"{sum(counts.values())} cases across {len(counts)} suites")


def test_criterion_12_certificates_before_experiments():
    t0 = time.perf_counter()
    searched = []
    # no boundary cycle besides 1 among the periods up to d - 1
    for coeffs in invariants.CRITERION_12_POLYNOMIALS:
        v = de.verdict(de.Polynomial(coeffs), "A")
        assert (v.mean_ergodic, v.uniformly_mean_ergodic) == ("yes", "no")
        searched.append(dict(v.evidence)["boundary_period_searched"])
    assert searched == [1, 1, 2]
    z_half = de.gallery_symbol("z_half")
    for space in ("A", "Hinf"):
        v = de.verdict(z_half, space)
        assert (v.mean_ergodic, v.uniformly_mean_ergodic) == ("yes", "yes")
        assert "image_radius_bound" in dict(v.evidence)
    elapsed = time.perf_counter() - t0
    # the experiment stays the fallback where no certificate applies
    v = de.verdict(de.Polynomial([0.3, 0.5, -0.3]), "A")
    assert "sup_distance_last" in dict(v.evidence)
    _report(12, "certificates before experiments", elapsed, 0.25,
            f"boundary periods searched up to {searched}")


def test_criterion_13_report_writing(tmp_path):
    path = tmp_path / "hyperbolic.json"
    path.write_text(json.dumps(de.gallery_document("hyperbolic")))
    t0 = time.perf_counter()
    assert cli.main(["cesaro", "--symbol", str(path), "--N", "100000",
                     "--out", str(tmp_path)]) == 0
    elapsed = time.perf_counter() - t0
    lines = (tmp_path / "cesaro.csv").read_text().splitlines()
    assert len(lines) == 100_001
    trace = de.cesaro_apply(de.gallery_symbol("hyperbolic"), de.Monomial(1), 0, 100_000)
    last = lines[-1].split(",")
    assert last[0] == "100000"
    assert complex(float(last[3]), float(last[4])) == trace.final
    _report(13, "report writing", elapsed, 1.0, f"{len(lines) - 1} rows")


def test_criterion_14_verdicts_at_the_cost_of_their_decision():
    # validation from the image-radius bound, and the periodic-point search
    # that obstructs interior attracting points of Blaschke products
    rng = np.random.default_rng(invariants.SEED + 14)
    lfts = [invariants.random_moebius_contraction(rng) if i % 2
            else invariants.random_automorphism(rng) for i in range(300)]
    docs = [json.dumps(s.to_dict(), indent=2, sort_keys=True) for s in lfts]
    kinds = {"polynomial": 0, "blaschke": 0}
    while min(kinds.values()) < 300:
        s = invariants.random_circle_symbol(rng)
        if kinds[s.kind] < 300:
            kinds[s.kind] += 1
            docs.append(json.dumps(s.to_dict(), indent=2, sort_keys=True))
    docs += [json.dumps(de.gallery_document(name)) for name in de.GALLERY_NAMES]
    products = []
    while len(products) < 10:
        s = invariants.random_interior_blaschke(rng)
        if s.degree == 2:
            products.append(s)
    t0 = time.perf_counter()
    parsed = [de.parse_symbol(doc) for doc in docs]
    verdicts = [de.verdict(s, "A") for s in products]
    elapsed = time.perf_counter() - t0
    assert [json.dumps(s.to_dict(), indent=2, sort_keys=True) for s in parsed[:900]] == docs[:900]
    assert all((v.mean_ergodic, v.uniformly_mean_ergodic) == ("no", "no")
               and "boundary_periodic_point" in dict(v.evidence) for v in verdicts)
    _report(14, "symbol validation and periodic-point verdicts", elapsed, 0.25,
            f"{len(docs)} documents, {len(verdicts)} verdicts")


def test_criterion_15_weight_construction():
    # the v_alpha weight checks itself on 1,000 radii at construction
    seq = de.lacunary_exponents(theta="golden", R=2.0, K=30)
    t0 = time.perf_counter()
    weights = [de.make_weight_v_alpha(0.5, 0.5, seq) for _ in range(200)]
    elapsed = time.perf_counter() - t0
    assert all(w.C == weights[0].C for w in weights)
    assert weights[0](0.5) == 1.0 and weights[0](1.0 - 1e-6) < 0.1
    _report(15, "v_alpha weight construction", elapsed, 0.25, f"{len(weights)} weights")


def test_criterion_16_density_sweeps_at_the_cost_of_their_certificate():
    # the baseline sweep of the benchmark: parab, 31 circle seeds, 3 radii
    parab = de.gallery_symbol("parab")
    seeds = np.exp(2j * np.pi * np.arange(1, 32) / 32)
    radii, n = (0.5, 0.1, 0.02), 10**5
    t0 = time.perf_counter()
    sweep = de.density_sweep(parab, seeds, 1.0, radii, n)
    elapsed = time.perf_counter() - t0
    hits, min_ratio = invariants.reference_visits(parab, seeds, 1.0, radii, n)
    assert [d.hits for d in sweep] == hits.ravel().tolist()
    assert [d.running_min_ratio for d in sweep] == min_ratio.ravel().tolist()
    assert [d.estimate for d in sweep] == (hits.ravel() / n).tolist()
    assert sweep.certified_step is not None
    _report(16, "density sweeps at the cost of their certificate", elapsed, 0.05,
            f"certified at step {sweep.certified_step} of {n}")


def test_criterion_17_one_inner_test():
    # sigma_p h sigma_p, h hyperbolic: an automorphism however near the circle
    # p lies, so mean ergodicity on A fails (Prop 3.9).  The image circle
    # cancels in |d|^2 - |c|^2 there and read about a fifth of these as
    # non-automorphisms, which are mean ergodic.
    rng = np.random.default_rng(17)
    symbols = [invariants.conjugated_hyperbolic(rng) for _ in range(1000)]
    t0 = time.perf_counter()
    for s in symbols:
        v = de.verdict(s, "A")
        assert (v.mean_ergodic, v.uniformly_mean_ergodic) == ("no", "no"), s
        assert v.theorem_tag == "Prop 3.9 + Thm 3.5", s
    _report(17, "one inner test", time.perf_counter() - t0, 3.0,
            f"{len(symbols)} conjugated hyperbolic automorphisms, no/no")


def test_criterion_18_repeating_orbits_cost_one_period(monkeypatch):
    # stepped orbits that settle into a cycle in doubles, at n = 10^5: the
    # cycle's onset and period come from the plain step loop
    t0 = time.perf_counter()
    grid = invariants.GRID_25
    shapes = [de.gallery_symbol("zsq"), de.gallery_symbol("blend_half"),
              invariants.SIGNED_ZEROS, invariants.SUBNORMALS]
    evaluations = []
    for s in shapes:
        onset, period = invariants.stepped_cycle(s, grid, 2000)
        counting = invariants.CountingSymbol(s)
        blocks = list(de.symbols.orbit_blocks(counting, grid, 10**5))
        assert sum(len(block) for _, block in blocks) == 10**5
        assert counting.calls <= onset + 2 * period, (s, counting.calls, onset, period)
        evaluations.append(counting.calls)
    # the final means of a rotation of order q ask the closed form for q rows
    asked = invariants.count_iterate_rows(monkeypatch)
    coeffs = [1.0] * 10
    for p, q in ((1, 2), (2, 3), (3, 5), (3, 8), (5, 12)):
        rot = de.Moebius(cmath.exp(2j * math.pi * p / q), 0, 0, 1)
        asked.clear()
        means = de.cesaro_final_means(rot, de.TaylorFn(coeffs), grid, 5040)
        assert sum(asked) <= q, (p, q, asked)
        limit = de.TaylorFn(de.rotation_cesaro_limit(q, coeffs))(grid)
        assert float(np.max(np.abs(means - limit))) <= 1e-10, (p, q)
    _report(18, "repeating orbits cost one period", time.perf_counter() - t0, 2.0,
            f"{sum(evaluations)} evaluations for 4 x 10^5 stepped rows")


def test_criterion_19_boundary_fixed_points_from_their_equation(monkeypatch):
    # interior attracting points with a fixed point on the circle: the
    # witness comes from phi(z) = z, and the sampled search is never asked
    rng = np.random.default_rng(invariants.SEED + 19)
    symbols = [invariants.random_interior_blaschke(rng) for _ in range(300)]
    symbols += [invariants.boundary_touching_polynomial(rng) for _ in range(50)]
    symbols += [de.gallery_symbol("zsq"), de.gallery_symbol("blend_half")]

    def no_search(*args):
        raise AssertionError("searched for periodic points")

    monkeypatch.setattr(de.dynamics, "boundary_periodic_points", no_search)
    t0 = time.perf_counter()
    verdicts = [de.verdict(s, space) for s in symbols for space in ("A", "Hinf")]
    elapsed = time.perf_counter() - t0
    for v in verdicts:
        evidence = dict(v.evidence)
        assert (v.mean_ergodic, v.uniformly_mean_ergodic) == ("no", "no"), v
        assert evidence["boundary_periodic_period"] == 1, v
        assert evidence["boundary_periodic_residual"] <= 1e-10, v
    _report(19, "boundary fixed points from their equation", elapsed, 1.0,
            f"{len(verdicts)} verdicts")


def test_criterion_20_report_values_formatted_in_numpy(tmp_path):
    # 10**5 rows of 4 doubles of the numpy kernel's range, log-uniform over
    # 1e-200 <= |x| < 10, give the bytes of one % operation per row
    rng = np.random.default_rng(invariants.SEED + 20)
    table = 10.0 ** rng.uniform(-200, 1, (10**5, 4)) * rng.choice([-1.0, 1.0], (10**5, 4))
    path = tmp_path / "values.csv"
    t0 = time.perf_counter()
    cli._write_csv(str(path), "a,b,c,d", "%.17g,%.17g,%.17g,%.17g", table)
    elapsed = time.perf_counter() - t0
    expected = "a,b,c,d\n" + "".join("%.17g,%.17g,%.17g,%.17g\n" % tuple(r)
                                     for r in table.tolist())
    assert path.read_bytes() == expected.encode()
    _report(20, "report values formatted in numpy", elapsed, 0.25, f"{table.size} values")


def test_criterion_21_taylor_symbols_classified_like_their_polynomials():
    # a Taylor symbol is its stored polynomial, so a parabolic boundary
    # point is found as for the polynomial: an orbit that closes in like 1/n
    # is polished onto it, and not read as an interior point near it
    rng = np.random.default_rng(invariants.SEED + 21)
    polys = [de.Polynomial([0.5, 0.0, 0.5]), de.Polynomial([0.25, 0.5, 0.25])]
    polys += [invariants._boundary_attracting_polynomial(rng, True) for _ in range(60)]
    taylors = [de.Taylor(p.coeffs) for p in polys]
    classes, times = [], []
    for s in taylors:
        t0 = time.perf_counter()
        classes.append(de.classify(s))
        times.append(time.perf_counter() - t0)
    for s, p, cls in zip(taylors, polys, classes):
        assert isinstance(cls, de.ParabolicDW), (s, cls)
        assert cls.to_dict() == de.classify(p).to_dict(), (s, cls)
    for s, cls, elapsed in zip(taylors[:2], classes, times):
        assert cls.z0 == 1.0 and elapsed < 0.005, (s, cls, elapsed)
        a, hinf = de.verdict(s, "A"), de.verdict(s, "Hinf")
        assert (a.mean_ergodic, a.uniformly_mean_ergodic) == ("yes", "no"), a
        assert (hinf.mean_ergodic, hinf.uniformly_mean_ergodic) == ("no", "no"), hinf
    _report(21, "Taylor symbols classified like their polynomials", sum(times), 0.5,
            f"{len(taylors)} parabolic maps, baselines in "
            f"{times[0] * 1e3:.2f} and {times[1] * 1e3:.2f} ms")


def test_criterion_22_closed_forms_at_the_cost_of_their_period():
    # the monomial_mean sweep of the benchmark's orbit_traces: 15 closed forms
    lam = cmath.exp(2j * math.pi * SQRT2M1)
    t0 = time.perf_counter()
    sweep = [de.monomial_mean(lam, j, n) for j in range(1, 6) for n in (10**2, 10**3, 10**4)]
    elapsed = time.perf_counter() - t0
    assert not any(res.periodic for res in sweep)
    # kappa^m of parab (kappa = 1, turns 0/1) on 10^5 single-seed rows, in
    # blocks as orbit_blocks asks for them: read from one period, against
    # the per-m path, which m of shape (1, rows) takes since it holds one
    # value along its first axis, not more than the period
    form = de.symbols._closed_form(de.gallery_symbol("parab"))
    rows = de.symbols.BLOCK_POINTS
    blocks = [np.arange(m0 + 1, min(m0 + rows, 10**5) + 1) for m0 in range(0, 10**5, rows)]
    period = [form.powers(m) for m in blocks]
    per_m = [tuple(part[0] for part in form.powers(m[None])) for m in blocks]
    for got, want in zip(period, per_m):
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
    times = []
    for shape in (lambda m: m, lambda m: m[None]):
        best = math.inf
        for _ in range(5):
            t1 = time.perf_counter()
            for m in blocks:
                form.powers(shape(m))
            best = min(best, time.perf_counter() - t1)
        times.append(best)
    assert times[1] >= 3.0 * times[0], times
    _report(22, "closed forms at the cost of their period", elapsed, 5e-4,
            f"15 monomial means in {elapsed * 1e6:.0f} us; kappa^m of 10^5 rows "
            f"in {times[0] * 1e3:.2f} ms from one period, {times[1] * 1e3:.2f} ms per m")


def test_criterion_23_tiled_sums_do_not_grow_with_n():
    # Cesaro means at n = 10^9 over orbits that repeat: a rotation of order 7
    # from its first row, and blend_half from the onset of its fixed point
    # in doubles.  f is evaluated on the rows before the repeat and on one
    # period, and the sums agree with those at n1 (10^6, or the next n1 in
    # the same residue mod the period) plus (10^9 - n1) times the limit L,
    # rotation_cesaro_limit's for the rotation, f at the fixed point for
    # blend_half, within 10^9 2^-53 sup|f|.  For the rotation the gap is
    # (10^9 - n1)/7 times the sum of f over one period, 5.5e-16 where the
    # exact sum is 0: the rounding of the seven values of f, which a sum
    # over every row repeats as often.
    f, n, n1 = de.Monomial(5), 10**9, 10**6
    rot = de.Moebius(cmath.exp(6j * math.pi / 7), 0, 0, 1)
    blend = de.gallery_symbol("blend_half")
    seeds = 0.7 * np.exp(2j * np.pi * (np.arange(16) + 0.3) / 16)
    grid = invariants.GRID_25
    onset, period = invariants.stepped_cycle(blend, grid, 2000)
    fixed = invariants.stepped_orbit(blend, grid, onset)[-1]
    cases = [(rot, seeds, 0, 7, de.TaylorFn(de.rotation_cesaro_limit(7, [0] * 5 + [1]))(seeds)),
             (blend, grid, onset, period, f(fixed))]
    elapsed, worst = [], 0.0
    for s, z, onset, period, limit in cases:
        counting = invariants.CountingTestFunction(f)
        t0 = time.perf_counter()
        means = de.cesaro_final_means(s, counting, z, n)
        elapsed.append(time.perf_counter() - t0)
        assert counting.rows <= onset + 2 * period, (s, counting.rows, onset, period)
        m1 = n1 + (n - n1) % period
        gap = float(np.max(np.abs(n * means - m1 * de.cesaro_final_means(s, f, z, m1)
                                  - (n - m1) * limit)))
        assert gap <= n * 2.0**-53 * f.boundary_sup(), (s, gap)
        worst = max(worst, gap)
    for t in elapsed:
        assert t < 0.05, elapsed
    _report(23, "tiled sums do not grow with n", sum(elapsed), 0.1,
            f"n = 10^9 in {elapsed[0] * 1e3:.2f} and {elapsed[1] * 1e3:.2f} ms; "
            f"sums off by {worst:.2g}")


def _best_verdict(coeffs, space="A", repeats=5):
    # the verdict of a freshly built symbol, with the least time of the repeats
    times = []
    for _ in range(repeats):
        s = de.Polynomial(coeffs)
        t0 = time.perf_counter()
        v = de.verdict(s, space)
        times.append(time.perf_counter() - t0)
    return v, min(times)


def test_criterion_24_boundary_attracting_polynomials_decided_from_their_cycles():
    # (1 + z^2)/2 touches the circle at 1 and -1, and -1 -> 1; ((1 + z)/2)^2
    # only at 1: both mean ergodic, never uniformly, without an orbit run
    half, t_half = _best_verdict([0.5, 0.0, 0.5])
    square, _ = _best_verdict([0.25, 0.5, 0.25])
    for v in (half, square):
        assert (v.mean_ergodic, v.uniformly_mean_ergodic) == ("yes", "no")
        assert v.theorem_tag == "Thm 3.6(ii) + Thm 3.5"
    assert t_half < 0.005, t_half
    times = []
    for coeffs in invariants.CRITERION_12_POLYNOMIALS:
        v, elapsed = _best_verdict(coeffs)
        assert (v.mean_ergodic, v.uniformly_mean_ergodic) == ("yes", "no")
        times.append(elapsed)
    assert max(times) < 0.0005, times
    # a second boundary fixed point, at -1, blocks mean ergodicity
    v, _ = _best_verdict([0.2, 0.85, -0.2, 0.15], repeats=1)
    assert (v.mean_ergodic, v.uniformly_mean_ergodic) == ("no", "no")
    _report(24, "boundary attracting polynomials decided from their cycles",
            t_half + sum(times), None,
            f"(1 + z^2)/2 in {t_half * 1e3:.2f} ms, criterion-12 polynomials in "
            + ", ".join(f"{t * 1e3:.2f}" for t in times) + " ms")


def test_criterion_25_cesaro_sums_at_an_attracting_origin_at_the_cost_of_their_certificate(
        monkeypatch):
    # the centered requests of the orbit_sweeps workload, rebuilt: zsq,
    # blend_half, five centered contraction polynomials and five Blaschke
    # products of degree 2 and 3 with a zero at 0, on its 25 interior seeds.
    # cesaro_orbit_mean, and z and z^3, at n = 4000 and 10^6: at most 128
    # rows evaluated per call, where summing to the repeat in doubles takes
    # 15 to 1,552 for these symbols, and within 3 2^-53 of the exactly
    # rounded sum over every row
    rng = np.random.default_rng(invariants.SEED + 25)
    symbols = [de.gallery_symbol("zsq"), de.gallery_symbol("blend_half")]
    symbols += [invariants.centered_contraction_polynomial(rng) for _ in range(5)]
    symbols += [invariants.centered_blaschke(rng, 2 + i % 2) for i in range(5)]
    grid = _grid([0.1, 0.3, 0.5, 0.7, 0.9], 5)
    calls = invariants.record_engine_calls(monkeypatch)
    elapsed, rows, worst = 0.0, [], 0.0
    for s in symbols:
        for n in (4000, 10**6):
            folded = list(de.symbols._folded_blocks(s, grid, n))
            for j in (None, 1, 3):
                f = invariants.CountingTestFunction(de.Monomial(j or 1))
                t0 = time.perf_counter()
                means = (de.cesaro_orbit_mean(s, grid, n) if j is None
                         else de.cesaro_final_means(s, f, grid, n))
                elapsed += time.perf_counter() - t0
                rows.append(calls[-1]["rows"])
                assert f.rows == (0 if j is None else rows[-1]), (s, j, f.rows)
                assert rows[-1] <= 128, (s, n, j, rows[-1])
                gap = float(np.max(np.abs(means - invariants.exact_means(f.f, folded, n))))
                assert gap <= 3 * 2.0**-53, (s, n, j, gap)
                worst = max(worst, gap)
    _report(25, "Cesaro sums at an attracting origin at the cost of their certificate",
            elapsed, 0.3, f"{len(rows)} calls, {min(rows)} to {max(rows)} rows each; "
            f"means within {worst / 2.0**-53:.3g} 2^-53 of the exactly rounded sums")


# The orbit-mean tolerance of criterion 7, and of the benchmark's orbit_sweeps
# checks against the attracting point
TOL_DW_MEAN = 0.05


def test_criterion_26_settled_closed_form_orbits_fold(monkeypatch):
    # cesaro_orbit_mean on the 25 interior seeds at n = 10^9 for real
    # contractions: the gallery's hyperbolic, tangent and z_half maps, whose
    # p lies on the real axis, and five hyperbolic automorphisms rotated to
    # fix +-u, as in the orbit_sweeps workload.  Each orbit folds once its
    # closed form settles in doubles, at most 1,200 rows in, and each mean
    # lies within TOL_DW_MEAN of the attracting point.
    t0 = time.perf_counter()
    rng = np.random.default_rng(invariants.SEED + 26)
    symbols = [de.gallery_symbol(name) for name in ("hyperbolic", "tangent", "z_half")]
    for _ in range(5):
        mu, u = rng.uniform(0.2, 0.7), cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        symbols.append(de.Moebius(1 + mu, (1 - mu) * u, (1 - mu) * u.conjugate(), 1 + mu))
    calls = invariants.record_engine_calls(monkeypatch)
    rows, worst = [], 0.0
    for s in symbols:
        means = de.cesaro_orbit_mean(s, invariants.GRID_25, 10**9)
        rows.append(calls[-1]["rows"])
        assert rows[-1] <= 1200, (s, rows[-1])
        dev = float(np.max(np.abs(means - de.classify(s).z0)))
        assert dev <= TOL_DW_MEAN, (s, dev)
        worst = max(worst, dev)
    _report(26, "settled closed-form orbits fold", time.perf_counter() - t0, 0.25,
            f"n = 10^9 from {min(rows)} to {max(rows)} computed rows; "
            f"means within {worst:.2g} of the attracting point")
