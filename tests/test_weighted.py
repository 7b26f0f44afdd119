import numpy as np
import pytest

import disc_ergodics as de
from invariants import check_weight_monotonicity


GOLDEN_SEQ = de.lacunary_exponents(theta="golden", R=2.0, K=30)


# ---------------------------------------------------------------------------
# exponent selection

def test_golden_exponents_are_fibonacci_denominators():
    seq = de.lacunary_exponents(theta="golden", R=2.0, K=5)
    fib = {1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377}
    assert set(seq.exponents) <= fib
    for k, err in enumerate(seq.errors, start=1):
        assert err <= 2.0 ** (-k)


def test_golden_selection_matches_brute_force_argmins():
    # running argmins of |1 - lam^n| over n <= 1e5 are convergent denominators
    errs = de.brute_force_error_table("golden", 10**5)
    running = np.minimum.accumulate(errs)
    argmin_set = {int(n) for n in np.nonzero(errs <= running)[0] + 1}
    seq = de.lacunary_exponents(theta="golden", R=2.0, K=5)
    assert set(seq.exponents) <= argmin_set
    for k, n in enumerate(seq.exponents, start=1):
        assert errs[n - 1] <= 2.0 ** (-k) * (1.0 + 1e-9)


def test_root_of_unity_rejected():
    with pytest.raises(ValueError):
        de.lacunary_exponents(theta=0.5, R=2.0, K=3)
    with pytest.raises(ValueError):
        de.lacunary_exponents(lam=-1.0, R=2.0, K=3)


def test_sqrt2_selection():
    seq = de.lacunary_exponents(theta="sqrt2", R=10.0, K=3)
    pell = {1, 2, 5, 12, 29, 70, 169, 408, 985, 2378, 5741}
    assert set(seq.exponents) <= pell
    assert seq.exponents == (29, 408, 2378)


def test_budget_exceeded():
    # the golden rotation has |1 - lam^q| ~ 2 pi / (sqrt(5) q) at its best
    # exponents q, so |1 - lam^q| <= 1000^-k needs q ~ 2.8 * 1000^k: none
    # for k = 5 under EXPONENT_BUDGET = 1e15
    with pytest.raises(de.BudgetExceededError, match="no exponent <= 1000000000000000"):
        de.lacunary_exponents(theta="golden", R=1000.0, K=12)


def test_sequence_invariant_enforced():
    with pytest.raises(ValueError):
        de.LacunarySequence(GOLDEN_SEQ.lam, 2.0, (8, 13), (0.9, 0.4))


def test_sequence_round_trip():
    from disc_ergodics.weighted import parse_sequence

    doc = GOLDEN_SEQ.to_dict()
    again = parse_sequence(doc)
    assert again.exponents == GOLDEN_SEQ.exponents


# ---------------------------------------------------------------------------
# weights

def test_weight_is_one_at_and_below_r0():
    w = de.make_weight_v_alpha(0.5, 0.5, GOLDEN_SEQ, 20)
    assert w(0.5) == 1.0
    assert w(0.25) == 1.0


def test_weight_decreases_toward_boundary():
    w = de.make_weight_v_alpha(0.5, 0.5, GOLDEN_SEQ, 20)
    assert w(0.99) < w(0.9) < 1.0


def test_weight_tail_bound_reported():
    w = de.make_weight_v_alpha(0.5, 0.5, GOLDEN_SEQ, 10)
    assert 0.0 <= w.tail_bound(0.9) <= 1e-100 or w.tail_bound(0.9) < 1.0


def test_weight_parameter_validation():
    with pytest.raises(ValueError):
        de.make_weight_v_alpha(1.5, 0.5, GOLDEN_SEQ)
    with pytest.raises(ValueError):
        de.make_weight_v_alpha(0.5, 1.5, GOLDEN_SEQ)
    with pytest.raises(ValueError):
        de.make_weight_v_alpha(0.5, 0.5, GOLDEN_SEQ, 99)


def test_weight_scalar_is_the_array_element():
    w = de.make_weight_v_alpha(0.5, 0.5, GOLDEN_SEQ, 20)
    radii = np.concatenate((np.linspace(0.0, 1.0, 1001), 1.0 - np.geomspace(1e-9, 0.5, 500)))
    values, sums = w(radii), w.partial_sum(radii)
    for r, v, ps in zip(radii, values, sums):
        assert type(w(float(r))) is float and w(float(r)) == v
        assert type(w.partial_sum(float(r))) is float and w.partial_sum(float(r)) == ps


def test_weight_with_decreasing_partial_sums_is_rejected(monkeypatch):
    # a partial sum that falls in r makes the weight rise
    monkeypatch.setattr(de.VAlpha, "partial_sum", lambda self, r: 2.0 - np.asarray(r, dtype=float))
    with pytest.raises(ValueError, match="non-increasing"):
        de.make_weight_v_alpha(0.5, 0.5, GOLDEN_SEQ, 20)


def test_weight_monotonicity_random_cases():
    assert check_weight_monotonicity(100) >= 100


# ---------------------------------------------------------------------------
# norms

def test_weighted_sup_norm_constant_function():
    w = de.make_weight_v_alpha(0.5, 0.5, GOLDEN_SEQ, 20)
    one = de.SparseSeries([(0, 1.0)])
    assert de.weighted_sup_norm(one, w) == pytest.approx(1.0, abs=1e-12)


def test_h2_norm_examples():
    rep = de.h2_norm_sq(de.TaylorFn([0, 1, 1]))
    assert rep.value == 2.0
    pair = de.counterexample_pair(GOLDEN_SEQ, 20)
    rep_f = de.h2_norm_sq(pair.f)
    assert rep_f.value <= 1.0 / (2.0 ** 2 - 1.0)  # sum R^-2k < 1/(R^2-1)
    assert not rep_f.grows_with_terms
    rep_g = de.h2_norm_sq(pair.g)
    assert rep_g.value == 20.0 and rep_g.grows_with_terms


# ---------------------------------------------------------------------------
# counterexample pair

def test_counterexample_coefficient_identity():
    pair = de.counterexample_pair(GOLDEN_SEQ, 30)
    assert pair.report["coeff_identity_max_error"] <= 1e-15
    assert pair.report["abs_coeff_sum_f"] <= 1.0  # sum 2^-k
    assert pair.report["reference_constant_R_over_R_minus_1"] == 2.0


def test_counterexample_weighted_probes_grow():
    w = de.make_weight_v_alpha(0.5, 0.5, GOLDEN_SEQ, 30)
    pair = de.counterexample_pair(GOLDEN_SEQ, 30, weight=w)
    probes = pair.report["weighted_probes"]
    g_vals = [p["v_abs_g"] for p in probes]
    assert all(b > a for a, b in zip(g_vals, g_vals[1:]))
    assert g_vals[-1] > 3.0 * g_vals[0]
    # v|g| is proportional to (partial sum)^(1-alpha) with constant C
    ratios = [p["v_abs_g"] / p["partial_sum_pow"] for p in probes]
    assert max(ratios) - min(ratios) <= 1e-12
    assert ratios[0] == pytest.approx(w.C, rel=1e-12)


def test_counterexample_f_values_decay():
    w = de.make_weight_v_alpha(0.5, 0.5, GOLDEN_SEQ, 30)
    pair = de.counterexample_pair(GOLDEN_SEQ, 30, weight=w)
    probes = pair.report["weighted_probes"]
    f_vals = [p["v_abs_f"] for p in probes]
    assert f_vals[-1] < f_vals[-2]
    assert max(f_vals) <= 1.0 / (GOLDEN_SEQ.R - 1.0)


def test_divergence_witness_monotone():
    # r -> (sum r^{n_k})^(1-alpha) is non-decreasing and eventually large
    alpha = 0.5
    radii = np.linspace(0.5, 1.0 - 1e-8, 200)
    w = de.make_weight_v_alpha(alpha, 0.5, GOLDEN_SEQ, 30)
    values = np.array([w.partial_sum(float(r)) ** (1 - alpha) for r in radii])
    assert np.all(np.diff(values) >= -1e-12)
    assert values[-1] > 3.0


def test_counterexample_requires_k_in_range():
    with pytest.raises(ValueError):
        de.counterexample_pair(GOLDEN_SEQ, 99)


def test_sparse_series_eval_matches_direct():
    pair = de.counterexample_pair(GOLDEN_SEQ, 8)
    z = 0.97
    direct = sum(c * z ** n for n, c in pair.g.terms)
    assert complex(pair.g(z)) == pytest.approx(direct, abs=1e-14)
    arr = pair.g(np.array([0.5, 0.9]))
    assert arr.shape == (2,)


def test_sparse_series_scalar_is_the_array_element():
    pair = de.counterexample_pair(GOLDEN_SEQ, 30)
    rng = np.random.default_rng(11)
    z = np.sqrt(rng.uniform(0.0, 1.0, 200)) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 200))
    z = np.concatenate((z, [0.0, 1.0, -1.0, 1.0 - 1e-5]))
    for series in (pair.f, pair.g):
        values = series(z)
        for zi, v in zip(z, values):
            assert type(series(complex(zi))) is complex and series(complex(zi)) == v
