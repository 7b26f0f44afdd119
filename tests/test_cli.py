import json
import math
import os

import numpy as np
import pytest

from disc_ergodics import cli, dynamics, ergodicity, gallery


def _write_gallery(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(gallery.gallery_document(name)))
    return str(path)


def test_classify_writes_report(tmp_path):
    sym = _write_gallery(tmp_path, "rot_i")
    code = cli.main(["classify", "--symbol", sym, "--out", str(tmp_path)])
    assert code == 0
    doc = cli.load_report(str(tmp_path / "classify_report.json"))
    assert doc["kind"] == "elliptic_automorphism"
    assert doc["period"] == 4


def test_verdict_exit_codes(tmp_path):
    sym = _write_gallery(tmp_path, "zsq")
    assert cli.main(["verdict", "--symbol", sym, "--space", "A",
                     "--out", str(tmp_path)]) == 0
    doc = cli.load_report(str(tmp_path / "verdict_A.json"))
    assert doc["mean_ergodic"] == "no" and "Thm 3.3" in doc["theorem_tag"]
    # weighted space is undecided for this symbol: exit 2
    assert cli.main(["verdict", "--symbol", sym, "--space", "Hv",
                     "--out", str(tmp_path)]) == 2


def test_usage_errors_exit_one(tmp_path, capsys):
    assert cli.main(["verdict", "--symbol", "no-such-file.json"]) == 1
    assert cli.main(["nonsense"]) == 1
    sym = _write_gallery(tmp_path, "zsq")
    assert cli.main(["cesaro", "--symbol", sym, "--tol", "0.5"]) == 1
    capsys.readouterr()


def test_cesaro_csv_deterministic(tmp_path):
    sym = _write_gallery(tmp_path, "parab")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        code = cli.main(["cesaro", "--symbol", sym, "--f", "monomial:1",
                         "--z", "0", "--N", "2000", "--out", str(out)])
        assert code == 0
    assert (out1 / "cesaro.csv").read_bytes() == (out2 / "cesaro.csv").read_bytes()
    header = (out1 / "cesaro.csv").read_text().splitlines()[0]
    assert header == "n,orbit_re,orbit_im,mean_re,mean_im"


def test_cesaro_witness_with_a_huge_power(tmp_path):
    sym = _write_gallery(tmp_path, "hyperbolic")
    code = cli.main(["cesaro", "--symbol", sym, "--f", f"witness:1;{2**3173}",
                     "--z", "0", "--N", "300", "--out", str(tmp_path)])
    assert code == 0
    last = (tmp_path / "cesaro.csv").read_text().splitlines()[-1].split(",")
    assert 0.0 <= float(last[3]) <= 1.0


def test_verdict_report_names_the_density_certificate(tmp_path):
    sym = tmp_path / "poly.json"
    sym.write_text(json.dumps({"kind": "polynomial",
                               "coeffs": [[0.19, 0.0], [0.8, 0.0], [0.01, 0.0]]}))
    reports = []
    for out in (tmp_path / "a", tmp_path / "b"):
        assert cli.main(["verdict", "--symbol", str(sym), "--space", "A",
                         "--out", str(out)]) == 0
        reports.append((out / "verdict_A.json").read_bytes())
    assert reports[0] == reports[1]
    doc = json.loads(reports[0])
    assert (doc["mean_ergodic"], doc["uniformly_mean_ergodic"]) == ("yes", "no")
    evidence = {e["name"]: e["value"] for e in doc["evidence"]}
    assert evidence["boundary_period_searched"] == 1


def test_cesaro_final_mean_near_attractor(tmp_path):
    sym = _write_gallery(tmp_path, "parab")
    code = cli.main(["cesaro", "--symbol", sym, "--f", "monomial:1",
                     "--z", "0", "--N", "100000", "--out", str(tmp_path)])
    assert code == 0
    last = (tmp_path / "cesaro.csv").read_text().splitlines()[-1]
    mean_re, mean_im = float(last.split(",")[3]), float(last.split(",")[4])
    assert abs(complex(mean_re, mean_im) - 1.0) <= 5e-2


def test_density_command(tmp_path):
    sym = _write_gallery(tmp_path, "tangent")
    code = cli.main(["density", "--symbol", sym, "--radius", "0.1",
                     "--N", "1000", "--seeds", "8", "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "density.csv").read_text().splitlines()
    assert rows[0] == "seed_re,seed_im,radius,n,hits,estimate,running_min_ratio"
    assert len(rows) > 1


@pytest.mark.parametrize("name, certified", [("tangent", True), ("blend_half", False)])
def test_density_report_names_the_certified_step(tmp_path, name, certified):
    # the affine tangent map is certified within a few steps; the quadratic
    # blend has no closed form, and every step is taken
    sym = _write_gallery(tmp_path, name)
    assert cli.main(["density", "--symbol", sym, "--radius", "0.1", "--N", "1000",
                     "--seeds", "8", "--format", "report", "--out", str(tmp_path)]) == 0
    step = cli.load_report(str(tmp_path / "density_report.json"))["certified_step"]
    assert (step is not None) == certified and (step is None or 0 < step < 1000)


def test_weyl_command(tmp_path):
    sym = _write_gallery(tmp_path, "rot_golden")
    code = cli.main(["weyl", "--symbol", sym, "--z", "1", "--N", "10000",
                     "--jmax", "4", "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "weyl.csv").read_text().splitlines()
    assert rows[0] == "j,abs_mean"
    assert len(rows) == 5
    assert all(float(r.split(",")[1]) < 0.01 for r in rows[1:])


def test_counterexample_command(tmp_path):
    code = cli.main(["counterexample", "--theta", "golden", "--K", "12",
                     "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "counterexample.csv").read_text().splitlines()
    assert rows[0] == "radius,v,v_abs_f,v_abs_g"
    doc = cli.load_report(str(tmp_path / "counterexample_report.json"))
    assert doc["h2_norm_sq_g"] == 12.0
    assert doc["sequence"]["exponents"][0] == 8


def test_gallery_command(tmp_path):
    code = cli.main(["gallery", "--out", str(tmp_path)])
    assert code in (0, 2)
    written = sorted(os.listdir(tmp_path / "gallery"))
    assert "zsq_classify.json" in written
    assert "parab_verdict_A.json" in written
    doc = cli.load_report(str(tmp_path / "gallery" / "parab_verdict_A.json"))
    assert doc["mean_ergodic"] == "yes" and doc["uniformly_mean_ergodic"] == "no"


def test_budget_exceeded_exits_one(tmp_path, capsys):
    # R = 1000 asks |1 - lam^n| <= 1000^-k; at k = 5 no exponent under the
    # budget qualifies
    code = cli.main(["counterexample", "--R", "1000", "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: no exponent") and err.count("\n") == 1


@pytest.mark.parametrize("exc", [
    dynamics.NonConvergenceError("no convergence within 10 iterations at tol 1e-06"),
    ArithmeticError("collinear boundary images; not a disc-preserving map"),
], ids=["non_convergence", "arithmetic"])
def test_library_errors_exit_one(tmp_path, capsys, monkeypatch, exc):
    def fail(*args, **kwargs):
        raise exc

    sym = _write_gallery(tmp_path, "zsq")
    monkeypatch.setattr(dynamics, "classify", fail)
    assert cli.main(["classify", "--symbol", sym, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {exc}\n"


def test_orbit_leaving_the_disc_exits_one(tmp_path, capsys):
    # z^2 given as a polynomial carries the circle onto itself; rounding
    # moves a seed on it off the circle, and the circle repels it
    sym = tmp_path / "zsq.json"
    sym.write_text(json.dumps({"kind": "polynomial", "coeffs": [0, 0, 1]}))
    assert cli.main(["weyl", "--symbol", str(sym), "--z", "0.6,0.8",
                     "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: orbit leaves the closed disc at step 26\n"
    assert not (tmp_path / "weyl.csv").exists()


def _refuses_circle_seeds(tmp_path, capsys, monkeypatch, doc, target):
    def fail(*args, **kwargs):
        raise AssertionError("density_sweep called")

    monkeypatch.setattr(ergodicity, "density_sweep", fail)
    sym = tmp_path / "b.json"
    sym.write_text(json.dumps(doc))
    assert isinstance(dynamics.classify(cli._load_symbol(str(sym))), dynamics.InteriorDW)
    assert cli.main(["density", "--symbol", str(sym), "--radius", "0.1", "--seeds", "8",
                     "--N", "2000", "--out", str(tmp_path)] + target) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "unit circle" in err and "repels rounding" in err
    assert not (tmp_path / "density.csv").exists()


BLASCHKE = {"kind": "blaschke", "rotation": 0.0, "zeros": [[0.3, 0.0], [0.5, 0.2]]}


def test_density_refuses_circle_seeds_of_an_interior_blaschke_product(tmp_path, capsys,
                                                                       monkeypatch):
    # the product maps the circle onto itself: its boundary seeds never
    # reach the interior attracting point, so nothing is stepped
    _refuses_circle_seeds(tmp_path, capsys, monkeypatch, BLASCHKE, [])


@pytest.mark.parametrize("z0", ["0", "0.5,0.5"])
def test_density_refuses_an_interior_blaschke_product_for_any_target(tmp_path, capsys,
                                                                     monkeypatch, z0):
    # whatever the target, the seeds' visits would measure rounding
    _refuses_circle_seeds(tmp_path, capsys, monkeypatch, BLASCHKE, ["--z0", z0])


@pytest.mark.parametrize("doc", [
    {"kind": "polynomial", "coeffs": [0, 0, 1]},
    {"kind": "polynomial", "coeffs": [0, 0, 0, [0.6, -0.8]]},
    {"kind": "taylor", "coeffs": [0, 0, [0.0, 1.0]]},
], ids=["zsq", "rotated_cube", "taylor"])
@pytest.mark.parametrize("target", [[], ["--z0", "0"]], ids=["no_target", "z0"])
def test_density_refuses_a_unimodular_monomial(tmp_path, capsys, monkeypatch, doc, target):
    # c z^k with |c| = 1 and k >= 2 is a Blaschke product given by its
    # coefficients; stepped, z^2 left the disc at step 24
    _refuses_circle_seeds(tmp_path, capsys, monkeypatch, doc, target)


@pytest.mark.parametrize("target", [[], ["--z0", "0"]], ids=["no_target", "z0"])
def test_density_steps_a_monomial_inside_the_disc(tmp_path, monkeypatch, target):
    if target:
        # a map that moves the circle off itself needs no classification
        # when the target is given
        monkeypatch.setattr(dynamics, "classify", None)
    sym = tmp_path / "half_sq.json"
    sym.write_text(json.dumps({"kind": "polynomial", "coeffs": [0, 0, 0.5]}))
    assert cli.main(["density", "--symbol", str(sym), "--radius", "0.1", "--seeds", "4",
                     "--N", "200", "--out", str(tmp_path)] + target) == 0
    assert (tmp_path / "density.csv").exists()


@pytest.mark.parametrize("argv", [
    ["cesaro", "--z", "-0.2,0.7", "--format", "report"],
    ["cesaro", "--z", "-0.2-0.7j"],
    ["density", "--z0", "-1,0", "--seeds", "4"],
    ["weyl", "--z", "-1,0"],
], ids=lambda argv: " ".join(argv))
def test_seeds_may_start_with_a_minus_sign(tmp_path, capsys, argv):
    # argparse alone reads "-0.2,0.7" as a flag; the value must mean what
    # the --z=-0.2,0.7 form means
    sym = _write_gallery(tmp_path, "rot_golden")
    runs = []
    for i, args in enumerate((argv, argv[:1] + [f"{argv[1]}={argv[2]}"] + argv[3:])):
        runs.append(_run_recorded([args[0], "--symbol", sym, "--N", "50"] + args[1:],
                                  tmp_path / str(i), capsys))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 and runs[0][3]
    if "--format" in argv:
        assert cli.load_report(str(tmp_path / "0" / "cesaro_report.json"))["z"] == [-0.2, 0.7]


def test_density_without_a_seed_exits_one(tmp_path, capsys):
    # tangent attracts to z0 = 1, the only seed of --seeds 1
    sym = _write_gallery(tmp_path, "tangent")
    assert cli.main(["density", "--symbol", sym, "--seeds", "1", "--N", "100",
                     "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "coincides with z0" in err and "--seeds must be at least 2" in err
    assert not (tmp_path / "density.csv").exists()


@pytest.mark.parametrize("z0, shown", [("nan", "(nan+0j)"), ("5", "(5+0j)")])
def test_density_refuses_a_target_off_the_disc(tmp_path, capsys, monkeypatch, z0, shown):
    # a nan target would drop every seed and blame --seeds; one off the
    # disc would read density 0 for every seed
    def fail(*args, **kwargs):
        raise AssertionError("density_sweep called")

    monkeypatch.setattr(ergodicity, "density_sweep", fail)
    sym = _write_gallery(tmp_path, "tangent")
    assert cli.main(["density", "--symbol", sym, "--z0", z0, "--N", "100",
                     "--out", str(tmp_path)]) == 1
    message = f"--z0 must be a point of the closed disc, got {shown}"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "density.csv").exists()



@pytest.mark.parametrize("argv, message", [
    (["density", "--radius", "0"], "radius must be finite and positive, got 0"),
    (["density", "--radius", "-0.5"], "radius must be finite and positive, got -0.5"),
    (["density", "--radius", "nan"], "radius must be finite and positive, got nan"),
    (["density", "--radius", "inf"], "radius must be finite and positive, got inf"),
    (["cesaro", "--z", "nan"], "seed (nan+0j) is not a point of the closed disc"),
    (["cesaro", "--z", "1.5"], "seed (1.5+0j) is not a point of the closed disc"),
    (["weyl", "--z", "0,nan"], "seed nanj is not a point of the closed disc"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else "")
def test_invalid_radii_and_seeds_exit_one(tmp_path, capsys, argv, message):
    sym = _write_gallery(tmp_path, "tangent")
    assert cli.main(argv[:1] + ["--symbol", sym, "--N", "100", "--out", str(tmp_path)]
                    + argv[1:]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not [p.name for p in tmp_path.iterdir() if p.suffix == ".csv"]


def test_nan_abs_sum_bound_exits_one(tmp_path, capsys):
    # Python's json reads NaN; the document is refused, never written back
    sym = tmp_path / "taylor.json"
    sym.write_text('{"kind": "taylor", "coeffs": [0.2, 0.3], "abs_sum_bound": NaN}')
    assert cli.main(["classify", "--symbol", str(sym), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (f"error: invalid symbol in {sym}: taylor: "
                                       "abs_sum_bound must be finite, got nan\n")

_SPECIAL_DOUBLES = [-0.0, 5e-324, 2.2250738585072014e-308, 1.0 - 2.0**-53,
                    1e300, float("inf"), float("nan"), -float("inf")]


@pytest.mark.parametrize("rows", [0, 1, 1023, 1024, 1025, 2049])
def test_write_csv_matches_one_format_per_float(tmp_path, rows):
    # a count column, then random doubles over the exponent range with the
    # special doubles at every seventh place
    rng = np.random.default_rng(rows)
    values = rng.standard_normal(3 * rows) * 10.0 ** rng.integers(-300, 300, 3 * rows)
    values[::7] = np.resize(_SPECIAL_DOUBLES, values[::7].size)
    table = np.column_stack((np.arange(1, rows + 1), values.reshape(rows, 3)))
    path = tmp_path / "t.csv"
    cli._write_csv(str(path), "n,a,b,c", "%d,%.17g,%.17g,%.17g", table)
    expected = "n,a,b,c\n" + "".join(
        ",".join([str(int(r[0]))] + [format(x, ".17g") for x in r[1:]]) + "\n"
        for r in table.tolist())
    assert path.read_bytes() == expected.encode()


def _assert_writes_as_percent(tmp_path, row, table):
    # _write_csv gives, line by line, the text of one % operation per row
    path = tmp_path / "t.csv"
    cli._write_csv(str(path), "h", row, table)
    expected = ["h"] + [row % tuple(r) for r in table.tolist()]
    assert path.read_text().split("\n") == expected + [""]


def _near_ties():
    # doubles x = M·2**(b-52) whose x·10**k is d·2**-L from a half-integer,
    # for x·10**k in [1e16, 1e17): from k = 23 on, 10**k is no double, the
    # kernel's fraction is rounded, and Python formats these
    ties = []
    for k in range(23, 31):
        for b in range(-60, -20):
            L = 52 - k - b                     # x·10**k = M·5**k / 2**L
            inverse = pow(5**k, -1, 2**L)
            for d in range(-8, 9):
                first = (2 ** (L - 1) + d) * inverse % 2**L
                first += -(-(2**52 - first) // 2**L) * 2**L
                ties += [math.ldexp(m, b - 52) for m in range(first, 2**53, 2**L)
                         if 10**16 <= m * 5**k >> L < 10**17]
    return np.array(ties)


def _fast_range_cases():
    # the hard cases of the numpy kernel, which takes floats with
    # 1e-200 <= |x| < 10, and their neighbours that Python formats
    powers = np.array([float(f"1e{k}") for k in range(-201, 18)])
    odd = np.arange(1, 2**10, 2.0)
    rng = np.random.default_rng(20)
    places = 10.0 ** rng.integers(0, 6, 20_000)
    return {
        "log_uniform": 10.0 ** rng.uniform(-200, 17, 60_000),
        "powers_of_ten": np.concatenate([np.nextafter(powers, 0), powers,
                                         np.nextafter(powers, np.inf)]),
        # the doubles just below 1e-14, 1e-70, ... round up to the power
        "round_up": np.array([float(f"9.9999999999999999{d}e{k}")
                              for k in range(-201, 17) for d in ("", "9", "4")]),
        "fixed_exponent_switch": np.outer([1e-4, 1e-5], 1 + np.arange(-64, 65) * 2.0**-53),
        "three_digit_exponents": 10.0 ** rng.uniform(-201, -99, 20_000),
        # from 10 on, Python formats floats: the point among the digits
        "point_among_the_digits": np.round(10.0 ** rng.uniform(1, 17, 20_000) * places) / places,
        # m·2**-j: among them every exact tie of 17 digits, such as 2**-25
        "ties": np.ldexp(odd, -np.arange(1, 70)[:, None]),
        "near_ties": _near_ties(),
        # tiled past the 128 values from which a block goes to the kernel
        "range_edges": np.tile([1e-200, np.nextafter(1e-200, 0), np.nextafter(1e-200, 1),
                                1e-201, 1e17, np.nextafter(1e17, 0), 1e17 + 16, 9.5, 99.5,
                                10, np.nextafter(10, 0), 5e-324, 2.2250738585072014e-308,
                                0.0, 1.0, 1e-300, 1e300], 8),
    }


@pytest.mark.parametrize("case", sorted(_fast_range_cases()))
def test_write_csv_matches_percent_across_the_fast_range(tmp_path, case):
    values = _fast_range_cases()[case].ravel()
    signs = np.random.default_rng(len(values)).choice([-1.0, 1.0], len(values))
    table = np.concatenate([values, values * signs])
    table = np.resize(table, (-(-len(table) // 3), 3))
    _assert_writes_as_percent(tmp_path, "%.17g,%.17g,%.17g", table)


def test_write_csv_counts_as_percent_d(tmp_path):
    rng = np.random.default_rng(22)
    values = np.concatenate([
        [0.0, -0.0, 9, 10, 99, 100, 2.0**53, 2.0**53 + 2, 1e16 - 2, 1e16, 1e17, 1e300,
         -1e300, -1, -9, -10, 0.5, -0.5, -0.9999, 1.5, -1.5, 9.99, 123456789012345.6],
        np.floor(10.0 ** rng.uniform(0, 16, 3000)) * rng.choice([-1, 1], 3000),
        rng.uniform(-1e6, 1e6, 3000)])
    table = np.column_stack((values, values[::-1], np.abs(values)))
    _assert_writes_as_percent(tmp_path, "%d,%.17g,%d", table)


def test_write_csv_raises_like_percent_d_on_non_finite_counts(tmp_path):
    for bad, error in ((np.nan, ValueError), (np.inf, OverflowError)):
        with pytest.raises(error):
            "%d" % bad
        for rows in (1, 1000):               # Python alone, and the kernel
            with pytest.raises(error):
                cli._write_csv(str(tmp_path / "t.csv"), "n", "%d",
                               np.append(np.ones(rows), bad)[:, None])


def test_cesaro_csv_round_trips_the_trace(tmp_path):
    sym = _write_gallery(tmp_path, "parab")
    assert cli.main(["cesaro", "--symbol", sym, "--f", "monomial:2", "--z", "0.3,0.4",
                     "--N", "3000", "--out", str(tmp_path)]) == 0
    trace = ergodicity.cesaro_apply(gallery.gallery_symbol("parab"), ergodicity.Monomial(2),
                                    0.3 + 0.4j, 3000)
    lines = (tmp_path / "cesaro.csv").read_text().splitlines()[1:]
    table = np.array([[float(x) for x in line.split(",")] for line in lines])
    assert np.array_equal(table[:, 0], np.arange(1, 3001))
    for column, expected in ((1, trace.orbit.real), (2, trace.orbit.imag),
                             (3, trace.partial_means.real), (4, trace.partial_means.imag)):
        assert table[:, column].tobytes() == expected.tobytes()


def _run_recorded(argv, out, capsys):
    code = cli.main(argv + ["--out", str(out)])
    captured = capsys.readouterr()
    files = {p.name: p.read_bytes() for p in sorted(out.glob("*"))} if out.exists() else {}
    return code, captured.out, captured.err, files


def test_parser_is_built_once_and_reused(tmp_path, capsys):
    sym = _write_gallery(tmp_path, "rot_golden")
    calls = {"usage": ["cesaro", "--symbol", sym, "--N", "0"],
             "cesaro": ["cesaro", "--symbol", sym, "--N", "500"],
             "weyl": ["weyl", "--symbol", sym, "--N", "500"]}
    runs = {}
    for order in (("usage", "cesaro", "weyl"), ("weyl", "cesaro", "usage")):
        for name in order:
            out = tmp_path / "-".join(order) / name
            runs.setdefault(name, []).append(_run_recorded(calls[name], out, capsys))
    for name, (first, second) in runs.items():
        assert first == second, name
    assert runs["usage"][0][0] == 1 and runs["cesaro"][0][0] == runs["weyl"][0][0] == 0
    assert cli._parser.cache_info().misses == 1


@pytest.mark.parametrize("argv", [
    ["classify", "--N", "5"],
    ["verdict", "--format", "report"],
    ["cesaro", "--tol", "1e-6"],
    ["cesaro", "--N", "0"],
    ["density", "--seeds", "0"],
    ["weyl", "--jmax", "0"],
    ["counterexample", "--K", "0"],
    ["gallery", "--N", "-3"],
    ["gallery", "--N", "0"],
    ["cesaro", "--z", "abc"],
    ["density", "--z0", "1,2,3"],
], ids=lambda argv: " ".join(argv))
def test_bad_flags_are_usage_errors(tmp_path, capsys, argv):
    # Each subcommand accepts only the flags it reads; budgets must be
    # positive and seeds parse as complex numbers, all checked by argparse.
    sym = _write_gallery(tmp_path, "zsq")
    if argv[0] in ("classify", "verdict", "cesaro", "density", "weyl"):
        argv = [argv[0], "--symbol", sym] + argv[1:]
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.count("usage: disc-ergodics") == 1
    assert err.count("error: ") == 1 and err.endswith("\n")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_reports_reparse(tmp_path):
    sym = _write_gallery(tmp_path, "hyperbolic")
    cli.main(["verdict", "--symbol", sym, "--space", "A", "--out", str(tmp_path)])
    doc = cli.load_report(str(tmp_path / "verdict_A.json"))
    assert set(doc) >= {"space", "mean_ergodic", "uniformly_mean_ergodic",
                        "theorem_tag", "evidence"}


def test_unknown_flag_rejected(tmp_path):
    sym = _write_gallery(tmp_path, "rot_i")
    assert cli.main(["classify", "--symbol", sym, "--bogus", "1"]) == 1


def test_report_format_side_outputs(tmp_path):
    sym = _write_gallery(tmp_path, "z_half")
    code = cli.main(["cesaro", "--symbol", sym, "--z", "1", "--N", "100",
                     "--format", "report", "--out", str(tmp_path)])
    assert code == 0
    doc = cli.load_report(str(tmp_path / "cesaro_report.json"))
    assert doc["n"] == 100


def test_counterexample_report_reparses(tmp_path):
    from disc_ergodics.weighted import parse_sequence, parse_weight

    cli.main(["counterexample", "--theta", "golden", "--K", "10",
              "--out", str(tmp_path)])
    doc = cli.load_report(str(tmp_path / "counterexample_report.json"))
    seq = parse_sequence(doc["sequence"])
    assert len(seq) == 10
    w = parse_weight(doc["weight"])
    assert w(w.r0) == 1.0


def test_classify_report_includes_residual(tmp_path):
    sym = _write_gallery(tmp_path, "hyperbolic")
    cli.main(["classify", "--symbol", sym, "--out", str(tmp_path)])
    doc = cli.load_report(str(tmp_path / "classify_report.json"))
    assert doc["residual"] <= 1e-9
    assert "tol_parabolic" in doc["tolerances"]
