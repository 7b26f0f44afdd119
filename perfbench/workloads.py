"""Seeded request mixes and the expected output of every request.

A workload is a list of requests built from one seed.  Each request either
runs ``cli.main`` in-process or calls the public API of ``disc_ergodics``,
and carries a check that raises ``Mismatch`` when the output is not the one
fixed in advance: gallery verdicts as pinned by the acceptance tests and the
README, generated symbols by the rule of their family (every family is built
so that its verdict is known by construction), experiments by the tolerances
of the acceptance criteria.  The program receives only the generated symbol
documents and the arguments.

Library requests call functions through their module attribute
(``ergodicity.verdict``, not a name bound at import), so the wrappers that
``tracing`` installs on those modules see every call.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from disc_ergodics import cli, dynamics, ergodicity, gallery, weighted

YES, NO, UNKNOWN = "yes", "no", "unknown"

# Tolerances of the acceptance criteria (tests/test_acceptance.py).
TOL_PERIODIC = 1e-10        # 01: Cesaro limit of a periodic rotation
TOL_MONOMIAL = 1e-12        # 02: closed-form monomial mean norm
GAP_MIN = 0.5 - 1e-9        # 05: boundary witness gap
DENSITY_MIN = 0.99          # 06: parabolic visit density; hyperbolic is 0
TOL_DW_MEAN = 0.05          # 07: Cesaro orbit mean against the attractor

SPACES = ("A", "Hinf", "Hv", "Hv0")

ELLIPTIC_PERIODIC = {"A": (YES, YES), "Hinf": (YES, YES)}
ELLIPTIC_APERIODIC = {"A": (YES, NO), "Hinf": (NO, NO)}
INTERIOR_UME = {"A": (YES, YES), "Hinf": (YES, YES)}
INTERIOR_OBSTRUCTED = {"A": (NO, NO), "Hinf": (NO, NO)}
BOUNDARY_ME = {"A": (YES, NO), "Hinf": (NO, NO)}
BOUNDARY_NOT_ME = {"A": (NO, NO), "Hinf": (NO, NO)}
WEIGHTED_OPEN = {"Hv": (UNKNOWN, UNKNOWN), "Hv0": (UNKNOWN, UNKNOWN)}

# Gallery verdicts without a weight, and the class each symbol falls in.
GALLERY_EXPECT = {
    "rot_i": {**ELLIPTIC_PERIODIC, "Hv": (YES, YES), "Hv0": (YES, YES)},
    "rot_golden": {**ELLIPTIC_APERIODIC, "Hv": (UNKNOWN, UNKNOWN), "Hv0": (YES, UNKNOWN)},
    "z_half": {**INTERIOR_UME, **WEIGHTED_OPEN},
    "zsq": {**INTERIOR_OBSTRUCTED, **WEIGHTED_OPEN},
    "blend_half": {**INTERIOR_OBSTRUCTED, **WEIGHTED_OPEN},
    "hyperbolic": {**BOUNDARY_NOT_ME, **WEIGHTED_OPEN},
    "parab": {**BOUNDARY_ME, **WEIGHTED_OPEN},
    "tangent": {**BOUNDARY_ME, **WEIGHTED_OPEN},
}
GALLERY_CLASS = {
    "rot_i": "elliptic_automorphism", "rot_golden": "elliptic_automorphism",
    "z_half": "interior_dw", "zsq": "interior_dw", "blend_half": "interior_dw",
    "hyperbolic": "hyperbolic_dw", "parab": "parabolic_dw", "tangent": "hyperbolic_dw",
}
# Denjoy-Wolff point or fixed point, and multiplier, of gallery symbols.
GALLERY_Z0 = {"z_half": 0j, "zsq": 0j, "blend_half": 0j,
              "hyperbolic": 1 + 0j, "parab": 1 + 0j, "tangent": 1 + 0j}
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
GALLERY_LAM = {"rot_i": 1j, "rot_golden": cmath.exp(2j * math.pi * GOLDEN)}
LFT_GALLERY = {"rot_i", "rot_golden", "z_half", "hyperbolic", "parab", "tangent"}


class Mismatch(Exception):
    """A request's output differs from its expected output."""


@dataclass
class Sym:
    """A symbol document with what its construction fixes about it."""

    name: str
    family: str
    doc: dict
    lft: bool
    expect: dict = field(default_factory=dict)   # space -> (mean, uniform)
    z0: complex | None = None                    # attracting or fixed point
    lam: complex | None = None                   # rotation multiplier
    period: int | None = None


@dataclass
class Request:
    rid: str
    what: str
    call: object            # call(out_dir) -> result
    check: object           # check(result, out_dir); raises Mismatch
    sym: Sym | None = None


def _c(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _moebius(a, b, c, d) -> dict:
    return {"kind": "moebius", "a": _c(a), "b": _c(b), "c": _c(c), "d": _c(d)}


def _polynomial(coeffs) -> dict:
    return {"kind": "polynomial", "coeffs": [_c(c) for c in coeffs]}


def _blaschke(rotation, zeros) -> dict:
    return {"kind": "blaschke", "rotation": float(rotation), "zeros": [_c(a) for a in zeros]}


def _distance_to_integer(x):
    return np.abs(x - np.round(x))


class Families:
    """Seeded symbol families whose verdicts follow from their construction."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.syms: dict[str, Sym] = {}

    def _add(self, family, doc, lft, expect, **known) -> Sym:
        name = f"{family}_{sum(s.family == family for s in self.syms.values())}"
        sym = Sym(name, family, doc, lft, dict(expect), **known)
        self.syms[name] = sym
        return sym

    def gallery(self, name) -> Sym:
        if name not in self.syms:
            self.syms[name] = Sym(name, "gallery", gallery.gallery_document(name),
                                  name in LFT_GALLERY, GALLERY_EXPECT[name],
                                  z0=GALLERY_Z0.get(name), lam=GALLERY_LAM.get(name),
                                  period=4 if name == "rot_i" else None)
        return self.syms[name]

    def _uniform(self, lo, hi) -> float:
        return float(self.rng.uniform(lo, hi))

    def _phase(self) -> complex:
        return cmath.exp(1j * self._uniform(0.0, 2.0 * math.pi))

    def _irrational(self) -> float:
        # Rotation number whose multiples j*theta, j <= 8, all stay 0.05 away
        # from the integers, and which no k <= 10^4 brings within 1e-9 of
        # one: the classifier's period search (tolerance 1e-10) then reports
        # it aperiodic, as its construction intends.
        k = np.arange(1, 10**4 + 1)
        while True:
            theta = self._uniform(0.05, 0.95)
            gaps = _distance_to_integer(k * theta)
            if gaps[:8].min() >= 0.05 and gaps.min() > 1e-9:
                return theta

    def _rational(self) -> tuple[int, int]:
        q = int(self.rng.integers(2, 9))
        p = int(self.rng.choice([p for p in range(1, q) if math.gcd(p, q) == 1]))
        return p, q

    def rational_rotation(self) -> Sym:
        p, q = self._rational()
        lam = cmath.exp(2j * math.pi * p / q)
        return self._add("rational_rotation", _moebius(lam, 0, 0, 1), True,
                         ELLIPTIC_PERIODIC, z0=0j, lam=lam, period=q)

    def irrational_rotation(self) -> Sym:
        lam = cmath.exp(2j * math.pi * self._irrational())
        return self._add("irrational_rotation", _moebius(lam, 0, 0, 1), True,
                         ELLIPTIC_APERIODIC, z0=0j, lam=lam)

    def elliptic(self, periodic: bool) -> Sym:
        # S R S with the involution S(z) = (p - z) / (1 - conj(p) z), which
        # swaps 0 and p: a rotation about the interior point p.
        p = self._uniform(0.2, 0.6) * self._phase()
        if periodic:
            num, q = self._rational()
            lam = cmath.exp(2j * math.pi * num / q)
        else:
            q, lam = None, cmath.exp(2j * math.pi * self._irrational())
        r2 = abs(p) ** 2
        doc = _moebius(lam - r2, p * (1 - lam), p.conjugate() * (lam - 1), 1 - lam * r2)
        return self._add("elliptic_periodic" if periodic else "elliptic_aperiodic", doc,
                         True, ELLIPTIC_PERIODIC if periodic else ELLIPTIC_APERIODIC,
                         z0=p, lam=lam, period=q)

    def hyperbolic(self, rotated: bool) -> Sym:
        # Fixed points +-u with u = e^{i beta}; derivative mu at u.
        mu = self._uniform(0.2, 0.7)
        u = self._phase() if rotated else 1 + 0j
        doc = _moebius(1 + mu, (1 - mu) * u, (1 - mu) * u.conjugate(), 1 + mu)
        return self._add("hyperbolic_auto", doc, True, BOUNDARY_NOT_ME, z0=u)

    def parabolic(self, rotated: bool) -> Sym:
        # Cayley conjugate of the translation w -> w + b, fixing u = e^{i beta}.
        b = self._uniform(1.0, 3.0) * (1 if self.rng.uniform() < 0.5 else -1)
        u = self._phase() if rotated else 1 + 0j
        doc = _moebius(2j - b, b * u, -b * u.conjugate(), b + 2j)
        return self._add("parabolic_auto", doc, True, BOUNDARY_ME, z0=u)

    def dilation(self) -> Sym:
        return self._add("dilation", _moebius(self._uniform(0.3, 0.7), 0, 0, 1), True,
                         INTERIOR_UME, z0=0j)

    def affine(self) -> Sym:
        # |a| + |b| <= 0.9 maps the closed disc into a smaller disc.
        a = self._uniform(0.3, 0.7) * self._phase()
        b = self._uniform(0.05, 0.9 - abs(a)) * self._phase()
        return self._add("affine_contraction", _polynomial([b, a]), True,
                         INTERIOR_UME, z0=b / (1 - a))

    def tangent(self, rotated: bool) -> Sym:
        # (1 - t) z + t u: internally tangent at u, angular derivative 1 - t.
        t = self._uniform(0.2, 0.8)
        u = self._phase() if rotated else 1 + 0j
        return self._add("tangent", _moebius(1 - t, t * u, 0, 1), True, BOUNDARY_ME, z0=u)

    def blaschke(self, degree: int) -> Sym:
        # A zero at 0 makes 0 the attracting point; a Blaschke product of
        # degree >= 2 then has a fixed point on the circle, which obstructs.
        zeros = [0j] + [self._uniform(0.2, 0.7) * self._phase() for _ in range(degree - 1)]
        doc = _blaschke(self._uniform(0.0, 2.0 * math.pi), zeros)
        return self._add(f"blaschke{degree}", doc, False, INTERIOR_OBSTRUCTED, z0=0j)

    def contraction_polynomial(self, centered: bool) -> Sym:
        # sum |c_k| <= 0.8 maps the closed disc into a smaller disc; with
        # c_0 = 0 the attracting point is 0.
        degree = int(self.rng.integers(2, 4))
        weights = self.rng.uniform(0.2, 1.0, degree + 1)
        if centered:
            weights[0] = 0.0
        weights *= self._uniform(0.5, 0.8) / weights.sum()
        coeffs = [w * self._phase() for w in weights]
        return self._add("contraction_polynomial", _polynomial(coeffs), False,
                         INTERIOR_UME, z0=0j if centered else None)

    def _unit_mass(self, first: float, rest: int) -> list[float]:
        tail = self.rng.uniform(0.2, 1.0, rest)
        tail *= (1.0 - first) / tail.sum()
        coeffs = [first] + [float(c) for c in tail]
        coeffs[-1] = 1.0 - sum(coeffs[:-1])
        return coeffs

    def boundary_touching_polynomial(self) -> Sym:
        # c_0 = 0, c_k >= 0, sum c_k = 1: attracting point 0 and a repelling
        # fixed point u on the circle (rotated copy of z -> sum c_k z^k).
        degree = int(self.rng.integers(2, 4))
        coeffs = [0.0] + self._unit_mass(self._uniform(0.3, 0.7), degree - 1)
        u = self._phase()
        doc = _polynomial([c * u ** (1 - k) for k, c in enumerate(coeffs)])
        return self._add("boundary_touching_polynomial", doc, False,
                         INTERIOR_OBSTRUCTED, z0=0j)

    def boundary_attracting_polynomial(self, degree: int) -> Sym:
        # c_0 > 0, c_k >= 0, sum c_k = 1 and sum k c_k <= 0.85: a hyperbolic
        # attracting point at 1 on the circle; paper Thm 3.6(ii) applies.
        slope = self._uniform(0.6, 0.85)
        c3 = self._uniform(0.0, 0.04) if degree == 3 else 0.0
        c2 = self._uniform(0.02, 0.12)
        c1 = slope - 2.0 * c2 - 3.0 * c3
        coeffs = [1.0 - c1 - c2 - c3, c1, c2] + ([c3] if degree == 3 else [])
        return self._add("boundary_attracting_polynomial", _polynomial(coeffs), False,
                         {"A": (YES, NO), "Hinf": (NO, NO)}, z0=1 + 0j)


# ---------------------------------------------------------------------------
# Request plumbing

def run_cli(argv: list[str]) -> int:
    """cli.main in-process, with its console output captured."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _read_json(out: str, name: str) -> dict:
    with open(os.path.join(out, name), encoding="utf-8") as fh:
        return json.load(fh)


def _read_csv(out: str, name: str) -> list[str]:
    with open(os.path.join(out, name), encoding="utf-8") as fh:
        return fh.read().splitlines()


def _expect(cond: bool, message: str):
    if not cond:
        raise Mismatch(message)


def _expect_pair(got: tuple, want: tuple, where: str):
    _expect(tuple(got) == tuple(want), f"{where}: verdict {tuple(got)}, expected {tuple(want)}")


def _expect_code(code: int, want: int):
    _expect(code == want, f"exit code {code}, expected {want}")


def _exit_code(pair: tuple) -> int:
    return cli.EXIT_UNDECIDED if UNKNOWN in pair else cli.EXIT_OK


def _grid(radii, angles: int, offset: float = 0.0) -> np.ndarray:
    rs = np.asarray(radii, dtype=float)[:, None]
    ts = np.exp(2j * np.pi * (np.arange(angles)[None, :] + offset) / angles)
    return (rs * ts).ravel()


def _boundary_seeds(count: int) -> np.ndarray:
    seeds = np.exp(2j * np.pi * np.arange(count) / count)
    return seeds[1:]  # drop the attracting point 1


class Builder:
    """Collects requests; library requests look their symbol up in ``parsed``
    when they run, CLI requests read its document file."""

    def __init__(self, prefix: str, families: Families, sym_dir: str):
        self.prefix = prefix
        self.fam = families
        self.sym_dir = sym_dir
        self.parsed: dict = {}  # symbol name -> symbol object, filled by the caller
        self.requests: list[Request] = []

    def path(self, sym: Sym) -> str:
        return os.path.join(self.sym_dir, f"{sym.name}.json")

    def add(self, what, call, check, sym=None):
        self.requests.append(Request("", what, call, check, sym))

    def finish(self, shuffle: bool):
        """Fix the request order and give each request its id."""
        if shuffle:
            self.requests = [self.requests[i]
                             for i in self.fam.rng.permutation(len(self.requests))]
        for i, req in enumerate(self.requests):
            req.rid = f"{self.prefix}-{i:03d}"

    # -- verdict requests ---------------------------------------------------

    def cli_verdict(self, sym: Sym, space: str):
        want = sym.expect[space]

        def check(code, out):
            _expect_code(code, _exit_code(want))
            doc = _read_json(out, f"verdict_{space}.json")
            _expect(doc["space"] == space, f"report space {doc['space']}")
            _expect_pair((doc["mean_ergodic"], doc["uniformly_mean_ergodic"]), want, space)

        argv = ["verdict", "--symbol", self.path(sym), "--space", space]
        self.add(f"cli verdict {sym.name} {space}", lambda out: run_cli(argv + ["--out", out]),
                 check, sym)

    def cli_gallery(self):
        def check(code, out):
            _expect_code(code, cli.EXIT_OK)
            for name in gallery.GALLERY_NAMES:
                doc = _read_json(out, f"gallery/{name}_classify.json")
                _expect(doc["kind"] == GALLERY_CLASS[name], f"{name}: class {doc['kind']}")
                for space in ("A", "Hinf"):
                    doc = _read_json(out, f"gallery/{name}_verdict_{space}.json")
                    _expect_pair((doc["mean_ergodic"], doc["uniformly_mean_ergodic"]),
                                 GALLERY_EXPECT[name][space], f"{name} {space}")

        self.add("cli gallery", lambda out: run_cli(["gallery", "--out", out]), check)

    def cli_counterexample(self, theta: str, k_terms: int):
        def check(code, out):
            _expect_code(code, cli.EXIT_OK)
            doc = _read_json(out, "counterexample_report.json")
            _expect(doc["h2_norm_sq_g"] == float(k_terms), f"h2 {doc['h2_norm_sq_g']}")
            probes = doc["weighted_probes"]
            g = [p["v_abs_g"] for p in probes]
            _expect(all(b > a for a, b in zip(g, g[1:])), "weighted g probes do not grow")
            _expect(max(p["v_abs_f"] for p in probes) <= 1.0 / (doc["R"] - 1.0),
                    "weighted f probes exceed 1/(R-1)")
            _expect(len(_read_csv(out, "counterexample.csv")) == len(probes) + 1, "csv rows")

        argv = ["counterexample", "--theta", theta, "--K", str(k_terms)]
        self.add(f"cli counterexample {theta} K={k_terms}",
                 lambda out: run_cli(argv + ["--out", out]), check)

    def weighted_verdict(self, sym: Sym, space: str):
        # Hv: not mean ergodic; Hv0: mean ergodic, not uniformly (paper,
        # appendix), for the v_alpha weight adapted to this rotation.
        want = (NO, NO) if space == "Hv" else (YES, NO)
        parsed = self.parsed

        def call(out):
            seq = weighted.lacunary_exponents(sym.lam, R=2.0, K=12)
            w = weighted.make_weight_v_alpha(0.5, 0.5, seq)
            return ergodicity.verdict(parsed[sym.name], space, weight=w)

        def check(v, out):
            _expect_pair((v.mean_ergodic, v.uniformly_mean_ergodic), want, space)

        self.add(f"verdict {sym.name} {space} weight=v_alpha", call, check, sym)

    def library_verdict(self, sym: Sym, space: str, route: str = ""):
        """Default-budget verdict; ``route`` must appear in the theorem tag."""
        parsed = self.parsed

        def check(v, out):
            _expect_pair((v.mean_ergodic, v.uniformly_mean_ergodic), sym.expect[space], space)
            _expect(route in v.theorem_tag, f"route {v.theorem_tag}")

        self.add(f"verdict {sym.name} {space}",
                 lambda out: ergodicity.verdict(parsed[sym.name], space), check, sym)

    def periodic_points(self, sym: Sym, max_period: int, count: int):
        parsed = self.parsed

        def check(points, out):
            _expect(len(points) == count, f"{len(points)} boundary periodic points, "
                                          f"expected {count}")

        self.add(f"boundary_periodic_points {sym.name} {max_period}",
                 lambda out: dynamics.boundary_periodic_points(parsed[sym.name], max_period),
                 check, sym)

    # -- orbit sweeps -------------------------------------------------------

    def rotation_means(self, sym: Sym, j: int, n: int):
        """Final Cesaro means of z^j under a rotation over a 16-point grid."""
        parsed = self.parsed
        seeds = _grid([0.25, 0.5, 0.75, 1.0], 4, offset=0.125)

        def call(out):
            return ergodicity.cesaro_final_means(parsed[sym.name], ergodicity.Monomial(j),
                                                 seeds, n)

        if sym.period is not None:
            # n is a multiple of the period: z^j survives iff the period divides j.
            limit = seeds ** j if j % sym.period == 0 else np.zeros_like(seeds)
            tol, rule = TOL_PERIODIC, "periodic limit"
        else:
            # |mean| <= 2 / (n |1 - lam^j|), the bound criterion 10 instantiates.
            limit = np.zeros_like(seeds)
            tol, rule = 2.0 / (n * abs(1.0 - sym.lam ** j)) + 1e-12, "aperiodic bound"

        def check(means, out):
            dev = float(np.max(np.abs(means - limit)))
            _expect(dev <= tol, f"{rule}: deviation {dev:.3g} > {tol:.3g}")

        self.add(f"cesaro_final_means {sym.name} z^{j} n={n}", call, check, sym)

    def orbit_mean(self, sym: Sym, n: int):
        parsed = self.parsed
        seeds = _grid([0.1, 0.3, 0.5, 0.7, 0.9], 5)

        def check(means, out):
            dev = float(np.max(np.abs(means - sym.z0)))
            _expect(dev <= TOL_DW_MEAN, f"orbit mean off the attractor by {dev:.3g}")

        self.add(f"cesaro_orbit_mean {sym.name} n={n}",
                 lambda out: ergodicity.cesaro_orbit_mean(parsed[sym.name], seeds, n),
                 check, sym)

    def parabolic_sweep(self, sym: Sym, seeds: int, n: int):
        parsed = self.parsed
        points = _boundary_seeds(seeds + 1)

        def check(estimates, out):
            _expect(len(estimates) == 3 * seeds, "estimate count")
            low = min(d.estimate for d in estimates if d.neighborhood_radius == 0.1)
            _expect(low >= DENSITY_MIN, f"parabolic density {low:.5f} < {DENSITY_MIN}")

        self.add(f"density_sweep {sym.name} {seeds}x3 n={n}",
                 lambda out: ergodicity.density_sweep(parsed[sym.name], points, 1.0,
                                                      (0.5, 0.1, 0.02), n),
                 check, sym)

    def cli_density(self, sym: Sym, n: int):
        def check(code, out):
            _expect_code(code, cli.EXIT_OK)
            rows = _read_csv(out, "density.csv")
            _expect(len(rows) == 32, f"{len(rows)} csv rows")
            low = min(float(r.split(",")[5]) for r in rows[1:])
            _expect(low >= DENSITY_MIN, f"visit density {low:.5f} < {DENSITY_MIN}")

        argv = ["density", "--symbol", self.path(sym), "--radius", "0.1",
                "--seeds", "32", "--N", str(n)]
        self.add(f"cli density {sym.name} N={n}", lambda out: run_cli(argv + ["--out", out]),
                 check, sym)

    # -- orbit traces -------------------------------------------------------

    def cli_cesaro(self, sym: Sym, j: int, z: complex, n: int, report: bool):
        if sym.period is not None:
            limit, tol = (z ** j if j % sym.period == 0 else 0j), TOL_PERIODIC
        else:
            limit, tol = sym.z0 ** j, TOL_DW_MEAN

        def check(code, out):
            _expect_code(code, cli.EXIT_OK)
            rows = _read_csv(out, "cesaro.csv")
            _expect(rows[0] == "n,orbit_re,orbit_im,mean_re,mean_im", "csv header")
            _expect(len(rows) == n + 1, f"{len(rows)} csv rows")
            last = rows[-1].split(",")
            dev = abs(complex(float(last[3]), float(last[4])) - limit)
            _expect(dev <= tol, f"final mean off its limit by {dev:.3g}")
            if report:
                _expect(_read_json(out, "cesaro_report.json")["n"] == n, "report n")

        argv = ["cesaro", "--symbol", self.path(sym), "--f", f"monomial:{j}",
                f"--z={z.real!r},{z.imag!r}", "--N", str(n)]
        if report:
            argv += ["--format", "report"]
        self.add(f"cli cesaro {sym.name} z^{j} N={n}",
                 lambda out: run_cli(argv + ["--out", out]), check, sym)

    def cli_weyl(self, sym: Sym, n: int, j_max: int):
        bounds = [2.0 / (n * abs(1.0 - sym.lam ** j)) + 1e-9 for j in range(1, j_max + 1)]

        def check(code, out):
            _expect_code(code, cli.EXIT_OK)
            rows = _read_csv(out, "weyl.csv")
            _expect(len(rows) == j_max + 1, f"{len(rows)} csv rows")
            for row, bound in zip(rows[1:], bounds):
                j, value = row.split(",")
                _expect(float(value) <= bound, f"j={j}: |mean| {value} > {bound:.3g}")

        argv = ["weyl", "--symbol", self.path(sym), "--z", "1", "--N", str(n),
                "--jmax", str(j_max)]
        self.add(f"cli weyl {sym.name} N={n}", lambda out: run_cli(argv + ["--out", out]),
                 check, sym)

    def hyperbolic_density(self, sym: Sym, n: int):
        # Started at the repelling fixed point -u, the orbit never moves.
        parsed = self.parsed

        def check(d, out):
            _expect(d.estimate == 0.0, f"hyperbolic density {d.estimate}")

        self.add(f"orbit_density {sym.name} from -z0 n={n}",
                 lambda out: ergodicity.orbit_density(parsed[sym.name], -sym.z0, sym.z0, 0.1, n),
                 check, sym)

    def parabolic_density(self, sym: Sym, n: int):
        parsed = self.parsed
        z = sym.z0 * cmath.exp(1j * self.fam._uniform(0.3, 2.0 * math.pi - 0.3))

        def check(d, out):
            _expect(d.estimate >= DENSITY_MIN, f"parabolic density {d.estimate:.5f}")

        self.add(f"orbit_density {sym.name} n={n}",
                 lambda out: ergodicity.orbit_density(parsed[sym.name], z, sym.z0, 0.1, n),
                 check, sym)

    def monomial_sweep(self, sym: Sym):
        def call(out):
            return [ergodicity.monomial_mean(sym.lam, j, n)
                    for j in range(1, 6) for n in (10**2, 10**3, 10**4)]

        def check(results, out):
            for res in results:
                _expect(abs(abs(res.value) - res.sup_norm_exact) <= TOL_MONOMIAL,
                        "closed-form norm disagrees")
                _expect(abs(res.value) <= res.sup_norm_bound + 1e-15, "2/(n|1-lam^j|) bound")

        self.add(f"monomial_mean sweep {sym.name}", call, check, sym)

    def gap_witness(self, sym: Sym, n: int):
        parsed = self.parsed

        def check(w, out):
            _expect(w.gap >= GAP_MIN, f"gap {w.gap!r} < {GAP_MIN}")

        self.add(f"boundary_gap_witness {sym.name} n={n}",
                 lambda out: ergodicity.boundary_gap_witness(parsed[sym.name], sym.z0, n),
                 check, sym)


# ---------------------------------------------------------------------------
# The three workloads

def verdict_mix(b: Builder):
    """Requests that judge symbols: classification and verdict assembly."""
    f = b.fam
    b.cli_gallery()
    for name in gallery.GALLERY_NAMES:
        for space in SPACES:
            b.cli_verdict(f.gallery(name), space)
    for theta in ("golden", "sqrt2"):
        b.cli_counterexample(theta, 30)
    for _ in range(4):
        rot = f.irrational_rotation()
        for space in ("Hv", "Hv0"):
            b.weighted_verdict(rot, space)
    seeded = (
        [f.rational_rotation() for _ in range(3)]
        + [f.irrational_rotation() for _ in range(3)]
        + [f.elliptic(periodic) for periodic in (True, True, False, False)]
        + [f.hyperbolic(rotated=True) for _ in range(4)]
        + [f.parabolic(rotated=True) for _ in range(4)]
        + [f.dilation()]
        + [f.affine() for _ in range(5)]
        + [f.tangent(rotated=True) for _ in range(4)]
        + [f.blaschke(2) for _ in range(4)] + [f.blaschke(3) for _ in range(2)]
        + [f.contraction_polynomial(centered=False) for _ in range(6)]
        + [f.boundary_touching_polynomial() for _ in range(5)]
    )
    for sym in seeded:
        for space in ("A", "Hinf"):
            b.cli_verdict(sym, space)


def orbit_sweeps(b: Builder):
    """Multi-seed orbit experiments: array evaluation and the step loop."""
    f = b.fam
    b.parabolic_sweep(f.gallery("parab"), 31, 10**5)
    for degree in (2, 3):
        b.library_verdict(f.boundary_attracting_polynomial(degree), "A", route="Thm 3.6(ii)")
    n_rot = 5040  # a multiple of every period 1..8
    rotations = [f.rational_rotation() for _ in range(6)]
    rotations += [f.gallery("rot_golden")] + [f.irrational_rotation() for _ in range(5)]
    for sym in rotations:
        for j in f.rng.choice(np.arange(1, 9), 3, replace=False):
            b.rotation_means(sym, int(j), n_rot)
    attracted = [f.gallery(name) for name in gallery.NON_ELLIPTIC_NAMES]
    attracted += [f.tangent(rotated=True) for _ in range(5)]
    attracted += [f.hyperbolic(rotated=True) for _ in range(5)]
    attracted += [f.parabolic(rotated=True) for _ in range(5)]
    attracted += [f.affine() for _ in range(5)]
    attracted += [f.contraction_polynomial(centered=True) for _ in range(5)]
    attracted += [f.blaschke(2 + i % 2) for i in range(5)]
    for sym in attracted:
        b.orbit_mean(sym, 4000)
    for _ in range(15):
        b.parabolic_sweep(f.parabolic(rotated=False), 31, 6000)
    for i in range(12):
        b.cli_density(f.parabolic(rotated=False) if i % 2 else f.tangent(rotated=False), 6000)


def orbit_traces(b: Builder):
    """Single-seed orbit requests: scalar steps, mpmath orbits, CSV output."""
    f = b.fam
    n_csv = 10080  # a multiple of every period 1..8
    traced = [f.gallery(name) for name in gallery.NON_ELLIPTIC_NAMES] + [f.gallery("rot_i")]
    traced += [f.tangent(rotated=True) for _ in range(4)]
    traced += [f.hyperbolic(rotated=True) for _ in range(4)]
    traced += [f.parabolic(rotated=True) for _ in range(4)]
    traced += [f.affine() for _ in range(3)]
    traced += [f.rational_rotation() for _ in range(3)]
    for i, sym in enumerate(traced):
        z = 0.8 * f._phase() if sym.period is not None else 0.5 * f._phase()
        b.cli_cesaro(sym, int(f.rng.integers(1, 4)), z, n_csv, report=i % 3 == 0)
    for sym in [f.gallery("rot_golden")] + [f.irrational_rotation() for _ in range(14)]:
        b.cli_weyl(sym, 5000, 5)
    for sym in [f.gallery("hyperbolic")] + [f.hyperbolic(rotated=False) for _ in range(4)]:
        b.hyperbolic_density(sym, 10**4)
    for sym in [f.gallery("parab")] + [f.parabolic(rotated=True) for _ in range(19)]:
        b.parabolic_density(sym, 10**4)
    for sym in [f.gallery("rot_golden")] + [f.irrational_rotation() for _ in range(9)]:
        b.monomial_sweep(sym)
    witnessed = [f.gallery(name) for name in gallery.BOUNDARY_DW_NAMES]
    witnessed += [f.tangent(rotated=False), f.boundary_attracting_polynomial(2)]
    for sym in witnessed:
        for n in (3, 10, 100, 200, 300):
            b.gap_witness(sym, n)


def baseline(b: Builder):
    """The calls of the ROADMAP baseline table, one request each."""
    f = b.fam
    z_half = f.gallery("z_half")
    for space in ("A", "Hinf"):
        b.library_verdict(z_half, space)
    b.periodic_points(z_half, 3, 0)
    b.parabolic_sweep(f.gallery("parab"), 31, 10**5)
    b.rotation_means(f.gallery("rot_golden"), 1, 10**5)
    b.gap_witness(f.gallery("tangent"), 100)


# Per-layer metric names of the baseline requests, in request order.
BASELINE_METRICS = (
    "baseline.verdict_z_half_A.s",
    "baseline.verdict_z_half_Hinf.s",
    "baseline.boundary_periodic_points_z_half_3.s",
    "baseline.density_sweep_parab_31x3x1e5.s",
    "baseline.cesaro_final_means_rot_golden_16x1e5.s",
    "baseline.boundary_gap_witness_tangent_1_100.s",
)

WORKLOADS = {"verdict_mix": verdict_mix, "orbit_sweeps": orbit_sweeps,
             "orbit_traces": orbit_traces}
PREFIX = {"verdict_mix": "vm", "orbit_sweeps": "os", "orbit_traces": "ot", "baseline": "bl"}


def build(workload: str, seed: int, sym_dir: str) -> Builder:
    """The requests of a workload, in a seeded order.

    The caller fills ``builder.parsed`` from ``builder.fam.syms`` and writes
    each document to ``builder.path(sym)`` before running a request.
    """
    builder = Builder(PREFIX[workload], Families(seed), sym_dir)
    if workload == "baseline":
        baseline(builder)
    else:
        WORKLOADS[workload](builder)
    builder.finish(shuffle=workload != "baseline")
    return builder
