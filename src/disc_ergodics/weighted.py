"""Lacunary sequences, radial weights, and the weighted counterexample pair.

For a unimodular lam that is not a root of unity, continued-fraction
convergent denominators of its rotation number are exactly the integers
minimizing |1 - lam^n|; a subsequence (n_k) with |1 - lam^{n_k}| <= R^{-k}
drives both the disc-algebra counterexample f(z) = sum (1 - lam^{n_k}) z^{n_k}
and the weight v_alpha(r) = C (sum r^{n_k})^{-alpha} on which the rotation
operator fails to be uniformly mean ergodic.  Exponents grow like R^{1.44 k},
so series are stored sparsely and the arithmetic certifying the defining
inequality runs in high precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np

ROOT_OF_UNITY_ORDER_BOUND = 10**4
ROOT_OF_UNITY_TOL = 1e-12
EXPONENT_BUDGET = 10**15  # largest exponent lacunary_exponents may select
RADIUS_CLAMP = 1.0 - 1e-8  # evaluation radii this close to 1 are clamped
NORM_GRID_RADII, NORM_GRID_ANGLES = 64, 128  # the grid of weighted_sup_norm

# Built-in rotation numbers, exactly representable at any working precision.
THETA_BUILTINS = {
    "golden": lambda: (mp.sqrt(5) - 1) / 2,
    "sqrt2": lambda: mp.sqrt(2) - 1,
}


class BudgetExceededError(RuntimeError):
    """No qualifying exponent under the budget; the rotation number is not
    well-approximable enough at this scale."""


def resolve_theta(theta=None, lam=None):
    """Rotation number as an mpmath value at the current working precision.

    Accepts a named irrational ("golden", "sqrt2"), an exact Fraction, an
    mpmath value, or a float; a float carries only double accuracy, which is
    meaningful for exponents up to about 1e7.  Alternatively pass the
    unimodular lam itself and the angle is taken from it (double accuracy).
    """
    if (theta is None) == (lam is None):
        raise ValueError("supply exactly one of theta or lam")
    if theta is not None:
        if isinstance(theta, str):
            try:
                value = THETA_BUILTINS[theta]()
            except KeyError:
                raise ValueError(f"unknown named rotation number {theta!r}") from None
        elif isinstance(theta, Fraction):
            value = mp.mpf(theta.numerator) / theta.denominator
        else:
            value = mp.mpf(theta)
    else:
        lam = complex(lam)
        if abs(abs(lam) - 1.0) > 1e-12:
            raise ValueError("lam must be unimodular")
        value = mp.mpf(math.atan2(lam.imag, lam.real)) / (2 * mp.pi)
    value = mp.frac(value)
    if value < 0:
        value += 1
    if value == 0:
        raise ValueError("rotation number 0 is a root of unity")
    return value


def _distance_to_one(theta, n) -> mp.mpf:
    """|1 - e^{2 pi i n theta}| = 2 |sin(pi {n theta})| with centered fraction."""
    frac = mp.frac(mp.mpf(n) * theta)
    if frac > mp.mpf("0.5"):
        frac = 1 - frac
    return 2 * mp.sin(mp.pi * frac)


def _check_not_root_of_unity(theta):
    # Coarse double sweep, then high-precision confirmation of any suspects.
    errs = brute_force_error_table(theta, ROOT_OF_UNITY_ORDER_BOUND)
    for q in np.nonzero(errs < 1e-9)[0] + 1:
        if _distance_to_one(theta, int(q)) <= ROOT_OF_UNITY_TOL:
            raise ValueError(
                f"rotation of order {int(q)} (root of unity); lacunary "
                "construction needs an irrational rotation number"
            )


def convergent_denominators(theta, q_limit: int):
    """Continued-fraction convergent denominators of theta up to q_limit.

    Exact integer recurrence on (p_k, q_k); these denominators are the best
    rational approximations and hence the argmins of |1 - lam^n|.
    """
    y = mp.mpf(theta)
    pm2, qm2 = 0, 1
    pm1, qm1 = 1, 0
    dens = []
    for _ in range(400):
        a = int(mp.floor(y))
        p = a * pm1 + pm2
        q = a * qm1 + qm2
        pm2, qm2, pm1, qm1 = pm1, qm1, p, q
        if q > 0:
            dens.append(q)
        if q > q_limit:
            break
        frac_part = y - a
        if frac_part == 0:
            break
        y = 1 / frac_part
    return dens


@dataclass(frozen=True)
class LacunarySequence:
    """Exponents n_k with |1 - lam^{n_k}| <= R^{-k}, n_k >= k, strictly up.

    The defining inequality is re-certified at construction in high-precision
    arithmetic; ``errors`` holds the certified |1 - lam^{n_k}| values.
    """

    lam: complex
    R: float
    exponents: tuple
    errors: tuple
    theta_descriptor: object = None

    def __post_init__(self):
        exps = tuple(int(n) for n in self.exponents)
        object.__setattr__(self, "exponents", exps)
        object.__setattr__(self, "errors", tuple(float(e) for e in self.errors))
        if self.R <= 1.0:
            raise ValueError("R must exceed 1")
        if len(exps) != len(self.errors):
            raise ValueError("exponents and errors must align")
        prev = 0
        for k, (n, err) in enumerate(zip(exps, self.errors), start=1):
            if n < k:
                raise ValueError(f"exponent n_{k} = {n} violates n_k >= k")
            if n <= prev:
                raise ValueError("exponents must be strictly increasing")
            if err > self.R ** (-k) * (1.0 + 1e-9):
                raise ValueError(
                    f"|1 - lam^{n}| = {err:.3e} exceeds R^-{k} = {self.R ** (-k):.3e}"
                )
            prev = n

    def __len__(self):
        return len(self.exponents)

    def lam_power(self, n: int) -> complex:
        """lam^n computed through the rotation number at 60 digits."""
        with mp.workdps(60):
            theta = resolve_theta(theta=self.theta_descriptor) \
                if self.theta_descriptor is not None else \
                resolve_theta(lam=self.lam)
            return complex(mp.exp(2j * mp.pi * mp.frac(mp.mpf(n) * theta)))

    def to_dict(self) -> dict:
        return {
            "kind": "lacunary_sequence",
            "theta": self.theta_descriptor if isinstance(self.theta_descriptor, (str, float)) else None,
            "lam": [self.lam.real, self.lam.imag],
            "R": self.R,
            "exponents": list(self.exponents),
            "errors": list(self.errors),
        }


def lacunary_exponents(lam=None, R: float = 2.0, K: int = 12, *,
                       theta=None) -> LacunarySequence:
    """Select exponents n_k <= EXPONENT_BUDGET with |1 - lam^{n_k}| <= R^{-k}.

    Works through the continued fraction of the rotation number: candidate
    exponents are the convergent denominators (the argmins of |1 - lam^n|),
    scanned greedily against the geometric thresholds.  Raises
    BudgetExceededError when some level finds no denominator under the
    budget.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if R <= 1.0:
        raise ValueError("R must exceed 1")
    # Working precision: enough digits for n*theta with n up to the budget
    # and for thresholds down to R^-K.
    dps = 40 + 2 * len(str(EXPONENT_BUDGET)) + int(K * math.log10(R)) + 10
    with mp.workdps(dps):
        th = resolve_theta(theta=theta, lam=lam)
        _check_not_root_of_unity(th)
        lam_value = complex(mp.exp(2j * mp.pi * th))
        dens = convergent_denominators(th, EXPONENT_BUDGET)
        chosen, errs = [], []
        prev = 0
        for k in range(1, K + 1):
            threshold = mp.mpf(R) ** (-k)
            pick = None
            for q in dens:
                if q <= prev or q < k or q > EXPONENT_BUDGET:
                    continue
                err = _distance_to_one(th, q)
                if err <= threshold:
                    pick = (q, err)
                    break
            if pick is None:
                raise BudgetExceededError(
                    f"no exponent <= {EXPONENT_BUDGET} meets |1 - lam^n| <= R^-{k} "
                    f"= {float(threshold):.3e}"
                )
            chosen.append(pick[0])
            errs.append(float(pick[1]))
            prev = pick[0]
    descriptor = theta if isinstance(theta, (str, float)) else None
    return LacunarySequence(lam_value, float(R), tuple(chosen), tuple(errs),
                            theta_descriptor=descriptor)


def brute_force_error_table(theta, n_limit: int) -> np.ndarray:
    """|1 - lam^n| for n = 1..n_limit in doubles: the sweep for roots of
    unity, and the independent oracle used to confirm that selected
    exponents are running argmins."""
    with mp.workdps(40):
        td = float(resolve_theta(theta=theta))
    n = np.arange(1, n_limit + 1)
    frac = np.mod(n * td, 1.0)
    frac = np.minimum(frac, 1.0 - frac)
    return 2.0 * np.sin(np.pi * frac)


# ---------------------------------------------------------------------------
# Weights

@dataclass(frozen=True)
class VAlpha:
    """v_alpha(r) = C (sum_k r^{n_k})^{-alpha} for r >= r0, and 1 below r0.

    C = (sum_k r0^{n_k})^alpha makes the weight continuous at r0 and equal to
    one there; the partial sum is increasing in r, so the weight is
    non-increasing and tends to zero at the boundary.  Radii may be a scalar
    or an array, clamped to RADIUS_CLAMP; a scalar gives a float.
    """

    alpha: float
    r0: float
    seq: LacunarySequence
    tail_terms: int

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not 0.0 < self.r0 < 1.0:
            raise ValueError("r0 must lie in (0, 1)")
        if not 1 <= self.tail_terms <= len(self.seq):
            raise ValueError("tail_terms must be within the available exponents")
        object.__setattr__(self, "C", self.partial_sum(self.r0) ** self.alpha)
        # Typical-weight certification on a radius sweep.
        if np.any(np.diff(self(np.linspace(0.0, RADIUS_CLAMP, 1000))) > 1e-12):
            raise ValueError("weight failed the non-increasing check")
        below, above = self(self.r0 * np.array([1.0 - 1e-9, 1.0 + 1e-9]))
        if abs(below - above) > 1e-6:
            raise ValueError("weight is discontinuous at r0")

    def partial_sum(self, r):
        """sum_k r^{n_k} over the first tail_terms exponents, added in order."""
        r = np.minimum(np.asarray(r, dtype=float), RADIUS_CLAMP)
        with np.errstate(divide="ignore"):
            log_r = np.log(np.maximum(r, 0.0))
        total = np.zeros(r.shape)
        for n in self.seq.exponents[: self.tail_terms]:
            total += np.exp(n * log_r)
        return total if total.ndim else float(total)

    def tail_bound(self, r: float) -> float:
        """Geometric bound r^{n_K + 1} / (1 - r) on the truncated tail."""
        r = min(float(r), RADIUS_CLAMP)
        n_last = self.seq.exponents[self.tail_terms - 1]
        e = (n_last + 1) * math.log(r) if r > 0 else -math.inf
        return math.exp(e) / (1.0 - r) if e > -745.0 else 0.0

    def __call__(self, r):
        r = np.minimum(np.asarray(r, dtype=float), RADIUS_CLAMP)
        with np.errstate(divide="ignore"):
            v = np.where(r <= self.r0, 1.0, self.C * np.power(self.partial_sum(r), -self.alpha))
        return v if v.ndim else float(v)

    def to_dict(self) -> dict:
        return {
            "kind": "weight_v_alpha",
            "alpha": self.alpha,
            "r0": self.r0,
            "tail_terms": self.tail_terms,
            "sequence": self.seq.to_dict(),
        }


def make_weight_v_alpha(alpha: float, r0: float, seq: LacunarySequence,
                        tail_terms: int | None = None) -> VAlpha:
    return VAlpha(alpha, r0, seq, len(seq) if tail_terms is None else tail_terms)


def parse_sequence(doc: dict) -> LacunarySequence:
    if doc.get("kind") != "lacunary_sequence":
        raise ValueError("not a lacunary_sequence document")
    lam = complex(doc["lam"][0], doc["lam"][1])
    return LacunarySequence(lam, float(doc["R"]), tuple(doc["exponents"]),
                            tuple(doc["errors"]), theta_descriptor=doc.get("theta"))


def parse_weight(doc: dict) -> VAlpha:
    if doc.get("kind") != "weight_v_alpha":
        raise ValueError("not a weight_v_alpha document")
    return VAlpha(float(doc["alpha"]), float(doc["r0"]),
                  parse_sequence(doc["sequence"]), int(doc["tail_terms"]))


# ---------------------------------------------------------------------------
# Sparse power series

@dataclass(frozen=True)
class SparseSeries:
    """sum_k c_k z^{n_k} with integer exponents too sparse to store densely."""

    terms: tuple  # ((exponent, coefficient), ...) strictly increasing exponents

    def __init__(self, terms):
        cleaned = tuple((int(n), complex(c)) for n, c in terms)
        prev = -1
        for n, _ in cleaned:
            if n <= prev:
                raise ValueError("exponents must be strictly increasing")
            prev = n
        object.__setattr__(self, "terms", cleaned)

    def abs_coeff_sum(self) -> float:
        return float(sum(abs(c) for _, c in self.terms))

    def __call__(self, z):
        """The sum at z, a complex scalar or array, added in term order.

        z^n is taken in polar form |z|^n e^{i n arg z}, as for a Python
        complex z and n > 100.  A scalar is evaluated as a one-element array
        (numpy's scalar ** rounds differently) and gives a complex.
        """
        w = np.asarray(z, dtype=complex)
        modulus, angle = np.abs(w.ravel()), np.angle(w.ravel())
        total = np.zeros(w.size, dtype=complex)
        for n, c in self.terms:
            total += c * (modulus ** n * np.exp(1j * n * angle))
        return total.reshape(w.shape) if w.ndim else complex(total[0])


# ---------------------------------------------------------------------------
# Norms

def weighted_sup_norm(f, w: VAlpha) -> float:
    """Grid maximum of v(|z|) |f(z)|, radii accumulating toward the boundary.

    ``f`` is any callable power series (sparse or dense).
    """
    cheb = np.cos(np.pi * (2.0 * np.arange(NORM_GRID_RADII) + 1.0) / (4.0 * NORM_GRID_RADII))
    rs = np.minimum(cheb, RADIUS_CLAMP)
    ts = np.exp(2j * np.pi * np.arange(NORM_GRID_ANGLES) / NORM_GRID_ANGLES)
    ring_max = np.max(np.abs(f(rs[:, None] * ts[None, :])), axis=1)
    return float(np.max(w(rs) * ring_max))


@dataclass(frozen=True)
class CoefficientNormReport:
    """Sum of |a_j|^2 over stored coefficients.

    ``grows_with_terms`` flags the divergence pattern of the all-ones
    lacunary series: every stored nonzero coefficient is unimodular, so the
    truncated sum equals the term count and grows without bound in it.
    """

    value: float
    term_count: int
    grows_with_terms: bool


def h2_norm_sq(f) -> CoefficientNormReport:
    """Coefficient-square sum over the stored terms of a power series."""
    if isinstance(f, SparseSeries):
        coeffs = [c for _, c in f.terms]
    else:
        coeffs = list(getattr(f, "coeffs", f))
    nonzero = [c for c in coeffs if abs(complex(c)) > 0.0]
    value = float(sum(abs(complex(c)) ** 2 for c in nonzero))
    unimodular = bool(nonzero) and all(abs(abs(complex(c)) - 1.0) < 1e-15 for c in nonzero)
    return CoefficientNormReport(value, len(nonzero), unimodular)


# ---------------------------------------------------------------------------
# The counterexample pair

@dataclass(frozen=True)
class CounterexamplePair:
    f: SparseSeries
    g: SparseSeries
    report: dict


def counterexample_pair(seq: LacunarySequence, K: int,
                        weight: VAlpha | None = None) -> CounterexamplePair:
    """The pair f(z) = sum (1 - lam^{n_k}) z^{n_k} and g(z) = sum z^{n_k}.

    f solves f(z) = g(z) - g(lam z) coefficientwise, lies in the disc algebra
    with absolute coefficient sum at most 1/(R - 1), yet the forced g has
    coefficient-square sum K: the obstruction to uniform mean ergodicity of
    the rotation operator.  With a weight supplied, the report also probes
    v(r) |g(r)| = C (sum r^{n_k})^{1 - alpha}, which grows as r -> 1, and
    v(r) |f(r)|, which decays, at r = 1 - 10^-m for m = 1..5.
    """
    if not 1 <= K <= len(seq):
        raise ValueError("K must be within the sequence length")
    exps = seq.exponents[:K]
    lam_powers = [seq.lam_power(n) for n in exps]
    g = SparseSeries([(n, 1.0) for n in exps])
    f = SparseSeries([(n, 1.0 - lp) for n, lp in zip(exps, lam_powers)])
    abs_sum = f.abs_coeff_sum()
    certified_bound = 1.0 / (seq.R - 1.0)
    # The looser geometric constant R/(R-1) is recorded for reference but the
    # certified bound is the exact sum of the geometric series from k = 1.
    coeff_identity_error = 0.0
    for (n, cf), (_, cg), lp in zip(f.terms, g.terms, lam_powers):
        coeff_identity_error = max(coeff_identity_error, abs(cf - cg * (1.0 - lp)))
    report = {
        "K": K,
        "R": seq.R,
        "abs_coeff_sum_f": abs_sum,
        "abs_coeff_sum_bound": certified_bound,
        "reference_constant_R_over_R_minus_1": seq.R / (seq.R - 1.0),
        "coeff_identity_max_error": coeff_identity_error,
        "h2_norm_sq_g": h2_norm_sq(g).value,
        "h2_grows_with_terms": h2_norm_sq(g).grows_with_terms,
    }
    if abs_sum > certified_bound + 1e-12:
        raise ArithmeticError("absolute coefficient sum exceeded the certified bound")
    if weight is not None:
        radii = np.array([1.0 - 10.0 ** (-m) for m in range(1, 6)])
        v, partial = weight(radii), weight.partial_sum(radii)
        abs_f, abs_g = np.abs(f(radii)), np.abs(g(radii))
        report["weighted_probes"] = [
            {"r": float(r), "v": float(vr), "v_abs_f": float(vr * fr), "v_abs_g": float(vr * gr),
             "partial_sum_pow": float(ps ** (1.0 - weight.alpha))}
            for r, vr, fr, gr, ps in zip(radii, v, abs_f, abs_g, partial)]
    return CounterexamplePair(f, g, report)
