"""Command-line front end: classify symbols, run experiments, emit reports.

Each subcommand accepts only the flags it reads:

- ``--out`` (output directory) on every subcommand;
- ``--symbol`` on ``classify``, ``verdict``, ``cesaro``, ``density`` and
  ``weyl``;
- ``--format csv|report`` on ``cesaro``, ``density`` and ``weyl``;
- ``--N`` (orbit length) on ``cesaro``, ``density`` and ``weyl``;
- ``verdict``: ``--space``; ``cesaro``: ``--f``, ``--z``; ``density``:
  ``--z0``, ``--radius``, ``--seeds``; ``weyl``: ``--z``, ``--jmax``;
  ``counterexample``: ``--theta``, ``--R``, ``--K``, ``--alpha``, ``--r0``.

Exit codes: 0 on success, 1 for usage or configuration errors, 2 when a
requested verdict comes back undecided -- distinct so scripts can branch on
numerical non-decision.  All outputs are deterministic: identical inputs
produce byte-identical files.  In the CSV files counts print as integers and
every other value with ``%.17g``, which round-trips each double.  The bytes
are those of ``"%d" % x`` and ``"%.17g" % x``; a numpy kernel computes most
of them (``_format_cells``).

Library errors end the run with exit code 1 and a one-line ``error: ...``
message on stderr, never a traceback:

- ``ConfigError``, ``SymbolError`` and other ``ValueError``: bad arguments,
  symbol files or parameters;
- ``dynamics.UnclassifiableError``: residuals too large to classify;
- ``dynamics.NonConvergenceError``: an orbit exhausted its iteration budget;
- ``weighted.BudgetExceededError``: no lacunary exponent under the budget
  (for example ``counterexample --R 1000``);
- ``ArithmeticError``: a numerical certificate failed (a bound was
  exceeded, or the witness orbit hit its target point exactly).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import dynamics, ergodicity, gallery, weighted
from .symbols import SELF_MAP_TOL, SymbolError, _is_inner, iterate, parse_symbol

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNDECIDED = 2


class ConfigError(ValueError, argparse.ArgumentTypeError):
    # Also an ArgumentTypeError, so that argparse reports one raised by a
    # ``type=`` function as a usage error with this message.
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; remap to the documented 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise ConfigError(f"budgets must be positive integers, got {text!r}")
    return value


def _parse_complex(text: str) -> complex:
    text = text.strip()
    try:
        if "," in text:
            re_part, im_part = text.split(",")
            return complex(float(re_part), float(im_part))
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise ConfigError(f"cannot parse complex number {text!r}") from exc


def _parse_test_function(spec: str) -> ergodicity.TestFunction:
    head, _, rest = spec.partition(":")
    if head == "monomial":
        try:
            return ergodicity.Monomial(int(rest))
        except ValueError as exc:
            raise ConfigError(f"bad monomial degree {rest!r}") from exc
    if head == "taylor":
        try:
            coeffs = [_parse_complex(c) for c in rest.split(";") if c]
        except ConfigError as exc:
            raise ConfigError(f"bad taylor coefficients {rest!r}") from exc
        return ergodicity.TaylorFn(coeffs)
    if head == "witness":
        parts = rest.split(";")
        if len(parts) != 2:
            raise ConfigError("witness spec is witness:Z0;K")
        return ergodicity.HalfPointWitness(_parse_complex(parts[0]), int(parts[1]))
    raise ConfigError(f"unknown test function {spec!r}")


def _load_symbol(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_symbol(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read symbol file {path}: {exc}") from exc
    except SymbolError as exc:
        raise ConfigError(f"invalid symbol in {path}: {exc}") from exc


@functools.cache
def _csv_tables():
    """The CSV kernel's tables, built on first use: 10**k for k = 0..218 as
    double-doubles (hi, lo, and hi split for Dekker's product); the ASCII
    digits of 0..9999 as uint32; as uint64, masks of the first j of 8 bytes,
    and by k = 16 - e, the bytes 0-7 of ``"%.17g"`` (by sign) and 24-31."""
    hi = [float(10**k) for k in range(219)]
    lo = [float(10**k - int(h)) for k, h in enumerate(hi)]
    two = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), np.uint8).reshape(100, 2)
    groups = np.hstack((np.repeat(two, 100, axis=0), np.tile(two, (100, 1)))).view(np.uint32)
    keep = [b"\xff" * j + bytes(8 - j) for j in range(9)]
    # d.ddd at e = 0 and with an exponent below -4, 0.ddd ... 0.0000ddd in
    # between, and a count's digits from e = 1 on, with no point
    prefix = [sign + (b"0." + b"0" * (-e - 1) if -5 < e < 0 else bytes(6) + b"." * (e <= 0))
              .ljust(7, b"\0") for e in range(16, -203, -1) for sign in (b"\0", b"-")]
    exponent = [(b"e-%02d" % -e if e < -4 else b"").ljust(8, b"\0") for e in range(16, -203, -1)]
    return (np.array([hi, lo, *_split(np.array(hi))]), groups.ravel(),
            *(np.frombuffer(b"".join(t), np.uint64) for t in (keep, prefix, exponent)))


def _split(x):
    # Veltkamp's split: x = head + tail, each with at most 26 significant bits
    c = 134217729.0 * x
    head = c - (c - x)
    return head, x - head


def _scaled(x, k):
    """x·10**k as p + t with p = fl(x·10**k), good to about 1e-14 below 1e17:
    Dekker's exact product of x and hi, plus x·lo."""
    hi, lo, hi_head, hi_tail = _csv_tables()[0].take(k, axis=1)
    p = x * hi
    head, tail = _split(x)
    return p, ((head * hi_head - p) + head * hi_tail + tail * hi_head) + tail * hi_tail + x * lo


def _format_cells(values, count):
    """``"%d" % x`` where ``count`` and ``"%.17g" % x`` elsewhere, for each
    double, as NUL-padded rows of at least 32 bytes with the last one NUL.

    The kernel takes ±0, floats with 1e-200 <= |x| < 10 and counts below
    1e17, as ``"%.17g" % trunc(x)``.  Python formats the rest, and near ties:
    below 1e-6 10**k is no double, so a scaled fraction within 1e-6 of 1/2
    may round the wrong way.  Bytes: 0 sign, 1-5 "0." and its zeros, 6 first
    digit, 7 its point, 8-23 the other 16 digits, 24-28 the exponent.
    Blocks of fewer than 128 values go to Python whole: the kernel's fixed
    cost, about 60 µs, is that of formatting some 150 values one by one."""
    if len(values) < 128:
        return _percent_cells(np.empty((len(values), 32), np.uint8), values, count,
                              np.arange(len(values)))
    v = np.where(count, np.trunc(values) + 0.0, values)     # + 0.0 turns -0 into 0
    a = np.abs(v)
    fast = (a >= 1e-200) & (a < np.where(count, 1e17, 10))
    x = np.where(fast, a, 1 + 2**-52)     # a stand-in of 17 digits, overwritten below
    # floor(log10 x) can be one off near a power of ten: correct it on x·10**k
    e = np.minimum(np.floor(np.log10(x)), 16).astype(np.intp)
    p, t = _scaled(x, 16 - e)
    off = (p - 1e17 >= -t).astype(np.intp) - (p - 1e16 < -t)
    if off.any():
        e += off
        p, t = _scaled(x, 16 - e)
    # p >= 2**53 is an even integer, so round(p + t) = p + round(t)
    r = np.rint(t)
    n = p.astype(np.int64) + r.astype(np.int64)
    up = n == 10**17                      # rounded up to the next power of ten
    n, e = np.where(up, 10**16, n) * (a != 0), e + up      # n = 0 formats ±0
    _, groups, keep, prefix, exponent = _csv_tables()
    out = np.empty((len(v), 32), np.uint8)
    words, quads = out.view(np.uint64), out.view(np.uint32)
    k = 16 - e
    words[:, 0] = prefix[2 * k + np.signbit(v)]
    words[:, 3] = exponent[k]
    top = n // 10**16                     # the first digit, then four groups of four
    out[:, 6] = top + ord("0")
    rest = n - top * 10**16
    for col, part in ((2, rest // 10**8), (4, rest % 10**8)):
        part = part.astype(np.uint32)
        head = part // 10**4
        quads[:, col], quads[:, col + 1] = groups[head], groups[part - head * 10**4]
    # strip trailing zeros after the point, and the point if no digit follows
    short = (out[:, 23] == ord("0")).nonzero()[0]
    if len(short):
        kept = 16 - (out[short, 23:5:-1] != ord("0")).argmax(axis=1)
        kept = np.maximum(kept, e[short])
        words[short, 1] &= keep[np.minimum(kept, 8)]
        words[short, 2] &= keep[np.maximum(kept - 8, 0)]
        out[short[kept == 0], 7] = 0
    slow = (~fast & (a != 0) | (np.abs(t - r) > 0.5 - 1e-6)).nonzero()[0]
    return _percent_cells(out, values, count, slow) if len(slow) else out


def _percent_cells(out, values, count, rows):
    """``out`` with Python's text of the values at ``rows`` in their rows."""
    text = np.array([("%d" if c else "%.17g") % x
                     for x, c in zip(values[rows].tolist(), count[rows].tolist())], dtype=bytes)
    if text.itemsize >= out.shape[1]:
        out = np.pad(out, ((0, 0), (0, text.itemsize + 1 - out.shape[1])))
    out[rows] = 0
    out[rows, :text.itemsize] = text.view(np.uint8).reshape(len(text), -1)
    return out


def _write_csv(path: str, header: str, row: str, table: np.ndarray) -> None:
    """Write ``header`` and one line per row of the 2-D float array ``table``,
    formatted by ``row``, comma-separated ``%d`` and ``%.17g`` fields, with the
    bytes of ``%`` (``_format_cells``): each block of rows in NUL-padded slots,
    one per value, the NULs dropped at once."""
    specs = row.split(",")
    count = np.tile([s == "%d" for s in specs], min(len(table), 1024))
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for start in range(0, len(table), 1024):
            block = table[start:start + 1024].ravel()
            cells = _format_cells(block, count[:len(block)])
            cells[:, -1] = ord(",")
            cells[len(specs) - 1::len(specs), -1] = ord("\n")
            fh.write(cells.tobytes().translate(None, b"\0"))


def _write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_report(path: str) -> dict:
    """Re-read an emitted JSON report; the round-trip partner of the writers."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Subcommands

def _cmd_classify(args) -> int:
    s = _load_symbol(args.symbol)
    cls = dynamics.classify(s)
    doc = dynamics.classification_to_dict(cls, s)
    _write_json(os.path.join(args.out, "classify_report.json"), doc)
    print(f"class: {cls.kind}")
    return EXIT_OK


def _cmd_verdict(args) -> int:
    s = _load_symbol(args.symbol)
    v = ergodicity.verdict(s, args.space)
    _write_json(os.path.join(args.out, f"verdict_{args.space}.json"), v.to_dict())
    print(f"space {args.space}: mean_ergodic={v.mean_ergodic} "
          f"uniformly_mean_ergodic={v.uniformly_mean_ergodic} tag={v.theorem_tag}")
    if ergodicity.UNKNOWN in (v.mean_ergodic, v.uniformly_mean_ergodic):
        return EXIT_UNDECIDED
    return EXIT_OK


def _cmd_cesaro(args) -> int:
    s = _load_symbol(args.symbol)
    f = _parse_test_function(args.test_function)
    trace = ergodicity.cesaro_apply(s, f, args.z, args.n)
    table = np.column_stack((np.arange(1, trace.n + 1), trace.orbit.real, trace.orbit.imag,
                             trace.partial_means.real, trace.partial_means.imag))
    _write_csv(os.path.join(args.out, "cesaro.csv"), "n,orbit_re,orbit_im,mean_re,mean_im",
               "%d,%.17g,%.17g,%.17g,%.17g", table)
    if args.format == "report":
        _write_json(os.path.join(args.out, "cesaro_report.json"), {
            "z": [trace.z.real, trace.z.imag],
            "n": trace.n,
            "final_mean": [trace.final.real, trace.final.imag],
        })
    print(f"final mean after {args.n} steps: {trace.final.real:.12g} "
          f"{trace.final.imag:+.12g}i")
    return EXIT_OK


def _cmd_density(args) -> int:
    s = _load_symbol(args.symbol)
    z0 = args.z0
    if z0 is not None and not abs(z0) <= 1.0 + SELF_MAP_TOL:  # also when not a number
        raise ConfigError(f"--z0 must be a point of the closed disc, got {z0!r}")
    # |phi| = 1 on the circle: a Blaschke product, however it is given
    inner = _is_inner(s)
    cls = dynamics.classify(s) if z0 is None or inner else None
    # whatever the target, before any seed is stepped
    if inner and isinstance(cls, dynamics.InteriorDW):
        raise ConfigError("a Blaschke product keeps the boundary seeds on the unit circle, "
                          "which repels rounding; they never reach its interior point z0")
    if z0 is None:
        if not isinstance(cls, (dynamics.InteriorDW, dynamics.HyperbolicDW,
                                dynamics.ParabolicDW)):
            raise ConfigError("symbol has no attracting point; pass --z0")
        z0 = cls.z0
    seeds = ergodicity._boundary_seeds(z0, args.seeds)
    if not len(seeds):
        raise ConfigError("every boundary seed coincides with z0; --seeds must be at least 2")
    estimates = ergodicity.density_sweep(s, seeds, z0, [args.radius], args.n)
    table = np.array([(d.z.real, d.z.imag, d.neighborhood_radius, d.n, d.hits,
                       d.estimate, d.running_min_ratio) for d in estimates])
    _write_csv(os.path.join(args.out, "density.csv"),
               "seed_re,seed_im,radius,n,hits,estimate,running_min_ratio",
               "%.17g,%.17g,%.17g,%d,%d,%.17g,%.17g", table)
    if args.format == "report":
        _write_json(os.path.join(args.out, "density_report.json"), {
            "z0": [z0.real, z0.imag],
            "radius": args.radius,
            "n": args.n,
            "min_estimate": min(d.estimate for d in estimates),
            "min_running_ratio": min(d.running_min_ratio for d in estimates),
            "certified_step": estimates.certified_step,
        })
    low = min(d.estimate for d in estimates)
    print(f"minimum visit density over {len(estimates)} seeds: {low:.6f}")
    return EXIT_OK


def _cmd_weyl(args) -> int:
    s = _load_symbol(args.symbol)
    orbit = iterate(s, args.z, args.n)
    report = ergodicity.weyl_test(orbit, args.j_max)
    table = np.column_stack((np.arange(1, len(report.per_j) + 1), report.per_j))
    _write_csv(os.path.join(args.out, "weyl.csv"), "j,abs_mean", "%d,%.17g", table)
    if args.format == "report":
        _write_json(os.path.join(args.out, "weyl_report.json"), {
            "j_max": args.j_max,
            "max_abs_mean": report.max_abs_mean,
            "per_j": report.per_j,
        })
    print(f"max |mean of orbit powers| over j<={args.j_max}: {report.max_abs_mean:.6g}")
    return EXIT_OK


def _cmd_counterexample(args) -> int:
    theta = args.theta
    if theta not in weighted.THETA_BUILTINS:
        try:
            theta = float(theta)
        except ValueError as exc:
            raise ConfigError("--theta must be golden, sqrt2, or a float") from exc
    seq = weighted.lacunary_exponents(theta=theta, R=args.big_r, K=args.k_terms)
    w = weighted.make_weight_v_alpha(args.alpha, args.r0, seq)
    pair = weighted.counterexample_pair(seq, args.k_terms, weight=w)
    table = np.array([(p["r"], p["v"], p["v_abs_f"], p["v_abs_g"])
                      for p in pair.report["weighted_probes"]])
    _write_csv(os.path.join(args.out, "counterexample.csv"), "radius,v,v_abs_f,v_abs_g",
               "%.17g,%.17g,%.17g,%.17g", table)
    doc = dict(pair.report)
    doc["sequence"] = seq.to_dict()
    doc["weight"] = w.to_dict()
    _write_json(os.path.join(args.out, "counterexample_report.json"), doc)
    print(f"K={args.k_terms}: coefficient-square sum of g = "
          f"{pair.report['h2_norm_sq_g']:g} (grows with K)")
    return EXIT_OK


def _cmd_gallery(args) -> int:
    out = os.path.join(args.out, "gallery")
    os.makedirs(out, exist_ok=True)
    undecided = False
    for name in gallery.GALLERY_NAMES:
        s = gallery.gallery_symbol(name)
        cls = dynamics.classify(s)
        _write_json(os.path.join(out, f"{name}_classify.json"),
                    dynamics.classification_to_dict(cls, s))
        for space in ("A", "Hinf"):
            v = ergodicity.verdict(s, space, cls=cls)
            _write_json(os.path.join(out, f"{name}_verdict_{space}.json"), v.to_dict())
            undecided |= ergodicity.UNKNOWN in (v.mean_ergodic, v.uniformly_mean_ergodic)
            print(f"{name:12s} {space:4s} {cls.kind:22s} "
                  f"ME={v.mean_ergodic:8s} UME={v.uniformly_mean_ergodic}")
    return EXIT_UNDECIDED if undecided else EXIT_OK


_COMMANDS = {
    "classify": _cmd_classify,
    "verdict": _cmd_verdict,
    "cesaro": _cmd_cesaro,
    "density": _cmd_density,
    "weyl": _cmd_weyl,
    "counterexample": _cmd_counterexample,
    "gallery": _cmd_gallery,
}


@functools.cache
def _parser() -> _Parser:
    # built once per process: parse_args does not mutate the parser
    parser = _Parser(prog="disc-ergodics",
                     description="composition-operator ergodicity experiments "
                                 "on the unit disc")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, symbol=True, fmt=False, n=False):
        p = sub.add_parser(name, help=summary)
        if symbol:
            p.add_argument("--symbol", required=True, help="path to a symbol JSON file")
        p.add_argument("--out", default=".", help="output directory")
        if fmt:
            p.add_argument("--format", default="csv", choices=("csv", "report"))
        if n:
            p.add_argument("--N", type=_positive_int, default=10**5, dest="n")
        return p

    command("classify", "dynamical class of a symbol")
    p = command("verdict", "mean-ergodicity verdict on one space")
    p.add_argument("--space", default="A", choices=ergodicity.SPACES)
    p = command("cesaro", "running Cesaro means along one orbit", fmt=True, n=True)
    p.add_argument("--f", default="monomial:1", dest="test_function",
                   help="monomial:J | taylor:C0;C1;... | witness:Z0;K")
    p.add_argument("--z", type=_parse_complex, default="0", help="seed, as RE or RE,IM")
    p = command("density", "orbit visit densities near the attractor", fmt=True, n=True)
    p.add_argument("--z0", type=_parse_complex, default=None,
                   help="target point (default: classify)")
    p.add_argument("--radius", type=float, default=0.1)
    p.add_argument("--seeds", type=_positive_int, default=32)
    p = command("weyl", "exponential-sum statistics of one orbit", fmt=True, n=True)
    p.add_argument("--z", type=_parse_complex, default="1", help="boundary seed")
    p.add_argument("--jmax", type=_positive_int, default=5, dest="j_max")
    p = command("counterexample", "lacunary weight and witness pair", symbol=False)
    p.add_argument("--theta", default="golden")
    p.add_argument("--R", type=float, default=2.0, dest="big_r")
    p.add_argument("--K", type=_positive_int, default=30, dest="k_terms")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--r0", type=float, default=0.5)
    command("gallery", "classify and judge every built-in symbol", symbol=False)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    for i in range(len(argv) - 1, 0, -1):  # argparse takes "--z -0.2,0.7" for two flags
        if argv[i - 1] in ("--z", "--z0") and argv[i][:1] == "-" and argv[i][1:2] != "-":
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    try:
        args = _parser().parse_args(argv)
        os.makedirs(args.out, exist_ok=True)
        return _COMMANDS[args.command](args)
    except (ValueError, dynamics.UnclassifiableError, dynamics.NonConvergenceError,
            weighted.BudgetExceededError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
