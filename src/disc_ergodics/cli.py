"""Command-line front end: classify symbols, run experiments, emit reports.

Exit codes: 0 on success, 1 for usage or configuration errors, 2 when a
requested verdict comes back undecided -- distinct so scripts can branch on
numerical non-decision.  All outputs are deterministic: identical inputs
produce byte-identical files.

Library errors end the run with exit code 1 and a one-line ``error: ...``
message on stderr, never a traceback:

- ``ConfigError``, ``SymbolError`` and other ``ValueError``: bad arguments,
  symbol files or parameters;
- ``dynamics.UnclassifiableError``: residuals too large to classify;
- ``dynamics.NonConvergenceError``: an orbit exhausted its iteration budget;
- ``weighted.BudgetExceededError``: no lacunary exponent under the budget
  (for example ``counterexample --R 1000``);
- ``ArithmeticError``: a numerical certificate failed (a bound was
  exceeded, or degenerate geometry such as collinear boundary images).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field

from . import dynamics, ergodicity, gallery, weighted
from .symbols import SymbolError, parse_symbol

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNDECIDED = 2

THREADS_ENV = "DISC_ERGODICS_THREADS"


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; remap to the documented 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    command: str
    symbol_path: str | None = None
    space: str = "A"
    n: int = 10**5
    tol: float = 1e-6
    out_dir: str = "."
    out_format: str = "csv"
    z: complex = 0.0
    z0: complex | None = None
    radius: float = 0.1
    seeds: int = 32
    j_max: int = 5
    test_function: str = "monomial:1"
    theta: str = "golden"
    big_r: float = 2.0
    k_terms: int = 30
    alpha: float = 0.5
    r0: float = 0.5
    max_threads: int = field(default=1)

    def __post_init__(self):
        if self.n < 1 or self.seeds < 1 or self.j_max < 1 or self.k_terms < 1:
            raise ConfigError("budgets must be positive")
        if not 0.0 < self.tol <= 1e-2:
            raise ConfigError("tol must lie in (0, 1e-2]")
        if self.out_format not in ("csv", "report"):
            raise ConfigError("format must be csv or report")
        if self.max_threads < 1:
            raise ConfigError(f"{THREADS_ENV} must be a positive integer")


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


def _write_lines(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


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

def _cmd_classify(cfg: RunConfig) -> int:
    s = _load_symbol(cfg.symbol_path)
    cls = dynamics.classify(s)
    doc = dynamics.classification_to_dict(cls, s)
    _write_json(os.path.join(cfg.out_dir, "classify_report.json"), doc)
    print(f"class: {cls.kind}")
    return EXIT_OK


def _cmd_verdict(cfg: RunConfig) -> int:
    s = _load_symbol(cfg.symbol_path)
    v = ergodicity.verdict(s, cfg.space)
    _write_json(os.path.join(cfg.out_dir, f"verdict_{cfg.space}.json"), v.to_dict())
    print(f"space {cfg.space}: mean_ergodic={v.mean_ergodic} "
          f"uniformly_mean_ergodic={v.uniformly_mean_ergodic} tag={v.theorem_tag}")
    if ergodicity.UNKNOWN in (v.mean_ergodic, v.uniformly_mean_ergodic):
        return EXIT_UNDECIDED
    return EXIT_OK


def _cmd_cesaro(cfg: RunConfig) -> int:
    s = _load_symbol(cfg.symbol_path)
    f = _parse_test_function(cfg.test_function)
    trace = ergodicity.cesaro_apply(s, f, cfg.z, cfg.n)
    _write_lines(os.path.join(cfg.out_dir, "cesaro.csv"),
                 ergodicity.cesaro_csv_rows(trace))
    if cfg.out_format == "report":
        _write_json(os.path.join(cfg.out_dir, "cesaro_report.json"), {
            "z": [trace.z.real, trace.z.imag],
            "n": trace.n,
            "final_mean": [trace.final.real, trace.final.imag],
        })
    print(f"final mean after {cfg.n} steps: {trace.final.real:.12g} "
          f"{trace.final.imag:+.12g}i")
    return EXIT_OK


def _cmd_density(cfg: RunConfig) -> int:
    s = _load_symbol(cfg.symbol_path)
    if cfg.z0 is None:
        cls = dynamics.classify(s)
        if not isinstance(cls, (dynamics.InteriorDW, dynamics.HyperbolicDW,
                                dynamics.ParabolicDW)):
            raise ConfigError("symbol has no attracting point; pass --z0")
        z0 = cls.z0
    else:
        z0 = cfg.z0
    seeds = ergodicity._boundary_seeds(z0, cfg.seeds)
    estimates = ergodicity.density_sweep(s, seeds, z0, [cfg.radius], cfg.n)
    _write_lines(os.path.join(cfg.out_dir, "density.csv"),
                 ergodicity.density_csv_rows(estimates))
    if cfg.out_format == "report":
        _write_json(os.path.join(cfg.out_dir, "density_report.json"), {
            "z0": [z0.real, z0.imag],
            "radius": cfg.radius,
            "n": cfg.n,
            "min_estimate": min(d.estimate for d in estimates),
            "min_running_ratio": min(d.running_min_ratio for d in estimates),
        })
    low = min(d.estimate for d in estimates)
    print(f"minimum visit density over {len(estimates)} seeds: {low:.6f}")
    return EXIT_OK


def _cmd_weyl(cfg: RunConfig) -> int:
    s = _load_symbol(cfg.symbol_path)
    from .symbols import iterate
    orbit = iterate(s, cfg.z, cfg.n)
    report = ergodicity.weyl_test(orbit, cfg.j_max)
    _write_lines(os.path.join(cfg.out_dir, "weyl.csv"),
                 ergodicity.weyl_csv_rows(report))
    if cfg.out_format == "report":
        _write_json(os.path.join(cfg.out_dir, "weyl_report.json"), {
            "j_max": cfg.j_max,
            "max_abs_mean": report.max_abs_mean,
            "per_j": report.per_j,
        })
    print(f"max |mean of orbit powers| over j<={cfg.j_max}: {report.max_abs_mean:.6g}")
    return EXIT_OK


def _cmd_counterexample(cfg: RunConfig) -> int:
    theta = cfg.theta
    if theta not in weighted.THETA_BUILTINS:
        try:
            theta = float(theta)
        except ValueError as exc:
            raise ConfigError("--theta must be golden, sqrt2, or a float") from exc
    seq = weighted.lacunary_exponents(theta=theta, R=cfg.big_r, K=cfg.k_terms)
    w = weighted.make_weight_v_alpha(cfg.alpha, cfg.r0, seq)
    pair = weighted.counterexample_pair(seq, cfg.k_terms, weight=w)
    rows = ["radius,v,v_abs_f,v_abs_g"]
    for p in pair.report["weighted_probes"]:
        rows.append(",".join(ergodicity.format_float(p[key])
                             for key in ("r", "v", "v_abs_f", "v_abs_g")))
    _write_lines(os.path.join(cfg.out_dir, "counterexample.csv"), rows)
    doc = dict(pair.report)
    doc["sequence"] = seq.to_dict()
    doc["weight"] = w.to_dict()
    _write_json(os.path.join(cfg.out_dir, "counterexample_report.json"), doc)
    print(f"K={cfg.k_terms}: coefficient-square sum of g = "
          f"{pair.report['h2_norm_sq_g']:g} (grows with K)")
    return EXIT_OK


def _cmd_gallery(cfg: RunConfig) -> int:
    out = os.path.join(cfg.out_dir, "gallery")
    os.makedirs(out, exist_ok=True)
    budgets = ergodicity.VerdictBudgets(density_n=min(cfg.n, 10**4))
    undecided = False
    for name in gallery.GALLERY_NAMES:
        s = gallery.gallery_symbol(name)
        cls = dynamics.classify(s)
        _write_json(os.path.join(out, f"{name}_classify.json"),
                    dynamics.classification_to_dict(cls, s))
        for space in ("A", "Hinf"):
            v = ergodicity.verdict(s, space, budgets, cls=cls)
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


def build_parser() -> _Parser:
    parser = _Parser(prog="disc-ergodics",
                     description="composition-operator ergodicity experiments "
                                 "on the unit disc")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, symbol=True):
        if symbol:
            p.add_argument("--symbol", required=True, help="path to a symbol JSON file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--format", default="csv", choices=("csv", "report"))
        p.add_argument("--N", type=int, default=10**5, dest="n")
        p.add_argument("--tol", type=float, default=1e-6)

    p = sub.add_parser("classify", help="dynamical class of a symbol")
    common(p)
    p = sub.add_parser("verdict", help="mean-ergodicity verdict on one space")
    common(p)
    p.add_argument("--space", default="A", choices=ergodicity.SPACES)
    p = sub.add_parser("cesaro", help="running Cesaro means along one orbit")
    common(p)
    p.add_argument("--f", default="monomial:1", dest="test_function",
                   help="monomial:J | taylor:C0;C1;... | witness:Z0;K")
    p.add_argument("--z", default="0", help="seed, as RE or RE,IM")
    p = sub.add_parser("density", help="orbit visit densities near the attractor")
    common(p)
    p.add_argument("--z0", default=None, help="target point (default: classify)")
    p.add_argument("--radius", type=float, default=0.1)
    p.add_argument("--seeds", type=int, default=32)
    p = sub.add_parser("weyl", help="exponential-sum statistics of one orbit")
    common(p)
    p.add_argument("--z", default="1", help="boundary seed")
    p.add_argument("--jmax", type=int, default=5, dest="j_max")
    p = sub.add_parser("counterexample", help="lacunary weight and witness pair")
    common(p, symbol=False)
    p.add_argument("--theta", default="golden")
    p.add_argument("--R", type=float, default=2.0, dest="big_r")
    p.add_argument("--K", type=int, default=30, dest="k_terms")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--r0", type=float, default=0.5)
    p = sub.add_parser("gallery", help="classify and judge every built-in symbol")
    common(p, symbol=False)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    threads = os.environ.get(THREADS_ENV, "1")
    try:
        max_threads = int(threads)
    except ValueError:
        raise ConfigError(f"{THREADS_ENV} must be an integer, got {threads!r}")
    cfg = RunConfig(
        command=args.command,
        symbol_path=getattr(args, "symbol", None),
        space=getattr(args, "space", "A"),
        n=args.n,
        tol=args.tol,
        out_dir=args.out,
        out_format=args.format,
        z=_parse_complex(getattr(args, "z", "0")),
        z0=None if getattr(args, "z0", None) is None else _parse_complex(args.z0),
        radius=getattr(args, "radius", 0.1),
        seeds=getattr(args, "seeds", 32),
        j_max=getattr(args, "j_max", 5),
        test_function=getattr(args, "test_function", "monomial:1"),
        theta=getattr(args, "theta", "golden"),
        big_r=getattr(args, "big_r", 2.0),
        k_terms=getattr(args, "k_terms", 30),
        alpha=getattr(args, "alpha", 0.5),
        r0=getattr(args, "r0", 0.5),
        max_threads=max_threads,
    )
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _config_from_args(args)
        os.makedirs(cfg.out_dir, exist_ok=True)
        return _COMMANDS[cfg.command](cfg)
    except (ValueError, dynamics.UnclassifiableError, dynamics.NonConvergenceError,
            weighted.BudgetExceededError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
