"""Benchmark of disc-ergodics: seeded request mixes against the library and CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload verdict_mix --seed 1 --seconds 40 --trace 0

One client in one process sends each request after the previous one ends
(closed loop), with BLAS/OpenMP threads pinned to 1.  Every output is
checked against its expected value, and every file the CLI writes is hashed:
a file that differs between passes, or between the traced and the untraced
pass, counts as a failed request.

``--trace 0`` repeats passes over the request list for about ``--seconds``
(at least one) and prints the end-to-end metrics, whose times are rescaled
to nominal machine speed by pace.py (the unadjusted times are printed on
the lines before the result).  ``--trace 1`` alternates
untraced and traced passes for about ``--seconds`` (at least one of each),
then times the evaluation probes and the ROADMAP baseline calls, and prints
the per-layer metrics.  The metric names and units come from BENCHMARK.json.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 5         # fresh interpreters timed per run; the median is reported
PARSE_REPEATS = 3         # in-process traced parses of every document
PROBE_REPEATS = 7         # timings per evaluation probe; the median is reported
PROBE_TARGET_S = 2e-3     # length of one probe timing
SETUP_REF_SAMPLES = 15    # pace samples taken after each set-up

# One symbol of each kind for the evaluation probes.
PROBE_DOCS = {
    "moebius": {"kind": "moebius", "a": [2.0, 0.0], "b": [1.0, 0.0],
                "c": [1.0, 0.0], "d": [2.0, 0.0]},
    "blaschke": {"kind": "blaschke", "rotation": 0.3, "zeros": [[0.0, 0.0], [0.5, 0.2]]},
    "polynomial": {"kind": "polynomial", "coeffs": [[0.0, 0.0], [0.5, 0.0], [0.5, 0.0]]},
    "taylor": {"kind": "taylor", "coeffs": [[0.4 * 0.5 ** k, 0.0] for k in range(16)]},
}
PROBE_SIZES = (1, 32, 1024)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Passes

@dataclasses.dataclass
class PassResult:
    latencies: list
    failures: list            # (request, message)
    digests: dict             # request id -> digest of its output
    bytes_written: int
    seconds: float            # pass wall time, checks included
    adjusted: list = dataclasses.field(default_factory=list)  # at nominal speed (pace.py)

    @property
    def wall_s(self) -> float:
        return sum(self.latencies)

    @property
    def wall_adj_s(self) -> float:
        return sum(self.adjusted)


def _canonical(obj, h):
    """Feed a library result to a hash, arrays by their bytes."""
    import numpy as np

    if isinstance(obj, np.ndarray):
        h.update(obj.tobytes())
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            _canonical(getattr(obj, f.name), h)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _canonical(item, h)
    else:
        h.update(repr(obj).encode())


def _digest(result, out: str) -> tuple[str, int]:
    """Hash of the result and of every file written under out; bytes written."""
    h = hashlib.sha256()
    _canonical(result, h)
    written = 0
    for path in sorted(Path(out).rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            h.update(str(path.relative_to(out)).encode())
            h.update(data)
            written += len(data)
    return h.hexdigest(), written


def run_pass(requests, work: str, reference: dict | None, tracer=None) -> PassResult:
    """Send every request once, closed loop; check and hash each output.

    An untraced pass samples the machine's pace while it runs and also
    reports each latency at nominal speed; a traced pass does not, so that
    its spans hold no sampling time."""
    import pace
    import workloads

    res = PassResult([], [], {}, 0, 0.0)
    pacer = pace.Pacer()
    intervals = []
    start = time.perf_counter()
    with pacer.running() if tracer is None else nullcontext():
        for req in requests:
            out = os.path.join(work, "out", req.rid)
            os.makedirs(out)
            scope = tracer.request_span(req.rid) if tracer else nullcontext()
            spent, t0 = pacer.spent, time.perf_counter()
            try:
                with scope:
                    result = req.call(out)
            except Exception as exc:  # a failing request is counted, never dropped
                result, error = None, f"raised {type(exc).__name__}: {exc}"
            else:
                error = None
            t1 = time.perf_counter()
            intervals.append((t0, t1))
            res.latencies.append(t1 - t0 - (pacer.spent - spent))
            if error is not None:
                res.failures.append((req, error))
                shutil.rmtree(out)
                continue
            try:
                req.check(result, out)
            except workloads.Mismatch as exc:
                res.failures.append((req, str(exc)))
            except Exception as exc:
                res.failures.append((req, f"output unreadable: {type(exc).__name__}: {exc}"))
            else:
                digest, written = _digest(result, out)
                res.digests[req.rid] = digest
                res.bytes_written += written
                if reference is not None and reference.get(req.rid) not in (None, digest):
                    res.failures.append((req, "output differs from the first pass"))
            shutil.rmtree(out)
    res.seconds = time.perf_counter() - start
    if tracer is None:
        res.adjusted = [pacer.adjust(t, *span) for t, span in zip(res.latencies, intervals)]
    return res


# ---------------------------------------------------------------------------
# Set-up

def setup_seconds(docs_path: str) -> tuple[float, float, int]:
    """Median time to import the package and parse every document, each time
    in a fresh interpreter, as measured and at nominal speed (pace.py); the
    first interpreter, which also compiles bytecode, is not counted."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, adjusted = [], []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), docs_path,
                               str(SETUP_REF_SAMPLES)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        if i:
            seconds, pace_now = map(float, done.stdout.split()[-2:])
            times.append(seconds)
            adjusted.append(seconds / pace_now)
    return statistics.median(times), statistics.median(adjusted), len(times)


def parse_seconds(docs: list) -> float:
    """Median over repeats of the traced time in symbols.parse spans."""
    import tracing
    from disc_ergodics import symbols

    totals = []
    for _ in range(PARSE_REPEATS):
        tracer = tracing.Tracer()
        with tracer.installed():
            for doc in docs:
                symbols.parse_symbol(doc)
        totals.append(sum(s.duration for s in tracer.spans if s.name == "symbols.parse"))
    return statistics.median(totals)


def probe_ns_per_point() -> dict:
    """Evaluation time per point for each symbol kind and argument size."""
    import numpy as np
    from disc_ergodics import symbols

    out = {}
    for kind, doc in PROBE_DOCS.items():
        s = symbols.parse_symbol(doc)
        for size in PROBE_SIZES:
            if size == 1:
                z = complex(0.3, 0.4)
            else:
                z = 0.9 * np.exp(2j * np.pi * (np.arange(size) + 0.5) / size)
            t0 = time.perf_counter()
            s(z)
            reps = max(1, int(PROBE_TARGET_S / max(time.perf_counter() - t0, 1e-7)))
            timings = []
            for _ in range(PROBE_REPEATS):
                t0 = time.perf_counter()
                for _ in range(reps):
                    s(z)
                timings.append(time.perf_counter() - t0)
            out[f"symbols.eval_ns_per_point.{kind}.{size}"] = (
                statistics.median(timings) / (reps * size) * 1e9)
    return out


def family_shares(requests) -> dict:
    """Share of requests by symbol family: linear-fractional, nonlinear, none
    (gallery and counterexample commands), and dilations r z with 0 < r < 1."""
    counts = {"lft": 0, "nonlinear": 0, "none": 0, "dilation": 0}
    for req in requests:
        if req.sym is None:
            counts["none"] += 1
            continue
        counts["lft" if req.sym.lft else "nonlinear"] += 1
        doc = req.sym.doc
        if doc["kind"] == "moebius" and doc["b"] == doc["c"] == [0.0, 0.0]:
            ratio = complex(*doc["a"]) / complex(*doc["d"])
            counts["dilation"] += ratio.imag == 0.0 and 0.0 < ratio.real < 1.0
    return {k: v / len(requests) for k, v in counts.items()}


# ---------------------------------------------------------------------------

def _report_failures(passes):
    failed = 0
    for i, p in enumerate(passes):
        for req, message in p.failures:
            print(f"FAILED pass {i} {req.rid} [{req.what}]: {message}")
        failed += len({req.rid for req, _ in p.failures})
    return failed


def end_to_end(args, builder, work, docs_path):
    setup_raw_s, setup_s, setup_n = setup_seconds(docs_path)
    passes = []
    started = time.perf_counter()
    while not passes or (time.perf_counter() - started
                         + statistics.median(p.seconds for p in passes) <= args.seconds):
        reference = passes[0].digests if passes else None
        passes.append(run_pass(builder.requests, work, reference))
    latencies = [t for p in passes for t in p.latencies]
    adjusted = [t for p in passes for t in p.adjusted]
    attempted = len(latencies)
    failed = _report_failures(passes)
    print(f"samples: setup {setup_n} fresh interpreters, {len(passes)} passes, "
          f"{attempted} requests ({len(builder.requests)} per pass)")
    print("pass wall s: " + ", ".join(f"{p.wall_s:.3f}" for p in passes)
          + "; at nominal speed: " + ", ".join(f"{p.wall_adj_s:.3f}" for p in passes))
    print(f"unadjusted setup s: {setup_raw_s:.6g}")
    print(f"unadjusted request s: p50 {statistics.median(latencies):.6g}, "
          f"p90 {statistics.quantiles(latencies, n=10)[8]:.6g}")
    metrics = {
        "setup_s": setup_s,
        "wall_adj_s": statistics.median(p.wall_adj_s for p in passes),
        "request_adj_s.p50": statistics.median(adjusted),
        "request_adj_s.p90": statistics.quantiles(adjusted, n=10)[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": (attempted - failed) / attempted,
    }
    return metrics, attempted, failed, True


def per_layer(args, builder, work, docs):
    import tracing
    import workloads

    untraced, traced, layers, tracers = [], [], [], []
    started = time.perf_counter()
    while not traced or (time.perf_counter() - started + untraced[-1].seconds
                         + traced[-1].seconds <= args.seconds):
        reference = untraced[0].digests if untraced else None
        untraced.append(run_pass(builder.requests, work, reference))
        tracer = tracing.Tracer()
        with tracer.installed():
            traced.append(run_pass(builder.requests, work, untraced[0].digests, tracer))
        tracers.append(tracer)
        layers.append(tracing.layer_metrics(tracer.spans))
    counts_agree = all(layer[name] == layers[0][name]
                       for layer in layers for name in tracing.COUNT_METRICS)
    if not counts_agree:
        print("FAILED: count metrics differ between traced passes")

    metrics = tracing.median_metrics(layers)
    metrics["cli.bytes_written"] = traced[0].bytes_written
    metrics["trace.overhead_s"] = (statistics.median(p.wall_s for p in traced)
                                   - statistics.median(p.wall_s for p in untraced))
    metrics["symbols.parse.s"] = parse_seconds(docs)
    metrics.update(probe_ns_per_point())
    base = prepare("baseline", args.seed, builder.sym_dir)
    baseline = run_pass(base.requests, work, None)
    metrics.update(zip(workloads.BASELINE_METRICS, baseline.latencies))

    passes = untraced + traced + [baseline]
    attempted = sum(len(p.latencies) for p in passes)
    failed = _report_failures(passes)
    print(f"samples: {len(untraced)} untraced and {len(traced)} traced passes, "
          f"{len(builder.requests)} requests per pass, {len(base.requests)} baseline calls")
    with open(WORK_ROOT / f"spans-{args.workload}-seed{args.seed}.jsonl", "w",
              encoding="utf-8") as fh:
        for i, tracer in enumerate(tracers):
            tracer.dump(fh, i)
    return metrics, attempted, failed, counts_agree


def prepare(workload: str, seed: int, sym_dir: str):
    """Build a request list, write its symbol documents and parse them."""
    import workloads
    from disc_ergodics import symbols

    builder = workloads.build(workload, seed, sym_dir)
    for name, sym in builder.fam.syms.items():
        with open(builder.path(sym), "w", encoding="utf-8") as fh:
            json.dump(sym.doc, fh)
        builder.parsed[name] = symbols.parse_symbol(sym.doc)
    return builder


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "disc_ergodics" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mpmath
    import numpy

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        sym_dir = os.path.join(work, "symbols")
        os.makedirs(sym_dir)
        builder = prepare(args.workload, args.seed, sym_dir)
        docs = [sym.doc for sym in builder.fam.syms.values()]
        docs_path = os.path.join(work, "documents.json")
        with open(docs_path, "w", encoding="utf-8") as fh:
            json.dump(docs, fh)

        print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
        print(f"environment: nproc {os.cpu_count()}, python {platform.python_version()}, "
              f"numpy {numpy.__version__}, mpmath {mpmath.__version__}")
        shares = family_shares(builder.requests)
        print(f"symbols: {len(docs)} documents; request shares "
              + ", ".join(f"{k} {v:.3f}" for k, v in shares.items()))
        if args.trace:
            metrics, attempted, failed, ok = per_layer(args, builder, work, docs)
        else:
            metrics, attempted, failed, ok = end_to_end(args, builder, work, docs_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    for m in wanted:
        print(f"{m['name']}: {metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
