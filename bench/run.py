"""Benchmark of the spe estimator.

    python3 bench/run.py --workload fit_hidden [--seed 4] [--seconds 10] [--trace 0|1]

Run from a checkout of the repository; the package is imported from its
`src/` directory, so no install is needed. One caller runs the workload's
operation in a closed loop (the next starts when the previous one ends) until
--seconds have passed, at least once, and checks every result. BLAS and
OpenMP pools are pinned to one thread before numpy is imported.

--seed is the fleet seed: the same seed gives the same fleet. Seed 4 (the
default) is the pinned acceptance fleet, 22 replacements in 50,000 decisions.
Seed 11 is the holdout seed: a claimed gain must also hold there.

With --trace 0 the run reports the end-to-end metrics: set-up time (import,
then the median of three fleet set-ups), the median operation time, decisions
per second, peak resident memory, the share of operations that passed their
check, and the negative log likelihood of the result. With --trace 1 it runs
one warm-up operation, then the loop untraced, then the loop with the
package's public entry points wrapped from outside (see layers.py), and
reports the per-layer metrics with the tracing overhead. Human-readable lines
come first; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. A record of the run, spans included,
is written to bench/out/.
"""
from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 3
NO_WAIT_NOTE = (
    "no wait time is reported: the program runs in one process on one thread "
    "and does no I/O while an operation is timed"
)


@dataclass
class OpRecord:
    seconds: float
    problems: list
    neg_loglik: float | None
    summary: str
    phase: str


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _provenance(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "loop": "closed, one caller",
    }


def _import_package() -> float:
    """Import the package from this checkout; returns the import time."""
    src = ROOT / "src"
    if not (src / "spe" / "__init__.py").is_file():
        raise SystemExit(f"bench: no package source at {src / 'spe'}; run from a full checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    start = time.perf_counter()
    import spe  # noqa: F401
    import workloads  # noqa: F401

    elapsed = time.perf_counter() - start
    if Path(spe.__file__).resolve().parent != (src / "spe").resolve():
        raise SystemExit(f"bench: imported spe from {spe.__file__}, not from {src}")
    return elapsed


def run_ops(workload, inputs, seconds: float, phase: str, tracer=None) -> list[OpRecord]:
    """Closed loop: run the operation until `seconds` have passed, at least once."""
    from spe.errors import EstimationError

    records = []
    deadline = time.perf_counter() + seconds
    while not records or time.perf_counter() < deadline:
        start = time.perf_counter()
        try:
            if tracer is None:
                result = workload.op(inputs)
            else:
                with tracer.root("op"):
                    result = workload.op(inputs)
        except EstimationError as exc:
            elapsed = time.perf_counter() - start
            problem = f"{type(exc).__name__}: {exc}"
            records.append(OpRecord(elapsed, [problem], None, "raised", phase))
            continue
        elapsed = time.perf_counter() - start
        problems = workload.check(inputs, result)
        quality = workload.neg_loglik(inputs, result)
        records.append(
            OpRecord(elapsed, problems, quality, workload.summary(result), phase)
        )
    return records


def setup(workload, scale, seed: int):
    """Set the workload up SETUP_REPEATS times; returns (inputs, median seconds)."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = workload.setup(scale, seed)
        times.append(time.perf_counter() - start)
    return inputs, statistics.median(times)


def _median(records) -> float:
    return statistics.median(r.seconds for r in records)


def end_to_end(records, inputs, import_s: float, setup_s: float) -> dict:
    import workloads

    wall = _median(records)
    ok = [r for r in records if not r.problems]
    quality = [r.neg_loglik for r in ok]
    return {
        "setup_s": (import_s + setup_s, "s"),
        "wall_s": (wall, "s"),
        "decisions_per_s": (workloads.decisions(inputs.fleet) / wall, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ops_ok": (len(ok) / len(records), "share"),
        "neg_loglik": (statistics.median(quality) if quality else 0.0, "nats"),
    }


def per_layer(tracer, untraced, traced) -> dict:
    import layers

    roots = [s for s in tracer.spans if s.parent is None]
    kids = tracer.children()
    per_op = [layers.op_metrics(tracer, r, kids) for r in roots]
    accounted = statistics.median(
        sum(s.duration for s in layers.accounted_spans(r, kids)) for r in roots
    )
    out = {}
    for name, unit in layers.METRICS.items():
        if name in per_op[0]:
            out[name] = (statistics.median(m[name] for m in per_op), unit)
    out["trace.overhead_s"] = (_median(traced) - _median(untraced), "s")
    out["trace.unaccounted_s"] = (_median(untraced) - accounted, "s")
    return out


def run(workload, scale, seed: int, seconds: float, trace: bool, import_s: float = 0.0):
    """Run one benchmark configuration in this process; returns the run record.

    The metrics are (value, unit) pairs: the end-to-end ones without tracing,
    the per-layer ones with it.
    """
    import workloads

    inputs, setup_s = setup(workload, scale, seed)
    record = {
        "input": {
            "n_histories": scale.n_histories,
            "horizon": scale.horizon,
            "decisions": workloads.decisions(inputs.fleet),
            "replacements": workloads.replacements(inputs.fleet),
            "config": {k: getattr(scale.config, k) for k in (
                "grid_resolution", "bellman_tol", "grad_q_tol", "grad_norm_tol",
                "step_size", "max_stage2_iters", "stage1_max_iters")},
        },
        "import_s": import_s,
        "setup_fleet_s": setup_s,
    }
    if trace:
        import layers
        from tracing import Tracer

        # The first operation in a process runs slower (12-17% on fit_hidden),
        # so the untraced and traced operations compared both follow a warm-up.
        records = run_ops(workload, inputs, 0.0, "warm-up")
        untraced = run_ops(workload, inputs, seconds, "untraced")
        tracer = Tracer()
        layers.install(tracer)
        try:
            traced = run_ops(workload, inputs, seconds, "traced", tracer)
        finally:
            tracer.restore()
        records += untraced + traced
        record["metrics"] = per_layer(tracer, untraced, traced)
        record["spans"] = tracer.to_json()
    else:
        records = run_ops(workload, inputs, seconds, "untraced")
        record["metrics"] = end_to_end(records, inputs, import_s, setup_s)
    record["ops"] = [r.__dict__ for r in records]
    return record


def result_line(record) -> dict:
    """The benchmark's result: every operation counts, traced ones too."""
    failed = sum(1 for op in record["ops"] if op["problems"])
    return {
        "correct": failed == 0,
        "attempted": len(record["ops"]),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in record["metrics"].items()},
    }


def main(import_s: float, argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=4)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    prov = _provenance(args)
    print(f"# spe benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# " + ", ".join(f"{k}={v}" for k, v in prov.items() if k not in vars(args)))
    record = run(workloads.WORKLOADS[args.workload], workloads.FULL, args.seed, args.seconds,
                 bool(args.trace), import_s)
    record["provenance"] = prov
    record["note"] = NO_WAIT_NOTE
    inp = record["input"]
    print(f"# input: {inp['n_histories']} histories x {inp['horizon']} periods = "
          f"{inp['decisions']} decisions, {inp['replacements']} replacements")
    print(f"# set-up: import {import_s:.3f} s + median fleet set-up "
          f"{record['setup_fleet_s']:.3f} s ({SETUP_REPEATS} repeats)")
    print(f"# {NO_WAIT_NOTE}")
    for i, op in enumerate(record["ops"], 1):
        state = "ok" if not op["problems"] else "FAILED: " + "; ".join(op["problems"])
        print(f"# op {i} ({op['phase']}): {op['seconds']:.4f} s {state}; {op['summary']}")
    n_untraced = sum(1 for op in record["ops"] if op["phase"] == "untraced")
    print(f"# metrics (timings are medians; {n_untraced} untraced operations):")
    for name, (value, unit) in record["metrics"].items():
        print(f"#   {name} = {value:.6g} {unit}")
    line = result_line(record)
    record["metrics"] = line["metrics"]
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"# run record: {out_path.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    sys.exit(main(_import_package()))
