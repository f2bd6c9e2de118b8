"""Write posterior_sweep.json, the frozen reference of the posterior sweep.

Each row is d, tau, ||y||, then log int w, D/C and the side weight at
a = ||y||^2 / 2, b = tau^2.  Up to ||y|| = 1e12 the values come from the
20-digit mpmath quadrature ``mp_mixture_moments``; past it, at tau = 1, from
the Watson expansion ``far_tail_moments``, whose first dropped term must be
below 1e-14 of the sum.  Both, and the points, live in tests/test_posterior.py.
About 10 minutes on one core; run from the repository root:

    PYTHONPATH=src python tests/data/make_posterior_sweep.py [--jobs N]
"""

import argparse
import json
import sys
import multiprocessing
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from test_posterior import far_tail_moments, mp_mixture_moments, posterior_sweep_points  # noqa: E402


def reference_row(point):
    d, tau, r = point
    a = 0.5 * r * r
    if r <= 1e12:
        return [d, tau, r, *mp_mixture_moments(a, tau * tau, d)]
    *moments, bound = far_tail_moments(a, d)
    if not (tau == 1.0 and bound < 1e-14):
        raise RuntimeError(f"no far-tail reference at {point}: tau = {tau}, dropped term {bound:.3g}")
    return [d, tau, r, *moments]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1)
    jobs = parser.parse_args().jobs
    points = posterior_sweep_points()
    if jobs > 1:
        with multiprocessing.get_context("spawn").Pool(jobs) as pool:
            rows = pool.map(reference_row, points, chunksize=8)
    else:
        rows = [reference_row(p) for p in points]
    (HERE / "posterior_sweep.json").write_text(json.dumps(rows) + "\n")


if __name__ == "__main__":
    main()
