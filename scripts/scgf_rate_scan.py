#!/usr/bin/env python3
"""Scan the SCGF and its rate function for a first-layer observable.

Writes <prefix>_scgf.csv (t, F, Fprime, trunc_err) and <prefix>_rate.csv
(x, I, t_star, domain_flag).
"""

import argparse

import numpy as np

from multising import ldp
from multising.cli import parse_observable, write_csv
from multising.ising1d import ModelParams
from multising.observables import to_first_layer


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--beta", type=float, default=1.0)
    ap.add_argument("--J", type=float, default=1.0)
    ap.add_argument("--h", type=float, default=0.0)
    ap.add_argument("--f", type=str, default="s[1]*s[2]")
    ap.add_argument("--t-max", type=float, default=3.0)
    ap.add_argument("--t-step", type=float, default=0.05)
    ap.add_argument("--x-points", type=int, default=41)
    ap.add_argument("--tol", type=float, default=1e-10)
    ap.add_argument("--out-prefix", type=str, default="scan")
    args = ap.parse_args()

    params = ModelParams(args.beta, args.J, args.h)
    fstar = to_first_layer(parse_observable(args.f))
    grid = np.arange(-args.t_max, args.t_max + args.t_step / 2, args.t_step)
    curve = ldp.scgf_curve(fstar, params, grid, args.tol)
    write_csv(f"{args.out_prefix}_scgf.csv", curve.csv_header(), curve.csv_columns())

    xs = np.linspace(curve.Fprime[0], curve.Fprime[-1], args.x_points + 2)[1:-1]
    rate = ldp.rate_curve(fstar, params, xs, args.tol)
    write_csv(f"{args.out_prefix}_rate.csv", rate.csv_header(), rate.csv_columns())
    print(f"wrote {args.out_prefix}_scgf.csv ({grid.size} points) and "
          f"{args.out_prefix}_rate.csv ({xs.size} points)")


if __name__ == "__main__":
    main()
