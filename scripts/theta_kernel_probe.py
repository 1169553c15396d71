#!/usr/bin/env python3
"""Measure the kernel annihilator of the reverse-parametrization composite.

For a given (q, p, r) this derives the torus parameters, computes the
fixed exponents (d_x, d_p, d_r) that theta_reverse o theta applies to the
three input slots, and reports the group exponent of the composite's
kernel together with the least k such that (p*r)^k annihilates it.

Usage: python scripts/theta_kernel_probe.py --q 7 --p 3 --r 5
"""

import argparse

from cyclokit.torus import derive_params, kernel_annihilator


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--q", type=int, default=7)
    parser.add_argument("--p", type=int, default=3)
    parser.add_argument("--r", type=int, default=5)
    args = parser.parse_args()

    params = derive_params(args.q, args.p, args.r)
    report = kernel_annihilator(params)
    n = args.p * args.r
    print(f"(q, p, r) = ({args.q}, {args.p}, {args.r}), n = {n}")
    print(f"torus slot exponent      d_x = {report.d_x}")
    print(f"degree-p slot exponent   d_p = {report.d_p}")
    print(f"degree-r slot exponent   d_r = {report.d_r}")
    print(f"kernel group exponent        = {report.exponent}")
    print(f"least k with exponent | n^k  = {report.power}  (n^k = {n**report.power})")


if __name__ == "__main__":
    main()
