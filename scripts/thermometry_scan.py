#!/usr/bin/env python3
"""Sideband thermometry convergence: estimate the mechanical occupation
from alternating blue/red pulse trains of increasing length.

Usage: python scripts/thermometry_scan.py [--seed N]
"""

import argparse

from phononherald import analysis, protocol
from phononherald import config as C


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int)
    args = ap.parse_args()

    cfg = C.default_config()
    try:
        if args.seed is not None:
            cfg = cfg.replace(seed=args.seed)
    except C.ConfigError as exc:
        ap.error(f"config error: {exc}")
    print(f"true occupation: {cfg.heating.n_base}")
    print(f"{'pulses':>10} {'n_th':>8} {'-sigma':>8} {'+sigma':>8}")
    for pulses in (10_000, 100_000, 1_000_000, 10_000_000):
        r = protocol.simulate_thermometry(cfg, pulses)
        occ = analysis.sideband_occupancy(
            r.clicks_red, r.clicks_blue, r.pulses_per_color,
            r.background_click_prob)
        print(f"{pulses:>10} {occ.value:>8.4f} {occ.sigma_minus:>8.4f} "
              f"{occ.sigma_plus:>8.4f}")


if __name__ == "__main__":
    main()
