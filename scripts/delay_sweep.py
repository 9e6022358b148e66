#!/usr/bin/env python3
"""Sweep the write->read delay and print the model cross-correlation
against the classical bound (the fast, table-level version of the
correlation-decay figure; no Monte Carlo noise).

Usage: python scripts/delay_sweep.py [--delta-t-ns 100 200 ...]
"""

import argparse

from phononherald import config as C
from phononherald import protocol


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--delta-t-ns", type=float, nargs="+",
                    default=[100, 200, 400, 700, 1000, 1500, 2500, 5000])
    args = ap.parse_args()

    cfg = C.default_config()
    print(f"{'delta_t_ns':>10} {'g2_om':>8} {'bound':>8} {'nonclassical':>12}")
    for dt in args.delta_t_ns:
        g, g_ww, g_rr = protocol.pattern_g2(protocol.build_outcome_table(cfg, dt).probs)[0]
        b = (g_ww * g_rr) ** 0.5
        print(f"{dt:>10.0f} {g:>8.3f} {b:>8.3f} {str(g > b):>12}")


if __name__ == "__main__":
    main()
