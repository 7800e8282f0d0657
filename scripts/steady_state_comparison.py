#!/usr/bin/env python3
"""Compare master-equation steady states against the static MFG family.

Sweeps the coupling strength for a spin-boson system and prints (or writes
to CSV) the trace distance of each generator's steady state from the Gibbs
state, the second-order MFG state, and the ultrastrong MFG state.
"""

import argparse
import csv
import sys

import numpy as np

from mfgkit import bath, megen, mfstatics
from mfgkit.opcore import gibbs, trace_distance

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--eps", type=float, default=1.0)
    ap.add_argument("--delta", type=float, default=0.5)
    ap.add_argument("--beta", type=float, default=1.0)
    ap.add_argument("--gamma", type=float, default=0.1)
    ap.add_argument("--omega-d", type=float, default=5.0)
    ap.add_argument("--lambdas", default="0.02,0.05,0.1,0.2,0.4")
    ap.add_argument("--out", default=None, help="CSV path (default: stdout table)")
    args = ap.parse_args()

    h = (args.eps / 2) * SZ + (args.delta / 2) * SX
    J = bath.DrudeLorentz(gamma=args.gamma, omega_d=args.omega_d)
    tau = gibbs(h, args.beta)
    ultra = mfstatics.mfg_ultrastrong(h, SZ, args.beta).state

    rows = []
    for lam in (float(x) for x in args.lambdas.split(",")):
        bp = bath.BathParams(J=J, beta=args.beta, lam=lam)
        weak = mfstatics.mfg_weak(h, SZ, bp).state
        for name, build in (("davies", megen.davies_generator),
                            ("brme", megen.brme_generator),
                            ("brme_real_only", megen.brme_real_only)):
            ss = megen.steady_state(build(h, SZ, bp)).states[0]
            rows.append([lam, name,
                         trace_distance(ss, tau),
                         trace_distance(ss, weak),
                         trace_distance(ss, ultra)])

    header = ["lambda", "generator", "dist_gibbs", "dist_mfg_weak",
              "dist_mfg_ultrastrong"]
    if args.out:
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        print(("{:>8} {:>16}" + " {:>14}" * 3).format(*header))
        for r in rows:
            print(f"{r[0]:8.3g} {r[1]:>16}"
                  + "".join(f" {v:14.6e}" for v in r[2:]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
