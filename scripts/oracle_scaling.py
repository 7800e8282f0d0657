#!/usr/bin/env python3
"""Error scaling of the second-order MFG state against the exact oracle.

Discretizes a Drude-Lorentz bath into a handful of modes, computes the
numerically exact reduced Gibbs state by dense diagonalization, and tracks
the trace distance to the second-order weak-coupling formula down a ladder
of halved couplings. Fourth-order convergence shows up as a ratio of ~16
per halving until the Fock truncation floor takes over.
"""

import argparse
import sys

import numpy as np

from mfgkit import bath, finitebath, mfstatics
from mfgkit.opcore import trace_distance

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--eps", type=float, default=1.0)
    ap.add_argument("--delta", type=float, default=0.5)
    ap.add_argument("--beta", type=float, default=1.0)
    ap.add_argument("--gamma", type=float, default=0.3)
    ap.add_argument("--omega-d", type=float, default=5.0)
    ap.add_argument("--n-modes", type=int, default=4)
    ap.add_argument("--fock-cutoff", type=int, default=5)
    ap.add_argument("--omega-max", type=float, default=15.0)
    ap.add_argument("--lam0", type=float, default=0.4)
    ap.add_argument("--halvings", type=int, default=3)
    args = ap.parse_args()

    h = (args.eps / 2) * SZ + (args.delta / 2) * SX
    J = bath.DrudeLorentz(gamma=args.gamma, omega_d=args.omega_d)
    modes = finitebath.discretize(J, args.n_modes, args.omega_max)
    spec = finitebath.FiniteBathSpec(modes=tuple(modes),
                                     fock_cutoff=args.fock_cutoff)
    J_disc = bath.DiscreteModes(modes=tuple((w, abs(g) ** 2) for w, g in modes))

    print(f"{'lambda':>10} {'dist(exact, weak)':>20} {'ratio':>8}")
    prev = None
    for k in range(args.halvings + 1):
        lam = args.lam0 / 2**k
        model = finitebath.assemble(h, SZ, lam, spec)
        exact = finitebath.exact_mfg(model, args.beta)
        weak = mfstatics.mfg_weak(
            h, SZ, bath.BathParams(J=J_disc, beta=args.beta, lam=lam)
        ).state
        d = trace_distance(exact, weak)
        ratio = "" if prev is None else f"{prev / d:8.2f}"
        print(f"{lam:10.4g} {d:20.6e} {ratio:>8}")
        prev = d
    return 0


if __name__ == "__main__":
    sys.exit(main())
