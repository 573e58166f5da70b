#!/usr/bin/env python3
"""Scan the sandwiched-operator norm and the CGO remainder over a dense
nu grid, for both the bounded Gaussian and the unbounded cusp potential.

Prints a table and writes norm_decay_scan.json next to it.  The combined
view shows the two decay mechanisms side by side: the operator norm
||M_W S_nu M_W|| and the remainder fraction ||W u_flat|| / ||psi||.
"""

import argparse
import json
import pathlib

import numpy as np

from schrodlab.birman_schwinger import bs_decay_sweep, cusp_potential, gaussian_potential
from schrodlab.cgo import NotContractive, remainder_decay_sweep
from schrodlab.grid import GridSpec


def positive_nu(text: str) -> float:
    nu = float(text)
    if not nu > 0.0:
        raise argparse.ArgumentTypeError(f"nu must be > 0, got {text}")
    return nu


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--pts", type=int, default=32, help="lattice points per axis")
    ap.add_argument("--nu", type=positive_nu, nargs="+",
                    default=[4, 8, 16, 32, 64, 128])
    ap.add_argument("--output", default="out", help="output directory")
    args = ap.parse_args()

    spec = GridSpec(n=2, box_time=np.pi, box_space=np.pi,
                    pts_time=args.pts, pts_space=args.pts)
    potentials = {
        "gaussian": gaussian_potential(spec, amplitude=2.0, width=0.6),
        "cusp": cusp_potential(spec, alpha=0.75, amplitude=1.0),
    }

    table = {}
    for name, V in potentials.items():
        norms = bs_decay_sweep(V, args.nu, tol=1e-3)
        try:
            remainder = remainder_decay_sweep(V, args.nu, tol=1e-6)
            rem_samples = remainder.samples
        except NotContractive as exc:
            print(f"[{name}] remainder sweep skipped below threshold: {exc}")
            rem_samples = []
        rem_by_nu = {s["nu"]: s for s in rem_samples}
        rows = []
        for s in norms.samples:
            row = {"nu": s["nu"], "op_norm": s["ratio"]}
            if s["nu"] in rem_by_nu:
                row["remainder_fraction"] = rem_by_nu[s["nu"]]["ratio"]
                row["rho"] = rem_by_nu[s["nu"]]["rho"]
            rows.append(row)
        table[name] = rows
        print(f"\n{name} potential:")
        print(f"{'nu':>8} {'op_norm':>12} {'remainder':>12}")
        for row in rows:
            rem = row.get("remainder_fraction")
            rem_text = "-" if rem is None else f"{rem:.4e}"
            print(f"{row['nu']:>8g} {row['op_norm']:>12.4e} {rem_text:>12}")

    out = pathlib.Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "norm_decay_scan.json"
    path.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {path}")


if __name__ == "__main__":
    main()
