#!/usr/bin/env python3
"""Print the census of groups attached to the order-6 Hadamard matrix:
exact orders, orbit size, and the structural facts behind them."""

import time

from hadamard6.autgroup import (
    compute_aut_linear,
    compute_aut_star,
    n_subgroup,
    x0_bsgs,
    x_bsgs,
    y_bsgs,
)


def main():
    t0 = time.perf_counter()
    rows = [
        ("X = <tau1, tau2, *>", x_bsgs().order()),
        ("X0 = <tau1, tau2>", x0_bsgs().order()),
        ("N (diagonal pairs)", n_subgroup().order),
        ("Y = <tau1, tau2'>", y_bsgs().order()),
    ]
    aut = compute_aut_star()
    lin = compute_aut_linear()
    rows += [
        ("stabilizer of H in X", aut.order),
        ("its eps = 0 subgroup", lin.order),
    ]
    width = max(len(name) for name, _ in rows)
    for name, order in rows:
        print(f"{name:<{width}}  {order:>12,}")
    print(f"\norbit of H under X: {aut.orbit_size:,} matrices")
    print(f"orbit * stabilizer = {aut.orbit_size * aut.order:,} = |X|")
    print("\nstabilizer generators (nontrivial lifted Schreier generators of the")
    print("orbit on cosets of N's translations, then (wI, wI)):")
    for g in aut.generators:
        print(f"  {g}")
    print(f"\ntotal time {time.perf_counter() - t0:.1f}s")


if __name__ == "__main__":
    main()
