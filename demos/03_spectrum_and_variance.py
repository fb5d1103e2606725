"""Spectral analysis of the discretized operators: gap, correlation
decay, twisted operators and the central-limit variance, with the
analytically solvable doubling map as a reference.

Run:  python3 demos/03_spectrum_and_variance.py
"""

import numpy as np

import cml_lab as cl


def main() -> None:
    m = cl.MetricParams()
    phi = cl.node_coordinate()

    print("reference system: doubling map, flat potential, 1024 cells")
    nm0 = cl.doubling_map()
    p0 = cl.ulam_matrix("P", 0, 1024, nm0, potential=cl.zero_potential())
    l0 = cl.ulam_matrix("L", 0, 1024, nm0, eigen=cl.leading_eigenpair(p0))
    c = cl.operator_correlation(phi, phi, l0, 6)
    print("  C_n vs 2^-n/12:")
    for n, v in enumerate(c):
        print(f"    n={n}:  {v:+.6f}  (analytic {2.0 ** -n / 12:+.6f})")
    print(f"  Green-Kubo sigma^2 = {cl.variance_green_kubo(phi, l0).sigma2:.6f} "
          "(analytic 1/4)")

    print("\ncoupled system: perturbed doubling a=0.05, eps=0.05, k=1")
    nm = cl.perturbed_doubling_map(0.05)
    pot = cl.srb_potential(nm, max_k=1, metric=m)
    op = cl.ulam_matrix("coupled", 1, 16, nm, potential=pot,
                        coupling=cl.Coupling(epsilon=0.05))
    spec = cl.spectral_gap(op)
    print(f"  |lambda_1| = {spec.lambda1:.6f}, |lambda_2| = "
          f"{spec.lambda2_modulus:.4f}, gap = {spec.gap:.4f}")
    lam2 = spec.eigenvalues[1]
    print(f"  lambda_2 = {lam2.real:+.4f}{lam2.imag:+.4f}j "
          "(complex pair -> oscillating correlations)")

    cc = cl.operator_correlation(phi, phi, op, 8)
    print("  coordinate autocovariance:", np.round(cc, 5))
    gk = cl.variance_green_kubo(phi, op).sigma2
    curv = cl.variance_from_twisted_curvature(op, phi)
    print(f"  sigma^2: Green-Kubo {gk:.4f} vs twisted-eigenvalue curvature "
          f"{curv:.4f}")

    for row in cl.check_twisted_bound(op, phi, [0.01, 0.1]):
        print(f"  twisted operator, t={row.t}: |lambda(t)| = {row.modulus:.8f} "
              f"< 1, -2 log|lambda(t)|/t^2 = {row.sigma2:.4f}")


if __name__ == "__main__":
    main()
