"""Transfer operators on the lattice window: branch-sum evaluation,
width convergence, Ulam discretization, leading eigen-data, and the
normalized coupled operator with its structural checks.

Run:  python3 demos/02_transfer_operator.py
"""

import numpy as np

import cml_lab as cl


def main() -> None:
    m = cl.MetricParams()
    nm = cl.perturbed_doubling_map(0.05)
    f = cl.node_sine_potential(0.1, metric=m)
    one = cl.constant_potential(1.0, name="one")

    x = cl.state([0.3, 0.6, 0.8])
    print("pointwise branch sums P_k applied to the constant observable:")
    for k in (0, 1):
        print(f"  k={k}:  P_k 1(x) = {cl.eval_Pk(one, f, x, k, nm):.6f}")

    rep = cl.check_Pk_cauchy(one, cl.decaying_sine_potential(0.1, 4.0, m),
                             k_max=2, samples=50, node_map=nm)
    print("\nwidth differences for a decaying interaction potential:")
    print("  sup |P_(k+1) - P_k| =", [f"{d:.2e}" for d in rep.sup_differences],
          f" fitted ratio {rep.fitted_ratio:.3f}")

    print("\nUlam discretization at k=1, 16 bins per axis (4096 cells):")
    p = cl.ulam_matrix("P", 1, 16, nm, potential=f)
    eigen = cl.leading_eigenpair(p)
    print(f"  leading eigenvalue lambda = {eigen.lam:.6f}")
    print(f"  eigenfunction range [{eigen.h.min():.4f}, {eigen.h.max():.4f}],"
          f"  nu(h) = {eigen.nu @ eigen.h:.12f}")

    coupling = cl.Coupling(epsilon=0.05)
    op = cl.ulam_matrix("coupled", 1, 16, nm, potential=f, coupling=coupling)
    sums = np.asarray(op.matrix.sum(axis=1)).ravel()
    support = sums > 0.0
    print(f"\ncoupled operator ({op.fingerprint()}):")
    print(f"  {support.sum()} of {op.n_cells} cells reachable; active rows "
          f"sum to one within {np.max(np.abs(sums[support] - 1.0)):.1e}")

    est = cl.estimate_coupling_constant(coupling, nm, m, k=1)
    ly = cl.check_lasota_yorke(op, eigen, [cl.node_coordinate()],
                               n_max=5, m=m, ce=est.value)
    print(f"  iterated-seminorm inequality holds: {ly.all_ok} "
          f"(C6 = {ly.c6:.2f})")

    # the coupled operator carries the eigen-triple of its raw matrix; its
    # nu is the conformal measure of the coupled step
    box = cl.random_admissible_box(op.grid, nm, np.random.default_rng(0),
                                   min_bins=2)
    res = cl.check_conformality(op, box)
    per_branch = 1.0 / nm.b ** op.grid.d
    print(f"  coupled eigenvalue lambda = {op.eigen.lam:.6f}; conformal mass "
          f"transport on a random injectivity box: lhs/rhs = {res.ratio:.5f} "
          f"(per-branch convention: 1/b^d = {per_branch:.3f})")


if __name__ == "__main__":
    main()
