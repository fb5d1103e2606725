"""Tour of the finite lattice window: states, the weighted metric,
nodewise maps, the diffusive coupling and its inverse branches.

Run:  python3 demos/01_lattice_and_coupling.py
"""

import numpy as np

import cml_lab as cl


def main() -> None:
    m = cl.MetricParams()  # theta = 0.5, beta = 1
    x = cl.state([0.2, 0.5, 0.9])
    y = cl.state([0.2, 0.5, 0.5])
    weights = m.theta ** np.abs(np.arange(-x.k, x.k + 1))
    dist = np.max(weights * np.abs(x.values - y.values))
    print("window half-width k =", x.k, "-> nodes", list(x.values))
    print(f"weighted metric d(x, y) = {dist:.3f}  "
          "(node +1 differs by 0.4, weight theta^1 = 0.5)")

    nm = cl.perturbed_doubling_map(0.05)
    print("\nnodewise map:", nm.name, "with", nm.b, "branches, eta =", nm.eta)
    print("bar-tau(x) =", np.round(nm.forward(x.values), 4))

    e = cl.Coupling(epsilon=0.1)
    cx = e.apply_to_array(x.values, x.k, nm.p_tau)
    print("\ndiffusive coupling eps = 0.1 mixes each node with its neighbors:")
    print("E(x) =", np.round(cx, 4))
    back = e.inverse_matrix(x.k) @ (cx - e.boundary_offset(x.k, nm.p_tau))
    print("E^-1(E(x)) recovers x exactly:", np.allclose(back, x.values))

    print("\nfull coupled step T = E after bar-tau:")
    print("T(x) =", np.round(e.apply_to_array(nm.forward(x.values), x.k, nm.p_tau), 4))

    pres = cl.lattice.branch_preimage_table(x.values[:, None], nm)[:, :, 0]
    print(f"\ninverse branches of the nodewise map (first 4 of {len(pres)}):")
    for i, pre in enumerate(pres[:4]):
        print("  preimage", i, "=", np.round(pre, 4))

    est = cl.estimate_coupling_constant(e, nm, m)
    print(f"\ninteraction constant C_E = {est.value:.3f}; "
          f"C_E * eta = {est.value * nm.eta:.3f} < 1 -> contraction regime: "
          f"{est.contracts}")


if __name__ == "__main__":
    main()
