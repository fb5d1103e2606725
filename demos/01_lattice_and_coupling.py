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
    print("window half-width k =", x.k, "-> nodes", list(x.values))
    print(f"weighted metric d(x, y) = {cl.metric_d(x, y, m):.3f}  "
          "(node +1 differs by 0.4, weight theta^1 = 0.5)")

    nm = cl.perturbed_doubling_map(0.05)
    print("\nnodewise map:", nm.name, "with", nm.b, "branches, eta =", nm.eta)
    print("bar-tau(x) =", np.round(cl.apply_bar_tau(x, nm).values, 4))

    e = cl.Coupling(epsilon=0.1)
    cx = cl.apply_coupling(x, e, nm)
    print("\ndiffusive coupling eps = 0.1 mixes each node with its neighbors:")
    print("E(x) =", np.round(cx.values, 4))
    back = cl.invert_coupling(cx, e, nm)
    print("E^-1(E(x)) recovers x exactly:", np.allclose(back.values, x.values))

    print("\nfull coupled step T = E after bar-tau:")
    print("T(x) =", np.round(cl.apply_T(x, nm, e).values, 4))

    print("\ninverse branches of the nodewise map (first 4 of "
          f"{nm.b ** x.width}):")
    for i, pre in enumerate(cl.enumerate_inverse_branches(x, nm)):
        print("  preimage", i, "=", np.round(pre.values, 4))
        if i == 3:
            break

    est = cl.estimate_coupling_constant(e, nm, m)
    print(f"\ninteraction constant C_E = {est.value:.3f}; "
          f"C_E * eta = {est.value * nm.eta:.3f} < 1 -> contraction regime: "
          f"{est.contracts}")


if __name__ == "__main__":
    main()
