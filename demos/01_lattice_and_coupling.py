"""Tour of the finite lattice window: states as node-major arrays, the
weighted metric, nodewise maps, the diffusive coupling and its inverse
branches.

Run:  python3 demos/01_lattice_and_coupling.py
"""

import numpy as np

import cml_lab as cl


def main() -> None:
    m = cl.MetricParams()  # theta = 0.5, beta = 1
    # a state of the window -k..k is its 2k+1 node values, node -k first
    x = np.array([0.2, 0.5, 0.9])
    y = np.array([0.2, 0.5, 0.5])
    k = (x.size - 1) // 2
    weights = m.theta ** np.abs(np.arange(-k, k + 1))
    dist = np.max(weights * np.abs(x - y))
    print("window half-width k =", k, "-> nodes", x.tolist())
    print(f"weighted metric d(x, y) = {dist:.3f}  "
          "(node +1 differs by 0.4, weight theta^1 = 0.5)")

    nm = cl.perturbed_doubling_map(0.05)
    print("\nnodewise map:", nm.name, "with", nm.b, "branches, eta =", nm.eta)
    print("bar-tau(x) =", np.round(nm.forward(x), 4))

    e = cl.Coupling(epsilon=0.1)
    cx = e.apply_to_array(x, k, nm.p_tau)
    print("\ndiffusive coupling eps = 0.1 mixes each node with its neighbors:")
    print("E(x) =", np.round(cx, 4))
    back = e.invert_on_array(cx, k, nm.p_tau)
    print("E^-1(E(x)) recovers x exactly:", np.allclose(back, x))

    print("\nfull coupled step T = E after bar-tau:")
    print("T(x) =", np.round(e.apply_to_array(nm.forward(x), k, nm.p_tau), 4))

    pres = cl.lattice.branch_preimage_table(x[:, None], nm)[:, :, 0]
    print(f"\ninverse branches of the nodewise map (first 4 of {len(pres)}):")
    for i, pre in enumerate(pres[:4]):
        print("  preimage", i, "=", np.round(pre, 4))

    ce = cl.estimate_coupling_constant(e, m)
    print(f"\ninteraction constant C_E = {ce:.3f}; "
          f"C_E * eta = {ce * nm.eta:.3f} < 1 -> contraction regime: "
          f"{ce * nm.eta < 1.0}")


if __name__ == "__main__":
    main()
