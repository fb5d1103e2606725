import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cml_lab as cl


unit = st.floats(min_value=0.0, max_value=0.999999, allow_nan=False, width=64)


def vals(n):
    return st.lists(unit, min_size=n, max_size=n)


def _cell(grid, bins):
    """Flat index of the grid cell with the given per-node bins."""
    return np.ravel_multi_index(tuple(bins), (grid.n_bins,) * grid.d)


bins10 = st.lists(st.integers(min_value=0, max_value=9), min_size=3, max_size=3)


class TestMetric:
    # the weighted sup-metric on cell midpoints, (bin + 0.5) / 10 per node
    grid = cl.Grid(k=1, n_bins=10)

    def test_identity(self, metric):
        cells = np.arange(self.grid.n_cells)
        assert np.all(self.grid.rep_distance(cells, cells, metric) == 0.0)

    def test_single_node_difference(self, metric):
        x = _cell(self.grid, [2, 5, 9])
        y = _cell(self.grid, [2, 5, 5])
        assert self.grid.rep_distance(x, y, metric) == pytest.approx(0.5 * 0.4)

    def test_two_node_differences(self, metric):
        x = _cell(self.grid, [5, 2, 9])
        y = _cell(self.grid, [2, 2, 1])
        assert self.grid.rep_distance(x, y, metric) == pytest.approx(
            max(0.5 * 0.3, 0.5 * 0.8)
        )

    @given(a=bins10, b=bins10)
    @settings(max_examples=50, deadline=None)
    def test_symmetry(self, a, b):
        m = cl.MetricParams()
        x, y = _cell(self.grid, a), _cell(self.grid, b)
        assert self.grid.rep_distance(x, y, m) == self.grid.rep_distance(y, x, m)

    @given(a=bins10, b=bins10, c=bins10)
    @settings(max_examples=50, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        m = cl.MetricParams()
        x, y, z = (_cell(self.grid, v) for v in (a, b, c))
        dist = self.grid.rep_distance
        assert dist(x, z, m) <= dist(x, y, m) + dist(y, z, m) + 1e-12

    def test_param_validation(self):
        with pytest.raises(ValueError):
            cl.MetricParams(theta=1.0)
        with pytest.raises(ValueError):
            cl.MetricParams(beta=0.0)
        with pytest.raises(ValueError):
            cl.MetricParams(alpha=0.2)  # below theta**beta


class TestNodeMaps:
    def test_doubling_values(self, doubling):
        out = doubling.forward(np.array([0.2, 0.5, 0.9]))
        assert np.allclose(out, [0.4, 0.0, 0.8])

    def test_fixed_point_state(self, doubling):
        zero = np.zeros(3)
        assert np.array_equal(doubling.forward(zero), zero)

    @given(a=vals(5))
    @settings(max_examples=25, deadline=None)
    def test_bar_tau_commutes_with_project(self, a):
        nm = cl.perturbed_doubling_map(0.05)
        # the central nodes' images are the images of the central nodes
        x = np.array(a)
        lhs = nm.forward(x)[1:4]
        rhs = nm.forward(x[1:4])
        assert np.allclose(lhs, rhs, atol=1e-12)

    @pytest.mark.parametrize("map_name", ["doubling", "perturbed"])
    def test_full_branches(self, map_name, doubling, perturbed):
        nm = doubling if map_name == "doubling" else perturbed
        xs = np.linspace(0.0, 0.999, 97)
        for branch in nm.inverse_branches:
            pre = branch(xs)
            assert np.allclose(nm.forward(pre), xs, atol=1e-10)

    def test_perturbed_preimages_do_not_depend_on_the_batch(self, perturbed):
        # each point's Newton iteration stops on its own step: desk's
        # quadrature axis (N=16, quad 4) has the same bits as one array,
        # as its two halves and point by point; with a stop on the call's
        # largest step, 4 and 5 of its 64 preimages per branch differed by
        # 1 ulp between the array and the point-by-point calls
        axis = (np.arange(64) + 0.5) / 64
        for branch in perturbed.inverse_branches:
            whole = branch(axis).view(np.int64)
            halves = np.concatenate([branch(axis[:32]), branch(axis[32:])])
            each = np.array([branch(y) for y in axis])
            assert np.array_equal(halves.view(np.int64), whole)
            assert np.array_equal(each.view(np.int64), whole)

    def test_branch_contraction(self, perturbed):
        xs = np.linspace(0.0, 0.999, 400)
        for branch in perturbed.inverse_branches:
            pre = branch(xs)
            quot = np.abs(np.diff(pre)) / np.abs(np.diff(xs))
            assert np.all(quot <= perturbed.eta + 1e-10)

    def test_p_tau_is_fixed(self, doubling, perturbed):
        for nm in (doubling, perturbed):
            assert abs(nm.forward(np.array([nm.p_tau]))[0] - nm.p_tau) < 1e-12

    @pytest.mark.parametrize("a", [0.05, 0.15])
    def test_perturbed_forward_is_np_mod_to_the_bit(self, a):
        # y - floor(y) replaces np.mod(y, 1.0); the two agree bit for bit,
        # including on branch ends, at the fixed point and where y < 0
        rng = np.random.default_rng(8)
        x = np.concatenate([
            rng.uniform(0.0, 1.0, 100_000),
            [0.0, 0.5, 1.0 - 1e-17, np.nextafter(1.0, 0.0), 5e-324, 0.75],
            np.nextafter(0.5, [0.0, 1.0]),
            rng.uniform(0.0, 1e-3, 1000) + 0.5,
        ])
        got = cl.perturbed_doubling_map(a).forward(x)
        ref = np.mod(2.0 * x + a * np.sin(2.0 * math.pi * x), 1.0)
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))
        grid_pts = rng.uniform(0.0, 1.0, (3, 500))
        assert np.array_equal(
            cl.perturbed_doubling_map(a).forward(grid_pts),
            np.mod(2.0 * grid_pts + a * np.sin(2.0 * math.pi * grid_pts), 1.0),
        )


class TestCoupling:
    def test_identity_at_zero(self, doubling):
        x = np.array([0.2, 0.5, 0.9])
        e0 = cl.Coupling(epsilon=0.0)
        assert np.array_equal(e0.apply_to_array(x, 1, doubling.p_tau), x)

    def test_diffusive_example(self, doubling):
        x = np.array([0.2, 0.5, 0.9])
        e = cl.Coupling(epsilon=0.1)
        out = e.apply_to_array(x, 1, doubling.p_tau)
        assert np.allclose(out, [0.205, 0.505, 0.835])

    def test_constant_state_edges(self, doubling):
        c = 0.4
        e = cl.Coupling(epsilon=0.1)
        out = e.apply_to_array(np.full(5, c), 2, doubling.p_tau)
        assert out[2] == pytest.approx(c)
        assert out[0] == pytest.approx((1 - 0.05) * c)
        assert out[-1] == pytest.approx((1 - 0.05) * c)

    def test_inverse_example(self, doubling):
        e = cl.Coupling(epsilon=0.1)
        rhs = np.array([0.205, 0.505, 0.835]) - e.boundary_offset(1, doubling.p_tau)
        x = e.inverse_matrix(1) @ rhs
        assert np.max(np.abs(x - np.linalg.solve(e.dense_matrix(1), rhs))) <= 1e-15
        assert np.allclose(x, [0.2, 0.5, 0.9], atol=1e-12)

    @pytest.mark.parametrize("eps", [0.0, 0.05, 0.1, 0.2])
    def test_invert_roundtrip(self, eps, doubling):
        e = cl.Coupling(epsilon=eps)
        x = np.random.default_rng(3).uniform(0.0, 1.0, (5, 200)) * 0.999
        y = e.apply_to_array(x, 2, doubling.p_tau)
        back = e.invert_on_array(y, 2, doubling.p_tau)
        assert np.allclose(back, x, atol=1e-12)

    def test_invert_identity_returns_input(self):
        # at eps = 0 the solve against the identity is skipped; it would
        # return the right-hand side exactly
        vals = np.random.default_rng(4).uniform(0.0, 1.0, (3, 500))
        got = cl.Coupling(epsilon=0.0).invert_on_array(vals, 1, 0.0)
        ref = np.linalg.solve(np.eye(3), vals)
        assert np.array_equal(got, ref)
        assert np.array_equal(got, vals)

    @pytest.mark.parametrize("k", [0, 1, 3])
    @pytest.mark.parametrize("eps", [0.05, 0.2])
    def test_apply_matches_concatenated_neighbours(self, k, eps):
        # bit for bit against left and right neighbour rows built by
        # concatenation, p_tau beyond the window; on node-major (d, n),
        # (d, n, m) and 1-d inputs
        d = 2 * k + 1
        vals = np.random.default_rng(9).uniform(0.0, 1.0, (d, 400))
        ref = _concatenated_coupling(vals, eps, 0.25)
        e = cl.Coupling(epsilon=eps)
        assert np.array_equal(e.apply_to_array(vals, k, 0.25), ref)
        cube = vals.reshape(d, 20, 20)
        assert np.array_equal(e.apply_to_array(cube, k, 0.25), ref.reshape(d, 20, 20))
        assert np.array_equal(e.apply_to_array(vals[:, 7], k, 0.25), ref[:, 7])

    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("eps", [0.0, 0.05, 0.2])
    @pytest.mark.parametrize("p_tau", [0.0, 0.3])
    def test_node_image_on_broadcast_axes(self, k, eps, p_tau):
        # every node, edge nodes included, bit for bit on per-node axes that
        # broadcast to the tensor grid; node j's image spans only the axes
        # it reads
        d = 2 * k + 1
        e = cl.Coupling(epsilon=eps)
        axes = [np.random.default_rng(12 + j).uniform(0.0, 1.0, 3 + j) for j in range(d)]
        full = _concatenated_coupling(np.stack(np.meshgrid(*axes, indexing="ij")), eps, p_tau)
        spread = [
            a.reshape((1,) * j + (-1,) + (1,) * (d - 1 - j)) for j, a in enumerate(axes)
        ]
        reach = 1 if eps > 0.0 else 0
        for j in range(d):
            got = e.node_image(spread, j, p_tau)
            assert got.ndim == d
            assert all(got.shape[a] == 1 for a in range(d) if abs(a - j) > reach)
            assert np.array_equal(np.broadcast_to(got, full.shape[1:]), full[j])

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("eps", [0.05, 0.2, 0.45])
    def test_invert_matches_solve(self, k, eps):
        # one product with E^-1 against one LU solve per point, on images
        # E(x) of states x in the cube, whose solutions lie in [0, 1)
        e = cl.Coupling(epsilon=eps)
        x = np.random.default_rng(10).uniform(0.0, 1.0, (2 * k + 1, 20_000))
        vals = e.apply_to_array(x, k, 0.0)
        got = e.invert_on_array(vals, k, 0.0)
        rhs = vals - e.boundary_offset(k, 0.0)[:, None]
        ref = np.linalg.solve(e.dense_matrix(k), rhs)
        assert got.shape == vals.shape
        assert np.max(np.abs(got - ref)) <= 1e-15

    def test_rejects_epsilon_half(self):
        # one message for both rules, naming the offending values
        with pytest.raises(ValueError, match=r"'diffusive' with epsilon=0\.5: "):
            cl.Coupling(epsilon=0.5)
        with pytest.raises(ValueError, match=r"kind 'ring' with epsilon=0\.1: .*\[0, 1/2\)"):
            cl.Coupling(kind="ring", epsilon=0.1)

    def test_corner_state_is_outside_the_range(self, doubling):
        # a corner state outside the coupling image on the window: its
        # preimage under E leaves the cube
        e = cl.Coupling(epsilon=0.2)
        sol = e.invert_on_array(np.array([0.999, 0.0, 0.999]), 1, doubling.p_tau)
        assert np.any((sol < 0.0) | (sol >= 1.0))

    def test_coupled_step_range(self, perturbed):
        # T = E after the nodewise map keeps the window in [0, 1)
        e = cl.Coupling(epsilon=0.1)
        x = np.random.default_rng(5).uniform(0.0, 1.0, (3, 1000)) * 0.999
        out = e.apply_to_array(perturbed.forward(x), 1, perturbed.p_tau)
        assert np.all((0.0 <= out) & (out < 1.0))


def _concatenated_coupling(vals, eps, p_tau):
    """The coupled image of node-major values, from left and right
    neighbour rows built by concatenation, p_tau beyond the window."""
    pad = np.full((1,) + vals.shape[1:], p_tau)
    left = np.concatenate([pad, vals[:-1]])
    right = np.concatenate([vals[1:], pad])
    return (1.0 - eps) * vals + 0.5 * eps * (left + right)


def _preimages(values, node_map):
    """branch_preimage_table of one window, shape (b**d, d)."""
    return cl.lattice.branch_preimage_table(np.array(values)[:, None], node_map)[:, :, 0]


class TestBranches:
    def test_doubling_half(self, doubling):
        assert np.allclose(_preimages([0.5], doubling)[:, 0], [0.25, 0.75])

    def test_doubling_zero(self, doubling):
        assert np.allclose(_preimages([0.0], doubling)[:, 0], [0.0, 0.5])

    def test_count_b_to_window(self, doubling):
        assert _preimages([0.2, 0.5, 0.9], doubling).shape == (8, 3)

    def test_order_is_lexicographic_in_the_branches(self, doubling):
        # node -k's branch varies slowest
        pres = _preimages([0.2, 0.5, 0.9], doubling)
        choices = (pres >= 0.5).astype(int)
        assert np.array_equal(choices @ [4, 2, 1], np.arange(8))

    @given(a=vals(3))
    @settings(max_examples=25, deadline=None)
    def test_every_row_is_a_preimage(self, a):
        nm = cl.perturbed_doubling_map(0.05)
        pres = _preimages(a, nm)
        assert pres.shape == (8, 3)
        assert np.allclose(nm.forward(pres), np.array(a)[None, :], atol=1e-10)

    def test_branch_contraction_on_lattice(self, doubling, metric):
        # on every branch choice, preimages are eta times closer in the
        # weighted sup-metric than the points
        rng = np.random.default_rng(11)
        x = rng.uniform(0.0, 1.0, (3, 50)) * 0.999
        y = rng.uniform(0.0, 1.0, (3, 50)) * 0.999
        weights = metric.theta ** np.abs(np.arange(-1, 2))[:, None]
        d = np.max(weights * np.abs(x - y), axis=0)
        px = cl.lattice.branch_preimage_table(x, doubling)
        py = cl.lattice.branch_preimage_table(y, doubling)
        pd = np.max(weights * np.abs(px - py), axis=1)
        assert np.all(pd <= doubling.eta * d + 1e-12)


class TestCouplingConstant:
    def test_identity_coupling(self, metric):
        assert cl.estimate_coupling_constant(cl.Coupling(epsilon=0.0), metric) == 1.0

    def test_weighted_bound(self, metric):
        # in the theta-weighted metric the diagonal-dominance bound is
        # 1/(1 - eps - eps/theta); the unweighted 1/(1-2 eps) does not apply
        eps = 0.1
        ce = cl.estimate_coupling_constant(cl.Coupling(epsilon=eps), metric)
        bound = 1.0 / (1.0 - eps - eps / metric.theta)
        assert 1.0 <= ce <= bound + 1e-9

    def test_tiny_theta_is_inf_without_warnings(self):
        # theta^|j| underflows to 0 at k = 2: the ratio of two weights was
        # 0/0, NaN with RuntimeWarnings; one power gives inf, and an E^-1
        # entry of 0 adds 0
        m = cl.MetricParams(theta=1e-200)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cl.estimate_coupling_constant(cl.Coupling(epsilon=0.05), m, k=2) == math.inf
            assert cl.estimate_coupling_constant(cl.Coupling(epsilon=0.0), m, k=2) == 1.0

    def test_contracts_at_eps_one_tenth(self, doubling, metric):
        ce = cl.estimate_coupling_constant(cl.Coupling(epsilon=0.1), metric)
        assert type(ce) is float and ce * doubling.eta < 1.0

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("eps", [0.0, 0.05, 0.2])
    def test_shared_inverse_leaves_value_unchanged(self, k, eps, metric):
        # C_E from the coupling's shared E^-1 equals, to the byte, the
        # value from an inverse formed here
        e = cl.Coupling(epsilon=eps)
        e_inv = np.linalg.inv(e.dense_matrix(k))
        assert np.array_equal(e.inverse_matrix(k), e_inv)
        nodes = np.arange(-k, k + 1)
        weights = metric.theta ** np.abs(nodes[None, :] - nodes[:, None])
        scaled = weights[:, :, None] * e_inv[None, :, :] / weights[:, None, :]
        ref = float(np.max(np.sum(np.abs(scaled), axis=2)))
        got = cl.estimate_coupling_constant(e, metric, k=k)
        assert got.hex() == ref.hex()

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("eps", [0.0, 0.05, 0.1, 0.2])
    def test_matches_pairwise_loop(self, k, eps, doubling, metric):
        # reference: the per-pair, per-shift loop of shifted-metric ratios
        # of inverted pairs.  No random pair exceeds C_E, and for each shift
        # s the pair x - y = D_s^-1 sign(row i of D_s E^-1 D_s^-1), with i
        # the row of largest absolute sum, attains that row sum.  Random
        # pairs alone reach only about 91% of C_E at eps = 0.2, k = 3.
        e = cl.Coupling(epsilon=eps)
        got = cl.estimate_coupling_constant(e, metric, k=k)
        nodes = np.arange(-k, k + 1)
        rng = np.random.default_rng(11)
        xs = [rng.uniform(0.0, 1.0, (2 * k + 1, 1000))]
        ys = [rng.uniform(0.0, 1.0, (2 * k + 1, 1000))]
        e_inv = np.linalg.inv(e.dense_matrix(k))
        for shift in nodes:
            w = metric.theta ** np.abs(nodes - shift)
            row = w[:, None] * e_inv / w[None, :]
            i = np.argmax(np.abs(row).sum(axis=1))
            delta = np.sign(row[i]) / w
            xs.append(0.5 + 0.4 * delta[:, None] / np.max(np.abs(delta)))
            ys.append(np.full((2 * k + 1, 1), 0.5))
        xs, ys = np.hstack(xs), np.hstack(ys)
        ix = e.invert_on_array(xs, k, doubling.p_tau)
        iy = e.invert_on_array(ys, k, doubling.p_tau)

        def shifted(a, b, shift):
            w = metric.theta ** np.abs(nodes - shift)
            return float(np.max(w * np.abs(a - b)))

        ratios = np.array([
            [shifted(ix[:, p], iy[:, p], s) / shifted(xs[:, p], ys[:, p], s) for s in nodes]
            for p in range(xs.shape[1])
        ])
        assert np.max(ratios[:1000]) <= got * (1.0 + 1e-12)
        assert np.max(ratios[1000:]) == pytest.approx(got, rel=1e-12)


# The (d, n) evaluators of the six potentials before each became a sum of
# node terms, kept as references for Potential.on_array.
_TWO_PI = 2.0 * math.pi


def _ref_constant(c):
    return lambda vals, k: np.full(np.asarray(vals).shape[1], float(c))


def _ref_node_sine(amplitude, node):
    def evaluate(vals, k):
        vals = np.asarray(vals, dtype=float)
        if abs(node) > k:
            return np.zeros(vals.shape[1])
        return amplitude * np.sin(_TWO_PI * vals[node + k])
    return evaluate


def _ref_decaying_sine(amplitude, base):
    def evaluate(vals, k):
        vals = np.asarray(vals, dtype=float)
        weights = abs(amplitude) * base ** -np.abs(np.arange(-k, k + 1, dtype=float))
        return np.sign(amplitude) * weights @ np.sin(_TWO_PI * vals)
    return evaluate


def _ref_srb(node_map):
    def evaluate(vals, k):
        vals = np.asarray(vals, dtype=float)
        return np.sum(
            np.log(node_map.b) - np.log(node_map.forward_deriv(vals)), axis=0
        )
    return evaluate


def _ref_node_coordinate(node, offset):
    def evaluate(vals, k):
        vals = np.asarray(vals, dtype=float)
        if abs(node) > k:
            raise ValueError(f"node {node} outside window of half-width {k}")
        return vals[node + k] - offset
    return evaluate


def _ref_random_trig(rng, max_node=1, max_freq=2, n_terms=3):
    terms = []
    for _ in range(n_terms):
        terms.append(
            (
                float(rng.uniform(-1.0, 1.0)),
                int(rng.integers(-max_node, max_node + 1)),
                int(rng.integers(1, max_freq + 1)),
                float(rng.uniform(0.0, _TWO_PI)),
            )
        )

    def evaluate(vals, k):
        vals = np.asarray(vals, dtype=float)
        out = np.zeros(vals.shape[1])
        for amp, node, freq, phase in terms:
            if abs(node) <= k:
                out += amp * np.cos(_TWO_PI * freq * vals[node + k] + phase)
        return out
    return evaluate


class TestPotential:
    def test_declared_bounds_hold(self, metric):
        rng = np.random.default_rng(2)
        pot = cl.node_sine_potential(0.1, 1, metric)
        x = rng.uniform(0.0, 1.0, (3, 500)) * 0.999
        assert np.all(np.abs(pot.on_array(x, 1)) <= pot.declared_sup_norm + 1e-12)
        est = cl.estimate_holder_seminorm(pot, metric, k=1, samples=2000)
        assert est <= pot.declared_beta_norm + 1e-9

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_node_terms_sum_to_the_evaluators(self, k, doubling, perturbed, metric):
        # summed from node -k to node k, the terms give the evaluators'
        # bytes wherever the evaluator summed in that order or read one node
        x = np.random.default_rng(k).uniform(0.0, 1.0, (2 * k + 1, 2000)) * 0.999
        exact = [
            (cl.zero_potential(), _ref_constant(0.0)),
            (cl.constant_potential(-0.7), _ref_constant(-0.7)),
            (cl.node_sine_potential(0.1, 0, metric), _ref_node_sine(0.1, 0)),
            (cl.node_sine_potential(-0.3, 1, metric), _ref_node_sine(-0.3, 1)),
            (cl.srb_potential(perturbed, max_k=k), _ref_srb(perturbed)),
            (cl.srb_potential(doubling, max_k=k), _ref_srb(doubling)),
            (cl.node_coordinate(0, 0.25), _ref_node_coordinate(0, 0.25)),
        ]
        if k >= 1:
            exact.append((cl.node_coordinate(-1), _ref_node_coordinate(-1, 0.0)))
        for pot, ref in exact:
            assert pot.on_array(x, k).tobytes() == ref(x, k).tobytes(), pot.name
        # decaying_sine's evaluator was a BLAS product, random_trig's summed
        # in the order its terms were drawn: both may differ in the last bits
        close = [
            (cl.decaying_sine_potential(0.1, 4.0), _ref_decaying_sine(0.1, 4.0)),
            (cl.decaying_sine_potential(-0.3, 2.5), _ref_decaying_sine(-0.3, 2.5)),
            (
                cl.random_trig_observable(np.random.default_rng(5), n_terms=6),
                _ref_random_trig(np.random.default_rng(5), n_terms=6),
            ),
        ]
        for pot, ref in close:
            got, want = pot.on_array(x, k), ref(x, k)
            assert np.max(np.abs(got - want)) <= 1e-15 * pot.declared_sup_norm, pot.name

    def test_coordinate_outside_the_window_raises(self):
        with pytest.raises(ValueError, match="outside window"):
            cl.node_coordinate(2).on_array(np.full((3, 4), 0.5), 1)

    def test_state_rejects_bad_values(self, doubling):
        # the transfer operator refuses a window value outside [0, 1) and
        # an even number of nodes
        one = cl.constant_potential(1.0)
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            cl.eval_Pk(one, one, [0.2, 1.0, 0.3], 1, doubling)
        with pytest.raises(ValueError, match="odd number of node rows"):
            cl.eval_Pk(one, one, [0.2, 0.5], 0, doubling)
