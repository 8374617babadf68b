"""The batch contract: plants, storage, loop signals, Newton solves and the
frequency tests act on whole arrays and agree with one-at-a-time oracles."""

import math

import numpy as np
import pytest

import niconsensus as nc
from conftest import bisect_max_delta, rhs_rows
from niconsensus import linsys

W1 = 1e5


def loops(pendulum, four_node_graph):
    """A pair, the four-node flagship graph, and 16- and 64-node paths."""
    plant, _ = pendulum
    return {
        "pair": nc.pair_interconnect(plant, nc.first_order(20.0, 6.0)),
        "flagship4": nc.network_interconnect(plant, nc.first_order(10.0, 10.0),
                                             four_node_graph),
        "path16": nc.network_interconnect(plant, nc.first_order(10.0, 10.0),
                                          nc.path_graph(16)),
        "path64": nc.network_interconnect(plant, nc.first_order(10.0, 10.0),
                                          nc.path_graph(64)),
    }


def random_states(loop, count, seed):
    return np.random.default_rng(seed).uniform(-2.0, 2.0, (count, loop.n_states))


@pytest.mark.parametrize("name", ["pair", "flagship4", "path16", "path64"])
def test_evaluate_batch_matches_rows(pendulum, four_node_graph, name):
    loop = loops(pendulum, four_node_graph)[name]
    states = random_states(loop, 40, 1)
    batch = loop.evaluate(states)
    for k, x in enumerate(states):
        row = loop.evaluate(x)
        for field in vars(row):
            assert np.abs(getattr(batch, field)[k] - getattr(row, field)).max() <= 1e-14
        state_rows, phi_rows = rhs_rows(loop, x)
        assert np.array_equal(state_rows, row.dstate) and not phi_rows.any()
    nested = loop.evaluate(states.reshape(4, 10, -1))
    assert np.array_equal(nested.y1dot.reshape(40, -1), batch.y1dot)


@pytest.mark.parametrize("name,tol", [("pair", 0.0), ("flagship4", 1e-13), ("path64", 1e-13)])
def test_recorded_dstate_matches_component_equations(pendulum, four_node_graph, name, tol):
    """The derivative the trajectory checks read, the plant and controller
    blocks of a trajectory's dstate, equals node by node plant.f(xp_i, u1_i)
    and the controller's xc_i A^T + y1_i B^T."""
    loop = loops(pendulum, four_node_graph)[name]
    x0 = np.random.default_rng(5).uniform(-2.0, 2.0, loop.n_states)
    traj = nc.integrate(loop, x0, nc.IntegratorConfig(1e-3, 0.5, record_every=10))
    (xp, xc), (dxp, dxc) = loop.split(traj.states), loop.split(traj.dstate)
    ctrl, m, q = loop.controller, loop.io_dim, loop.controller.state_dim
    for i in range(loop.n_plants):
        u1, y1 = traj.u1[:, i * m:(i + 1) * m], traj.y1[:, i * m:(i + 1) * m]
        xci, dxci = xc[:, i * q:(i + 1) * q], dxc[:, i * q:(i + 1) * q]
        assert np.abs(dxp[:, i] - loop.plant.f(xp[:, i], u1)).max() <= tol
        assert np.abs(dxci - (xci @ ctrl.A.T + y1 @ ctrl.B.T)).max() <= tol


@pytest.mark.parametrize("name", ["pair", "flagship4", "path16"])
def test_composite_storage_batch_matches_rows(pendulum, four_node_graph, name):
    loop = loops(pendulum, four_node_graph)[name]
    _, v1 = pendulum
    cs = nc.CompositeStorage(loop, v1, [[1.0]])
    states = random_states(loop, 40, 2)
    values, rates = cs.value(states), cs.rate(states, loop.evaluate(states))
    assert values.shape == rates.shape == (40,)
    for k, x in enumerate(states):
        assert values[k] == pytest.approx(cs.value(x), rel=1e-13, abs=1e-12)
        assert rates[k] == pytest.approx(cs.rate(x, loop.evaluate(x)), rel=1e-13, abs=1e-12)


def test_pendulum_maps_act_row_wise(pendulum):
    plant, storage = pendulum
    rng = np.random.default_rng(4)
    xs = rng.uniform(-4.0, 4.0, (3, 5, 2))
    us = rng.uniform(-20.0, 20.0, (3, 5, 1))
    f, h = plant.f(xs, us), plant.h(xs)
    V, grad = storage.V(xs), storage.grad(xs)
    assert (f.shape, h.shape) == ((3, 5, 2), (3, 5, 1))
    assert (V.shape, grad.shape) == ((3, 5), (3, 5, 2))
    for i in range(3):
        for j in range(5):
            assert np.array_equal(f[i, j], plant.f(xs[i, j], us[i, j]))
            assert np.array_equal(h[i, j], plant.h(xs[i, j]))
            assert V[i, j] == storage.V(xs[i, j])
            assert np.array_equal(grad[i, j], storage.grad(xs[i, j]))


def test_dense_mimo_plant_maps_act_row_wise():
    """A dense plant with m = 2 and r = 2: f sums entry by entry, so batch
    rows equal single rows exactly and match A x + B u + E phi(x)."""
    rng = np.random.default_rng(6)
    A, B, C, E = (rng.normal(size=s) for s in ((3, 3), (3, 2), (2, 3), (3, 2)))
    plant = nc.NonlinearPlant(A=A, B=B, C=C, E=E, phi=lambda x: np.tanh(x[..., :2]))
    assert (plant.p, plant.m) == (3, 2)
    xs = rng.uniform(-2.0, 2.0, (4, 6, 3))
    us = rng.uniform(-2.0, 2.0, (4, 6, 2))
    f, h = plant.f(xs, us), plant.h(xs)
    assert np.abs(f - (xs @ A.T + us @ B.T + np.tanh(xs[..., :2]) @ E.T)).max() <= 1e-13
    for i in range(4):
        for j in range(6):
            assert np.array_equal(f[i, j], plant.f(xs[i, j], us[i, j]))
            assert np.array_equal(h[i, j], plant.h(xs[i, j]))
    with pytest.raises(ValueError, match="plant matrices"):
        nc.NonlinearPlant(A=A, B=B, C=C.T, E=E, phi=plant.phi)


def test_equilibrium_batch_matches_single_solves(pendulum):
    plant, _ = pendulum
    rng = np.random.default_rng(5)
    ubar = rng.uniform(-25.0, 25.0, (12, 1))
    guesses = rng.uniform(-1.0, 1.0, (12, 2))
    batch = nc.equilibrium_solve(plant, ubar, guesses)
    assert batch.shape == (12, 2)
    for i in range(12):
        assert np.array_equal(batch[i], nc.equilibrium_solve(plant, ubar[i], guesses[i]))
    nested = nc.equilibrium_solve(plant, ubar.reshape(3, 4, 1), guesses.reshape(3, 4, 2))
    assert np.array_equal(nested.reshape(12, 2), batch)


def test_equilibrium_batch_names_first_failing_member():
    saturating = nc.NonlinearPlant(A=[[0.0]], B=[[1.0]], C=[[1.0]], E=[[-1.0]],
                                   phi=np.tanh)
    ubar = np.array([[0.5], [2.0], [-0.3], [-4.0]])
    with pytest.raises(nc.plant.EquilibriumError) as info:
        nc.equilibrium_solve(saturating, ubar, np.zeros((4, 1)))
    assert info.value.member == 1


def lightly_damped_controller():
    """M(s) = 1/(s+1) - 1e-3 w1^2 / (s^2 + 0.02 w1 s + w1^2) with w1 = 1e5:
    not NI, since j(M - M*) = -0.1 at w1, beyond the default grid."""
    A = [[-1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -W1 ** 2, -0.02 * W1]]
    return nc.StateSpace(A, [[1.0], [0.0], [1.0]], [[1.0, -1e-3 * W1 ** 2, 0.0]])


def oracle_terms(sys, grid):
    """Per-frequency (P, R) pairs, one freq_response call each."""
    terms = []
    for w in grid.points:
        M = nc.freq_response(sys, w)
        Mc = M - sys.D
        terms.append((1j * w * (M - M.conj().T), 2.0 * w * w * (Mc.conj().T @ Mc)))
    CB = sys.C @ sys.B
    terms.append((CB + CB.T + 0j, 2.0 * (CB.T @ CB) + 0j))
    return terms


def oracle_ni(sys, grid):
    for w in grid.points:
        M = nc.freq_response(sys, w)
        if np.linalg.eigvalsh(1j * (M - M.conj().T)).min() < -linsys.PSD_TOL:
            return False
    return True


def oracle_passes(terms, delta):
    return all(np.linalg.eigvalsh(P - delta * R).min() >= -linsys.PSD_TOL
               for P, R in terms)


def oracle_delta_star(terms):
    """delta* one frequency at a time: with P + PSD_TOL I = L L*, the test
    holds at a point exactly when delta lambda_max(L^-1 R L^-*) <= 1."""
    lam = 0.0
    for P, R in terms:
        try:
            L = np.linalg.cholesky(P + linsys.PSD_TOL * np.eye(len(P)))
        except np.linalg.LinAlgError:
            return 0.0
        S = np.linalg.solve(L, np.linalg.solve(L, R).conj().T)
        lam = max(lam, np.linalg.eigvalsh(S).max())
    return 1.0 / lam if lam > 0 else math.inf


CONTROLLERS = {
    "pendulum4": nc.first_order(10.0, 10.0),
    "pendulum_pair": nc.first_order(20.0, 6.0),
    "two_node_bank": nc.kron_ss([[1.0, -1.0], [-1.0, 1.0]], nc.first_order(10.0, 10.0)),
    "lightly_damped": lightly_damped_controller(),
}


@pytest.mark.parametrize("name", sorted(CONTROLLERS))
def test_stacked_frequency_tests_match_per_frequency_oracle(name):
    sys = CONTROLLERS[name]
    grid = nc.FreqGrid.default()
    assert nc.ni_freq_test(sys, grid) == oracle_ni(sys, grid)
    terms = oracle_terms(sys, grid)
    for delta in (1e-3, 0.0095, 0.05, 0.0999, 0.1, 0.2, 1.0):
        assert nc.osni_freq_test(sys, delta, grid) == oracle_passes(terms, delta)
    if oracle_ni(sys, grid):
        value = nc.osni_max_delta(sys, grid)
        assert value == oracle_delta_star(terms)
        oracle = bisect_max_delta(lambda delta: oracle_passes(terms, delta), 1e-6)
        assert oracle <= value < oracle + 1e-6


def test_stacked_tests_on_a_grid_that_reaches_the_resonance():
    sys = lightly_damped_controller()
    grid = nc.FreqGrid(np.logspace(-3.0, 6.0, 2001))
    assert not oracle_ni(sys, grid)
    assert not nc.ni_freq_test(sys, grid)
    with pytest.raises(ValueError, match="not NI"):
        nc.osni_max_delta(sys, grid)


def test_freq_response_stacks_over_frequencies():
    sys = CONTROLLERS["two_node_bank"]
    w = np.logspace(-2.0, 3.0, 7)
    stacked = nc.freq_response(sys, w)
    assert stacked.shape == (7, 2, 2)
    for k, wk in enumerate(w):
        assert np.array_equal(stacked[k], nc.freq_response(sys, wk))
