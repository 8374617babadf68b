import numpy as np
import pytest

import niconsensus as nc

FOUR_NODE_EDGES = frozenset({(0, 1), (0, 2), (0, 3), (1, 2)})


@pytest.fixture(scope="session")
def four_node_graph():
    return nc.Graph(4, FOUR_NODE_EDGES)


@pytest.fixture(scope="session")
def pendulum():
    params = nc.PendulumParams(m_kg=1.0, l_m=0.5, kappa=5.0, g_ms2=9.8)
    return nc.pendulum_plant(params), nc.pendulum_storage(params)


@pytest.fixture(scope="session")
def network_loop(four_node_graph, pendulum):
    plant, _ = pendulum
    return nc.network_interconnect(plant, nc.first_order(10.0, 10.0), four_node_graph)


@pytest.fixture(scope="session")
def network_x0():
    x0 = np.zeros(12)
    x0[0:8:2] = [2.0, 1.0, -2.0, -1.0]
    return x0


@pytest.fixture(scope="session")
def network_traj(network_loop, network_x0):
    """The four-pendulum consensus run shared by the trajectory checks."""
    cfg = nc.IntegratorConfig(step_s=1e-3, t_end_s=20.0, record_every=10)
    return nc.integrate(network_loop, network_x0, cfg)


@pytest.fixture(scope="session")
def pair_loop(pendulum):
    plant, _ = pendulum
    return nc.pair_interconnect(plant, nc.first_order(20.0, 6.0))


@pytest.fixture(scope="session")
def pair_traj(pair_loop):
    cfg = nc.IntegratorConfig(step_s=1e-3, t_end_s=20.0, record_every=10)
    return nc.integrate(pair_loop, np.array([1.0, 0.0, 0.0]), cfg)
