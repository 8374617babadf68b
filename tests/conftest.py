import importlib.util
import math
import os
from pathlib import Path

import numpy as np
import pytest

import niconsensus as nc

ROOT = Path(__file__).resolve().parent.parent
FOUR_NODE_EDGES = frozenset({(0, 1), (0, 2), (0, 3), (1, 2)})


@pytest.fixture(scope="session")
def four_node_graph():
    return nc.Graph(4, FOUR_NODE_EDGES)


@pytest.fixture(scope="session")
def pendulum():
    return nc.pendulum(m_kg=1.0, l_m=0.5, kappa=5.0, g_ms2=9.8)


@pytest.fixture(scope="session")
def network_loop(four_node_graph, pendulum):
    plant, _ = pendulum
    return nc.ClosedLoop(plant, nc.first_order(10.0, 10.0), four_node_graph)


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
    return nc.ClosedLoop(plant, nc.first_order(20.0, 6.0))


@pytest.fixture(scope="session")
def pair_traj(pair_loop):
    cfg = nc.IntegratorConfig(step_s=1e-3, t_end_s=20.0, record_every=10)
    return nc.integrate(pair_loop, np.array([1.0, 0.0, 0.0]), cfg)


def package_env(**extra) -> dict:
    """This process's environment, updated by extra, with the directory this
    process imported niconsensus from first on PYTHONPATH: a fresh interpreter
    started with it tests the same package, src/ or an installed copy."""
    home = str(Path(nc.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [home, os.environ.get("PYTHONPATH")])), **extra}


def perfbench(name: str):
    """The module perfbench/<name>.py of the checkout, loaded afresh."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# --- oracles shared by several test modules ---------------------------------

#: Returned by convergence_order when the scheme is exact for the given field
#: (successive refinements agree to round-off).
EXACT = math.inf


def kron_ss(K, M: nc.StateSpace) -> nc.StateSpace:
    """State-space realisation (I (x) A, I (x) B, K (x) C, K (x) D) of the
    transfer matrix K (x) M(s): n identical copies of M with outputs mixed
    by K, formed with np.kron. Not minimal in general (directions in the
    kernel of K are unobservable), which the frequency-domain tests ignore."""
    K = np.atleast_2d(np.asarray(K, dtype=float))
    eye = np.eye(K.shape[0])
    return nc.StateSpace(np.kron(eye, M.A), np.kron(eye, M.B),
                         np.kron(K, M.C), np.kron(K, M.D))


def steady_state_relation(bank: nc.StateSpace, u2bar, tol: float = 1e-6) -> nc.CheckReport:
    """Settled output of a Hurwitz controller bank against its DC map.

    Simulates the bank (for instance kron_ss(L, M)) from rest under the
    constant input with nc.rk4_path on a plain field and compares the output
    with dc_gain(bank) u2bar, (L (x) M(0)) u2bar for the Laplacian-mixed
    bank. The horizon is set from the slowest mode so the transient is below
    round-off."""
    u2bar = np.asarray(u2bar, dtype=float).reshape(-1)
    eigs = np.linalg.eigvals(bank.A)
    t_end = min(60.0 / -float(np.max(eigs.real)), 1e4)
    step = min(0.5 / float(np.max(np.abs(eigs))), t_end / 50.0)
    drive = bank.B @ u2bar
    cfg = nc.IntegratorConfig(step_s=step, t_end_s=t_end, record_every=10 ** 9)
    _, states = nc.rk4_path(lambda xc: bank.A @ xc + drive, np.zeros(bank.state_dim), cfg)
    violation = float(np.abs(bank.C @ states[-1] - nc.dc_gain(bank) @ u2bar).max())
    return nc.CheckReport(name="steady_state_relation", max_violation=violation,
                          time_of_max=t_end, tolerance=tol, passed=violation <= tol)


def dense_plant():
    """(plant, controller): a dense plant with m = 2 and r = 2 under a
    raw-matrix controller with two inputs."""
    rng = np.random.default_rng(6)
    A, B, C, E = (rng.normal(size=s) for s in ((3, 3), (3, 2), (2, 3), (3, 2)))
    plant = nc.NonlinearPlant(A=A, B=B, C=C, E=E,
                              phi=lambda x, out=None: np.tanh(x[..., :2], out=out))
    return plant, nc.StateSpace(-np.eye(2), np.eye(2), np.eye(2))


def complete_graph(n: int) -> nc.Graph:
    return nc.Graph(n, frozenset((i, j) for i in range(n) for j in range(i + 1, n)))


def edge_rate_sums(traj) -> np.ndarray:
    """Per-sample ordered-pair sum of squared controller output-rate
    differences over the graph edges (each edge counted in both directions)."""
    i, j = np.nonzero(np.triu(traj.system.K, 1))
    ycdot = traj.ycdot.reshape(traj.n_samples, traj.system.n_plants, -1)
    diff = ycdot[:, i, :] - ycdot[:, j, :]
    return 2.0 * np.sum(diff * diff, axis=(1, 2))


def convergence_order(system, x0, cfg: nc.IntegratorConfig):
    """Observed order of accuracy by Richardson extrapolation.

    Integrates a ClosedLoop, or a field dx/dt = f(x) by nc.rk4_path, at
    steps h, h/2 and h/4 and compares terminal states; returns log2 of the
    ratio of successive differences (about 4 for smooth fields) or EXACT
    when the differences are at round-off.
    """
    terminal = []
    for div in (1, 2, 4):
        sub = nc.IntegratorConfig(step_s=cfg.step_s / div, t_end_s=cfg.t_end_s,
                                  record_every=10 ** 9)
        if isinstance(system, nc.ClosedLoop):
            states = nc.integrate(system, x0, sub).states
        else:
            _, states = nc.rk4_path(system, x0, sub)
        terminal.append(states[-1])
    scale = 1.0 + float(np.linalg.norm(terminal[-1]))
    d1 = float(np.linalg.norm(terminal[0] - terminal[1]))
    d2 = float(np.linalg.norm(terminal[1] - terminal[2]))
    if d1 < 1e-13 * scale or d2 < 1e-14 * scale:
        return EXACT
    return math.log2(d1 / d2)


def bisect_max_delta(passes, tol):
    """Largest delta that passes(delta) accepts, within tol: doubling from 1
    brackets it (inf after 60 doublings), then bisection shrinks the bracket
    [lo, hi) below tol. Returns lo, so delta* lies in [lo, lo + tol)."""
    hi, doublings = 1.0, 0
    while passes(hi):
        hi *= 2.0
        doublings += 1
        if doublings > 60:
            return math.inf
    lo = hi / 2.0 if doublings else 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if passes(mid):
            lo = mid
        else:
            hi = mid
    return lo


def rhs_rows(loop, X):
    """(state rows in composite order, phi rows) of the loop's field W Z at
    the extended state Z of one composite state X."""
    Z = loop.extend(X)
    out = loop.W.apply(Z)
    split = loop.n_plants * loop.plant.p
    return out[loop._rows], out[split:split + Z.size - loop.n_states]


def rk4_path_oracle(field, x0, cfg: nc.IntegratorConfig):
    """Fixed-step RK4 with a pure field dx/dt = field(x), allocating every
    stage, in one loop with no stage buffers. Returns (times, states) at the
    same samples as nc.rk4_path, bit for bit, and raises
    nc.SimulationDiverged at the same step."""
    h = cfg.step_s
    n_steps = max(1, round(cfg.t_end_s / h))
    x = np.array(x0, dtype=float)
    times, states = [0.0], [x]
    half = 0.5 * h
    sixth = h / 6.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_steps + 1):
            k1 = field(x)
            k2 = field(x + half * k1)
            k3 = field(x + half * k2)
            k4 = field(x + h * k3)
            new = x + sixth * (k1 + 2.0 * (k2 + k3) + k4)
            if not np.isfinite(new).all():
                raise nc.SimulationDiverged(k * h, k, x, int(np.argmin(np.isfinite(new))))
            x = new
            if k % cfg.record_every == 0 or k == n_steps:
                times.append(k * h)
                states.append(x)
    return np.array(times), np.array(states)


def rk4_stage_oracle(loop, x0, cfg: nc.IntegratorConfig):
    """Fixed-step RK4 of a ClosedLoop by its folded stages, allocating every
    stage: each stage runs alone, bound afresh by loop.rk4_stages to new
    copies of the stage buffers, and each step starts from the extended
    state of the composite state it records. Returns (times, states) at the
    same samples as nc.integrate."""
    h = cfg.step_s
    n_steps = max(1, round(cfg.t_end_s / h))
    stages_at = loop.rk4_stages(h)
    x = np.array(x0, dtype=float)
    times, states = [0.0], [x]
    for k in range(1, n_steps + 1):
        z = loop.extend(x)
        P, Q = np.zeros((5, z.size)), np.zeros((5, z.size))
        P[0] = z
        for stage in range(4):
            P, Q = P.copy(), Q.copy()
            stages_at(P, Q)[stage]()
        x = Q[0][loop._rows]
        if k % cfg.record_every == 0 or k == n_steps:
            times.append(k * h)
            states.append(x)
    return np.array(times), np.array(states)
