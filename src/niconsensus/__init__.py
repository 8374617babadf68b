"""Consensus of networked nonlinear negative-imaginary systems.

A numpy toolbox for simulating identical nonlinear NI plants under
identical linear output-strictly-NI controllers in positive feedback through
an undirected graph, and for numerically certifying the dissipativity
inequalities that make the interconnection work: frequency-domain NI/OSNI
tests, state-space strictness certificates, storage-function decay along
trajectories, steady-state gain conditions, and the output consensus metric.
"""

from .analysis import (CheckReport, check_lyapunov_monotone, check_ni_dissipation,
                       check_osni_dissipation, check_osni_like_network,
                       check_pair_identities, consensus_metric)
from .config import ConfigError, ExperimentConfig, load_config, resolve_config
from .graph import (Graph, fiedler_value, is_connected, laplacian,
                    laplacian_eigenvalues, path_graph)
from .linsys import (CertificateReport, StateSpace, dc_gain, first_order,
                     first_order_certificate, freq_response, is_hurwitz, ni_freq_test,
                     osni_certificate_check, osni_freq_test, osni_max_delta)
from .network import ClosedLoop, CompositeStorage
from .plant import (GammaReport, NonlinearPlant, PendulumParams, StorageFunction,
                    equilibrium_solve, gamma_estimate, gamma_input_grid,
                    pendulum_plant, pendulum_storage)
from .sim import IntegratorConfig, SimulationDiverged, Trajectory, integrate, rk4_path

__version__ = "0.1.0"
