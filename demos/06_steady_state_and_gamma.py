"""Steady-state gain conditions behind the stability results.

Two ingredients: the controller bank's settled output equals its DC map
L (x) M(0) applied to the constant input, and the open plant-to-controller
chain has a steady-state gain ratio strictly below one.
"""
import numpy as np

import niconsensus as nc

graph = nc.Graph(4, frozenset({(0, 1), (0, 2), (0, 3), (1, 2)}))
L, lag = nc.laplacian(graph), nc.first_order(10.0, 10.0)
# the bank (I (x) A, I (x) B, L (x) C): four lags with outputs mixed by L
A, B, C = np.kron(np.eye(4), lag.A), np.kron(np.eye(4), lag.B), np.kron(L, lag.C)
dc_map = np.kron(L, nc.dc_gain(lag))

print("bank output settled from rest (RK4, h = 0.05 s, 6 s) vs. the DC map L (x) M(0):")
cfg = nc.IntegratorConfig(step_s=0.05, t_end_s=6.0, record_every=10 ** 9)
rng = np.random.default_rng(42)
for label, u2 in (("consensus direction 1n", np.ones(4)),
                  ("random input", rng.uniform(-2, 2, 4))):
    drive = B @ u2
    _, states = nc.rk4_path(lambda xc: A @ xc + drive, np.zeros(4), cfg)
    gap = np.abs(C @ states[-1] - dc_map @ u2).max()
    print(f"  {label}: gap {gap:.2e}")

m, l, kappa, g = 1.0, 0.5, 5.0, 9.8
plant, _ = nc.pendulum(m_kg=m, l_m=l, kappa=kappa, g_ms2=g)
print("\nsteady-state ratio of the pendulum-to-controller chain, M(0) = 1:")
grid = nc.gamma_input_grid()
report = nc.gamma_estimate(plant, nc.first_order(10.0, 10.0), grid)
small = nc.gamma_estimate(plant, nc.first_order(10.0, 10.0), np.array([[1e-3]]))
print(f"  small-torque limit: {small.gamma_hat:.6f} "
      f"(linearisation 1/(kappa + m g l) = {1 / (kappa + m * g * l):.6f})")
print(f"  grid maximum: {report.gamma_hat:.6f} at torque "
      f"{report.worst_input[0]:+.2f} N m")
print("  the ratio stays below one, which rules out nonzero steady state "
      "in closed loop")

print("\nnetworked version over random constant input vectors:")
inputs = rng.uniform(-25, 25, (100, 4))  # one constant input vector per row
rep = nc.gamma_estimate(plant, nc.first_order(10.0, 10.0), inputs, graph)
print(f"  max ratio {rep.gamma_hat:.4f} at {np.round(rep.worst_input, 2)}")
