"""Steady-state gain conditions behind the stability results.

Two ingredients: the controller bank's settled output equals its DC map
L (x) M(0) applied to the constant input, and the open plant-to-controller
chain has a steady-state gain ratio strictly below one.
"""
import numpy as np

import niconsensus as nc

graph = nc.Graph(4, frozenset({(0, 1), (0, 2), (0, 3), (1, 2)}))
net = nc.kron_ss(nc.laplacian(graph), nc.first_order(10.0, 10.0))

print("settled bank output vs. the DC map L (x) M(0):")
rng = np.random.default_rng(42)
for label, u2 in (("consensus direction 1n", np.ones(4)),
                  ("random input", rng.uniform(-2, 2, 4))):
    rep = nc.check_steady_state_relation(net, u2)
    print(f"  {label}: gap {rep.max_violation:.2e} (passed={rep.passed})")

params = nc.PendulumParams()
plant = nc.pendulum_plant(params)
print("\nsteady-state ratio of the pendulum-to-controller chain, M(0) = 1:")
grid = nc.gamma_input_grid()
report = nc.gamma_estimate(plant, nc.first_order(10.0, 10.0), grid)
small = nc.gamma_estimate(plant, nc.first_order(10.0, 10.0), np.array([[1e-3]]))
print(f"  small-torque limit: {small.gamma_hat:.6f} "
      f"(linearisation 1/(kappa + m g l) = {1/9.9:.6f})")
print(f"  grid maximum: {report.gamma_hat:.6f} at torque "
      f"{report.worst_input[0]:+.2f} N m")
print("  the ratio stays below one, which rules out nonzero steady state "
      "in closed loop")

print("\nnetworked version over random constant input vectors:")
inputs = rng.uniform(-25, 25, (100, 4))  # one constant input vector per row
rep = nc.gamma_estimate(plant, nc.first_order(10.0, 10.0), inputs, nc.laplacian(graph))
print(f"  max ratio {rep.gamma_hat:.4f} at {np.round(rep.worst_input, 2)}")
