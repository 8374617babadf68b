"""One pendulum against one output-strict controller in positive feedback.

The candidate Lyapunov function W = V1 + V2 - y1 y2 decays monotonically at
a rate bounded by the controller's output strictness, so the loop settles to
the origin. Controller gains (a, b) = (20, 6) give a well-damped loop.
"""
import numpy as np

import niconsensus as nc
from niconsensus import analysis

a, b, delta = 20.0, 6.0, 0.05
plant, v1 = nc.pendulum()
Y, _ = nc.first_order_certificate(a, b)   # controller storage x^T Y^-1 x / 2

loop = nc.ClosedLoop(plant, nc.first_order(a, b))
cfg = nc.IntegratorConfig(step_s=1e-3, t_end_s=20.0, record_every=10)
traj = nc.integrate(loop, np.array([1.0, 0.0, 0.0]), cfg)

print(f"controller {a:g}/(s+{b:g}), strictness level delta={delta}")
print(f"gamma bound of the steady-state chain: "
      f"{nc.gamma_estimate(plant, nc.first_order(a, b), nc.gamma_input_grid()).gamma_hat:.4f}"
      " (< 1 as required)")

cs = nc.CompositeStorage(loop, v1, Y)
values = np.array([cs.value(x) for x in traj.states])
print("\nstorage decay along the run:")
for t in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
    k = int(round(t / 0.01))
    x = traj.states[k]
    print(f"  t={t:5.1f} s  |x|={np.linalg.norm(x):.3e}  W={values[k]:.3e}")

[rep_ni] = analysis.check_ni_dissipation(traj, v1)
[rep_osni] = analysis.check_osni_dissipation(traj, Y, delta)
rep_w = analysis.check_lyapunov_monotone(traj, cs, delta)
print("\nchecks:")
for rep in (rep_ni, rep_osni, rep_w):
    print(f"  {rep.name}: passed={rep.passed} "
          f"max violation={rep.max_violation:.2e}")
print(f"\nfinal |x(20 s)| = {np.linalg.norm(traj.states[-1]):.2e}")
