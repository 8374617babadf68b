"""Frequency-domain negative-imaginary tests and strictness levels.

The first-order lag a/(s+b) is NI for a, b > 0 and output strictly NI up to
the level 1/a. Networking two copies through the two-node graph halves the
available strictness. The state-space certificate confirms the same level
algebraically.
"""
import numpy as np

import niconsensus as nc

a, b = 10.0, 10.0
m = nc.first_order(a, b)
print(f"controller M(s) = {a:g}/(s+{b:g})")
print("Hurwitz:", nc.is_hurwitz(m), "| DC gain:", nc.dc_gain(m)[0, 0])
print("response at w=10 rad/s:", nc.freq_response(m, 10.0)[0, 0])

print("\nNI and strictness sweeps:")
print("  NI test:", nc.ni_freq_test(m))
for delta in (0.05, 0.1, 0.11, 0.2):
    print(f"  OSNI at delta={delta}: {nc.osni_freq_test(m, delta)}")
dmax = nc.osni_max_delta(m)
print(f"  largest passing delta: {dmax:.7f}  (analytic value 1/a = {1/a})")

print("\nnetworking two copies halves the strictness level:")
two_nodes = nc.Graph(2, frozenset({(0, 1)}))
print(f"  max delta of the two-node bank L2 (x) M, block by block on the "
      f"eigenvalues {{0, 2}} of L2: {nc.osni_max_delta(m, graph=two_nodes):.7f} "
      f"(= {dmax:.6f} / 2)")

print("\nstate-space certificate with the closed-form Y = a/b:")
Y, delta_star = nc.first_order_certificate(a, b)
for delta in (0.05, delta_star, 0.2):
    rep = nc.osni_certificate_check(m, Y, delta)
    print(f"  delta={delta:g}: passed={rep['passed']} "
          f"inequality residual={rep['inequality_residual']:+.3e} "
          f"B-equation residual={rep['b_equation_residual']:.1e}")

print("\ndissipation view of the same property along a driven run:")
# controller storage V2(x) = x^T Y^-1 x / 2, so dV2/dt = x^T Y^-1 dx/dt
Yinv = np.linalg.inv(Y)
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(500):
    x, u = rng.uniform(-3, 3, 1), rng.uniform(-3, 3, 1)
    dx = m.A @ x + m.B @ u
    ydot = m.C @ dx
    # output-strict supply rate u dy/dt - delta |dy/dt|^2 minus the storage rate
    slack = float(u @ ydot - 0.05 * ydot @ ydot - x @ Yinv @ dx)
    worst = max(worst, abs(slack - (1 / a - 0.05) * float(ydot @ ydot)))
print(f"  supply - storage rate always equals (1/a - delta)|dy|^2, "
      f"worst gap {worst:.2e}")
