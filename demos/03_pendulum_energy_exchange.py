"""The torsional pendulum is a lossless negative-imaginary plant.

Its total energy (spring + kinetic + gravitational) changes at exactly the
rate u * dy/dt: no margin, no dissipation. The demo integrates a driven
swing and tracks the energy balance to round-off.
"""
import math

import numpy as np

import niconsensus as nc
from niconsensus.sim import rk4_path

params = nc.PendulumParams(m_kg=1.0, l_m=0.5, kappa=5.0, g_ms2=9.8)
plant = nc.pendulum_plant(params)
storage = nc.pendulum_storage(params)

print("pendulum: m=1 kg, l=0.5 m, kappa=5 N m/rad, g=9.8 m/s^2")
print("equilibria under constant torque (solved by Newton iteration):")
for target in (0.0, 0.1, math.pi / 2):
    torque = params.kappa * target + params.m_kg * params.g_ms2 * params.l_m \
        * math.sin(target)
    xbar = nc.equilibrium_solve(plant, [torque], [target + 0.3, 0.0])
    print(f"  torque {torque:8.4f} N m -> angle {xbar[0]:8.5f} rad "
          f"(target {target:.5f})")

print("\ndriven swing with u(t) = 2 sin(3t):")
h, t_end = 1e-3, 8.0


def forced(x):
    # append time as an extra state so the drive is part of the field
    u = np.array([2.0 * math.sin(3.0 * x[2])])
    return np.append(plant.f(x[:2], u), 1.0)


times, states = rk4_path(forced, np.array([1.0, 0.0, 0.0]),
                         nc.IntegratorConfig(h, t_end, record_every=100))
xs, drive = states[:, :2], 2.0 * np.sin(3.0 * states[:, 2:])
supply = np.sum(drive * plant.h(plant.f(xs, drive)), axis=1)
rate = np.sum(storage.grad(xs) * plant.f(xs, drive), axis=1)
print(f"  energy-balance gap |dV/dt - u dy/dt| over the run: "
      f"{np.abs(rate - supply).max():.2e}")

energies = storage.V(xs)
print(f"  energy range along the swing: [{energies.min():.3f}, "
      f"{energies.max():.3f}] J")
print("  (the energy moves, but only through the supply term)")
