"""Output consensus of four pendulums over a connected graph.

Each node runs an identical first-order controller; the controller outputs
are mixed by the graph Laplacian and fed back positively to the plants.
Outputs converge to one common (still swinging) trajectory while the
composite storage decays. Writes the trajectory CSV and an SVG of the
per-node outputs next to this script.
"""
from pathlib import Path

import numpy as np

import niconsensus as nc
from niconsensus import analysis
from niconsensus.svgplot import write_line_plot

a = b = 10.0
delta = 0.05
graph = nc.Graph(4, frozenset({(0, 1), (0, 2), (0, 3), (1, 2)}))
plant, v1 = nc.pendulum()
Y, _ = nc.first_order_certificate(a, b)   # controller storage x^T Y^-1 x / 2

loop = nc.ClosedLoop(plant, nc.first_order(a, b), graph)

x0 = np.zeros(12)
x0[0:8:2] = [2.0, 1.0, -2.0, -1.0]   # initial angles, rad
cfg = nc.IntegratorConfig(step_s=1e-3, t_end_s=20.0, record_every=10)
print("integrating 4 pendulums + 4 controllers for 20 s ...")
traj = nc.integrate(loop, x0, cfg)

edge_max, all_pairs = analysis.consensus_metric(traj)
print("\nlargest output disagreement over graph edges:")
for t in (0.0, 2.0, 5.0, 10.0, 15.0, 20.0):
    k = int(round(t / 0.01))
    print(f"  t={t:5.1f} s  edge max {edge_max[k]:.5f} rad  "
          f"all pairs {all_pairs[k]:.5f} rad")

print("\ndissipation checks along the run:")
for rep in analysis.check_ni_dissipation(traj, v1):
    print(f"  {rep.name}: passed={rep.passed} (worst {rep.max_violation:.1e})")
rep = analysis.check_osni_like_network(traj, Y, delta)
print(f"  {rep.name}: passed={rep.passed} (worst {rep.max_violation:.1e})")
cs = nc.CompositeStorage(loop, v1, Y)
rep = analysis.check_lyapunov_monotone(traj, cs, delta)
print(f"  {rep.name}: passed={rep.passed} (worst {rep.max_violation:.1e})")

# positive: W > 0 off the controller-consensus subspace, for every state
print(f"  storage positivity margin: {cs.positivity_margin():.3f}")

out = Path(__file__).resolve().parent
csv_path = out / "05_network_consensus.csv"
svg_path = out / "05_network_consensus.svg"
traj.write_csv(csv_path, extra_columns=[("edge_max", edge_max),
                                        ("all_pairs_max", all_pairs)])
curves = traj.y1.reshape(traj.n_samples, 4)[::5].T
write_line_plot(svg_path, traj.times[::5], curves,
                labels=[f"node {i+1}" for i in range(4)],
                title="output consensus of four pendulums",
                xlabel="time (s)", ylabel="angle (rad)")
print(f"\nwrote {csv_path.name} and {svg_path.name}")
