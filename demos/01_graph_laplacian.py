"""Graphs, Laplacians and algebraic connectivity.

Builds the four-node topology used throughout the demos, prints its
Laplacian spectrum, and shows how the Fiedler value separates connected
from disconnected topologies.
"""
import numpy as np

import niconsensus as nc

four = nc.Graph(4, frozenset({(0, 1), (0, 2), (0, 3), (1, 2)}))
L = nc.laplacian(four)
print("four-node graph, edges:", four.edge_list)
print("Laplacian:\n", L)
print("row sums:", L @ np.ones(4))
print("eigenvalues:", np.round(nc.laplacian_eigenvalues(four), 12))
print("Fiedler value:", round(nc.fiedler_value(four), 12),
      "| connected:", nc.is_connected(four))

print("\nthe two-node Laplacian is idempotent up to a factor of two:")
L2 = nc.laplacian(nc.Graph(2, frozenset({(0, 1)})))
print("L2 @ L2 == 2 L2:", np.array_equal(L2 @ L2, 2 * L2))

print("\nconnectivity across a family of path graphs with one edge removed:")
for n in (3, 5, 8):
    path = nc.path_graph(n)
    broken = nc.Graph(n, frozenset(list(path.edges)[1:]))
    print(f"  n={n}: path fiedler={nc.fiedler_value(path):.4f} "
          f"(connected={nc.is_connected(path)}), "
          f"broken fiedler={nc.fiedler_value(broken):.1e} "
          f"(connected={nc.is_connected(broken)})")

print("\nKronecker product: a 4-node bank of 1-state controllers mixed by L")
K = np.kron(L, np.eye(1))
print("L (x) I_1 has shape", K.shape, "and equals L:", np.array_equal(K, L))
