"""Spans around the package's public functions, recorded from outside.

`Tracer.install` replaces each function where its callers look it up (a
module attribute or a class attribute) by a wrapper that records a span:
name, start, end and the index of the enclosing span. `uninstall` puts the
originals back, so an untraced run executes none of this code. Spans stay in
memory; `save` writes them once, when the benchmark ends.
"""

from __future__ import annotations

import functools
import time

import numpy as np


def targets():
    """(owner, attribute, span name) for every wrapped function."""
    from niconsensus import analysis, cli, config, linsys, network, plant, sim

    return [
        (cli, "load_config", "config.load"),
        (config.ExperimentConfig, "build_loop", "network.build_loop"),
        (cli, "integrate", "sim.integrate"),
        (sim, "rk4_path", "sim.rk4_path"),
        (network.ClosedLoop, "rhs", "network.rhs"),
        (network.ClosedLoop, "evaluate", "network.evaluate"),
        (network.CompositeStorage, "value", "network.storage"),
        (network.CompositeStorage, "rate", "network.storage"),
        (analysis, "check_ni_dissipation", "analysis.ni_dissipation"),
        (analysis, "check_osni_dissipation", "analysis.osni_dissipation"),
        (analysis, "check_osni_like_network", "analysis.osni_like_network"),
        (analysis, "check_pair_identities", "analysis.pair_identities"),
        (analysis, "check_lyapunov_monotone", "analysis.lyapunov_monotone"),
        (analysis, "consensus_metric", "analysis.consensus"),
        (sim.Trajectory, "write_csv", "sim.write_csv"),
        (cli, "write_line_plot", "svgplot.write"),
        (linsys, "freq_response", "linsys.freq_response"),
        (linsys, "ni_freq_test", "linsys.ni_freq_test"),
        (cli, "ni_freq_test", "linsys.ni_freq_test"),
        (linsys, "osni_freq_test", "linsys.osni_freq_test"),
        (cli, "osni_freq_test", "linsys.osni_freq_test"),
        (linsys, "osni_max_delta", "linsys.osni_max_delta"),
        (cli, "osni_max_delta", "linsys.osni_max_delta"),
        (cli, "osni_certificate_check", "linsys.certificate"),
        (cli, "gamma_estimate", "plant.gamma_estimate"),
        (plant, "equilibrium_solve", "plant.equilibrium_solve"),
    ]


class Spans:
    """Spans of one traced operation as arrays, with per-name aggregates."""

    def __init__(self, names, starts, ends, parents):
        self.names = np.asarray(names, dtype=object)
        self.starts = np.asarray(starts, dtype=float)
        self.ends = np.asarray(ends, dtype=float)
        self.parents = np.asarray(parents, dtype=np.int64)
        self.durations = self.ends - self.starts
        nested = self.parents >= 0
        child_time = np.bincount(self.parents[nested], weights=self.durations[nested],
                                 minlength=self.names.size)
        #: Span duration minus the time its direct children cover.
        self.self_times = self.durations - child_time

    def mask(self, name, parent=None):
        m = self.names == name
        if parent is not None:
            has_parent = self.parents >= 0
            parent_names = np.full(self.names.size, None, dtype=object)
            parent_names[has_parent] = self.names[self.parents[has_parent]]
            m &= parent_names == parent
        return m

    def count(self, name, parent=None) -> int:
        return int(self.mask(name, parent).sum())

    def total(self, name) -> float:
        return float(self.durations[self.mask(name)].sum())

    def self_time(self, name) -> float:
        return float(self.self_times[self.mask(name)].sum())


class Tracer:
    def __init__(self):
        self._names, self._starts, self._ends, self._parents = [], [], [], []
        self._stack = [-1]
        self._saved = []
        self.chunks = []

    def wrap(self, name, fn):
        names, starts, ends, parents, stack = (self._names, self._starts, self._ends,
                                               self._parents, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(ends)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self):
        for owner, attr, name in targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take(self) -> Spans:
        """Spans recorded since the last call; they are kept for `save`."""
        spans = Spans(self._names, self._starts, self._ends, self._parents)
        self.chunks.append(spans)
        for buf in (self._names, self._starts, self._ends, self._parents):
            buf.clear()
        return spans

    def save(self, path):
        """All spans taken, with parents as indices into the saved arrays."""
        names, starts, ends, parents, base = [], [], [], [], 0
        for c in self.chunks:
            names.append(c.names.astype(str))
            starts.append(c.starts)
            ends.append(c.ends)
            parents.append(np.where(c.parents >= 0, c.parents + base, -1))
            base += c.names.size
        cat = lambda parts, dtype: np.concatenate(parts) if parts else np.empty(0, dtype)
        np.savez_compressed(path, name=cat(names, str), start=cat(starts, float),
                            end=cat(ends, float), parent=cat(parents, np.int64))
