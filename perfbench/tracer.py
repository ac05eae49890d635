"""Per-module tracing from outside the program.

``Tracer.installed()`` replaces the public functions of each asdinv module
(in every namespace that imported them) with timing wrappers, and restores
them on exit. Plants built by the CLI or the sweep get their ``h`` and
``sigma`` wrapped through ``dataclasses.replace``; the controller that
``sim.simulate`` builds gets its ``unsat_output`` and ``derivative``
wrapped on the instance.

Every boundary records a call count and busy time, and self time (busy
minus the time covered by traced children). Calls made inside a
``sim.simulate`` call, at any depth, are also counted apart, so that the
counts can be checked against the RK4 steps of the inputs. Calls made once
per RHS evaluation are only aggregated; every other call also leaves a
span ``(name, start, end, parent, op)`` in memory.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
from collections import Counter, defaultdict
from time import perf_counter

from asdinv import analysis, asd_design, cli, numlin, plants, sim

HOT = frozenset({"plants.h", "plants.sigma", "controller_rt.unsat_output", "controller_rt.derivative"})


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.child_busy = defaultdict(float)  # (parent, child) -> busy
        self.calls_in_sim = Counter()  # calls with sim.simulate among their callers
        self.counts = Counter()  # non-call counters, e.g. bytes written
        self.spans: list[tuple] = []
        self.op = None  # index of the operation in progress; the spans' request id
        self._stack: list[list] = []  # [name, child time, span index, inside simulate]
        self._paused = 0

    def wrap(self, name: str, fn):
        hot = name in HOT
        stack = self._stack

        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            in_sim = parent is not None and parent[3]
            frame = [name, 0.0, None, in_sim or name == "sim.simulate"]
            if not hot:
                frame[2] = len(self.spans)
                self.spans.append(None)
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                self.calls[name] += 1
                if in_sim:
                    self.calls_in_sim[name] += 1
                self.busy[name] += elapsed
                self.self_time[name] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
                    self.child_busy[(parent[0], name)] += elapsed
                if not hot:
                    self.spans[frame[2]] = (name, start, end, parent[2] if parent else None, self.op)

        return traced

    @contextlib.contextmanager
    def paused(self):
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def wrap_plant(self, plant):
        # replace() re-runs the plant's controllability check; not traced
        with self.paused():
            return dataclasses.replace(
                plant, h=self.wrap("plants.h", plant.h), sigma=self.wrap("plants.sigma", plant.sigma)
            )

    @contextlib.contextmanager
    def installed(self):
        patches = []

        def patch(module, attr, value):
            patches.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)

        for fname in ("real_eig", "solve_lyapunov", "controllability_rank"):
            wrapped = self.wrap(f"numlin.{fname}", getattr(numlin, fname))
            for module in (numlin, asd_design, plants):
                if hasattr(module, fname):
                    patch(module, fname, wrapped)
        for module, prefix, names in (
            (asd_design, "asd_design", ("build_core", "verify_theorem1")),
            (analysis, "analysis", ("bound_report", "lyapunov_certificate")),
            (sim, "sim", ("simulate", "metrics")),
            (cli, "cli", ("main", "load_scenario")),
        ):
            for fname in names:
                patch(module, fname, self.wrap(f"{prefix}.{fname}", getattr(module, fname)))
        patch(cli, "x_to_u_response", self.wrap("controller_rt.x_to_u_response", cli.x_to_u_response))

        export = self.wrap("sim.export_csv", sim.export_csv)

        def export_csv(trace, path):
            export(trace, path)
            self.counts["sim.export_csv.bytes"] += os.path.getsize(path)

        patch(sim, "export_csv", export_csv)

        build_plant = cli.build_plant
        patch(cli, "build_plant", lambda sc: self.wrap_plant(build_plant(sc)))

        make_controller = sim.make_controller

        def traced_controller(spec):
            ctrl = make_controller(spec)
            ctrl.unsat_output = self.wrap("controller_rt.unsat_output", ctrl.unsat_output)
            ctrl.derivative = self.wrap("controller_rt.derivative", ctrl.derivative)
            return ctrl

        patch(sim, "make_controller", traced_controller)
        try:
            yield self
        finally:
            for module, attr, orig in reversed(patches):
                setattr(module, attr, orig)

    def children_busy(self, parent: str) -> float:
        return sum(v for (p, _), v in self.child_busy.items() if p == parent)

