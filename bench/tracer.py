"""Span tracer for the benchmark's traced runs.

Wrappers are installed from here on the module attributes that one
selfright module calls in another (``selfright.sweep._integrate``,
``selfright.sidewinding.forward_kinematics``, ...) and on the public
functions a module calls internally. Nothing in the package itself is
edited. Each wrapped call records a span (name, parent, start, end, pass
id) in memory; a span's self time is its duration minus its children's.

A wrap site whose attribute no longer exists, or whose call arguments no
longer bind by name, is recorded as missing; every per-layer metric that
needs it is then reported missing instead of crashing the run.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# Span name -> the "module:attribute" sites whose calls it records. The
# layer of a span is the part of its name before the first dot.
SPAN_SITES = {
    "cli.main": ["selfright.cli:main"],
    "config.load_config": ["selfright.cli:load_config"],
    "config.config_hash": ["selfright.cli:config_hash"],
    "sweep.run_sweep": ["selfright.cli:run_sweep"],
    "sweep.binariness": ["selfright.cli:binariness"],
    "sweep.write": ["selfright.cli:write_diagram_csv",
                    "selfright.cli:write_diagram_json"],
    "rollmodel.integrate": ["selfright.sweep:_integrate",
                            "selfright.rollmodel:_integrate"],
    "rollmodel.simulate": ["selfright.sweep:simulate_roll",
                           "selfright.cli:simulate_roll"],
    "rollmodel.landscape": ["selfright.sweep:energy_landscape",
                            "selfright.cli:energy_landscape",
                            "selfright.rollmodel:energy_landscape"],
    "rollmodel.gain": ["selfright.sweep:drive_gain",
                       "selfright.rollmodel:drive_gain"],
    "kinematics.fk": ["selfright.sidewinding:forward_kinematics",
                      "selfright.kinematics:forward_kinematics"],
    "kinematics.com": ["selfright.sidewinding:center_of_mass"],
    "kinematics.cross_section": ["selfright.sidewinding:cross_section"],
    "kinematics.wave_height_slope": ["selfright.rollmodel:wave_height_slope"],
    "gait.joint_vector": ["selfright.sidewinding:joint_vector",
                          "selfright.kinematics:joint_vector",
                          "selfright.cli:joint_vector"],
    "gait.coherence": ["selfright.rollmodel:coherence"],
    "sidewinding.trace": ["selfright.cli:displacement_trajectory"],
    "sidewinding.contact": ["selfright.sidewinding:contact_set"],
    "sidewinding.fit": ["selfright.sidewinding:_fit_planar"],
}

LAYERS = ("cli", "config", "sweep", "rollmodel", "kinematics", "gait",
          "sidewinding")

# Per-layer metric -> (unit, better, spans and counters it needs). Values
# are per traced pass. A layer a workload does not reach reads 0, and a
# ratio over no work (trials_ok_frac without trials) reads 1.
LAYER_METRICS = {
    "rollmodel.integrate_s": ("s", "lower", ["rollmodel.integrate"]),
    "rollmodel.integrate_calls": ("count", "lower", ["rollmodel.integrate"]),
    "rollmodel.lane_intervals": ("count", "lower", ["#lane_intervals"]),
    "rollmodel.us_per_lane_interval": ("us", "lower",
                                       ["rollmodel.integrate",
                                        "#lane_intervals"]),
    "rollmodel.retries": ("count", "lower", ["#retries"]),
    "rollmodel.simulate_s": ("s", "lower", ["rollmodel.simulate"]),
    "rollmodel.simulate_calls": ("count", "lower", ["rollmodel.simulate"]),
    "rollmodel.simulate_lane_intervals": ("count", "lower",
                                          ["#simulate_lane_intervals"]),
    "rollmodel.landscape_s": ("s", "lower", ["rollmodel.landscape"]),
    "rollmodel.gain_s": ("s", "lower", ["rollmodel.gain"]),
    "rollmodel.gain_calls": ("count", "lower", ["rollmodel.gain"]),
    "rollmodel.self_s": ("s", "lower", ["@rollmodel"]),
    "sweep.self_s": ("s", "lower", ["sweep.run_sweep", "sweep.binariness"]),
    "sweep.write_s": ("s", "lower", ["sweep.write"]),
    "sweep.bytes_out": ("bytes", "lower", ["#bytes_out"]),
    "sweep.trials_ok_frac": ("ratio", "higher", ["#trials_total"]),
    "kinematics.fk_s": ("s", "lower", ["kinematics.fk"]),
    "kinematics.fk_calls": ("count", "lower", ["kinematics.fk"]),
    "kinematics.com_s": ("s", "lower", ["kinematics.com"]),
    "kinematics.cross_section_s": ("s", "lower",
                                   ["kinematics.cross_section"]),
    "kinematics.cross_section_calls": ("count", "lower",
                                       ["kinematics.cross_section"]),
    "kinematics.self_s": ("s", "lower", ["@kinematics"]),
    "gait.joint_vector_s": ("s", "lower", ["gait.joint_vector"]),
    "gait.joint_vector_calls": ("count", "lower", ["gait.joint_vector"]),
    "gait.self_s": ("s", "lower", ["@gait"]),
    "sidewinding.contact_s": ("s", "lower", ["sidewinding.contact"]),
    "sidewinding.fit_s": ("s", "lower", ["sidewinding.fit"]),
    "sidewinding.self_s": ("s", "lower", ["@sidewinding"]),
    "sidewinding.samples": ("count", "higher", ["#samples"]),
    "config.s": ("s", "lower", ["@config"]),
    "cli.self_s": ("s", "lower", ["cli.main"]),
    "trace.wall_s": ("s", "lower", []),
    "trace.untraced_wall_s": ("s", "lower", []),
    "trace.overhead_s": ("s", "lower", []),
    "trace.self_sum_frac": ("ratio", "higher", ["@cli"]),
}

# The self times of all spans of a pass must cover its traced wall time
# to within this fraction; more means a span is missing or double counted.
SELF_SUM_TOLERANCE = 0.05


def _site_target(site: str):
    mod_name, attr = site.split(":")
    try:
        module = importlib.import_module(mod_name)
    except ImportError:
        return None, attr, None
    return module, attr, getattr(module, attr, None)


class Tracer:
    """In-memory span recorder with per-pass counters."""

    def __init__(self, clock=time.perf_counter) -> None:
        # One record per span: [name, parent index, start, end, child
        # seconds, pass id].
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.pass_id = -1
        self.counters: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self.missing: set[str] = set()
        self._wrappers: list[tuple] = []  # (module, attr, original, wrapper)
        self._build_wrappers()

    # -- installation -------------------------------------------------

    def _build_wrappers(self) -> None:
        _, _, integration_error = _site_target(
            "selfright.errors:IntegrationError")
        if integration_error is None:
            self.missing.add("#retries")
        # Span -> (counter, hook reading the call's arguments before the
        # call, so a call that raises still counts its work, or hook
        # reading its result after it).
        hooks = {
            "rollmodel.integrate": ("#lane_intervals",
                                    self._count_integrate, None),
            "rollmodel.simulate": ("#simulate_lane_intervals",
                                   self._count_simulate, None),
            "sidewinding.trace": ("#samples", self._count_samples, None),
            "sweep.write": ("#bytes_out", None, self._count_bytes),
            "sweep.run_sweep": ("#trials_total", None, self._count_trials),
        }
        for name, sites in SPAN_SITES.items():
            counter, *hook = hooks.get(name, (None, None, None))
            for site in sites:
                module, attr, target = _site_target(site)
                if not callable(target):
                    self.missing.add(name)
                    if counter:
                        self.missing.add(counter)
                    continue
                try:
                    sig = inspect.signature(target) if counter else None
                except (TypeError, ValueError):
                    self.missing.add(counter)
                    sig = None
                wrapper = self._make_wrapper(name, target, counter, sig,
                                             *hook, integration_error)
                self._wrappers.append((module, attr, target, wrapper))

    def _make_wrapper(self, name, target, counter, sig, before, after,
                      integration_error):
        spans = self.spans
        stack = self._stack
        clock = self.clock
        retry_exc = integration_error or ()
        if sig is None:
            before = after = None

        def run_hook(fn, args, kwargs, result=None):
            try:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                fn(bound.arguments, result)
            except (TypeError, KeyError, AttributeError):
                self.missing.add(counter)

        def wrapper(*args, **kwargs):
            if before is not None:
                run_hook(before, args, kwargs)
            parent = stack[-1] if stack else -1
            rec = [name, parent, clock(), 0.0, 0.0, self.pass_id]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = target(*args, **kwargs)
            except retry_exc:
                self.counters[self.pass_id]["#retries"] += 1
                raise
            finally:
                rec[3] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += rec[3] - rec[2]
            if after is not None:
                run_hook(after, args, kwargs, result)
            return result

        wrapper.__wrapped__ = target
        return wrapper

    @contextmanager
    def installed(self, pass_id: int):
        """Trace one pass: wrappers sit on their sites only inside."""
        self.pass_id = pass_id
        for module, attr, _, wrapper in self._wrappers:
            setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, original, _ in self._wrappers:
                setattr(module, attr, original)

    # -- argument counters --------------------------------------------

    def _add(self, key: str, value: float) -> None:
        self.counters[self.pass_id][key] += value

    def _count_integrate(self, a, _result) -> None:
        self._add("#lane_intervals", len(a["gamma0"]) * int(a["n_intervals"]))

    def _count_simulate(self, a, _result) -> None:
        lanes = 1 if a["mode"] == "lumped" else a["morph"].num_modules
        intervals = max(1, round(a["cycles"] * a["steps_per_cycle"]))
        self._add("#simulate_lane_intervals", lanes * intervals)

    def _count_samples(self, a, _result) -> None:
        self._add("#samples", a["cycles"] * a["samples_per_cycle"] + 1)

    def _count_bytes(self, a, _result) -> None:
        self._add("#bytes_out", os.path.getsize(a["path"]))

    def _count_trials(self, _a, result) -> None:
        rolls = np.asarray(result.trial_rolls)
        self._add("#trials_total", rolls.size)
        self._add("#trials_ok", int(np.isfinite(rolls).sum()))

    # -- metrics ------------------------------------------------------

    def pass_metrics(self, pass_id: int, wall_s: float) -> dict[str, float]:
        """Per-layer values of one traced pass, with each layer's summed
        self time under "@<layer>"."""
        incl = defaultdict(float)
        self_t = defaultdict(float)
        calls = defaultdict(int)
        for name, _parent, t0, t1, child, pid in self.spans:
            if pid != pass_id:
                continue
            incl[name] += t1 - t0
            self_t[name] += (t1 - t0) - child
            calls[name] += 1
        layer_self = defaultdict(float)
        for name, value in self_t.items():
            layer_self[name.split(".")[0]] += value
        cnt = self.counters[pass_id]
        lane_intervals = cnt["#lane_intervals"]
        total = cnt["#trials_total"]
        values = {
            "rollmodel.integrate_s": incl["rollmodel.integrate"],
            "rollmodel.integrate_calls": calls["rollmodel.integrate"],
            "rollmodel.lane_intervals": lane_intervals,
            "rollmodel.us_per_lane_interval": (
                1e6 * incl["rollmodel.integrate"] / lane_intervals
                if lane_intervals else 0.0),
            "rollmodel.retries": cnt["#retries"],
            "rollmodel.simulate_s": incl["rollmodel.simulate"],
            "rollmodel.simulate_calls": calls["rollmodel.simulate"],
            "rollmodel.simulate_lane_intervals":
                cnt["#simulate_lane_intervals"],
            "rollmodel.landscape_s": incl["rollmodel.landscape"],
            "rollmodel.gain_s": incl["rollmodel.gain"],
            "rollmodel.gain_calls": calls["rollmodel.gain"],
            "rollmodel.self_s": layer_self["rollmodel"],
            "sweep.self_s": (self_t["sweep.run_sweep"]
                             + self_t["sweep.binariness"]),
            "sweep.write_s": incl["sweep.write"],
            "sweep.bytes_out": cnt["#bytes_out"],
            "sweep.trials_ok_frac": (cnt["#trials_ok"] / total
                                     if total else 1.0),
            "kinematics.fk_s": incl["kinematics.fk"],
            "kinematics.fk_calls": calls["kinematics.fk"],
            "kinematics.com_s": incl["kinematics.com"],
            "kinematics.cross_section_s": incl["kinematics.cross_section"],
            "kinematics.cross_section_calls":
                calls["kinematics.cross_section"],
            "kinematics.self_s": layer_self["kinematics"],
            "gait.joint_vector_s": incl["gait.joint_vector"],
            "gait.joint_vector_calls": calls["gait.joint_vector"],
            "gait.self_s": layer_self["gait"],
            "sidewinding.contact_s": incl["sidewinding.contact"],
            "sidewinding.fit_s": incl["sidewinding.fit"],
            "sidewinding.self_s": layer_self["sidewinding"],
            "sidewinding.samples": cnt["#samples"],
            "config.s": layer_self["config"],
            "cli.self_s": self_t["cli.main"],
            "trace.wall_s": wall_s,
            "trace.self_sum_frac": sum(layer_self.values()) / wall_s,
        }
        values.update({f"@{layer}": layer_self[layer] for layer in LAYERS})
        return values

    def missing_metrics(self) -> list[str]:
        """Per-layer metrics that need a wrap site or counter now missing."""
        gone = set(self.missing)
        for layer in LAYERS:
            if any(name.startswith(layer + ".") for name in gone):
                gone.add("@" + layer)
        return sorted(m for m, (_, _, needs) in LAYER_METRICS.items()
                      if gone.intersection(needs))

    def write(self, path, meta: dict) -> None:
        """Write every recorded span, with the run metadata, as JSON."""
        doc = {"meta": meta,
               "fields": ["name", "parent", "start_s", "end_s",
                          "child_s", "pass"],
               "spans": self.spans}
        with open(path, "w") as fh:
            json.dump(doc, fh)


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median over traced passes of each per-pass value."""
    return {key: statistics.median(p[key] for p in per_pass)
            for key in per_pass[0]}
