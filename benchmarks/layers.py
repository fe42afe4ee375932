"""Per-layer metrics of the traced run, read from span summaries.

Every figure is per operation of the workload's list (one pass), except
the per-point, per-configuration and per-second rates. A function that
no longer exists reads as 0 calls and 0 s.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

# The modules whose public functions the traced run wraps.
MODULES = ("cli", "runner", "pdc", "fock", "optics", "detect", "analysis")


def _n_warned(seen, word: str) -> int:
    return sum(word in str(w.message) for w in seen)


# Counters read from single calls: function -> {counter: probe}.
PROBES = {
    "pdc.sample_pair_count_arrays": {
        "pulses": lambda a, k, r, w: k.get("size", a[2] if len(a) > 2 else 0)},
    "runner.dip_curve_mc": {
        "points": lambda a, k, r, w: len(getattr(r, "delays_um", ())),
        "pulses": lambda a, k, r, w: len(getattr(r, "delays_um", ()))
        * getattr(a[0] if a else k.get("cfg"), "pulses_per_point", 0)},
    "runner.dip_curve_analytic": {
        "points": lambda a, k, r, w: len(getattr(r, "delays_um", ()))},
    "analysis.fit_dip": {
        "iterations": lambda a, k, r, w: getattr(r, "iterations", 0),
        "clamped": lambda a, k, r, w: _n_warned(w, "clamped")},
}


class LayerStats:
    def __init__(self, summary: Dict[str, Dict[str, float]],
                 counters: Dict[str, float], n_ops: int):
        self.summary, self.counters, self.n_ops = summary, counters, n_ops

    def _get(self, fn: str, key: str) -> float:
        return self.summary.get(fn, {}).get(key, 0)

    def calls(self, fn: str) -> float:
        return self._get(fn, "calls") / self.n_ops

    def self_s(self, fn: str) -> float:
        return self._get(fn, "self_s") / self.n_ops

    def incl_s(self, fn: str) -> float:
        return self._get(fn, "incl_s") / self.n_ops

    def counter(self, key: str) -> float:
        return self.counters.get(key, 0) / self.n_ops


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _per_config(s: LayerStats) -> float:
    """State + beam splitter + probabilities per (n1, n2) configuration."""
    spent = sum(s.incl_s(f) for f in ("pdc.pair_configuration_state",
                                      "fock.apply_beamsplitter",
                                      "fock.mode_probabilities"))
    return _ratio(spent, s.calls("pdc.pair_configuration_state"))


# (name, unit, better, value); `trace.overhead` is added by the runner.
METRICS: List[Tuple[str, str, str, Callable[[LayerStats], float]]] = [
    ("fock.apply_beamsplitter.calls", "count", "lower",
     lambda s: s.calls("fock.apply_beamsplitter")),
    ("fock.apply_beamsplitter.self_s", "s", "lower",
     lambda s: s.self_s("fock.apply_beamsplitter")),
    ("fock.mode_probabilities.calls", "count", "lower",
     lambda s: s.calls("fock.mode_probabilities")),
    ("fock.mode_probabilities.self_s", "s", "lower",
     lambda s: s.self_s("fock.mode_probabilities")),
    ("fock.apply_creation.calls", "count", "lower",
     lambda s: s.calls("fock.apply_creation")),
    ("fock.per_config_s", "s", "lower", _per_config),
    ("pdc.pair_configuration_state.calls", "count", "lower",
     lambda s: s.calls("pdc.pair_configuration_state")),
    ("pdc.pair_configuration_state.self_s", "s", "lower",
     lambda s: s.self_s("pdc.pair_configuration_state")),
    ("pdc.sample_pair_count_arrays.calls", "count", "lower",
     lambda s: s.calls("pdc.sample_pair_count_arrays")),
    ("pdc.sample_pair_count_arrays.self_s", "s", "lower",
     lambda s: s.self_s("pdc.sample_pair_count_arrays")),
    ("pdc.sampled_pulses", "count", "lower",
     lambda s: s.counter("pdc.sample_pair_count_arrays.pulses")),
    ("runner.dip_curve_mc.per_point_s", "s", "lower",
     lambda s: _ratio(s.incl_s("runner.dip_curve_mc"),
                      s.counter("runner.dip_curve_mc.points"))),
    ("runner.dip_curve_mc.pulses_per_s", "1/s", "higher",
     lambda s: _ratio(s.counter("runner.dip_curve_mc.pulses"),
                      s.incl_s("runner.dip_curve_mc"))),
    ("runner.dip_curve_analytic.per_point_s", "s", "lower",
     lambda s: _ratio(s.incl_s("runner.dip_curve_analytic"),
                      s.counter("runner.dip_curve_analytic.points"))),
    ("runner.accidental_floor_hz.s", "s", "lower",
     lambda s: s.incl_s("runner.accidental_floor_hz")),
    ("detect.click_probability.calls", "count", "lower",
     lambda s: s.calls("detect.click_probability")),
    ("optics.overlap_amplitude.calls", "count", "lower",
     lambda s: s.calls("optics.overlap_amplitude")),
    ("analysis.fit_dip.calls", "count", "lower",
     lambda s: s.calls("analysis.fit_dip")),
    ("analysis.fit_dip.self_s", "s", "lower",
     lambda s: s.self_s("analysis.fit_dip")),
    ("analysis.fit_dip.iterations", "count", "lower",
     lambda s: s.counter("analysis.fit_dip.iterations")),
    ("analysis.fit_dip.raised", "count", "lower",
     lambda s: s.counter("analysis.fit_dip.raised")),
    ("analysis.fit_dip.clamped", "count", "lower",
     lambda s: s.counter("analysis.fit_dip.clamped")),
    ("cli.parse_config.s", "s", "lower", lambda s: s.incl_s("cli.parse_config")),
    ("cli.write_curve_csv.s", "s", "lower",
     lambda s: s.incl_s("cli.write_curve_csv")),
    ("cli.read_curve_csv.s", "s", "lower", lambda s: s.incl_s("cli.read_curve_csv")),
]
OVERHEAD = ("trace.overhead", "ratio", "lower")


def layer_metrics(stats: LayerStats, overhead: float) -> Dict[str, dict]:
    out = {name: {"value": float(fn(stats)), "unit": unit}
           for name, unit, _, fn in METRICS}
    out[OVERHEAD[0]] = {"value": overhead, "unit": OVERHEAD[1]}
    return out
