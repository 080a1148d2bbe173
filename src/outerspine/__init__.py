"""Computations in the epsilon-spine of outer space at small rank.

Marked metric graphs with exact free-group markings, Lipschitz distances
via candidate loops, length pairings with rational currents, lines of
minima through per-topology linear programs, and a diagnostics suite that
samples the contraction inequalities of positive current pairs.

Exports resolve on first access (PEP 562): ``import outerspine`` loads no
submodule, and reading ``outerspine.axis`` imports ``minima`` (and what it
imports) the first time.
"""

from importlib import import_module

_EXPORTS = {
    "words": (
        "Automorphism", "NielsenMove", "Word", "apply", "compose", "cyclic_reduce",
        "elementary_automorphisms", "format_word", "invert", "parse_word", "power",
    ),
    "graphs": (
        "Edge", "MarkedGraph", "candidates", "collapse_edge", "embedded_cycles",
        "expansions", "in_spine", "normalize_volume", "rescale", "rose", "systole",
        "transform", "translation_length", "unit_rose", "with_lengths",
    ),
    "currents": (
        "RationalCurrent", "add", "apply_to_current", "dual", "exp_combination",
        "iwip_pair_approx", "normalize_at", "pairing", "scale",
    ),
    "lipschitz": ("d_L", "d_sym", "sigma_scale", "stretch"),
    "minima": (
        "AxisSample", "InfeasibleSpine", "axis", "balance_param", "max_systole_lengths",
        "min_on_topology", "minimize", "project", "translate_axis",
    ),
    "sampling": ("SampleError", "spine_points"),
    "diagnostics": (
        "SamplerConfig", "ball_projection_diameter", "check_contracting",
        "check_minisline", "fit_B", "overlap_tau",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
