"""Simulation and verification lab for two-dimensional potential-theoretic
particle ensembles on regular compact sets.

Each module of the package is executed at its first attribute access:
importing coulomblab places every module but cli in sys.modules, binds it as
a package attribute and executes none of them, so a chain run never executes
fekete, measures, partition or acceptance.  An error in a module surfaces at
its first use.  The names in __all__ are served from their modules.
"""

import importlib.util
import sys

_EXPORTS = {
    "potential": ("CompactSet", "Disk", "Ellipse", "ExteriorMap", "InversionError", "Segment",
                  "compact_set_from_dict", "contains", "equilibrium_integral",
                  "equilibrium_sample", "robin_energy"),
    "measures": ("AtomicMeasure", "CircleMeasure", "DiskUniformMeasure", "SmoothedMeasure",
                 "bl_distance", "continuous_energy", "discrete_energy", "discretize",
                 "equilibrium_discretization", "load_points", "perturbation_ball",
                 "save_points", "smooth", "weighted_energy"),
    "fekete": ("FeketeResult", "capacity_estimate", "log_delta", "max_log_delta", "solve"),
    "sampler": ("Chain", "ChainConfig", "EnsembleParams", "InadmissibleParams",
                "in_low_energy_set", "log_density_unnormalized", "potential_scale_reduction",
                "run_chain", "tail_mass_estimate"),
    "partition": ("PartitionBounds", "PartitionReport", "asymptotic_residual", "build_report",
                  "disk_mode_mass", "log_partition_disk_exact", "partition_bounds",
                  "partition_cubature", "theta"),
    "stats": ("IntensityHistogram", "LinearStatReport", "RateReport", "intensity_histogram",
              "linear_statistic", "moment_statistic", "positivity_scan", "symmetrize",
              "tensor_integral"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def _register(name: str):
    """coulomblab.<name> as a lazily loaded module, placed in sys.modules."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# cli is left to the import system: `python -m coulomblab.cli` warns when the
# module it is about to run is already in sys.modules
acceptance, fekete, measures, partition, potential, sampler, stats = map(
    _register, ("acceptance", "fekete", "measures", "partition", "potential", "sampler",
                "stats"))


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[home], name)


def __dir__():
    return sorted({*globals(), *__all__})
