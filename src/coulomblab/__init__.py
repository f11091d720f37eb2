"""Simulation and verification lab for two-dimensional potential-theoretic
particle ensembles on regular compact sets."""

from .potential import (CompactSet, Disk, Ellipse, ExteriorMap, InversionError, Polynomial,
                        Segment, balayage_disk, capacity, compact_set_from_dict, contains,
                        equilibrium_integral, equilibrium_sample, green, log_potential,
                        mahler_measure, robin_energy)
from .measures import (AtomicMeasure, CircleMeasure, Configuration, DiskUniformMeasure,
                       SmoothedMeasure, bl_distance, bl_to_smoothed, continuous_energy,
                       discrete_energy, discretize, equilibrium_discretization,
                       perturbation_ball, smooth, weighted_energy)
from .fekete import FeketeResult, capacity_estimate, log_delta, solve
from .sampler import (Chain, ChainConfig, EnsembleParams, InadmissibleParams,
                      in_low_energy_set, log_density_unnormalized,
                      potential_scale_reduction, run_chain, tail_mass_estimate)
from .partition import (PartitionBounds, PartitionReport, asymptotic_residual,
                        bridge_residual, build_report, kappa_disk,
                        log_partition_disk_exact, partition_bounds,
                        partition_cubature, theta)
from .stats import (IntensityHistogram, LinearStatReport, RateReport,
                    equilibrium_tensor_integral, intensity_histogram,
                    linear_statistic, moment_statistic, positivity_scan,
                    rate_function, symmetrize, tensor_integral)

__version__ = "0.1.0"
