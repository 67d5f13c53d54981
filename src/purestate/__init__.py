"""Inductive pure-state estimation for n-qubit systems.

Measure a pure state in a computational basis plus a small family of derived
bases (separable or entangled), then rebuild the state block by block: the
computational counts fix the amplitude magnitudes and each level's relative
phases come from small least-squares systems.  Includes the measurement
simulator, the reconstruction algorithm, a Monte Carlo benchmark harness and
a CLI.

The names below are the documented API (README, "Python API"); everything
else is reached through its module, e.g. ``purestate.reconstruction.build_system``.
"""

from .states import fidelity, haar_random, make_state, named_state
from .bases import default_family, estimation_basis_ids
from .measurement import read_counts, simulate_counts, write_counts
from .reconstruction import AmbiguityError, ReconstructionOptions, reconstruct
from .benchmark import BenchConfig, bench_run, bootstrap_ci

__all__ = [
    "AmbiguityError", "BenchConfig", "ReconstructionOptions", "bench_run", "bootstrap_ci",
    "default_family", "estimation_basis_ids", "fidelity", "haar_random", "make_state",
    "named_state", "read_counts", "reconstruct", "simulate_counts", "write_counts",
]

__version__ = "0.1.0"
