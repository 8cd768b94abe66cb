"""First-order solvers for mixed variational inequalities and separable
convex programs: an inertial proximal point engine, linearized ADMM with
an inertial variant, and a compressive principal component pursuit
benchmark built on partial orthonormal transforms."""

__version__ = "0.1.0"

from . import bench, checks, cpcp, fixtures, numkit, prox, splitting, vi_core

__all__ = [
    "bench",
    "checks",
    "cpcp",
    "fixtures",
    "numkit",
    "prox",
    "splitting",
    "vi_core",
    "__version__",
]
