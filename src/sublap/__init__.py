"""Spectral gap bounds for step-2 sub-Riemannian homogeneous spaces.

The package is organized in layers: frame algebra and spec parsing
(`algebra`), the metric connection and its torsion calculus (`connection`),
curvature tensors and structure flags (`curvature`), eigenvalue bound
evaluators with their optimizer (`bounds`), and exact representation-theoretic
spectra used to certify the bounds (`spectral`).  Each module's `__all__` is
its public surface, and the package re-exports exactly those names.
"""

from . import algebra, bounds, connection, curvature, spectral
from .algebra import *
from .connection import *
from .curvature import *
from .bounds import *
from .spectral import *

__version__ = "0.1.0"

__all__ = (
    algebra.__all__ + connection.__all__ + curvature.__all__ + bounds.__all__ + spectral.__all__
)
