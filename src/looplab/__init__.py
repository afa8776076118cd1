"""looplab: a desk-scale numerical laboratory for loops in C^d.

The package represents loops through truncated Fourier series, equips them
with fractional Sobolev norms and a spectral polarization, and builds on top
of that: a radial Hamiltonian class with its action functional, explicit
inverses for the APS boundary value problem on short cylinders, a Picard
solver for the perturbed Cauchy-Riemann equation, an upward gradient-flow
integrator, and the cycle geometry (sphere and box families) whose
intersection theory detects periodic orbits.
"""

import importlib

# the exported names of each module; the module loads when one of its names is
# first used, so `import looplab.files` loads only what files imports
_EXPORTS = {
    "loops": ("Loop", "SpectralConvention", "CONVENTION"),
    "hamiltonian": ("HamiltonianModel", "Splitting"),
    "cylinder": ("CylinderMap", "BoundaryData"),
    "solver": ("SolveResult", "FlowTrace"),
    "cycles": ("OrbitResult",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
