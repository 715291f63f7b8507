"""glancelab: boundary restriction of high-frequency eigenfunctions near glancing.

The package studies how eigenfunctions of the Laplacian on the unit disk and
the round 2-sphere behave when restricted to an interior hypersurface, in the
regime where the wavefront of the mode is nearly tangent ("glancing") to the
hypersurface.  It provides:

- self-contained special functions (Bessel, Airy, Legendre at the equator)
  accurate in the large-order regime, built on uniform asymptotics and stable
  recurrences (`glancelab.specfun`);
- construction and selection of whispering-gallery modes whose distance from
  the glancing set follows a prescribed power law (`glancelab.modes`);
- spectral weights and band projections localized at a power of the wavelength
  (`glancelab.weights`);
- scaling experiments that measure growth exponents of restricted norms and
  quasimode ensembles (`glancelab.experiments`);
- independent cross-checks used to validate the fast paths
  (`glancelab.oracle`, imported on demand by `glancelab selftest`);
- power-law exponent fits (`glancelab.fit`);
- deterministic CSV/SVG output and a command line front end
  (`glancelab.io`, `glancelab.svgplot`, `glancelab.cli`).

Each submodule loads on first use (PEP 562): ``import glancelab`` imports
none, and ``glancelab.specfun`` imports specfun when it is first read.  So a
command imports only the modules it runs.  `fit`, `io` and `svgplot` need the
standard library alone, and so do the `fit` and `plot` commands; the other
modules import numpy.
"""

import importlib

__version__ = "0.1.0"

__all__ = ["specfun", "weights", "modes", "experiments", "fit", "io",
           "svgplot", "NumericalFailure", "__version__"]


class NumericalFailure(Exception):
    """The numerics failed, not the input: the base of
    `specfun.NumericalError`, `modes.NoModeError` and `fit.FitError`.  The
    command line exits 2 on it."""


def __getattr__(name: str):
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
