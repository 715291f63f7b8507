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
- deterministic CSV/SVG output and a command line front end
  (`glancelab.io`, `glancelab.svgplot`, `glancelab.cli`).
"""

__version__ = "0.1.0"

from . import specfun, weights, modes, experiments, io, svgplot  # noqa: F401

__all__ = ["specfun", "weights", "modes", "experiments", "io", "svgplot",
           "__version__"]
