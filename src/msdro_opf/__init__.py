"""Multi-source Wasserstein DRO for chance-constrained DC-OPF.

The package root exports the four names of the README's library tour;
everything else is imported from its own module (``msdro_opf.evaluation``,
``msdro_opf.valuation``, ...).
"""

from .dro_core import MultiDataset
from .network import bundled_network
from .opf_model import solve_msdro_opf

__version__ = "0.1.0"

__all__ = ["MultiDataset", "__version__", "bundled_network", "solve_msdro_opf"]
