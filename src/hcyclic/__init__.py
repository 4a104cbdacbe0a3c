"""Structure, spectra, and Jordan chains of cyclically h-partite matrices.

A square matrix is h-cyclic when its digraph admits a vertex partition
(V_1, ..., V_h) with every arc running from V_i to V_{i+1} cyclically.
This package detects that structure, works with the resulting block
cycle (products, powers, spectrum prediction), rotates Jordan chains
across roots of unity, constructs zero-eigenvalue chains of singular
h-cyclic matrices, and reconstructs h-cyclic matrices from
symmetry-respecting Jordan data.  A JSON-speaking CLI (`hcyclic`) fronts
the whole library.
"""

# Each module's public names, re-exported in this order.
from . import matrix_core, digraph, cyclic_blocks, circulant, jordan
from .matrix_core import *
from .digraph import *
from .cyclic_blocks import *
from .circulant import *
from .jordan import *

__all__ = [
    name
    for module in (matrix_core, digraph, cyclic_blocks, circulant, jordan)
    for name in module.__all__
]
