"""Verification kernel for finite truncated strict omega-groupoids.

Structures are explicit operation tables over finite globular sets.  The
package enumerates and checks every law exhaustively: the structure laws,
the coherence axioms, the twisted complex with its canonical isomorphisms,
the unit-lift splitting of the twisted projection, and the finite
shift-category demonstration.  Import submodules by name
(``from globkernel import omega``); none is loaded here.
"""

from .errors import KernelError

__version__ = "0.1.0"

__all__ = ["KernelError", "__version__"]
