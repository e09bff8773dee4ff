"""Eigenvalues and eigenvectors of equilateral hypermatrices via matrix pencils.

The package flattens a hypermatrix eigenproblem ``A·x = λ·𝓑(x)`` into a
linear matrix pencil over a Kronecker power of the unknown, classifies
eigenvalues as essential (rank-dropping) or quasi (column-rank-deficient),
and searches pencil kernels for monic decomposable eigenvectors.  It ships
semi-tensor-product and hypermatrix primitives, a monic decomposition
certificate, D-/U-eigen solvers, an alternating least-squares iteration, and
the ``hypereig`` command-line tool.
"""

from . import hypermatrix, hypervector, pencil_eigen, stp_core, u_eigen
from .hypermatrix import *  # noqa: F401,F403
from .hypervector import *  # noqa: F401,F403
from .pencil_eigen import *  # noqa: F401,F403
from .stp_core import *  # noqa: F401,F403
from .u_eigen import *  # noqa: F401,F403

__version__ = "0.1.0"

# Each module lists its public names once, in its own ``__all__``.
__all__ = [
    *stp_core.__all__,
    *hypermatrix.__all__,
    *hypervector.__all__,
    *pencil_eigen.__all__,
    *u_eigen.__all__,
    "__version__",
]
