"""Toda lattice solutions through the evolution of spectral data.

The lattice state is a Jacobi matrix; its spectral measure evolves by an
explicit exponential reweighting of the spectral weights while the
eigenvalues stand still.  Solving the lattice therefore reduces to one
eigendecomposition, a closed-form weight update per time, and an inverse
spectral reconstruction per time -- no ODE integration.  A fixed-step
RK4 integrator of the lattice equations is included as an independent
cross-check, a Chebyshev dictionary links moments to boundary-control
response vectors, and a truncation-and-stabilize driver extends the
method to semi-infinite initial data, spectrum bounded or not, and
reports whether the leading entries stopped moving.
"""

from . import errors, flow, jacobi, moments, oracle, response, semi_infinite
from .errors import *  # noqa: F401,F403
from .flow import *  # noqa: F401,F403
from .jacobi import *  # noqa: F401,F403
from .moments import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403
from .response import *  # noqa: F401,F403
from .semi_infinite import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (errors, flow, jacobi, moments, oracle, response, semi_infinite)
    for name in module.__all__
]
