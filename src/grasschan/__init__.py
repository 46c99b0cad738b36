"""Grassmann phase-space toolkit for qubit channels.

Represents qubit states and channels as characteristic functions and Green
functions over a four-generator Grassmann algebra, detects the Gaussian
channels, constructs their qubit-qubit dilations, and certifies weak
degradability / anti-degradability — with every symbolic result
cross-checked against a dense density-matrix path.

The package exports exactly the union of its five library modules'
``__all__``; each module's ``__all__`` is the one declaration of its API.
"""

from . import charfunc, degradability, grassmann, green, qubit
from .charfunc import *  # noqa: F403
from .degradability import *  # noqa: F403
from .grassmann import *  # noqa: F403
from .green import *  # noqa: F403
from .qubit import *  # noqa: F403

__version__ = "0.1.0"

__all__ = charfunc.__all__ + degradability.__all__ + grassmann.__all__ + green.__all__ + qubit.__all__
