"""reachlab: a numerical laboratory for diffusion-based training dynamics.

Small, fully deterministic experiments connecting four views of the same
stochastic process: potentials and their curvature corrections
(``landscape``), path costs and critical paths (``action``), escape-rate
laws (``rates``, ``diffusion``), and the Gaussian information complexity
of tasks (``complexity``, ``tasks``).  The ``harness`` subpackage runs
the canned experiments behind the ``reachlab`` command.

The submodules and ``stream`` load on first access, so ``import
reachlab`` loads no numpy.
"""

from ._lazy import namespace
from ._version import __version__  # noqa: F401

__getattr__ = namespace(
    __name__,
    ("action", "complexity", "diffusion", "errors", "harness", "landscape", "rates", "rng", "tasks"),
    {"stream": "rng"},
)
