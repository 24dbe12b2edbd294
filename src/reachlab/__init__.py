"""reachlab: a numerical laboratory for diffusion-based training dynamics.

Small, fully deterministic experiments connecting four views of the same
stochastic process: potentials and their curvature corrections
(``landscape``), path costs and critical paths (``action``), escape-rate
laws (``rates``, ``diffusion``), and the Gaussian information complexity
of tasks (``complexity``, ``tasks``).  The ``harness`` subpackage runs
the canned experiments behind the ``reachlab`` command.

Submodules are imported by name (``from reachlab import tasks``), so
``import reachlab`` loads no numpy.
"""

from ._version import __version__  # noqa: F401
