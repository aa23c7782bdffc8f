"""Random ReLU networks: gradient-direction adversarial flips, Monte Carlo
probes of the supporting concentration bounds, and depth-collapse kernel
dynamics."""

__version__ = "0.1.0"

from .network import (  # noqa: F401
    Architecture,
    Network,
    bottleneck_decomposition,
    build_network,
    forward,
    grad_difference_decomposition,
    gradient,
    load_network,
    network_from_weights,
    save_network,
)
from .adversarial import flip_search, paper_eta, verify_theorem1  # noqa: F401
from .collapse import collapse_simulate, kernel_iterate, kernel_map, sin_cos_gap  # noqa: F401
from .rng import RngStream  # noqa: F401
