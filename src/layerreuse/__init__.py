"""Layer-wise top-k attention reuse on a deterministic synthetic decoder.

The pipeline has four stages. Profile a full-attention decode to measure how
much top-k selections agree between layers. Plan which layers may reuse a
lower layer's selection instead of scoring their whole cache, minimizing the
number of full layers under an overlap threshold. Decode in hybrid mode under
that policy while measuring fidelity against the full baseline. Price the KV
bytes read either way with an analytic cost model.
"""

from . import attention, engine, errors, formats, policy, profiling, synthetic
from .attention import *  # noqa: F403
from .engine import *  # noqa: F403
from .errors import *  # noqa: F403
from .formats import *  # noqa: F403
from .policy import *  # noqa: F403
from .profiling import *  # noqa: F403
from .synthetic import *  # noqa: F403

__version__ = "0.1.0"

# Each submodule's __all__ is its one export list; the package re-exports them all.
__all__ = [
    "__version__",
    *(name for module in (attention, engine, errors, formats, policy, profiling, synthetic)
      for name in module.__all__),
]
