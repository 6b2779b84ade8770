"""Connectivity structures and connective orders of entangled systems.

Subpackages by concern:

- ``connective``: finite integral connectivity structures, each closed by its
  constructor, which keeps its irreducibles; connective order.
- ``quantum``: dense states, the one contraction kernel behind every local
  measurement, partial trace, PPT.
- ``disentangle``: measurement-pool classification of pure states and the six
  disentanglement structures.
- ``density``: correlation / Sugita structures of density operators and the
  combined connective order.
- ``devices``: finite multilocal devices, locality taxonomy, tensorial and
  domanial structures, derivation from quantum experiments.
- ``randvars``: random-variable families, brunnian constructions, and the
  universal realization of any finite integral structure.
"""

__version__ = "0.1.0"

from .connective import ConnectiveStructure, connective_order
from .density import (
    DensityReport,
    TotalOrder,
    density_structures,
    total_order,
)
from .devices import (
    Device,
    DeviceOrders,
    DeviceReport,
    LocalityProfile,
    builtin_device,
    derive_device,
    device_structures,
    realization_count,
    sub_device,
)
from .disentangle import (
    Classification,
    Confidence,
    DisentanglementReport,
    IntricationClass,
    classify_on_subset,
    disentanglement_structures,
)
from .errors import DomainError, ResourceError
from .quantum import (
    DensityOperator,
    PureState,
    builtin_state,
    partial_trace,
    purity,
)
from .randvars import (
    FiniteJointDistribution,
    RvReport,
    brunnian_family,
    realize_structure,
    rv_analysis,
)
