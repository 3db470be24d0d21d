"""Quality of Service: vectors, SLAs, pricing, monitoring (paper §3).

Public API:

- :class:`QoSVector`, :class:`QoSWeights`, :class:`QoSRequirement`,
  :func:`scalarize`, :func:`time_utility` — quality measurement.
- :class:`SLAContract`, :class:`SLAOutcome`, :class:`ContractState` —
  service-level agreements with breach compensation.
- :class:`FlatPricing`, :class:`RiskPricedPremium`, :class:`Quote` —
  premium pricing policies.
- :class:`ContractMonitor`, :class:`ProviderLedger` — settlement records.
"""

from repro.qos.breach import breach_probability, dimension_breach_probability
from repro.qos.monitor import ContractMonitor, ProviderLedger
from repro.qos.pricing import (
    FlatPricing,
    PricingPolicy,
    Quote,
    RiskPricedPremium,
)
from repro.qos.sla import (
    ContractError,
    ContractState,
    SLAContract,
    SLAOutcome,
    reset_contract_ids,
)
from repro.qos.vector import (
    ALL_DIMENSIONS,
    QUALITY_DIMENSIONS,
    QoSRequirement,
    QoSVector,
    QoSWeights,
    scalarize,
    time_utility,
)

__all__ = [
    "ALL_DIMENSIONS",
    "ContractError",
    "ContractMonitor",
    "ContractState",
    "FlatPricing",
    "PricingPolicy",
    "ProviderLedger",
    "QUALITY_DIMENSIONS",
    "QoSRequirement",
    "QoSVector",
    "QoSWeights",
    "Quote",
    "RiskPricedPremium",
    "SLAContract",
    "SLAOutcome",
    "breach_probability",
    "dimension_breach_probability",
    "reset_contract_ids",
    "scalarize",
    "time_utility",
]
