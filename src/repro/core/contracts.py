"""Contractual agreements between parties and the data controller.

"The participation of an entity to the architecture (as data producer or
data consumer) is conditioned to the definition of precise contractual
agreements with the data controller" (§5).  A contract gates every
operation: no publish, subscribe, inquiry or detail request is served for a
party without an active contract.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.actors import ActorKind
from repro.exceptions import (
    AlreadyRegisteredError,
    ContractInactiveError,
    NotRegisteredError,
)


class ContractStatus(enum.Enum):
    """Lifecycle of a contract."""

    ACTIVE = "active"
    SUSPENDED = "suspended"
    TERMINATED = "terminated"


@dataclass
class Contract:
    """One party's agreement with the data controller."""

    party_id: str
    kind: ActorKind
    signed_at: float
    valid_until: float | None = None
    status: ContractStatus = ContractStatus.ACTIVE

    def is_active_at(self, instant: float) -> bool:
        """Whether the contract authorizes operations at ``instant``."""
        if self.status is not ContractStatus.ACTIVE:
            return False
        if self.valid_until is not None and instant > self.valid_until:
            return False
        return True


class ContractRegistry:
    """All contracts the data controller has signed."""

    def __init__(self) -> None:
        self._contracts: dict[str, Contract] = {}

    def __len__(self) -> int:
        return len(self._contracts)

    def __contains__(self, party_id: str) -> bool:
        return party_id in self._contracts

    def sign(self, contract: Contract) -> None:
        """Record a new contract; one contract per party."""
        if contract.party_id in self._contracts:
            raise AlreadyRegisteredError(
                f"party {contract.party_id!r} already has a contract"
            )
        self._contracts[contract.party_id] = contract

    def get(self, party_id: str) -> Contract:
        """Fetch a party's contract."""
        try:
            return self._contracts[party_id]
        except KeyError as exc:
            raise NotRegisteredError(f"party {party_id!r} never joined") from exc

    def suspend(self, party_id: str) -> None:
        """Suspend a contract (operations start failing immediately)."""
        self.get(party_id).status = ContractStatus.SUSPENDED

    def require_active(self, party_id: str, instant: float, must_produce: bool = False,
                       must_consume: bool = False) -> Contract:
        """Assert the party may operate now; return the contract.

        Raises :class:`~repro.exceptions.NotRegisteredError` for unknown
        parties and :class:`~repro.exceptions.ContractInactiveError` for
        inactive/expired contracts or wrong participation kinds.
        """
        contract = self.get(party_id)
        if not contract.is_active_at(instant):
            raise ContractInactiveError(
                f"contract of {party_id!r} is not active at t={instant}"
            )
        if must_produce and not contract.kind.produces:
            raise ContractInactiveError(f"party {party_id!r} is not a data producer")
        if must_consume and not contract.kind.consumes:
            raise ContractInactiveError(f"party {party_id!r} is not a data consumer")
        return contract
