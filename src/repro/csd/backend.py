"""The storage-backend interface clients program against.

Executors and client proxies never care whether their GETs land on the
single shared :class:`~repro.csd.device.ColdStorageDevice` of the paper's
testbed or on a sharded :class:`~repro.fleet.router.FleetRouter` — both
expose the same ``submit()`` entry point.  The protocol below captures that
contract so the client layers can be typed against the interface instead of
one concrete device class.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover
    from repro.csd.request import GetRequest
    from repro.sim import Environment


@runtime_checkable
class StorageBackend(Protocol):
    """Anything able to accept tagged GET requests and complete them."""

    env: Environment

    def submit(self, request: GetRequest) -> GetRequest:
        """Accept a request; its ``completion`` event fires with the payload."""
        ...
