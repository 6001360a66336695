"""RPC layer: request/response and one-way casts between CooLSM nodes.

:class:`RpcNode` is the base class of every CooLSM component (Ingestor,
Compactor, Reader, client).  It is written purely against the effect
protocol (:mod:`repro.effects`), so the same class serves both backends:
under the simulation kernel its messages ride the modelled WAN, under
the live runtime (:mod:`repro.live`) they ride real TCP sockets.  It
owns an inbox on the network fabric, dispatches incoming requests to
registered handler coroutines, and offers:

``yield self.call(dst, method, payload)``
    Request/response with optional timeout and retries; the yield
    resolves to the peer handler's return value.

``self.cast(dst, method, payload)``
    Fire-and-forget one-way message (used for asynchronous propagation,
    e.g. Compactor → Reader updates).

Crash semantics for fault-tolerance experiments: while
:attr:`RpcNode.crashed` is True the node silently drops everything it
receives and initiates nothing — exactly how a failed machine appears
to its peers (timeouts).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Generator

from repro.effects import ComputeHost, EffectKernel, Fabric, Waitable

from .kernel import SimError

_rpc_ids = itertools.count(1)


@dataclass(frozen=True, slots=True)
class _Request:
    rpc_id: int
    method: str
    payload: Any
    size_bytes: int


@dataclass(frozen=True, slots=True)
class _Response:
    rpc_id: int
    payload: Any
    error: str | None


@dataclass(frozen=True, slots=True)
class _Cast:
    method: str
    payload: Any


class RpcTimeout(SimError):
    """A call exceeded its timeout (and retries, if any)."""


class RemoteError(SimError):
    """The remote handler raised; the message carries its description."""


Handler = Callable[[str, Any], Generator[Waitable, Any, Any]]


class RpcNode:
    """A simulated node addressable by name on the network.

    Subclasses register handlers (generator functions taking
    ``(src_name, payload)`` and returning the reply payload) with
    :meth:`on`, usually in ``__init__``.
    """

    def __init__(
        self, kernel: EffectKernel, network: Fabric, machine: ComputeHost, name: str
    ) -> None:
        self.kernel = kernel
        self.network = network
        self.machine = machine
        self.name = name
        self.crashed = False
        self._handlers: dict[str, Handler] = {}
        self._pending: dict[int, Waitable] = {}
        self._inbox = network.register(name, machine)
        self._receiver = kernel.spawn(self._receive_loop(), f"{name}.recv")
        self.on("health", self._handle_health)

    # ------------------------------------------------------------------
    # Registration and messaging API
    # ------------------------------------------------------------------
    def on(self, method: str, handler: Handler) -> None:
        """Register the handler coroutine for ``method``."""
        self._handlers[method] = handler

    def call(
        self,
        dst: str,
        method: str,
        payload: Any = None,
        size_bytes: int = 256,
        timeout: float | None = None,
        retries: int = 0,
    ) -> Waitable:
        """Start a request; the returned event fires with the reply.

        Usage: ``reply = yield self.call(dst, "read", req)``.
        Raises :class:`RpcTimeout` via the event if the deadline passes
        after all retries, and :class:`RemoteError` if the handler threw.
        """
        return self.kernel.spawn(
            self._call_process(dst, method, payload, size_bytes, timeout, retries),
            f"{self.name}.call.{method}",
        )

    def _call_process(self, dst, method, payload, size_bytes, timeout, retries):
        attempts = retries + 1
        last_error: Exception | None = None
        for __ in range(attempts):
            rpc_id = next(_rpc_ids)
            reply_event = self.kernel.event()
            self._pending[rpc_id] = reply_event
            self.network.send(
                self.name, dst, _Request(rpc_id, method, payload, size_bytes), size_bytes
            )
            if timeout is None:
                response = yield reply_event
            else:
                timer = self.kernel.timeout(timeout)
                which, value = yield self.kernel.any_of([reply_event, timer])
                timer.cancel()
                if which == 1:
                    self._pending.pop(rpc_id, None)
                    reply_event.defused = True
                    last_error = RpcTimeout(f"{self.name} -> {dst} {method} timed out")
                    continue
                response = value
            self._pending.pop(rpc_id, None)
            if response.error is not None:
                raise RemoteError(f"{dst}.{method}: {response.error}")
            return response.payload
        raise last_error or RpcTimeout(f"{self.name} -> {dst} {method} timed out")

    def cast(self, dst: str, method: str, payload: Any = None, size_bytes: int = 256) -> None:
        """One-way message: fire-and-forget."""
        self.network.send(self.name, dst, _Cast(method, payload), size_bytes)

    def compute(self, cost_seconds: float):
        """Process helper: consume CPU on this node's machine.

        Usage: ``yield from self.compute(cost)``.
        """
        yield from self.machine.execute(cost_seconds)

    # ------------------------------------------------------------------
    # Health probe (supervision / failure detection)
    # ------------------------------------------------------------------
    def health_gauges(self) -> dict:
        """Role-specific load gauges for the "health" RPC; subclasses
        override.  An ``"inflight"`` key, when present, becomes the
        reply's headline in-flight count."""
        return {}

    def _handle_health(self, src: str, payload: Any):
        """Answer a liveness probe.  A crashed node never reaches this
        handler (the receive loop drops its traffic), so a health reply
        really does mean "alive and serving" — the supervisor's and the
        chaos soak's failure-detection signal."""
        from repro.core.messages import HealthReply

        gauges = dict(self.health_gauges())
        transport = getattr(self.network, "transport", None)
        if transport is not None:
            gauges.update(transport.stats.as_gauges())
        store = getattr(self, "_store", None)
        if store is not None:
            gauges.update(store.gauges())
        yield from ()
        return HealthReply(
            name=self.name,
            nonce=getattr(payload, "nonce", 0),
            uptime=self.kernel.now,
            inflight=int(gauges.get("inflight", 0)),
            gauges=gauges,
        )

    # ------------------------------------------------------------------
    # Crash / recover (fault-tolerance experiments)
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Fail-stop: drop all traffic until :meth:`recover`."""
        self.crashed = True

    def recover(self) -> None:
        self.crashed = False

    # ------------------------------------------------------------------
    # Receive loop
    # ------------------------------------------------------------------
    def _receive_loop(self):
        while True:
            src, message = yield self._inbox.get()
            if self.crashed:
                continue
            if isinstance(message, _Response):
                pending = self._pending.pop(message.rpc_id, None)
                if pending is not None and not pending.triggered:
                    pending.succeed(message)
            elif isinstance(message, _Request):
                self.kernel.spawn(
                    self._serve(src, message), f"{self.name}.serve.{message.method}"
                )
            elif isinstance(message, _Cast):
                handler = self._handlers.get(message.method)
                if handler is not None:
                    process = self.kernel.spawn(
                        handler(src, message.payload),
                        f"{self.name}.cast.{message.method}",
                    )
                    process.defused = False  # failures surface in Kernel.run

    def _serve(self, src: str, request: _Request):
        handler = self._handlers.get(request.method)
        if handler is None:
            response = _Response(request.rpc_id, None, f"no handler for {request.method}")
        else:
            try:
                result = yield self.kernel.spawn(
                    handler(src, request.payload),
                    f"{self.name}.handle.{request.method}",
                )
                response = _Response(request.rpc_id, result, None)
            except Exception as error:  # noqa: BLE001 - report to caller
                response = _Response(request.rpc_id, None, repr(error))
        if not self.crashed:
            self.network.send(self.name, src, response, 256)
