"""The gateway service: admission -> queue -> batch -> dispatch.

One :class:`GatewayService` fronts a backend exposing the awaitable
submission seam (``submit(method, *args, **kwargs) -> Future``) --
a local :class:`~repro.cluster.cluster.ZipGCluster` or a remote
:class:`~repro.server.client.ZipGClient`; the service never knows
which.  The request pipeline, per call:

1. **route** -- classify the method (:mod:`repro.gateway.router`);
   admin verbs bypass admission entirely;
2. **admit** -- chaos site ``gateway.admit``, then the tenant's token
   bucket + bounded queue (:mod:`repro.gateway.admission`); overflow
   and rate-limit rejections raise :class:`RetryAfter` here, *before*
   the request consumes any backend capacity;
3. **queue** -- admitted work parks in its tenant's FIFO; dispatcher
   coroutines drain the queues round-robin across tenants, so one hot
   tenant's backlog cannot starve another's single request;
4. **batch** -- identical in-flight reads coalesce: one leader issues
   the backend call, riders await its future without holding a
   dispatcher slot (the asyncio face of
   :class:`~repro.perf.coalesce.SingleFlight`);
5. **dispatch** -- chaos site ``gateway.dispatch``, then
   ``asyncio.wrap_future(backend.submit(...))``.  Reads flagged for
   degradation go out with ``partial_results=True`` instead of
   failing -- a shed that returns data.

The whole pipeline is event-loop confined: admission state is only
touched from coroutines, so there are no locks, and the backend seam
is the only place work leaves the loop.  This module is marked
``gateway-path``; analysis rule GATE001 rejects anything here that
would block the loop.
"""
# zipg: gateway-path

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import chaos, obs
from repro.core.errors import GatewayClosed, RetryAfter
from repro.gateway.admission import AdmissionController, QueuedRequest
from repro.gateway.router import Route, resolve

#: Tenant label applied when a request carries none.
DEFAULT_TENANT = "default"


@dataclass
class GatewayConfig:
    """Tuning knobs for one gateway instance."""

    #: Sustained per-tenant admission rate (requests/second).
    tenant_rate: float = 500.0
    #: Per-tenant burst allowance (token-bucket capacity).
    tenant_burst: float = 100.0
    #: Per-tenant queue bound -- the hard backpressure edge.
    queue_depth: int = 64
    #: Fraction of ``queue_depth`` past which sheddable reads degrade
    #: to ``partial_results=True``.
    shed_threshold: float = 0.75
    #: Dispatcher coroutines draining the tenant queues.  Bounds the
    #: gateway's concurrency against the backend (which sizes its own
    #: submission pool to match).
    dispatchers: int = 8


class GatewayService:
    """Admission-controlled async front door over a submission backend.

    Args:
        backend: anything with ``submit(method, *args, **kwargs)``
            returning a ``concurrent.futures.Future``.
        config: admission/queue/dispatch tuning.
        clock: injectable monotonic clock (tests drive the buckets).
    """

    def __init__(self, backend: object, config: Optional[GatewayConfig] = None,
                 clock=time.monotonic) -> None:
        self.backend = backend
        self.config = config or GatewayConfig()
        self._clock = clock
        self._admission = AdmissionController(
            tenant_rate=self.config.tenant_rate,
            tenant_burst=self.config.tenant_burst,
            queue_depth=self.config.queue_depth,
            shed_threshold=self.config.shed_threshold,
            clock=clock,
        )
        self._ring: List[str] = []
        self._cursor = 0
        # Created lazily inside a coroutine so it binds the serving
        # loop (3.9's asyncio primitives capture a loop at construction).
        self._wake: Optional["asyncio.Event"] = None
        self._dispatchers: List["asyncio.Task"] = []
        # Identical in-flight reads -> the leader's backend future.
        self._read_flights: Dict[Tuple[object, ...], "asyncio.Future"] = {}
        self._inflight = 0
        self._draining = False
        self._started = False

    def _wake_event(self) -> "asyncio.Event":
        """The dispatcher wake signal (created on first use, from a
        coroutine, so it belongs to the serving loop)."""
        if self._wake is None:
            self._wake = asyncio.Event()
        return self._wake

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Spawn the dispatcher coroutines (idempotent)."""
        if self._started:
            return
        self._started = True
        for index in range(self.config.dispatchers):
            task = asyncio.get_running_loop().create_task(
                self._dispatch_loop(index)
            )
            self._dispatchers.append(task)

    async def drain(self) -> None:
        """Stop admitting, finish every queued request, stop dispatchers.

        New requests see :class:`GatewayClosed` immediately; admitted
        work already in the queues completes normally (a drain is a
        handover, not an amputation).  Returns once the queues are
        empty, every backend call has resolved, and the dispatcher
        coroutines have exited.
        """
        self._draining = True
        self._wake_event().set()  # stays set: dispatchers exit on empty
        if self._dispatchers:
            await asyncio.gather(*self._dispatchers, return_exceptions=True)
            self._dispatchers = []
        # Belt and braces: anything still queued (a dispatcher died on
        # an injected fault, say) gets a structured rejection rather
        # than a forever-pending future.
        for entry in self._admission.drain_all():
            future = entry.future
            if isinstance(future, asyncio.Future) and not future.done():
                future.set_exception(GatewayClosed("gateway drained"))
        self._set_depth_gauges()

    @property
    def draining(self) -> bool:
        return self._draining

    def queue_depths(self) -> Dict[str, int]:
        return self._admission.depths()

    # ------------------------------------------------------------------
    # The request path
    # ------------------------------------------------------------------

    async def handle(self, method: str, args: Optional[list] = None,
                     kwargs: Optional[dict] = None,
                     tenant: str = DEFAULT_TENANT) -> object:
        """Run one request through the full pipeline; returns the
        backend's result or raises its typed exception.

        Raises :class:`RetryAfter` when admission sheds the request
        and :class:`GatewayClosed` once :meth:`drain` has begun.
        """
        route = resolve(method)
        call_args = tuple(args or ())
        call_kwargs = dict(kwargs or {})
        with obs.span("gateway.handle", layer="gateway", method=method,
                      tenant=tenant):
            if not route.admission:
                # Admin verbs bypass admission: an operator must be
                # able to inspect an overloaded (or draining) gateway.
                return await self._submit(route, call_args, call_kwargs,
                                          tenant)
            started = self._clock()
            entry = self._admit(route, call_args, call_kwargs, tenant)
            try:
                result = await entry.future
            except asyncio.CancelledError:
                # Waiter cancelled (client gone): the entry may still
                # be queued; mark it abandoned so dispatch skips it.
                entry.future = None
                raise
            self._observe_latency(tenant, self._clock() - started)
            return result

    def _admit(self, route: Route, args: tuple, kwargs: dict,
               tenant: str) -> QueuedRequest:
        chaos.kick(chaos.SITE_GATEWAY_ADMIT, tenant=tenant,
                   method=route.method)
        if self._draining:
            raise GatewayClosed("gateway is draining; not admitting")
        loop = asyncio.get_running_loop()
        try:
            entry = self._admission.admit(
                tenant, route.method, args, kwargs,
                loop.create_future(), sheddable=route.sheddable,
            )
        except RetryAfter as exc:
            obs.counter(
                "zipg_gateway_shed_total",
                help="requests shed by the gateway, by mode",
                labels={"tenant": tenant, "mode": f"reject_{exc.reason}"},
            ).inc()
            raise
        obs.counter(
            "zipg_gateway_admitted_total",
            help="requests past admission control",
            labels={"tenant": tenant},
        ).inc()
        obs.counter(
            "zipg_gateway_queued_total",
            help="admitted requests parked in a tenant queue",
            labels={"tenant": tenant},
        ).inc()
        self._set_depth_gauges()
        self._wake_event().set()
        return entry

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    async def _dispatch_loop(self, index: int) -> None:
        wake = self._wake_event()
        while True:
            entry, self._cursor = self._admission.next_entry(
                self._ring, self._cursor
            )
            if entry is None:
                if self._draining:
                    return
                wake.clear()
                # Re-check after clearing: an admit between the failed
                # pop and the clear would otherwise be missed.
                entry, self._cursor = self._admission.next_entry(
                    self._ring, self._cursor
                )
                if entry is None:
                    await wake.wait()
                    continue
            self._set_depth_gauges()
            await self._dispatch_one(entry)

    async def _dispatch_one(self, entry: QueuedRequest) -> None:
        future = entry.future
        if future is None or future.done():
            return  # waiter gave up while the entry was queued
        route = resolve(entry.method)
        kwargs = entry.kwargs
        if entry.degrade:
            kwargs = dict(kwargs)
            kwargs["partial_results"] = True
            obs.counter(
                "zipg_gateway_shed_total",
                help="requests shed by the gateway, by mode",
                labels={"tenant": entry.tenant, "mode": "degrade"},
            ).inc()
        try:
            result = await self._submit(route, entry.args, kwargs,
                                        entry.tenant)
        except BaseException as exc:  # typed remote errors included
            if not future.done():
                future.set_exception(exc)
            return
        if not future.done():
            future.set_result(result)

    async def _submit(self, route: Route, args: tuple, kwargs: dict,
                      tenant: str) -> object:
        """One backend call, deduplicating identical in-flight reads."""
        chaos.kick(chaos.SITE_GATEWAY_DISPATCH, tenant=tenant,
                   method=route.method)
        if route.kind == "admin":
            if route.method == "ping":
                # The caller is probing *this* process's liveness, and
                # the wire contract is the literal "pong" (a ZipGClient
                # backend would normalize it to a bool).
                return "pong"
            if not callable(getattr(self.backend, route.method, None)):
                # Cluster backends carry no RPC admin surface (a remote
                # ZipGClient backend forwards these end-to-end instead).
                return self._admin_local(route.method)
        key = self._flight_key(route, args, kwargs)
        if key is not None:
            flight = self._read_flights.get(key)
            if flight is not None:
                # Ride the leader's in-flight call: no second backend
                # submission, and this dispatcher slot frees up as
                # soon as the await parks.
                obs.counter(
                    "zipg_gateway_batched_total",
                    help="reads coalesced onto an identical in-flight call",
                    labels={"tenant": tenant},
                ).inc()
                return await asyncio.shield(flight)
        self._inflight += 1
        try:
            awaitable = asyncio.wrap_future(
                self.backend.submit(route.method, *args, **kwargs)
            )
            if key is None:
                return await awaitable
            flight = asyncio.ensure_future(awaitable)
            self._read_flights[key] = flight
            try:
                return await asyncio.shield(flight)
            finally:
                self._read_flights.pop(key, None)
        finally:
            self._inflight -= 1

    def _admin_local(self, method: str) -> object:
        """The non-callable admin verbs, answered from cluster state
        (mirrors :meth:`repro.server.master.MasterServer._admin`)."""
        backend = self.backend
        if method == "topology":
            return {
                "num_servers": getattr(backend, "num_servers", 1),
                "replication_factor": getattr(
                    backend, "replication_factor", 1
                ),
                "num_shards": len(backend.store.shards),
            }
        if method == "down_servers":
            return sorted(getattr(backend, "down_servers", ()))
        raise KeyError(
            f"admin method {method!r} is not supported by "
            f"{type(backend).__name__}"
        )

    @staticmethod
    def _flight_key(route: Route, args: tuple,
                    kwargs: dict) -> Optional[Tuple[object, ...]]:
        """Coalescing key for reads; ``None`` for writes/admin (every
        write must reach the store exactly as many times as issued)."""
        if route.kind != "read":
            return None
        try:
            key = (route.method, args, tuple(sorted(kwargs.items())))
            hash(key)  # dict-valued args only fail at hash time
            return key
        except TypeError:
            # Unhashable argument (a dict-valued property list):
            # canonicalize through repr rather than skip coalescing.
            return (route.method, repr(args),
                    repr(sorted(kwargs.items())))

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    def _set_depth_gauges(self) -> None:
        for tenant, depth in self._admission.depths().items():
            obs.gauge(
                "zipg_gateway_queue_depth",
                help="requests currently parked per tenant queue",
                labels={"tenant": tenant},
            ).set(depth)

    @staticmethod
    def _observe_latency(tenant: str, elapsed_s: float) -> None:
        obs.histogram(
            "zipg_gateway_latency_seconds",
            help="admitted-request latency through the gateway",
            labels={"tenant": tenant},
        ).observe(elapsed_s)
