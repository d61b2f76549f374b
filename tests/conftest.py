"""Shared test configuration: Hypothesis profiles.

The property suites pin ``max_examples`` inline, and an inline
``@settings(...)`` always overrides a registered profile -- so example
counts scale through :func:`hypothesis_examples` instead, which reads
the profile name from ``$HYPOTHESIS_PROFILE``:

* ``default`` -- the fast PR-gate counts;
* ``nightly`` -- 10x examples, run by the scheduled CI job.
"""

from __future__ import annotations

import os
import time

from hypothesis import settings

_PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "default")
_SCALE = {"default": 1, "nightly": 10}

settings.register_profile("default", deadline=None)
settings.register_profile("nightly", deadline=None)
settings.load_profile(_PROFILE)


def await_condition(predicate, timeout: float = 5.0) -> None:
    """Poll ``predicate`` until it holds; fail after ``timeout`` s."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(0.001)


def hypothesis_examples(base: int) -> int:
    """``base`` scaled by the active profile's example multiplier."""
    return base * _SCALE.get(_PROFILE, 1)


#: Default seeds for deterministic fault-injection tests; CI's chaos
#: job runs one seed per matrix leg via ``$ZIPG_CHAOS_SEED``.
CHAOS_SEEDS = (101, 211, 307)


def chaos_seeds() -> list:
    """Seeds the fault-injection suites parametrize over: the single
    pinned ``$ZIPG_CHAOS_SEED`` when set (CI chaos matrix), else all
    of :data:`CHAOS_SEEDS`."""
    pinned = os.environ.get("ZIPG_CHAOS_SEED")
    if pinned is not None:
        return [int(pinned)]
    return list(CHAOS_SEEDS)


#: Transport backend the cluster suites dispatch through.  The default
#: in-process backend is byte-identical to pre-serving-layer dispatch;
#: CI's socket-transport job sets ``ZIPG_TRANSPORT=socket`` to run the
#: same suites over real loopback RPC (framing, codec, pooling, rpc.*
#: chaos sites).
def socket_transport_enabled() -> bool:
    return os.environ.get("ZIPG_TRANSPORT") == "socket"
