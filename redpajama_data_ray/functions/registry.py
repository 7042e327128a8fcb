"""User-extension signal registry (SURVEY.md §2.10).

The reference auto-discovers any ``RPS_*`` class subclassing RPSBase via
module reflection and adds it to both the execution list and the output
schema (/root/reference/app/src/utilities/register/registry_utils.py:13-37).
The rebuild's equivalent: register a vectorized batch-level signal
function with a declared Arrow dtype; the annotation stages append every
registered signal column, so the registry is the single source of truth
for execution AND schema.

Contract: ``fn(texts: list[str]) -> list`` returning one value per text
(None allowed for not-applicable), dtype declared at registration::

    @register_signal("rps_doc_exclaim_count", pa.float64())
    def exclaim(texts):
        return [float(t.count("!")) for t in texts]

Names must start with ``rps_`` (mirroring base.py:15-23's prefix check).
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple

import pyarrow as pa


class RegisteredSignal(NamedTuple):
    name: str
    fn: Callable[[List[str]], list]
    dtype: "pa.DataType"


_REGISTRY: Dict[str, RegisteredSignal] = {}


def register_signal(name: str, dtype: "pa.DataType"):
    """Decorator registering a batch signal function under ``name``."""
    if not name.startswith("rps_"):
        raise ValueError(
            f"signal name {name!r} must start with 'rps_' "
            "(reference contract: base.py:15-23)"
        )

    def deco(fn):
        _REGISTRY[name] = RegisteredSignal(name, fn, dtype)
        return fn

    return deco


def unregister_signal(name: str) -> None:
    _REGISTRY.pop(name, None)


def registered_signals() -> Dict[str, RegisteredSignal]:
    return dict(_REGISTRY)


def registry_schema() -> List[tuple]:
    """(name, dtype) pairs — the schema contribution of the registry."""
    return [(s.name, s.dtype) for s in _REGISTRY.values()]
