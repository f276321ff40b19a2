"""Registration hooks production code calls at object-creation time.

Shared-state owners (the metric registry, the observation store, the
HTTP control plane's gateway) call :func:`register_shared` when they
come to life.  With no sanitizer active the call is a single ``None``
check — effectively free — so the hooks stay in production code
permanently; under ``repro-san`` (or :func:`..shadow.instrument`) the
active :class:`~.shadow.Sanitizer` shadow-wraps each registrant.
"""

from __future__ import annotations

import threading
from typing import Optional, Sequence

from .shadow import Sanitizer

_ACTIVE: Optional[Sanitizer] = None
_LOCK = threading.Lock()


def active_sanitizer() -> Optional[Sanitizer]:
    """The currently installed sanitizer, if any."""
    return _ACTIVE


def activate(sanitizer: Sanitizer) -> None:
    """Install ``sanitizer`` as the target of :func:`register_shared`."""
    global _ACTIVE
    with _LOCK:
        if _ACTIVE is not None and _ACTIVE is not sanitizer:
            raise RuntimeError("another sanitizer is already active")
        _ACTIVE = sanitizer


def deactivate() -> None:
    """Remove the active sanitizer (idempotent)."""
    global _ACTIVE
    with _LOCK:
        _ACTIVE = None


def register_shared(
    obj: object,
    name: Optional[str] = None,
    lock_attrs: Sequence[str] = (),
    container_attrs: Sequence[str] = (),
) -> object:
    """Watch ``obj`` if a sanitizer is active; no-op (and ~free) if not.

    ``container_attrs`` opts named container attributes (dicts, lists,
    sets, deques) into item-level mutation tracking (see
    :meth:`~.shadow.Sanitizer.watch`).
    """
    sanitizer = _ACTIVE
    if sanitizer is None:
        return obj
    return sanitizer.watch(
        obj, name=name, lock_attrs=lock_attrs, container_attrs=container_attrs
    )
