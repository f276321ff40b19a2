"""TSan-style shadow instrumentation for shared Python objects.

:class:`Sanitizer` rewrites a watched object's ``__class__`` to a
generated shadow subclass whose ``__getattribute__``/``__setattr__``
record ``(thread, field, lockset)`` access tuples.  Locks stored on the
object (``threading.Lock``/``RLock`` attributes, or any attribute named
in ``lock_attrs``) are replaced with instrumented wrappers that keep a
per-thread held-set, so every recorded access knows exactly which locks
the accessing thread held.

A data race, reported by :meth:`Sanitizer.races`, is a pair of accesses
to the same field from two different threads where at least one access
is a write and the two locksets are disjoint — the classic happens-
before-free definition specialised to lock discipline, which is the
only synchronisation idiom this codebase uses.

The instrumented locks also keep each thread's held-lock stack and one
lock-order graph per sanitizer (the Linux kernel's lockdep idea), so
:meth:`Sanitizer.lock_reports` names three more lock-discipline bugs,
each found at the acquisition or call that commits it:

* an acquisition whose (held, acquired) pair closes a cycle in the
  graph — a deadlock waiting for the wrong interleaving, even if this
  run did not deadlock;
* a plain ``Lock`` re-acquired by the thread that holds it, reported
  (and raised as :class:`SelfDeadlockError`) before the acquire would
  block forever; ``RLock`` re-entry is silent;
* a blocking call (``time.sleep``, ``os.fsync``, ``open``) made while
  holding an instrumented lock, which stalls every thread waiting on
  it; :func:`instrument` wraps those calls for the length of its block.

Recording is field-granular and deduplicated by ``(thread, kind,
lockset)``, so memory stays bounded no matter how hot the access loop
is; values are never copied or compared, which keeps same-seed runs
bit-identical with the sanitizer enabled.
"""

from __future__ import annotations

import builtins
import functools
import io
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Set,
    Tuple,
)

#: The one non-reentrant lock type: re-acquiring it on the holding
#: thread deadlocks.
_PLAIN_LOCK = type(threading.Lock())

#: Lock types eligible for automatic instrumentation.
_LOCK_TYPES = (
    _PLAIN_LOCK,
    type(threading.RLock()),
)

#: Calls that block the calling thread, as (module, attribute, label).
#: Audit hooks see ``open`` but not ``time.sleep`` or ``os.fsync``, so
#: :func:`instrument` wraps the module attributes instead.
_BLOCKING_CALLS: Tuple[Tuple[object, str, str], ...] = (
    (time, "sleep", "time.sleep"),
    (os, "fsync", "os.fsync"),
    (builtins, "open", "open"),
    (io, "open", "open"),
)


@dataclass(frozen=True)
class AccessRecord:
    """One deduplicated access pattern to a watched field."""

    obj_name: str
    fld: str
    thread: str
    kind: str  # "read" | "write"
    lockset: FrozenSet[str]
    count: int = 1

    def describe(self) -> str:
        held = ", ".join(sorted(self.lockset)) or "no locks"
        return (
            f"{self.kind} of {self.obj_name}.{self.fld} on thread "
            f"{self.thread} holding {held} (x{self.count})"
        )


@dataclass(frozen=True)
class RaceReport:
    """Two conflicting accesses with no common lock."""

    obj_name: str
    fld: str
    first: AccessRecord
    second: AccessRecord

    def describe(self) -> str:
        return (
            f"data race on {self.obj_name}.{self.fld}: "
            f"[{self.first.describe()}] vs [{self.second.describe()}]"
        )


@dataclass(frozen=True)
class LockReport:
    """One lock-discipline violation seen at acquisition or call time.

    ``kind`` is ``"cycle"`` (``locks`` runs round the cycle, the last
    one ordered before the first), ``"self-deadlock"`` (``locks`` is
    the re-acquired lock) or ``"blocking"`` (``locks`` is what the
    thread held when it made ``call``).
    """

    kind: str
    locks: Tuple[str, ...]
    thread: str
    call: str = ""

    def describe(self) -> str:
        if self.kind == "cycle":
            chain = " -> ".join(self.locks + self.locks[:1])
            return f"lock-order cycle {chain}, closed on thread {self.thread}"
        if self.kind == "self-deadlock":
            return (
                f"self-deadlock: thread {self.thread} re-acquired the "
                f"non-reentrant {self.locks[0]} it already holds"
            )
        return (
            f"blocking call {self.call} on thread {self.thread} holding "
            f"{', '.join(self.locks)}"
        )


class SelfDeadlockError(RuntimeError):
    """A thread asked for a plain lock it already holds."""


class _InstrumentedLock:
    """Delegating lock wrapper that maintains the per-thread held stack.

    Reentrant acquisitions (RLocks re-taken by self-guarding helpers)
    are depth-counted per thread: the token leaves the held stack only
    when the outermost hold releases, so code running between an inner
    release and the outer one is still seen as holding the lock.  An
    outermost acquisition first feeds the sanitizer's lock-order graph.
    """

    def __init__(self, sanitizer: "Sanitizer", token: str, inner: Any) -> None:
        self._sanitizer = sanitizer
        self._token = token
        self._inner = inner
        self._depth = threading.local()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        depth = getattr(self._depth, "n", 0)
        if depth == 0:
            self._sanitizer._note_acquire(self._token)
        elif type(self._inner) is _PLAIN_LOCK and blocking and timeout < 0:
            self._sanitizer._report_self_deadlock(self._token)
            raise SelfDeadlockError(
                f"{self._token} is already held by this thread"
            )
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._depth.n = depth + 1
            if depth == 0:
                self._sanitizer._held().append(self._token)
        return bool(acquired)

    def release(self) -> None:
        self._inner.release()
        depth = getattr(self._depth, "n", 1) - 1
        self._depth.n = depth
        if depth <= 0:
            held = self._sanitizer._held()
            if self._token in held:  # at most once: pushed at depth 0
                held.remove(self._token)

    def locked(self) -> bool:
        return bool(self._inner.locked())

    def __enter__(self) -> "_InstrumentedLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class _ShadowMapping:
    """Mapping proxy that records item-level mutations by reference.

    Wrapping is by reference: every operation lands on the original
    inner mapping, so unwatched aliases stay coherent and ``restore()``
    only has to put the original object back on the attribute.  The
    proxy delegates the full :class:`dict`/``OrderedDict`` surface
    (including ``move_to_end``/``popitem(last=False)``), recording each
    operation against the synthetic field ``"<attr>[]"`` so container
    races are distinguishable from rebinding races on the attribute
    itself.
    """

    __slots__ = ("_sanitizer", "_obj_name", "_fld", "_inner")

    def __init__(
        self, sanitizer: "Sanitizer", obj_name: str, fld: str, inner: Any
    ) -> None:
        self._sanitizer = sanitizer
        self._obj_name = obj_name
        self._fld = fld
        self._inner = inner

    def _note(self, kind: str) -> None:
        if self._sanitizer._recording():
            self._sanitizer._record(self._obj_name, self._fld, kind)

    # -- reads ----------------------------------------------------------
    def __getitem__(self, key: Any) -> Any:
        self._note("read")
        return self._inner[key]

    def __contains__(self, key: Any) -> bool:
        self._note("read")
        return key in self._inner

    def __len__(self) -> int:
        self._note("read")
        return len(self._inner)

    def __iter__(self) -> Iterator[Any]:
        self._note("read")
        return iter(self._inner)

    def __bool__(self) -> bool:
        self._note("read")
        return bool(self._inner)

    def get(self, key: Any, default: Any = None) -> Any:
        self._note("read")
        return self._inner.get(key, default)

    def keys(self) -> Any:
        self._note("read")
        return self._inner.keys()

    def values(self) -> Any:
        self._note("read")
        return self._inner.values()

    def items(self) -> Any:
        self._note("read")
        return self._inner.items()

    def __repr__(self) -> str:
        return f"_ShadowMapping({self._inner!r})"

    # -- writes ---------------------------------------------------------
    def __setitem__(self, key: Any, value: Any) -> None:
        self._note("write")
        self._inner[key] = value

    def __delitem__(self, key: Any) -> None:
        self._note("write")
        del self._inner[key]

    def pop(self, *args: Any, **kwargs: Any) -> Any:
        self._note("write")
        return self._inner.pop(*args, **kwargs)

    def popitem(self, *args: Any, **kwargs: Any) -> Any:
        self._note("write")
        return self._inner.popitem(*args, **kwargs)

    def setdefault(self, key: Any, default: Any = None) -> Any:
        self._note("write")
        return self._inner.setdefault(key, default)

    def update(self, *args: Any, **kwargs: Any) -> None:
        self._note("write")
        self._inner.update(*args, **kwargs)

    def clear(self) -> None:
        self._note("write")
        self._inner.clear()

    def move_to_end(self, *args: Any, **kwargs: Any) -> None:
        self._note("write")
        self._inner.move_to_end(*args, **kwargs)


class _ShadowSequence:
    """Sequence/set proxy: the list/set/deque sibling of `_ShadowMapping`.

    Same by-reference wrapping contract: every operation lands on the
    original inner container and records against the synthetic field
    ``"<attr>[]"``.  Covers the shared surface of :class:`list`,
    :class:`set`, and :class:`collections.deque`; methods a given inner
    type lacks (``add`` on a list, ``append`` on a set) raise the
    inner type's own :class:`AttributeError` at call time, exactly as
    the unwrapped container would.
    """

    __slots__ = ("_sanitizer", "_obj_name", "_fld", "_inner")

    def __init__(
        self, sanitizer: "Sanitizer", obj_name: str, fld: str, inner: Any
    ) -> None:
        self._sanitizer = sanitizer
        self._obj_name = obj_name
        self._fld = fld
        self._inner = inner

    def _note(self, kind: str) -> None:
        if self._sanitizer._recording():
            self._sanitizer._record(self._obj_name, self._fld, kind)

    def _delegate(self, method: str, kind: str, *args: Any, **kwargs: Any):
        bound = getattr(self._inner, method)  # AttributeError like inner
        self._note(kind)
        return bound(*args, **kwargs)

    # -- reads ----------------------------------------------------------
    def __getitem__(self, index: Any) -> Any:
        self._note("read")
        return self._inner[index]

    def __contains__(self, value: Any) -> bool:
        self._note("read")
        return value in self._inner

    def __len__(self) -> int:
        self._note("read")
        return len(self._inner)

    def __iter__(self) -> Iterator[Any]:
        self._note("read")
        return iter(self._inner)

    def __bool__(self) -> bool:
        self._note("read")
        return bool(self._inner)

    def index(self, *args: Any) -> int:
        return self._delegate("index", "read", *args)

    def count(self, value: Any) -> int:
        return self._delegate("count", "read", value)

    def copy(self) -> Any:
        return self._delegate("copy", "read")

    def __or__(self, other: Any) -> Any:
        self._note("read")
        return self._inner | other

    def __ror__(self, other: Any) -> Any:
        self._note("read")
        return other | self._inner

    def __and__(self, other: Any) -> Any:
        self._note("read")
        return self._inner & other

    def __rand__(self, other: Any) -> Any:
        self._note("read")
        return other & self._inner

    def __sub__(self, other: Any) -> Any:
        self._note("read")
        return self._inner - other

    def __rsub__(self, other: Any) -> Any:
        self._note("read")
        return other - self._inner

    def __xor__(self, other: Any) -> Any:
        self._note("read")
        return self._inner ^ other

    def __rxor__(self, other: Any) -> Any:
        self._note("read")
        return other ^ self._inner

    def __repr__(self) -> str:
        return f"_ShadowSequence({self._inner!r})"

    # -- writes ---------------------------------------------------------
    def __setitem__(self, index: Any, value: Any) -> None:
        self._note("write")
        self._inner[index] = value

    def __delitem__(self, index: Any) -> None:
        self._note("write")
        del self._inner[index]

    def append(self, value: Any) -> None:
        self._delegate("append", "write", value)

    def appendleft(self, value: Any) -> None:
        self._delegate("appendleft", "write", value)

    def extend(self, values: Any) -> None:
        self._delegate("extend", "write", values)

    def insert(self, index: int, value: Any) -> None:
        self._delegate("insert", "write", index, value)

    def add(self, value: Any) -> None:
        self._delegate("add", "write", value)

    def update(self, *others: Any) -> None:
        self._delegate("update", "write", *others)

    def pop(self, *args: Any) -> Any:
        return self._delegate("pop", "write", *args)

    def popleft(self) -> Any:
        return self._delegate("popleft", "write")

    def remove(self, value: Any) -> None:
        self._delegate("remove", "write", value)

    def discard(self, value: Any) -> None:
        self._delegate("discard", "write", value)

    def clear(self) -> None:
        self._delegate("clear", "write")

    def sort(self, **kwargs: Any) -> None:
        self._delegate("sort", "write", **kwargs)

    def reverse(self) -> None:
        self._delegate("reverse", "write")


def _foreign_private(cls: type, attr_name: str) -> bool:
    """Whether ``attr_name`` is a name-mangled private of a non-repro
    base class: library internals synchronised by means a lockset model
    cannot see (socketserver's shutdown flag rides a ``threading.Event``).
    """
    owner, sep, _ = attr_name[1:].partition("__")
    return bool(sep) and attr_name.startswith("_") and any(
        base.__name__ == owner and not base.__module__.startswith("repro")
        for base in cls.__mro__
    )


class Sanitizer:
    """Records cross-thread accesses on watched objects, finds races."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tls = threading.local()
        #: (obj_name, field) -> {(thread, kind, lockset) -> count}
        self._records: Dict[
            Tuple[str, str], Dict[Tuple[str, str, FrozenSet[str]], int]
        ] = {}
        #: restore info: (object, original class, {attr: original lock})
        self._watched: List[Tuple[object, type, Dict[str, object]]] = []
        self._names: Dict[int, str] = {}
        #: lock-order graph: lock -> locks first acquired while it was held
        self._order: Dict[str, Set[str]] = {}
        self._lock_reports: Dict[Tuple[str, Tuple[str, ...], str], LockReport] = {}
        #: originals of the wrapped blocking calls, while wrapped
        self._unwrapped: List[Tuple[object, str, Callable[..., Any]]] = []

    # -- thread-local state ---------------------------------------------
    def _held(self) -> List[str]:
        """This thread's held instrumented locks, outermost first."""
        held = getattr(self._tls, "held", None)
        if held is None:
            held = []
            self._tls.held = held
        return held

    def _recording(self) -> bool:
        return not getattr(self._tls, "busy", False)

    # -- recording -------------------------------------------------------
    def _record(self, obj_name: str, fld: str, kind: str) -> None:
        self._tls.busy = True
        try:
            key = (
                threading.current_thread().name,
                kind,
                frozenset(self._held()),
            )
            with self._lock:
                per_field = self._records.setdefault((obj_name, fld), {})
                per_field[key] = per_field.get(key, 0) + 1
        finally:
            self._tls.busy = False

    # -- lock order -------------------------------------------------------
    def _note_acquire(self, token: str) -> None:
        """Add (held, ``token``) edges; report each one that closes a cycle."""
        held = self._held()
        if not held:
            return
        thread = threading.current_thread().name
        with self._lock:
            for prior in dict.fromkeys(held):
                edges = self._order.setdefault(prior, set())
                if token in edges:
                    continue
                back = self._order_path(token, prior)
                edges.add(token)
                if back is not None:
                    self._add_report(LockReport(
                        "cycle", (prior, *back[:-1]), thread
                    ))

    def _order_path(self, start: str, goal: str) -> Optional[List[str]]:
        """A path ``start`` ->* ``goal`` in the order graph, or None."""
        parents: Dict[str, str] = {start: start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            if node == goal:
                path = [node]
                while node != start:
                    node = parents[node]
                    path.append(node)
                return path[::-1]
            for nxt in sorted(self._order.get(node, ())):
                if nxt not in parents:
                    parents[nxt] = node
                    frontier.append(nxt)
        return None

    def _report_self_deadlock(self, token: str) -> None:
        with self._lock:
            self._add_report(LockReport(
                "self-deadlock", (token,), threading.current_thread().name
            ))

    def _add_report(self, report: LockReport) -> None:
        self._lock_reports.setdefault(
            (report.kind, report.locks, report.call), report
        )

    # -- blocking calls ---------------------------------------------------
    def _wrap_blocking_calls(self) -> None:
        """Report every blocking call made under an instrumented lock
        until :meth:`_unwrap_blocking_calls`."""
        for module, attr, label in _BLOCKING_CALLS:
            original = getattr(module, attr)
            self._unwrapped.append((module, attr, original))
            setattr(module, attr, self._blocking_wrapper(label, original))

    def _unwrap_blocking_calls(self) -> None:
        while self._unwrapped:
            module, attr, original = self._unwrapped.pop()
            setattr(module, attr, original)

    def _blocking_wrapper(
        self, label: str, call: Callable[..., Any]
    ) -> Callable[..., Any]:
        @functools.wraps(call)
        def blocking(*args: Any, **kwargs: Any) -> Any:
            held = getattr(self._tls, "held", None)
            if held:
                report = LockReport(
                    "blocking", tuple(held),
                    threading.current_thread().name, label,
                )
                with self._lock:
                    self._add_report(report)
            return call(*args, **kwargs)

        return blocking

    # -- watching --------------------------------------------------------
    def watch(
        self,
        obj: object,
        name: Optional[str] = None,
        lock_attrs: Sequence[str] = (),
        container_attrs: Sequence[str] = (),
    ) -> object:
        """Shadow-instrument ``obj`` in place and return it.

        ``lock_attrs`` names lock-holding attributes to instrument in
        addition to the auto-detected ``threading.Lock``/``RLock``
        instance attributes.  ``container_attrs`` names container
        attributes (dict/``OrderedDict`` via :class:`_ShadowMapping`;
        list/set/``deque`` via :class:`_ShadowSequence`) whose
        *item-level* mutations should be tracked too — attribute
        instrumentation alone only sees the attribute read that fetches
        the container, not the ``d[k] = v`` or ``lst.append(v)`` that
        races.  The default name carries the object id
        so records from distinct same-class instances never merge (which
        would fabricate cross-thread pairs).
        """
        obj_name = (
            name if name is not None else f"{type(obj).__name__}@{id(obj):x}"
        )
        cls = type(obj)
        if cls.__name__.startswith("_Sanitized"):
            return obj  # already watched
        instance_dict = object.__getattribute__(obj, "__dict__")
        originals: Dict[str, object] = {}
        for attr, value in list(instance_dict.items()):
            if attr in lock_attrs or isinstance(value, _LOCK_TYPES):
                originals[attr] = value
                instance_dict[attr] = _InstrumentedLock(
                    self, f"{obj_name}.{attr}", value
                )
        for attr in container_attrs:
            value = instance_dict.get(attr)
            if value is None or isinstance(
                value, (_ShadowMapping, _ShadowSequence)
            ):
                continue
            if isinstance(value, dict):
                proxy_cls: type = _ShadowMapping
            elif isinstance(value, (list, set, deque)):
                proxy_cls = _ShadowSequence
            else:
                continue  # unknown container kind: leave unwrapped
            originals[attr] = value
            instance_dict[attr] = proxy_cls(
                self, obj_name, f"{attr}[]", value
            )
        shadow = self._shadow_class(cls, obj_name)
        # Not a frozen-field write: swapping __class__ is how the shadow
        # instrumentation attaches, and must bypass any custom setattr.
        object.__setattr__(obj, "__class__", shadow)  # repro-lint: disable=RPL203
        self._names[id(obj)] = obj_name
        self._watched.append((obj, cls, originals))
        return obj

    def _shadow_class(self, cls: type, obj_name: str) -> type:
        sanitizer = self

        class _Shadowed(cls):  # type: ignore[misc, valid-type]
            def __getattribute__(self, attr_name: str) -> Any:
                value = super().__getattribute__(attr_name)
                if sanitizer._should_record(self, attr_name, value):
                    sanitizer._record(
                        sanitizer._names.get(id(self), obj_name),
                        attr_name,
                        "read",
                    )
                return value

            def __setattr__(self, attr_name: str, value: Any) -> None:
                super().__setattr__(attr_name, value)
                if sanitizer._should_record(self, attr_name, value):
                    sanitizer._record(
                        sanitizer._names.get(id(self), obj_name),
                        attr_name,
                        "write",
                    )

        _Shadowed.__name__ = f"_Sanitized{cls.__name__}"
        _Shadowed.__qualname__ = f"_Sanitized{cls.__qualname__}"
        return _Shadowed

    def _should_record(self, obj: object, attr_name: str, value: Any) -> bool:
        if attr_name.startswith("__") or not self._recording():
            return False
        if isinstance(value, _InstrumentedLock):
            return False  # lock objects are the guard, not the data
        # Only data attributes: class-level methods/descriptors are
        # immutable from the races' point of view and would drown the
        # report in noise.
        if attr_name not in object.__getattribute__(obj, "__dict__"):
            return False
        return not _foreign_private(type(obj), attr_name)

    def restore(self) -> None:
        """Undo every class swap and lock replacement."""
        while self._watched:
            obj, cls, originals = self._watched.pop()
            # Mirror of the watch()-time swap; restores the real class.
            object.__setattr__(obj, "__class__", cls)  # repro-lint: disable=RPL203
            instance_dict = object.__getattribute__(obj, "__dict__")
            for attr, original in originals.items():
                instance_dict[attr] = original

    # -- reporting -------------------------------------------------------
    def accesses(self) -> List[AccessRecord]:
        with self._lock:
            return [
                AccessRecord(obj_name, fld, thread, kind, lockset, count)
                for (obj_name, fld), per_field in sorted(self._records.items())
                for (thread, kind, lockset), count in sorted(
                    per_field.items(), key=lambda kv: (kv[0][0], kv[0][1])
                )
            ]

    def races(self) -> List[RaceReport]:
        """Every conflicting unsynchronised access pair."""
        reports: List[RaceReport] = []
        by_field: Dict[Tuple[str, str], List[AccessRecord]] = {}
        for record in self.accesses():
            by_field.setdefault((record.obj_name, record.fld), []).append(
                record
            )
        for (obj_name, fld), records in by_field.items():
            for i, first in enumerate(records):
                for second in records[i + 1:]:
                    if first.thread == second.thread:
                        continue
                    if first.kind != "write" and second.kind != "write":
                        continue
                    if first.lockset & second.lockset:
                        continue
                    reports.append(RaceReport(obj_name, fld, first, second))
        return reports

    def lock_reports(self) -> List[LockReport]:
        """Every lock-order cycle, self-deadlock and blocking-under-lock
        call seen so far, in a stable order."""
        with self._lock:
            return [self._lock_reports[key] for key in sorted(self._lock_reports)]


@contextmanager
def instrument(
    *objects: object,
    names: Sequence[Optional[str]] = (),
    lock_attrs: Sequence[str] = (),
    container_attrs: Sequence[str] = (),
) -> Iterator[Sanitizer]:
    """Watch ``objects`` for the duration of the block.

    Also activates the global hook registry (:mod:`.hooks`), so shared
    objects constructed *inside* the block — registries, caches, node
    state — self-register via their no-op-by-default hooks, and wraps
    the blocking calls so one made under a watched lock is reported.
    """
    from . import hooks

    sanitizer = Sanitizer()
    hooks.activate(sanitizer)
    sanitizer._wrap_blocking_calls()
    try:
        for i, obj in enumerate(objects):
            name = names[i] if i < len(names) else None
            sanitizer.watch(
                obj,
                name=name,
                lock_attrs=lock_attrs,
                container_attrs=container_attrs,
            )
        yield sanitizer
    finally:
        sanitizer._unwrap_blocking_calls()
        hooks.deactivate()
        sanitizer.restore()
