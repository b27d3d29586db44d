"""Name → value registries behind the pluggable backend surfaces.

Estimation methods and store backends used to be hardcoded tuples
(``ESTIMATION_METHODS`` / ``STORE_BACKENDS``) with if/elif dispatch next to
each.  A :class:`Registry`
replaces both halves: the registry *is* the dispatch table, and a
:class:`RegistryView` is a live, tuple-like window onto the registered names
that keeps every historical use of the old tuples working (``in`` checks,
``list(...)`` for CLI choices, f-string interpolation in error messages) while
new registrations show up everywhere at once.

Registration is additive and explicit: :meth:`Registry.register` refuses to
overwrite silently (pass ``replace=True`` to shadow a builtin), and
:meth:`Registry.unregister` exists so plugins and tests can clean up after
themselves.  The public registration helpers live in
:mod:`repro.api.registry` (``register_method`` / ``register_store_backend``).
"""

from __future__ import annotations

import threading
from typing import Dict, Generic, Iterator, Sequence, Tuple, TypeVar

from repro.errors import ConfigurationError

_ValueT = TypeVar("_ValueT")


class Registry(Generic[_ValueT]):
    """A locked, ordered name → value map with tuple-compatible name views.

    ``kind`` is the human-readable noun used in error messages (for example
    ``"store backend"``), chosen so registry errors render exactly like the
    messages the hardcoded tuples used to produce.
    """

    def __init__(self, kind: str) -> None:
        self._kind = kind
        self._entries: Dict[str, _ValueT] = {}
        self._lock = threading.Lock()

    @property
    def kind(self) -> str:
        """The noun this registry's error messages use for its entries."""
        return self._kind

    def register(self, name: str, value: _ValueT, *, replace: bool = False) -> _ValueT:
        """Register ``value`` under ``name``; refuses silent overwrites."""
        if not isinstance(name, str) or not name:
            raise ConfigurationError(f"{self._kind} name must be a non-empty string, got {name!r}")
        with self._lock:
            if name in self._entries and not replace:
                raise ConfigurationError(
                    f"{self._kind} {name!r} is already registered; pass replace=True to override it"
                )
            self._entries[name] = value
        return value

    def unregister(self, name: str) -> _ValueT:
        """Remove (and return) the entry registered under ``name``."""
        with self._lock:
            if name in self._entries:
                return self._entries.pop(name)
        # Raise outside the lock: names() re-acquires it for the message.
        raise ConfigurationError(f"unknown {self._kind} {name!r}; expected one of {self.names()}")

    def get(self, name: str) -> _ValueT:
        """The value registered under ``name``; raises on unknown names."""
        with self._lock:
            try:
                return self._entries[name]
            except KeyError:
                pass
        raise ConfigurationError(f"unknown {self._kind} {name!r}; expected one of {self.names()}")

    def names(self) -> Tuple[str, ...]:
        """Snapshot of the registered names, in registration order."""
        with self._lock:
            return tuple(self._entries)

    def view(self) -> "RegistryView":
        """A live, tuple-like view of the registered names."""
        return RegistryView(self)

    def __contains__(self, name: object) -> bool:
        with self._lock:
            return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        return f"Registry({self._kind!r}, names={self.names()!r})"


class RegistryView(Sequence[str]):
    """A live window onto a registry's names that behaves like a tuple.

    Supports everything the old hardcoded name tuples were used for —
    membership tests, iteration (``list(...)`` for ``argparse`` choices),
    indexing, equality against tuples/lists, and tuple-style ``repr`` inside
    error messages — while always reflecting the registry's current contents.
    """

    def __init__(self, registry: Registry) -> None:
        self._registry = registry

    def __iter__(self) -> Iterator[str]:
        return iter(self._registry.names())

    def __len__(self) -> int:
        return len(self._registry)

    def __getitem__(self, index):
        return self._registry.names()[index]

    def __contains__(self, name: object) -> bool:
        return name in self._registry

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RegistryView):
            return self._registry.names() == other._registry.names()
        if isinstance(other, (tuple, list)):
            return self._registry.names() == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._registry.names())

    def __repr__(self) -> str:
        return repr(self._registry.names())
