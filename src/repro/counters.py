"""The one base of the run's counter dataclasses.

Every layer that counts (the machine connection stack, the probe cache,
the scheduler, mutation analysis, extraction) keeps its counters in a
dataclass deriving from :class:`Counters`, which gives all of them the
same four operations: ``bump`` moves counters that several threads
share, ``copy`` freezes them into a report, ``merge`` folds one set
into another and ``as_dict`` renders them.  ``as_dict`` is the only
renderer of a counter set: the run summary, ``<target>.summary.json``,
the service's ``/stats`` and the cache's ``gc-stats.json`` all print
what it returns.  The base adds no instance attribute (the lock and the
``DERIVED`` names belong to the class), so the portable checkpoint
codec, which encodes instance attributes, still sees exactly the
dataclass fields.
"""

from __future__ import annotations

import copy
import threading
from dataclasses import fields


def rounded(value):
    """*value* with every float, also inside dicts and lists, rounded
    to 4 places: the reports' one rounding rule."""
    if isinstance(value, float):
        return round(value, 4)
    if isinstance(value, dict):
        return {key: rounded(item) for key, item in value.items()}
    if isinstance(value, list):
        return [rounded(item) for item in value]
    return value


class Counters:
    """Base of a ``@dataclass`` of counters.

    The counter rule of a connection stack: each layer creates its
    counters once and shares the object with every clone of itself, so
    the primary connection's counters already cover the whole pool.
    Shared counters move only through :meth:`bump`, which holds a lock
    common to all instances of the class; counters one thread owns may
    be incremented directly.
    """

    #: derived properties :meth:`as_dict` renders after the fields
    DERIVED = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._lock = threading.Lock()

    def bump(self, **deltas):
        """Add each keyword's value to the counter of that name, as one
        atomic step with respect to every other bump."""
        with self._lock:
            for name, delta in deltas.items():
                setattr(self, name, getattr(self, name) + delta)

    def copy(self):
        """An independent copy; list and dict fields are copied too."""
        with self._lock:
            return copy.deepcopy(self)

    def merge(self, other):
        """Add *other*'s numeric counters into this one; returns self."""
        self.bump(
            **{
                f.name: getattr(other, f.name)
                for f in fields(self)
                if type(getattr(self, f.name)) in (int, float)
            }
        )
        return self

    def as_dict(self):
        """Every field, then each ``DERIVED`` property, as a new
        JSON-ready dict with floats :func:`rounded`."""
        with self._lock:
            out = {f.name: getattr(self, f.name) for f in fields(self)}
            out.update((name, getattr(self, name)) for name in self.DERIVED)
            return rounded(out)
