"""The one base of the run's counter dataclasses.

Every layer that counts (the machine connection stack, the probe cache,
the scheduler, mutation analysis, extraction) keeps its counters in a
dataclass deriving from :class:`Counters`, which gives all of them the
same three operations: ``bump`` moves counters that several threads
share, ``copy`` freezes them into a report and ``merge`` folds one set
into another.  The base adds no instance attribute (the lock belongs to
the class), so the portable checkpoint codec, which encodes instance
attributes, still sees exactly the dataclass fields.
"""

from __future__ import annotations

import copy
import threading
from dataclasses import fields


class Counters:
    """Base of a ``@dataclass`` of counters.

    The counter rule of a connection stack: each layer creates its
    counters once and shares the object with every clone of itself, so
    the primary connection's counters already cover the whole pool.
    Shared counters move only through :meth:`bump`, which holds a lock
    common to all instances of the class; counters one thread owns may
    be incremented directly.
    """

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
