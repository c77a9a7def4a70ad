"""The ORM session: :class:`~repro.engine.OrmSession` and the values it
publishes, re-exported under the module name applications import."""

from repro.engine import Epoch as Epoch
from repro.engine import JournalEntry as JournalEntry
from repro.engine import OrmSession as OrmSession
