"""Fixture: RPL203 fires on the frozen-dataclass back door.

``thaw`` writes through ``object.__setattr__`` outside
``__post_init__``, silently defeating the immutability other threads
rely on.
"""


class FrozenThing:
    def thaw(self):
        object.__setattr__(self, "value", 1)  # RPL203: outside __post_init__
