"""Fixture: the frozen-dataclass back door used only where sanctioned."""


class FrozenThing:
    def __post_init__(self):
        object.__setattr__(self, "value", 1)  # sanctioned back door
