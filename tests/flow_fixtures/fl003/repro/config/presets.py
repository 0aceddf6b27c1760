"""FL003 fixture globals: the owning module may write its own table."""

PRESETS = {}


def register(name, value):
    PRESETS[name] = value
