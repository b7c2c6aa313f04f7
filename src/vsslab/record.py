"""Immutable records: the part of dataclasses this library uses.

@record reads a class's annotated fields in order; a class attribute
of the same name is that field's default. It adds an __init__ that
takes the fields by position or keyword and then runs __post_init__
when the class defines one, equality between records of the same class
only, a hash that agrees with it, a repr, and assignment that raises.
Nothing is compiled from source, so defining a record costs
microseconds and imports no standard-library module.
"""

from .errors import ConfigInvalid

_set_dict = object.__setattr__


def _eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return self.__dict__ == other.__dict__


def _frozen(self, name, value=None):
    raise AttributeError(f"{type(self).__name__} is immutable; cannot change {name!r}")


def coerce_enum(obj, name, enum, error, noun):
    """For a __post_init__: replace field name of obj by the member of
    enum its value names, a member or its plain value alike; raise
    error("unknown NOUN VALUE") when no member has that value."""
    value = obj.__dict__[name]
    try:
        obj.__dict__[name] = enum(value)
    except ValueError:
        raise error(f"unknown {noun} {value!r}") from None


def check_int(value, noun):
    """value if it is an int itself, not a bool or float, as a transcript's
    decoder reads it; else ConfigInvalid("NOUN must be an integer ...")."""
    if type(value) is not int:
        raise ConfigInvalid(f"{noun} must be an integer, got {value!r}")
    return value


def record(cls):
    fields = tuple(cls.__annotations__)
    names = frozenset(fields)
    count = len(fields)
    defaults = {name: cls.__dict__[name] for name in fields if name in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)
    usage = f"{cls.__name__}() takes the fields {', '.join(fields)}, each once"

    def __init__(self, *args, **values):
        if args:
            # a positional past the last field, or a field given twice,
            # leaves fewer entries than arguments
            given = len(args) + len(values)
            values.update(zip(fields, args))
            if len(values) != given:
                raise TypeError(usage)
        if len(values) != count:
            values = {**defaults, **values}
            if len(values) != count:
                raise TypeError(usage)
        if not names.issuperset(values):
            raise TypeError(usage)
        # the argument dict becomes the instance dict: no copy
        _set_dict(self, "__dict__", values)
        if post_init is not None:
            post_init(self)

    def __hash__(self):
        return hash(tuple(self.__dict__[name] for name in fields))

    def __repr__(self):
        inner = ", ".join(f"{name}={self.__dict__[name]!r}" for name in fields)
        return f"{cls.__qualname__}({inner})"

    cls.__init__ = __init__
    cls.__eq__ = _eq
    cls.__hash__ = __hash__
    cls.__repr__ = __repr__
    cls.__setattr__ = cls.__delattr__ = _frozen
    return cls
