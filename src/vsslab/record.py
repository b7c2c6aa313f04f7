"""Immutable records, choices and caches: the parts of dataclasses,
enum and functools this library uses.

@record reads a class's annotated fields in order; a class attribute
of the same name is that field's default. It adds an __init__ that
takes the fields by position or keyword and then runs __post_init__
when the class defines one, equality between records of the same class
only, a hash that agrees with it, a repr, and assignment that raises.
Nothing is compiled from source, so defining a record costs
microseconds and imports no standard-library module.

A Choice subclass is a str enum: each UPPERCASE class attribute
becomes a member, a str equal to its value, made once when the class
is defined. lru_cache is functools.lru_cache's C object itself. brief
is the one bounded repr every refusal quotes a value with. A
process that imports the library loads neither enum nor functools, nor
the collections package that functools imports, nor operator: like
poly and protocol, this module takes its C functions from _operator.
Under `python -S` the library adds only _functools, _json, _operator,
itertools and math to the interpreter's own modules (gc too for the
CLI). A site-enabled interpreter has loaded os and more before the
library runs, so the saving is for -S processes.
"""

from _functools import _lru_cache_wrapper
from _operator import itemgetter

from .errors import ConfigInvalid, VsslabError

_set_dict = object.__setattr__


def _eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return self.__dict__ == other.__dict__


def _frozen(self, name, value=None):
    raise AttributeError(f"{type(self).__name__} is immutable; cannot change {name!r}")


class _ChoiceType(type):
    def __iter__(cls):
        """The members, in definition order."""
        return iter(cls._members)


class Choice(str, metaclass=_ChoiceType):
    """Members are str constants: Kind(value) is the member equal to
    value, a member or its plain value alike, and anything else raises
    VsslabError. A member has .name and .value and Enum's repr."""

    _members = ()

    def __init_subclass__(cls):
        members = []
        for name, value in tuple(vars(cls).items()):
            if name.isupper():
                member = str.__new__(cls, value)
                member.name, member.value = name, value
                setattr(cls, name, member)
                members.append(member)
        cls._members = tuple(members)

    def __new__(cls, value):
        # == and not a hash, so an unhashable value is simply no member;
        # copy and pickle rebuild a member through here, so they keep it
        for member in cls:
            if member == value:
                return member
        raise VsslabError(f"{brief(value)} is not a valid {cls.__name__}")

    def __repr__(self):
        return f"<{type(self).__name__}.{self.name}: {self.value!r}>"


BRIEF_CHARS = 100


def brief(value) -> str:
    """repr(value) for a refusal, in at most BRIEF_CHARS characters however
    long or deeply nested value is, since it may be untrusted JSON. Only
    a refusal needs one, so reprlib loads then, not with the library."""
    import reprlib

    short = reprlib.Repr()
    # at most 6 items a level and 3 levels, so the cut below has little
    # to cut; maxother keeps a member's repr whole
    short.maxlevel = 3
    short.maxstring = short.maxlong = 60
    short.maxother = BRIEF_CHARS
    text = short.repr(value)
    return text if len(text) <= BRIEF_CHARS else text[:BRIEF_CHARS - 3] + "..."


def coerce_enum(obj, name, enum, error, noun):
    """For a __post_init__: replace field name of obj by the member of
    enum its value names, a member or its plain value alike; raise
    error("unknown NOUN VALUE") when no member has that value, whatever
    that value is (a transcript's raw JSON among others)."""
    value = obj.__dict__[name]
    try:
        obj.__dict__[name] = enum(value)
    except ValueError:
        raise error(f"unknown {noun} {brief(value)}") from None


class CacheInfo(tuple):
    """A cache's (hits, misses, maxsize, currsize), also by name, as
    functools' CacheInfo."""

    __slots__ = ()
    hits, misses, maxsize, currsize = map(property, map(itemgetter, range(4)))

    def __new__(cls, hits, misses, maxsize, currsize):
        return tuple.__new__(cls, (hits, misses, maxsize, currsize))


def lru_cache(maxsize):
    """functools.lru_cache(maxsize): the same C wrapper, with
    cache_info(), cache_clear() and __wrapped__."""
    def decorate(function):
        wrapper = _lru_cache_wrapper(function, maxsize, False, CacheInfo)
        wrapper.__wrapped__ = function
        wrapper.__doc__ = function.__doc__
        return wrapper
    return decorate


def check_int(value, noun):
    """value if it is an int itself, not a bool, float or anything else
    JSON holds; else ConfigInvalid("NOUN must be an integer, got VALUE")."""
    if type(value) is not int:
        raise ConfigInvalid(f"{noun} must be an integer, got {brief(value)}")
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
