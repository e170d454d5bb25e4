"""The one codec between declarative specs and their JSON dict forms.

Scenarios, fault models, sweeps and the server config are frozen
dataclasses that round-trip through JSON. :class:`Spec` gives each of
them ``as_dict()`` and ``from_dict(data)``, read off the dataclass
fields and their resolved type hints:

* a nested dataclass field recurses (``null`` decodes to its defaults);
* ``Optional[...]`` lets ``null`` through, so an absent optional
  sub-spec stays ``None``;
* ``Tuple[SomeSpec, ...]`` decodes each element;
* ``Tuple[Tuple[str, T], ...]`` is a JSON object — the annotation
  decides this, never the values. It reaches the constructor as
  ``items()`` pairs, and the spec's ``__post_init__`` canonicalises
  them (the codec never sorts, so no repr moves);
* any other tuple is a JSON list;
* an ``int``, ``float``, ``str`` or ``bool`` field is type-checked,
  never converted: ``bool`` is no ``int``, and an ``int`` passes for a
  ``float`` as it is; every other value passes unchanged;
* a field whose type is polymorphic (the server's middleware chain)
  carries its own ``metadata={"codec": (encode, decode)}`` hook, with
  ``decode(value, path)``.

Unknown keys are rejected by name. A value of the wrong shape or type
(a number where a sub-spec, a list or an object belongs, a string
where a number belongs) raises :class:`Malformed`, a ``ValueError``
naming its dotted path (``failures.preemption``, ``systems[0]``,
``cluster.nodes``), never a bare ``TypeError`` or ``AttributeError``
from deeper down.

Each class's field plan is resolved once and cached: resolving type
hints on every decode would cost more than the decode itself.

:func:`positional_pickle` is the other field-driven conversion: it
pickles a dataclass as one constructor call on its field values, for
the outcome records that the outcome cache and the process pool ship
by the thousand. The module imports nothing but the stdlib, so every
layer (tune, scenarios, service) can use it while its own classes are
being defined. For the same reason it holds the two typed errors every
layer raises: :class:`Malformed` and :class:`NotFound`.
"""

from __future__ import annotations

import re
import typing
from dataclasses import MISSING, fields, is_dataclass
from functools import lru_cache
from operator import attrgetter
from typing import Callable, ClassVar, Dict, Mapping, Optional, Tuple, Type


class Malformed(ValueError):
    """A dict form that does not fit its spec; the message names where."""


class NotFound(KeyError):
    """A name that no registry, store or job table holds.

    A ``KeyError``, so ``except KeyError`` still catches it; its
    ``str()`` is the message itself, not the quoted repr of a bare
    ``KeyError``."""

    def __str__(self) -> str:
        return str(self.args[0]) if self.args else ""


def unknown_field_message(cls: Type, data: Mapping, where: str) -> Optional[str]:
    """The standard unknown-key error message, or None when clean."""
    known = sorted(f.name for f in fields(cls))
    unknown = sorted(set(data) - set(known))
    if not unknown:
        return None
    return f"unknown {where} field(s) {unknown}; known: {known}"


def _same(value, path=None):
    return value


def _expect(value, kind, path: str, what: str):
    if not isinstance(value, kind):
        raise Malformed(f"{path}: expected {what}, got {type(value).__name__}")
    return value


def _scalar(kind, what: str) -> Callable:
    """decode(value, path) for a scalar hint: a type check, no
    conversion. ``bool`` is no ``int``; an ``int`` passes for a
    ``float`` unchanged, so no repr and no RNG key moves."""
    accepted = (int, float) if kind is float else kind

    def decode_scalar(value, path):
        if isinstance(value, bool) is not (kind is bool):
            raise Malformed(f"{path}: expected {what}, got {type(value).__name__}")
        return _expect(value, accepted, path, what)

    return decode_scalar


_SCALARS = {
    int: _scalar(int, "an integer"),
    float: _scalar(float, "a number"),
    str: _scalar(str, "a string"),
    bool: _scalar(bool, "a boolean"),
}


def _codec(hint) -> Tuple[Callable, Callable]:
    """(encode(value), decode(value, path)) for one resolved type hint."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union and type(None) in args:
        (inner,) = [arg for arg in args if arg is not type(None)]
        encode_inner, decode_inner = _codec(inner)

        def encode_optional(value):
            return None if value is None else encode_inner(value)

        def decode_optional(value, path):
            return None if value is None else decode_inner(value, path)

        return (
            _same if encode_inner is _same else encode_optional,
            _same if decode_inner is _same else decode_optional,
        )
    if hint in _SCALARS:
        return _same, _SCALARS[hint]
    if isinstance(hint, type) and is_dataclass(hint):
        return encode, lambda value, path: decode(hint, value, path, path)
    if origin is not tuple or len(args) != 2 or args[1] is not Ellipsis:
        return _same, _same
    item = args[0]
    if typing.get_origin(item) is tuple and typing.get_args(item)[0] is str:
        encode_value, decode_value = _codec(typing.get_args(item)[1])

        def encode_object(pairs):
            return {key: encode_value(value) for key, value in pairs}

        def decode_object(value, path):
            entries = _expect(value, Mapping, path, "an object").items()
            return tuple(
                (key, decode_value(entry, f"{path}.{key}")) for key, entry in entries
            )

        return dict if encode_value is _same else encode_object, decode_object
    encode_item, decode_item = _codec(item)

    def encode_list(items):
        return [encode_item(entry) for entry in items]

    def decode_list(value, path):
        entries = enumerate(_expect(value, (list, tuple), path, "a list"))
        return tuple(decode_item(entry, f"{path}[{index}]") for index, entry in entries)

    return list if encode_item is _same else encode_list, decode_list


@lru_cache(maxsize=None)
def _plan(cls: Type) -> Dict[str, Tuple[bool, Callable, Callable]]:
    """name -> (required, encode, decode) per field of ``cls``, resolved
    once: resolving type hints costs more than a whole decode."""
    hints = typing.get_type_hints(cls)
    return {
        spec_field.name: (
            spec_field.default is MISSING and spec_field.default_factory is MISSING,
            *(spec_field.metadata.get("codec") or _codec(hints[spec_field.name])),
        )
        for spec_field in fields(cls)
    }


def encode(spec) -> Dict:
    """The dict form of a dataclass spec, in field order."""
    data = {}
    for name, (_, encode_field, _) in _plan(type(spec)).items():
        value = getattr(spec, name)
        data[name] = value if encode_field is _same else encode_field(value)
    return data


def decode(cls: Type, data, where: str, prefix: str = ""):
    """Build a dataclass spec from its dict form, rejecting unknown keys,
    missing required fields and wrong shapes. ``where`` names the spec
    in its own errors; ``prefix`` is the dotted path its fields hang
    off (nested fields are named from the root down)."""
    if data is None:
        data = {}
    _expect(data, Mapping, where, "an object")
    plan = _plan(cls)
    if not plan.keys() >= data.keys():
        raise Malformed(unknown_field_message(cls, data, where))
    kwargs = {}
    missing = []
    for name, (required, _, decode_field) in plan.items():
        if name in data:
            value = data[name]
            if decode_field is not _same:
                value = decode_field(value, f"{prefix}.{name}" if prefix else name)
            kwargs[name] = value
        elif required:
            missing.append(name)
    if missing:
        raise Malformed(f"{where}: missing field(s) {missing}")
    return cls(**kwargs)


def _label(cls: Type) -> str:
    """How a spec names itself: ``SystemPolicySpec`` -> ``system policy``."""
    name = cls.__name__.removesuffix("Spec").removesuffix("Config")
    return re.sub(r"(?<!^)(?=[A-Z])", " ", name).lower()


class Spec:
    """Base of the declarative spec dataclasses: the codec as methods.

    ``from_dict(None)`` builds the defaults. ``PATH`` is the dotted path
    a spec's fields hang off when it is decoded on its own (a
    ``FailureSpec`` always lives at a scenario's ``failures``).
    """

    PATH: ClassVar[str] = ""

    def as_dict(self) -> Dict:
        return encode(self)

    @classmethod
    def from_dict(cls, data: Optional[Mapping]):
        try:
            return decode(cls, data, _label(cls), cls.PATH)
        except Malformed as error:
            raise cls.malformed(data, str(error)) from None

    @classmethod
    def malformed(cls, data, problem: str) -> ValueError:
        """The error a malformed dict form of this spec raises."""
        return Malformed(problem)


def positional_pickle(cls: Type) -> Type:
    """Class decorator: pickle a dataclass as ``cls(*field_values)``.

    By default a dataclass instance pickles its whole ``__dict__``, so
    a load builds an empty instance, a dict of every field name and
    value, and then sets the fields one by one. With this decorator a
    load is one constructor call on a tuple, and ``__post_init__``
    runs again. Apply it on top of ``@dataclass`` (slotted or not).
    Every field must be a positional ``__init__`` parameter, so an
    ``init=False`` or ``kw_only`` field raises ``TypeError``.
    """
    names = []
    for spec_field in fields(cls):
        if not spec_field.init or spec_field.kw_only:
            raise TypeError(
                f"positional_pickle: {cls.__name__}.{spec_field.name} is not "
                "a positional __init__ parameter"
            )
        names.append(spec_field.name)
    values = attrgetter(*names)
    single = len(names) == 1

    def __reduce__(self):
        return cls, (values(self),) if single else values(self)

    __reduce__.__qualname__ = f"{cls.__qualname__}.__reduce__"
    cls.__reduce__ = __reduce__
    return cls
