"""Simulated state, declared once; its copy and fingerprint derived.

Exploration copies the world at each branch point and fingerprints it
to find prefixes that reach the same state.  Each stateful class
declares every instance field once (`stateful`), with a role:

  shared     immutable: one object in every copy, keyed by value (or by
             identity when it has no value hash)
  value      plain data: copied, keyed in canonical form
  owned      declared objects no other field reaches: copied, keyed
  aliased    objects other fields may reach too (an address space, a
             map value a register points into): copied once per copy
             through the memo, keyed by first-appearance number
  untracked  not state, for the reason given: copied shallowly, since
             nothing in it changes in place, and left out of the key

From the roles, `stateful` generates straight-line code for each class:
its `__deepcopy__`, its `state_key`, and the key walkers that number it
or not.  A walked field's value is taken as it is when it is a leaf
(int, str, bytes, bool, float or None), and otherwise goes to the
walker its type has in `_COPY` or `_KEY`, the tables from type (and
alias mode) to walker.  They hold builtin containers, bytearrays and
declared classes; any other type is an immutable leaf.  Dicts are walked
in key order, so the numbering is canonical.  A declared class is
immutable when it is a frozen dataclass or a `Record`.
"""

from __future__ import annotations

import dataclasses
from copy import copy
from types import MemberDescriptorType

SHARED, VALUE, OWNED, ALIASED = "shared", "value", "owned", "aliased"

DECLARED: dict[type, tuple] = {}    # class -> ((field, role), ...)
_MUTABLE: set[type] = {bytearray}   # classes whose identity is state
_LEAVES = frozenset({int, str, bytes, bool, float, type(None)})
_REF = object()                     # tags a first-appearance number
# a walked role -> the key table its field's values are walked through
_KEY_TABLE = {VALUE: "_KEY0", OWNED: "_KEY0", ALIASED: "_KEY1"}


class Record:
    """An immutable record of the fields named in `__slots__`, built by a
    plain positional constructor (defaults from the class keyword
    `defaults`).  As with a frozen dataclass, two records are equal when
    their classes are the same and their fields equal, the hash is the
    fields' hash, and assigning a field raises `FrozenInstanceError`; but
    building one stores each field straight into its slot."""

    __slots__ = ()

    def __init_subclass__(cls, defaults=None, **kwargs):
        super().__init_subclass__(**kwargs)
        names, defaults = cls.__slots__, defaults or {}
        env = {f"_set_{n}": cls.__dict__[n].__set__ for n in names}
        env.update((f"_default_{n}", v) for n, v in defaults.items())
        params = ", ".join(f"{n}=_default_{n}" if n in defaults else n
                           for n in names)
        exec(f"def __init__(self, {params}):\n"
             + "".join(f"    _set_{n}(self, {n})\n" for n in names)
             + "def _values(self):\n"
             + f"    return ({''.join(f'self.{n}, ' for n in names)})\n", env)
        cls.__init__, cls._values = env["__init__"], env["_values"]

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise dataclasses.FrozenInstanceError(f"cannot assign to field "
                                              f"{name!r}")

    def __delattr__(self, name):
        raise dataclasses.FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self):
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{n}={v!r}" for n, v in zip(self.__slots__, self._values())) + ")"


class _Walkers(dict):
    """Type -> walker.  A type it does not list is a leaf: it is entered
    on first sight with the leaf walker."""

    def __init__(self, leaf, walkers):
        super().__init__(walkers)
        self.leaf = leaf

    def __missing__(self, t):
        self[t] = self.leaf
        return self.leaf


def _order(k):
    """A total order over keys of mixed types (a trace may name handles by
    int and by str): by type name first, tuples element by element."""
    if type(k) is tuple:
        return ("tuple", tuple(map(_order, k)))
    return (type(k).__name__, k)


def _sorted(keys):
    # for the keys held here (ints, strs, bytes, tuples of them) a plain
    # comparison that works agrees with `_order`, and is faster
    try:
        return sorted(keys)
    except TypeError:
        return sorted(keys, key=_order)


# -- copies: walker(value, memo) -> copy ------------------------------------

def _copy_tuple(v, memo):
    return tuple([x if (t := type(x)) in _LEAVES else _COPY[t](x, memo)
                  for x in v])


def _copy_list(v, memo):
    out = memo.get(id(v))
    if out is None:
        out = memo[id(v)] = v.copy()
        for i, x in enumerate(v):
            if (t := type(x)) not in _LEAVES:
                out[i] = _COPY[t](x, memo)
    return out


def _copy_dict(v, memo):
    out = memo.get(id(v))
    if out is None:
        out = memo[id(v)] = v.copy()
        for k, x in v.items():
            if (t := type(x)) not in _LEAVES:
                out[k] = _COPY[t](x, memo)
    return out


def _copy_flat(v, memo):
    out = memo.get(id(v))
    if out is None:
        out = memo[id(v)] = type(v)(v)
    return out


_COPY = _Walkers(lambda v, memo: v, {
    tuple: _copy_tuple, list: _copy_list, dict: _copy_dict,
    set: _copy_flat, bytearray: _copy_flat})


# -- keys: walker(value, seen) -> key, one table per alias mode -------------

def _key_walkers(alias: bool) -> dict:
    def seq(v, seen):
        return tuple([x if (t := type(x)) in _LEAVES else table[t](x, seen)
                      for x in v])

    def mapping(v, seen):
        return tuple([(k, x if (t := type(x := v[k])) in _LEAVES
                       else table[t](x, seen)) for k in _sorted(v)])

    def flat(v, seen):
        return tuple(_sorted(v))

    def buffer(v, seen):
        if alias:       # numbered: the buffer's identity is state
            n = seen.get(id(v))
            if n is not None:
                return (_REF, n)
            seen[id(v)] = n = len(seen)
            return (_REF, n, bytes(v))
        return bytes(v)

    table = _Walkers(
        lambda v, seen: v if type(v).__hash__ is not None else id(v),
        {tuple: seq, list: seq, dict: mapping, set: flat, bytearray: buffer})
    return table


_KEY = {alias: _key_walkers(alias) for alias in (False, True)}


def _key(v, seen, alias: bool):
    """The key of any value `v`, walked in alias mode `alias`."""
    return _KEY[alias][type(v)](v, seen)


def _walked(src: str, table: str, arg: str) -> str:
    """Source of an expression for the value of `src`: a leaf as it is,
    anything else through its walker in `table`."""
    return (f"(v if (t := type(v := {src})) in _LEAVES "
            f"else {table}[t](v, {arg}))")


def _generate(cls, roles: dict, mutable: bool) -> dict:
    """The straight-line `__deepcopy__`, `state_key` and key walkers
    (`key`, and `numbered` for a mutable class) of a declared class.  A
    shared field is referenced as it is, an untracked one copied
    shallowly, and a walked one taken inline when it holds a leaf."""
    slotted = {n for n in roles
               if isinstance(cls.__dict__.get(n), MemberDescriptorType)}
    env = {"_cls": cls, "_new": object.__new__, "_shallow": copy,
           "_LEAVES": _LEAVES, "_REF": _REF, "_COPY": _COPY,
           "_KEY0": _KEY[False], "_KEY1": _KEY[True]}
    env.update((f"_set_{n}", cls.__dict__[n].__set__) for n in slotted)
    copies, keys = [], []
    for n, role in roles.items():
        src = f"self.{n}"
        if role == SHARED:
            value = src
            keys.append(f"(v if type(v := {src}).__hash__ is not None "
                        f"else id(v))")
        elif role in _KEY_TABLE:
            value = _walked(src, "_COPY", "memo")
            keys.append(_walked(src, _KEY_TABLE[role], "seen"))
        else:
            value = f"_shallow({src})"
        copies.append(f"    _set_{n}(clone, {value})\n" if n in slotted
                      else f"    d[{n!r}] = {value}\n")
    body = f"(_cls, {''.join(k + ', ' for k in keys)})"
    source = ("def __deepcopy__(self, memo):\n"
              "    clone = memo.get(id(self))\n"
              "    if clone is not None:\n"
              "        return clone\n"
              "    clone = memo[id(self)] = _new(_cls)\n"
              + ("    d = clone.__dict__\n" if len(slotted) < len(roles)
                 else "")
              + "".join(copies)
              + "    return clone\n"
              "def key(self, seen):\n"
              f"    return {body}\n"
              "def state_key(self):\n"
              '    """Hashable fingerprint: equal keys, equal futures."""\n')
    if mutable:     # numbered by first appearance, from 0 in its own key
        source += ("    seen = {id(self): 0}\n"
                   f"    return (_REF, 0, {body})\n"
                   "def numbered(self, seen):\n"
                   "    n = seen.get(id(self))\n"
                   "    if n is not None:\n"
                   "        return (_REF, n)\n"
                   "    seen[id(self)] = n = len(seen)\n"
                   f"    return (_REF, n, {body})\n")
    else:
        source += ("    seen = {}\n"
                   f"    return {body}\n")
    exec(source, env)
    return env


def stateful(*, shared="", value="", owned="", aliased="", untracked=None):
    """Class decorator: declare every instance field, each under one
    role (space-separated names; `untracked` maps a name to the reason
    it is not state), and derive `state_key` and `__deepcopy__`."""
    def declare(cls):
        roles = {name: role for role, names in zip(
            (SHARED, VALUE, OWNED, ALIASED), (shared, value, owned, aliased))
            for name in names.split()}
        roles.update(untracked or {})
        record = issubclass(cls, Record)
        if dataclasses.is_dataclass(cls) or record:
            have = set(cls.__slots__ if record else
                       (f.name for f in dataclasses.fields(cls)))
            if have != set(roles):
                raise TypeError(f"{cls.__name__}: declared fields "
                                f"{sorted(roles)} but has {sorted(have)}")
        DECLARED[cls] = tuple(roles.items())
        params = getattr(cls, "__dataclass_params__", None)
        mutable = not (record or getattr(params, "frozen", False))
        if mutable:
            _MUTABLE.add(cls)
        made = _generate(cls, roles, mutable)
        _COPY[cls] = cls.__deepcopy__ = made["__deepcopy__"]
        _KEY[False][cls] = made["key"]
        _KEY[True][cls] = made["numbered" if mutable else "key"]
        cls.state_key = made["state_key"]
        return cls
    return declare
