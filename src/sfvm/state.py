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

Inside a field the walks know builtin containers, bytearrays and
declared classes; anything else is an immutable leaf.  Dicts are walked
in key order, so the numbering is canonical.
"""

from __future__ import annotations

import dataclasses
from copy import copy

SHARED, VALUE, OWNED, ALIASED = "shared", "value", "owned", "aliased"

DECLARED: dict[type, tuple] = {}    # class -> ((field, role), ...)
_KEYED: dict[type, tuple] = {}      # class -> ((field, alias), ...)
_MUTABLE: set[type] = {bytearray}   # classes whose identity is state
_LEAVES = frozenset({int, str, bytes, bool, float, type(None)})
_REF = object()                     # tags a first-appearance number
_ALIAS = {SHARED: None, VALUE: False, OWNED: False, ALIASED: True}


def _copy(v, memo):
    t = type(v)
    if t in _LEAVES:
        return v
    done = memo.get(id(v))
    if done is not None:
        return done
    if t is tuple:
        return tuple([_copy(x, memo) for x in v])
    if t is list:
        out = [_copy(x, memo) for x in v]
    elif t is dict:
        out = {k: _copy(x, memo) for k, x in v.items()}
    elif t is set or t is bytearray:
        out = t(v)
    elif t in DECLARED:
        return v.__deepcopy__(memo)
    else:
        return v
    memo[id(v)] = out
    return out


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


def _key(v, seen, alias):
    t = type(v)
    if t in _LEAVES:
        return v
    if alias is not None:
        if t is tuple or t is list:
            return tuple([_key(x, seen, alias) for x in v])
        if t is dict:
            return tuple([(k, _key(v[k], seen, alias))
                          for k in _sorted(v)])
        if t is set:
            return tuple(_sorted(v))
        if alias and t in _MUTABLE:
            n = seen.get(id(v))
            if n is not None:
                return (_REF, n)
            seen[id(v)] = n = len(seen)
            return (_REF, n, _key(v, seen, False))
        if t is bytearray:
            return bytes(v)
        if t in DECLARED:
            return (t, *[_key(getattr(v, name), seen, how)
                         for name, how in _KEYED[t]])
    return v if t.__hash__ is not None else id(v)


def stateful(*, shared="", value="", owned="", aliased="", untracked=None):
    """Class decorator: declare every instance field, each under one
    role (space-separated names; `untracked` maps a name to the reason
    it is not state), and derive `state_key` and `__deepcopy__`."""
    def declare(cls):
        roles = {name: role for role, names in zip(
            (SHARED, VALUE, OWNED, ALIASED), (shared, value, owned, aliased))
            for name in names.split()}
        roles.update(untracked or {})
        if dataclasses.is_dataclass(cls):
            have = {f.name for f in dataclasses.fields(cls)}
            if have != set(roles):
                raise TypeError(f"{cls.__name__}: declared fields "
                                f"{sorted(roles)} but has {sorted(have)}")
        DECLARED[cls] = tuple(roles.items())
        _KEYED[cls] = tuple((name, _ALIAS[role])
                            for name, role in roles.items() if role in _ALIAS)
        params = getattr(cls, "__dataclass_params__", None)
        if not getattr(params, "frozen", False):
            _MUTABLE.add(cls)
        copiers = tuple((name, (lambda v, memo: v) if role == SHARED else
                         _copy if role in _ALIAS else lambda v, memo: copy(v))
                        for name, role in roles.items())
        new, setf = object.__new__, object.__setattr__

        def __deepcopy__(self, memo):
            clone = new(cls)
            memo[id(self)] = clone
            for name, copier in copiers:
                setf(clone, name, copier(getattr(self, name), memo))
            return clone

        def state_key(self):
            """Hashable fingerprint: equal keys, equal futures."""
            return _key(self, {}, True)

        cls.__deepcopy__ = __deepcopy__
        cls.state_key = state_key
        return cls
    return declare
