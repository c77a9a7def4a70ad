"""Structural fingerprints, with cached digests for the model's leaves.

A **fingerprint** is a SHA-256 over canonical tokens of a structure:
equal structures give equal fingerprints in every process, so the plan,
writeplan and validation caches (and the persistent L2 the process-pool
workers share) can key on them.  :func:`fingerprint` walks algebra ASTs,
conditions, schema elements and views down to their primitives.

The incremental compiler's premise (Section 1.2) is that most of a
mapping survives each SMO unchanged: :meth:`CompiledModel.apply` shares
every leaf an SMO does not rebuild.  The hashing honours it too.  The
model's top-level leaf classes — entity types and sets, association
sets, tables, fragments and the three view kinds — are marked with
:func:`digest_leaf`.  The first walk of such a leaf hashes its token to
a BLAKE2b-128 **digest** and remembers it; every later walk of the same
object returns the digest instead of walking the leaf again.  So a
model fingerprint after an SMO walks only the leaves the SMO rebuilt,
and the slice fingerprints on the write and read paths re-walk none of
the leaves they name.

The memo holds three rules:

* it never keeps a leaf alive: entries are keyed by identity and hold
  their leaf through a weak reference that removes the entry when the
  leaf dies, and a hit checks the reference's referent, so an identity
  reused by a new object can never be served the old digest;
* it remembers only leaves whose walk met no ``list``, ``dict`` or
  ``set``: such a container can change under a cached digest, so a leaf
  that holds one is walked again on every call;
* leaves are frozen dataclasses and nothing assigns their fields after
  construction (CI rejects ``object.__setattr__`` outside the two
  modules that set private, non-field attributes).

Digests are content hashes, never ``hash()``: they must agree across
processes whatever their ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from typing import Dict, Set, Tuple


@dataclass(frozen=True)
class DigestStats:
    """Leaf digests in this process: leaf walks that computed a digest,
    walks a cached digest answered, and cached digests whose leaf is
    still alive."""

    computed: int
    reused: int
    live: int


#: classes marked with :func:`digest_leaf`
_LEAF_CLASSES: Set[type] = set()
#: dataclass -> (token prefix, field names), filled on first sight
_LAYOUTS: Dict[type, Tuple[bytes, Tuple[str, ...]]] = {}


class _DigestRef(weakref.ref):
    """A weak reference to a leaf, carrying the leaf's digest token."""

    __slots__ = ("key", "token")

    def __new__(cls, leaf: object, token: bytes) -> "_DigestRef":
        ref = super().__new__(cls, leaf, _forget)
        ref.key = id(leaf)
        ref.token = token
        return ref

    def __init__(self, leaf: object, token: bytes) -> None:
        super().__init__(leaf, _forget)


#: id(leaf) -> its reference; the entry leaves with the leaf
_digests: Dict[int, _DigestRef] = {}
_computed = 0
_reused = 0
_stats_lock = threading.Lock()


def _forget(ref: _DigestRef) -> None:
    # A racing writer may have replaced the entry already; dropping a
    # newer entry only loses a memo, and a hit checks its referent.
    if _digests.get(ref.key) is ref:
        _digests.pop(ref.key, None)


def digest_leaf(cls: type) -> type:
    """Class decorator: instances of the frozen dataclass *cls* carry a
    cached digest (see the module docstring)."""
    params = getattr(cls, "__dataclass_params__", None)
    if params is None or not params.frozen or not cls.__weakrefoffset__:
        raise TypeError(
            f"{cls.__name__} must be a weak-referenceable frozen dataclass"
        )
    _LEAF_CLASSES.add(cls)
    _layout(cls)
    return cls


def digest_stats() -> DigestStats:
    """This process's leaf-digest counters (``ServingStats.digests``)."""
    return DigestStats(computed=_computed, reused=_reused, live=len(_digests))


class _Walk:
    """One tokenizer pass: whether it met a mutable container, and the
    digests it computed and reused."""

    __slots__ = ("mutable", "computed", "reused")

    def __init__(self) -> None:
        self.mutable = False
        self.computed = 0
        self.reused = 0


def _layout(cls: type) -> Tuple[bytes, Tuple[str, ...]]:
    layout = (
        b"(d" + cls.__qualname__.encode("utf-8"),
        tuple(f.name for f in fields(cls)),
    )
    _LAYOUTS[cls] = layout
    return layout


def _leaf_token(leaf: object, layout, walk: _Walk) -> bytes:
    ref = _digests.get(id(leaf))
    if ref is not None and ref() is leaf:
        walk.reused += 1
        return ref.token
    inner = _Walk()
    token = _fields_token(leaf, layout, inner)
    digest = b"#" + hashlib.blake2b(token, digest_size=16).digest()
    walk.computed += inner.computed + 1
    walk.reused += inner.reused
    if inner.mutable:
        walk.mutable = True
    else:
        _digests[id(leaf)] = _DigestRef(leaf, digest)
    return digest


def _fields_token(obj: object, layout, walk: _Walk) -> bytes:
    prefix, names = layout
    parts = [prefix]
    for name in names:
        parts.append(_token(getattr(obj, name), walk))
    return b";".join(parts) + b")"


def _token(obj: object, walk: _Walk) -> bytes:
    """A canonical byte string for *obj*: equal structures → equal tokens.

    Handles the value types that appear in validation inputs: primitives,
    enums, (frozen) dataclasses — conditions, query nodes, fragments,
    schema elements, views — plus tuples/lists, sets and dicts.  A leaf
    class's instance is its 17-byte cached digest.  Unknown types raise
    instead of falling back to an unstable ``repr``.
    """
    # exact strings, known dataclasses and exact tuples are nearly every
    # node, so they go first; subclasses take the general checks below
    cls = type(obj)
    if cls is str:
        encoded = obj.encode("utf-8")
        return b"s%d:" % len(encoded) + encoded
    layout = _LAYOUTS.get(cls)
    if layout is not None:
        if cls in _LEAF_CLASSES:
            return _leaf_token(obj, layout, walk)
        return _fields_token(obj, layout, walk)
    if cls is tuple:
        return b"(t" + b";".join([_token(item, walk) for item in obj]) + b")"
    if obj is None:
        return b"null"
    if isinstance(obj, bool):  # before int: bool is an int subclass
        return b"b1" if obj else b"b0"
    if isinstance(obj, int):
        return b"i" + repr(obj).encode("ascii")
    if isinstance(obj, float):
        return b"f" + repr(obj).encode("ascii")
    if isinstance(obj, str):
        encoded = obj.encode("utf-8")
        return b"s%d:" % len(encoded) + encoded
    if isinstance(obj, bytes):
        return b"y%d:" % len(obj) + obj
    if isinstance(obj, Enum):
        return b"e" + type(obj).__name__.encode("utf-8") + b":" + _token(obj.value, walk)
    if is_dataclass(obj) and not isinstance(obj, type):
        return _fields_token(obj, _layout(cls), walk)
    if isinstance(obj, tuple):
        return b"(t" + b";".join(_token(item, walk) for item in obj) + b")"
    if isinstance(obj, list):
        walk.mutable = True
        return b"(t" + b";".join(_token(item, walk) for item in obj) + b")"
    if isinstance(obj, (set, frozenset)):
        if not isinstance(obj, frozenset):
            walk.mutable = True
        return b"(S" + b";".join(sorted(_token(item, walk) for item in obj)) + b")"
    if isinstance(obj, dict):
        walk.mutable = True
        items = sorted((_token(k, walk), _token(v, walk)) for k, v in obj.items())
        return b"(m" + b";".join(k + b"=" + v for k, v in items) + b")"
    raise TypeError(f"cannot fingerprint {type(obj).__name__!r} value {obj!r}")


def fingerprint(*objects: object) -> str:
    """A stable hex digest over the canonical structure of *objects*."""
    global _computed, _reused
    digest = hashlib.sha256()
    walk = _Walk()
    for obj in objects:
        digest.update(_token(obj, walk))
        digest.update(b"|")
    if walk.computed or walk.reused:
        with _stats_lock:
            _computed += walk.computed
            _reused += walk.reused
    return digest.hexdigest()
