"""Process-stable hashing for shuffle partitioning.

Python salts ``hash()`` for ``str``/``bytes`` per process (PYTHONHASHSEED),
so partition assignment — and with it the ``shuffled_rows`` metrics and any
partition-order-dependent observation — would differ between runs.
:func:`stable_hash` is a drop-in replacement for partitioning purposes:

* deterministic across processes and hash seeds,
* equality-compatible on the values the engine uses as keys
  (``x == y`` ⇒ ``stable_hash(x) == stable_hash(y)``, including the numeric
  tower: ``2 == 2.0`` hash alike because CPython's numeric hashing is
  unsalted),
* defined over the nested value model (``Tup``, ``Bag``, ``NULL``, tuples,
  frozensets and primitives).

It is *not* a cryptographic hash and is not used for equality decisions —
only to pick shuffle targets, where collisions merely co-locate rows.
"""

from __future__ import annotations

import datetime
import zlib
from typing import Any

from repro.nested.values import Bag, Tup, is_null

_NULL_HASH = 0x9E3779B9
#: Fixed hash for every NaN.  CPython ≥ 3.10 hashes NaN by object identity
#: (NaN != NaN defeats the usual equal-hash contract), which would route
#: "the same" NaN to different partitions across processes and runs —
#: found by the differential fuzzer (seed 4) as diverging shuffle metrics
#: and NaN-keyed groups between execution paths.
_NAN_HASH = 0x7FF80000
_LAYOUT_HASHES: dict[int, int] = {}


def layout_hash(layout) -> int:
    """The memoised :func:`stable_hash` of a layout's attribute-name tuple.

    ``Tup`` keys hash as ``hash((layout_hash(t.layout), *value hashes))``;
    exposing the layout component lets the columnar shuffle pre-hash key
    columns without rebuilding it per row.
    """
    names_hash = _LAYOUT_HASHES.get(id(layout))
    if names_hash is None:
        names_hash = hash(tuple(stable_hash(n) for n in layout.names))
        _LAYOUT_HASHES[id(layout)] = names_hash
    return names_hash


def column_hashes(values: "list[Any]") -> "list[int]":
    """``stable_hash`` of every element of one key column, in order.

    Semantically ``[stable_hash(v) for v in values]``; the common primitive
    key types are dispatched on exact type inside the loop so a whole shuffle
    column is hashed without re-entering the generic chain per row.
    """
    out: "list[int]" = []
    append = out.append
    crc32 = zlib.crc32
    for v in values:
        tv = type(v)
        if tv is str:
            append(crc32(v.encode("utf-8", "surrogatepass")))
        elif tv is int:
            append(hash(v))
        elif tv is float:
            append(_NAN_HASH if v != v else hash(v))
        else:
            append(stable_hash(v))
    return out


def stable_hash(value: Any) -> int:
    """A deterministic, seed-independent hash of a nested value.

    Raises ``TypeError`` for types outside the nested value model (str, bytes,
    bool/int/float, date/datetime, ⊥, ``Tup``, ``Bag``, tuples and
    frozensets): an unknown type would silently fall back to the built-in
    ``hash``, which is process-salted for anything hashing via its contents
    (the exact quiet failure this function exists to prevent).

    Shuffle partitioning hashes every key of every shuffled row, so the
    common cases (primitives, key tuples of primitives, flat ``Tup`` keys)
    are dispatched on exact type before the general ``isinstance`` chain;
    subclasses still resolve through the latter.
    """
    tv = type(value)
    if tv is str:
        return zlib.crc32(value.encode("utf-8", "surrogatepass"))
    if tv is int:
        return hash(value)
    if tv is float:
        return _NAN_HASH if value != value else hash(value)
    if tv is tuple:
        return hash(tuple([stable_hash(v) for v in value]))
    if tv is Tup:
        return hash(
            (layout_hash(value._layout),)
            + tuple([stable_hash(v) for v in value._values])
        )
    if isinstance(value, str):
        return zlib.crc32(value.encode("utf-8", "surrogatepass"))
    if isinstance(value, (bool, int, float)):
        # CPython's numeric hash is unsalted and equality-compatible
        # across int/float/bool — except NaN, which hashes by identity.
        if value != value:
            return _NAN_HASH
        return hash(value)
    if is_null(value):
        return _NULL_HASH
    if isinstance(value, Tup):
        return hash(
            (layout_hash(value.layout),)
            + tuple(stable_hash(v) for v in value.values())
        )
    if isinstance(value, Bag):
        return hash(
            ("bag", frozenset((stable_hash(e), c) for e, c in value.items()))
        )
    if isinstance(value, tuple):
        return hash(tuple(stable_hash(v) for v in value))
    if isinstance(value, (frozenset, set)):
        return hash(("set", frozenset(stable_hash(v) for v in value)))
    if isinstance(value, bytes):
        return zlib.crc32(value)
    if isinstance(value, (datetime.date, datetime.datetime)):
        # datetime hashing goes through the salted bytes hash internally;
        # the ISO form is canonical and unambiguous per concrete type.
        return zlib.crc32(value.isoformat().encode("ascii"))
    raise TypeError(
        f"stable_hash: unsupported type {type(value).__name__!r} for "
        f"{value!r}; the built-in hash() is process-salted for arbitrary "
        "types, which would make partition assignment seed-dependent — "
        "extend repro.engine.hashing.stable_hash with a deterministic "
        "encoding for this type instead"
    )
