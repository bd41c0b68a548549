"""Canonical, versioned fingerprints for cache keys.

The old experiment cache keyed entries by the config's repr: any change
to a dataclass ``__repr__``, a float's shortest-repr, or the *order* of
fields silently changed (or worse, silently preserved) the key. Keys
here are derived from an explicit canonical encoding instead:

- every value is reduced to a small JSON tree of tagged primitives
  (floats via ``float.hex()``, so the key never depends on repr
  shortening; strings/enums/arrays tagged so types cannot collide);
- dataclasses are encoded field-by-field with **default elision**:
  fields whose value equals the field default are omitted. Adding a new
  defaulted field to a config therefore *preserves* existing cache keys
  (old artifacts stay valid), while setting it to a non-default value
  changes the key — invalidation is always a deliberate act;
- a dataclass may declare ``__key_exclude__`` (a collection of field
  names) for fields that label a value but never change what it
  contains — e.g. ``CampaignSpec.name``, so two specs naming the same
  grid alias the same artifacts. Excluded fields are skipped entirely,
  so artifacts cache-hit across them;
- the encoding embeds :data:`KEY_SCHEMA_VERSION`; bumping it retires
  every existing key at once when the scheme itself changes.

The resulting fingerprint is the sha256 of the canonical JSON, so it is
stable across processes, Python versions, and dataclass refactors that
do not change the *content* of the config.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import math
from typing import Any

import numpy as np

#: Bump to retire every existing cache key (scheme changes, not data changes).
KEY_SCHEMA_VERSION = 1

#: Length of the short digest used in artifact file names.
SHORT_DIGEST_LEN = 16


def _encode_float(value: float) -> str:
    # float.hex() is exact and repr-independent; NaN/inf hex() round-trips too,
    # but normalize NaN payloads so all NaNs key identically.
    if math.isnan(value):
        return "f|nan"
    return f"f|{float(value).hex()}"


def _encode_dataclass(value: Any) -> dict[str, Any]:
    exclude = getattr(type(value), "__key_exclude__", ())
    fields: dict[str, Any] = {}
    for f in dataclasses.fields(value):
        if f.name in exclude:
            continue  # execution-strategy field: see module docstring
        current = getattr(value, f.name)
        if f.default is not dataclasses.MISSING:
            default: Any = f.default
        elif f.default_factory is not dataclasses.MISSING:  # type: ignore[misc]
            default = f.default_factory()  # type: ignore[misc]
        else:
            default = _NO_DEFAULT
        if default is not _NO_DEFAULT:
            try:
                if canonical(current) == canonical(default):
                    continue  # default elision: see module docstring
            except TypeError:
                pass  # unencodable default: treat as non-default
        fields[f.name] = canonical(current)
    return {"__fields__": fields}


_NO_DEFAULT = object()


def canonical(value: Any) -> Any:
    """Reduce *value* to its canonical JSON-encodable form.

    Raises :class:`TypeError` for types without a canonical encoding —
    a config holding an arbitrary object must be made explicit (e.g. a
    dataclass or a primitive) before it can key a cache entry.
    """
    if value is None or isinstance(value, bool):
        return value
    if isinstance(value, (np.floating,)):
        return _encode_float(float(value))
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return _encode_float(value)
    if isinstance(value, str):
        return f"s|{value}"
    if isinstance(value, bytes):
        return f"b|{hashlib.sha256(value).hexdigest()}"
    if isinstance(value, enum.Enum):
        return f"e|{value.name}"
    if isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        return {
            "__ndarray__": [
                str(arr.dtype),
                list(arr.shape),
                hashlib.sha256(arr.tobytes()).hexdigest(),
            ]
        }
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _encode_dataclass(value)
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, (set, frozenset)):
        encoded = [canonical(v) for v in value]
        return {"__set__": sorted(encoded, key=lambda v: json.dumps(v, sort_keys=True))}
    if isinstance(value, dict):
        items = [[canonical(k), canonical(v)] for k, v in value.items()]
        return {"__map__": sorted(items, key=lambda kv: json.dumps(kv[0], sort_keys=True))}
    raise TypeError(
        f"no canonical encoding for {type(value).__name__!r}; "
        "use a dataclass, primitive, or numpy value in cache-keyed configs"
    )


def canonical_json(kind: str, value: Any) -> str:
    """The canonical JSON document a fingerprint hashes."""
    doc = {"schema": KEY_SCHEMA_VERSION, "kind": kind, "value": canonical(value)}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def fingerprint(kind: str, value: Any) -> str:
    """Full sha256 fingerprint of (*kind*, canonical *value*)."""
    return hashlib.sha256(canonical_json(kind, value).encode()).hexdigest()


def short_fingerprint(kind: str, value: Any, n: int = SHORT_DIGEST_LEN) -> str:
    """Truncated fingerprint for readable artifact file names."""
    return fingerprint(kind, value)[:n]
