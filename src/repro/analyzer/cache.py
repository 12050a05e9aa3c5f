"""Version-stamped memoization for whole-schema analysis.

The RIDL-A functions are pure functions of the schema's element sets,
and :class:`~repro.brm.schema.BinarySchema` version stamps are
globally unique per mutation event — equal stamps imply equal
elements (copies share the stamp, every mutation takes a fresh one).
A bounded LRU keyed by ``(schema name, version)`` therefore makes
re-analysis of an untouched schema (or of any of its copies) an O(1)
dictionary hit, which is what the per-step guards and the analyzer
gate of ``map_schema`` lean on.

The caches hold *shared* result objects: treat cached reports and
graphs as read-only, exactly like the schema elements themselves.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable
from functools import wraps
from typing import TypeVar

from repro.observability.tracer import count as _obs_count
from repro.observability.tracer import span as _obs_span

T = TypeVar("T")

DEFAULT_MAXSIZE = 64


def memoized_on_schema_version(
    maxsize: int = DEFAULT_MAXSIZE,
) -> Callable[[Callable[..., T]], Callable[..., T]]:
    """Memoize a ``fn(schema)`` on the schema's ``(name, version)``.

    The wrapped function keeps the original callable as
    ``fn.uncached`` (for callers that must bypass the memo, e.g. the
    guards when they suspect an API-bypassing corruption) and gains a
    ``cache_clear()`` like :func:`functools.lru_cache`.
    """

    def decorate(fn: Callable[..., T]) -> Callable[..., T]:
        cache: OrderedDict[tuple[str, int], T] = OrderedDict()

        @wraps(fn)
        def wrapper(schema) -> T:
            key = (schema.name, schema.version)
            try:
                value = cache[key]
            except KeyError:
                _obs_count("analysis.cache.miss")
                # Volatile: whether this cache-fill span exists
                # depends on what earlier work warmed the memo, so
                # the deterministic trace export prunes it.
                with _obs_span(
                    f"analyzer.compute:{fn.__name__}",
                    volatile=True,
                    schema=schema.name,
                ):
                    value = fn(schema)
                cache[key] = value
                if len(cache) > maxsize:
                    cache.popitem(last=False)
            else:
                _obs_count("analysis.cache.hit")
                cache.move_to_end(key)
            return value

        wrapper.uncached = fn
        wrapper.cache_clear = cache.clear
        wrapper.cache = cache
        return wrapper

    return decorate
