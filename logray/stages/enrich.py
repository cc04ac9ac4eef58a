"""Enrichment stage: broadcast small-side dimension joins inside map_batches.

The reference has no join operator — its only lookup is a driver-side config
dict (ConfigHandler.cpp:206-218).  The north rule adds role/tool taxonomy
enrichment; dimension tables are tiny, so this is a **broadcast map-join**:
the dicts are resolved once on the driver in ``EnrichBatch.__init__`` and
ship inside the fused task (Ray puts the task's callable in the object
store once), and the per-batch join is a vectorized ``pc.index_in`` +
take — never a shuffle.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

# Default taxonomies (the "dimension tables"). Keys are the transcript
# `role` / `tool` values; unknown keys map to the *_UNKNOWN sentinel.
ROLE_TAXONOMY = {
    "user": "human",
    "assistant": "model",
    "tool": "machine",
    "system": "meta",
}
TOOL_TAXONOMY = {
    "": "none",
    "search": "retrieval",
    "browser": "retrieval",
    "bash": "execution",
    "python": "execution",
    "sql": "execution",
}
UNKNOWN = "unknown"


def _lookup(col, mapping: dict, default: str = UNKNOWN):
    """Vectorized dict lookup: index_in against the key set, take from the
    value array, fill misses with the default."""
    keys = pa.array(list(mapping.keys()), pa.string())
    vals = pa.array(list(mapping.values()) + [default], pa.string())
    idx = pc.index_in(col, value_set=keys)
    idx = pc.fill_null(idx, len(mapping))
    return pc.take(vals, idx)


class EnrichBatch:
    """Batch enrichment: dimension dicts resolved once, on the driver.

    ``mappings`` is {new_col: (source_col, dict_or_objectref)}; an object
    ref (``ray.put(dict)``) is fetched here, and the resolved dicts ship
    with the callable."""

    def __init__(self, mappings=None, default: str = UNKNOWN):
        import ray

        if mappings is None:
            mappings = {
                "role_class": ("role", ROLE_TAXONOMY),
                "tool_kind": ("tool", TOOL_TAXONOMY),
            }
        self.mappings = {}
        for new_col, (src, m) in mappings.items():
            if isinstance(m, ray.ObjectRef):
                m = ray.get(m)
            self.mappings[new_col] = (src, dict(m))
        self.default = default

    def __call__(self, table: pa.Table) -> pa.Table:
        for new_col, (src, m) in self.mappings.items():
            arr = _lookup(table[src], m, self.default)
            if new_col in table.column_names:
                table = table.drop_columns([new_col])
            table = table.append_column(new_col, arr)
        return table


def enrich_stage(ds, mappings=None, batch_size: int | None = None):
    return ds.map_batches(EnrichBatch(mappings), batch_format="pyarrow",
                          batch_size=batch_size, zero_copy_batch=True)
