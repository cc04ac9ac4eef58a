"""Parse stage: the schema-driven extractor as a Ray Data actor-pool stage.

The reference compiles a format string once and reuses the instruction vector
per line (filtered_file_reader.cpp:103-106); here the compiled
:class:`~logray.vparse.VectorParser` lives in actor state — built once per
actor in ``__init__``, applied per Arrow batch in ``__call__`` — via
``ds.map_batches(ParseBatch, batch_format="pyarrow", concurrency=N)``.
Each batch is one call into the compiled line scanner (``logray/scan.c``),
or into the numpy interpreter where no compiler is available
(``ParseBatch(...).vp.path`` says which).  A ``ParseBatch`` holds only
picklable state, so it ships into Ray's fused read task; the scanner
library is loaded once per worker process.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from logray.formats import LineFormat
from logray.vparse import VectorParser


def normalize_text(table: pa.Table, text_col: str = "text") -> pa.Table:
    """Strip one trailing CR (CRLF corpora) and one trailing LF per line —
    the reader-side normalization the reference applies when slicing lines
    out of the mmap (filtered_file_reader.cpp:155-165)."""
    col = table[text_col]
    col = pc.replace_substring_regex(col, pattern="\r?\n?$", replacement="", max_replacements=1)
    idx = table.column_names.index(text_col)
    return table.set_column(idx, text_col, col)


class ParseBatch:
    """Callable-class batch parser for ``map_batches`` actor pools.

    ``__init__`` (once per actor) compiles the format string; ``__call__``
    (per batch) runs the parser and appends the extracted field columns +
    ``well_formatted``.
    """

    def __init__(self, format_string: str, text_col: str = "text", normalize: bool = False):
        self.fmt = LineFormat.from_format_string(format_string)
        self.vp = VectorParser(self.fmt)
        self.text_col = text_col
        self.normalize = normalize

    def __call__(self, table: pa.Table) -> pa.Table:
        if self.normalize:
            table = normalize_text(table, self.text_col)
        return self.vp.parse_table(table, self.text_col)


def parse_stage(
    ds,
    format_string: str,
    text_col: str = "text",
    normalize: bool = False,
    batch_size: int | None = None,
    concurrency=None,
):
    """``ds`` -> parsed ``ds`` with field columns + well_formatted appended.

    With ``concurrency`` set this runs as an actor pool (compiled format in
    actor state); otherwise as stateless tasks where each worker process
    still compiles the format only once per task.

    ``batch_size=None`` (default) processes whole blocks as batches: this
    lets Ray fuse the stage INTO the upstream read operator (an explicit
    batch_size forces a separate operator and an object-store hop for every
    read block — measured ~25% wall at 32 CPUs on the flagship), and the
    vectorized parser is fastest on large batches anyway.  Blocks are
    bounded by the read's target block size; the parser guards the 2 GiB
    pathological case explicitly."""
    kwargs = dict(batch_format="pyarrow", batch_size=batch_size, zero_copy_batch=True)
    if concurrency is not None:
        return ds.map_batches(
            ParseBatch,
            fn_constructor_kwargs=dict(
                format_string=format_string, text_col=text_col, normalize=normalize
            ),
            concurrency=concurrency,
            **kwargs,
        )
    parser = ParseBatch(format_string, text_col, normalize)
    return ds.map_batches(parser, **kwargs)
