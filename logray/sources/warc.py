"""WARC (ISO 28500) web-crawl container source/sink.

The wire format a crawl actually arrives in: a WARC file is a
concatenation of records, each a header block (``WARC/1.0`` version
line + ``Name: value`` headers, CRLF line ends, blank-line terminated)
followed by exactly ``Content-Length`` payload bytes and a CRLF CRLF
record separator.  The CommonCrawl convention compresses each record as
its own gzip MEMBER so readers can split files at member boundaries;
a multi-member gzip file is itself a valid gzip stream, which is what
the reader decompresses.

Ray shape: the sink writes one ``part-NNNNN.warc[.gz]`` per input
block via ``Dataset.map_batches`` over a shared serializer (the
resumable many-files layout, never one giant file); the reader is
``read_binary_files`` (one block per file — WARC shards are sized ~1 GB
by convention, so file == block is the right granularity) followed by a
vectorizable record-splitting map.  Payloads stay ``binary``; text
decoding is the caller's transform, like the multimodal columns.

Reference parity: the reference ingests raw log files and splits them
into line records (`/root/reference/src/file_parsing/log_parser_interface.hpp`
LineBlock paging); this module is the same ingest stage for the
web-crawl container format instead of newline-delimited text.
"""

from __future__ import annotations

import gzip
import io

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from logray.stages.bucketing import isin_sorted
from logray.state.manifest import publish

__all__ = ["read_warc", "write_warc", "read_warc_cdx",
           "read_warc_select", "fetch_warc_record", "WARC_SCHEMA"]

WARC_SCHEMA = pa.schema([
    ("warc_file", pa.string()),
    ("rec_idx", pa.int64()),
    ("warc_type", pa.string()),
    ("record_id", pa.string()),
    ("url", pa.string()),
    ("ts", pa.timestamp("us")),
    ("mime", pa.string()),
    ("payload", pa.binary()),
])

_CRLF = b"\r\n"


def _serialize_records(urls, tss, mimes, payloads, warc_types,
                       record_ids, compress: bool):
    """One WARC file's bytes for a batch of records, plus the byte
    (offset, length) of each record within the file — the CDX
    ingredients (with per-record gzip members each record IS its own
    member, so a range read decompresses standalone)."""
    out = io.BytesIO()
    offsets, lengths = [], []
    for i in range(len(urls)):
        body = payloads[i] if payloads[i] is not None else b""
        ts = tss[i]
        iso = (np.datetime_as_string(ts, unit="s") + "Z") \
            if ts is not None else "1970-01-01T00:00:00Z"
        hdr = (
            b"WARC/1.0\r\n"
            + b"WARC-Type: " + warc_types[i].encode() + _CRLF
            + b"WARC-Record-ID: " + record_ids[i].encode() + _CRLF
            + b"WARC-Date: " + iso.encode() + _CRLF
            + b"WARC-Target-URI: " + urls[i].encode() + _CRLF
            + b"Content-Type: " + mimes[i].encode() + _CRLF
            + b"Content-Length: " + str(len(body)).encode() + _CRLF
            + _CRLF
        )
        rec = hdr + body + _CRLF + _CRLF
        if compress:
            rec = gzip.compress(rec, mtime=0)
        offsets.append(out.tell())
        lengths.append(len(rec))
        out.write(rec)
    return out.getvalue(), offsets, lengths


def _parse_warc_bytes(raw: bytes, fname: str) -> pa.Table:
    """Split one (already-decompressed) WARC byte stream into records.

    Header parsing is per-record but each header block is tiny and
    bounded (the payload — the actual data volume — is sliced, never
    scanned); the per-file loop is the same shape as the rawlog line
    splitter."""
    cols = {k: [] for k in ("warc_type", "record_id", "url",
                            "ts", "mime")}
    payloads: list[bytes] = []
    pos, n, idx = 0, len(raw), 0
    while pos < n:
        # tolerate separator slack, then expect a version line
        while pos < n and raw[pos:pos + 2] == _CRLF:
            pos += 2
        if pos >= n:
            break
        end_hdr = raw.find(b"\r\n\r\n", pos)
        if end_hdr < 0:
            raise ValueError(f"{fname}: truncated WARC header at {pos}")
        lines = raw[pos:end_hdr].split(_CRLF)
        if not lines[0].startswith(b"WARC/"):
            raise ValueError(
                f"{fname}: expected WARC version line at {pos}, "
                f"got {lines[0][:40]!r}")
        hdrs = {}
        for ln in lines[1:]:
            k, _, v = ln.partition(b":")
            hdrs[k.strip().lower()] = v.strip()
        clen = int(hdrs[b"content-length"])
        body_start = end_hdr + 4
        if body_start + clen > n:
            raise ValueError(
                f"{fname}: truncated WARC record at {pos} — header "
                f"promises {clen} payload bytes, only "
                f"{n - body_start} remain")
        payloads.append(raw[body_start:body_start + clen])
        cols["warc_type"].append(hdrs.get(b"warc-type", b"").decode())
        cols["record_id"].append(hdrs.get(b"warc-record-id", b"").decode())
        cols["url"].append(hdrs.get(b"warc-target-uri", b"").decode())
        cols["ts"].append(hdrs.get(b"warc-date", b"").decode() or None)
        cols["mime"].append(hdrs.get(b"content-type", b"").decode())
        pos = body_start + clen + 4  # CRLF CRLF record separator
        idx += 1
    # WARC/1.1 allows fractional seconds — strip them (whole-second
    # granularity) instead of aborting the file on one such record
    ts_str = pc.replace_substring_regex(
        pa.array(cols["ts"], pa.string()),
        pattern=r"\.[0-9]+Z$", replacement="Z")
    ts = pc.cast(
        pc.strptime(ts_str, format="%Y-%m-%dT%H:%M:%SZ", unit="s"),
        pa.timestamp("us"))
    return pa.table({
        "warc_file": pa.array([fname] * idx, pa.string()),
        "rec_idx": pa.array(np.arange(idx, dtype=np.int64)),
        "warc_type": pa.array(cols["warc_type"], pa.string()),
        "record_id": pa.array(cols["record_id"], pa.string()),
        "url": pa.array(cols["url"], pa.string()),
        "ts": ts,
        "mime": pa.array(cols["mime"], pa.string()),
        "payload": pa.array(payloads, pa.binary()),
    })


def read_warc(paths, **read_kwargs):
    """Read ``.warc`` / ``.warc.gz`` files into the WARC record schema —
    one row per record, payload as ``binary``.

    ``read_binary_files(include_paths=True)`` gives one (path, bytes)
    row per file; gzip members decompress as one stream (multi-member
    gzip is self-delimiting).  Each file parses independently — the
    stage fuses into downstream maps and scales with file count.
    Only ``warc`` / ``gz`` extensions are read, so a ``cdx/`` parquet
    sidecar inside the archive directory is skipped, not mis-parsed.
    """
    import ray.data as rd

    # default extension filter keeps cdx/ parquet sidecars out of the
    # parse; unconventionally-named WARC files can opt out with an
    # explicit file_extensions=None (read everything) or a custom list
    default_filter = "file_extensions" not in read_kwargs
    if default_filter:
        read_kwargs["file_extensions"] = ["warc", "gz"]
    ds = rd.read_binary_files(paths, include_paths=True, **read_kwargs)

    def parse(t: pa.Table) -> pa.Table:
        outs = []
        paths_col = t["path"].to_pylist()
        bytes_col = t["bytes"].to_pylist()
        if default_filter:
            # file_extensions matches only the LAST extension, so a
            # stray non-WARC gzip (logs.csv.gz) would reach the parser
            # and abort the whole read — under the default filter,
            # require the compound .warc / .warc.gz suffix and skip
            # the rest like the cdx/ sidecars; a custom
            # file_extensions list parses everything it matched.
            keep = [i for i, p in enumerate(paths_col)
                    if p.endswith(".warc") or p.endswith(".warc.gz")]
            paths_col = [paths_col[i] for i in keep]
            bytes_col = [bytes_col[i] for i in keep]
        for fname, raw in zip(paths_col, bytes_col):
            if raw[:2] == b"\x1f\x8b":
                raw = gzip.decompress(raw)
            outs.append(_parse_warc_bytes(raw, fname))
        return (pa.concat_tables(outs) if outs
                else WARC_SCHEMA.empty_table())

    return ds.map_batches(parse, batch_format="pyarrow",
                          zero_copy_batch=True)


def write_warc(ds, path: str, url_col: str = "url", ts_col: str = "ts",
               mime_col: str = "mime", payload_col: str = "payload",
               warc_type: str = "response", compress: bool = True,
               cdx: bool = False):
    """Write a Dataset as a directory of WARC part files (one per input
    block — the resumable many-files layout).  ``compress=True`` emits
    the CommonCrawl per-record gzip-member convention.

    ``cdx=True`` also writes a ``cdx/`` parquet sidecar mapping
    ``url -> (warc_file, offset, length)`` — the CommonCrawl CDX index
    pattern: a consumer fetches ONE record with a byte-range read
    (:func:`fetch_warc_record`) instead of scanning the archive, which
    is the difference between a point lookup and a 1 GB stream at
    crawl scale.

    Record ids are deterministic ``urn:logray:<part>:<idx>`` (a pure
    function of block content and position, so a re-run produces
    identical bytes per part file).  Rerun contract: write into a FRESH
    (or cleaned) directory — byte-identical blocks claim atomic
    occurrence slots (``-1``, ``-2``, ...) rather than overwriting each
    other, so a rerun into a non-empty directory APPENDS duplicate
    slots for the blocks both attempts wrote (the slot mechanism exists
    so two DISTINCT input blocks with identical content are both kept;
    see the serializer comment below).  A retried emit task does the same
    within one run; record ids embed the slot names, so a retry-stable
    batch id cannot replace them without changing the output bytes."""
    import os

    os.makedirs(path, exist_ok=True)
    if cdx:
        os.makedirs(os.path.join(path, "cdx"), exist_ok=True)
    ext = ".warc.gz" if compress else ".warc"

    def emit(t: pa.Table, ctx=None) -> pa.Table:
        urls = t[url_col].to_pylist()
        tss = t[ts_col].to_pylist() if ts_col in t.column_names \
            else [None] * len(urls)
        tss = [np.datetime64(v, "s") if v is not None else None
               for v in tss]
        mimes = (t[mime_col].to_pylist() if mime_col in t.column_names
                 else ["application/octet-stream"] * len(urls))
        pays = t[payload_col].to_pylist()
        # part name = 64-bit blake2b over the serialized records:
        # blocks that differ ANYWHERE (urls, payloads, timestamps) get
        # distinct names.  (A url-only crc32 collided two snapshots of
        # the same pages and silently lost one.)  Two DISTINCT blocks
        # whose records are byte-identical (fully duplicated rows split
        # into equal blocks) share a tag — those take atomic occurrence
        # slots (-1, -2, ...) instead of silently overwriting each
        # other, so the on-disk record count matches the input.
        # Serialize with placeholder ids first, name from the content,
        # then re-serialize with the name-bearing ids.
        import hashlib

        blob0, _, _ = _serialize_records(
            urls, tss, mimes, pays, [warc_type] * len(urls),
            [""] * len(urls), False)
        tag = hashlib.blake2b(blob0, digest_size=8).hexdigest()
        k = 0
        while True:
            part = f"part-{tag}-{len(urls)}" + (f"-{k}" if k else "")
            rec_ids = [f"urn:logray:{part}:{i}"
                       for i in range(len(urls))]
            blob, offs, lens = _serialize_records(
                urls, tss, mimes, pays, [warc_type] * len(urls),
                rec_ids, compress)
            fn = os.path.join(path, part + ext)
            tmp = f"{fn}.{os.getpid()}.tmp"
            with open(tmp, "wb") as f:
                f.write(blob)
            try:
                # link-then-unlink publishes atomically AND claims the
                # slot: EEXIST means another block with the same tag
                # (identical content by construction) already owns it —
                # take the next slot.  A crashed write never
                # half-exists; a rerun into a NON-EMPTY dir appends
                # duplicate occurrence slots — write reruns to a fresh
                # (or cleaned) directory.
                os.link(tmp, fn)
                os.unlink(tmp)
                break
            except FileExistsError:
                os.unlink(tmp)
                k += 1
        if cdx:
            import pyarrow.parquet as pq

            idx = pa.table({
                "url": pa.array(urls, pa.string()),
                "mime": pa.array(mimes, pa.string()),
                "warc_file": pa.array([fn] * len(urls), pa.string()),
                "offset": pa.array(offs, pa.int64()),
                "length": pa.array(lens, pa.int64()),
            })
            publish(os.path.join(path, "cdx", part + ".parquet"),
                    lambda tmp: pq.write_table(idx, tmp))
        return pa.table({"file": pa.array([fn]),
                         "records": pa.array([len(urls)], pa.int64()),
                         "bytes": pa.array([len(blob)], pa.int64())})

    stats = ds.map_batches(emit, batch_format="pyarrow").take_all()
    return {"files": len(stats),
            "records": int(sum(r["records"] for r in stats)),
            "bytes": int(sum(r["bytes"] for r in stats))}


def read_warc_cdx(path, **read_kwargs):
    """The CDX sidecar as a Dataset: (url, mime, warc_file, offset,
    length).  Narrow (no payload) — join/filter it, then point-fetch."""
    import os

    import ray.data as rd

    return rd.read_parquet(os.path.join(path, "cdx"), **read_kwargs)


def fetch_warc_record(warc_file: str, offset: int, length: int) -> dict:
    """Byte-range point lookup: read ``length`` bytes at ``offset``,
    decompress the standalone gzip member if present, parse the single
    record.  O(record), never O(file)."""
    with open(warc_file, "rb") as f:
        f.seek(offset)
        raw = f.read(length)
    if raw[:2] == b"\x1f\x8b":
        raw = gzip.decompress(raw)
    t = _parse_warc_bytes(raw, warc_file)
    if t.num_rows != 1:
        raise ValueError(
            f"{warc_file}@{offset}+{length}: expected 1 record, "
            f"got {t.num_rows}")
    row = {k: t[k][0].as_py() for k in t.column_names}
    row["rec_idx"] = None  # positional index is file-scoped, not known here
    return row


def read_warc_select(path, urls=None, **read_kwargs):
    """Selective archive read driven by the CDX index: load ONLY the
    records whose url is in ``urls`` (None = all indexed records),
    fetching each with a byte-range read — O(selected records), never
    O(archive).  The cdx table streams as a Dataset; each batch of
    index rows groups by warc_file, opens it once, seeks per record.

    The scale contract: selection cost is proportional to the CDX
    (16-100 bytes/record) plus the selected payload bytes — a 1%%
    selection over a 1 TB archive reads ~10 GB, not 1 TB.
    """
    import ray.data as rd  # noqa: F401  (read_warc_cdx returns a Dataset)

    idx = read_warc_cdx(path, **read_kwargs)
    if urls is not None:
        wanted = sorted(set(urls))
        want_ref = ray.put(np.array(wanted, dtype=object))

        def keep(t: pa.Table) -> pa.Table:
            u = t["url"]
            if isinstance(u, pa.ChunkedArray):
                u = u.combine_chunks()
            hit = isin_sorted(u.to_numpy(zero_copy_only=False),
                              ray.get(want_ref))
            return t.filter(pa.array(hit))

        idx = idx.map_batches(keep, batch_format="pyarrow",
                              zero_copy_batch=True)

    def fetch(t: pa.Table) -> pa.Table:
        files = t["warc_file"].to_pylist()
        offs = t["offset"].to_pylist()
        lens = t["length"].to_pylist()
        order = sorted(range(len(files)),
                       key=lambda i: (files[i], offs[i]))
        outs = []
        handle, handle_name = None, None
        try:
            for i in order:
                if files[i] != handle_name:
                    if handle is not None:
                        handle.close()
                    handle = open(files[i], "rb")
                    handle_name = files[i]
                handle.seek(offs[i])
                raw = handle.read(lens[i])
                if raw[:2] == b"\x1f\x8b":
                    raw = gzip.decompress(raw)
                one = _parse_warc_bytes(raw, files[i])
                if one.num_rows != 1:
                    raise ValueError(
                        f"{files[i]}@{offs[i]}+{lens[i]}: CDX byte "
                        f"range parsed to {one.num_rows} records "
                        "(stale or corrupt index)")
                outs.append(one)
        finally:
            if handle is not None:
                handle.close()
        if not outs:
            return WARC_SCHEMA.empty_table()
        t = pa.concat_tables(outs)
        # the positional index is file-scoped and unknown from a byte
        # range — null it (same contract as fetch_warc_record)
        return t.set_column(
            t.schema.get_field_index("rec_idx"), "rec_idx",
            pa.nulls(t.num_rows, pa.int64()))

    return idx.map_batches(fetch, batch_format="pyarrow",
                           zero_copy_batch=True)
