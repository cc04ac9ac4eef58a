"""Vectorized line parser: the compiled scanner, with a numpy instruction
interpreter over Arrow buffers as its fallback.

The reference executes a compiled instruction vector per line (its
line_parser.cpp:58-98).  :meth:`VectorParser.parse_array` runs that loop in
C (``scan.c``, built and loaded by :mod:`logray.scan`): one call per batch
walks every row by sequential maximal munch and writes the Arrow validity,
value, offset and data buffers directly.  When no compiler is available it runs the
interpreter below instead, which is also the suite's second oracle.

The interpreter flips the loop: instead of iterating instructions per line,
each instruction executes **once per batch across all rows simultaneously**
as numpy kernels over the raw UTF-8 buffer of an Arrow string array
(zero-copy out of the Ray object store).

Per batch we hold:

- ``data``    — the Arrow array's value buffer viewed as ``uint8[nbytes]``;
- ``pos``     — per-row absolute cursor (``int64[n]``), starting at each
  row's offset;
- ``end``     — per-row end offset;
- ``failed``  — rows whose parse already failed.

Each instruction advances ``pos`` for the rows where it executes
(``~failed & (pos < end)``) using byte-class position indexes
(``np.flatnonzero`` + ``np.searchsorted``: "first byte of class C at or
after pos, capped at row end"), so cost is O(batch bytes) per byte class
plus O(rows log positions) per instruction — no Python-per-row work.

Both paths are bit-identical to :mod:`logray.oracle` (the scalar
specification), which the test-suite fuzz-verifies; see that module for the
atol/atof/stop-mode rules being implemented.
"""

from __future__ import annotations

import ctypes

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from logray import scan
from logray.formats import Field, FieldType, LineFormat, StrStop

INT64_MAX = np.iinfo(np.int64).max
INT64_MIN = np.iinfo(np.int64).min

# C isspace bytes
_WS_BYTES = np.frombuffer(b" \t\n\v\f\r", np.uint8)
# whitespace-field bytes: isspace minus '\n' (parse_ws skips these;
# parsing_basics.cpp:71-74); NUL also terminates but NUL is not isspace.
_WSFIELD_BYTES = np.frombuffer(b" \t\v\f\r", np.uint8)


def _class_table(byte_values: np.ndarray) -> np.ndarray:
    t = np.zeros(256, np.bool_)
    t[byte_values] = True
    return t


_IS_C_SPACE = _class_table(_WS_BYTES)
_IS_WSFIELD = _class_table(_WSFIELD_BYTES)
_IS_DIGIT = np.zeros(256, np.bool_)
_IS_DIGIT[ord("0") : ord("9") + 1] = True


def _string_buffer_views(arr: pa.Array) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(data uint8 view, starts, ends) for a string/large_string array.

    Zero-copy: the returned data view aliases the Arrow buffer.  Null rows
    are treated as empty strings (start == end).
    """
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    t = arr.type
    if pa.types.is_large_string(t) or pa.types.is_large_binary(t):
        odt = np.int64
    elif pa.types.is_string(t) or pa.types.is_binary(t):
        odt = np.int32
    else:
        arr = arr.cast(pa.string())
        odt = np.int32
    buffers = arr.buffers()
    n = len(arr)
    offsets = np.frombuffer(buffers[1], odt, count=n + 1, offset=arr.offset * np.dtype(odt).itemsize)
    data = (
        np.frombuffer(buffers[2], np.uint8)
        if buffers[2] is not None
        else np.zeros(0, np.uint8)
    )
    starts = offsets[:-1].astype(np.int64)
    ends = offsets[1:].astype(np.int64)
    if arr.null_count:
        nulls = np.asarray(pc.is_null(arr))
        ends = np.where(nulls, starts, ends)
    return data, starts, ends


def _check_size(data: np.ndarray) -> None:
    """Both paths index a batch with int32 positions or offsets; batches
    this large are an operational error — re-batch upstream (map_batches
    batch_size)."""
    if len(data) >= 2**31:
        raise ValueError(
            f"parse batch value buffer is {len(data)} bytes (>= 2 GiB); "
            "reduce batch_size so per-batch text stays below 2 GiB"
        )


class _ClassIndex:
    """Sorted positions of byte classes over one batch buffer, built lazily
    and shared across instructions."""

    def __init__(self, data: np.ndarray, row_ends: np.ndarray | None = None) -> None:
        self.data = data
        # one pad byte so gathers at == len(data) are safe
        self.padded = np.concatenate([data, np.zeros(1, np.uint8)])
        # last byte of each row: a CR here must NOT pair with the next
        # row's leading LF in the CRLF end-of-line check
        self.is_last_byte = np.zeros(len(data), np.bool_)
        if row_ends is not None and len(row_ends):
            nonempty_ends = row_ends[row_ends > 0] - 1
            self.is_last_byte[nonempty_ends] = True
        self._cache: dict = {}

    # NOTE: all position indexes are int32 (a batch's value buffer is far
    # below 2 GiB) — at 32-way parallelism the halved memory traffic of the
    # index arrays measurably improves scaling.

    def positions(self, key, table: np.ndarray) -> np.ndarray:
        got = self._cache.get(key)
        if got is None:
            got = np.flatnonzero(table[self.data]).astype(np.int32, copy=False)
            self._cache[key] = got
        return got

    def nondigit(self) -> np.ndarray:
        return self.positions("nondigit", ~_IS_DIGIT)

    def non_c_space(self) -> np.ndarray:
        return self.positions("nonspace", ~_IS_C_SPACE)

    def non_wsfield(self) -> np.ndarray:
        return self.positions("nonwsfield", ~_IS_WSFIELD)

    def stop_set(self, key: str, byte_vals: bytes, crlf: bool) -> np.ndarray:
        """Positions where byte in byte_vals, or '\\r' followed by '\\n'
        when crlf (the reference treats CR+LF as end-of-line)."""
        got = self._cache.get(("stop", key))
        if got is None:
            table = _class_table(np.frombuffer(byte_vals, np.uint8))
            mask = table[self.data]
            if crlf:
                is_cr = self.data == 0x0D
                nxt_lf = np.zeros_like(is_cr)
                nxt_lf[:-1] = self.data[1:] == 0x0A
                # CR at a row's last byte never pairs across the boundary
                mask |= is_cr & nxt_lf & ~self.is_last_byte
            got = np.flatnonzero(mask).astype(np.int32, copy=False)
            self._cache[("stop", key)] = got
        return got

    def char_starts(self) -> np.ndarray:
        """Positions of UTF-8 character starts (non-continuation bytes)."""
        got = self._cache.get("charstarts")
        if got is None:
            got = np.flatnonzero((self.data & 0xC0) != 0x80).astype(np.int32, copy=False)
            self._cache["charstarts"] = got
        return got

    def has_non_ascii(self) -> bool:
        got = self._cache.get("nonascii")
        if got is None:
            got = bool((self.data >= 0x80).any())
            self._cache["nonascii"] = got
        return got

    def not_target(self, ch: int) -> np.ndarray:
        got = self._cache.get(("nott", ch))
        if got is None:
            got = np.flatnonzero(self.data != ch).astype(np.int32, copy=False)
            self._cache[("nott", ch)] = got
        return got


def _first_at_or_after(positions: np.ndarray, pos: np.ndarray, end: np.ndarray) -> np.ndarray:
    """For each row: the first position in `positions` >= pos, capped at
    end.  `positions` is sorted ascending."""
    if len(positions) == 0:
        return end.copy()
    idx = np.searchsorted(positions, pos, side="left")
    safe = np.minimum(idx, len(positions) - 1)
    cand = positions[safe]
    return np.where(idx < len(positions), np.minimum(cand, end), end)


def _digits_to_int64(data_padded: np.ndarray, a: np.ndarray, b: np.ndarray, neg: np.ndarray) -> np.ndarray:
    """Vectorized base-10 conversion of digit runs [a, b), negated where
    ``neg``; runs longer than 18 digits saturate the SIGNED value at int64
    bounds (strtol: ``-9223372036854775808`` is representable)."""
    runlen = b - a
    maxlen = int(runlen.max()) if len(runlen) else 0
    val = np.zeros(len(a), np.int64)
    short = runlen <= 18
    for k in range(min(maxlen, 18)):
        m = short & ((a + k) < b)
        if not m.any():
            break
        val[m] = val[m] * 10 + (data_padded[a[m] + k].astype(np.int64) - 48)
    val = np.where(neg, -val, val)
    # rare: long runs — compute exactly with Python ints, saturating
    for i in np.flatnonzero(~short):
        v = int(bytes(data_padded[a[i] : b[i]]).decode())
        val[i] = max(INT64_MIN, min(INT64_MAX, -v if neg[i] else v))
    return val


def parse_dbl_value_at(cidx: _ClassIndex, p: np.ndarray, e: np.ndarray):
    """The reference's ``parse_dbl`` VALUE semantics at positions ``p``
    (row ends ``e``): atof skips C-whitespace and an optional sign, then
    reads digits, at most one dot, and an optional exponent — possibly
    consuming text the parse CURSOR never does (the cursor only advances
    over digits + one dot starting exactly at ``p``); see
    parsing_basics.cpp:15-22.  Returns ``(val float64, ok bool)`` with the
    reference's success rule ``ok = (val != 0) or line[p] == '0'``.

    The numpy interpreter's DBL kernel; ``scan.c``'s ``atof_at`` is its
    compiled twin."""
    dp = cidx.padded
    total = len(cidx.data)
    sk = _first_at_or_after(cidx.non_c_space(), p, e)
    sk_b = dp[np.minimum(sk, total)]
    has_sign = (sk < e) & ((sk_b == ord("-")) | (sk_b == ord("+")))
    d1s = sk + has_sign
    d1e = np.maximum(_first_at_or_after(cidx.nondigit(), d1s, e), d1s)
    has_dot = (d1e < e) & (dp[np.minimum(d1e, total)] == ord("."))
    d2s = d1e + has_dot
    d2e = np.maximum(_first_at_or_after(cidx.nondigit(), d2s, e), d2s)
    tok_end = np.where(has_dot, d2e, d1e)
    ndigits = (d1e - d1s) + np.where(has_dot, d2e - d2s, 0)
    # optional exponent (value only)
    eb = dp[np.minimum(tok_end, total)]
    has_e = (tok_end < e) & ((eb == ord("e")) | (eb == ord("E"))) & (ndigits > 0)
    es = tok_end + has_e
    es_b = dp[np.minimum(es, total)]
    e_sign = has_e & (es < e) & ((es_b == ord("-")) | (es_b == ord("+")))
    exs = es + e_sign
    exe = np.maximum(_first_at_or_after(cidx.nondigit(), exs, e), exs)
    has_exp = has_e & (exe > exs)
    tok_val_end = np.where(has_exp, exe, tok_end)
    val = VectorParser._parse_float_tokens(dp, sk, tok_val_end, ndigits)
    ok = (val != 0.0) | (dp[np.minimum(p, total)] == ord("0"))
    return val, ok


class VectorParser:
    """Compiled, reusable batch parser for one :class:`LineFormat`.

    Build once (per actor / per worker), call :meth:`parse_table` per batch.
    """

    def __init__(self, fmt: LineFormat, enable_re2: bool = True) -> None:
        """``enable_re2`` asks for the compiled scanner (:mod:`logray.scan`);
        its old name is kept because ``perfbench/layers.py`` passes
        ``enable_re2=False`` to time the interpreter alone.  ``path`` records
        the choice: ``"compiled"``, or ``"interpreter"`` when it is off or
        the scanner cannot be built here."""
        self.fmt = fmt
        self.named = fmt.named_fields()  # [(name, field, ordinal)]
        self._named_index = {name: fmt._name_to_index[name] for name, _f, _o in self.named}
        # picklable state only: the library handle is resolved per process
        self.program = scan.program(fmt)
        self.path = "compiled" if enable_re2 and scan.library() is not None else "interpreter"

    # -- core --------------------------------------------------------------

    def parse_array(self, texts) -> dict[str, pa.Array]:
        """Parse a string array; returns {field_name: pa.Array} for every
        named field plus 'well_formatted' (bool).  Fields of malformed rows
        and fields that never executed are null."""
        lib = scan.library() if self.path == "compiled" else None
        if lib is None:
            return self._parse_array_interp(texts)
        data, start, end = _string_buffer_views(texts)
        _check_size(data)
        n = len(start)
        nbytes = int((end - start).sum())
        bitmap = lambda: np.zeros((n + 7) // 8, np.uint8)
        well = bitmap()
        bufs = []  # per slot: validity, values or offsets, string data
        for _name, f, _o in self.named:
            if f.ftype in (FieldType.INT, FieldType.DBL):
                vals = np.empty(n, np.int64 if f.ftype == FieldType.INT else np.float64)
                bufs.append((bitmap(), vals, None))
            else:
                bufs.append((bitmap(), np.zeros(n + 1, np.int32), np.empty(nbytes, np.uint8)))
        ptrs = (ctypes.c_void_p * (3 * len(bufs)))(
            *(None if b is None else b.ctypes.data for slot in bufs for b in slot))
        rc = lib.logray_scan(data.ctypes.data, start.ctypes.data, end.ctypes.data, n,
                             self.program.ctypes.data, len(self.program), well.ctypes.data, ptrs)
        if rc:
            raise MemoryError("line scanner could not allocate its scratch space")
        out: dict[str, pa.Array] = {}
        for (name, f, _o), (valid, vals, text) in zip(self.named, bufs):
            buffers = [pa.py_buffer(valid), pa.py_buffer(vals)]
            if text is not None:
                buffers.append(pa.py_buffer(text[: vals[-1]]))
            out[name] = pa.Array.from_buffers(LineFormat._ARROW[f.ftype], n, buffers)
        out["well_formatted"] = pa.Array.from_buffers(pa.bool_(), n, [None, pa.py_buffer(well)])
        return out

    def _parse_array_interp(self, texts) -> dict[str, pa.Array]:
        """The exact numpy instruction interpreter (always available)."""
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        n = len(texts)
        data, start, end = _string_buffer_views(texts)
        _check_size(data)
        start = start.astype(np.int32, copy=False)
        end = end.astype(np.int32, copy=False)
        cidx = _ClassIndex(data, row_ends=end)
        dp = cidx.padded
        total = len(data)

        pos = start.copy()
        failed = np.zeros(n, np.bool_)
        # per-field-index captures (only for named fields we must output)
        captures: dict[int, tuple] = {}
        want = set(self._named_index.values())

        for fi, f in enumerate(self.fmt.fields):
            ex = (~failed) & (pos < end)
            if not ex.any():
                if fi in want:
                    captures[fi] = self._empty_capture(f, n)
                continue
            p = pos[ex]
            e = end[ex]

            if f.ftype == FieldType.INT:
                # value: atol = skip C-isspace, optional sign, digit run
                # (every byte peek is guarded by < e so a scan that lands on
                # the row end never reads the next row's first byte)
                sk = _first_at_or_after(cidx.non_c_space(), p, e)
                sk_b = dp[np.minimum(sk, total)]
                in_row = sk < e
                neg = in_row & (sk_b == ord("-"))
                has_sign = in_row & ((sk_b == ord("-")) | (sk_b == ord("+")))
                dstart = sk + has_sign
                dend = np.maximum(_first_at_or_after(cidx.nondigit(), dstart, e), dstart)
                val = _digits_to_int64(dp, dstart, dend, neg)
                ok = (val != 0) | (dp[p] == ord("0"))
                # cursor: digit run starting exactly at pos
                newp = _first_at_or_after(cidx.nondigit(), p, e)
                if fi in want:
                    captures[fi] = ("int", ex.copy(), val, ok.copy())
                self._apply(pos, failed, ex, newp, ok)

            elif f.ftype == FieldType.DBL:
                val, ok = parse_dbl_value_at(cidx, p, e)
                # cursor: digits plus at most one '.' starting exactly at pos
                c1e = _first_at_or_after(cidx.nondigit(), p, e)
                c_dot = (c1e < e) & (dp[np.minimum(c1e, total)] == ord("."))
                c2s = c1e + c_dot
                c2e = np.maximum(_first_at_or_after(cidx.nondigit(), c2s, e), c2s)
                newp = np.where(c_dot, c2e, c1e)
                if fi in want:
                    captures[fi] = ("dbl", ex.copy(), val, ok.copy())
                self._apply(pos, failed, ex, newp, ok)

            elif f.ftype == FieldType.CHR:
                t = ord(f.target) if f.target else 0
                ok = dp[p] == t
                newp = p + 1
                if f.repeat:
                    nt = cidx.not_target(t)
                    run_end = _first_at_or_after(nt, newp, e)
                    newp = np.where(ok, run_end, newp)
                if fi in want:
                    captures[fi] = ("chr", ex.copy(), f.target, ok.copy())
                self._apply(pos, failed, ex, newp, ok)

            elif f.ftype == FieldType.STR:
                if f.stop == StrStop.NCHAR:
                    # NCHAR counts CHARACTERS (documented deviation: the
                    # byte-oriented reference counts bytes, but an Arrow
                    # string model cannot represent split UTF-8 codepoints;
                    # identical for ASCII corpora).  Overshoot past the row
                    # end still makes the line malformed via pos==end.
                    if cidx.has_non_ascii():
                        cs = cidx.char_starts()
                        ci = np.searchsorted(cs, p, side="left")
                        ti = ci + f.nchar
                        stop = np.where(
                            ti < len(cs),
                            cs[np.minimum(ti, max(len(cs) - 1, 0))],
                            # ti == len(cs): consumed exactly to buffer end;
                            # beyond that is an overshoot
                            np.where(ti == len(cs), np.int32(total), np.int32(total + 1)),
                        ).astype(p.dtype)
                        # an advance past the row end is an overshoot
                        stop = np.where(stop > e, e + 1, stop)
                    else:
                        stop = p + f.nchar  # may overshoot -> malformed via pos==end check
                elif f.stop == StrStop.DELIM:
                    key = f"delim{ord(f.delim) if f.delim else 0}"
                    bs = bytes([ord(f.delim) if f.delim else 0]) + b"\x00\n"
                    stop = _first_at_or_after(cidx.stop_set(key, bs, crlf=True), p, e)
                else:  # ANY_WS
                    stop = _first_at_or_after(
                        cidx.stop_set("anyws", bytes(_WS_BYTES) + b"\x00", crlf=True), p, e
                    )
                if fi in want:
                    captures[fi] = ("str", ex.copy(), p.copy(), np.minimum(stop, e))
                ok = np.ones(len(p), np.bool_)
                self._apply(pos, failed, ex, stop, ok)

            elif f.ftype == FieldType.WS:
                newp = _first_at_or_after(cidx.non_wsfield(), p, e)
                self._apply(pos, failed, ex, newp, np.ones(len(p), np.bool_))

        well = (~failed) & (pos == end)
        out: dict[str, pa.Array] = {}
        for name, f, _o in self.named:
            fi = self._named_index[name]
            out[name] = self._capture_to_array(captures.get(fi), f, n, well, data)
        out["well_formatted"] = pa.array(well)
        return out

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _apply(pos, failed, ex, newp, ok):
        """Commit an instruction: rows in ex that failed stop; others advance."""
        idx = np.flatnonzero(ex)
        pos[idx[ok]] = newp[ok]
        failed[idx[~ok]] = True

    @staticmethod
    def _empty_capture(f: Field, n: int):
        if f.ftype == FieldType.INT:
            return ("int", np.zeros(n, np.bool_), np.zeros(0, np.int64), np.zeros(0, np.bool_))
        if f.ftype == FieldType.DBL:
            return ("dbl", np.zeros(n, np.bool_), np.zeros(0, np.float64), np.zeros(0, np.bool_))
        if f.ftype == FieldType.CHR:
            return ("chr", np.zeros(n, np.bool_), f.target, np.zeros(0, np.bool_))
        return ("str", np.zeros(n, np.bool_), np.zeros(0, np.int64), np.zeros(0, np.int64))

    @staticmethod
    def _parse_float_tokens(dp, tok_start, tok_end, ndigits) -> np.ndarray:
        """float values for token ranges [tok_start, tok_end); rows with no
        digits get 0.0.  Token text is valid float syntax by construction, so
        conversion is one Arrow cast over a zero-copy-built array, which
        rounds as Python's float does (overflow to inf, underflow to 0)."""
        has = ndigits > 0
        n = len(tok_start)
        val = np.zeros(n, np.float64)
        if not has.any():
            return val
        s = tok_start[has]
        t = np.maximum(tok_end[has], s)
        lens = (t - s).astype(np.int64)
        offs = np.zeros(len(s) + 1, np.int64)
        np.cumsum(lens, out=offs[1:])
        gather = np.repeat(s, lens) + (np.arange(offs[-1], dtype=np.int64) - np.repeat(offs[:-1], lens))
        buf = dp[gather]
        arr = pa.LargeStringArray.from_buffers(
            len(s), pa.py_buffer(offs.tobytes()), pa.py_buffer(buf.tobytes())
        )
        val[has] = np.asarray(pc.cast(arr, pa.float64()))
        return val

    @staticmethod
    def _substrings(data: np.ndarray, s: np.ndarray, e: np.ndarray, valid: np.ndarray) -> pa.Array:
        """Build a string array from per-row [s, e) ranges of `data`; rows
        with valid==False become null."""
        n = len(s)
        s = np.where(valid, s, 0)
        e = np.where(valid, np.maximum(e, s), 0)
        lens = (e - s).astype(np.int64)
        offs = np.zeros(n + 1, np.int64)
        np.cumsum(lens, out=offs[1:])
        total = int(offs[-1])
        if total:
            gather = np.repeat(s, lens) + (np.arange(total, dtype=np.int64) - np.repeat(offs[:-1], lens))
            buf = data[gather]
        else:
            buf = np.zeros(0, np.uint8)
        arr = pa.LargeStringArray.from_buffers(
            n, pa.py_buffer(offs.tobytes()), pa.py_buffer(buf.tobytes())
        ).cast(pa.string())
        if valid.all():
            return arr
        return pc.if_else(pa.array(valid), arr, pa.scalar(None, pa.string()))

    def _capture_to_array(self, cap, f: Field, n: int, well: np.ndarray, data: np.ndarray) -> pa.Array:
        kind = {FieldType.INT: "int", FieldType.DBL: "dbl", FieldType.CHR: "chr", FieldType.STR: "str"}[f.ftype]
        if cap is None:
            cap = self._empty_capture(f, n)
        _k, ex, a, b = cap
        if kind == "int":
            vals = np.zeros(n, np.int64)
            valid = np.zeros(n, np.bool_)
            idx = np.flatnonzero(ex)
            vals[idx] = a
            valid[idx] = b
            valid &= well
            return pa.array(vals, pa.int64(), mask=~valid)
        if kind == "dbl":
            vals = np.zeros(n, np.float64)
            valid = np.zeros(n, np.bool_)
            idx = np.flatnonzero(ex)
            vals[idx] = a
            valid[idx] = b
            valid &= well
            return pa.array(vals, pa.float64(), mask=~valid)
        if kind == "chr":
            valid = np.zeros(n, np.bool_)
            idx = np.flatnonzero(ex)
            valid[idx] = b
            valid &= well
            return pc.if_else(pa.array(valid), pa.scalar(a, pa.string()), pa.scalar(None, pa.string()))
        # str
        ss = np.zeros(n, np.int64)
        ee = np.zeros(n, np.int64)
        valid = np.zeros(n, np.bool_)
        idx = np.flatnonzero(ex)
        ss[idx] = a
        ee[idx] = b
        valid[idx] = True
        valid &= well
        return self._substrings(data, ss, ee, valid)

    # -- table-level API ----------------------------------------------------

    def parse_table(self, table: pa.Table, text_col: str = "text") -> pa.Table:
        """Append extracted field columns + well_formatted to `table`.
        This is the body of the ParseBatch map_batches stage."""
        cols = self.parse_array(table[text_col])
        for name, arr in cols.items():
            if name in table.column_names:
                table = table.drop_columns([name])
            table = table.append_column(name, arr)
        return table
