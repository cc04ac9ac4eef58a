/* Compiled line scanner: a LineFormat's instruction list run row by row by
 * sequential maximal munch (the reference's line_parser.cpp:58-98 loop),
 * writing Arrow buffers directly.  Every rule is logray.oracle.parse_line's,
 * byte for byte; logray/scan.py builds and loads this file, and
 * logray/vparse.py lays out the buffers. */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { INT, DBL, CHR, STR_NCHAR, STR_DELIM, STR_ANYWS, WS };

/* op; a = CHR/DELIM target bytes or the NCHAR count; len = target byte
 * length; repeat (CHR); slot = output index, or -1 when not output */
typedef struct { int32_t op, a, len, repeat, slot; } Instr;
typedef struct { int64_t s, e, i; double f; } Cap;

static int sp(uint8_t c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
static int dg(uint8_t c) { return c >= '0' && c <= '9'; }

/* end of line at i: row end, NUL, LF, or CR+LF inside the row */
static int eol(const uint8_t *d, int64_t i, int64_t e) {
    return i >= e || !d[i] || d[i] == '\n' || (d[i] == '\r' && i + 1 < e && d[i + 1] == '\n');
}

/* the instruction's target bytes start at i */
static int at(const uint8_t *d, int64_t i, int64_t e, const Instr *in) {
    return i + in->len <= e && !memcmp(d + i, &in->a, in->len);
}

/* atol on [i, e): spaces, optional sign, digits; saturates at int64 bounds */
static int64_t atol_at(const uint8_t *d, int64_t i, int64_t e) {
    const uint64_t lim = (uint64_t)1 << 63;
    uint64_t m = 0;
    int neg = 0;
    while (i < e && sp(d[i])) i++;
    if (i < e && (d[i] == '-' || d[i] == '+')) neg = d[i++] == '-';
    for (; i < e && dg(d[i]); i++) m = m > lim / 10 ? lim : m * 10 + (d[i] - '0');
    if (m >= lim) return neg ? INT64_MIN : INT64_MAX;
    return neg ? -(int64_t)m : (int64_t)m;
}

/* atof on [i, e) over the oracle's token: spaces, sign, digits with at most
 * one '.', then an exponent only when it has digits.  strtod on a
 * NUL-terminated copy rounds as Python's float does; tok holds a row. */
static double atof_at(const uint8_t *d, int64_t i, int64_t e, char *tok) {
    int64_t s, j, x, digits = 0;
    while (i < e && sp(d[i])) i++;
    s = i;
    if (i < e && (d[i] == '-' || d[i] == '+')) i++;
    for (; i < e && dg(d[i]); i++) digits++;
    if (i < e && d[i] == '.')
        for (i++; i < e && dg(d[i]); i++) digits++;
    if (!digits) return 0.0;
    if (i < e && (d[i] == 'e' || d[i] == 'E')) {
        j = i + 1;
        if (j < e && (d[j] == '-' || d[j] == '+')) j++;
        for (x = j; j < e && dg(d[j]); j++);
        if (j > x) i = j;
    }
    memcpy(tok, d + s, i - s);
    tok[i - s] = 0;
    return strtod(tok, NULL);
}

/* Parse rows [starts[r], ends[r]) of d.  Sets bit r of well for a
 * well-formatted row.  out holds three buffers per slot: the validity
 * bitmap, then the int64/float64 values, or the int32 offsets and the data
 * of a string.  Bitmaps and offsets[0] arrive zeroed.  Returns -1 when
 * scratch memory cannot be had, else 0. */
int64_t logray_scan(const uint8_t *d, const int64_t *starts, const int64_t *ends, int64_t n,
                    const Instr *prog, int32_t nf, uint8_t *well, void **out) {
    int64_t r, p, e, len, maxlen = 0;
    int32_t k, failed;
    for (r = 0; r < n; r++)
        if (ends[r] - starts[r] > maxlen) maxlen = ends[r] - starts[r];
    Cap *cap = malloc((nf ? nf : 1) * sizeof *cap);
    char *tok = malloc(maxlen + 1);
    if (!cap || !tok) {
        free(cap);
        free(tok);
        return -1;
    }
    for (r = 0; r < n; r++) {
        p = starts[r];
        e = ends[r];
        failed = 0;
        for (k = 0; k < nf && p < e && !failed; k++) {
            const Instr *in = &prog[k];
            Cap *c = &cap[k];
            c->s = p;
            switch (in->op) {
            case INT:
                c->i = atol_at(d, p, e);
                failed = c->i == 0 && d[p] != '0';
                while (p < e && dg(d[p])) p++;
                break;
            case DBL:
                c->f = atof_at(d, p, e, tok);
                failed = c->f == 0.0 && d[p] != '0';
                while (p < e && dg(d[p])) p++;
                if (p < e && d[p] == '.')
                    for (p++; p < e && dg(d[p]); p++);
                break;
            case CHR:
                failed = !at(d, p, e, in);
                p += in->len;
                while (in->repeat && !failed && at(d, p, e, in)) p += in->len;
                break;
            case STR_NCHAR: /* counts UTF-8 characters; may step past e */
                for (int32_t j = 0; j < in->a && p <= e; j++)
                    for (p++; p < e && (d[p] & 0xC0) == 0x80; p++);
                break;
            case STR_DELIM:
                while (!eol(d, p, e) && !at(d, p, e, in)) p++;
                break;
            case STR_ANYWS:
                while (!eol(d, p, e) && !sp(d[p])) p++;
                break;
            case WS:
                while (p < e && d[p] != '\n' && sp(d[p])) p++;
                break;
            }
            c->e = in->op == CHR ? c->s + in->len : p < e ? p : e;
        }
        int ok = !failed && p == e;
        if (ok) well[r >> 3] |= 1 << (r & 7);
        for (int32_t f = 0; f < nf; f++) {
            const Instr *in = &prog[f];
            if (in->slot < 0) continue;
            void **o = out + 3 * in->slot;
            int v = ok && f < k;
            if (v) ((uint8_t *)o[0])[r >> 3] |= 1 << (r & 7);
            if (in->op == INT) {
                ((int64_t *)o[1])[r] = v ? cap[f].i : 0;
            } else if (in->op == DBL) {
                ((double *)o[1])[r] = v ? cap[f].f : 0.0;
            } else {
                int32_t *off = o[1];
                len = v ? cap[f].e - cap[f].s : 0;
                if (len) memcpy((uint8_t *)o[2] + off[r], d + cap[f].s, len);
                off[r + 1] = off[r] + (int32_t)len;
            }
        }
    }
    free(cap);
    free(tok);
    return 0;
}
