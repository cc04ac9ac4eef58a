"""Multimodal column plumbing: opaque binary payloads + typed metadata.

Images / audio / video travel as Arrow ``binary`` columns with sidecar
metadata columns (mime, width/height or sample rate, nbytes).  Each stage
has TWO kernels:

- ``fake=False`` — the REAL decode path, behind import guards: Pillow for
  images, the stdlib ``wave`` module (always present) or ``soundfile`` for
  audio, ``av`` (PyAV) for video frame sampling.  Where the needed library
  is missing the stage raises with a clear message at construction time
  (actor ``__init__``), not mid-stream.
- ``fake=True`` (default, loudly logged once per actor) — deterministic
  pseudo-features derived from payload bytes, so pipelines, tests and the
  driver gate run end-to-end in containers without media libraries.

Batch sizing note: binary payloads are large — these stages default to
``batch_size=256`` so batch x concurrency stays within worker heaps; tune
with the payload size.
"""

from __future__ import annotations

import io
import logging

import numpy as np
import pyarrow as pa

from logray.functions.fingerprint import content_hash

logger = logging.getLogger("logray.multimodal")

DEFAULT_BATCH_SIZE = 256


def synth_media_table(n: int = 64, seed: int = 42, payload_bytes: int = 4096) -> pa.Table:
    """Deterministic fake media corpus (opaque byte blobs + metadata)."""
    rng = np.random.default_rng(seed)
    payloads = [rng.integers(0, 256, payload_bytes, dtype=np.uint8).tobytes() for _ in range(n)]
    mimes = [("image/png", "audio/wav", "video/mp4")[i % 3] for i in range(n)]
    return pa.table(
        {
            "media_id": pa.array(range(n), pa.int64()),
            "mime": pa.array(mimes),
            "payload": pa.array(payloads, pa.binary()),
            "nbytes": pa.array([len(p) for p in payloads], pa.int64()),
        }
    )


def synth_png_bytes(width: int = 48, height: int = 32, seed: int = 0) -> bytes:
    """A real, decodable RGB PNG payload (stdlib codec) — used by tests and
    as a sample input for the real image path."""
    from logray.functions.png import encode_png

    rng = np.random.default_rng(seed)
    y, x = np.mgrid[0:height, 0:width]
    arr = np.stack([
        ((x * 255) // max(width - 1, 1)).astype(np.uint8),
        ((y * 255) // max(height - 1, 1)).astype(np.uint8),
        rng.integers(0, 256, (height, width), dtype=np.uint8),
    ], axis=2)
    return encode_png(arr)


def synth_gif_bytes(width: int = 40, height: int = 30, n_frames: int = 5,
                    seed: int = 0) -> bytes:
    """A real, decodable animated GIF payload (stdlib codec) — used by
    tests and as a sample input for the real video path."""
    from logray.functions.gif import encode_gif

    rng = np.random.default_rng(seed)
    base = rng.integers(0, 256, (height, width), dtype=np.uint8)
    frames = [np.roll(base, 3 * k, axis=1) for k in range(n_frames)]
    return encode_gif(frames)


def synth_media_table_real(n: int = 64, seed: int = 42) -> pa.Table:
    """Like :func:`synth_media_table` but with REAL decodable payloads:
    PNG images (stdlib codec), WAV audio (stdlib wave) and animated GIF
    video (stdlib codec), round-robin."""
    rows_mime, rows_payload = [], []
    for i in range(n):
        if i % 3 == 0:
            rows_mime.append("image/png")
            rows_payload.append(synth_png_bytes(32 + (i % 5) * 8, 24 + (i % 3) * 8,
                                                seed=seed + i))
        elif i % 3 == 1:
            rows_mime.append("audio/wav")
            rows_payload.append(synth_wav_bytes(0.05 + (i % 4) * 0.01,
                                                freq=220.0 + 10 * i))
        else:
            rows_mime.append("image/gif")
            rows_payload.append(synth_gif_bytes(24 + (i % 4) * 8,
                                                18 + (i % 3) * 6,
                                                n_frames=3 + i % 4,
                                                seed=seed + i))
    return pa.table({
        "media_id": pa.array(range(n), pa.int64()),
        "mime": pa.array(rows_mime),
        "payload": pa.array(rows_payload, pa.binary()),
        "nbytes": pa.array([len(p) for p in rows_payload], pa.int64()),
    })


def synth_wav_bytes(seconds: float = 0.25, rate: int = 16000, freq: float = 440.0) -> bytes:
    """A real, decodable mono 16-bit WAV payload (stdlib only) — used by
    tests and as a sample input for the real audio path."""
    import wave

    n = int(seconds * rate)
    samples = (np.sin(2 * np.pi * freq * np.arange(n) / rate) * 20000).astype("<i2")
    buf = io.BytesIO()
    with wave.open(buf, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(rate)
        w.writeframes(samples.tobytes())
    return buf.getvalue()


def _warn_fake(stage: str) -> None:
    logger.warning(
        "%s running with fake=True: producing DETERMINISTIC PSEUDO-FEATURES, "
        "not real decoded media (pass fake=False with the decoder library "
        "installed for the real path)", stage,
    )


class DecodeImageBatch:
    """image payload -> (width, height, channels) metadata + thumbnail bytes.

    Real path (``fake=False``): Pillow decode when installed (any format
    Pillow reads); otherwise the pure-stdlib PNG codec
    (:mod:`logray.functions.png`) decodes ``image/png`` payloads — real
    pixels, in-container, no dependencies — and non-PNG formats raise
    with a clear message.  Thumbnails are nearest-neighbor downscales
    re-encoded as PNG.  Fake path: deterministic pseudo-dims from the
    payload hash; "thumbnail" = first 64 payload bytes."""

    def __init__(self, fake: bool = True, thumb_px: int = 32):
        self.fake = fake
        self.thumb_px = thumb_px
        if fake:
            _warn_fake("DecodeImageBatch")
        else:
            try:
                from PIL import Image

                self._Image = Image
            except ImportError:  # pure-stdlib PNG fallback
                self._Image = None

    def _real(self, t: pa.Table) -> pa.Table:
        from logray.functions import png as pngc

        widths, heights, channels, thumbs = [], [], [], []
        for p in t["payload"]:
            data = p.as_py()
            if self._Image is not None:
                img = self._Image.open(io.BytesIO(data))
                widths.append(img.width)
                heights.append(img.height)
                channels.append(len(img.getbands()))
                img.thumbnail((self.thumb_px, self.thumb_px))
                out = io.BytesIO()
                img.save(out, format="PNG")
                thumbs.append(out.getvalue())
                continue
            if data[:8] != b"\x89PNG\r\n\x1a\n":
                raise NotImplementedError(
                    "DecodeImageBatch(fake=False) without Pillow decodes "
                    "PNG only (stdlib codec); install Pillow for other "
                    "formats")
            arr = pngc.decode_png(data)
            heights.append(arr.shape[0])
            widths.append(arr.shape[1])
            channels.append(arr.shape[2])
            thumbs.append(pngc.encode_png(pngc.thumbnail(arr, self.thumb_px)))
        return (
            t.append_column("width", pa.array(widths, pa.int64()))
            .append_column("height", pa.array(heights, pa.int64()))
            .append_column("channels", pa.array(channels, pa.int64()))
            .append_column("thumbnail", pa.array(thumbs, pa.binary()))
        )

    def __call__(self, t: pa.Table) -> pa.Table:
        if not self.fake:
            return self._real(t)
        # content_hash reads the raw Arrow buffer; binary columns share the
        # string layout so no cast is needed
        h = content_hash(t["payload"])
        width = (h % np.uint64(1920) + np.uint64(64)).astype(np.int64)
        height = (h // np.uint64(7) % np.uint64(1080) + np.uint64(64)).astype(np.int64)
        thumbs = [bytes(p.as_py()[:64]) for p in t["payload"]]
        return (
            t.append_column("width", pa.array(width))
            .append_column("height", pa.array(height))
            .append_column("channels", pa.array(np.full(len(h), 3, np.int64)))
            .append_column("thumbnail", pa.array(thumbs, pa.binary()))
        )


def _byte_stat_features(b: np.ndarray, dim: int) -> np.ndarray:
    if not len(b):
        return np.zeros(dim, np.float32)
    qs = np.quantile(b, np.linspace(0, 1, dim - 2))
    return np.concatenate([[b.mean(), b.std()], qs]).astype(np.float32)


class ExtractAudioFeaturesBatch:
    """audio payload -> (duration_s, sample_rate, embedding list<float>).

    Real path (``fake=False``): WAV via the stdlib ``wave`` module (always
    available), anything else via ``soundfile`` when installed; features are
    mean/std/quantiles of the decoded normalized samples.  Fake path:
    the same statistics over raw payload BYTES (no decode)."""

    def __init__(self, fake: bool = True, dim: int = 8):
        self.fake = fake
        self.dim = dim
        if fake:
            _warn_fake("ExtractAudioFeaturesBatch")
        else:
            try:
                import soundfile  # noqa: F401

                self._soundfile = soundfile
            except ImportError:
                self._soundfile = None  # WAV-only via stdlib wave

    @staticmethod
    def _pcm_to_float(raw: bytes, width: int) -> np.ndarray:
        if width == 2:
            return np.frombuffer(raw, "<i2").astype(np.float32) / 32768.0
        if width == 1:
            return (np.frombuffer(raw, np.uint8).astype(np.float32) - 128.0) / 128.0
        if width == 3:
            # 24-bit little-endian PCM: assemble + sign-extend, vectorized
            b = np.frombuffer(raw, np.uint8).reshape(-1, 3).astype(np.int32)
            v = b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)
            v -= (v & 0x800000) << 1
            return v.astype(np.float32) / 8388608.0
        if width == 4:
            return np.frombuffer(raw, "<i4").astype(np.float32) / 2147483648.0
        raise NotImplementedError(f"unsupported WAV sample width: {width} bytes")

    def _decode(self, payload: bytes) -> tuple[np.ndarray, int]:
        """(normalized float samples, sample_rate)."""
        import wave

        try:
            with wave.open(io.BytesIO(payload), "rb") as w:
                rate = w.getframerate()
                width = w.getsampwidth()
                raw = w.readframes(w.getnframes())
        except Exception:
            if self._soundfile is None:
                raise NotImplementedError(
                    "non-WAV audio requires soundfile (not installed); "
                    "stdlib wave handles audio/wav only"
                )
            samples, rate = self._soundfile.read(io.BytesIO(payload), dtype="float32")
            if samples.ndim > 1:
                samples = samples.mean(axis=1)
            return samples, int(rate)
        # a genuine WAV that fails PCM conversion should surface its real
        # error, not a misleading "non-WAV" message
        return self._pcm_to_float(raw, width), rate

    def __call__(self, t: pa.Table) -> pa.Table:
        feats, durs, rates = [], [], []
        for p in t["payload"]:
            if self.fake:
                b = np.frombuffer(p.as_py(), np.uint8).astype(np.float32)
                rate = 16000
                dur = len(b) / rate
            else:
                b, rate = self._decode(p.as_py())
                dur = len(b) / rate if rate else 0.0
            feats.append(_byte_stat_features(b, self.dim))
            durs.append(dur)
            rates.append(rate)
        return (
            t.append_column("duration_s", pa.array(durs, pa.float64()))
            .append_column("sample_rate", pa.array(rates, pa.int64()))
            .append_column(
                "audio_embedding",
                pa.array([f.tolist() for f in feats], pa.list_(pa.float32())),
            )
        )


class SampleFramesBatch:
    """video payload -> sampled frames (list<binary>, each a PNG).

    Real path (``fake=False``): PyAV when installed (mp4/webm/anything
    ffmpeg reads); otherwise the pure-stdlib GIF decoder
    (:mod:`logray.functions.gif`) samples animated-GIF payloads — real
    decoded frames, in-container, no dependencies — and non-GIF formats
    raise with a clear message.  ``n_frames`` evenly spaced frames are
    re-encoded as PNG.  Fake path: fixed-stride byte chunks of the raw
    payload."""

    def __init__(self, fake: bool = True, n_frames: int = 4, chunk: int = 256):
        self.fake = fake
        self.n_frames = n_frames
        self.chunk = chunk
        self._av = None
        if fake:
            _warn_fake("SampleFramesBatch")
        else:
            try:
                import av

                self._av = av
            except ImportError:  # stdlib GIF is the real in-container path
                pass

    def _real_one(self, payload: bytes) -> list[bytes]:
        from logray.functions.png import encode_png

        if self._av is not None:  # pragma: no cover - needs av
            container = self._av.open(io.BytesIO(payload))
            frames = [f.to_ndarray(format="rgb24")
                      for f in container.decode(video=0)]
        elif payload[:6] in (b"GIF87a", b"GIF89a"):
            from logray.functions.gif import decode_gif

            frames = decode_gif(payload)
        else:
            raise ValueError(
                "SampleFramesBatch(fake=False) without PyAV decodes GIF "
                "payloads only (stdlib codec); install PyAV for mp4/webm")
        if not frames:
            return []
        idx = np.linspace(0, len(frames) - 1,
                          min(self.n_frames, len(frames))).astype(int)
        return [encode_png(frames[i]) for i in idx]

    def __call__(self, t: pa.Table) -> pa.Table:
        frames = []
        for p in t["payload"]:
            b = p.as_py()
            if not self.fake:
                frames.append(self._real_one(b))
                continue
            stride = max(len(b) // max(self.n_frames, 1), 1)
            frames.append([b[i * stride : i * stride + self.chunk] for i in range(self.n_frames)])
        return t.append_column("frames", pa.array(frames, pa.list_(pa.binary())))


def decode_stage(ds, stage_cls, concurrency=2, batch_size: int = DEFAULT_BATCH_SIZE, **kw):
    """Run a decode/extract stage as an actor pool with binary-payload-sized
    batches."""
    return ds.map_batches(
        stage_cls,
        fn_constructor_kwargs=kw,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        zero_copy_batch=True,
    )
