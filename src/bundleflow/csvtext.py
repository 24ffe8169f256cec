"""CSV text of float64 tables, byte for byte what ``"%.17g" % v`` writes.

The values are formatted a block of rows at a time with numpy, not one
``%`` at a time:

* **Digits.**  k = floor(log10 |x|), checked against 10^k, picks a scale
  2^a and a constant hi + lo = 10^(16-k) 2^-a (exact integer arithmetic,
  built the first time a k is met).  x 2^a is split into a 26-bit head and
  its tail, so that x 10^(16-k) = head * hi_head (exact) + a remainder good
  to about 2e-6; the integer N nearest to it holds the 17 significant
  digits.
* **Text.**  N goes into 4-digit groups, an ASCII table gives their bytes,
  and a row per value holds sign, "0.000" prefix, digits with a slot for the
  point after each, exponent and separator.  A mask keeps the digits up to
  the last nonzero one (and the integer part), and the padding bytes are
  dropped with ``bytes.translate``.
* **Fallback.**  A value the block path cannot vouch for is written by
  ``"%.17g"`` alone: NaN and infinities, a rounding fraction within 1e-5 of
  one half (exact ties), and an N outside [10^16, 10^17) (k misjudged, or
  the rounding carried).
"""

from __future__ import annotations

import functools
import math

import numpy as np

_BLOCK = 2048  # values formatted per block
_HEAD = np.uint64(0xFFFFFFFFF8000000)  # keeps 26 significant bits of a double
# a rounding fraction f is a tie when f - 0.49999 lies in [0, 2e-5): viewed
# as uint64, a negative difference reads larger than any positive one
_TIE = np.float64(2e-5).view(np.uint64)
# A row of bytes per value: sign, 5 prefix bytes, then d0 p0 d1 p1 ... d16 p16
# (p_j is the slot of a point after digit j), 5 exponent bytes, separator.
_W = 46
_BODY = slice(6, 40)


class _Tables:
    """The digit, mask and per-exponent tables, built on first use; the
    entries of a decimal exponent k are filled the first time it is met."""

    def __init__(self):
        d8 = np.zeros((10, 10, 10, 10, 8), np.uint8)  # 4 digits, a point slot after each
        z = np.zeros((10, 10, 10, 10), np.int8)  # its trailing zeros
        digit = np.arange(48, 58, dtype=np.uint8)
        zero = (digit == 48).astype(np.int8)
        for j, shape in enumerate(((10, 1, 1, 1), (10, 1, 1), (10, 1), (10,))):
            d8[..., 2 * j] = digit.reshape(shape)
            z = zero.reshape(shape) * (1 + z)
        self.d8 = d8.reshape(10000, 8)
        self.trailing = z.reshape(10000)
        # stairs[j] keeps the body up to digit j
        body = np.arange(34)
        self.stairs = (body <= body[::2, None]).view(np.uint8) * np.uint8(255)
        # the last nonzero digit of d1..d16 from the trailing zeros t1..t4 of
        # their groups, keyed by 125 t1 + 25 t2 + 5 t3 + t4
        t = np.arange(5)
        t1, t2, t3, t4 = t[:, None, None, None], t[:, None, None], t[:, None], t
        last = 16 - (t4 + (t4 == 4) * (t3 + (t3 == 4) * (t2 + (t2 == 4) * t1)))
        self.key = np.array([125, 25, 5, 1], np.intp)
        self.keep = self.stairs.take(last.ravel(), axis=0)
        self.p10 = 10.0 ** np.arange(-324, 309)
        k = 633  # decimal exponents -324..308
        self.scale = np.zeros((4, k))  # 2^a, hi_head, hi_tail + lo, hi
        self.keep_int = np.zeros((k, 34), np.uint8)  # the integer digits of a fixed layout
        self.base = np.zeros((k, _W), np.uint8)
        self.base[:, -1] = ord(",")

    def fill(self, indices) -> None:
        for i in set(indices.tolist()):
            k = i - 324
            a = min(-math.floor(k * 3.321928094887362), 1023)
            num = 10 ** max(16 - k, 0) << max(-a, 0)
            den = 10 ** max(k - 16, 0) << max(a, 0)
            hi = num / den  # rounded down below, so that every term is >= 0
            n, d = hi.as_integer_ratio()
            if n * den > num * d:
                hi = math.nextafter(hi, 0.0)
                n, d = hi.as_integer_ratio()
            lo = (num * d - n * den) / (den * d)
            m, e = math.frexp(hi)
            head = math.ldexp(math.floor(math.ldexp(m, 26)), e - 26)
            self.scale[:, i] = (math.ldexp(1.0, a), head, (hi - head) + lo, hi)
            row = self.base[i]
            if -4 <= k < 0:  # 0.000ddd
                row[1 : 2 - k] = np.frombuffer(b"0.000"[: 1 - k], np.uint8)
            elif 0 <= k <= 16:  # ddd.ddd
                self.keep_int[i] = self.stairs[k]
                row[7 + 2 * k] = ord(".") if k < 16 else 0
            else:  # d.ddde+XX
                row[7] = ord(".")
                text = b"e%+03d" % k
                row[_W - 1 - len(text) : _W - 1] = np.frombuffer(text, np.uint8)


@functools.cache
def _tables() -> _Tables:
    return _Tables()


def blocks(table: np.ndarray):
    """Yield the CSV lines of a 2-D float64 table, one bytes object per
    block of rows: each value as ``"%.17g" % v`` writes it, ``,`` between
    values and ``\\n`` after each row."""
    rows, cols = table.shape
    T = _tables()
    step = max(1, _BLOCK // cols)
    for start in range(0, rows, step):
        v = table[start : start + step].ravel()
        m = v.size
        u = np.where(np.isfinite(v), np.abs(v), 0.0)
        s = np.where(u > 0, u, 1.0)
        ki = (np.log10(s) + 324).astype(np.intp)
        ki -= s < T.p10.take(ki)  # log10 rounds up to k just below 10^k
        c = T.scale.take(ki, axis=1)
        if not c[0].all():
            T.fill(ki[c[0] == 0])
            c = T.scale.take(ki, axis=1)
        xs = u * c[0]
        head = (xs.view(np.uint64) & _HEAD).view(np.float64)
        frac, q = np.modf(head * c[2] + (xs - head) * c[3])
        n = np.add(head * c[1], q, dtype=np.int64, casting="unsafe")  # floor(x 10^(16-k))
        ok = (n - 10**16).view(np.uint64) < 9 * 10**16 - 1  # k was right, no carry
        ok &= (frac - 0.49999).view(np.uint64) >= _TIE
        ok |= v == 0
        n += frac > 0.5
        g = np.empty((5, m), np.int64)  # d0 and the groups d1-4, d5-8, d9-12, d13-16
        np.divmod(n, 10**8, out=(g[1], g[3]))
        np.divmod(g[1::2], 10**4, out=(g[1::2], g[2::2]))
        np.divmod(g[1], 10**4, out=(g[0], g[1]))
        out = T.base.take(ki, axis=0)
        out[:, _BODY] |= T.d8.take(g.T, axis=0).reshape(m, 40)[:, 6:]
        key = T.key @ T.trailing.take(g[1:])  # where the last nonzero digit is
        out[:, _BODY] &= T.keep.take(key, axis=0) | T.keep_int.take(ki, axis=0)
        np.copyto(out[:, 0], ord("-"), where=np.signbit(v))
        out.reshape(-1, cols, _W)[:, -1, -1] = ord("\n")
        if not ok.all():
            for j in np.flatnonzero(~ok).tolist():
                text = np.frombuffer(b"%.17g" % v[j], np.uint8)
                out[j, :-1] = 0
                out[j, : text.size] = text
        yield out.tobytes().translate(None, b"\0")
