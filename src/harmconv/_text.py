"""Decimal text written by numpy, a byte matrix at a time, for the two
writers that print many numbers: the SVG vertices (``render._points``) and
the floats of a report's violations (``json_floats``), both of which write
the digits before the point with ``groups``.  NUL bytes pad each number to
a fixed width; the caller removes them with one ``translate``.
"""
import json

import numpy as np

# the three digits of k = 0..999 in bytes 1-3 of a little-endian 32-bit word,
# byte 0 left free for a sign or a point.  Rows 1000 + k are for a group with
# no digit shown before it: k's leading zeros are NUL bytes, and 0 is all NUL;
# rows 2000 + k are for such a group just before the point, where 0 is "0";
# rows 3000 + k are for a group with no digit shown after it: k's trailing
# zeros are NUL bytes, and 0 is all NUL
_k = np.arange(1000)[:, None]
_lead = _k >= [100, 10, 1]
WORDS = (((ord("0") + _k // [100, 10, 1] % 10)
          * np.stack((np.ones_like(_lead), _lead, _lead | [0, 0, 1],
                      _k % [1000, 100, 10] != 0)))
         << [8, 16, 24]).sum(-1).astype("<u4").ravel()
del _k, _lead

# 10^k for k = 16 - E, E = -6..12, all exact, and each split into halves of
# at most 26 bits (Veltkamp), so that Dekker's product a 10^k = hi + lo is exact
_SCALE = 10.0 ** np.arange(22, 3, -1)
_SCALE_HI = _SCALE * 134217729.0 - (_SCALE * 134217729.0 - _SCALE)
_SCALE_LO = _SCALE - _SCALE_HI
# the exponent of the e-notation repr uses below 1e-4
_SUFFIX = {-6: int.from_bytes(b"e-06", "little"),
           -5: int.from_bytes(b"e-05", "little")}


def _shortest(x):
    """(ok, E, D): E = floor(log10 |x|), D the 17-digit integer whose
    leading q digits are repr's shortest round-trip digits of x, followed
    by 17 - q zeros, wherever ok (``UnivalencyReport.to_json``)."""
    a = np.abs(x)
    ok = (a >= 1e-6) & (a < 1e13)  # NaN fails here
    a[~ok] = 1.5
    bits = a.view(np.int64)
    expo = bits >> 52 << 52  # a's power of two
    ok &= bits != expo
    g = np.clip(np.floor(np.log10(a)).astype(np.int64) + 6, 0, 18)
    ph, pl = _SCALE_HI[g], _SCALE_LO[g]
    p = ph + pl
    c = a * 134217729.0  # Veltkamp: a = ah + al, halves of 26 bits
    ah = c - (c - a)
    al = a - ah
    hi = a * p
    lo = ((ah * ph - hi) + ah * pl + al * ph) + al * pl
    r = np.rint(lo)
    delta = lo - r
    D = hi.astype(np.int64) + r.astype(np.int64)
    H = (expo - (53 << 52)).view(float) * p  # half an ulp of a, times 10^k
    ok &= (D >= 10 ** 16) & (D < 10 ** 17) & (np.abs(delta) < 0.5 - 1e-9)
    # y = a 10^k = D + delta; u = y mod 10^5.  Rounded to q = 16, 15, ...
    # digits, a multiple of P = 10^(17 - q), y moves by P rint(u/P) - u;
    # the digits that read back at P also do at P/10, so q is 17 less the
    # number of P at which they do, and D moves to the last such multiple
    t = (D % 10 ** 5).astype(float)
    u = t + delta
    q = np.full(len(x), 17)
    shift = np.zeros(len(x))
    for P in (10.0, 100.0, 1e3, 1e4, 1e5):
        near = np.rint(u / P) * P
        d = np.abs(near - u)
        fits = d < H
        q -= fits
        np.copyto(shift, near - t, where=fits)
        # a distance too close to half an ulp to call, or a tie between
        # two roundings that both read back
        ok &= (np.abs(d - H) > 1e-9 * P) & (
            (np.abs(d - P / 2) > 1e-9 * P) | ~fits)
    ok &= q >= 13
    return ok, g - 6, D + shift.astype(np.int64)


def groups(I, k):
    """The words of the integers I >= 0, of any shape, as k three-digit
    groups each, right-aligned: (..., k) words, the leading ones NUL where
    I has fewer groups, and "0" just before the point where I is 0."""
    out = np.empty((*np.shape(I), k), "<u4")
    for j in range(k - 1, 0, -1):  # all but the leading group
        I, r = np.divmod(I, 1000)
        out[..., j] = WORDS[r + (I == 0) * (2000 if j == k - 1 else 1000)]
    out[..., 0] = WORDS[I + (2000 if k == 1 else 1000)]
    return out


def _words(D, e, ints, fracs):
    """The words of rows of exponent e: ``ints`` words of the digits before
    the point, right-aligned, then ``fracs`` of those after it, from the
    point, and the e-notation suffix if there is one."""
    before = e + 1 if e >= 0 else 1 if e < -4 else 0
    zeros = -e - 1 if -4 <= e < 0 else 0  # "0.000ddd" for e = -4
    out = np.zeros((len(D), ints + fracs + (e < -4)), "<u4")
    I, R = np.divmod(D, 10 ** (17 - before))
    out[:, :ints] = groups(I, ints)
    # R's 17 - before digits after `zeros` zeros, padded to whole groups
    L = zeros + 17 - before
    m = -(-L // 3)
    T = R.astype(np.uint64) * np.uint64(10 ** (3 * m - L))  # below 10^19
    last = np.full(len(D), 3000, np.uint64)  # 3000: no digit shown after
    for j in range(ints + m - 1, ints, -1):  # all but the group after "."
        v, T = T, T // np.uint64(1000)
        v -= T * np.uint64(1000)
        out[:, j] = WORDS[v + last]
        last *= v == 0
    out[:, ints] = WORDS[T + last] | ord(".")
    if e == 12:  # 13 digits, all before the point: json writes "x.0"
        out[R == 0, ints] = WORDS[2000] | ord(".")
    if e < -4:
        out[:, -1] = _SUFFIX[e]
    return out


def json_floats(x):
    """``json.dumps(float(x[i]))`` for each i of the float64 array x, as
    rows of 32-bit words padded with NUL bytes.  How the digits are found,
    and which entries go to json's encoder, one at a time: see
    ``UnivalencyReport.to_json``."""
    ok, E, D = _shortest(x)
    E[~ok] = 0
    D[~ok] = 10 ** 16
    count = np.bincount(E + 6, minlength=19)
    present = np.flatnonzero(count) - 6
    ints = max(1, -(-(int(present.max()) + 1) // 3))
    fracs = -(-max(16 - e if e >= -4 else 16 for e in present) // 3)
    out = np.zeros((len(x), ints + fracs + bool(count[:2].any())), "<u4")
    for e in present:
        rows = np.flatnonzero(E == e) if len(present) > 1 else slice(None)
        block = _words(D[rows], int(e), ints, fracs)
        out[rows, :block.shape[1]] = block
    out[:, 0] |= np.signbit(x) * np.uint32(ord("-"))
    bad = np.flatnonzero(~ok)
    if len(bad):
        texts = [json.dumps(float(x[i])).encode() for i in bad]
        width = -(-max(map(len, texts)) // 4)
        if width > out.shape[1]:
            out = np.pad(out, ((0, 0), (0, width - out.shape[1])))
        out[bad] = 0
        b = out.view(np.uint8)
        for i, t in zip(bad, texts):
            b[i, :len(t)] = np.frombuffer(t, np.uint8)
    return out
