"""Tiny deterministic SVG backend for the command line reports.

Hand-rolled on purpose: the plots must be byte-reproducible across runs and
machines, so no plotting library, no timestamps, no float repr jitter.  All
coordinates go through one %.6g formatter.

One page writer, `_page`, writes both charts' canvas, title, axis labels
and file; the charts build their plot and legend elements from the `_text`
and `_line` templates, and place every value by the one scale map,
`_pixels`.  Finite data give finite coordinates even where hi - lo
overflows.  A log axis labels at most 10 powers of ten.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["line_chart", "heatmap"]

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64.0, 16.0, 28.0, 44.0
# canvas sizes in pixels: (width, height)
_LINE_SIZE = (720, 480)
_HEAT_SIZE = (720, 520)
_MAX = float(np.finfo(float).max)


def _fmt(x: float) -> str:
    if x == 0:
        return "0"
    return format(float(x), ".6g")


def _finite(arr) -> np.ndarray:
    a = np.asarray(arr, dtype=float).ravel()
    return a[np.isfinite(a)]


def _widen(lo: float, hi: float):
    """(lo, hi), or one unit above lo where hi <= lo.  Where lo + 1 rounds
    back to lo (|lo| >= 2^53), the range reaches instead to lo's neighbour
    toward zero, so it has a nonzero, finite width even at the largest
    float."""
    if hi > lo:
        return lo, hi
    if lo + 1.0 != lo:
        return lo, lo + 1.0
    near = math.nextafter(lo, 0.0)
    return min(lo, near), max(lo, near)


def _axis_range(lo: float, hi: float, log: bool):
    """The widened range, padded by 5 % on each side within the floats."""
    if log:
        lo, hi = math.log10(lo), math.log10(hi)
    lo, hi = _widen(lo, hi)
    pad = (0.05 * (hi - lo) if math.isfinite(hi - lo)
           else 0.1 * (hi / 2 - lo / 2))
    return max(lo - pad, -_MAX), min(hi + pad, _MAX)


def _ticks(lo: float, hi: float, log: bool):
    """(position, label) pairs; on a log axis the positions are log10 of
    the values: every k-th power of ten where the range holds one, k the
    smallest that labels at most 10.  Where the last step would pass the
    largest float, the ticks are weighted means of lo and hi instead."""
    if log:
        first, last = math.ceil(lo), math.floor(hi)
        if last >= first:
            k = (last - first) // 10 + 1
            return [(t, "1e%d" % t)
                    for t in range(first + -first % k, last + 1, k)]
    step = (hi - lo) / 4.0
    ts = [lo + i * step for i in range(5)]
    if not math.isfinite(ts[-1]):
        ts = [lo * (1 - i / 4) + hi * (i / 4) for i in range(5)]
    return [(t, _power(t) if log else _fmt(t)) for t in ts]


def _power(t: float) -> str:
    """10^t as _fmt writes it; where 10^t overflows, from its mantissa and
    exponent."""
    try:
        return _fmt(10.0 ** t)
    except OverflowError:
        e = math.floor(t)
        return "%se+%d" % (_fmt(10.0 ** (t - e)), e)


def _pixels(vals, lo, hi, out_lo, out_hi, log):
    """Positions of vals on (out_lo, out_hi) for an axis whose range is
    (lo, hi) in data units (log10 units on a log axis).  The numpy
    operations round as the same scalar ones do; math.log10 stays per value
    because np.log10 may differ from it in the last bit.  out_lo is never
    -0.0, so no sum with it is -0.0 and a zero prints as "0", as _fmt
    prints it.  Where hi - lo overflows, the ratio is of halved values
    (h = 0.5); elsewhere h = 1.0, which changes no bit."""
    t = (np.array(list(map(math.log10, vals.tolist()))) if log
         else np.asarray(vals, dtype=float))
    h = 1.0 if math.isfinite(hi - lo) else 0.5
    return out_lo + (t * h - lo * h) / (hi * h - lo * h) * (out_hi - out_lo)


def _text(x, y, size, label, anchor):
    anchor = ' text-anchor="%s"' % anchor if anchor else ""
    return ('<text x="%s" y="%s" font-family="monospace" font-size="%d"%s>'
            '%s</text>' % (_fmt(x), _fmt(y), size, anchor, label))


def _line(x1, y1, x2, y2, attrs):
    return '<line x1="%s" y1="%s" x2="%s" y2="%s"%s/>' % (
        _fmt(x1), _fmt(y1), _fmt(x2), _fmt(y2), attrs)


def _page(path, size, box, labels, plot, legend):
    """Write one chart: size is (width, height), box the plot's pixels
    (px_lo, px_hi, py_lo, py_hi), labels (title, xlabel, ylabel).  The plot
    elements go between the title and axis labels, the legend after."""
    width, height = size
    px_lo, px_hi, py_lo, py_hi = box
    title, xlabel, ylabel = labels
    out = ['<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
           'viewBox="0 0 %d %d">' % (width, height, width, height),
           '<rect width="%d" height="%d" fill="white"/>' % (width, height)]
    if title:
        out.append(_text((px_lo + px_hi) / 2, 18, 13, title, "middle"))
    out += plot
    if xlabel:
        out.append(_text((px_lo + px_hi) / 2, height - 8.0, 11, xlabel,
                         "middle"))
    if ylabel:
        mid = _fmt((py_lo + py_hi) / 2)
        out.append('<text x="14" y="%s" font-family="monospace" '
                   'font-size="11" text-anchor="middle" '
                   'transform="rotate(-90 14 %s)">%s</text>'
                   % (mid, mid, ylabel))
    out += legend
    out.append('</svg>')
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")


def line_chart(path, series, *, title="", xlabel="", ylabel="",
               logx=False, logy=False):
    """Write a polyline chart; series is a list of (label, xs, ys)."""
    width, height = _LINE_SIZE
    xs_all = _finite(np.concatenate([np.asarray(s[1], dtype=float)
                                     for s in series]))
    ys_all = _finite(np.concatenate([np.asarray(s[2], dtype=float)
                                     for s in series]))
    if logx:
        xs_all = xs_all[xs_all > 0]
    if logy:
        ys_all = ys_all[ys_all > 0]
    if xs_all.size == 0 or ys_all.size == 0:
        raise ValueError("nothing finite to plot")
    x_lo, x_hi = _axis_range(float(xs_all.min()), float(xs_all.max()), logx)
    y_lo, y_hi = _axis_range(float(ys_all.min()), float(ys_all.max()), logy)
    px_lo, px_hi = _MARGIN_L, width - _MARGIN_R
    py_lo, py_hi = height - _MARGIN_B, _MARGIN_T

    plot = ['<g stroke="black" stroke-width="1">',
            _line(px_lo, py_lo, px_hi, py_lo, ""),
            _line(px_lo, py_lo, px_lo, py_hi, ""), '</g>']
    ticks = _ticks(x_lo, x_hi, logx)
    at = _pixels([t for t, _ in ticks], x_lo, x_hi, px_lo, px_hi, False)
    for px, (_, tlabel) in zip(at.tolist(), ticks):
        plot += [_line(px, py_lo, px, py_lo + 4, ' stroke="black"'),
                 _text(px, py_lo + 16, 10, tlabel, "middle")]
    ticks = _ticks(y_lo, y_hi, logy)
    at = _pixels([t for t, _ in ticks], y_lo, y_hi, py_lo, py_hi, False)
    for py, (_, tlabel) in zip(at.tolist(), ticks):
        plot += [_line(px_lo - 4, py, px_lo, py, ' stroke="black"'),
                 _text(px_lo - 7, py + 3, 10, tlabel, "end")]
    # each polyline is drawn after the axis labels, beside its legend entry
    legend = []
    for i, (label, xs, ys) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        if xs.shape != ys.shape:
            raise ValueError(f"series {label!r}: xs and ys differ in shape")
        keep = np.isfinite(xs) & np.isfinite(ys)
        if logx:
            keep &= xs > 0
        if logy:
            keep &= ys > 0
        if keep.any():
            pts = np.empty((np.count_nonzero(keep), 2))
            pts[:, 0] = _pixels(xs[keep], x_lo, x_hi, px_lo, px_hi, logx)
            pts[:, 1] = _pixels(ys[keep], y_lo, y_hi, py_lo, py_hi, logy)
            legend.append('<polyline points="%s" fill="none" stroke="%s" '
                          'stroke-width="1.5"/>'
                          % (" ".join(["%.6g,%.6g"] * len(pts))
                             % tuple(pts.ravel().tolist()), color))
        if label:
            ly = _MARGIN_T + 14 * i + 4
            legend += [_line(px_hi - 110, ly, px_hi - 90, ly,
                             ' stroke="%s" stroke-width="1.5"' % color),
                       _text(px_hi - 85, ly + 3, 10, label, None)]
    _page(path, _LINE_SIZE, (px_lo, px_hi, py_lo, py_hi),
          (title, xlabel, ylabel), plot, legend)


def _heat_color(frac: float) -> str:
    # coarse viridis-like ramp, good enough for orientation plots
    stops = ((0.267, 0.005, 0.329), (0.283, 0.141, 0.458),
             (0.254, 0.265, 0.530), (0.207, 0.372, 0.553),
             (0.164, 0.471, 0.558), (0.128, 0.567, 0.551),
             (0.135, 0.659, 0.518), (0.267, 0.749, 0.441),
             (0.478, 0.821, 0.318), (0.741, 0.873, 0.150),
             (0.993, 0.906, 0.144))
    frac = min(max(frac, 0.0), 1.0)
    pos = frac * (len(stops) - 1)
    i = min(int(pos), len(stops) - 2)
    t = pos - i
    rgb = [stops[i][c] * (1 - t) + stops[i + 1][c] * t for c in range(3)]
    return "#%02x%02x%02x" % tuple(int(round(255 * v)) for v in rgb)


def heatmap(path, x_values, y_values, values, *, title="", xlabel="",
            ylabel=""):
    """Write a cell heatmap; values has shape (len(y_values), len(x_values))."""
    width, height = _HEAT_SIZE
    vals = np.asarray(values, dtype=float)
    xs = np.asarray(x_values, dtype=float)
    ys = np.asarray(y_values, dtype=float)
    if vals.shape != (ys.size, xs.size):
        raise ValueError("value grid does not match the axis sizes")
    finite = vals[np.isfinite(vals)]
    lo, hi = _widen(float(finite.min()) if finite.size else 0.0,
                    float(finite.max()) if finite.size else 1.0)
    px_lo, px_hi = _MARGIN_L, width - 90.0
    py_lo, py_hi = height - _MARGIN_B, _MARGIN_T
    cell_w = (px_hi - px_lo) / xs.size
    cell_h = (py_lo - py_hi) / ys.size

    fracs = _pixels(vals, lo, hi, 0.0, 1.0, False).tolist()
    plot = ['<rect x="%s" y="%s" width="%s" height="%s" fill="%s"/>'
            % (_fmt(px_lo + ix * cell_w), _fmt(py_lo - (iy + 1) * cell_h),
               _fmt(cell_w + 0.5), _fmt(cell_h + 0.5),
               _heat_color(f) if math.isfinite(f) else "#dddddd")
            for iy, row in enumerate(fracs) for ix, f in enumerate(row)]
    plot += [_text(px_lo + (ix + 0.5) * cell_w, py_lo + 14, 10, _fmt(xs[ix]),
                   "middle") for ix in (0, xs.size - 1)]
    plot += [_text(px_lo - 6, py_lo - (iy + 0.5) * cell_h + 3, 10,
                   _fmt(ys[iy]), "end") for iy in (0, ys.size - 1)]
    bar_x = width - 70.0
    legend = ['<rect x="%s" y="%s" width="14" height="%s" fill="%s"/>'
              % (_fmt(bar_x), _fmt(py_lo - (py_lo - py_hi) * (i + 1) / 64.0),
                 _fmt((py_lo - py_hi) / 64.0 + 0.5), _heat_color(i / 63.0))
              for i in range(64)]
    legend += [_text(bar_x + 18, py_lo, 10, _fmt(lo), None),
               _text(bar_x + 18, py_hi + 8, 10, _fmt(hi), None)]
    _page(path, _HEAT_SIZE, (px_lo, px_hi, py_lo, py_hi),
          (title, xlabel, ylabel), plot, legend)
