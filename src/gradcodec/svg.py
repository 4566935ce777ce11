"""Minimal static SVG line plots, no display dependency.

CSV traces are the source of truth; these plots are derived views.
Run metadata is embedded as an XML comment so a plot is reproducible
from its own file.
"""

import math
from xml.sax.saxutils import escape

_PALETTE = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#17becf", "#7f7f7f", "#bcbd22",
]

_WIDTH, _HEIGHT = 720, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 80, 170, 40, 60


def _ticks_linear(lo, hi, target=6):
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if (hi - lo) / step <= target:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _ticks_log(lo, hi):
    lo_e = math.floor(math.log10(lo))
    hi_e = math.ceil(math.log10(hi))
    return [10.0 ** e for e in range(lo_e, hi_e + 1)]


def _fmt(v):
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.0e}"
    return f"{v:g}"


class _Axis:
    def __init__(self, lo, hi, pix_lo, pix_hi, log=False):
        self.log = log
        if log:
            lo = max(lo, 1e-300)
            hi = max(hi, lo * 10)
            self.lo, self.hi = math.log10(lo), math.log10(hi)
        else:
            self.lo, self.hi = lo, hi
            if self.hi <= self.lo:
                self.hi = self.lo + 1.0
        self.pix_lo, self.pix_hi = pix_lo, pix_hi

    def to_pix(self, v):
        x = math.log10(max(v, 1e-300)) if self.log else v
        frac = (x - self.lo) / (self.hi - self.lo)
        return self.pix_lo + frac * (self.pix_hi - self.pix_lo)

    def ticks(self):
        if self.log:
            return _ticks_log(10.0 ** self.lo, 10.0 ** self.hi)
        return _ticks_linear(self.lo, self.hi)


def line_plot(series, title="", xlabel="", ylabel="", ylog=False, metadata=None):
    """Render (label, xs, ys) series to an SVG string, x on a linear axis.

    Points with non-positive y on a log axis are dropped.
    """
    cleaned = []
    for label, xs, ys in series:
        pts = [
            (float(x), float(y))
            for x, y in zip(xs, ys)
            if (not ylog or y > 0) and math.isfinite(x) and math.isfinite(y)
        ]
        if pts:
            cleaned.append((label, pts))
    if not cleaned:
        raise ValueError("nothing to plot")

    all_x = [p[0] for _, pts in cleaned for p in pts]
    all_y = [p[1] for _, pts in cleaned for p in pts]
    xaxis = _Axis(min(all_x), max(all_x), _MARGIN_L, _WIDTH - _MARGIN_R)
    yaxis = _Axis(min(all_y), max(all_y), _HEIGHT - _MARGIN_B, _MARGIN_T, log=ylog)

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )
    if metadata:
        meta = " ".join(f"{k}={v}" for k, v in sorted(metadata.items()))
        out.append(f"<!-- {escape(meta)} -->")
    out.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>')

    x0, x1 = _MARGIN_L, _WIDTH - _MARGIN_R
    y0, y1 = _HEIGHT - _MARGIN_B, _MARGIN_T
    out.append(
        f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" height="{y0 - y1}" '
        'fill="none" stroke="black"/>'
    )

    for t in xaxis.ticks():
        px = xaxis.to_pix(t)
        if not x0 - 1 <= px <= x1 + 1:
            continue
        out.append(f'<line x1="{px:.1f}" y1="{y0}" x2="{px:.1f}" y2="{y0 + 5}" stroke="black"/>')
        out.append(
            f'<text x="{px:.1f}" y="{y0 + 20}" font-size="12" '
            f'text-anchor="middle">{_fmt(t)}</text>'
        )
    for t in yaxis.ticks():
        py = yaxis.to_pix(t)
        if not y1 - 1 <= py <= y0 + 1:
            continue
        out.append(f'<line x1="{x0 - 5}" y1="{py:.1f}" x2="{x0}" y2="{py:.1f}" stroke="black"/>')
        out.append(
            f'<text x="{x0 - 8}" y="{py + 4:.1f}" font-size="12" '
            f'text-anchor="end">{_fmt(t)}</text>'
        )

    for i, (label, pts) in enumerate(cleaned):
        color = _PALETTE[i % len(_PALETTE)]
        coords = " ".join(
            f"{xaxis.to_pix(x):.2f},{yaxis.to_pix(y):.2f}" for x, y in pts
        )
        out.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            'stroke-width="1.5"/>'
        )
        ly = _MARGIN_T + 16 + 18 * i
        lx = _WIDTH - _MARGIN_R + 12
        out.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{lx + 28}" y="{ly}" font-size="12">{escape(str(label))}</text>'
        )

    if title:
        out.append(
            f'<text x="{(_WIDTH) / 2:.0f}" y="24" font-size="15" '
            f'text-anchor="middle">{escape(title)}</text>'
        )
    if xlabel:
        out.append(
            f'<text x="{(x0 + x1) / 2:.0f}" y="{_HEIGHT - 18}" font-size="13" '
            f'text-anchor="middle">{escape(xlabel)}</text>'
        )
    if ylabel:
        out.append(
            f'<text x="20" y="{(y0 + y1) / 2:.0f}" font-size="13" '
            f'text-anchor="middle" transform="rotate(-90 20 {(y0 + y1) / 2:.0f})">'
            f"{escape(ylabel)}</text>"
        )
    out.append("</svg>")
    return "\n".join(out)
