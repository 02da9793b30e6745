"""Self-contained SVG log-log plots (no plotting dependency).

Covers exactly what the command-line output needs: log-log axes with
decade ticks, polyline series, and a shaded region above a curve for
exclusion plots.
"""

import math

_WIDTH, _HEIGHT = 720, 520
_ML, _MR, _MT, _MB = 80, 30, 40, 60
_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
_XML_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def _finite_log_pairs(xs, ys):
    pairs = [(x, y) for x, y in zip(xs, ys)
             if x > 0 and y > 0 and math.isfinite(x) and math.isfinite(y)]
    return pairs


class LogLogPlot:
    def __init__(self, xlabel="", ylabel="", title=""):
        self.xlabel = xlabel
        self.ylabel = ylabel
        self.title = title
        self._series = []
        self._shaded = []

    def add_line(self, xs, ys, label=""):
        pairs = _finite_log_pairs(xs, ys)
        if pairs:
            self._series.append((pairs, label))

    def add_shaded_above(self, xs, ys, label=""):
        """Shade the region above the curve (the excluded region)."""
        pairs = _finite_log_pairs(xs, ys)
        if pairs:
            self._shaded.append((pairs, label))
            self._series.append((pairs, label))

    def _limits(self):
        xs = [p[0] for pairs, _ in self._series for p in pairs]
        ys = [p[1] for pairs, _ in self._series for p in pairs]
        if not xs:
            return (0, 1, 0, 1)
        lx0 = math.floor(math.log10(min(xs)))
        lx1 = math.ceil(math.log10(max(xs)))
        ly0 = math.floor(math.log10(min(ys)))
        ly1 = math.ceil(math.log10(max(ys)))
        if lx1 == lx0:
            lx1 += 1
        if ly1 == ly0:
            ly1 += 1
        return lx0, lx1, ly0, ly1

    def render(self):
        lx0, lx1, ly0, ly1 = self._limits()
        pw = _WIDTH - _ML - _MR
        ph = _HEIGHT - _MT - _MB

        def px(x):
            return _ML + (math.log10(x) - lx0) / (lx1 - lx0) * pw

        def py(y):
            return _MT + (ly1 - math.log10(y)) / (ly1 - ly0) * ph

        def text(attrs, body):   # body may hold any config word
            out.append(f"<text {attrs}>{body.translate(_XML_ESCAPES)}</text>")

        out = [
            f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{_WIDTH}" height="{_HEIGHT}" '
            f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
            f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        ]

        # shaded excluded regions first, under everything else
        for i, (pairs, _) in enumerate(self._shaded):
            pts = [f"{px(x):.2f},{py(y):.2f}" for x, y in pairs]
            top = _MT
            poly = (f"{px(pairs[0][0]):.2f},{top} "
                    + " ".join(pts)
                    + f" {px(pairs[-1][0]):.2f},{top}")
            color = _COLORS[i % len(_COLORS)]
            out.append(f'<polygon points="{poly}" fill="{color}" '
                       f'fill-opacity="0.15" stroke="none"/>')

        # axes frame
        out.append(f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" '
                   f'fill="none" stroke="black"/>')

        # decade ticks
        for e in range(lx0, lx1 + 1):
            x = px(10.0 ** e)
            out.append(f'<line x1="{x:.2f}" y1="{_MT + ph}" x2="{x:.2f}" '
                       f'y2="{_MT + ph + 6}" stroke="black"/>')
            out.append(f'<text x="{x:.2f}" y="{_MT + ph + 20}" '
                       f'font-size="11" text-anchor="middle">1e{e}</text>')
        for e in range(ly0, ly1 + 1):
            y = py(10.0 ** e)
            out.append(f'<line x1="{_ML - 6}" y1="{y:.2f}" x2="{_ML}" '
                       f'y2="{y:.2f}" stroke="black"/>')
            out.append(f'<text x="{_ML - 10}" y="{y + 4:.2f}" font-size="11" '
                       f'text-anchor="end">1e{e}</text>')

        # series
        for i, (pairs, label) in enumerate(self._series):
            pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pairs)
            color = _COLORS[i % len(_COLORS)]
            out.append(f'<polyline points="{pts}" fill="none" '
                       f'stroke="{color}" stroke-width="1.5"/>')
            if label:
                text(f'x="{_ML + 10}" y="{_MT + 16 + 14 * i}" font-size="12" '
                     f'fill="{color}"', label)

        # labels
        if self.title:
            text(f'x="{_WIDTH / 2}" y="24" font-size="14" '
                 'text-anchor="middle"', self.title)
        if self.xlabel:
            text(f'x="{_ML + pw / 2}" y="{_HEIGHT - 16}" font-size="12" '
                 'text-anchor="middle"', self.xlabel)
        if self.ylabel:
            text(f'x="18" y="{_MT + ph / 2}" font-size="12" '
                 f'text-anchor="middle" transform="rotate(-90 18 '
                 f'{_MT + ph / 2})"', self.ylabel)

        out.append("</svg>")
        return "\n".join(out) + "\n"
