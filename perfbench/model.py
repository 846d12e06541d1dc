"""Reference arithmetic the benchmark uses to build series files and to check
reports, written independently of the package under test.

Every support context used by the series workload is modelled here with its
multiplication, weight, canonical element string and parser, and the two
coefficient fields the workload writes (rationals and Q(sqrt 2)). The twisted
product follows the crossed-product rule the CLI documents: the coefficient
of gh collects twist(g, h) * action(h)(a_g) * b_h.
"""

from __future__ import annotations

import re
from fractions import Fraction


# ---------------------------------------------------------------------------
# coefficients


class Quad:
    """u + v*sqrt(m) with rational parts."""

    __slots__ = ("u", "v", "m")

    def __init__(self, u, v, m=2):
        self.u, self.v, self.m = Fraction(u), Fraction(v), m

    def __add__(self, o):
        return Quad(self.u + o.u, self.v + o.v, self.m)

    def __mul__(self, o):
        return Quad(self.u * o.u + self.v * o.v * self.m, self.u * o.v + self.v * o.u, self.m)

    def __neg__(self):
        return Quad(-self.u, -self.v, self.m)

    def conj(self):
        return Quad(self.u, -self.v, self.m)

    def __bool__(self):
        return bool(self.u or self.v)

    def __eq__(self, o):
        return isinstance(o, Quad) and (self.u, self.v, self.m) == (o.u, o.v, o.m)

    def __str__(self):
        if self.v >= 0:
            return f"{self.u}+{self.v}*sqrt({self.m})"
        return f"{self.u}-{-self.v}*sqrt({self.m})"


_QUAD = re.compile(r"^(-?\d+(?:/\d+)?)([+-])(\d+(?:/\d+)?)\*sqrt\((\d+)\)$")


def parse_coeff(text: str):
    m = _QUAD.match(text)
    if m:
        v = Fraction(m.group(3))
        return Quad(Fraction(m.group(1)), -v if m.group(2) == "-" else v, int(m.group(4)))
    return Fraction(text)


# ---------------------------------------------------------------------------
# support contexts


class Heis:
    id = "heis"
    gens = ((1, 0, 0), (0, 1, 0))
    identity = (0, 0, 0)

    @staticmethod
    def mul(g, h):
        return (g[0] + h[0], g[1] + h[1], g[2] + h[2] + g[0] * h[1])

    @staticmethod
    def weight(g):
        return g[0] + g[1]

    @staticmethod
    def fmt(g):
        return f"H({g[0]},{g[1]},{g[2]})"

    @staticmethod
    def parse(s):
        return tuple(int(x) for x in re.fullmatch(r"H\((-?\d+),(-?\d+),(-?\d+)\)", s).groups())


class BS12:
    """B(1,2): (h, n) * (h', n') = (h + 2^n h', n + n'); monoid elements have
    integer h in [0, 2^n)."""

    id = "bs12"
    gens = ((1, 1), (0, 1))
    identity = (0, 0)

    @staticmethod
    def mul(g, h):
        return (g[0] + (h[0] << g[1]), g[1] + h[1])

    @staticmethod
    def weight(g):
        return g[1]

    @staticmethod
    def fmt(g):
        return f"B({g[0]}/1,{g[1]})@r=2/1"

    @staticmethod
    def parse(s):
        h, n = re.fullmatch(r"B\((-?\d+/\d+),(-?\d+)\)@r=2/1", s).groups()
        h = Fraction(h)
        if h.denominator != 1:
            raise ValueError(f"non-integer translation in bs12 monoid element {s}")
        return (h.numerator, int(n))


class Wreath:
    """Z wr Z: (cells, n) * (cells', n') shifts cells' by n."""

    id = "wreath"
    gens = (((0, 1),), 0), ((), 1)
    identity = ((), 0)

    @staticmethod
    def mul(g, h):
        cells = dict(g[0])
        for i, v in h[0]:
            w = cells.get(i + g[1], 0) + v
            if w:
                cells[i + g[1]] = w
            else:
                cells.pop(i + g[1], None)
        return (tuple(sorted(cells.items())), g[1] + h[1])

    @staticmethod
    def weight(g):
        return sum(v for _, v in g[0]) + g[1]

    @staticmethod
    def fmt(g):
        return "W({" + ",".join(f"{i}:{v}" for i, v in g[0]) + "}," + str(g[1]) + ")"

    @staticmethod
    def parse(s):
        body, n = re.fullmatch(r"W\(\{(.*)\},(-?\d+)\)", s).groups()
        cells = tuple(tuple(int(x) for x in part.split(":")) for part in body.split(",") if part)
        return (cells, int(n))


class Free:
    identity = ""

    def __init__(self, k):
        self.id = f"free:{k}"
        self.gens = tuple("abcdefghijklmnopqrstuvwxyz"[:k])

    @staticmethod
    def mul(g, h):
        return g + h

    @staticmethod
    def weight(g):
        return len(g)

    @staticmethod
    def fmt(g):
        return g or "1"

    @staticmethod
    def parse(s):
        return "" if s == "1" else s


class Lattice:
    def __init__(self, rank):
        self.rank = rank
        self.id = "z" if rank == 1 else f"z{rank}"
        self.prefix = "Z" if rank == 1 else f"Z{rank}"
        self.gens = tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))
        self.identity = (0,) * rank

    @staticmethod
    def mul(g, h):
        return tuple(a + b for a, b in zip(g, h))

    @staticmethod
    def weight(g):
        return sum(g)

    def fmt(self, g):
        return f"{self.prefix}({','.join(map(str, g))})"

    def parse(self, s):
        inner = re.fullmatch(re.escape(self.prefix) + r"\((.*)\)", s).group(1)
        return tuple(int(x) for x in inner.split(","))


CONTEXTS = {c.id: c for c in (Heis(), BS12(), Wreath(), Free(2), Free(3), Lattice(1), Lattice(2))}


# crossed systems: (twist(g, h), action(h, a)); None is the untwisted product
def _z2_sign(g, h):
    return -1 if (g[1] * h[0]) % 2 else 1


CROSSED = {
    "trivial": None,
    "z2-sign-twist": (_z2_sign, lambda h, a: a),
    "quadratic-conj-Z": (lambda g, h: 1, lambda h, a: a.conj() if h[0] % 2 else a),
}


# ---------------------------------------------------------------------------
# series text and truncated products


def series_text(ctx, degree, crossed, terms) -> str:
    """The canonical series file for a term map {element: coefficient}."""
    rows = sorted((ctx.weight(g), ctx.fmt(g), str(c)) for g, c in terms.items() if c)
    lines = [f"monoid={ctx.id} D={degree} crossed={crossed}"]
    lines += [f"{w}\t{e}\t{c}" for w, e, c in rows]
    return "\n".join(lines) + "\n"


def parse_series(text: str):
    """(context, degree, crossed id, terms) from a series file; checks that the
    declared weights are right and the rows are in canonical order."""
    lines = text.splitlines()
    m = re.fullmatch(r"monoid=(\S+) D=(\d+) crossed=(\S+)", lines[0])
    ctx = CONTEXTS[m.group(1)]
    terms = {}
    previous = None
    for line in lines[1:]:
        w, e, c = line.split("\t")
        g = ctx.parse(e)
        if ctx.weight(g) != int(w) or ctx.fmt(g) != e:
            raise ValueError(f"row {line!r} is not canonical")
        if previous is not None and (int(w), e) <= previous:
            raise ValueError("rows out of canonical order")
        previous = (int(w), e)
        terms[g] = parse_coeff(c)
    return ctx, int(m.group(2)), m.group(3), terms


def multiply(ctx, degree, crossed, f, g):
    """Truncated (possibly twisted) product of two term maps."""
    system = CROSSED[crossed]
    out = {}
    right = [(h, ctx.weight(h), b) for h, b in g.items()]
    for x, a in f.items():
        wx = ctx.weight(x)
        for h, wh, b in right:
            if wx + wh > degree:
                continue
            if system is None:
                c = a * b
            else:
                twist, action = system
                c = action(h, a) * b
                if twist(x, h) == -1:
                    c = -c
            y = ctx.mul(x, h)
            s = out[y] + c if y in out else c
            if s:
                out[y] = s
            else:
                out.pop(y)
    return out


def magnus_terms(word: str, degree: int):
    """Image of a reduced word (letters a, b; apostrophe marks an inverse)
    under letter -> 1 + letter, truncated at degree, as the CLI's sorted
    [weight, element, coefficient] rows."""
    image = {"": Fraction(1)}
    for letter, inverse in re.findall(r"([ab])('?)", word if word != "1" else ""):
        if inverse:
            factor = {letter * j: Fraction((-1) ** j) for j in range(degree + 1)}
        else:
            factor = {"": Fraction(1), letter: Fraction(1)}
        nxt = {}
        for u, a in image.items():
            for v, b in factor.items():
                if len(u) + len(v) <= degree:
                    nxt[u + v] = nxt.get(u + v, 0) + a * b
        image = {k: c for k, c in nxt.items() if c}
    return sorted([len(k), k or "1", str(c)] for k, c in image.items())
