"""Seeded inputs of exact sizes, written as finmet workspace documents.

Every space is the shortest-path closure of a raw cost matrix whose
off-diagonal arcs are positive, so the closure is separated and keeps
exactly the points asked for.  Arcs are asymmetric, a fixed share of them
is infinite, and finite arcs are rationals whose denominators cycle
evenly through DENOMS.  Nothing here imports finmet.
"""

import random
from fractions import Fraction

from checks import closure, glued_closure, restrict, subset_cross, token, vmin

DENOMS = (1, 2, 3, 4, 5, 7)
ZERO = Fraction(0)

# large-n: one instance, all of whose constructions run in one round.
LARGE = {"x": 24, "y": 3, "a": 5, "b": 8, "classes": 8, "u": 6, "t": 6}
LARGE_POOL = 16


def rng_for(*parts):
    return random.Random("/".join(str(p) for p in parts))


def raw_costs(rng, n, inf_share, blocked=None):
    """Zero diagonal; exactly round(inf_share * m) of the m free arcs are
    infinite, the rest are values in (0, 4]; blocked arcs are infinite."""
    cells = [(i, j) for i in range(n) for j in range(n)
             if i != j and not (blocked and blocked(i, j))]
    rng.shuffle(cells)
    n_inf = round(inf_share * len(cells))
    dens = [DENOMS[k % len(DENOMS)] for k in range(len(cells) - n_inf)]
    rng.shuffle(dens)
    m = [[ZERO if i == j else None for j in range(n)] for i in range(n)]
    for (i, j), d in zip(cells[n_inf:], dens):
        m[i][j] = Fraction(rng.randint(1, 4 * d), d)
    return m


def halves(n):
    """Block every arc from the second half back to the first, so the
    closed metric keeps a fixed quarter of its entries infinite."""
    half = n // 2
    return lambda i, j: i >= half > j


def space(rng, n, inf_share=0.25, blocked=None):
    return closure(raw_costs(rng, n, inf_share, blocked))


def capped_target(rng, n, ds, maps, inf_share=0.25):
    """A space on n points receiving every assignment in maps (lists of
    target indices, one per source point) non-expansively."""
    raw = raw_costs(rng, n, inf_share)
    for assign in maps:
        for s, p in enumerate(assign):
            for t, q in enumerate(assign):
                if p != q:
                    raw[p][q] = vmin(raw[p][q], ds[s][t])
    return closure(raw)


def coarser_submetric(rng, d, classes):
    """A metric below d whose zero classes are exactly the given classes
    (a list of class numbers, one per point)."""
    n = len(d)
    raw = [[ZERO if classes[i] == classes[j] else
            (d[i][j] if rng.random() < 0.5
             else vmin(d[i][j], Fraction(rng.randint(1, 8), rng.choice(DENOMS))))
            for j in range(n)] for i in range(n)]
    return closure(raw)


def zero_classes(gamma):
    """Class number of each point under gamma(x,y) = gamma(y,x) = 0, in
    order of first occurrence."""
    n = len(gamma)
    cls = [None] * n
    count = 0
    for i in range(n):
        if cls[i] is None:
            for j in range(i, n):
                if cls[j] is None and gamma[i][j] == 0 and gamma[j][i] == 0:
                    cls[j] = count
            count += 1
    return cls


def quotient(gamma):
    cls = zero_classes(gamma)
    reps = [cls.index(c) for c in range(max(cls) + 1)] if cls else []
    return cls, restrict(gamma, reps)


def preorder(rng, n, p=0.25):
    rel = [[i == j or rng.random() < p for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            if rel[i][k]:
                for j in range(n):
                    rel[i][j] = rel[i][j] or rel[k][j]
    return rel


def labels(prefix, n):
    return ["%s%d" % (prefix, k) for k in range(n)]


def tokens(m):
    return [[token(v) for v in row] for row in m]


class Doc:
    """Builds one workspace document and counts its tokens."""

    def __init__(self):
        self.objects = []
        self.tokens = 0

    def _matrix(self, m):
        self.tokens += sum(len(row) for row in m)
        return tokens(m)

    def space(self, name, points, d):
        self.objects.append({"kind": "space", "name": name,
                             "points": list(points), "dist": self._matrix(d)})

    def map(self, name, source, target, assignment):
        self.objects.append({"kind": "map", "name": name, "source": source,
                             "target": target, "assignment": list(assignment)})

    def submetric(self, name, base, gamma):
        self.objects.append({"kind": "submetric", "name": name, "base": base,
                             "matrix": self._matrix(gamma)})

    def blockmetric(self, name, base, blocks):
        entry = {"kind": "blockmetric", "name": name, "base": base}
        for key, block in zip(("g00", "g01", "g10", "g11"), blocks):
            entry[key] = self._matrix(block)
        self.objects.append(entry)

    def costmatrix(self, name, points, rho):
        self.objects.append({"kind": "costmatrix", "name": name,
                             "points": list(points),
                             "matrix": self._matrix(rho)})

    def relation(self, name, points, rel):
        self.objects.append({"kind": "relation", "name": name,
                             "points": list(points),
                             "rel": [[int(c) for c in row] for row in rel]})

    def as_json(self):
        return {"objects": self.objects}


def large_instance(seed, k, size=LARGE):
    """One large-n round's inputs: the raw costs C of a space X, a small
    factor Y, a submetric S on X, a span A -> X (embedding i), A -> B
    (map f), a subset U of X and an idempotent cost matrix rho on X."""
    rng = rng_for("large-n", seed, k)
    n = size["x"]
    xl = labels("x", n)
    cost = raw_costs(rng, n, 0.25, halves(n))
    x = closure(cost)
    y = space(rng, size["y"], 0.0)
    perm = list(range(n))
    rng.shuffle(perm)
    cls = [0] * n
    for pos, i in enumerate(perm):
        cls[i] = pos * size["classes"] // n
    gamma = coarser_submetric(rng, x, cls)
    a_idx = sorted(rng.sample(range(n), size["a"]))
    d_a = restrict(x, a_idx)
    f_idx = [rng.randrange(size["b"]) for _ in a_idx]
    b = capped_target(rng, size["b"], d_a, [f_idx])
    u_idx = sorted(rng.sample(range(n), size["u"]))
    t_idx = sorted(rng.sample(range(n), size["t"]))
    rho = subset_cross(x, t_idx)

    doc = Doc()
    doc.costmatrix("C", xl, cost)
    doc.space("X", xl, x)
    doc.space("Y", labels("y", size["y"]), y)
    doc.submetric("S", "X", gamma)
    doc.space("A", [xl[i] for i in a_idx], d_a)
    doc.map("i", "A", "X", [xl[i] for i in a_idx])
    doc.space("B", labels("b", size["b"]), b)
    doc.map("f", "A", "B", ["b%d" % p for p in f_idx])
    doc.costmatrix("rho", xl, rho)
    ref = {"x": x, "y": y, "gamma": gamma, "b": b, "rho": rho,
           "u_idx": u_idx, "a_idx": a_idx, "subset": tuple(xl[i] for i in u_idx),
           "pushout": glued_closure(b, x, list(zip(f_idx, a_idx)))}
    return doc, ref


def cli_workspace(seed):
    """One workspace with several small objects of every kind, and the
    reference data the cli checks need."""
    rng = rng_for("cli", seed)
    r = {}
    r["X1"] = (labels("p", 8), space(rng, 8, 0.2, halves(8)))
    r["X2"] = (labels("u", 6), space(rng, 6, 0.2))
    x1, x2 = r["X1"][1], r["X2"][1]
    a_idx = sorted(rng.sample(range(8), 3))
    r["A"] = ([r["X1"][0][i] for i in a_idx], restrict(x1, a_idx))
    f_idx = [rng.randrange(5) for _ in a_idx]
    r["B"] = (labels("b", 5), capped_target(rng, 5, r["A"][1], [f_idx]))
    g1 = [rng.randrange(4) for _ in range(6)]
    g2 = list(g1)
    for s in rng.sample(range(6), 2):
        g2[s] = rng.randrange(4)
    r["Y"] = (labels("y", 4), capped_target(rng, 4, x2, [g1, g2], 0.2))
    cls1 = [k // 2 for k in range(8)]
    rng.shuffle(cls1)
    g_fine = coarser_submetric(rng, x1, cls1)
    g_coarse = coarser_submetric(rng, g_fine, [c // 2 for c in cls1])
    r["G1"], r["G2"] = g_fine, g_coarse
    q_maps = {}
    for qname, gname in (("Q1", "G1"), ("Q2", "G2")):
        cls, qd = quotient(r[gname])
        r[qname] = (labels("c", len(qd)), qd)
        q_maps[qname] = cls
    v_idx = sorted(rng.sample(range(6), 2))
    w_idx = sorted(rng.sample(range(8), 3))
    r["E"] = [x2, subset_cross(x2, v_idx), subset_cross(x2, v_idx), x2]
    r["E2"] = [x1, subset_cross(x1, w_idx), subset_cross(x1, w_idx), x1]
    r["rho"] = subset_cross(x1, sorted(rng.sample(range(8), 3)))
    r["rho2"] = subset_cross(x2, sorted(rng.sample(range(6), 2)))
    r["R"] = (labels("r", 6), preorder(rng, 6))
    r["R2"] = (labels("s", 4), preorder(rng, 4))
    rel = r["R"][1]
    related = [(i, j) for i in range(6) for j in range(6) if rel[i][j] and i != j]
    wi, wj = rng.choice(related) if related else (0, 0)
    r["witness_pair"] = (r["R"][0][wi], r["R"][0][wj])
    z_idx = sorted(rng.sample(range(6), 2))
    r["subset_idx"] = z_idx
    r["subset"] = ",".join(r["X2"][0][i] for i in z_idx)
    r["maps"] = {
        "i": ("A", "X1", a_idx),
        "f": ("A", "B", f_idx),
        "g1": ("X2", "Y", g1),
        "g2": ("X2", "Y", g2),
        "q1": ("X1", "Q1", q_maps["Q1"]),
        "q2": ("X1", "Q2", q_maps["Q2"]),
    }

    doc = Doc()
    for name in ("X1", "X2", "Y", "A", "B", "Q1", "Q2"):
        doc.space(name, *r[name])
    for name, (src, tgt, assign) in r["maps"].items():
        doc.map(name, src, tgt, [r[tgt][0][k] for k in assign])
    doc.submetric("G1", "X1", r["G1"])
    doc.submetric("G2", "X1", r["G2"])
    doc.blockmetric("E", "X2", r["E"])
    doc.blockmetric("E2", "X1", r["E2"])
    doc.costmatrix("rho", r["X1"][0], r["rho"])
    doc.costmatrix("rho2", r["X2"][0], r["rho2"])
    doc.relation("R", *r["R"])
    doc.relation("R2", *r["R2"])
    return doc, r


# The two inputs below reproduce known program faults; they do not
# depend on the seed, so each fails in every run or in none.

# A distance token with a zero denominator: malformed input.
PARSE_FAULT = {"objects": [
    {"kind": "space", "name": "Z", "points": ["a", "b"],
     "dist": [["0", "1/0"], ["1", "0"]]}]}

# f: A -> B stretches d(s, t) = 1 to 3, so it is no morphism and the
# pushout along it is undefined.
PUSHOUT_FAULT = {"objects": [
    {"kind": "space", "name": "A", "points": ["s", "t"],
     "dist": [["0", "1"], ["1", "0"]]},
    {"kind": "space", "name": "X", "points": ["s", "t", "x"],
     "dist": [["0", "1", "1"], ["1", "0", "1"], ["1", "1", "0"]]},
    {"kind": "space", "name": "B", "points": ["u", "v"],
     "dist": [["0", "3"], ["3", "0"]]},
    {"kind": "map", "name": "i", "source": "A", "target": "X",
     "assignment": ["s", "t"]},
    {"kind": "map", "name": "f", "source": "A", "target": "B",
     "assignment": ["u", "v"]}]}
