"""Reference computations and output checks, written apart from finmet.

Values are exact: a finite distance is a fractions.Fraction and infinity
is None.  Nothing here imports finmet, so a fault in the program cannot
hide in its own reference.  Every check returns None when the output is
right and a one-line reason when it is wrong.
"""

from fractions import Fraction


def token(v):
    """The workspace token of a value: "p/q", "p" or "inf"."""
    if v is None:
        return "inf"
    if v.denominator == 1:
        return str(v.numerator)
    return "%d/%d" % (v.numerator, v.denominator)


def parse_token(tok):
    if tok == "inf":
        return None
    p, _, q = tok.partition("/")
    return Fraction(int(p), int(q) if q else 1)


def parse_matrix(rows):
    return [[parse_token(t) for t in row] for row in rows]


def add(u, v):
    if u is None or v is None:
        return None
    return u + v


def leq(u, v):
    return v is None or (u is not None and u <= v)


def vmin(u, v):
    return u if leq(u, v) else v


def vmax(u, v):
    return v if leq(u, v) else u


def closure(cost):
    """All-pairs shortest paths (Floyd-Warshall) on a square matrix."""
    d = [list(row) for row in cost]
    n = len(d)
    for k in range(n):
        row_k = d[k]
        for i in range(n):
            dik = d[i][k]
            if dik is None:
                continue
            row_i = d[i]
            for j in range(n):
                dkj = row_k[j]
                if dkj is not None:
                    s = dik + dkj
                    if row_i[j] is None or s < row_i[j]:
                        row_i[j] = s
    return d


def minplus_square(m):
    n = len(m)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            best = None
            for k in range(n):
                best = vmin(best, add(m[i][k], m[k][j]))
            row.append(best)
        out.append(row)
    return out


def metric_violations(d):
    """Number of (diagonal and triangle) axiom failures of a matrix."""
    n = len(d)
    bad = sum(1 for i in range(n) if d[i][i] != 0)
    for i in range(n):
        for j in range(n):
            dij = d[i][j]
            for k in range(n):
                if not leq(d[i][k], add(dij, d[j][k])):
                    bad += 1
    return bad


def restrict(d, idx):
    return [[d[i][j] for j in idx] for i in idx]


def coproduct(d1, d2):
    """Block-diagonal matrix on the disjoint union, infinite across."""
    n1, n2 = len(d1), len(d2)
    return ([list(r) + [None] * n2 for r in d1]
            + [[None] * n1 + list(r) for r in d2])


def glued_closure(b, x, pairs):
    """Closure of B + X with zero-cost arcs both ways between each glued
    pair (index in B, index in X): the pushout submetric."""
    cost = coproduct(b, x)
    nb = len(b)
    for pb, px in pairs:
        cost[pb][nb + px] = Fraction(0)
        cost[nb + px][pb] = Fraction(0)
    return closure(cost)


def subset_cross(d, idx):
    """min over a in the subset of d(x, a) + d(a, y)."""
    n = len(d)
    out = []
    for x in range(n):
        row = []
        for y in range(n):
            best = None
            for a in idx:
                best = vmin(best, add(d[x][a], d[a][y]))
            row.append(best)
        out.append(row)
    return out


def check_matrix(got, want, what="matrix"):
    if len(got) != len(want):
        return "%s: %d rows, expected %d" % (what, len(got), len(want))
    for i, (rg, rw) in enumerate(zip(got, want)):
        if len(rg) != len(rw):
            return "%s: row %d has %d entries, expected %d" % (
                what, i, len(rg), len(rw))
        for j, (u, v) in enumerate(zip(rg, rw)):
            if u != v:
                return "%s[%d][%d] = %s, expected %s" % (
                    what, i, j, token(u), token(v))
    return None


def check_claim(what, claimed, want):
    if claimed != want:
        return "%s reported %s, expected %s" % (what, claimed, want)
    return None


def check_metric_valid(d, claimed):
    return check_claim("metric validity", claimed, metric_violations(d) == 0)


def check_product(d1, labels1, d2, labels2, dist, p1, p2):
    """Sup-metric on all pairs; p1, p2 give each point's components."""
    pairs = list(zip(p1, p2))
    want_pairs = {(a, b) for a in labels1 for b in labels2}
    if len(pairs) != len(want_pairs) or set(pairs) != want_pairs:
        return "product points are not all pairs once"
    i1 = {lab: k for k, lab in enumerate(labels1)}
    i2 = {lab: k for k, lab in enumerate(labels2)}
    want = [[vmax(d1[i1[a]][i1[c]], d2[i2[b]][i2[e]]) for (c, e) in pairs]
            for (a, b) in pairs]
    return check_matrix(dist, want, "product dist")


def check_coproduct(d1, d2, labels, dist, j1, j2):
    """Summands keep their metric, cross distances are infinite."""
    if sorted(list(j1) + list(j2)) != sorted(set(labels)):
        return "injections do not partition the coproduct points"
    idx = {lab: k for k, lab in enumerate(labels)}
    order = [idx[lab] for lab in list(j1) + list(j2)]
    got = [[dist[p][q] for q in order] for p in order]
    return check_matrix(got, coproduct(d1, d2), "coproduct dist")


def check_quotient(gamma, qlabels, qdist, proj):
    """A projection with kernel metric gamma onto a separated space: the
    quotient/submetric duality, point by point."""
    if set(proj) != set(qlabels) or len(set(qlabels)) != len(qlabels):
        return "projection is not onto the quotient points"
    idx = {lab: k for k, lab in enumerate(qlabels)}
    n = len(qlabels)
    for p in range(n):
        for q in range(p + 1, n):
            if qdist[p][q] == 0 and qdist[q][p] == 0:
                return "quotient is not separated at %s, %s" % (
                    qlabels[p], qlabels[q])
    pi = [idx[lab] for lab in proj]
    kernel = [[qdist[a][b] for b in pi] for a in pi]
    return check_matrix(kernel, gamma, "kernel metric of the projection")


def check_blocks(d, idx, blocks):
    """The subset corelation: d on the diagonal blocks, and cross blocks
    that are minima over the subset."""
    cross = subset_cross(d, idx)
    for name, got, want in zip(("g00", "g01", "g10", "g11"), blocks,
                               (d, cross, cross, d)):
        bad = check_matrix(got, want, name)
        if bad:
            return bad
    return None


def zero_diagonal(rho):
    return [a for a in range(len(rho)) if rho[a][a] == 0]


def is_idempotent(rho):
    return minplus_square(rho) == [list(r) for r in rho]


def check_idempotent(rho, claimed):
    return check_claim("idempotence", claimed, is_idempotent(rho))


def check_factor(rho, labels, zero_diag, witnesses, failures):
    """Every finite entry is attained through its zero-diagonal witness;
    infinite entries carry no witness."""
    idx = {lab: k for k, lab in enumerate(labels)}
    zd = zero_diagonal(rho)
    if [idx.get(a) for a in zero_diag] != zd:
        return "zero diagonal %s is wrong" % (list(zero_diag),)
    if failures:
        return "factoring reports failures %s" % (list(failures),)
    n = len(rho)
    for x in range(n):
        for y in range(n):
            key = (labels[x], labels[y])
            if key not in witnesses:
                return "no witness entry for %s" % (key,)
            w = witnesses[key]
            if rho[x][y] is None:
                if w is not None:
                    return "witness %s for an infinite entry %s" % (w, key)
                continue
            a = idx.get(w)
            if a is None or rho[a][a] != 0 \
                    or add(rho[x][a], rho[a][y]) != rho[x][y]:
                return "witness %s does not attain %s" % (w, key)
    return None


def check_nonexpansive(ds, dt, assignment_idx, claimed):
    want = all(leq(dt[assignment_idx[i]][assignment_idx[j]], ds[i][j])
               for i in range(len(ds)) for j in range(len(ds)))
    return check_claim("non-expansiveness", claimed, want)


def check_submetric_valid(base, gamma, claimed):
    n = len(base)
    want = metric_violations(gamma) == 0 and all(
        leq(gamma[i][j], base[i][j]) for i in range(n) for j in range(n))
    return check_claim("submetric validity", claimed, want)


def check_equalizer(labels, d, g1, g2, incl, sub_dist):
    keep = [k for k in range(len(labels)) if g1[k] == g2[k]]
    if list(incl) != [labels[k] for k in keep]:
        return "equalizer points %s are wrong" % (list(incl),)
    return check_matrix(sub_dist, restrict(d, keep), "equalizer dist")


def check_factorize(src_assign, tlabels, dt, image_labels, image_dist,
                    surjection, embedding):
    hit = set(src_assign)
    keep = [k for k, lab in enumerate(tlabels) if lab in hit]
    if list(image_labels) != [tlabels[k] for k in keep]:
        return "image points %s are wrong" % (list(image_labels),)
    if list(surjection) != list(src_assign):
        return "surjection differs from the map"
    if list(embedding) != list(image_labels):
        return "embedding is not the image inclusion"
    return check_matrix(image_dist, restrict(dt, keep), "image dist")


def kernel(dt, assignment_idx):
    return [[dt[a][b] for b in assignment_idx] for a in assignment_idx]


def check_quotient_leq(k1, k2, claimed):
    n = len(k1)
    want = all(leq(k2[i][j], k1[i][j]) for i in range(n) for j in range(n))
    return check_claim("quotient-leq", claimed, want)


def corelation_laws(d, blocks):
    """(reflexive, symmetric, transitive or None, equivalence)."""
    g00, g01, g10, g11 = blocks
    n = len(d)
    refl = all(leq(d[x][y], b[x][y]) for b in blocks
               for x in range(n) for y in range(n))
    symm = g00 == g11 and g01 == g10
    trans = None
    if refl:
        trans = minplus_square(g01) == g01 and minplus_square(g10) == g10
    return refl, symm, trans, bool(refl and symm and trans)


def check_corelation(d, blocks, claimed):
    return check_claim("corelation laws", tuple(claimed),
                       corelation_laws(d, blocks))


def check_effective(d, labels, blocks, claimed_locus, claimed_effective):
    locus = [a for a in range(len(d)) if blocks[1][a][a] == 0]
    if list(claimed_locus) != [labels[a] for a in locus]:
        return "zero locus %s is wrong" % (list(claimed_locus),)
    return check_claim("effectiveness", claimed_effective,
                       check_blocks(d, locus, blocks) is None)


def check_relation_witness(rel, labels, x, y, w):
    idx = {lab: k for k, lab in enumerate(labels)}
    i, j, a = idx[x], idx[y], idx.get(w)
    if a is None or not (rel[i][a] and rel[a][a] and rel[a][j]):
        return "%s is no density witness for %s R %s" % (w, x, y)
    return None
