"""Shared test utilities: random tables, random affine maps and random covers
over GF(2^n), the algebraic degree from the normal form, the pairwise
definitions of the cover predicates as oracles, the span, affinity and
trivial-cover oracles for F_2 elimination, the pointwise values, linearized
derivatives and per-direction ranks of a DO polynomial by gf.pow and gf.mul
alone, a counter of value-table builds, two vanishing-flat oracles that
share no code with the package's kernels (a brute force over all 2-flats and
the Walsh fourth moment), the str.format text of a block list that
PartialQuadrupleSystem.text_chunks replaced, the O(m^3) weight-3/4 codeword
enumerator that the pair-sum kernel of cycliccode replaced, the cyclotomic
class representatives, the pointwise per-direction uniformities that a
spectrum must report, the check of sampled directions against the plain pass
at sizes no full oracle reaches, the one-flat rref that the lane-parallel
reduction of covers replaced, and the direct slow paths that only tests
call: the range-checked field sum, the pointwise derivative table, the
columns of L_{f,a} read off a value table, the b-by-b derivative histogram
of one direction, the linear part of a flat and membership by elimination,
the block validator and the checked partial quadruple system that
enumerate_flats skips, the blocks through given points, block maps and
isomorphism witnesses, the primitive cube root of unity, the twin-odd-t
exponents, the skew test of one flat image, the permutation test of a table,
and the pointwise image of a cover under a value table, the oracle for the
Gold image kernel, with the recovery of a flat from its points."""

from collections import Counter, defaultdict
from itertools import combinations, starmap
import random

from vanishingflats import (
    GF, AffineSubspace, Cover, FunctionTable, ParityCheckSpec, PartialQuadrupleSystem,
)
from vanishingflats.gf2n import echelon, span


def count_table_builds(monkeypatch):
    """A list that gains one entry per FunctionTable.__init__ call from now on."""
    calls = []
    init = FunctionTable.__init__

    def counted(self, gf, values):
        calls.append(gf)
        init(self, gf, values)

    monkeypatch.setattr(FunctionTable, "__init__", counted)
    return calls


def gf_add(gf, a, b):
    """a + b in gf, both range-checked."""
    gf._check(a)
    gf._check(b)
    return a ^ b


def derivative(f, a):
    """Value table of x -> f(x+a) + f(x), point by point."""
    t = f.values
    return [t[x ^ a] ^ t[x] for x in range(len(t))]


def read_columns(table, a):
    """The images L_{f,a}(e_k) = f(a + e_k) + f(e_k) + f(a) + f(0), k < n, read
    off the value table of a function f of degree <= 2: at a = e_m, the
    polar-matrix entries B(e_m, e_k)."""
    t = table.values
    base = t[a] ^ t[0]
    return [t[a ^ 1 << k] ^ t[1 << k] ^ base for k in range(table.field.n)]


def histogram(f, a):
    """b -> delta_f(a, b) for each b taken: the half_derivatives counts, doubled."""
    (_, _, values), = f.half_derivatives((a,))
    return Counter({b: 2 * c for b, c in Counter(values).items()})


def random_table(gf, rng):
    return FunctionTable(gf, [rng.randrange(gf.order) for _ in gf.elements()])


def apply(columns, x):
    """The F_2-linear map with columns[k] the image of e_k, at x: the XOR of
    the columns selected by the bits of x."""
    r = 0
    for k, column in enumerate(columns):
        if x >> k & 1:
            r ^= column
    return r


def random_invertible_matrix(n, rng):
    """The columns of a random invertible n x n matrix over F_2."""
    while True:
        columns = [rng.randrange(1, 1 << n) for _ in range(n)]
        if len(echelon(columns)) == n:
            return columns


def random_affine_permutation(gf, rng):
    """(forward, inverse) point maps of a random affine permutation."""
    m = random_invertible_matrix(gf.n, rng)
    c = rng.randrange(gf.order)
    fwd = [apply(m, x) ^ c for x in gf.elements()]
    inv = [0] * gf.order
    for x, y in enumerate(fwd):
        inv[y] = x
    return fwd, inv


def random_affine_map(gf, rng):
    """A random (not necessarily invertible) F_2-affine point map."""
    m = [rng.randrange(gf.order) for _ in range(gf.n)]
    c = rng.randrange(gf.order)
    return [apply(m, x) ^ c for x in gf.elements()]


def moebius(values):
    """The binary Moebius transform of a table of 2^n entries, taking values
    to normal-form coefficients and back (it is its own inverse). It is an
    XOR, so it runs on all n coordinates at once."""
    anf = list(values)
    h = 1
    while h < len(anf):
        for u in range(len(anf)):
            if u & h:
                anf[u] ^= anf[u ^ h]
        h *= 2
    return anf


def algebraic_degree(values):
    """The largest weight of an exponent u whose normal-form coefficient is
    nonzero, 0 for a constant."""
    return max((bin(u).count("1") for u, c in enumerate(moebius(values)) if c), default=0)


def random_cover(gf, d, rng):
    """A random cover of dimension d by recursive splitting of GF(2^n).

    A flat of dimension k > d, in a random basis w of its linear part, either
    halves into base + span(w[1:]) and its parallel coset, or (for k >= 3 and
    k >= d + 2) quarters into four flats whose linear parts are pairwise
    distinct and share span(w[3:]): base + {0, w1}, base + w2 + {0, w2 + w3},
    base + w1 + w2 + {0, w3} and base + w1 + w3 + {0, w1 + w2}, each plus
    span(w[3:]). The pieces split on independently, so the cover mixes skew,
    parallel and partially meeting pairs of linear parts."""
    flats, todo = [], [(0, [1 << k for k in range(gf.n)])]
    while todo:
        base, basis = todo.pop()
        k = len(basis)
        w = [apply(basis, col) for col in random_invertible_matrix(k, rng)]
        if k == d:  # a random base and basis, so parts meet in sums, not shared vectors
            flats.append(AffineSubspace(base ^ apply(w, rng.randrange(1 << k)), tuple(w)))
        elif k >= max(3, d + 2) and rng.random() < 0.5:
            w1, w2, w3, *rest = w
            todo += [(base, [w1, *rest]), (base ^ w2, [w2 ^ w3, *rest]),
                     (base ^ w1 ^ w2, [w3, *rest]), (base ^ w1 ^ w3, [w1 ^ w2, *rest])]
        else:
            todo += [(base, w[1:]), (base ^ w[0], w[1:])]
    rng.shuffle(flats)
    return Cover(gf, d, flats)


def corrupt_cover(cover, rng):
    """A copy of cover with one flat spoiled: its base moved to a random point,
    moved outside the field, one basis vector dropped, or one independent
    vector of the field added to its basis."""
    flats = list(cover.flats)
    i = rng.randrange(len(flats))
    flat = flats[i]
    kinds = ["move", "outside"]
    kinds += ["drop"] if flat.basis else []
    kinds += ["extra"] if len(flat.basis) < cover.field.n else []
    kind = rng.choice(kinds)
    if kind == "extra":
        extra = rng.choice([x for x in cover.field.elements()
                            if len(echelon([*flat.basis, x])) > len(flat.basis)])
        flats[i] = AffineSubspace(flat.base, (*flat.basis, extra))
    elif kind == "move":
        flats[i] = AffineSubspace(rng.randrange(cover.field.order), flat.basis)
    elif kind == "outside":
        flats[i] = AffineSubspace(rng.choice([-1 - flat.base, flat.base + cover.field.order]),
                                  flat.basis)
    else:
        flats[i] = AffineSubspace(flat.base, flat.basis[1:])
    return Cover(cover.field, cover.dimension, flats)


def _point_sets(cover):
    return [set(f.points()) for f in cover.flats]


def oracle_overlapping_pairs(cover):
    """(i, j), i < j, for every pair of flats whose point sets meet."""
    sets = _point_sets(cover)
    return [(i, j) for i, j in combinations(range(len(sets)), 2) if sets[i] & sets[j]]


def oracle_is_cover(cover):
    """Every flat has dimension d and points in the field, no two flats meet,
    and together they hold every point."""
    q = cover.field.order
    sets = _point_sets(cover)
    return (all(len(f.basis) == cover.dimension for f in cover.flats)
            and all(0 <= p < q for s in sets for p in s)
            and not oracle_overlapping_pairs(cover)
            and len(set().union(*sets)) == q)


def linear_part(flat):
    """The associated linear subspace {p + base}, as a point set."""
    return frozenset(p ^ flat.base for p in flat.points())


def contains(flat, x):
    return len(echelon([*flat.basis, x ^ flat.base])) == len(flat.basis)


def oracle_nonparallel(cover):
    """No two flats have the same linear part."""
    return all(linear_part(f) != linear_part(g) for f, g in combinations(cover.flats, 2))


def oracle_totally_skew(cover):
    """Every two linear parts meet only in 0."""
    return all(linear_part(f) & linear_part(g) == {0}
               for f, g in combinations(cover.flats, 2))


def oracle_rref(vectors):
    """Reduced row-echelon basis of the span, as a descending tuple of ints,
    one flat at a time: echelon, then back-substitution. The oracle of the
    lane-parallel reduction in covers."""
    basis = echelon(vectors)
    # back-substitute so each pivot bit appears in exactly one basis vector
    basis.sort(reverse=True)
    for i in range(len(basis)):
        top = basis[i].bit_length() - 1
        for j in range(i):
            if basis[j] >> top & 1:
                basis[j] ^= basis[i]
    return tuple(basis)


def span_closure(vectors):
    """The F_2-span of vectors as a set, by closing {0} under adding each one."""
    span = {0}
    for v in vectors:
        span |= {w ^ v for w in span}
    return span


def random_basis(n, k, rng):
    """k random linearly independent vectors of n bits, in no echelon form."""
    while True:
        basis = [rng.randrange(1, 1 << n) for _ in range(k)]
        if len(span_closure(basis)) == 1 << k:
            return basis


def oracle_is_affine(pts):
    """A nonempty point set is an affine subspace over F_2 iff x + y + z lies
    in it for every x, y, z in it."""
    pts = set(pts)
    return bool(pts) and all(x ^ y ^ z in pts for x in pts for y in pts for z in pts)


def oracle_trivial_cover(gf, basis):
    """The cosets of span(basis), each given by its least point: the least
    point not yet covered, ascending."""
    basis, linear = oracle_rref(basis), span_closure(basis)
    flats, covered = [], set()
    for x in gf.elements():
        if x not in covered:
            flats.append(AffineSubspace(x, basis))
            covered |= {x ^ v for v in linear}
    return Cover(gf, len(basis), flats)


def do_value(poly, x):
    """The DO polynomial poly at x, term by term by gf.pow and gf.mul: no
    exp or log list and no value table."""
    gf = poly.field
    r = 0
    for (i, j), c in poly.coeffs.items():
        r ^= gf.mul(c, gf.mul(gf.pow(x, 1 << i), gf.pow(x, 1 << j)))
    return r


def linearized_at(poly, a, x):
    """L_{f,a}(x) = sum c_ij (a^(2^i) x^(2^j) + a^(2^j) x^(2^i)), evaluated
    directly."""
    gf = poly.field
    r = 0
    for (i, j), c in poly.coeffs.items():
        ai, aj = gf.pow(a, 1 << i), gf.pow(a, 1 << j)
        xi, xj = gf.pow(x, 1 << i), gf.pow(x, 1 << j)
        r ^= gf.mul(c, gf.mul(ai, xj) ^ gf.mul(aj, xi))
    return r


def linearized_columns(poly, a):
    """The images L_{f,a}(e_k), k < n, by the direct formula."""
    return [linearized_at(poly, a, 1 << k) for k in range(poly.field.n)]


def direct_rank_multiset(poly):
    """[rank(L_{f,a}) for each nonzero a]: one elimination per direction of
    the columns given by the direct formula."""
    return [len(echelon(linearized_columns(poly, a))) for a in range(1, poly.field.order)]


def brute_force_flats(f):
    """Every vanishing flat of f as a sorted 4-tuple, in increasing order: all
    2-flats {x, y, z, x^y^z} with x < y < z < x^y^z on which f sums to 0."""
    t = f.values
    return [(x, y, z, x ^ y ^ z) for x, y, z in combinations(range(len(t)), 3)
            if x ^ y ^ z > z and t[x] ^ t[y] ^ t[z] ^ t[x ^ y ^ z] == 0]


def format_blocks(blocks):
    """One "x1 x2 x3 x4" line per block, by str.format: the oracle of the
    per-point strings of PartialQuadrupleSystem.text_chunks."""
    return "\n".join(starmap("{} {} {} {}".format, blocks))


def generalized_spec(gf, f):
    """Length 2^n: the cyclic coordinates prefixed by the zero column."""
    labels = [0, *gf.exp_log()[0]]
    return ParityCheckSpec(gf, labels, [f[x] for x in labels])


def triple_loop_weight_counts(spec):
    """{3: N3, 4: N4} of a ParityCheckSpec by O(m^3) loops over its m columns:
    weight 3 over every triple of columns; weight 4 by solving the first row
    for the last coordinate (so candidate subsets already sum to zero there)
    and checking the second row."""
    labels, images = spec.labels, spec.images
    index_of = {lab: i for i, lab in enumerate(labels)}
    m = len(labels)
    counts = {3: sum(1 for i, j, k in combinations(range(m), 3)
                     if labels[i] ^ labels[j] ^ labels[k] == 0
                     and images[i] ^ images[j] ^ images[k] == 0), 4: 0}

    for i in range(m):
        for j in range(i + 1, m):
            lab_ij = labels[i] ^ labels[j]
            img_ij = images[i] ^ images[j]
            for k in range(j + 1, m):
                fourth = lab_ij ^ labels[k]
                l = index_of.get(fourth)
                if l is not None and l > k and img_ij ^ images[k] ^ images[l] == 0:
                    counts[4] += 1
    return counts


def cyclotomic_class_reps(n):
    """The least member of each class d ~ 2d modulo 2^n - 1, for 0 < d < 2^n - 1."""
    q1 = (1 << n) - 1
    reps = []
    seen = set()
    for d in range(1, q1):
        if d in seen:
            continue
        orbit = {d}
        x = d * 2 % q1
        while x != d:
            orbit.add(x)
            x = x * 2 % q1
        seen |= orbit
        reps.append(d)
    return reps


def pointwise_per_direction(f):
    """a -> max_b delta_f(a, b) for each a != 0, in increasing order of a,
    counting f(x + a) + f(x) over every x."""
    t = f.values
    return {a: max(Counter([t[x ^ a] ^ t[x] for x in range(len(t))]).values())
            for a in range(1, len(t))}


def assert_per_direction_pointwise(f):
    """f.spectrum() against pointwise_per_direction: its per_direction map,
    the JSON form of it (keys in increasing order), the uniformity, the
    values its direction classes carry and the critical directions; and the
    classes must partition the nonzero directions."""
    spec, want = f.spectrum(), pointwise_per_direction(f)
    assert spec.per_direction == want
    assert list(spec.to_json()["per_direction"].items()) == [(str(a), u) for a, u in want.items()]
    assert spec.uniformity == max(want.values())
    assert sorted(a for directions, _ in spec.classes for a in directions) == list(want)
    assert {u for _, u in spec.classes} == set(want.values())
    assert f.critical_directions() == {a for a, u in want.items() if u >= 4}


def assert_sampled_directions(f, k, rng):
    """For k directions a sampled by rng, the class that f's own kernel puts
    a in (f._direction_classes) against the plain pass over a copy of its
    table, FunctionTable(gf, f.values), which assumes no class structure:
    a must lie in exactly one class, with the shape (each nonzero value of
    delta_f(a, .) -> the number of b taking it) and the at_zero
    (delta_f(a, f(a) + f(0))) of the plain histogram. f.delta(a, b) at the
    most frequent b of the last sampled a must match too. Each direction
    costs O(2^n), so this reaches n = 13-16, where no full pass fits a test."""
    gf, t = f.field, f.values
    sample = sorted(rng.sample(range(1, gf.order), k))
    found = {}
    for directions, shape, at_zero in f._direction_classes():
        for a in set(sample).intersection(directions):
            assert a not in found, f"direction {a} lies in two classes"
            found[a] = shape, at_zero
    assert sorted(found) == sample
    for a, _, values in FunctionTable(gf, t).half_derivatives(sample):
        hist = {b: 2 * c for b, c in Counter(values).items()}
        assert found[a] == (dict(Counter(hist.values())), hist[t[a] ^ t[0]]), f"direction {a}"
    b = max(hist, key=hist.get)
    assert f.delta(a, b) == hist[b]


def direction_emits(f):
    """Each vanishing flat once per direction it lies along: for every a != 0,
    all points x bucketed by f(x) + f(x+a), and every two pairs {x, x+a} of a
    bucket joined into a sorted 4-tuple."""
    t = f.values
    emits = []
    for a in range(1, len(t)):
        buckets = defaultdict(set)
        for x in range(len(t)):
            buckets[t[x] ^ t[x ^ a]].add(min(x, x ^ a))
        for xs in buckets.values():
            emits += [tuple(sorted((x, x ^ a, y, y ^ a))) for x, y in combinations(xs, 2)]
    return emits


def _walsh_hadamard(vec):
    """In-place fast Walsh-Hadamard transform of a list of length 2^n."""
    h = 1
    while h < len(vec):
        for i in range(0, len(vec), 2 * h):
            for j in range(i, i + h):
                vec[j], vec[j + h] = vec[j] + vec[j + h], vec[j] - vec[j + h]
        h *= 2
    return vec


def walsh_flat_count(values):
    """The vanishing-flat count from the Walsh fourth moment (Chabaud and
    Vaudenay, EUROCRYPT 1994). With W_f(u, v) = sum_x (-1)^(v.f(x) + u.x),
    S = 2^(-2n) sum_{u,v} W_f(u, v)^4 counts the (x, y, z, w) with
    x+y+z+w = 0 and f(x)+f(y)+f(z)+f(w) = 0. Of these, 3q^2 - 2q have two
    equal points, and each flat gives 24 orderings of its distinct points."""
    q = len(values)
    total = 0
    for v in range(q):
        signs = [1 - 2 * (bin(v & y).count("1") & 1) for y in values]
        total += sum(w ** 4 for w in _walsh_hadamard(signs))
    s, rem = divmod(total, q * q)
    count, rem24 = divmod(s - 3 * q * q + 2 * q, 24)
    assert rem == 0 and rem24 == 0, "fourth moment is not a flat count"
    return count


def canonical_block(points):
    """Sorted 4-tuple form of a block; validates the 2-flat conditions."""
    pts = tuple(sorted(points))
    if len(set(pts)) != 4:
        raise ValueError(f"block points must be distinct: {points}")
    if pts[0] ^ pts[1] ^ pts[2] ^ pts[3] != 0:
        raise ValueError(f"points do not form a 2-dimensional flat: {points}")
    return pts


def checked_pqs(field, blocks):
    """The PartialQuadrupleSystem of the blocks, each made canonical, in
    sorted order; a block that is not a 2-flat or a repeated block raises a
    ValueError. enumerate_flats emits its blocks in that form unchecked."""
    blocks = sorted(canonical_block(b) for b in blocks)
    if len(set(blocks)) != len(blocks):
        raise ValueError("duplicate blocks")
    return PartialQuadrupleSystem(field, blocks)


def blocks_through(pqs, *points):
    want = set(points)
    return [b for b in pqs.blocks if want <= set(b)]


def map_blocks(pqs, point_map):
    """Apply a point permutation to every block and re-canonicalize."""
    q = pqs.field.order
    if callable(point_map):
        perm = [point_map(x) for x in range(q)]
    else:
        perm = list(point_map)
    if sorted(perm) != list(range(q)):
        raise ValueError("point map is not a bijection on the field")
    return checked_pqs(pqs.field, [tuple(perm[x] for x in b) for b in pqs.blocks])


def isomorphism_witness_check(p, q, point_map):
    """True iff the point permutation maps the blocks of p onto the blocks of q."""
    if p.field != q.field:
        raise ValueError("partial quadruple systems live over different fields")
    return map_blocks(p, point_map).blocks == q.blocks


def twin_odd_t_exponents(n):
    """Both exponents sharing the twin-odd-t spectrum: 2^t + 2^((t+1)/2) + 1
    and 2^(t+1) + 3, for n = 2t with t odd (verified by brute force)."""
    t = n // 2
    return (1 << t) + (1 << ((t + 1) // 2)) + 1, (1 << (t + 1)) + 3


def cube_root_of_unity(gf):
    """zeta = alpha^((2^n - 1)/3); requires n even so that 3 | 2^n - 1."""
    if gf.n % 2 != 0:
        raise ValueError(f"no primitive cube root of unity in GF(2^{gf.n}): n must be even")
    return gf.pow(gf.primitive_element(), (gf.order - 1) // 3)


def skew_condition_check(f, x, y):
    """Direct test that the image of the trivial cover on {0, x, y, x+y} is
    totally skew: delta_f along x, y, x+y is 4 and the three derivative image
    sets are pairwise disjoint."""
    if x == 0 or y == 0 or x == y:
        raise ValueError("x, y, x+y must be nonzero and distinct")
    if f[0] ^ f[x] ^ f[y] ^ f[x ^ y] != 0:
        raise ValueError("{0, x, y, x+y} is not a vanishing flat of f")
    images = []
    for a in (x, y, x ^ y):
        hist = histogram(f, a)
        if max(hist.values()) != 4:
            return False
        images.append(set(hist))
    return len(set().union(*images)) == sum(map(len, images))


def from_points(pts):
    """Recover (base, basis) from a point set; raises if not an affine subspace."""
    pts = set(pts)
    base = min(pts)
    # the span of the differences p + base doubles with each one outside
    # it; pts is base + span exactly when the span ends as large as pts
    span, basis = {0}, []
    for p in pts:
        v = p ^ base
        if v not in span:
            span |= {w ^ v for w in span}
            basis.append(v)
            if len(span) > len(pts):
                break
    if len(span) != len(pts):
        raise ValueError("point set is not an affine subspace")
    return AffineSubspace(base, oracle_rref(basis))


def is_permutation(f):
    return len(set(f.values)) == f.field.order  # entries are range-checked


def image_cover(f, cover):
    """The cover formed by the pointwise images of each flat under f.

    Requires f to be a permutation and every flat's image to again be an
    affine subspace (i.e. each flat is a vanishing flat of f).
    """
    if not is_permutation(f):
        raise ValueError("f must be a permutation")
    t, flats = f.values, []
    for idx, flat in enumerate(cover.flats):
        try:
            flats.append(from_points([t[p] for p in span([flat.base], zip(flat.basis))]))
        except ValueError:
            raise ValueError(f"image of flat #{idx} (base {flat.base}) "
                             "is not an affine subspace") from None
    return Cover(cover.field, cover.dimension, flats)


def non_primitive_moduli(n):
    """The irreducible moduli of degree n under which x = 2 is not primitive."""
    out = []
    for m in range(1 << n, 1 << (n + 1)):
        try:
            gf = GF(n, m)
        except ValueError:
            continue
        if gf.primitive_element() != 2:
            out.append(m)
    return out
