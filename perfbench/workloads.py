"""Seeded job lists for the three benchmark workloads.

A job is one CLI invocation: a command, a manifest (a plain JSON document
built here without importing orbifunctor), CLI options, and the known answer
that the report is checked against.  The known answers come from the
mathematics of each instance, not from orbifunctor.

The program under test sees the manifests alone.  The workload seed sets the
job order and, for smith-homology, the signs of a diagonal change of basis.
The jobs themselves are fixed so that every seed runs the same work: the time
of one conjugated complex varies a hundredfold with its conjugation, so
complexes drawn per seed would make the run-to-run spread that of the tail.
"""

from __future__ import annotations

import json
import random
from itertools import combinations

SHIPPED_MANIFEST = "src/orbifunctor/manifests/z2_reflection_sphere.json"

# smith-homology runs from the same command but is not in BENCHMARK.json:
# two of its complexes take 7-9 s each, so a run gets one or two samples of
# them and its figures do not hold the benchmark's bounds from run to run.
WORKLOADS = ("desk", "borel-bar", "smith-homology")

# Re-anchor baseline of the desk jobs (2-CPU x86-64 machine, Python 3.11,
# seconds), printed beside each desk row so a later change shows which job
# moved.
BASELINE_S = {"z2-w3": 0.41, "z2-w4": 1.74, "z2-w5": 6.94,
              "s3-w3": 1.37, "s3-w4": 4.55}

# smith-homology size rule, fixed before any timing: complex k of SMITH_JOBS
# is drawn from the generator seeded "smith-homology:k" and has a piece count
# uniform in [PIECES_LO, PIECES_HI].  No complex is re-drawn or shrunk when it
# turns out slow: that coefficient-growth tail is what the workload measures.
PIECES_LO, PIECES_HI = 60, 110
SMITH_JOBS = 24
TOP_DEGREE = 4
DIVISORS = (0, 1, 2, 3, 4, 6, 12)
OPS_PER_BASIS_VECTOR = 3


class Job:
    """One CLI invocation and the answer it must produce."""

    __slots__ = ("name", "command", "text", "truncation", "expect")

    def __init__(self, name, command, manifest, truncation, expect):
        self.name = name
        self.command = command
        self.text = json.dumps(manifest, sort_keys=True)
        self.truncation = truncation
        self.expect = expect


# ---------------------------------------------------------------------------
# Finite groups as permutation tuples, for the manifests and the oracle
# ---------------------------------------------------------------------------


def _compose(p, q):
    # p after q, matching the program's permutation-group table p[q[i]]
    return tuple(p[i] for i in q)


def _closure(gens, degree):
    ident = tuple(range(degree))
    elements = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for q in gens:
                r = _compose(q, p)
                if r not in elements:
                    elements.add(r)
                    nxt.append(r)
        frontier = nxt
    return frozenset(elements)


class PermGroup:
    """A permutation group with the element labels the manifest uses."""

    def __init__(self, gens, degree):
        self.gens = gens
        self.identity = tuple(range(degree))
        self.elements = sorted(_closure(gens, degree))
        self.degree = degree

    def mult(self, a, b):
        return _compose(a, b)

    def inverse(self, a):
        inv = [0] * self.degree
        for i, v in enumerate(a):
            inv[v] = i
        return tuple(inv)

    def subgroups(self):
        # every subgroup of the groups used here is generated by two elements
        subs = set()
        for a, b in combinations(self.elements, 2):
            subs.add(_closure([a, b], self.degree))
        subs.add(frozenset([self.identity]))
        return subs


class CyclicGroup:
    """Z/n on the labels 0..n-1, as the program's cyclic groups are."""

    def __init__(self, n):
        self.n = n
        self.identity = 0
        self.elements = list(range(n))

    def mult(self, a, b):
        return (a + b) % self.n

    def inverse(self, a):
        return (-a) % self.n

    def subgroups(self):
        return [frozenset(range(0, self.n, d))
                for d in range(self.n, 0, -1) if self.n % d == 0]


def _label(sub):
    return tuple(sorted(sub))


def _coset(group, g, sub):
    return tuple(sorted(group.mult(g, k) for k in sub))


# ---------------------------------------------------------------------------
# Graph-shaped G-CW complexes (0- and 1-cells) and their known homology
# ---------------------------------------------------------------------------


class GraphSpace:
    """Vertex and edge orbits G/H; each edge orbit has endpoints
    (coset r1 into vertex v1) minus (coset r0 into vertex v0)."""

    def __init__(self, group, vertices, edges):
        self.group = group
        self.vertices = vertices        # [stabilizer frozenset]
        self.edges = edges              # [(stab, (r1, v1), (r0, v0))]

    def gcw(self):
        """The manifest's gcw section."""
        g = self.group
        cells = {"0": [_label(h) for h in self.vertices]}
        boundary = []
        if self.edges:
            cells["1"] = [_label(e[0]) for e in self.edges]
            for i, (_, (r1, v1), (r0, v0)) in enumerate(self.edges):
                terms = [["1", str(v1), _coset(g, r1, self.vertices[v1])],
                         ["-1", str(v0), _coset(g, r0, self.vertices[v0])]]
                boundary.append(["1", str(i), terms])
        return {"cells": cells, "boundary": boundary}

    def _cells(self, stabs):
        # every cell x*H of every orbit, keyed by (orbit, coset of x)
        out = []
        for o, h in enumerate(stabs):
            seen = set()
            for x in self.group.elements:
                c = _coset(self.group, x, h)
                if c not in seen:
                    seen.add(c)
                    out.append((o, x, c))
        return out

    def fixed_quotient_betti(self, sub):
        """(b0, b1) of X^K / C(K): the fixed graph modulo the centralizer."""
        g = self.group
        fixes = (lambda x, h: all(
            g.mult(g.mult(g.inverse(x), k), x) in h for k in sub))
        cent = [c for c in g.elements
                if all(g.mult(c, k) == g.mult(k, c) for k in sub)]
        verts = [(o, x, c) for o, x, c in self._cells(self.vertices)
                 if fixes(x, self.vertices[o])]
        edges = [(o, x, c) for o, x, c in self._cells(
                     [e[0] for e in self.edges])
                 if fixes(x, self.edges[o][0])]

        def orbit_key(o, x, stab):
            return min((o, _coset(g, g.mult(c, x), stab)) for c in cent)

        vkey = {}
        for o, x, c in verts:
            vkey[(o, c)] = orbit_key(o, x, self.vertices[o])
        parent = {k: k for k in vkey.values()}

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        edge_orbits = set()
        for o, x, c in edges:
            stab, (r1, v1), (r0, v0) = self.edges[o]
            edge_orbits.add(orbit_key(o, x, stab))
            ends = []
            for r, v in ((r1, v1), (r0, v0)):
                xr = g.mult(x, r)
                ends.append(vkey[(v, _coset(g, xr, self.vertices[v]))])
            parent[find(ends[0])] = find(ends[1])
        components = len({find(k) for k in parent})
        return components, len(edge_orbits) - len(parent) + components


def _group_text(rank, torsion=()):
    parts = []
    if rank == 1:
        parts.append("Z")
    elif rank > 1:
        parts.append(f"Z^{rank}")
    parts.extend(f"Z/{t}" for t in torsion)
    return " ⊕ ".join(parts) if parts else "0"


def reflection_circle():
    g = CyclicGroup(2)
    full, triv = frozenset([0, 1]), frozenset([0])
    return GraphSpace(g, [full, full], [(triv, (0, 1), (0, 0))])


def antipodal_circle():
    g = CyclicGroup(2)
    triv = frozenset([0])
    return GraphSpace(g, [triv], [(triv, (1, 0), (0, 0))])


def point(n):
    g = CyclicGroup(n)
    return GraphSpace(g, [frozenset(g.elements)], [])


def hexagon_s3():
    rot2 = (2, 3, 4, 5, 0, 1)
    flip0 = (0, 5, 4, 3, 2, 1)
    flip1 = (2, 1, 0, 5, 4, 3)
    g = PermGroup([rot2, flip0], 6)
    stab0 = _closure([flip0], 6)
    stab1 = _closure([flip1], 6)
    return GraphSpace(g, [stab0, stab1],
                      [(frozenset([g.identity]),
                        (g.identity, 1), (g.identity, 0))])


# ---------------------------------------------------------------------------
# desk: verify-theorem on the comparison instances
# ---------------------------------------------------------------------------


def _group_section(space):
    g = space.group
    if isinstance(g, CyclicGroup):
        return {"kind": "cyclic", "n": str(g.n)}
    return {"kind": "permutations", "generators": g.gens}


def desk_manifest(space, window, floor=0):
    return {
        "version": "1",
        "group": _group_section(space),
        "family": {"kind": "all"},
        "category": {"kind": "grid", "size": str(window)},
        "icw": {"kind": "classifying", "model": "RF",
                "truncation": str(window)},
        "gcw": space.gcw(),
        "bifunctor": {"kind": "transport-pi0", "degree": "0"},
        "instance": {"top_degree": "2", "through_degree": "2",
                     "vanishing_floor": str(floor), "mode": "strict-fg",
                     "free_complex": "icw"},
    }


def desk_expect(space, window, floor=0):
    """Known answer of verify-theorem on a grid-model desk instance.

    The grid model of window K is contractible through its window and the
    transport-pi0 coefficients are Z in degree 0 at every object, so the
    comparison map is an isomorphism in degrees 0..2.  Raising the vanishing
    floor to 1 breaks hypothesis B at every (index, subgroup) pair, with
    H_0 = Z as witness, and the comparison is not attempted.
    """
    g = space.group
    subs = g.subgroups()
    isotropy = set()
    for h in space.vertices + [e[0] for e in space.edges]:
        for x in g.elements:
            isotropy.add(frozenset(
                g.mult(g.mult(x, k), g.inverse(x)) for k in h))
    groups = {}
    witnesses = []
    for sub in subs:
        lab = _label(sub)
        if sub not in isotropy:
            witnesses.append(f"subgroup {lab!r}: no fixed cells: zero complex")
            continue
        b0, b1 = space.fixed_quotient_betti(sub)
        groups[f"fixed-quotient H_0 at {lab!r}"] = _group_text(b0)
        groups[f"fixed-quotient H_1 at {lab!r}"] = _group_text(b1)
    if floor == 0:
        verdicts = {f"comparison map in degree {p}: isomorphism": True
                    for p in range(3)}
        exit_code = 0
    else:
        verdicts = {"hypothesis B: coefficient vanishing": False,
                    "comparison map": False}
        witnesses += [f"H_0 of E({i!r}, {_label(s)!r}) = Z"
                      for i in range(window + 1) for s in subs]
        exit_code = 1
    return {"exit": exit_code, "groups": groups, "verdicts": verdicts,
            "witnesses": sorted(witnesses)}


def desk_jobs(rng, shipped_text):
    z2, s3 = reflection_circle(), hexagon_s3()
    jobs = [Job(f"z2-w{w}", "verify-theorem", desk_manifest(z2, w), None,
                desk_expect(z2, w)) for w in (3, 4, 5)]
    jobs += [Job(f"s3-w{w}", "verify-theorem", desk_manifest(s3, w), None,
                 desk_expect(s3, w)) for w in (3, 4)]
    shipped = json.loads(shipped_text)
    jobs.append(Job("shipped", "verify-theorem", shipped, None,
                    desk_expect(z2, 3)))
    negative = json.loads(shipped_text)
    negative["instance"]["vanishing_floor"] = str(
        int(negative["instance"]["vanishing_floor"]) + 1)
    jobs.append(Job("shipped-floor+1", "verify-theorem", negative, None,
                    desk_expect(z2, 3, floor=1)))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# borel-bar: homotopy quotient against strict quotient
# ---------------------------------------------------------------------------


def borel_expect(n, truncation, dimension, odd_kernel):
    """Kernel of H_p(X_hG) -> H_p(X/G) for p up to the reliable degree.

    For a point with Z/n acting, X_hG = BZ/n: Z/n in odd degrees, 0 in even
    ones.  For the reflection circle X_hG = B(Z/2 * Z/2), whose odd-degree
    homology is (Z/2)^2.  Free actions give 0.  Every cokernel is 0.
    """
    groups = {}
    for p in range(truncation - dimension):
        ker = odd_kernel if p % 2 else ()
        groups[f"kernel in degree {p}"] = _group_text(0, ker)
        groups[f"cokernel in degree {p}"] = "0"
    verdicts = {f"degree {p}: discrepancy annihilated by "
                f"{n ** p if p else 1}": True
                for p in range(truncation - dimension)}
    verdicts[f"reliable through degree {truncation - 1 - dimension}"] = True
    return {"exit": 0, "groups": groups, "verdicts": verdicts,
            "witnesses": []}


def borel_jobs(rng):
    cases = [("c2-point-t6", point(2), 6, (2,)),
             ("c2-reflection-t5", reflection_circle(), 5, (2, 2)),
             ("c2-antipodal-t5", antipodal_circle(), 5, ()),
             ("c3-point-t4", point(3), 4, (3,))]
    jobs = []
    for name, space, t, odd in cases:
        dimension = 1 if space.edges else 0
        manifest = {"version": "1",
                    "group": {"kind": "cyclic", "n": str(space.group.n)},
                    "gcw": space.gcw()}
        jobs.append(Job(name, "borel-check", manifest, t,
                        borel_expect(space.group.n, t, dimension, odd)))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# smith-homology: conjugated direct sums of elementary complexes
# ---------------------------------------------------------------------------


def _invariant_factors(orders):
    """Invariant factors d_1 | d_2 | ... of the sum of Z/k over `orders`."""
    powers = {}
    for k in orders:
        q = 2
        while k > 1:
            e = 1
            while k % q == 0:
                k //= q
                e *= q
            if e > 1:
                powers.setdefault(q, []).append(e)
            q += 1
    length = max((len(v) for v in powers.values()), default=0)
    factors = [1] * length
    for v in powers.values():
        v.sort(reverse=True)
        for i, e in enumerate(v):
            factors[length - 1 - i] *= e
    return factors


def smith_complex(rng):
    """A seeded plain complex on degrees 0..4 and its homology groups."""
    top = TOP_DEGREE
    basis = {p: 0 for p in range(top + 1)}
    entries = {p: [] for p in range(1, top + 1)}   # (row, col, value)
    free = {p: 0 for p in range(top + 1)}
    torsion = {p: [] for p in range(top + 1)}
    for _ in range(rng.randint(PIECES_LO, PIECES_HI)):
        if rng.random() < 0.25:
            p = rng.randint(0, top)
            basis[p] += 1
            free[p] += 1
            continue
        p = rng.randint(1, top)
        k = rng.choice(DIVISORS)
        entries[p].append((basis[p - 1], basis[p], k))
        basis[p] += 1
        basis[p - 1] += 1
        if k == 0:
            free[p] += 1
            free[p - 1] += 1
        elif k > 1:
            torsion[p - 1].append(k)
    d = {}
    for p in range(1, top + 1):
        m = [[0] * basis[p] for _ in range(basis[p - 1])]
        for i, j, k in entries[p]:
            m[i][j] = k
        d[p] = m
    # Change the basis of each chain group by elementary operations
    # E = 1 + c*e_ij: d_{p+1} <- E d_{p+1} and d_p <- d_p E^-1.
    for p in range(top + 1):
        n = basis[p]
        for _ in range(OPS_PER_BASIS_VECTOR * n if n > 1 else 0):
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-1, 1))
            if p + 1 in d:
                rows = d[p + 1]
                rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
            if p in d:
                for row in d[p]:
                    row[j] -= c * row[i]
    groups = {f"H_{p}": _group_text(free[p], _invariant_factors(torsion[p]))
              for p in range(top + 1)}
    return basis, d, groups


def _flip_signs(rng, basis, d):
    """Conjugate by a seeded diagonal +-1 change of basis: new input bytes,
    the same homology and the same Smith pivot sequence up to sign."""
    signs = {p: [rng.choice((-1, 1)) for _ in range(n)]
             for p, n in basis.items()}
    return {p: [[x * signs[p - 1][i] * signs[p][j]
                 for j, x in enumerate(row)] for i, row in enumerate(m)]
            for p, m in d.items()}


def smith_jobs(rng):
    jobs = []
    for k in range(SMITH_JOBS):
        basis, d, groups = smith_complex(random.Random(f"smith-homology:{k}"))
        d = _flip_signs(rng, basis, d)
        manifest = {"version": "1", "complex": {
            "kind": "plain", "lo": "0", "hi": str(TOP_DEGREE),
            "groups": {str(p): {"rank": str(n), "torsion": []}
                       for p, n in basis.items()},
            "diffs": {str(p): {"nrows": str(basis[p - 1]),
                              "ncols": str(basis[p]),
                              "rows": [[str(x) for x in row] for row in m]}
                      for p, m in d.items()}}}
        jobs.append(Job(f"cx{k:02d}", "homology", manifest, None,
                        {"exit": 0, "groups": groups,
                         "verdicts": {"homology computed": True},
                         "witnesses": []}))
    rng.shuffle(jobs)
    return jobs


def make_jobs(workload, seed, shipped_text):
    """The workload's job list; the seed sets the order (and for
    smith-homology the sign changes of basis)."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "desk":
        return desk_jobs(rng, shipped_text)
    if workload == "borel-bar":
        return borel_jobs(rng)
    if workload == "smith-homology":
        return smith_jobs(rng)
    raise ValueError(f"unknown workload {workload!r}")
