"""Finite groups as explicit multiplication tables.

Elements are the dense integers 0..order-1 with 0 the identity, so every
derived object (class partitions, subgroups, quotients) has a canonical,
reproducible form.  All types are immutable after construction and all
operations are pure.
"""

from __future__ import annotations

import re
from functools import wraps
from math import factorial, lcm, prod
from operator import itemgetter

from .errors import ConsistencyError, GroupConstructionError, OrderBoundError


def cached(fn):
    """Cache `fn(owner, *args)` in `owner._memo` under the key `(fn, *args)`,
    or `fn` itself when owner is the only argument.

    This is the package's one cache rule.  Arguments are positional, without
    defaults, and hashable; equal ones share an entry, and a subgroup, one
    object per member set, is keyed by identity.  A call that raises stores
    nothing, so the checks inside `fn` run on every miss and a hit only ever
    repeats a call that passed them.  The wrapper is chosen once by arity, so
    a hit packs no argument tuple it does not need.
    """
    arity = fn.__code__.co_argcount
    if arity == 1:
        def lookup(owner):
            memo = owner._memo
            try:
                return memo[fn]
            except KeyError:
                pass
            value = memo[fn] = fn(owner)
            return value
    elif arity == 2:
        def lookup(owner, a):
            key, memo = (fn, a), owner._memo
            try:
                return memo[key]
            except KeyError:
                pass
            value = memo[key] = fn(owner, a)
            return value
    else:
        def lookup(owner, *args):
            key, memo = (fn, *args), owner._memo
            try:
                return memo[key]
            except KeyError:
                pass
            value = memo[key] = fn(owner, *args)
            return value

    return wraps(fn)(lookup)


def release(owner) -> None:
    """Drop every entry `cached` holds for owner; a later call recomputes
    it.  Entries held by other owners, the objects owner's entries point
    to included, are kept."""
    owner._memo = {}


class GroupTable:
    """A finite group given by its full multiplication table.

    The table is validated at construction: Latin square, two-sided
    identity at 0, two-sided inverses, and associativity by Light's test,
    exact at every order.  `gens` are chosen greedily: each element that no
    left-bracketed product of the earlier ones reaches from 0 becomes one,
    so they generate the group, at most log2(order) of them.  (ab)c =
    a(bc) is checked for every a and c and each b in gens only: the b that
    pass are closed under products and include 0, so every b passes.
    `quotient_of` is (G, N) when `quotient_group` built the group as G/N,
    and None otherwise.
    """

    __slots__ = ("order", "mul", "inv", "gens", "label", "quotient_of", "_memo")

    def __init__(self, mul, label: str = "G"):
        rows = tuple(tuple(map(int, row)) for row in mul)
        n = len(rows)
        if n == 0:
            raise GroupConstructionError("empty multiplication table")
        full = frozenset(range(n))
        for g, row in enumerate(rows):
            if len(row) != n:
                raise GroupConstructionError(f"row {g} has length {len(row)}, expected {n}")
            if frozenset(row) != full:
                raise GroupConstructionError(f"row {g} is not a permutation of 0..{n - 1}")
        for c, col in enumerate(zip(*rows)):
            if frozenset(col) != full:
                raise GroupConstructionError(f"column {c} is not a permutation of 0..{n - 1}")
        if rows[0] != tuple(range(n)) or tuple(row[0] for row in rows) != rows[0]:
            raise GroupConstructionError("element 0 is not a two-sided identity")
        inv = [-1] * n
        for g in range(n):
            h = rows[g].index(0)
            if rows[h][g] != 0:
                raise GroupConstructionError(f"element {g} has no two-sided inverse")
            inv[g] = h
        gens, reached = [], {0}
        for x in range(n):
            if x not in reached:
                gens.append(x)
                frontier = list(reached)
                while frontier:
                    row = rows[frontier.pop()]
                    for y in map(row.__getitem__, gens):
                        if y not in reached:
                            reached.add(y)
                            frontier.append(y)
        for b in gens:
            rb, times_b = rows[b], itemgetter(*rows[b])
            for a, ra in enumerate(rows):
                if rows[ra[b]] != times_b(ra):
                    c = next(c for c in range(n) if rows[ra[b]][c] != ra[rb[c]])
                    raise GroupConstructionError(f"associativity fails at ({a},{b},{c})")
        self.order = n
        self.mul = rows
        self.inv = tuple(inv)
        self.gens = tuple(gens)
        self.label = label
        self.quotient_of = None
        self._memo = {}

    # basic operations

    def conjugate(self, g: int, h: int) -> int:
        """h g h^-1."""
        return self.mul[self.mul[h][g]][self.inv[h]]

    def element_order(self, g: int) -> int:
        k, x = 1, g
        while x != 0:
            x = self.mul[x][g]
            k += 1
        return k

    def exponent(self) -> int:
        """lcm of the element orders."""
        return lcm(*(self.element_order(g) for g in range(self.order)))

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        return f"GroupTable({self.label}, order={self.order})"


class SubgroupSet:
    """A subgroup of a GroupTable, stored as its member set, one object per
    member set of each group: equality and hashing are identity.

    The first `SubgroupSet(G, members)` verifies that the set is a subgroup
    (contains the identity and is closed under multiplication; inverses
    follow by finiteness); later ones return the object G holds.  `mask`
    has bit g set for each member g; `json` is the canonical JSON of the
    sorted member list, encoded on first use.
    """

    __slots__ = ("parent", "members", "mask", "json")

    def __new__(cls, parent: GroupTable, members):
        mask, n = 0, parent.order
        for g in members:
            if not 0 <= g < n:
                raise GroupConstructionError(f"element {g} outside 0..{n - 1}")
            mask |= 1 << g
        return _subgroup(parent, mask)

    def __len__(self) -> int:
        return len(self.members)

    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def json_bytes(self) -> bytes:
        if self.json is None:
            self.json = b"[%s]" % b",".join(b"%d" % g for g in sorted(self.members))
        return self.json

    def __repr__(self) -> str:
        return f"SubgroupSet({self.parent.label}, {sorted(self.members)})"


@cached
def _subgroup(G: GroupTable, mask: int) -> SubgroupSet:
    """The one SubgroupSet of G whose members are the bits of mask."""
    if not mask & 1:
        raise GroupConstructionError("subgroup must contain the identity")
    mem = frozenset(g for g in range(G.order) if mask >> g & 1)
    for a in mem:
        row = G.mul[a]
        for b in mem:
            if not mask >> row[b] & 1:
                raise GroupConstructionError(f"set is not closed under multiplication: {a}*{b} escapes")
    H = object.__new__(SubgroupSet)
    H.parent, H.members, H.mask, H.json = G, mem, mask, None
    return H


@cached
def trivial_subgroup(G: GroupTable) -> SubgroupSet:
    """{1}, built once per group."""
    return SubgroupSet(G, (0,))


@cached
def full_subgroup(G: GroupTable) -> SubgroupSet:
    """G itself, built once per group."""
    return SubgroupSet(G, range(G.order))


class ElementPartition:
    """A partition of 0..n-1 into nonempty blocks, in canonical order.

    The block containing 0 comes first; the rest are ordered by their
    smallest member.
    """

    __slots__ = ("n", "blocks", "block_of")

    def __init__(self, n: int, blocks):
        blks = [frozenset(int(x) for x in b) for b in blocks]
        if any(not b for b in blks):
            raise GroupConstructionError("partition blocks must be nonempty")
        blks.sort(key=lambda b: (0 not in b, min(b)))
        block_of = [-1] * n
        for idx, b in enumerate(blks):
            for x in b:
                if x < 0 or x >= n:
                    raise GroupConstructionError(f"element {x} outside 0..{n - 1}")
                if block_of[x] != -1:
                    raise GroupConstructionError(f"element {x} appears in two blocks")
                block_of[x] = idx
        if -1 in block_of:
            raise GroupConstructionError("partition does not cover every element")
        self.n = n
        self.blocks = tuple(blks)
        self.block_of = tuple(block_of)

    def __len__(self) -> int:
        return len(self.blocks)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ElementPartition)
            and other.n == self.n
            and other.blocks == self.blocks
        )

    def __hash__(self):
        return hash((self.n, self.blocks))

    def to_json(self):
        return [sorted(b) for b in self.blocks]

    def __repr__(self) -> str:
        return f"ElementPartition({[sorted(b) for b in self.blocks]})"


# ---------------------------------------------------------------------------
# derived structure


@cached
def conjugacy_classes(G: GroupTable) -> ElementPartition:
    """Orbits of the conjugation action, identity class first."""
    seen = [False] * G.order
    blocks = []
    for g in range(G.order):
        if seen[g]:
            continue
        orbit = {G.conjugate(g, h) for h in range(G.order)}
        for x in orbit:
            seen[x] = True
        blocks.append(orbit)
    return ElementPartition(G.order, blocks)


def generated_subgroup(G: GroupTable, seed) -> SubgroupSet:
    """Smallest subgroup containing seed; the empty seed gives {1}."""
    members = {0, *map(int, seed)}
    frontier = list(members)
    while frontier:
        a = frontier.pop()
        row = G.mul[a]
        for b in tuple(members):
            for ab in (row[b], G.mul[b][a]):
                if ab not in members:
                    members.add(ab)
                    frontier.append(ab)
    return SubgroupSet(G, members)


def element_mask(elements) -> int:
    """The bitmask with bit g set for each g in elements."""
    mask = 0
    for g in elements:
        mask |= 1 << g
    return mask


@cached
def normal_subgroups(G: GroupTable) -> tuple[SubgroupSet, ...]:
    """The lattice of normal subgroups of G, smallest first, computed once
    per group; every normal subgroup used later is one of these objects.

    A normal subgroup is the product of the normal closures of the
    conjugacy classes it contains, so the lattice is the set of products
    of those closures, grown one closure at a time from {1}.
    """
    closures = dict.fromkeys(generated_subgroup(G, b) for b in conjugacy_classes(G).blocks[1:])
    found = {trivial_subgroup(G)}
    frontier = [trivial_subgroup(G)]
    while frontier:
        H = frontier.pop()
        for C in closures:
            if not C.mask & ~H.mask:
                continue
            K = SubgroupSet(G, {G.mul[h][c] for h in H.members for c in C.members})
            if K not in found:
                found.add(K)
                frontier.append(K)
    return tuple(sorted(found, key=lambda H: (len(H), H.sorted_members())))


@cached
def normal_subgroup(G: GroupTable, mask: int) -> SubgroupSet:
    """The member of the lattice whose elements are the bits of mask."""
    for H in normal_subgroups(G):
        if H.mask == mask:
            return H
    raise GroupConstructionError(f"{mask:#x} is not the mask of a normal subgroup")


@cached
def class_masks(G: GroupTable) -> tuple[int, ...]:
    """The mask of the conjugacy class of each element."""
    classes = conjugacy_classes(G)
    masks = [element_mask(b) for b in classes.blocks]
    return tuple(masks[b] for b in classes.block_of)


@cached
def coset_masks(G: GroupTable, H: SubgroupSet) -> tuple[int, ...]:
    """The mask of the coset gH of each element g."""
    return tuple(element_mask(row[h] for h in H.members) for row in G.mul)


@cached
def normal_closure(G: GroupTable, mask: int) -> SubgroupSet:
    """The subgroup generated by a set closed under conjugation: the
    smallest member of the lattice containing it, which is the meet of
    every member containing it.  A set that is not closed raises."""
    cls, rest = class_masks(G), mask
    while rest:
        c = cls[(rest & -rest).bit_length() - 1]
        if c & ~mask:
            raise ConsistencyError(f"{mask:#x} is not closed under conjugation")
        rest &= ~c
    return next(H for H in normal_subgroups(G) if not mask & ~H.mask)


def subgroup_product(G: GroupTable, A: SubgroupSet, B: SubgroupSet) -> SubgroupSet:
    """AB for normal subgroups A and B: their join in the lattice."""
    return normal_closure(G, normal_subgroup(G, A.mask).mask | normal_subgroup(G, B.mask).mask)


@cached
def quotient_image(G: GroupTable, N: SubgroupSet, H: SubgroupSet) -> SubgroupSet:
    """HN/N, the image of the normal subgroup H in G/N, looked up in the
    lattice of G/N."""
    Q, proj = quotient_group(G, N)
    return normal_subgroup(Q, element_mask(proj[g] for g in H.members))


@cached
def quotient_group(G: GroupTable, N: SubgroupSet) -> tuple[GroupTable, tuple[int, ...]]:
    """G/N built from its own cosets, with its projection map; N must be a
    member of the lattice `normal_subgroups(G)`.  Cosets are numbered by
    least member, which puts the identity coset at 0, and G/N.quotient_of
    is (G, N), whatever G is.  G/{1} is G itself, with the identity
    projection.  The projection is verified to be a homomorphism:
    proj(ab) = proj(a) proj(b) for every a and each b in G.gens, which as
    G and Q are associative holds for every b that is a product of such b,
    so for all of G.
    """
    if N.parent is not G:
        raise GroupConstructionError("subgroup belongs to a different group")
    if len(N) == 1:
        return G, tuple(range(G.order))
    if N not in normal_subgroups(G):
        raise GroupConstructionError("cannot form a quotient by a non-normal subgroup")
    coset_of = [-1] * G.order
    reps = []  # an element first met is the smallest of its coset
    for g in range(G.order):
        if coset_of[g] == -1:
            for n in N.members:
                coset_of[G.mul[g][n]] = len(reps)
            reps.append(g)
    proj = tuple(coset_of)
    Q = GroupTable([[proj[G.mul[a][b]] for b in reps] for a in reps], label=f"{G.label}/H{len(N)}")
    Q.quotient_of = (G, N)
    for b in G.gens:
        qb = proj[b]
        for a, row in enumerate(G.mul):
            if proj[row[b]] != Q.mul[proj[a]][qb]:
                raise GroupConstructionError("projection is not a homomorphism")
    return Q, proj


# ---------------------------------------------------------------------------
# construction: catalog, permutation generators, raw tables

_FACTOR_RE = re.compile(r"^([A-Za-z]+)(\d*)$")


def _cyclic_table(n: int) -> list[list[int]]:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def _dihedral_table(n: int) -> list[list[int]]:
    # element j*n + i encodes r^i s^j with s r s = r^-1
    size = 2 * n

    def mul(a, b):
        i, j = a % n, a // n
        k, l = b % n, b // n
        i2 = (i + k) % n if j == 0 else (i - k) % n
        return ((j + l) % 2) * n + i2

    return [[mul(a, b) for b in range(size)] for a in range(size)]


_Q8_UNIT_MUL = {
    # (u, v) -> (sign flip, unit) for units 0:1, 1:i, 2:j, 3:k
    (0, 0): (0, 0), (0, 1): (0, 1), (0, 2): (0, 2), (0, 3): (0, 3),
    (1, 0): (0, 1), (1, 1): (1, 0), (1, 2): (0, 3), (1, 3): (1, 2),
    (2, 0): (0, 2), (2, 1): (1, 3), (2, 2): (1, 0), (2, 3): (0, 1),
    (3, 0): (0, 3), (3, 1): (0, 2), (3, 2): (1, 1), (3, 3): (1, 0),
}


def _quaternion8_table() -> list[list[int]]:
    # element 2u + s encodes (-1)^s * unit, units ordered 1, i, j, k

    def mul(a, b):
        ua, sa = a // 2, a % 2
        ub, sb = b // 2, b % 2
        flip, u = _Q8_UNIT_MUL[(ua, ub)]
        return 2 * u + (sa + sb + flip) % 2

    return [[mul(a, b) for b in range(8)] for a in range(8)]


def _generalized_quaternion_table(size: int) -> list[list[int]]:
    # <a, b | a^(size/2) = 1, b^2 = a^(size/4), b a b^-1 = a^-1>
    h = size // 2

    def mul(x, y):
        i, j = x % h, x // h
        k, l = y % h, y // h
        i2 = (i + k) % h if j == 0 else (i - k) % h
        jl = j + l
        if jl == 2:
            return (i2 + h // 2) % h
        return jl * h + i2

    return [[mul(a, b) for b in range(size)] for a in range(size)]


def _perm_table(perms: list[tuple[int, ...]], label: str) -> GroupTable:
    elems = sorted(perms)
    index = {p: i for i, p in enumerate(elems)}
    table = [[index[tuple(p[q[x]] for x in range(len(p)))] for q in elems] for p in elems]
    return GroupTable(table, label=label)


def _symmetric_elements(n: int) -> list[tuple[int, ...]]:
    from itertools import permutations

    return [tuple(p) for p in permutations(range(n))]


def _parity(p: tuple[int, ...]) -> int:
    seen = [False] * len(p)
    parity = 0
    for i in range(len(p)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        parity ^= (length - 1) & 1
    return parity


def _product_table(A: GroupTable, B: GroupTable, label: str) -> GroupTable:
    nb = B.order

    def mul(x, y):
        a1, b1 = divmod(x, nb)
        a2, b2 = divmod(y, nb)
        return A.mul[a1][a2] * nb + B.mul[b1][b2]

    size = A.order * B.order
    return GroupTable([[mul(x, y) for y in range(size)] for x in range(size)], label=label)


def _catalog_factor(name: str):
    """(order, build) for one catalog factor; build() makes its table."""
    m = _FACTOR_RE.match(name)
    if not m:
        raise GroupConstructionError(f"unrecognized catalog name {name!r}")
    kind, digits = m.group(1), m.group(2)
    n = int(digits) if digits else None
    if kind == "C" and n and n >= 1:
        return n, lambda: GroupTable(_cyclic_table(n), label=name)
    if kind == "D" and n and n >= 1:
        return 2 * n, lambda: GroupTable(_dihedral_table(n), label=name)
    if kind == "Q" and n == 8:
        return 8, lambda: GroupTable(_quaternion8_table(), label=name)
    if kind == "Q" and n and n >= 8 and n % 4 == 0:
        return n, lambda: GroupTable(_generalized_quaternion_table(n), label=name)
    if kind == "S" and n and 1 <= n <= 4:
        return factorial(n), lambda: _perm_table(_symmetric_elements(n), label=name)
    if kind == "A" and n == 4:
        return 12, lambda: _perm_table([p for p in _symmetric_elements(4) if _parity(p) == 0], label=name)
    raise GroupConstructionError(f"unrecognized catalog name {name!r}")


def _check_order(order: int, max_order: int | None) -> None:
    if max_order is not None and order > max_order:
        raise OrderBoundError(f"group order {order} exceeds the bound {max_order}", order)


def catalog_group(name: str, max_order: int | None = None) -> GroupTable:
    """Build a named group: Cn, Dn (order 2n), Q4m (m >= 2: Q8, Q12, ...),
    Sn (n<=4), A4, and x-separated direct products such as C2xC2.  An order
    above max_order, read off the name, is refused before any table is built.

    Element numbering is fixed and documented so that derived objects are
    reproducible:

    * Cn: k encodes g^k (addition mod n).
    * Dn: j*n + i encodes r^i s^j with s r s = r^-1.
    * Q8: 2u + s encodes (-1)^s times the unit (1, i, j, k)[u], so the
      elements read 1, -1, i, -i, j, -j, k, -k.
    * Q4m (m > 2): j*(2m) + i encodes a^i b^j with a of order 2m,
      b^2 = a^m, and b a b^-1 = a^-1.
    * Sn and A4: permutation tuples sorted lexicographically; the product
      p*q acts as "apply q, then p".
    * AxB: a*|B| + b, factors combined left to right.
    """
    parts = [f.strip() for f in name.split("x")]
    if not all(parts):
        raise GroupConstructionError(f"unrecognized catalog name {name!r}")
    factors = [_catalog_factor(f) for f in parts]
    _check_order(prod(order for order, _ in factors), max_order)
    tables = [build() for _, build in factors]
    out = tables[0]
    for t in tables[1:]:
        out = _product_table(out, t, label=name)
    if len(tables) > 1:
        out.label = name
    return out


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def _parse_cycles(line: str) -> list[list[int]]:
    cycles = []
    rest = line.strip()
    if not rest:
        raise GroupConstructionError("empty permutation line")
    matched = _CYCLE_RE.findall(rest)
    if not matched or _CYCLE_RE.sub("", rest).strip():
        raise GroupConstructionError(f"malformed cycle notation: {line!r}")
    for body in matched:
        try:
            pts = [int(tok) for tok in body.replace(",", " ").split()]
        except ValueError:
            raise GroupConstructionError(f"non-integer point in cycle ({body})") from None
        if any(p < 1 for p in pts):
            raise GroupConstructionError("cycle points must be positive integers")
        cycles.append(pts)
    points = [p for cycle in cycles for p in cycle]
    if len(set(points)) != len(points):
        raise GroupConstructionError(f"a point occurs twice in {rest!r}: a line must be a product of disjoint cycles")
    return cycles


def permutation_group(lines, label: str = "perm", max_order: int | None = None) -> GroupTable:
    """Closure of permutation generators, one product of disjoint cycles per
    line; the closure stops as soon as it passes max_order elements.  Only
    the points that occur are kept, renumbered in increasing order: every
    other point is fixed by every element."""
    raw = [ln for ln in (str(x).strip() for x in lines) if ln and not ln.startswith("#")]
    if not raw:
        raise GroupConstructionError("no permutation generators given")
    parsed = [_parse_cycles(ln) for ln in raw]
    index = {p: i for i, p in enumerate(sorted({p for cycles in parsed for cycle in cycles for p in cycle}))}
    n = len(index)
    gens = []
    for cycles in parsed:
        perm = list(range(n))
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                perm[index[a]] = index[b]
        gens.append(tuple(perm))
    identity = tuple(range(n))
    elems = {identity}
    frontier = [identity]
    while frontier:
        p = frontier.pop()
        for q in gens:
            pq = tuple(p[q[x]] for x in range(n))
            if pq not in elems:
                elems.add(pq)
                frontier.append(pq)
        if max_order is not None and len(elems) > max_order:
            raise OrderBoundError(f"the generators give more than {max_order} elements, above the bound", len(elems))
    return _perm_table(sorted(elems), label=label)


def group_from_table_text(text: str, label: str = "file", max_order: int | None = None) -> GroupTable:
    """Parse the text format: `order n`, n >= 1, then n rows of n integers;
    an n above max_order is refused before the rows are read."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("order"):
        raise GroupConstructionError("group file must start with 'order n'")
    try:
        n = int(lines[0].split()[1])
    except (IndexError, ValueError) as exc:
        raise GroupConstructionError("malformed 'order n' header") from exc
    if n < 1:
        raise GroupConstructionError(f"malformed 'order n' header: order {n} is not positive")
    _check_order(n, max_order)
    if len(lines) != n + 1:
        raise GroupConstructionError(f"expected {n} table rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        try:
            rows.append([int(tok) for tok in ln.split()])
        except ValueError as exc:
            raise GroupConstructionError(f"non-integer entry in row {ln!r}") from exc
    return GroupTable(rows, label=label)


def read_text(path: str) -> str:
    """The contents of a UTF-8 text file; non-UTF-8 bytes raise GroupConstructionError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise GroupConstructionError(f"{path} is not UTF-8 text (byte {exc.start}: {exc.reason})") from None


def build_group(spec: str, max_order: int | None = None) -> GroupTable:
    """Build a group from a spec string.

    `file:<path>` reads a multiplication-table file, `perm:<path>` reads
    permutation generators in cycle notation, anything else is a catalog
    name.  A group above max_order is refused before its table is built.
    """
    if spec.startswith("file:"):
        path = spec[len("file:"):]
        return group_from_table_text(read_text(path), label=path, max_order=max_order)
    if spec.startswith("perm:"):
        path = spec[len("perm:"):]
        return permutation_group(read_text(path).splitlines(), label=path, max_order=max_order)
    return catalog_group(spec, max_order)
