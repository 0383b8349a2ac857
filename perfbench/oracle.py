"""Checks made apart from superchar.

Everything here starts from a multiplication table and the program's
printed output.  Conjugacy classes, class constants, supercharacter
theories (as central Schur rings) and character-table identities are
computed with plain integers and complex floats; no superchar arithmetic
is used.  The floating tolerance lives only in this file.

Run as a script to print the class-side theory count of catalog groups:

    PYTHONPATH=src python3 perfbench/oracle.py D12 C10 D4xC2
"""

from __future__ import annotations

import cmath
import math
import re
import sys
from fractions import Fraction

TOLERANCE = 1e-6
THEOREM_IDS = frozenset(
    "T-celt T-corgcp L-cp L-vs T-zeta C-class C-hyper L-vsn T-vseries C-vterm "
    "L-vzs T-zs T-vznilp L-scd L-unormal L-irr L-uorder L-ugroup C-ucorr C-ucor "
    "T-ugroupp L-ucap T-udelta L-uchain L-uquot L-ukernel T-final L-sabelian-gcp "
    "P-roworth P-colorth P-prop42".split()
)


class CheckFailed(Exception):
    """An output of the program disagrees with the independent computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class Group:
    """Oracle-side view of a group given by its multiplication table."""

    def __init__(self, mul):
        n = len(mul)
        full = set(range(n))
        for row in mul:
            require(len(row) == n and set(row) == full, "table is not a Latin square")
        require(all(mul[0][g] == g == mul[g][0] for g in range(n)), "0 is not the identity")
        for a in range(n):
            ra = mul[a]
            for b in range(n):
                rab, rb = mul[ra[b]], mul[b]
                require(all(rab[c] == ra[rb[c]] for c in range(n)), "table is not associative")
        self.n = n
        self.mul = mul
        self.inv = [row.index(0) for row in mul]
        class_of = [-1] * n
        classes = []
        for x in range(n):
            if class_of[x] < 0:
                cls = sorted({mul[mul[g][x]][self.inv[g]] for g in range(n)})
                for y in cls:
                    class_of[y] = len(classes)
                classes.append(cls)
        self.classes = classes
        self.class_of = class_of

    def class_constants(self):
        """a[i][j][l] = #{(x, y) in K_i x K_j : xy = z_l} for a fixed z_l in K_l."""
        k = len(self.classes)
        a = [[[0] * k for _ in range(k)] for _ in range(k)]
        for l, cls in enumerate(self.classes):
            z = cls[0]
            for x in range(self.n):
                y = self.mul[self.inv[x]][z]
                a[self.class_of[x]][self.class_of[y]][l] += 1
        return a

    def central_schur_rings(self) -> list[frozenset[frozenset[int]]]:
        """Every partition of G into unions of classes that has {1} as a block,
        is closed under inverses and whose block sums span a subalgebra of
        Z(CG).  These correspond one to one with supercharacter theories
        (Hendrickson 2012), so the list is a class-side count of them."""
        k = len(self.classes)
        a = self.class_constants()
        width = self.n.bit_length() + 1
        mask = (1 << width) - 1
        # class-pair products packed as one integer per pair, width bits per class
        packed = [[sum(a[i][j][l] << (width * l) for l in range(k)) for j in range(k)]
                  for i in range(k)]
        inv_class = [self.class_of[self.inv[c[0]]] for c in self.classes]
        found = []
        for blocks in _set_partitions(list(range(1, k))):
            blockset = {frozenset(b) for b in blocks}
            if any(frozenset(inv_class[c] for c in b) not in blockset for b in blocks):
                continue
            if self._closed(blocks, packed, width, mask):
                found.append(frozenset(
                    frozenset(x for c in block for x in self.classes[c])
                    for block in [[0]] + blocks
                ))
        return found

    @staticmethod
    def _closed(blocks, packed, width, mask) -> bool:
        for s, bs in enumerate(blocks):
            for bt in blocks[s:]:
                v = 0
                for i in bs:
                    row = packed[i]
                    for j in bt:
                        v += row[j]
                for block in blocks:
                    first = (v >> (width * block[0])) & mask
                    if any((v >> (width * c)) & mask != first for c in block[1:]):
                        return False
        return True

    def finest_and_coarsest(self) -> set[frozenset[frozenset[int]]]:
        finest = frozenset(frozenset(c) for c in self.classes)
        if self.n == 1:
            return {finest}
        coarsest = frozenset({frozenset({0}), frozenset(range(1, self.n))})
        return {finest, coarsest}


def _set_partitions(items):
    """All set partitions of a list, as lists of blocks (lists)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in _set_partitions(rest):
        yield [[first]] + smaller
        for i in range(len(smaller)):
            yield smaller[:i] + [[first] + smaller[i]] + smaller[i + 1:]


def check_theories(group: Group, theories, expected, label: str) -> None:
    """The program's theories have exactly the expected Y-partitions."""
    got = [frozenset(frozenset(block) for block in t["yparts"]) for t in theories]
    require(len(got) == len(set(got)), f"{label}: a theory is listed twice")
    require(len(got) == len(expected),
            f"{label}: {len(got)} theories, the class-side count is {len(expected)}")
    require(set(got) == set(expected), f"{label}: Y-partitions differ from the class side")
    for t in theories:
        require(len(t["xparts"]) == len(t["yparts"]), f"{label}: |X| != |Y|")
        require(sorted(x for p in t["xparts"] for x in p) == list(range(len(group.classes))),
                f"{label}: X is not a partition of Irr(G)")


def check_reports(theories, label: str) -> int:
    """Zero fail reports and all 31 theorem ids in every theory; returns the
    number of reports."""
    total = 0
    for t in theories:
        ids = set()
        for r in t["reports"]:
            require(r["status"] != "fail", f"{label}: {r['theorem_id']} fails at {r['scope']}")
            ids.add(r["theorem_id"])
        require(THEOREM_IDS <= ids, f"{label}: missing {sorted(THEOREM_IDS - ids)}")
        total += len(t["reports"])
    return total


# ---------------------------------------------------------------------------
# character tables

_TERM = re.compile(r"^(?:(\d+(?:/\d+)?)\*?)?(z(?:\^(\d+))?)?$")


def complex_value(text: str, e: int) -> complex:
    """Evaluate the display form of a cyclotomic number, `z` = exp(2 pi i / e)."""
    s = text.replace(" ", "").replace("-", "+-")
    total = 0j
    for tok in filter(None, s.split("+")):
        sign = -1 if tok.startswith("-") else 1
        m = _TERM.match(tok.lstrip("-"))
        require(m is not None and (m.group(1) or m.group(2)), f"cannot read value {text!r}")
        coef = Fraction(m.group(1) or 1)
        k = (int(m.group(3) or 1)) if m.group(2) else 0
        total += sign * float(coef) * cmath.exp(2j * math.pi * k / e)
    return total


def closed_form_rows(name: str, to_catalog) -> list[list[complex]] | None:
    """Irreducible characters, as values on each element, of a catalog group
    that is cyclic, a product of cyclic groups, or dihedral.  `to_catalog`
    maps an element id to its catalog id.  Returns None for other groups."""
    factors = name.split("x")
    if all(re.fullmatch(r"C\d+", f) for f in factors):
        ns = [int(f[1:]) for f in factors]
        order = math.prod(ns)

        def coords(c):
            out = []
            for n in reversed(ns):
                c, r = divmod(c, n)
                out.append(r)
            return out[::-1]

        xs = [coords(to_catalog[g]) for g in range(order)]
        rows = []
        for h in range(order):
            hs = coords(h)
            rows.append([
                cmath.exp(2j * math.pi * sum(hi * xi / n for hi, xi, n in zip(hs, x, ns)))
                for x in xs
            ])
        return rows
    m = re.fullmatch(r"D(\d+)", name)
    if m:
        n = int(m.group(1))
        rs = [divmod(to_catalog[g], n) for g in range(2 * n)]  # (j, i) for r^i s^j
        signs = [(1, 1), (1, -1)] + ([(-1, 1), (-1, -1)] if n % 2 == 0 else [])
        rows = [[complex(a ** i * b ** j) for j, i in rs] for a, b in signs]
        for h in range(1, (n - 1) // 2 + 1):
            rows.append([0j if j else complex(2 * math.cos(2 * math.pi * h * i / n))
                         for j, i in rs])
        return rows
    return None


def check_character_table(group: Group, payload: dict, closed_rows, label: str) -> None:
    """Check a table printed by `chartab --format json`: classes against the
    oracle's classes, both orthogonality relations by complex evaluation,
    the central characters against the class constants, and, where known,
    the closed-form characters."""
    k = len(group.classes)
    classes = payload["classes"]
    require(len(classes) == k, f"{label}: {len(classes)} classes, expected {k}")
    col_of_class = {}
    for col, c in enumerate(classes):
        oc = group.class_of[c["rep"]]
        require(oc not in col_of_class, f"{label}: two columns for one class")
        require(c["size"] == len(group.classes[oc]), f"{label}: wrong size of class {col}")
        col_of_class[oc] = col
    e = payload["exponent"]
    rows = [[complex_value(v, e) for v in row] for row in payload["characters"]]
    require(len(rows) == k, f"{label}: {len(rows)} characters for {k} classes")
    tol = TOLERANCE * group.n
    sizes = [c["size"] for c in classes]
    for i in range(k):
        for j in range(i, k):
            acc = sum(s * a * b.conjugate() for s, a, b in zip(sizes, rows[i], rows[j]))
            require(abs(acc - (group.n if i == j else 0)) < tol,
                    f"{label}: rows {i}, {j} are not orthogonal")
    for c in range(k):
        for d in range(c, k):
            acc = sum(row[c] * row[d].conjugate() for row in rows)
            want = group.n / sizes[c] if c == d else 0
            require(abs(acc - want) < tol, f"{label}: columns {c}, {d} are not orthogonal")
    degrees = [round(row[col_of_class[group.class_of[0]]].real) for row in rows]
    require(payload["degrees"] == degrees, f"{label}: degrees differ from chi(1)")
    # The orthogonality relations survive swapping the values of two classes
    # of one size; the central character w_i = |K_i| chi(g_i) / chi(1) is an
    # algebra map on Z(CG), so w_i w_j = sum_l a_ijl w_l ties values to classes.
    a = group.class_constants()
    for row, degree in zip(rows, degrees):
        w = [len(cls) * row[col_of_class[i]] / degree for i, cls in enumerate(group.classes)]
        for i in range(k):
            for j in range(i, k):
                want = sum(a_l * w_l for a_l, w_l in zip(a[i][j], w))
                require(abs(w[i] * w[j] - want) < tol,
                        f"{label}: values of a character do not respect the class constants")
    if closed_rows is None:
        return
    by_element = [[row[col_of_class[group.class_of[g]]] for g in range(group.n)] for row in rows]
    unmatched = list(range(len(by_element)))
    for want in closed_rows:
        hit = next((t for t in unmatched
                    if all(abs(x - y) < TOLERANCE for x, y in zip(by_element[t], want))), None)
        require(hit is not None, f"{label}: a closed-form character is missing")
        unmatched.remove(hit)
    require(not unmatched, f"{label}: characters beyond the closed form")


if __name__ == "__main__":
    from superchar.groups import catalog_group

    for name in sys.argv[1:]:
        G = Group([list(r) for r in catalog_group(name).mul])
        print(name, len(G.classes), "classes,", len(G.central_schur_rings()), "theories")
