"""Independent checks of moorekit's CLI output.

Nothing here imports moorekit.  Ranks, null spaces and homology come from
this module's own elimination over GF(p); the simplicial identities and
the multiplicativity of faces and degeneracies are checked on the input
document's own matrices.  Each ``check_*`` function returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# pairings (alpha, beta) of the printed degree-4 list, in Table-1 row order
P4 = [((3, 2, 1), (0,)), ((3, 2, 0), (1,)), ((3, 1, 0), (2,)), ((2, 1, 0), (3,)),
      ((3, 2), (1, 0)), ((3, 1), (2, 0)), ((3, 0), (2, 1)),
      ((3, 2), (1,)), ((3, 2), (0,)), ((3, 1), (2,)), ((3, 1), (0,)),
      ((3, 0), (2,)), ((3, 0), (1,)), ((2, 1), (3,)), ((0,), (2, 1)),
      ((2, 0), (3,)), ((2, 0), (1,)), ((1, 0), (3,)), ((1, 0), (2,)),
      ((3,), (2,)), ((3,), (1,)), ((3,), (0,)),
      ((2,), (1,)), ((2,), (0,)), ((1,), (0,))]

# the CLI's default element supply: exhaustive up to this many elements,
# else this many samples
EXHAUSTIVE_BOUND = 4096
BUDGET = 256


# ---------------------------------------------------------------------------
# GF(p) elimination


def echelon(mat, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(p) by whole-column elimination.

    Returns (R, pivots) with the zero rows dropped.
    """
    A = np.array(mat, dtype=np.int64) % p
    if A.ndim == 1:
        A = A.reshape(1, -1)
    rows, cols = A.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(A[r:, c])
        if nz.size == 0:
            continue
        k = r + int(nz[0])
        if k != r:
            A[[r, k]] = A[[k, r]]
        A[r] = A[r] * pow(int(A[r, c]), p - 2, p) % p
        factors = A[:, c].copy()
        factors[r] = 0
        A = (A - np.outer(factors, A[r])) % p
        pivots.append(c)
        r += 1
    return A[:r], pivots


def rank(mat, p: int) -> int:
    if np.size(mat) == 0:
        return 0
    return len(echelon(mat, p)[1])


def kernel(mat, p: int, ncols: int) -> np.ndarray:
    """Basis of {x : mat x = 0} as the columns of an ncols x nullity matrix."""
    if np.size(mat) == 0:
        return np.eye(ncols, dtype=np.int64)
    R, pivots = echelon(mat, p)
    free = [c for c in range(ncols) if c not in pivots]
    K = np.zeros((ncols, len(free)), dtype=np.int64)
    for t, f in enumerate(free):
        K[f, t] = 1
        for i, c in enumerate(pivots):
            K[c, t] = (-R[i, f]) % p
    return K


# ---------------------------------------------------------------------------
# simplicial data as read from a document


@dataclass
class Levels:
    """Structure tensors, faces and degeneracies of one simplicial object."""

    p: int
    structures: list
    faces: dict          # (n, i) -> target x source matrix
    degeneracies: dict   # (n, i) -> target x source matrix

    @property
    def k(self) -> int:
        return len(self.structures) - 1

    def dim(self, n: int) -> int:
        return self.structures[n].shape[0]


def _dense(triples, dim: int, p: int) -> np.ndarray:
    t = np.zeros((dim, dim, dim), dtype=np.int64)
    for i, j, k, c in triples:
        t[i, j, k] = c % p
    return t


def _matrix(body, rows: int, cols: int, p: int) -> np.ndarray:
    m = np.array(body, dtype=np.int64)
    return (m if m.size else np.zeros((rows, cols), dtype=np.int64)).reshape(rows, cols) % p


def levels_from_document(doc: dict, name: str) -> Levels:
    """Read one simplicial object of a parsed JSON document."""
    body = doc["simplicial"][name]
    algs = [doc["algebras"][lv] for lv in body["levels"]]
    p = int(algs[0]["p"])
    structs = [_dense(a.get("structure", []), int(a["dim"]), p) for a in algs]
    dims = [s.shape[0] for s in structs]

    def read(section, src_shift):
        out = {}
        for key, mor in body[section].items():
            n, i = (int(v) for v in key.split(","))
            src, tgt = (n, n - 1) if src_shift else (n - 1, n)
            out[(n, i)] = _matrix(mor["matrix"], dims[tgt], dims[src], p)
        return out

    return Levels(p, structs, read("faces", True), read("degeneracies", False))


def multiplicative(M: np.ndarray, src: np.ndarray, tgt: np.ndarray, p: int) -> bool:
    """M(e_i e_j) = M(e_i) M(e_j) for every basis pair of the source."""
    lhs = np.tensordot(src, M, axes=([2], [1])) % p          # [i, j, k]
    half = np.tensordot(M, tgt, axes=([0], [0])) % p         # [i, b, k]
    rhs = np.tensordot(M, half, axes=([0], [1])) % p         # [j, i, k]
    return np.array_equal(lhs, rhs.transpose(1, 0, 2))


def identity_violations(E: Levels) -> list[str]:
    """Violated simplicial identities and non-multiplicative maps."""
    p, d, s = E.p, E.faces, E.degeneracies
    bad = []

    def same(a, b):
        return np.array_equal(a % p, b % p)

    for n in range(1, E.k + 1):
        for i in range(n + 1):
            if not multiplicative(d[(n, i)], E.structures[n], E.structures[n - 1], p):
                bad.append(f"d{i} at level {n} not multiplicative")
        for i in range(n):
            if not multiplicative(s[(n, i)], E.structures[n - 1], E.structures[n], p):
                bad.append(f"s{i} at level {n} not multiplicative")
    for n in range(2, E.k + 1):  # d_i d_j = d_{j-1} d_i, i < j
        for j in range(n + 1):
            for i in range(j):
                if not same(d[(n - 1, i)] @ d[(n, j)], d[(n - 1, j - 1)] @ d[(n, i)]):
                    bad.append(f"d{i}d{j} at level {n}")
    for n in range(2, E.k + 1):  # s_i s_j = s_{j+1} s_i, i <= j
        for j in range(n - 1):
            for i in range(j + 1):
                if not same(s[(n, i)] @ s[(n - 1, j)], s[(n, j + 1)] @ s[(n - 1, i)]):
                    bad.append(f"s{i}s{j} at level {n}")
    for n in range(1, E.k + 1):
        eye = np.eye(E.dim(n - 1), dtype=np.int64)
        for j in range(n):
            for i in range(n + 1):
                lhs = d[(n, i)] @ s[(n, j)]
                if i in (j, j + 1):
                    rhs = eye
                elif i < j:
                    rhs = s[(n - 1, j - 1)] @ d[(n - 1, i)]
                else:
                    rhs = s[(n - 1, j)] @ d[(n - 1, i - 1)]
                if not same(lhs, rhs):
                    bad.append(f"d{i}s{j} at level {n}")
    return bad


@dataclass(frozen=True)
class MooreData:
    dims: tuple          # dim NE_n, n = 0..k
    ranks: tuple         # rank of d_n on NE_n, n = 0..k (ranks[0] = 0)
    homology: tuple      # dim H_n, n = 0..k-1 (H_k needs NE_{k+1})


def moore_data(E: Levels) -> MooreData:
    p = E.p
    dims, ranks = [E.dim(0)], [0]
    for n in range(1, E.k + 1):
        stacked = np.vstack([E.faces[(n, i)] for i in range(n)])
        N = kernel(stacked, p, E.dim(n))
        dims.append(N.shape[1])
        ranks.append(rank(E.faces[(n, n)] @ N % p, p) if N.shape[1] else 0)
    homology = tuple(dims[n] - ranks[n] - ranks[n + 1] for n in range(E.k))
    return MooreData(tuple(dims), tuple(ranks), homology)


def kunneth(h_e, h_f) -> tuple:
    """Homology dims of E (x) F from those of the factors, over a field."""
    top = min(len(h_e), len(h_f))
    return tuple(sum(h_e[i] * h_f[n - i] for i in range(n + 1)) for n in range(top))


@dataclass
class Reference:
    """What the checker knows about one simplicial input."""

    levels: Levels
    moore: MooreData
    violations: list
    kunneth: tuple | None = None   # predicted homology for a tensor product


def reference(E: Levels, kunneth_prediction=None) -> Reference:
    return Reference(E, moore_data(E), identity_violations(E), kunneth_prediction)


# ---------------------------------------------------------------------------
# the CLI record stream


@dataclass
class Output:
    documents: list   # parsed JSON documents emitted before the records
    records: list     # check records, summary excluded
    summary: dict | None


def parse_output(text: str) -> Output:
    """Split stdout into emitted documents, check records and the summary."""
    documents, records = [], []
    for line in text.splitlines():
        if not line.strip():
            continue
        obj = json.loads(line)
        if isinstance(obj, dict) and "check" in obj and "status" in obj:
            records.append(obj)
        else:
            documents.append(obj)
    summary = records.pop() if records and records[-1]["check"] == "summary" else None
    return Output(documents, records, summary)


def expected_exit(records) -> int:
    statuses = {r["status"] for r in records}
    return 1 if "fail" in statuses else 2 if "discrepant" in statuses else 0


def check_contract(out: Output, code: int) -> list[str]:
    if out.summary is None:
        return ["last record is not the summary"]
    detail = out.summary.get("detail", {})
    bad = []
    if detail.get("exit") != code:
        bad.append(f"summary exit {detail.get('exit')} but return code {code}")
    if detail.get("records") != len(out.records):
        bad.append(f"summary counts {detail.get('records')} records, stream has {len(out.records)}")
    if expected_exit(out.records) != code:
        bad.append(f"return code {code} disagrees with the record statuses")
    return bad


# ---------------------------------------------------------------------------
# per-command checks


def check_sset(out: Output, n: int) -> list[str]:
    items = out.records[0]["detail"]["elements"] if out.records else []
    return [] if len(items) == 2 ** n and len(set(items)) == len(items) else [
        f"sset {n} lists {len(items)} indices, expected {2 ** n}"]


def _entries(text: str) -> tuple:
    return tuple(int(v) for v in text.strip("()").split(",") if v)


def _pairs_ok(items, count: int) -> list[str]:
    if len(items) != count:
        return [f"{len(items)} pairs, expected {count}"]
    bad = []
    for item in items:
        if isinstance(item, dict):
            alpha, beta = _entries(item["alpha"]), _entries(item["beta"])
        else:
            cut = item.index(")") + 1
            alpha, beta = _entries(item[:cut]), _entries(item[cut:])
        if set(alpha) & set(beta):
            bad.append(f"pair {item} has overlapping entries")
    return bad


def check_pset(out: Output, n: int) -> list[str]:
    items = out.records[0]["detail"]["elements"] if out.records else []
    return _pairs_ok(items, {2: 1, 3: 6, 4: 25}[n])


def check_pairings(out: Output) -> list[str]:
    if len(out.records) != 3:
        return [f"{len(out.records)} pairing listings, expected 3"]
    bad = []
    for rec, count in zip(out.records, (1, 6, 25)):
        bad += _pairs_ok(rec["detail"]["elements"], count)
    return bad


def check_moore(out: Output, ref: Reference) -> list[str]:
    dims = out.records[0].get("detail", {}).get("dims") if out.records else None
    return [] if dims == list(ref.moore.dims) else [
        f"moore dims {dims}, nullities {list(ref.moore.dims)}"]


def check_validate(out: Output, ref: Reference) -> list[str]:
    status = out.records[0]["status"] if out.records else None
    want = "pass" if not ref.violations else "fail"
    return [] if status == want else [
        f"validate says {status}, identity check finds {ref.violations[:3] or 'none'}"]


def check_lemma7(out: Output, ref: Reference) -> list[str]:
    if ref.moore.dims[4] == 0:
        rows = [r for r in out.records if r["check"].startswith("lemma7[row=")]
        if len(rows) != 25 or any(r["status"] != "pass" for r in rows):
            return ["lemma7 does not pass on all 25 rows although NE_4 = 0"]
        return []
    if [r["status"] for r in out.records] != ["hypothesis-failed"]:
        return ["lemma7 is not hypothesis-failed although NE_4 != 0"]
    return []


def check_theorem5(out: Output, ref: Reference) -> list[str]:
    bad = []
    for r in out.records:
        n = int(r["check"].split("n=")[1].rstrip("]"))
        if r["status"] == "pass" and r["detail"]["dim"] != ref.moore.ranks[n]:
            bad.append(f"theorem5 n={n} dim {r['detail']['dim']}, rank {ref.moore.ranks[n]}")
    if len(out.records) != 3:
        bad.append(f"{len(out.records)} theorem5 records, expected 3")
    return bad


def supply_size(dim: int, p: int, bound: int = EXHAUSTIVE_BOUND, budget: int = BUDGET) -> int:
    """Elements the CLI sweeps in a Moore component of this dimension."""
    if dim == 0:
        return 1
    return p ** dim if p ** dim <= bound else budget


def sampled_rows(ref: Reference, bound: int = EXHAUSTIVE_BOUND, budget: int = BUDGET) -> int:
    """Table-1 rows whose element sweep is sampled rather than exhaustive."""
    p, dims = ref.levels.p, ref.moore.dims
    return sum(1 for a, b in P4
               if p ** dims[4 - len(a)] > bound or p ** dims[4 - len(b)] > bound)


def check_table1(out: Output, ref: Reference, bound: int = EXHAUSTIVE_BOUND,
                 budget: int = BUDGET) -> list[str]:
    rows = [r for r in out.records if r["check"].startswith("table1[row=")
            and not r["check"].endswith(".membership")]
    if len(rows) != 25:
        return [f"{len(rows)} table1 rows, expected 25"]
    p, dims = ref.levels.p, ref.moore.dims
    bad = []
    for row, (a, b) in zip(rows, P4):
        want = (supply_size(dims[4 - len(a)], p, bound, budget)
                * supply_size(dims[4 - len(b)], p, bound, budget))
        if row["detail"]["checked"] != want:
            bad.append(f"{row['check']} checked {row['detail']['checked']}, expected {want}")
    return bad


def check_tables(out: Output, table: int) -> list[str]:
    """Table 2 has 21 rows; Tables 3 and 4 have one row per lifting key."""
    want = {2: 21, 3: 7, 4: 7}[table]
    rows = [r for r in out.records if r["check"].startswith(f"table{table}[")]
    return [] if len(rows) == len(out.records) == want else [
        f"{len(rows)} table{table} rows of {len(out.records)} records, expected {want}"]


def check_all_pass(out: Output) -> list[str]:
    return [f"{r['check']} is {r['status']}" for r in out.records if r["status"] != "pass"]


def complex_homology(dims, boundaries, p: int) -> tuple[tuple, list[str]]:
    """Homology dims of C_top -> ... -> C_0 given boundaries[n]: C_n -> C_{n-1}."""
    bad = []
    for n in range(2, len(dims)):
        if (boundaries[n - 1] @ boundaries[n] % p).any():
            bad.append(f"d{n - 1} d{n} != 0")
    ranks = [0] + [rank(boundaries[n], p) for n in range(1, len(dims))] + [0]
    return tuple(dims[n] - ranks[n] - ranks[n + 1] for n in range(len(dims))), bad


def emitted_complex(doc: dict) -> tuple[list, dict, int]:
    """(dims, boundaries, p) of the one structure an extraction emits."""
    algs = doc["algebras"]
    if doc.get("three_crossed_modules"):
        (body,) = doc["three_crossed_modules"].values()
        names = [body[c] for c in ("C0", "C1", "C2", "C3")]
        keys = ("d1", "d2", "d3")
    elif doc.get("two_crossed_modules"):
        (body,) = doc["two_crossed_modules"].values()
        names = [body[c] for c in ("C0", "C1", "C2")]
        keys = ("d1", "d2")
    else:
        (body,) = doc["crossed_modules"].values()
        names = [body["R"], body["C"]]
        keys = ("boundary",)
    dims = [int(algs[nm]["dim"]) for nm in names]
    p = int(algs[names[0]]["p"])
    bd = {n: _matrix(body[key], dims[n - 1], dims[n], p) for n, key in enumerate(keys, 1)}
    return dims, bd, p


def check_extraction(out: Output, ref: Reference) -> list[str]:
    """The emitted complex squares to zero and has the input's homology."""
    if len(out.documents) != 1:
        return [f"{len(out.documents)} documents emitted, expected 1"]
    dims, bd, p = emitted_complex(out.documents[0])
    h, bad = complex_homology(dims, bd, p)
    top = len(dims) - 1
    # C_3 = NE_3 / d_4(NE_4 cap D_4) has the Moore complex's H_3 only
    # when nothing from NE_4 is divided out
    compare = top if top == 3 and ref.moore.dims[4] != 0 else top + 1
    want = ref.moore.homology[:compare]
    if h[:compare] != want:
        bad.append(f"homology {h[:compare]}, Moore complex gives {want}")
    if ref.kunneth is not None and h[:compare] != ref.kunneth[:compare]:
        bad.append(f"homology {h[:compare]}, Kunneth predicts {ref.kunneth[:compare]}")
    return bad


def axiom_statuses(out: Output, prefix: str) -> dict:
    return {r["check"].split("/", 1)[1]: r["status"]
            for r in out.records if r["check"].startswith(prefix + "/")}


def check_verify_against(out: Output, to3: dict) -> list[str]:
    """verify-3xmod on the emitted document repeats to-3xmod's verdicts,
    up to the audit relabelling of fail as discrepant."""
    got = {r["check"].split("/", 1)[1]: r["status"] for r in out.records}
    if set(got) != set(to3):
        return [f"axiom sets differ: {sorted(set(got) ^ set(to3))[:5]}"]
    return [f"{k}: verify-3xmod {got[k]}, to-3xmod {to3[k]}" for k in sorted(got)
            if not (got[k] == to3[k] or (got[k] == "fail" and to3[k] == "discrepant"))]
