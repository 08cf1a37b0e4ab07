"""Independent answer checks.

Nothing here calls the psatkit solver. Clause and variable values come from
the base-k digits of each assignment index, computed with the benchmark's
own integer code. Witnesses are checked for total mass, sign and every
bound; infeasible answers for the planted certificate; entail ranges for
containing the goal expectation of the planted distribution, and on the
oracle slice for equality with psatkit.oracle, the brute-force reference
that shares no code path with the simplex solver.

Each check raises CheckError with a reason, or returns None.
"""

from __future__ import annotations

import json
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class CheckError(Exception):
    """An answer that is wrong, malformed, or disagrees with the reference."""


def digit(j: int, var: int, k: int) -> int:
    return (j // k**var) % k


def kappa(clause: tuple[int, ...], j: int, k: int) -> int:
    """Clause truth level 0..k-1 at assignment j: the max over its literals."""
    best = 0
    for code in clause:
        d = digit(j, abs(code) - 1, k)
        best = max(best, d if code > 0 else k - 1 - d)
    return best


def expectation(clause, dist: dict[int, Fraction], n: int, k: int) -> Fraction:
    return sum((w * kappa(clause, j, k) for j, w in dist.items()), ZERO) / (k - 1)


def marginals(dist: dict[int, Fraction], n: int, k: int) -> list[Fraction]:
    """W u: the expected truth value of each variable."""
    return [
        sum((w * digit(j, i, k) for j, w in dist.items()), ZERO) / (k - 1)
        for i in range(n)
    ]


def _require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckError(reason)


def _payload(text: str) -> dict:
    try:
        return json.loads(text)
    except ValueError:
        raise CheckError(f"output is not JSON: {text[:80]!r}") from None


def support(payload: dict, n: int, k: int) -> dict[int, Fraction]:
    """A rendered distribution: indices ascending and in range, weights positive, mass 1."""
    try:
        pairs = [(int(j), Fraction(w)) for j, w in payload["support"]]
    except (KeyError, TypeError, ValueError):
        raise CheckError("malformed distribution support") from None
    indices = [j for j, _ in pairs]
    _require(indices == sorted(set(indices)), "support indices not strictly ascending")
    _require(all(0 <= j < k**n for j in indices), "support index out of range")
    _require(all(w > 0 for _, w in pairs), "support weight not positive")
    dist = dict(pairs)
    _require(sum(dist.values(), ZERO) == ONE, "weights do not sum to 1")
    return dist


def _meets_bounds(q, dist: dict[int, Fraction]) -> None:
    for i, (clause, (lo, hi)) in enumerate(zip(q.clauses, q.bounds)):
        e = expectation(clause, dist, q.n, q.k)
        _require(lo <= e <= hi, f"clause {i + 1} expectation {e} outside [{lo}, {hi}]")


def _dominates(q, a: int, b: int) -> bool:
    return all(
        kappa(q.clauses[a], j, q.k) >= kappa(q.clauses[b], j, q.k) for j in range(q.k**q.n)
    )


def check_solve(q, code: int, text: str) -> None:
    p = _payload(text)
    if q.feasible:
        _require(p.get("status") == "feasible" and code == 0, f"expected feasible, got {text.strip()}")
        _meets_bounds(q, support(p.get("witness", {}), q.n, q.k))
        return
    _require(p == {"status": "infeasible"} and code == 1, f"expected infeasible, got {text.strip()}")
    # Certificate: clause 1 is at least clause 2 everywhere, yet its upper
    # bound lies below clause 2's lower bound.
    _require(_dominates(q, 0, 1), "planted certificate: clause 1 does not dominate clause 2")
    _require(q.bounds[0][1] < q.bounds[1][0], "planted certificate: bounds do not conflict")


def oracle_range(q, api) -> tuple[Fraction, Fraction]:
    """The entail range from psatkit.oracle, on a matrix built by this module."""
    cols = q.k**q.n
    entries = [Fraction(kappa(c, j, q.k), q.k - 1) for c in q.clauses for j in range(cols)]
    goal = [Fraction(kappa(q.goal, j, q.k), q.k - 1) for j in range(cols)]
    matrix = api.matrices.RationalMatrix(len(q.clauses), cols, tuple(entries))
    lower = [lo for lo, _ in q.bounds]
    upper = [hi for _, hi in q.bounds]
    interval = api.oracle.support_enumeration_optimize(matrix, lower, upper, goal)
    return interval.lo, interval.hi


def check_entail(q, code: int, text: str, api=None) -> None:
    p = _payload(text)
    _require(code == 0 and set(p) == {"min", "max"}, f"expected a range, got {text.strip()}")
    lo, hi = Fraction(p["min"]), Fraction(p["max"])
    _require(ZERO <= lo <= hi <= ONE, f"range [{lo}, {hi}] not within [0, 1]")
    g = expectation(q.goal, q.planted, q.n, q.k)
    _require(lo <= g <= hi, f"range [{lo}, {hi}] misses the planted goal expectation {g}")
    if api is not None and q.oracle_slice:
        _require((lo, hi) == oracle_range(q, api), "range differs from the oracle")


def check_coherence(q, code: int, text: str) -> None:
    p = _payload(text)
    _require(p.get("status") == "coherent" and code == 0, f"expected coherent, got {text.strip()}")
    dist = support(p.get("witness", {}), q.n, q.k)
    _require(marginals(dist, q.n, q.k) == list(q.vector), "witness marginals differ from the vector")


def check_kernel(q, code: int, text: str) -> None:
    """K is k^n x (k^n - n), has no zero column, and W K = 0."""
    p = _payload(text)
    rows = p.get("rows")
    cols = q.k**q.n
    _require(code == 0 and p.get("which") == "K", "not a kernel matrix answer")
    _require(isinstance(rows, list) and len(rows) == cols, "wrong kernel row count")
    width = cols - q.n
    _require(all(len(r) == width for r in rows), "wrong kernel column count")
    products = [[ZERO] * q.n for _ in range(width)]
    nonzero = [False] * width
    for j, row in enumerate(rows):
        for c, entry in enumerate(row):
            if entry == "0":
                continue
            e = Fraction(entry)
            nonzero[c] = True
            for i in range(q.n):
                d = digit(j, i, q.k)
                if d:
                    products[c][i] += e * d
    _require(all(nonzero), "kernel has a zero column")
    _require(all(v == 0 for col in products for v in col), "W K is not zero")


def contained(q) -> bool:
    """Is every clause row in the row space of W, i.e. linear in the bits?"""
    for clause in q.clauses:
        units = [kappa(clause, 1 << i, 2) for i in range(q.n)]
        for j in range(2**q.n):
            if kappa(clause, j, 2) != sum(u for i, u in enumerate(units) if j >> i & 1):
                return False
    return True


def check_containment(q, code: int, text: str) -> None:
    p = _payload(text)
    _require(p.get("contained") is contained(q), f"wrong containment answer {text.strip()}")


def product_distribution(x: list[Fraction], n: int) -> dict[int, Fraction]:
    """The independent classical distribution with marginals x."""
    out = {}
    for j in range(2**n):
        w = ONE
        for i in range(n):
            w *= x[i] if j >> i & 1 else ONE - x[i]
        if w:
            out[j] = w
    return out


def fiber_move(u0: dict[int, Fraction], n: int):
    """Kernel coordinates w with K w = u1 - u0, u1 the product of u0's marginals.

    The kernel basis puts the zero assignment first and then the assignments
    of weight >= 2 in (weight, index) order, each with a unit entry on its own
    row (k = 2), so the coordinates are the entries of u1 - u0 on those rows.
    """
    u1 = product_distribution(marginals(u0, n, 2), n)
    diff = {j: u1.get(j, ZERO) - u0.get(j, ZERO) for j in range(2**n)}
    tail = sorted((j for j in range(2**n) if j.bit_count() >= 2), key=lambda j: (j.bit_count(), j))
    w = [diff[0]] + [diff[j] for j in tail]
    return w, u1, diff


def check_fiber(q, code: int, text: str) -> None:
    p = _payload(text)
    u0 = support(p.get("witness", {}), q.n, q.k)
    _meets_bounds(q, u0)
    _, u1, diff = fiber_move(u0, q.n)
    _require(p.get("contains") is True, "valid kernel move reported outside the fiber")
    moved = support(p.get("moved", {}), q.n, q.k)
    _require(marginals(moved, q.n, q.k) == marginals(u0, q.n, q.k), "move changed W u")
    _require(moved == u1, "moved distribution is not the product of the marginals")
    doubled = all(u0.get(j, ZERO) + 2 * d >= 0 for j, d in diff.items())
    _require(p.get("contains_double") is doubled, "wrong answer for the doubled move")


def check_dim(q, code: int, text: str) -> None:
    p = _payload(text)
    dim = p.get("dim")
    _require(isinstance(dim, int) and 0 <= dim < q.k**q.n, f"dimension {dim} out of range")


CHECKS = {
    "solve": check_solve,
    "entail": check_entail,
    "coherence": check_coherence,
    "kernel": check_kernel,
    "containment": check_containment,
    "fiber": check_fiber,
    "dim": check_dim,
}


def check(q, code: int, text: str, api=None) -> None:
    if q.kind == "entail":
        check_entail(q, code, text, api)
    else:
        CHECKS[q.kind](q, code, text)
