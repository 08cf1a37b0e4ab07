"""Spans around calls into psatkit modules, recorded from the benchmark's side.

The tracer replaces names at psatkit's import boundaries (mostly the names a
module imported from another psatkit module) with wrappers that record a span:
query number, span name, parent span, start and end. Spans stay in memory
until the run ends. A layer's self time is the sum over its spans of the span
duration minus the durations of its direct children.

Per-entry calls such as `eval_clause` are not wrapped: a span per matrix
entry would cost more than the work it measures, so their time stays in the
caller's span (`matrices.clause_value_matrix`).
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

# (module, attribute, span name): calls through module.attribute get a span.
# The span name is "<layer>.<function>", the layer being the psatkit module
# that defines the function. cli.run and the problems entry functions are
# what the benchmark calls; the rest are patched where their psatkit caller
# looks them up, mostly names imported from another psatkit module.
BOUNDARIES = (
    ("cli", "run", "cli.run"),
    ("cli", "parse", "cli.parse"),
    ("cli", "psat", "problems.psat"),
    ("cli", "entail", "problems.entail"),
    ("cli", "coherence", "problems.coherence"),
    ("cli", "kernel_basis_matrix", "matrices.kernel_basis_matrix"),
    ("problems", "psat", "problems.psat"),
    ("problems", "kernel_containment", "problems.kernel_containment"),
    ("problems", "fiber_contains", "problems.fiber_contains"),
    ("problems", "fiber_translate", "problems.fiber_translate"),
    ("problems", "psat_feasible_set_dim", "problems.psat_feasible_set_dim"),
    ("problems", "clause_value_matrix", "matrices.clause_value_matrix"),
    ("problems", "assignment_matrix", "matrices.assignment_matrix"),
    ("problems", "kernel_basis_matrix", "matrices.kernel_basis_matrix"),
    ("problems", "enumerate_assignments", "model.enumerate_assignments"),
    ("problems", "LpProblem", "rational_lp.LpProblem"),
    ("problems", "lp_feasible", "rational_lp.lp_feasible"),
    ("problems", "lp_optimize_both", "rational_lp.lp_optimize_both"),
    ("problems", "lp_solve", "rational_lp.lp_solve"),
    ("matrices", "enumerate_assignments", "model.enumerate_assignments"),
    # lp_feasible and lp_optimize_both reach lp_solve through their own module.
    ("rational_lp", "lp_solve", "rational_lp.lp_solve"),
    ("linalg", "rank", "linalg.rank"),
)
METHODS = (
    ("matrices", "RationalMatrix", "matmul", "matrices.matmul"),
    ("matrices", "RationalMatrix", "mul_vec", "matrices.mul_vec"),
)
MATRIX_BUILDERS = (
    "matrices.clause_value_matrix",
    "matrices.assignment_matrix",
    "matrices.kernel_basis_matrix",
)
# Spans whose arguments and results feed the exact counts.
KEPT = ("rational_lp.lp_solve", *MATRIX_BUILDERS)

# Per-layer time metrics: metric name -> span names whose self time it sums.
TIME_METRICS = {
    "cli.self_s": ("cli.run",),
    "cli.parse_s": ("cli.parse",),
    "problems.self_s": (
        "problems.psat",
        "problems.entail",
        "problems.coherence",
        "problems.kernel_containment",
        "problems.fiber_contains",
        "problems.fiber_translate",
        "problems.psat_feasible_set_dim",
    ),
    "rational_lp.build_s": ("rational_lp.LpProblem",),
    "rational_lp.solve_s": (
        "rational_lp.lp_feasible",
        "rational_lp.lp_optimize_both",
        "rational_lp.lp_solve",
    ),
    "model.enumerate_s": ("model.enumerate_assignments",),
    "matrices.clause_value_s": ("matrices.clause_value_matrix",),
    "matrices.assignment_s": ("matrices.assignment_matrix",),
    "matrices.kernel_s": ("matrices.kernel_basis_matrix",),
    "matrices.product_s": ("matrices.matmul", "matrices.mul_vec"),
    "linalg.rank_s": ("linalg.rank",),
}


class Tracer:
    def __init__(self) -> None:
        # (query, parent span index or -1, name, start, end)
        self.spans: list[tuple[int, int, str, float, float] | None] = []
        self.kept: list[tuple[str, tuple, object]] = []
        self.query: int | None = None
        self.keep = False
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        kept = name in KEPT

        def traced(*args, **kwargs):
            if self.query is None:
                return fn(*args, **kwargs)
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (self.query, parent, name, start, end)
            if kept and self.keep:
                self.kept.append((name, args, result))
            return result

        return traced

    def install(self, api) -> None:
        """Patch every boundary of the loaded psatkit modules."""
        for module, attr, name in BOUNDARIES:
            mod = getattr(api, module)
            setattr(mod, attr, self.wrap(name, getattr(mod, attr)))
        for module, cls_name, attr, name in METHODS:
            cls = getattr(getattr(api, module), cls_name)
            setattr(cls, attr, self.wrap(name, getattr(cls, attr)))

    def take_kept(self) -> list[tuple[str, tuple, object]]:
        kept, self.kept = self.kept, []
        return kept

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        child = defaultdict(float)
        for span in self.spans:
            _, parent, _, start, end = span
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(float)
        for index, (_, _, name, start, end) in enumerate(self.spans):
            totals[name] += end - start - child[index]
        return totals


def lp_counts(problem, outcome) -> dict[str, int]:
    """Exact counts for one lp_solve call.

    column_classes counts distinct (constraint column, objective entry)
    pairs: columns a compression could merge without changing the optimum.
    rows counts the equality rows after interval expansion, the mass row
    included.
    """
    counts = {
        "solves": 1,
        "columns": problem.num_vars,
        "column_classes": len(set(zip(problem.objective, *problem.rows))),
        "rows": int(problem.simplex_constraint)
        + sum(1 if lo == hi else 2 for lo, hi in zip(problem.row_lower, problem.row_upper)),
        "optimal": 0,
        "witness_support": 0,
        "den_bits_max": 0,
    }
    if outcome.is_optimal:
        values = list(outcome.witness) + [outcome.value]
        counts["optimal"] = 1
        counts["witness_support"] = sum(1 for v in outcome.witness if v)
        counts["den_bits_max"] = max(v.denominator.bit_length() for v in values)
    return counts
