"""Algorithm and partition-count selection (the paper's Section 5 procedure).

Given two input relations and a calibrated time model, the optimizer
executes the paper's five steps verbatim:

1. determine the actual sizes of the relations;
2. determine the average set cardinalities θ_R and θ_S "using sampling or
   available statistics";
3. estimate the comparison and replication factors for DCJ and PSJ with
   the Table 7 formulas for k = 2^1 .. 2^13;
4. apply the time equation to those estimates;
5. pick the algorithm and k with the best predicted execution time.

The result carries the full candidate table so callers (and the
experiments) can inspect the prediction landscape, and
:meth:`JoinPlan.build_partitioner` turns the decision into a configured
partitioner ready to run.

**Drift-aware planning** (``drift_history=``): the paper fits c1/c2/c3
once on a test machine and trusts them forever; a long-lived
installation accumulates per-join predicted-vs-observed drift records
(:mod:`repro.obs.drift`) instead.  Passing that history (a record list,
a JSONL path, or a precomputed ``{algorithm: factor}`` mapping) makes
step 4 multiply each candidate algorithm's predicted time by its recent
mean observed/predicted wall-time ratio — shrunk toward 1.0 for thin
histories (:func:`repro.obs.adaptive.drift_corrections`) — before step 5
compares them.  Only the *comparison* changes: every candidate also
keeps its raw model prediction, and executing a plan is bit-identical
with corrections on or off.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.factors import (
    comparison_factor,
    predict_quantities,
    replication_factor,
)
from ..analysis.timemodel import TimeModel
from ..errors import ConfigurationError
from .config import resolve_partitioner
from .partitioning import Partitioner
from .sets import Relation

__all__ = [
    "CandidatePlan",
    "JoinPlan",
    "choose_plan",
    "plan_from_statistics",
    "resolve_drift_corrections",
]

DEFAULT_LEVELS = tuple(range(1, 14))  # k = 2^1 .. 2^13, as in the paper


@dataclass(frozen=True)
class CandidatePlan:
    """One (algorithm, k) candidate with its model estimates.

    ``predicted_seconds`` is what step 5 compares — the raw model
    prediction times the algorithm's ``drift_correction`` (1.0 without a
    drift history, in which case it equals ``raw_seconds``).
    """

    algorithm: str
    k: int
    comparison_factor: float
    replication_factor: float
    predicted_seconds: float
    raw_seconds: float = None  # uncorrected model prediction
    drift_correction: float = 1.0

    def __post_init__(self):
        if self.raw_seconds is None:
            object.__setattr__(self, "raw_seconds", self.predicted_seconds)


@dataclass
class JoinPlan:
    """The optimizer's decision plus the data that produced it."""

    algorithm: str
    k: int
    predicted_seconds: float
    theta_r: float
    theta_s: float
    r_size: int
    s_size: int
    candidates: list[CandidatePlan] = field(default_factory=list)
    #: per-algorithm wall-time correction factors applied during step 5
    #: (empty without a drift history).
    drift_corrections: dict = field(default_factory=dict)

    def explain(self, top: int = 5) -> str:
        """EXPLAIN-style text: the decision plus the best-k line per
        algorithm and the closest-contending candidates."""
        lines = [
            f"set containment join: |R|={self.r_size} (θ_R≈{self.theta_r:.1f})"
            f" ⋈⊆ |S|={self.s_size} (θ_S≈{self.theta_s:.1f})",
            f"chosen: {self.algorithm} with k={self.k} "
            f"(predicted {self.predicted_seconds:.3f}s)",
        ]
        if self.drift_corrections:
            lines.append(
                "  drift corrections: " + ", ".join(
                    f"{algorithm}×{factor:.3f}"
                    for algorithm, factor in sorted(
                        self.drift_corrections.items()
                    )
                )
            )
        per_algorithm: dict[str, CandidatePlan] = {}
        for candidate in self.candidates:
            best = per_algorithm.get(candidate.algorithm)
            if best is None or candidate.predicted_seconds < best.predicted_seconds:
                per_algorithm[candidate.algorithm] = candidate
        for algorithm, candidate in sorted(per_algorithm.items()):
            lines.append(
                f"  best {algorithm}: k={candidate.k}, "
                f"comp={candidate.comparison_factor:.4f}, "
                f"repl={candidate.replication_factor:.2f}, "
                f"predicted {candidate.predicted_seconds:.3f}s"
            )
        contenders = sorted(
            self.candidates, key=lambda plan: plan.predicted_seconds
        )[:top]
        lines.append("  closest candidates: " + ", ".join(
            f"{plan.algorithm}(k={plan.k}, {plan.predicted_seconds:.3f}s)"
            for plan in contenders
        ))
        return "\n".join(lines)

    def prediction(
        self, model: TimeModel, algorithm: str | None = None, k: int | None = None
    ) -> dict:
        """The analytical prediction behind one (algorithm, k) choice.

        Defaults to the chosen plan; pass ``algorithm``/``k`` to inspect
        a road not taken.  Returns the absolute model quantities (x, y),
        the underlying factors, and the predicted seconds split into the
        time formula's CPU and replication terms — exactly what EXPLAIN
        prints and what the drift layer later compares against observed
        values.
        """
        algorithm = algorithm if algorithm is not None else self.algorithm
        k = k if k is not None else self.k
        quantities = predict_quantities(
            algorithm, k, self.theta_r, self.theta_s, self.r_size, self.s_size
        )
        cpu_seconds, repl_seconds = model.predict_terms(
            quantities["signature_comparisons"],
            quantities["replicated_signatures"],
            k,
        )
        quantities.update(
            algorithm=algorithm,
            k=k,
            seconds=cpu_seconds + repl_seconds,
            cpu_seconds=cpu_seconds,
            replication_seconds=repl_seconds,
        )
        return quantities

    def build_partitioner(self, seed: int = 0, family_kind: str = "bitstring") -> Partitioner:
        """Instantiate the chosen algorithm at the chosen k."""
        return resolve_partitioner(
            self.algorithm, self.k, self.theta_r, self.theta_s, seed, family_kind
        )


def resolve_drift_corrections(drift_history) -> "dict[str, float]":
    """Normalize a ``drift_history=`` argument into correction factors.

    Accepts ``None`` (no corrections), an already-computed
    ``{algorithm: factor}`` mapping, a JSONL drift-history path (a path
    that does not exist yet is an empty history, not an error — a first
    run has nothing to learn from), or a sequence of
    :class:`~repro.obs.drift.DriftRecord`\\ s.
    """
    if drift_history is None:
        return {}
    if isinstance(drift_history, dict):
        return dict(drift_history)
    # Imported lazily: repro.obs.adaptive imports analysis code, while
    # this module is part of core — keep the import graph acyclic.
    from ..obs.adaptive import drift_corrections

    if isinstance(drift_history, str):
        import os

        from ..obs.drift import read_drift_jsonl

        if not os.path.exists(drift_history):
            return {}
        return drift_corrections(read_drift_jsonl(drift_history))
    return drift_corrections(list(drift_history))


def plan_from_statistics(
    r_size: int,
    s_size: int,
    theta_r: float,
    theta_s: float,
    model: TimeModel,
    algorithms: tuple[str, ...] = ("DCJ", "PSJ"),
    levels: tuple[int, ...] = DEFAULT_LEVELS,
    drift_history=None,
) -> JoinPlan:
    """Steps 3-5 of the procedure, given the step 1-2 statistics.

    Useful when the inputs are disk-resident and only their statistics are
    at hand (the database layer plans this way).  ``drift_history`` makes
    step 5 drift-aware (see the module docstring).
    """
    if r_size < 1 or s_size < 1:
        raise ConfigurationError("cannot plan a join over an empty relation")
    if theta_r <= 0 or theta_s <= 0:
        raise ConfigurationError("relations must contain non-empty sets to plan")
    rho = s_size / r_size
    corrections = resolve_drift_corrections(drift_history)
    # Steps 3-4: estimate factors and predicted times over the k grid,
    # inflating/deflating each algorithm by its recent observed drift.
    candidates: list[CandidatePlan] = []
    for algorithm in algorithms:
        correction = corrections.get(algorithm, 1.0)
        for level in levels:
            k = 2**level
            comp = comparison_factor(algorithm, k, theta_r, theta_s)
            repl = replication_factor(algorithm, k, theta_r, theta_s, rho)
            seconds = model.predict_factors(comp, repl, r_size, s_size, k)
            candidates.append(CandidatePlan(
                algorithm, k, comp, repl,
                predicted_seconds=seconds * correction,
                raw_seconds=seconds,
                drift_correction=correction,
            ))
    # Step 5: pick the best.
    best = min(candidates, key=lambda plan: plan.predicted_seconds)
    return JoinPlan(
        algorithm=best.algorithm,
        k=best.k,
        predicted_seconds=best.predicted_seconds,
        theta_r=theta_r,
        theta_s=theta_s,
        r_size=r_size,
        s_size=s_size,
        candidates=candidates,
        drift_corrections={
            a: f for a, f in corrections.items() if a in algorithms
        },
    )


def choose_plan(
    lhs: Relation,
    rhs: Relation,
    model: TimeModel,
    algorithms: tuple[str, ...] = ("DCJ", "PSJ"),
    levels: tuple[int, ...] = DEFAULT_LEVELS,
    sample_size: int | None = None,
    seed: int = 0,
    drift_history=None,
) -> JoinPlan:
    """Run the five-step selection procedure on in-memory relations.

    ``sample_size`` switches step 2 from exact statistics to sampling.
    ``algorithms`` defaults to the paper's DCJ-vs-PSJ decision; add
    ``"LSJ"`` to include it (it never wins, as the paper shows).
    ``drift_history`` (records, a JSONL path, or precomputed factors)
    weights each algorithm's predictions by its recent observed drift
    before comparing — see the module docstring.
    """
    if not lhs or not rhs:
        raise ConfigurationError("cannot plan a join over an empty relation")
    # Step 1: actual sizes.
    r_size, s_size = len(lhs), len(rhs)
    # Step 2: average cardinalities (exact or sampled).
    if sample_size is None:
        theta_r = lhs.average_cardinality()
        theta_s = rhs.average_cardinality()
    else:
        theta_r = lhs.sample_cardinality(sample_size, seed)
        theta_s = rhs.sample_cardinality(sample_size, seed + 1)
    return plan_from_statistics(
        r_size, s_size, theta_r, theta_s, model, algorithms, levels,
        drift_history=drift_history,
    )
