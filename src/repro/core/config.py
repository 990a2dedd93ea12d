"""The join's execution settings as one value, and the one partitioner map.

The paper's testbed holds "other conditions remaining equal" while the
partitioning algorithm is exchanged.  :class:`JoinConfig` is those
conditions: every entry point (the operator, the database, the sharded
coordinator, the one-call API, the plan inspector, the service and the
CLI) takes one and reads its settings from it, so each default is
declared and each check runs exactly once, here.

:func:`resolve_partitioner` is the single mapping from an algorithm name
and a partition count to a configured partitioner.  DCJ and LSJ natively
need ``k = 2^l``; other counts fold from the next power of two (the
modulo approach, :mod:`repro.core.modulo`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace
from typing import Mapping

from ..errors import ConfigurationError
from .modulo import dcj_with_any_k, lsj_with_any_k
from .partitioning import Partitioner
from .psj import PSJPartitioner
from .signatures import DEFAULT_SIGNATURE_BITS

__all__ = [
    "ALGORITHMS",
    "BACKENDS",
    "DEFAULT_PARTITIONS",
    "ENGINES",
    "JoinConfig",
    "resolve_partitioner",
]

#: ``"auto"`` runs the paper's Section 5 optimizer; the others are forced.
ALGORITHMS = ("auto", "DCJ", "PSJ", "LSJ")
ENGINES = ("python", "numpy")
BACKENDS = ("serial", "thread", "process")
#: Partition count of a forced algorithm when none is given.
DEFAULT_PARTITIONS = 32


def resolve_partitioner(
    algorithm: str,
    k: int,
    theta_r: float,
    theta_s: float,
    seed: int = 0,
    family_kind: str = "bitstring",
) -> Partitioner:
    """Build ``algorithm`` at ``k`` partitions, tuned to θ_R and θ_S.

    ``seed`` drives PSJ's random R-side element choice; ``family_kind``
    picks DCJ's and LSJ's monotone hash-family construction.
    """
    if algorithm == "PSJ":
        return PSJPartitioner(k, seed=seed)
    if algorithm == "DCJ":
        return dcj_with_any_k(k, theta_r, theta_s, family_kind)
    if algorithm == "LSJ":
        return lsj_with_any_k(k, theta_r, theta_s, family_kind)
    raise ConfigurationError(f"unknown algorithm {algorithm!r}")


@dataclass(frozen=True)
class JoinConfig:
    """How to run one set containment join.

    ``algorithm``/``num_partitions``/``seed`` choose the partitioner:
    ``"auto"`` lets the optimizer pick algorithm and k, a named
    algorithm runs at ``num_partitions`` (default
    :data:`DEFAULT_PARTITIONS`).  ``signature_bits`` and ``engine`` set
    the comparison kernel; ``workers``/``backend`` engage the
    partition-parallel engine (:mod:`repro.parallel`) when
    ``workers > 1``.  The remaining fields are the operator's Section 6
    options (see :class:`~repro.core.operator.SetContainmentJoin`).
    Results are identical under every setting except the partitioner's,
    which may only move the x/y accounting.
    """

    algorithm: str = "auto"
    num_partitions: int | None = None
    seed: int = 0
    signature_bits: int = DEFAULT_SIGNATURE_BITS
    engine: str = "numpy"
    workers: int = 1
    backend: str = "serial"
    resident_partitions: int = 0
    spill_candidates: bool = False
    verify_per_partition: bool = False
    monolithic_partitions: bool = False

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigurationError(
                f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}"
            )
        if self.num_partitions is not None and self.num_partitions < 1:
            raise ConfigurationError(
                f"num_partitions must be >= 1, got {self.num_partitions}"
            )
        if self.signature_bits < 1:
            raise ConfigurationError(
                f"signature_bits must be >= 1, got {self.signature_bits}"
            )
        if self.engine not in ENGINES:
            raise ConfigurationError(
                f"engine must be one of {ENGINES}, got {self.engine!r}"
            )
        if self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {self.workers}")
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if self.resident_partitions < 0:
            raise ConfigurationError("resident_partitions must be >= 0")
        if self.spill_candidates and self.verify_per_partition:
            raise ConfigurationError(
                "spill_candidates and verify_per_partition are mutually "
                "exclusive (spilling exists to defer verification)"
            )
        if self.workers > 1 and (self.spill_candidates
                                 or self.verify_per_partition):
            raise ConfigurationError(
                "parallel execution (workers > 1) defers verification and "
                "keeps candidates in worker memory; it is mutually "
                "exclusive with spill_candidates and verify_per_partition"
            )

    @property
    def k(self) -> int:
        """The partition count a forced algorithm runs at."""
        return self.num_partitions or DEFAULT_PARTITIONS

    def replace(self, **changes) -> "JoinConfig":
        """A copy with ``changes`` applied (and validated)."""
        return replace(self, **changes)

    def build_partitioner(self, theta_r: float, theta_s: float) -> Partitioner:
        """The forced algorithm's partitioner for relations of average
        cardinalities θ_R and θ_S (floored at one element, so relations
        of mostly empty sets still tune a hash family).

        ``"auto"`` has no partitioner until the optimizer picks one; use
        :meth:`repro.core.optimizer.JoinPlan.build_partitioner` then.
        """
        if self.algorithm == "auto":
            raise ConfigurationError(
                "algorithm 'auto' needs a plan to choose its partitioner"
            )
        return resolve_partitioner(
            self.algorithm, self.k, max(theta_r, 1.0), max(theta_s, 1.0),
            self.seed,
        )

    @classmethod
    def from_params(cls, params: Mapping) -> "JoinConfig":
        """Read the flat wire keys (service ``submit(**params)``, the
        HTTP ``/join`` body, capture records); other keys are ignored
        and absent ones take their defaults."""
        try:
            return cls(**{
                field.name: params[field.name]
                for field in fields(cls) if field.name in params
            })
        except TypeError as error:  # e.g. a string where a count belongs
            raise ConfigurationError(
                f"invalid join settings: {error}"
            ) from error

    def to_params(self) -> dict:
        """Every setting as a flat wire key; inverse of :meth:`from_params`."""
        return asdict(self)
