"""Extensions beyond the paper's core scheme.

Section 8 lists the refinements "actual machines impose": partitioning when
there are not enough processors [23], re-routing, projection.  This package
implements the first as an execution-model extension
(:mod:`repro.extensions.partition`): the LSGP fold onto a fixed ``(p,)``
or ``(p, q)`` physical array is cached per design and size, every process is
pinned to the worker its process-space position folds onto, and the
virtual-time accounting serializes each worker, quantifying how the
generated programs degrade when folded onto a smaller machine.
"""

from repro.extensions.pipelining import (
    PipelinedProgram,
    LiftedStream,
    pipeline_program,
)
from repro.extensions.partition import (
    PartitionedSchedule,
    TileBand,
    band_edges,
    partitioned_execute,
    partitioned_schedule,
)

__all__ = [
    "PipelinedProgram",
    "LiftedStream",
    "pipeline_program",
    "PartitionedSchedule",
    "TileBand",
    "band_edges",
    "partitioned_execute",
    "partitioned_schedule",
]
