"""Per-operator execution metrics (the reproduction's mini Spark UI).

Metrics are collected by the partitioned executor and merged from its
per-partition tasks: each task's counters (rows in/out, compute seconds)
are added to its operator's totals here.

Timing semantics:

* ``OperatorMetrics.wall_seconds`` — elapsed time of the operator's stage
  (shuffle + every partition's task).
* ``OperatorMetrics.cpu_seconds`` — summed task compute time across all
  partitions.
* ``ExecutionMetrics.wall_seconds`` — end-to-end wall time.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class OperatorMetrics:
    """Counters collected for one operator during execution.

    ``origins`` names the user-plan operator ids an optimizer-rewritten
    operator derives from (empty: the executed operator *is* the user
    operator, or was synthesized by a rewrite rule).
    """

    op_id: int
    label: str
    rows_in: int = 0
    rows_out: int = 0
    shuffled_rows: int = 0
    partitions: int = 1
    tasks: int = 0
    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0
    origins: "tuple[int, ...]" = ()

    def absorb_task(self, rows_in: int, rows_out: int, seconds: float) -> None:
        """Merge one partition task's counters into this operator's totals."""
        self.rows_in += rows_in
        self.rows_out += rows_out
        self.cpu_seconds += seconds
        self.tasks += 1


@dataclass
class ExecutionMetrics:
    """Counters for one plan execution.

    When the logical optimizer ran, ``optimizer`` holds its summary — the
    per-rule fire counts plus operator counts before/after rewriting (see
    :meth:`repro.engine.optimizer.OptimizationReport.summary`) plus
    ``rewrite_seconds``, the time the fixpoint rewrite itself took; ``None``
    means the plan executed as written.

    ``engine`` names the chain-evaluation engine: always ``columnar`` for
    a run of this executor (documents written by older row-engine runs may
    say ``row``).  ``kernels`` holds the kernel-cache observability counters
    (``hits``/``misses``/``fallbacks``/``codegen_seconds``) merged across
    every chain task.
    """

    operators: dict[int, OperatorMetrics] = field(default_factory=dict)
    wall_seconds: float = 0.0
    optimizer: "dict | None" = None
    engine: str = "columnar"
    kernels: "dict | None" = None

    def total_rows_processed(self) -> int:
        """Sum of ``rows_in`` across all operators."""
        return sum(m.rows_in for m in self.operators.values())

    def total_shuffled_rows(self) -> int:
        """Sum of shuffled rows across all operators."""
        return sum(m.shuffled_rows for m in self.operators.values())

    def total_cpu_seconds(self) -> float:
        """Summed per-task compute time across all operators and partitions."""
        return sum(m.cpu_seconds for m in self.operators.values())

    def report(self) -> str:
        """Human-readable per-operator execution summary (mini Spark UI)."""
        lines = [
            f"total wall time: {self.wall_seconds:.4f}s "
            f"(engine={self.engine}, cpu={self.total_cpu_seconds():.4f}s)"
        ]
        if self.kernels is not None:
            k = self.kernels
            lines.append(
                f"kernels: hits={k.get('hits', 0)} misses={k.get('misses', 0)} "
                f"fallbacks={k.get('fallbacks', 0)} "
                f"codegen={k.get('codegen_seconds', 0.0):.4f}s"
            )
        if self.optimizer is not None:
            fires = ", ".join(
                f"{name}×{count}"
                for name, count in self.optimizer.get("rule_fires", {}).items()
            )
            lines.append(
                f"optimizer: {fires or 'no rewrites'} "
                f"(ops {self.optimizer.get('ops_before')}→{self.optimizer.get('ops_after')})"
            )
        for m in self.operators.values():
            origin = (
                " ⟵ " + ",".join(f"#{i}" for i in m.origins) if m.origins else ""
            )
            lines.append(
                f"  #{m.op_id} {m.label}: in={m.rows_in} out={m.rows_out} "
                f"shuffle={m.shuffled_rows} parts={m.partitions} "
                f"tasks={m.tasks} t={m.wall_seconds:.4f}s{origin}"
            )
        return "\n".join(lines)
