"""Execution engine: database catalog, partitioned executor, DataFrame API.

This is the reproduction's stand-in for Apache Spark (paper §6.1): a pure
Python, partition-aware evaluator for NRAB plans with per-operator metrics,
plus a Spark-like DataFrame façade for building plans fluently.  Before
execution, plans can pass through the explanation-preserving logical
optimizer (:mod:`repro.engine.optimizer`): rule-based rewrites with
provenance links back to the user's operators, identical results and
identical why-not explanations guaranteed.
"""

from repro.engine.database import Database
from repro.engine.executor import Executor, ExecutionMetrics
from repro.engine.dataframe import DataFrame, Session
from repro.engine.optimizer import OptimizationReport, optimize_query

__all__ = [
    "Database",
    "Executor",
    "ExecutionMetrics",
    "DataFrame",
    "Session",
    "OptimizationReport",
    "optimize_query",
]
