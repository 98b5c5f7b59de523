"""Why-not questions (paper Definition 5).

A why-not question ``Φ = ⟨Q, D, t⟩`` pairs a query, a database, and a NIP
``t`` over the query's output tuple type.  Definition 5 requires that no
result tuple matches ``t`` (otherwise the question is ill-posed: the "missing"
answer is present).

``Q(D)`` itself is computed on the compiled answer path: the logical
optimizer (:mod:`repro.engine.optimizer`) rewrites the plan and the
partitioned executor runs it on generated kernels, serially over one
partition.  ``Query.evaluate`` stays the reference semantics that tests and
the differential fuzzer compare this path against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.algebra.operators import Query
from repro.engine.database import Database
from repro.engine.executor import Executor
from repro.nested.values import Bag
from repro.whynot.matching import any_match, matching_tuples, validate_nip


class IllPosedQuestion(ValueError):
    """Raised when the why-not tuple already matches a result tuple."""


@dataclass
class WhyNotQuestion:
    """``Φ = ⟨Q, D, t⟩`` — why is no tuple matching ``t`` in ``Q(D)``?"""

    query: Query
    db: Database
    nip: Any
    name: str = ""
    _result_cache: Bag = field(default=None, repr=False, compare=False)

    def result(self) -> Bag:
        """The original query result ``Q(D)`` (cached).

        Computed once by ``Executor()``: the optimized plan on the kernel
        executor, one partition.  The optimizer's rewrite is cached on the
        query per database version.
        """
        if self._result_cache is None:
            self._result_cache = Executor().execute(self.query, self.db)
        return self._result_cache

    def validate(self) -> None:
        """Check Definition 3 (NIP well-formedness) and Definition 5 (the
        missing answer really is missing)."""
        validate_nip(self.nip)
        witnesses = matching_tuples(self.result(), self.nip)
        if witnesses:
            raise IllPosedQuestion(
                f"why-not tuple {self.nip!r} already matches result tuples "
                f"{witnesses[:3]!r}"
            )

    def is_answered_by(self, relation: Bag) -> bool:
        """True when *relation* contains a tuple matching the why-not NIP —
        the success test for reparameterizations (Def. 8)."""
        return any_match(relation, self.nip)

    def describe(self) -> str:
        """Human-readable question summary: the NIP plus the query plan."""
        header = f"Why-not question {self.name or '(unnamed)'}"
        return f"{header}\n  missing answer: {self.nip!r}\n  {self.query.describe()}"
