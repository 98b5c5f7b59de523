"""Tier-1 mutation fuzzing: generator validity and a seeded mini sweep.

The full randomized gate (150+ cases) runs as
``python -m repro fuzz --mutations`` in the CI ``mutate`` job: it applies
each fuzzed chain through the service's ``mutate_database`` and checks the
service's answers against from-scratch ones at every version.  Tier-1 keeps
a small deterministic slice plus property checks on the mutation generator
itself: generated mutations must always apply cleanly (valid by
construction), every version must be its predecessor with its recorded
mutation applied, canonical-form variants must stay canonically equal to
what they re-express, and the sweep must be reproducible.
"""

import random

from repro.fuzz import FuzzConfig, run_mutation_sweep
from repro.fuzz.harness import generate_case
from repro.fuzz.mutations import _variant_value, gen_mutation, gen_mutation_chain
from repro.nested.values import Bag, Tup, canonicalize_value


def _config():
    return FuzzConfig(depth=2, rows=6, ops=4)


class TestMutationGenerator:
    def test_generated_mutations_always_apply(self):
        config = _config()
        for index in range(20):
            rng = random.Random(f"validity:{index}")
            case = generate_case(rng, config)
            db = case.database()
            for _ in range(3):
                mutation = gen_mutation(rng, db, config)
                assert not mutation.is_empty()
                db = db.apply_mutations(mutation)  # must never raise

    def test_chain_builds_descendant_versions(self):
        rng = random.Random("chain:0")
        config = _config()
        case = generate_case(rng, config)
        db = case.database()
        chain = gen_mutation_chain(rng, db, 4, config)
        # The chain includes the base version at index 0.
        assert [v.version_id for v in chain] == [0, 1, 2, 3, 4]
        assert chain[0] is db
        # Each version is its predecessor with its recorded mutation applied,
        # which is how the sweep replays the chain through the service.
        for before, after in zip(chain, chain[1:]):
            replayed = before.apply_mutations(after.last_mutation)
            for name in after.tables():
                assert replayed.relation(name) == after.relation(name)

    def test_variant_values_stay_canonically_equal(self):
        rng = random.Random("variant:0")
        samples = [
            2,
            2.0,
            0.0,
            -0.0,
            float("nan"),
            True,
            "s",
            Tup(a=1, b=Bag([2.0, float("nan")])),
            Bag([Tup(a=0.0), Tup(a=0.0)]),
        ]
        for value in samples:
            for _ in range(10):
                variant = _variant_value(rng, value)
                # Bag equality compares canonical keys (NaN ≡ NaN, 2 ≡ 2.0).
                assert Bag([canonicalize_value(variant)]) == Bag(
                    [canonicalize_value(value)]
                )

    def test_variants_do_reexpress_sometimes(self):
        rng = random.Random("variant:1")
        flips = sum(
            1 for _ in range(50) if repr(_variant_value(rng, 2.0)) != repr(2.0)
        )
        assert flips > 0  # int 2 must appear among the variants of 2.0


class TestMiniSweep:
    def test_mini_sweep_is_clean_and_deterministic(self):
        kwargs = dict(
            seed=5,
            cases=3,
            config=_config(),
            steps=2,
        )
        first = run_mutation_sweep(**kwargs)
        assert first.ok, "\n".join(
            f"{label}: {message}" for label, message in first.failures
        )
        assert first.configs_run > 0 and first.explain_configs_run > 0
        second = run_mutation_sweep(**kwargs)
        assert first.summary() == second.summary()
        assert first.failures == second.failures

    def test_delta_retraces_reuse_lazy_columns(self, monkeypatch):
        """Fused narrow runs leave lazy columns in the service's explain
        states, and the sweep's siblings re-annotate over them on versions
        written through the service by replaying the runs' kernels, which
        leaves every lazy column unevaluated."""
        from repro.whynot import tracing

        def built(cols):
            return [column is not None for column in cols._cols]

        unevaluated = []
        newly_built = []
        annotate = tracing.Tracer.annotate

        def spy(self, relaxed):
            lazy = {
                op_id: snap.cols
                for op_id, snap in relaxed.traces.items()
                if isinstance(snap.cols, tracing.LazyColumns)
            }
            before = {op_id: built(cols) for op_id, cols in lazy.items()}
            unevaluated.extend(op_id for op_id, flags in before.items() if not any(flags))
            result = annotate(self, relaxed)
            newly_built.extend(
                op_id for op_id, cols in lazy.items() if built(cols) != before[op_id]
            )
            return result

        monkeypatch.setattr(tracing.Tracer, "annotate", spy)
        result = run_mutation_sweep(seed=1, cases=2)
        assert result.ok, result.failures
        assert result.tracer_checks > 0 and result.sibling_checks > 0
        assert unevaluated and not newly_built

    def test_mini_sweep_without_questions(self):
        result = run_mutation_sweep(
            seed=6,
            cases=2,
            config=_config(),
            steps=2,
            questions=False,
        )
        assert result.ok
        assert result.with_question == 0
        assert result.explain_configs_run == 0
