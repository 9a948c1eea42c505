"""Fixture tests for the effect-inference rules: purity-stateless-tick
and spawn-purity, with exact line assertions."""

from pathlib import Path

from repro.analysis import LintConfig, lint_paths, lint_source

FIXTURES = Path(__file__).parent / "fixtures"


def lint_fixture(name: str, **config_kwargs: object) -> list:
    result = lint_paths([FIXTURES / name], LintConfig(**config_kwargs))
    assert result.parse_errors == 0
    return result.diagnostics


def rule_lines(diagnostics: list, rule_id: str) -> list[int]:
    return [d.line for d in diagnostics if d.rule_id == rule_id]


class TestPurityStatelessTick:
    def test_bad_fixture_exact_lines(self):
        diags = lint_fixture("purity_bad.py")
        assert rule_lines(diags, "purity-stateless-tick") == [24, 35, 43]

    def test_bad_fixture_messages_name_the_effect(self):
        diags = [d for d in lint_fixture("purity_bad.py")
                 if d.rule_id == "purity-stateless-tick"]
        by_line = {d.line: d.message for d in diags}
        assert "writes self._calls" in by_line[24]
        assert "mutates parameter" in by_line[35]
        assert "_scale" in by_line[35]  # helper named as the origin
        assert "numpy's global RNG" in by_line[43]

    def test_good_fixture_clean(self):
        assert rule_lines(lint_fixture("purity_good.py"),
                          "purity-stateless-tick") == []

    def test_stateful_policy_declaring_false_is_clean(self):
        source = (
            "class TracePolicy:\n"
            "    tick_stateless = False\n"
            "\n"
            "    def decide(self, ctx: object) -> object:\n"
            "        return ctx\n"
            "\n"
            "\n"
            "class Stateful(TracePolicy):\n"
            "    tick_stateless = False\n"
            "\n"
            "    def decide(self, ctx: object) -> object:\n"
            "        self._n = 1\n"
            "        return ctx\n")
        result = lint_source(
            source, config=LintConfig(
                select=frozenset({"purity-stateless-tick"})))
        assert result.diagnostics == []

    def test_pragma_suppresses_at_effect_site(self):
        source = (
            "class TracePolicy:\n"
            "    tick_stateless = False\n"
            "\n"
            "    def decide(self, ctx: object) -> object:\n"
            "        return ctx\n"
            "\n"
            "\n"
            "class Caching(TracePolicy):\n"
            "    tick_stateless = True\n"
            "\n"
            "    def decide(self, ctx: object) -> object:\n"
            "        self._memo = ctx"
            "  # oclint: disable=purity-stateless-tick\n"
            "        return ctx\n")
        result = lint_source(
            source, config=LintConfig(
                select=frozenset({"purity-stateless-tick"})))
        assert result.diagnostics == []

    def test_inherited_decide_charged_once_to_the_defining_class(self):
        # The mutation lives in Base.decide; Sub inherits it.  One
        # diagnostic (for Base), not one per descendant.
        source = (
            "class TracePolicy:\n"
            "    tick_stateless = False\n"
            "\n"
            "    def decide(self, ctx: object) -> object:\n"
            "        return ctx\n"
            "\n"
            "\n"
            "class Base(TracePolicy):\n"
            "    tick_stateless = True\n"
            "\n"
            "    def decide(self, ctx: object) -> object:\n"
            "        self._n = 1\n"
            "        return ctx\n"
            "\n"
            "\n"
            "class Sub(Base):\n"
            "    pass\n")
        result = lint_source(
            source, config=LintConfig(
                select=frozenset({"purity-stateless-tick"})))
        assert [d.line for d in result.diagnostics] == [12]
        assert "Base" in result.diagnostics[0].message

    def test_rng_draw_from_self_generator_flagged(self):
        source = (
            "class TracePolicy:\n"
            "    tick_stateless = False\n"
            "\n"
            "    def decide(self, ctx: object) -> object:\n"
            "        return ctx\n"
            "\n"
            "\n"
            "class Jittery(TracePolicy):\n"
            "    tick_stateless = True\n"
            "\n"
            "    def decide(self, ctx: object) -> object:\n"
            "        return self._rng.normal()\n")
        result = lint_source(
            source, config=LintConfig(
                select=frozenset({"purity-stateless-tick"})))
        assert [d.line for d in result.diagnostics] == [12]
        assert "generator state" in result.diagnostics[0].message


class TestSpawnPurity:
    CONFIG = dict(worker_entrypoints=frozenset({"worker_main"}))

    def test_bad_fixture_exact_lines(self):
        diags = lint_fixture("spawnsafe_bad.py", **self.CONFIG)
        assert rule_lines(diags, "spawn-purity") == [11, 15]

    def test_helper_read_names_its_origin(self):
        diags = [d for d in lint_fixture("spawnsafe_bad.py", **self.CONFIG)
                 if d.rule_id == "spawn-purity"]
        by_line = {d.line: d.message for d in diags}
        assert "reads" in by_line[11] and "_LIMITS" in by_line[11]
        assert "via _lookup" in by_line[11]
        assert "writes" in by_line[15] and "_SHARED_CACHE" in by_line[15]

    def test_non_entrypoint_reads_unflagged(self):
        diags = lint_fixture("spawnsafe_bad.py", **self.CONFIG)
        assert 21 not in rule_lines(diags, "spawn-purity")

    def test_good_fixture_none_sentinel_clean(self):
        diags = lint_fixture(
            "spawnsafe_good.py",
            worker_entrypoints=frozenset({"worker_main", "_init_worker"}))
        assert rule_lines(diags, "spawn-purity") == []

    def test_no_entrypoints_means_no_diagnostics(self):
        diags = lint_fixture("spawnsafe_bad.py",
                             worker_entrypoints=frozenset())
        assert rule_lines(diags, "spawn-purity") == []

    def test_pragma_suppresses(self):
        source = (
            "_TABLE = {}\n"
            "\n"
            "\n"
            "def worker_main(job: int) -> int:\n"
            "    return len(_TABLE)  # oclint: disable=spawn-purity\n")
        result = lint_source(
            source, config=LintConfig(
                select=frozenset({"spawn-purity"}),
                worker_entrypoints=frozenset({"worker_main"})))
        assert result.diagnostics == []

    def test_function_level_from_import_of_mutable_global(self):
        # Binds the parent object under fork but a fresh re-import under
        # spawn — the classic silent divergence.
        source = (
            "def worker_main(job: int) -> int:\n"
            "    from repro.analysis.registry import _REGISTRY\n"
            "    return len(_REGISTRY) + job\n")
        result = lint_source(
            source, config=LintConfig(
                select=frozenset({"spawn-purity"}),
                worker_entrypoints=frozenset({"worker_main"})))
        # _REGISTRY lives outside the linted set, so the import itself
        # cannot be classified; same-module mutable globals can.
        assert result.diagnostics == []
