"""Tests for the determinism & safety static-analysis suite.

Every shipped rule gets fixture snippets that fire it, snippets that must
not, and a suppressed variant; the CLI's JSON document is schema-checked;
and a self-clean test asserts the analyzer passes over the repo at HEAD.
"""

import json
import textwrap
from pathlib import Path

from repro.analysis.cli import analyze_paths, main
from repro.analysis.config import DEFAULT_CONFIG, AnalysisConfig, RuleScope
from repro.analysis.engine import analyze_source, parse_suppressions
from repro.analysis.reporting import DOCUMENT_SCHEMA_VERSION, build_document
from repro.analysis.rules import ALL_RULES, build_rules, rules_by_code

REPO_ROOT = Path(__file__).resolve().parents[1]

SIM_PATH = "src/repro/sim/snippet.py"
FLEET_PATH = "src/repro/fleet/snippet.py"
TEST_PATH = "tests/snippet.py"


def analyze(source, rel_path=SIM_PATH, config=DEFAULT_CONFIG):
    rules = [
        rule for rule in build_rules() if config.rule_active(rule.code, rel_path)
    ]
    known = sorted(rules_by_code()) + ["RPR000", "RPR999"]
    return analyze_source(
        textwrap.dedent(source), rel_path, rules, known_codes=known
    )


def active_codes(findings):
    return [finding.code for finding in findings if not finding.suppressed]


def suppressed_codes(findings):
    return [finding.code for finding in findings if finding.suppressed]


class TestUnorderedSetIteration:
    def test_for_over_set_literal_fires(self):
        findings = analyze("for item in {1, 2, 3}:\n    print(item)\n")
        assert active_codes(findings) == ["RPR001"]

    def test_for_over_inferred_set_name_fires(self):
        source = """
        pending = set(["a", "b"])
        for item in pending:
            print(item)
        """
        assert active_codes(analyze(source)) == ["RPR001"]

    def test_set_typed_parameter_fires(self):
        source = """
        from typing import Set

        def assemble(keys: Set[str]):
            return [key for key in keys]
        """
        assert active_codes(analyze(source)) == ["RPR001"]

    def test_set_algebra_result_fires(self):
        source = """
        alive = set(["a"])
        lost = set(["b"])
        for device in alive - lost:
            print(device)
        """
        assert active_codes(analyze(source)) == ["RPR001"]

    def test_list_materialisation_fires(self):
        assert active_codes(analyze("order = list({1, 2})\n")) == ["RPR001"]

    def test_sorted_set_is_clean(self):
        source = """
        pending = set(["a", "b"])
        for item in sorted(pending):
            print(item)
        """
        assert active_codes(analyze(source)) == []

    def test_reassigned_name_is_clean(self):
        source = """
        items = set(["a"])
        items = ["a"]
        for item in items:
            print(item)
        """
        assert active_codes(analyze(source)) == []

    def test_suppression_with_reason(self):
        source = (
            "counts = {k: 0 for k in set(['a'])}"
            "  # repro: noqa[RPR001] reason=order never observed\n"
        )
        findings = analyze(source)
        assert active_codes(findings) == []
        assert suppressed_codes(findings) == ["RPR001"]
        assert findings[0].suppression_reason == "order never observed"


class TestWallClockCall:
    def test_time_time_fires(self):
        source = """
        import time

        def stamp():
            return time.time()
        """
        assert active_codes(analyze(source)) == ["RPR002"]

    def test_aliased_import_fires(self):
        source = """
        import time as clock

        started = clock.perf_counter()
        """
        assert active_codes(analyze(source)) == ["RPR002"]

    def test_datetime_now_fires(self):
        source = """
        from datetime import datetime

        stamp = datetime.now()
        """
        assert active_codes(analyze(source)) == ["RPR002"]

    def test_simulated_clock_is_clean(self):
        source = """
        def observe(env):
            return env.now
        """
        assert active_codes(analyze(source)) == []

    def test_date_parsing_is_clean(self):
        source = """
        import datetime

        day = datetime.date.fromisoformat("1994-06-15")
        """
        assert active_codes(analyze(source)) == []

    def test_bench_harness_is_scoped_out(self):
        source = """
        import time

        started = time.perf_counter()
        """
        assert active_codes(analyze(source, rel_path="src/repro/scenarios/parallel.py")) == []

    def test_suppressed(self):
        source = (
            "import time\n"
            "started = time.time()  # repro: noqa[RPR002] reason=wall-clock budget\n"
        )
        findings = analyze(source)
        assert active_codes(findings) == []
        assert suppressed_codes(findings) == ["RPR002"]


class TestUnseededRandomCall:
    def test_module_level_random_fires(self):
        source = """
        import random

        delay = random.random()
        """
        assert active_codes(analyze(source)) == ["RPR003"]

    def test_from_import_fires(self):
        source = """
        from random import randint

        value = randint(1, 6)
        """
        assert active_codes(analyze(source)) == ["RPR003"]

    def test_seeded_instance_is_clean(self):
        source = """
        import random

        rng = random.Random(7)
        value = rng.random()
        """
        assert active_codes(analyze(source)) == []

    def test_suppressed(self):
        source = (
            "import random\n"
            "x = random.random()  # repro: noqa[RPR003] reason=jitter outside goldens\n"
        )
        assert active_codes(analyze(source)) == []


class TestBuiltinHashInPlacement:
    def test_hash_in_fleet_code_fires(self):
        source = """
        def owner(key, devices):
            return devices[hash(key) % len(devices)]
        """
        assert active_codes(analyze(source, rel_path=FLEET_PATH)) == ["RPR004"]

    def test_dunder_hash_is_exempt(self):
        source = """
        class Key:
            def __hash__(self):
                return hash((self.a, self.b))
        """
        assert active_codes(analyze(source, rel_path=FLEET_PATH)) == []

    def test_engine_code_is_out_of_scope(self):
        source = "bucket = hash('key')\n"
        assert active_codes(analyze(source, rel_path="src/repro/engine/schema.py")) == []

    def test_suppressed(self):
        source = (
            "bucket = hash('key')"
            "  # repro: noqa[RPR004] reason=process-local bucketing only\n"
        )
        findings = analyze(source, rel_path=FLEET_PATH)
        assert active_codes(findings) == []
        assert suppressed_codes(findings) == ["RPR004"]


class TestUnsortedDirectoryListing:
    def test_listdir_fires(self):
        source = """
        import os

        names = os.listdir(".")
        """
        assert active_codes(analyze(source)) == ["RPR005"]

    def test_iterdir_method_fires(self):
        source = """
        def scan(path):
            return [entry for entry in path.iterdir()]
        """
        assert active_codes(analyze(source)) == ["RPR005"]

    def test_sorted_listing_is_clean(self):
        source = """
        import os

        names = sorted(os.listdir("."))
        """
        assert active_codes(analyze(source)) == []

    def test_suppressed(self):
        source = (
            "import os\n"
            "names = os.listdir('.')  # repro: noqa[RPR005] reason=order folded by caller\n"
        )
        assert active_codes(analyze(source)) == []


class TestFloatTimeEquality:
    def test_now_equality_fires_as_warning(self):
        findings = analyze("ready = env.now == finish_time\n")
        assert active_codes(findings) == ["RPR101"]
        assert findings[0].severity == "warning"

    def test_ordering_is_clean(self):
        assert active_codes(analyze("late = env.now > deadline\n")) == []

    def test_string_comparison_is_clean(self):
        assert active_codes(analyze("matched = kind == 'transfer'\n")) == []

    def test_tests_are_scoped_out(self):
        source = "assert report_time == 12.5\n"
        assert active_codes(analyze(source, rel_path=TEST_PATH)) == []

    def test_suppressed(self):
        source = (
            "exact = start_seconds == 0.0"
            "  # repro: noqa[RPR101] reason=zero is exactly representable\n"
        )
        assert active_codes(analyze(source)) == []


class TestMutableDefaultArgument:
    def test_list_default_fires(self):
        assert active_codes(analyze("def f(items=[]):\n    return items\n")) == [
            "RPR102"
        ]

    def test_dict_and_set_call_defaults_fire(self):
        source = """
        def f(mapping={}, *, members=set()):
            return mapping, members
        """
        assert active_codes(analyze(source)) == ["RPR102", "RPR102"]

    def test_none_and_tuple_defaults_are_clean(self):
        source = """
        def f(items=None, pair=()):
            return items, pair
        """
        assert active_codes(analyze(source)) == []

    def test_suppressed(self):
        source = (
            "def f(items=[]):"
            "  # repro: noqa[RPR102] reason=sentinel never mutated\n"
            "    return items\n"
        )
        assert active_codes(analyze(source)) == []


class TestBareOrBroadExcept:
    def test_bare_except_fires(self):
        source = """
        try:
            work()
        except:
            pass
        """
        assert active_codes(analyze(source)) == ["RPR103"]

    def test_base_exception_fires(self):
        source = """
        try:
            work()
        except BaseException:
            pass
        """
        assert active_codes(analyze(source)) == ["RPR103"]

    def test_narrow_except_is_clean(self):
        source = """
        try:
            work()
        except ValueError:
            pass
        """
        assert active_codes(analyze(source)) == []

    def test_suppressed(self):
        source = (
            "try:\n"
            "    work()\n"
            "except BaseException:  # repro: noqa[RPR103] reason=must fail the event\n"
            "    pass\n"
        )
        findings = analyze(source)
        assert active_codes(findings) == []
        assert suppressed_codes(findings) == ["RPR103"]


class TestNonTaxonomyRaise:
    def test_builtin_raise_fires(self):
        source = "raise ValueError('bad knob')\n"
        assert active_codes(analyze(source)) == ["RPR104"]

    def test_bare_name_raise_fires(self):
        source = "raise TypeError\n"
        assert active_codes(analyze(source)) == ["RPR104"]

    def test_taxonomy_raise_is_clean(self):
        source = """
        from repro.exceptions import ConfigurationError

        raise ConfigurationError("bad knob")
        """
        assert active_codes(analyze(source)) == []

    def test_reraise_and_not_implemented_are_clean(self):
        source = """
        def abstract():
            raise NotImplementedError

        def forward():
            try:
                abstract()
            except Exception:
                raise
        """
        assert active_codes(analyze(source)) == []

    def test_tests_are_scoped_out(self):
        assert active_codes(analyze("raise ValueError('x')\n", rel_path=TEST_PATH)) == []

    def test_suppressed(self):
        source = (
            "raise RuntimeError('boom')"
            "  # repro: noqa[RPR104] reason=interpreter-level guard\n"
        )
        assert active_codes(analyze(source)) == []


class TestBlockingCallInSimulation:
    def test_time_sleep_fires(self):
        source = """
        import time

        def wait():
            time.sleep(1.0)
        """
        assert active_codes(analyze(source)) == ["RPR105"]

    def test_open_inside_generator_fires(self):
        source = """
        def process(env):
            payload = open("data.bin").read()
            yield env.timeout(1.0)
        """
        assert active_codes(analyze(source)) == ["RPR105"]

    def test_open_outside_generator_is_clean(self):
        source = """
        def load(path):
            return open(path).read()
        """
        assert active_codes(analyze(source)) == []

    def test_env_timeout_is_clean(self):
        source = """
        def process(env):
            yield env.timeout(1.0)
        """
        assert active_codes(analyze(source)) == []

    def test_suppressed(self):
        source = (
            "import time\n"
            "time.sleep(0.1)  # repro: noqa[RPR105] reason=rate-limit a live probe\n"
        )
        assert active_codes(analyze(source)) == []


class TestSuppressionMachinery:
    def test_noqa_without_codes_is_malformed(self):
        findings = analyze("x = 1  # repro: noqa\n")
        assert active_codes(findings) == ["RPR000"]

    def test_noqa_without_reason_is_malformed(self):
        findings = analyze("x = {1} | {2}  # repro: noqa[RPR001]\n")
        assert "RPR000" in active_codes(findings)

    def test_unknown_code_is_malformed(self):
        findings = analyze("x = 1  # repro: noqa[RPR777] reason=nope\n")
        assert active_codes(findings) == ["RPR000"]

    def test_noqa_on_other_line_does_not_suppress(self):
        source = (
            "# repro: noqa[RPR002] reason=wrong line\n"
            "import time\n"
            "started = time.time()\n"
        )
        assert active_codes(analyze(source)) == ["RPR002"]

    def test_multiple_codes_one_comment(self):
        source = (
            "import time\n"
            "x = [t for t in {time.time()}]"
            "  # repro: noqa[RPR001,RPR002] reason=fixture exercising both\n"
        )
        findings = analyze(source)
        assert active_codes(findings) == []
        assert sorted(suppressed_codes(findings)) == ["RPR001", "RPR002"]

    def test_docstring_mentioning_noqa_is_ignored(self):
        source = '"""Docs show `# repro: noqa[RPRnnn] reason=...` usage."""\n'
        assert parse_suppressions(textwrap.dedent(source)) == []
        assert analyze(source) == []

    def test_syntax_error_reports_parse_error(self):
        findings = analyze("def broken(:\n")
        assert [finding.code for finding in findings] == ["RPR999"]


class TestConfigScoping:
    def test_include_patterns_limit_activation(self):
        config = AnalysisConfig({"RPR104": RuleScope(include=("src/repro/*",))})
        assert config.rule_active("RPR104", "src/repro/sim/events.py")
        assert not config.rule_active("RPR104", "tests/test_sim.py")

    def test_exclude_patterns_carve_out(self):
        config = AnalysisConfig({"RPR002": RuleScope(exclude=("benchmarks/*",))})
        assert not config.rule_active("RPR002", "benchmarks/bench_fig07_skipper_scaling.py")
        assert config.rule_active("RPR002", "src/repro/sim/environment.py")

    def test_unknown_rule_is_active_everywhere(self):
        config = AnalysisConfig({})
        assert config.rule_active("RPR001", "anything/at/all.py")


class TestCliAndDocument:
    def _write_tree(self, tmp_path, body):
        module = tmp_path / "src" / "repro" / "demo" / "mod.py"
        module.parent.mkdir(parents=True)
        module.write_text(body)
        return module

    def test_json_document_schema(self, tmp_path, capsys):
        self._write_tree(tmp_path, "import time\nstarted = time.time()\n")
        output = tmp_path / "findings.json"
        exit_code = main(
            [
                str(tmp_path / "src"),
                "--rootdir",
                str(tmp_path),
                "--format",
                "json",
                "--output",
                str(output),
            ]
        )
        assert exit_code == 1
        printed = json.loads(capsys.readouterr().out)
        written = json.loads(output.read_text())
        assert printed == written
        assert printed["schema_version"] == DOCUMENT_SCHEMA_VERSION
        assert printed["tool"] == "repro.analysis"
        assert printed["files_scanned"] == 1
        assert printed["counts"]["active"] == 1
        assert printed["counts"]["errors"] == 1
        assert {rule["code"] for rule in printed["rules"]} == {
            rule.code for rule in ALL_RULES
        }
        (finding,) = printed["findings"]
        assert finding["code"] == "RPR002"
        assert finding["path"] == "src/repro/demo/mod.py"
        assert finding["line"] == 2
        assert finding["suppressed"] is False
        assert set(finding) == {
            "code",
            "name",
            "severity",
            "path",
            "line",
            "col",
            "message",
            "suppressed",
            "suppression_reason",
        }

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        self._write_tree(tmp_path, "value = 1\n")
        assert main([str(tmp_path / "src"), "--rootdir", str(tmp_path)]) == 0

    def test_warning_fails_only_under_strict(self, tmp_path, capsys):
        self._write_tree(tmp_path, "exact = env.now == finish_time\n")
        args = [str(tmp_path / "src"), "--rootdir", str(tmp_path)]
        assert main(args) == 0
        assert main(args + ["--strict"]) == 1

    def test_list_rules_names_every_code(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.code in out
            assert rule.name in out

    def test_document_is_deterministic(self, tmp_path):
        self._write_tree(
            tmp_path, "import time\nstarted = time.time()\nimport random\nr = random.random()\n"
        )
        findings_a, files_a = analyze_paths([tmp_path / "src"], tmp_path)
        findings_b, files_b = analyze_paths([tmp_path / "src"], tmp_path)
        doc_a = build_document(findings_a, ["src"], files_a, strict=True)
        doc_b = build_document(findings_b, ["src"], files_b, strict=True)
        assert json.dumps(doc_a, sort_keys=True) == json.dumps(doc_b, sort_keys=True)
        assert [f["line"] for f in doc_a["findings"]] == sorted(
            f["line"] for f in doc_a["findings"]
        )


class TestSelfClean:
    def test_repo_is_clean_at_head(self, capsys):
        exit_code = main(
            [
                str(REPO_ROOT / "src"),
                str(REPO_ROOT / "tests"),
                "--strict",
                "--rootdir",
                str(REPO_ROOT),
            ]
        )
        out = capsys.readouterr().out
        assert exit_code == 0, f"analyzer found violations at HEAD:\n{out}"

    def test_deliberate_suppressions_carry_reasons(self):
        findings, _files = analyze_paths(
            [REPO_ROOT / "src", REPO_ROOT / "tests"], REPO_ROOT
        )
        suppressed = [finding for finding in findings if finding.suppressed]
        assert suppressed, "expected the documented deliberate suppressions"
        for finding in suppressed:
            assert finding.suppression_reason
