"""Tests for the lexpress compilation tier: the constant-folding /
dead-branch optimizer, closure code generation, the process-wide compile
memo, rule closures bound when a mapping compiles, and the MetaComm
wiring (docs/LEXPRESS_COMPILER.md)."""

import dataclasses

import pytest

from repro.lexpress import (
    CodeObject,
    CompiledRule,
    LexpressCompileError,
    LexpressRuntimeError,
    Op,
    compile_closure,
    compile_expr,
    compile_mapping,
    execute,
    lower_attrs,
    rule_cache,
    tokenize,
)
from repro.lexpress.codegen import (
    CompiledClosure,
    CompiledRuleCache,
    _CFrame,
    verified_compile,
)
from repro.lexpress.parser import Parser


def expr_code(source: str, optimize: bool = True) -> CodeObject:
    parser = Parser(tokenize(source))
    return compile_expr(parser.parse_expr(), source, optimize=optimize)


def ops(code: CodeObject) -> list[Op]:
    return [ins.op for ins in code.instructions]


def run_closure(code: CodeObject, attrs=None, value=None):
    closure = compile_closure(code)
    frame = _CFrame()
    frame.value = value
    return closure.fn(lower_attrs(attrs or {}), frame)


def broken_code() -> CodeObject:
    """Verifier-rejected (LX102) but interpreter-executable code."""
    code = CodeObject("broken")
    code.emit(Op.PUSH, code.const("a"))
    code.emit(Op.PUSH, code.const("b"))
    code.emit(Op.RETURN)
    return code


# -- constant folding / dead-branch elimination ------------------------------


class TestOptimizer:
    def test_pure_calls_fold_to_a_push(self):
        code = expr_code('concat("a", upper("bc"))')
        assert ops(code) == [Op.PUSH, Op.RETURN]
        assert code.consts == ["aBC"]

    def test_folding_can_be_disabled(self):
        code = expr_code('concat("a", upper("bc"))', optimize=False)
        assert Op.CALL in ops(code)

    def test_failing_calls_are_left_for_the_runtime(self):
        # Wrong arity: folding must not swallow the author's error site.
        code = expr_code('substr("abc")')
        assert Op.CALL in ops(code)
        with pytest.raises(LexpressRuntimeError):
            execute(code, {})

    def test_literal_compare_folds(self):
        code = expr_code('("a" == "a")')
        assert ops(code) == [Op.PUSH, Op.RETURN]
        assert code.consts == [True]

    def test_boolop_short_circuits_at_compile_time(self):
        false_and = expr_code('(("a" == "b") and upper(Name))')
        assert ops(false_and) == [Op.PUSH, Op.RETURN]
        assert false_and.consts == [False]
        true_or = expr_code('(("a" == "a") or upper(Name))')
        assert ops(true_or) == [Op.PUSH, Op.RETURN]
        assert true_or.consts == [True]

    def test_surviving_right_side_is_coerced_to_bool(self):
        # true and X  ->  X under double-NOT: the result stays a bool.
        code = expr_code('(("a" == "a") and Name)')
        assert execute(code, {"Name": ["x"]}) is True
        assert execute(code, {}) is False

    def test_literal_right_side_never_simplifies(self):
        # Name's evaluation (and group writes) must be kept.
        code = expr_code('(Name and "x")')
        assert Op.LOAD_ATTR in ops(code)

    def test_literal_subject_match_resolves_to_the_hit_body(self):
        code = expr_code('match upper("ab") { /^A/ => "hit"; _ => "miss"; }')
        assert ops(code) == [Op.PUSH, Op.RETURN]
        assert code.consts == ["hit"]

    def test_literal_subject_miss_resolves_to_the_wildcard(self):
        code = expr_code('match "zz" { /^A/ => "hit"; _ => "miss"; }')
        assert ops(code) == [Op.PUSH, Op.RETURN]
        assert code.consts == ["miss"]

    def test_null_subject_match_is_the_wildcard_body(self):
        code = expr_code('match null { /^a/ => "x"; _ => "y"; }')
        assert ops(code) == [Op.PUSH, Op.RETURN]
        assert code.consts == ["y"]

    def test_groupref_blocks_hit_body_substitution(self):
        # The hit writes frame.groups, and $1 reads them: the match
        # machinery must survive even though the subject is a literal.
        code = expr_code('match "abc" { /^(a)/ => $1; _ => "miss"; }')
        assert Op.MATCH_RE in ops(code)
        assert execute(code, {}) == "a"

    def test_bad_regex_still_fails_compilation(self):
        # Even on an arm a literal subject would never reach.
        with pytest.raises(LexpressCompileError):
            expr_code('match "zz" { /(/ => "x"; _ => "y"; }')

    def test_bool_subject_prunes_impossible_table_keys(self):
        code = expr_code(
            'table present(Name) { "True" => "yes"; "emp" => "no"; }'
        )
        assert Op.TABLE_CONST in ops(code)
        (table, default), = [
            c for c in code.consts if isinstance(c, tuple)
        ]
        assert set(table) == {"True"}
        assert default is None

    def test_all_literal_table_interns_to_table_const(self):
        code = expr_code('table Kind { "emp" => "1"; "ctr" => "2"; }')
        assert ops(code) == [Op.LOAD_ATTR, Op.TABLE_CONST, Op.RETURN]
        assert execute(code, {"Kind": ["ctr"]}) == "2"
        assert execute(code, {"Kind": ["xxx"]}) is None

    def test_computed_table_body_keeps_the_match_chain(self):
        code = expr_code('table Kind { "emp" => upper(Name); }')
        assert Op.TABLE_CONST not in ops(code)
        assert Op.MATCH_LIT in ops(code)


# -- closure code generation -------------------------------------------------


class TestCodegen:
    def test_single_block_closures_are_straight_line(self):
        closure = compile_closure(expr_code('concat(Name, "x")'))
        assert "while True" not in closure.source
        assert "stack" not in closure.source

    def test_branchy_code_uses_block_dispatch(self):
        closure = compile_closure(
            expr_code('match Name { /^a/ => "x"; _ => "y"; }')
        )
        assert "while True" in closure.source

    @pytest.mark.parametrize(
        "source, attrs, value",
        [
            ('concat(upper(Name), "-", Room)', {"Name": ["ab"], "Room": ["2B"]}, None),
            ('match Name { /^(\\w+), ?(\\w+)$/ => concat($2, " ", $1); _ => Name; }',
             {"Name": ["Doe, John"]}, None),
            ('match Name { /^z/ => "x"; _ => trim(Name); }', {"Name": [" a "]}, None),
            ('table Kind { "emp" => "1"; "ctr" => "2"; }', {"Kind": ["ctr"]}, None),
            ('table Kind { "emp" => "1"; }', {"Kind": ["xxx"]}, None),
            ('each Member => upper(value)', {"Member": ["a", "b"]}, None),
            ('alt(Name, Room)', {"Room": ["2B"]}, None),
            ('(present(Name) and not empty(Room))', {"Name": ["x"], "Room": []}, None),
            ('count(Member)', {"Member": ["a", "b", "c"]}, None),
            ('concat(table Kind { "emp" => "1"; }, $0)', {"Kind": ["emp"]}, None),
        ],
    )
    def test_closures_match_the_interpreter(self, source, attrs, value):
        code = expr_code(source)
        interpreted = execute(code, attrs, value)
        compiled = run_closure(code, attrs, value)
        assert compiled == interpreted
        assert type(compiled) is type(interpreted)

    def test_runtime_errors_match_the_interpreter(self):
        code = expr_code("substr(Name)")  # wrong arity, not foldable
        with pytest.raises(LexpressRuntimeError):
            execute(code, {"Name": ["x"]})
        with pytest.raises(LexpressRuntimeError):
            run_closure(code, {"Name": ["x"]})

    def test_empty_code_cannot_be_lowered(self):
        with pytest.raises(LexpressRuntimeError):
            compile_closure(CodeObject("partition:always"))

    def test_fingerprint_travels_with_the_closure(self):
        code = expr_code('upper(Name)')
        assert compile_closure(code).fingerprint == code.fingerprint()


class TestVerifiedCompile:
    def test_clean_code_compiles(self):
        closure = verified_compile(expr_code('upper(Name)'), "m", "a")
        assert isinstance(closure, CompiledClosure)
        assert closure.name == "m.a"

    def test_rejected_code_returns_none(self):
        assert verified_compile(broken_code(), "m", "a") is None


# -- the compile memo --------------------------------------------------------


class TestCompiledRuleCache:
    def test_miss_then_hit(self):
        cache = CompiledRuleCache()
        first = cache.get_or_compile(expr_code('upper(Name)'), "m", "a")
        # Equal byte code from another rule shares the closure.
        second = cache.get_or_compile(expr_code('upper(Name)'), "n", "b")
        assert first is second
        stats = cache.stats()
        assert stats["misses"] == 1 and stats["hits"] == 1
        assert stats["compiles"] == 1 and stats["entries"] == 1

    def test_recompiling_a_rule_invalidates_the_entry(self):
        cache = CompiledRuleCache()
        stale = cache.get_or_compile(expr_code('upper(Name)'), "m", "a")
        # The description was recompiled: same rule, different byte code.
        new = expr_code('lower(Name)')
        fresh = cache.get_or_compile(new, "m", "a")
        assert fresh is not stale
        assert fresh.fingerprint == new.fingerprint() != stale.fingerprint
        assert cache.stats()["compiles"] == 2
        frame = _CFrame()
        assert fresh.fn(lower_attrs({"Name": ["Ab"]}), frame) == "ab"

    def test_rejections_are_cached_and_served_without_reverifying(self):
        cache = CompiledRuleCache()
        code = broken_code()
        assert cache.get_or_compile(code, "m", "a") is None
        assert cache.get_or_compile(code, "m", "a") is None
        stats = cache.stats()
        assert stats["rejected"] == 1 and stats["hits"] == 1

    def test_clear_resets_entries_and_counters(self):
        cache = CompiledRuleCache()
        cache.get_or_compile(expr_code('upper(Name)'), "m", "a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["misses"] == 0


# -- rule evaluation ---------------------------------------------------------

MAPPING = """
mapping pbx_to_x {
    source pbx;
    target x;
    key Extension -> id;
    map cn = concat(upper(Name), "-", Room);
}
"""


class TestRunRule:
    """Running a rule: ``CompiledRule.evaluate`` is the only entry point."""

    def test_compiled_mode_serves_the_cache(self):
        rule = compile_mapping(MAPPING).rules[-1]
        assert rule.closure is rule_cache().get_or_compile(rule.code)
        attrs = lower_attrs({"Name": ["ab"], "Room": ["2B"]})
        assert rule.evaluate(attrs) == execute(rule.code, attrs) == "AB-2B"

    def test_compiled_mode_falls_back_on_rejected_code(self):
        code = broken_code()
        rule = CompiledRule("a", code, closure=verified_compile(code))
        assert rule.closure is None
        assert rule.evaluate({}) == execute(code, {}) == "b"

    def test_verify_mode_agrees_on_honest_closures(self, verify_mode):
        rule = compile_mapping(MAPPING).rules[-1]
        attrs = lower_attrs({"Name": ["ab"], "Room": ["2B"]})
        assert rule.evaluate(attrs) == "AB-2B"
        assert verify_mode == [rule]

    def test_verify_mode_raises_on_divergence(self, verify_mode):
        code = expr_code('upper(Name)')
        lying = CompiledClosure(
            name="m.a",
            fn=lambda attrs, frame: "WRONG",
            source="",
            fingerprint=code.fingerprint(),
        )
        rule = CompiledRule("a", code, closure=lying)
        with pytest.raises(AssertionError, match="divergence") as exc_info:
            rule.evaluate({"name": ["ab"]})
        assert "'AB'" in str(exc_info.value)
        assert "'WRONG'" in str(exc_info.value)


# -- closures bound when a mapping compiles ----------------------------------


class TestBoundClosures:
    def test_every_standard_rule_has_a_bound_closure(self):
        # Production runs no rule through a silent interpreter fallback.
        from repro.schemas import standard_mappings

        for mapping in standard_mappings().values():
            for rule in mapping.rules:
                assert rule.closure is not None, f"{mapping.name}.{rule.target}"

    def test_recompiling_a_description_rebinds(self):
        before = compile_mapping(MAPPING).rules[-1]
        after = compile_mapping(MAPPING.replace("upper", "lower")).rules[-1]
        assert after.closure is not before.closure
        attrs = lower_attrs({"Name": ["Ab"], "Room": ["2B"]})
        assert after.evaluate(attrs) == "ab-2B"

    def test_alternating_prefixes_compile_nothing_after_construction(self):
        # Two systems whose ldap_to_pbx rules compile to different byte
        # code: alternating updates between them must not recompile.
        from repro.core import MetaComm, MetaCommConfig
        from repro.ldap import Modification

        systems = [
            MetaComm(
                MetaCommConfig(organizations=("Marketing",), phone_prefix=prefix)
            )
            for prefix in ("+1 908 582 ", "+44 20 7946 ")
        ]
        try:
            for system in systems:
                assert all(
                    rule.closure is not None
                    for mapping in system.mappings.values()
                    for rule in mapping.rules
                )
                _provision(system)
            compiles = rule_cache().stats()["compiles"]
            for i in range(20):
                system = systems[i % 2]
                system.connection().modify(
                    "cn=Jo Smith,o=Marketing,o=Lucent",
                    [Modification.replace("definityRoom", f"2B-{i}")],
                )
            assert rule_cache().stats()["compiles"] == compiles
            assert all(system.consistent() for system in systems)
        finally:
            for system in systems:
                system.close()


# -- MetaComm wiring ---------------------------------------------------------


def _provision(system):
    from repro.schemas import PERSON_CLASSES

    system.connection().add(
        "cn=Jo Smith,o=Marketing,o=Lucent",
        {
            "objectClass": list(PERSON_CLASSES),
            "cn": "Jo Smith",
            "sn": "Smith",
            "definityExtension": "4100",
        },
    )


class TestMetaCommModes:
    def test_invalid_mode_is_rejected_at_boot(self):
        # The engine is no longer selectable: naming one is rejected.
        from repro.core import MetaCommConfig

        assert "lexpress_mode" not in {
            f.name for f in dataclasses.fields(MetaCommConfig)
        }
        with pytest.raises(TypeError, match="lexpress_mode"):
            MetaCommConfig(lexpress_mode="compiled")

    def test_compiled_mode_provisions_and_journals(self):
        from repro.core import MetaComm, MetaCommConfig
        from repro.obs.events import LEXPRESS_COMPILED

        with MetaComm(MetaCommConfig(organizations=("Marketing",))) as system:
            _provision(system)
            assert system.pbx().station("4100") is not None
            assert system.consistent()
            compiles = system.obs.journal.events(LEXPRESS_COMPILED)
            rules = [
                (mapping.name, rule.target)
                for mapping in system.mappings.values()
                for rule in mapping.rules
            ]
            assert [
                (e.attributes["mapping"], e.attributes["attribute"])
                for e in compiles
            ] == rules
            assert all(
                e.attributes["status"] == "compiled" for e in compiles
            )

    def test_verify_mode_runs_the_workload_without_divergence(self, verify_mode):
        # The acceptance gate: the shipped mapping library produces
        # identical values from both engines across a full provisioning
        # fan-out (any disagreement fails the verify_mode fixture).
        from repro.core import MetaComm, MetaCommConfig

        with MetaComm(MetaCommConfig(organizations=("Marketing",))) as system:
            _provision(system)
            system.terminal().execute("change station 4100 room 2B-110")
            assert system.consistent()
        assert verify_mode
        assert all(rule.closure is not None for rule in verify_mode)
