"""Compiled mappings: the unit of schema translation.

A :class:`CompiledMapping` is one direction of a schema pair ("two
lexpress mappings are specified for each schema pair", section 4.2).  It
can

* compute the full target-schema *image* of a source record,
* *translate* an :class:`~repro.lexpress.descriptor.UpdateDescriptor`
  into a :class:`~repro.lexpress.descriptor.TargetUpdate`, applying the
  partitioning matrix and the Originator/conditional rule, and
* report per-rule attribute dependencies for closure analysis.

Mappings are written against *schema* names; a
:class:`MappingInstance` binds a mapping to concrete repository instances
(e.g. the same ``ldap_to_pbx`` mapping bound once per PBX, each with its
own partition constraint) — the reuse story of section 4.1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from .ast import AttrRef, MappingDecl, Span
from .bytecode import CodeObject
from .compiler import compile_expr
from .descriptor import (
    TargetAction,
    TargetUpdate,
    UpdateDescriptor,
    UpdateOp,
    normalize_attrs,
)
from .codegen import CompiledClosure, _CFrame, rule_cache
from .errors import LexpressCompileError
from .interpreter import execute, lower_attrs
from .parser import parse
from .partition import AlwaysTrue, PartitionConstraint, route


@dataclass(frozen=True)
class CompiledRule:
    """One ``map target = expr;`` rule, compiled."""

    target: str
    code: CodeObject
    #: Source position of the ``map`` statement (None for synthesized rules).
    span: "Span | None" = None
    #: The verified Python closure bound when the mapping was compiled;
    #: None when the verifier rejected the code (the interpreter runs it).
    closure: CompiledClosure | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def deps(self) -> frozenset[str]:
        return self.code.deps

    def evaluate(self, attrs: Mapping[str, Sequence[str]], value: Any = None):
        """Evaluate the rule against canonical (lower-keyed) *attrs*.

        The single rule-evaluation entry point: runs the bound closure,
        or the interpreter when there is none."""
        closure = self.closure
        if closure is None:
            return execute(self.code, attrs, value, canonical=True)
        return closure.fn(attrs, _CFrame(value))


def _bind(mapping: str, target: str, code: CodeObject, span) -> CompiledRule:
    """A rule with its closure from the process-wide compile memo."""
    closure = rule_cache().get_or_compile(code, mapping, target)
    return CompiledRule(target, code, span, closure)


def _as_values(result) -> list[str] | None:
    """Normalize an interpreter result into attribute values (or unset)."""
    if result is None:
        return None
    if isinstance(result, bool):
        return ["true" if result else "false"]
    if isinstance(result, list):
        return [str(v) for v in result] if result else None
    return [str(result)]


class CompiledMapping:
    """A compiled one-direction schema mapping."""

    def __init__(self, decl: MappingDecl):
        self.name = decl.name
        self.source = decl.source
        self.target = decl.target
        self.key_source = decl.key_source
        self.key_target = decl.key_target
        self.originator = decl.originator
        #: The declaration this mapping was compiled from, and the source
        #: text of the description it came from — retained for static
        #: analysis (span resolution and inline suppression comments).
        self.decl = decl
        self.source_text: str | None = None

        rules = [
            _bind(
                decl.name,
                r.target,
                compile_expr(r.expr, f"{decl.name}.{r.target}"),
                r.span,
            )
            for r in decl.rules
        ]
        # The key attribute must always be mapped; default to identity.
        if self.key_target is not None and not any(
            r.target.lower() == self.key_target.lower() for r in rules
        ):
            if self.key_source is None:
                raise LexpressCompileError(
                    f"mapping {self.name!r}: key target without key source"
                )
            rules.insert(
                0,
                _bind(
                    decl.name,
                    self.key_target,
                    compile_expr(
                        AttrRef(self.key_source), f"{decl.name}.{self.key_target}"
                    ),
                    decl.span,
                ),
            )
        self.rules: tuple[CompiledRule, ...] = tuple(rules)
        if decl.partition is not None:
            self.partition: PartitionConstraint = PartitionConstraint.from_expr(
                decl.partition, f"{decl.name}.partition"
            )
        else:
            self.partition = AlwaysTrue()

    # -- analysis ------------------------------------------------------------

    @property
    def deps(self) -> frozenset[str]:
        out: set[str] = set()
        for rule in self.rules:
            out.update(rule.deps)
        return frozenset(out)

    def rules_for(self, changed: frozenset[str]) -> list[CompiledRule]:
        """Rules whose dependencies intersect *changed* source attributes."""
        return [r for r in self.rules if r.deps & changed]

    def relevant(self, descriptor: UpdateDescriptor) -> bool:
        """Does this mapping care about the descriptor at all?"""
        if descriptor.op is not UpdateOp.MODIFY:
            return True
        return bool(self.rules_for(descriptor.changed_attributes()))

    # -- evaluation ------------------------------------------------------------

    def image(
        self, attrs: Mapping[str, Sequence[str]] | None
    ) -> dict[str, list[str]] | None:
        """Full target-schema image of a source record (None in, None out)."""
        if attrs is None:
            return None
        attrs = normalize_attrs(attrs) or {}
        low = lower_attrs(attrs)
        out: dict[str, list[str]] = {}
        for rule in self.rules:
            values = _as_values(rule.evaluate(low))
            if values is not None:
                out[rule.target] = values
        self._key_fallback(out, attrs)
        return out

    def _key_fallback(
        self, image: dict[str, list[str]], attrs: Mapping[str, list[str]]
    ) -> None:
        """The `key src -> tgt` declaration is itself an identity
        correspondence: when no rule produced the target key (e.g. a
        transformed key rule saw only nulls), fall back to it directly."""
        if (
            self.key_target is None
            or self.key_source is None
            or _lookup(image, self.key_target.lower()) is not None
        ):
            return
        for name, values in attrs.items():
            if name.lower() == self.key_source.lower() and values:
                image[self.key_target] = [str(values[0])]
                return

    def _dual_images(
        self,
        old_attrs: dict[str, list[str]],
        new_attrs: dict[str, list[str]],
        changed: frozenset[str],
    ) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
        """Old and new target images for a modify, evaluating rules whose
        dependencies did not change only once (identical inputs produce
        identical outputs) — the payoff of dependency analysis."""
        old_n = normalize_attrs(old_attrs) or {}
        new_n = normalize_attrs(new_attrs) or {}
        old_low = lower_attrs(old_n)
        new_low = lower_attrs(new_n)
        old_image: dict[str, list[str]] = {}
        new_image: dict[str, list[str]] = {}
        for rule in self.rules:
            old_values = _as_values(rule.evaluate(old_low))
            if rule.deps & changed:
                new_values = _as_values(rule.evaluate(new_low))
            else:
                new_values = list(old_values) if old_values is not None else None
            if old_values is not None:
                old_image[rule.target] = old_values
            if new_values is not None:
                new_image[rule.target] = new_values
        self._key_fallback(old_image, old_n)
        self._key_fallback(new_image, new_n)
        return old_image, new_image

    def key_of(self, image: Mapping[str, Sequence[str]] | None) -> str | None:
        if image is None or self.key_target is None:
            return None
        for name, values in image.items():
            if name.lower() == self.key_target.lower() and values:
                return str(values[0])
        return None

    # -- translation ------------------------------------------------------------

    def translate(
        self,
        descriptor: UpdateDescriptor,
        extra_partition: PartitionConstraint | None = None,
        target_name: str | None = None,
    ) -> TargetUpdate | None:
        """Translate *descriptor* into an update against this mapping's target.

        Returns None when the mapping is irrelevant to the change (a modify
        that touches none of the mapped attributes).
        """
        if descriptor.source.lower() != self.source.lower():
            raise LexpressCompileError(
                f"mapping {self.name!r} translates from {self.source!r}, "
                f"got a descriptor from {descriptor.source!r}"
            )
        if not self.relevant(descriptor):
            return None

        target = target_name or self.target
        if descriptor.op is UpdateOp.MODIFY:
            old_image, new_image = self._dual_images(
                descriptor.old or {},
                descriptor.new or {},
                descriptor.changed_attributes(),
            )
        else:
            old_image = self.image(descriptor.old)
            new_image = self.image(descriptor.new)

        old_sat = self.partition.satisfied_by(old_image)
        new_sat = self.partition.satisfied_by(new_image)
        if extra_partition is not None:
            old_sat = old_sat and extra_partition.satisfied_by(old_image)
            new_sat = new_sat and extra_partition.satisfied_by(new_image)

        action = route(old_sat, new_sat)
        old_key = self.key_of(old_image)
        new_key = self.key_of(new_image)

        changed: dict[str, list[str]] = {}
        removed: list[str] = []
        if action is TargetAction.MODIFY:
            names = {n.lower() for n in (old_image or {})} | {
                n.lower() for n in (new_image or {})
            }
            for name in sorted(names):
                old_values = _lookup(old_image, name)
                new_values = _lookup(new_image, name)
                if old_values == new_values:
                    continue
                if new_values is None:
                    removed.append(_spelling(old_image, name))
                else:
                    changed[_spelling(new_image, name)] = new_values
            if not changed and not removed and old_key == new_key:
                action = TargetAction.SKIP

        conditional = self._is_conditional(descriptor, target)
        return TargetUpdate(
            action=action,
            target=target,
            key=new_key if action is not TargetAction.DELETE else old_key,
            old_key=old_key,
            key_attribute=self.key_target,
            attributes=dict(new_image or {}),
            old_attributes=dict(old_image or {}),
            changed=changed,
            removed=tuple(removed),
            conditional=conditional,
            mapping=self.name,
        )

    def _is_conditional(self, descriptor: UpdateDescriptor, target: str) -> bool:
        """Section 5.4: the update is headed back to where it came from."""
        if descriptor.origin is not None and descriptor.origin.lower() == target.lower():
            return True
        if self.originator is None:
            return False
        record = descriptor.new if descriptor.new is not None else descriptor.old
        if record is None:
            return False
        for name, values in record.items():
            if name.lower() == self.originator.lower() and values:
                return str(values[0]).lower() == target.lower()
        return False


def _lookup(image: dict[str, list[str]] | None, lower_name: str) -> list[str] | None:
    if not image:
        return None
    for name, values in image.items():
        if name.lower() == lower_name:
            return values
    return None


def _spelling(image: dict[str, list[str]] | None, lower_name: str) -> str:
    if image:
        for name in image:
            if name.lower() == lower_name:
                return name
    return lower_name


@dataclass
class MappingInstance:
    """A mapping bound to concrete repository instances.

    ``source_repo``/``target_repo`` are instance names (``pbx-west``), the
    mapping's own source/target are schema names (``pbx``).  The optional
    ``partition`` narrows the instance further (each PBX manages its own
    extension prefix)."""

    mapping: CompiledMapping
    source_repo: str
    target_repo: str
    partition: PartitionConstraint | None = None

    def translate(self, descriptor: UpdateDescriptor) -> TargetUpdate | None:
        return self.mapping.translate(
            descriptor, extra_partition=self.partition, target_name=self.target_repo
        )


def compile_description(source: str) -> dict[str, CompiledMapping]:
    """Compile a lexpress description file into its mappings by name.

    "Descriptions for new sources ... can be added dynamically (to running
    programs) by compiling them at run-time" — this function is that
    entry point."""
    description = parse(source)
    out: dict[str, CompiledMapping] = {}
    for decl in description.mappings:
        if decl.name in out:
            raise LexpressCompileError(f"duplicate mapping name {decl.name!r}")
        mapping = CompiledMapping(decl)
        mapping.source_text = source
        out[decl.name] = mapping
    return out


def compile_mapping(source: str) -> CompiledMapping:
    """Compile a description expected to hold exactly one mapping."""
    mappings = compile_description(source)
    if len(mappings) != 1:
        raise LexpressCompileError(
            f"expected exactly one mapping, found {len(mappings)}"
        )
    return next(iter(mappings.values()))
