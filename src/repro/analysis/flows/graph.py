"""Whole-program import graph + per-module symbol/call summaries.

One :class:`ModuleSummary` per file, produced by a single AST walk and
serialisable to JSON, so the whole pass is **incremental**: summaries
are cached keyed by the file's blake2b digest and a warm
``repro lint --flows`` run parses only the files that changed since the
last one (usually none — the rules then run over cached summaries).

The summary records exactly what the flow rules consume:

* **imports** — every ``import``/``from`` edge, resolved to an absolute
  dotted target (relative imports are resolved against the module's
  package at parse time), tagged ``lazy`` when it sits inside a
  function/lambda or a ``TYPE_CHECKING`` block;
* **aliases** — local name -> dotted target, the per-module symbol
  table that call/attribute resolution walks (re-export chains are
  followed across modules, bounded);
* **functions / classes** — signatures (parameter order + default
  reprs), call sites with plain-name argument mapping, attribute reads
  ``(base, attr, line)``, and **writes** to names that are not local to
  the function (the worker-purity rule's raw material);
* **spec registrations** — ``register(ExperimentSpec(...))`` call
  sites with their keyword expressions (the cache-key and drift rules'
  anchor);
* **worker entries** — the first argument of ``<pool>.submit(f, ...)``
  calls;
* **suppressions** — the file's parsed ``# simlint: disable`` table, so
  flow findings honour the same pragma contract as per-file rules even
  when the summary came from the cache.

Module names derive from the package root (the topmost ancestor chain
of ``__init__.py`` files), so ``src/repro/core/broker.py`` summarises
as ``repro.core.broker`` and a fixture tree rooted anywhere does the
same — the layer map keys on dotted names, not filesystem location.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import (Any, Dict, Iterable, List, Optional, Sequence, Set,
                    Tuple)

from ..engine import _parse_suppressions, _Suppressions

__all__ = [
    "CallSite",
    "ClassSummary",
    "FLOWS_FORMAT",
    "FlowStats",
    "FunctionSummary",
    "ImportEdge",
    "ModuleSummary",
    "ProgramGraph",
    "SpecReg",
    "WriteSite",
    "build_graph",
    "module_name_for",
    "summarize_source",
]

#: Bump when the summary schema changes: cached entries then miss.
FLOWS_FORMAT = 1

#: Alias chains (re-exports) are followed at most this many hops.
_MAX_ALIAS_HOPS = 6


# ---------------------------------------------------------------------------
# summary dataclasses (all JSON round-trippable)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ImportEdge:
    """One import statement binding, resolved to an absolute target."""

    target: str          #: dotted module as written/resolved ("repro.net")
    symbol: str          #: bound name for ``from X import s`` ("" = module)
    line: int
    lazy: bool           #: inside a function/lambda or TYPE_CHECKING block

    def to_dict(self) -> Dict[str, Any]:
        return {"target": self.target, "symbol": self.symbol,
                "line": self.line, "lazy": self.lazy}


@dataclass(frozen=True)
class CallSite:
    """One call expression with its plain-name argument mapping."""

    callee: str                       #: dotted callee expr ("helper.run")
    line: int
    args: Tuple[Optional[str], ...]   #: positional args that are bare names
    kwargs: Tuple[Tuple[str, Optional[str]], ...]

    def to_dict(self) -> Dict[str, Any]:
        return {"callee": self.callee, "line": self.line,
                "args": list(self.args),
                "kwargs": [list(kv) for kv in self.kwargs]}


@dataclass(frozen=True)
class WriteSite:
    """A write through a name that is not local to the function."""

    base: str    #: the written-through name ("CACHE", "Environment")
    attr: str    #: attribute for setattr writes ("" for item/method writes)
    line: int
    kind: str    #: "rebind" (global X; X=) | "setattr" | "mutate"

    def to_dict(self) -> Dict[str, Any]:
        return {"base": self.base, "attr": self.attr,
                "line": self.line, "kind": self.kind}


@dataclass
class FunctionSummary:
    """Signature + body facts for one function or method."""

    name: str                       #: qualname in module ("Cls.meth")
    line: int
    params: List[str] = field(default_factory=list)
    defaults: Dict[str, str] = field(default_factory=dict)
    kwonly: List[str] = field(default_factory=list)
    has_vararg: bool = False
    has_kwarg: bool = False
    decorators: List[str] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)
    attr_reads: List[Tuple[str, str, int]] = field(default_factory=list)
    writes: List[WriteSite] = field(default_factory=list)
    #: function-level import bindings (lazy imports): name -> dotted.
    local_aliases: Dict[str, str] = field(default_factory=dict)

    @property
    def required_params(self) -> List[str]:
        return [p for p in self.params if p not in self.defaults]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name, "line": self.line, "params": self.params,
            "defaults": self.defaults, "kwonly": self.kwonly,
            "has_vararg": self.has_vararg, "has_kwarg": self.has_kwarg,
            "decorators": self.decorators,
            "calls": [c.to_dict() for c in self.calls],
            "attr_reads": [list(r) for r in self.attr_reads],
            "writes": [w.to_dict() for w in self.writes],
            "local_aliases": self.local_aliases,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FunctionSummary":
        return cls(
            name=data["name"], line=data["line"], params=data["params"],
            defaults=data["defaults"], kwonly=data["kwonly"],
            has_vararg=data["has_vararg"], has_kwarg=data["has_kwarg"],
            decorators=data["decorators"],
            calls=[CallSite(c["callee"], c["line"], tuple(c["args"]),
                            tuple((k, v) for k, v in c["kwargs"]))
                   for c in data["calls"]],
            attr_reads=[(r[0], r[1], r[2]) for r in data["attr_reads"]],
            writes=[WriteSite(w["base"], w["attr"], w["line"], w["kind"])
                    for w in data["writes"]],
            local_aliases=data["local_aliases"],
        )


@dataclass
class ClassSummary:
    """One class: bases, methods, class attrs, annotated fields."""

    name: str
    line: int
    bases: List[str] = field(default_factory=list)
    decorators: List[str] = field(default_factory=list)
    methods: Dict[str, FunctionSummary] = field(default_factory=dict)
    #: simple class-level assignments, name -> source expression.
    class_attrs: Dict[str, str] = field(default_factory=dict)
    #: annotated assignments (dataclass fields), name -> annotation.
    fields: Dict[str, str] = field(default_factory=dict)

    @property
    def is_dataclass(self) -> bool:
        return any("dataclass" in d for d in self.decorators)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name, "line": self.line, "bases": self.bases,
            "decorators": self.decorators,
            "methods": {k: m.to_dict() for k, m in self.methods.items()},
            "class_attrs": self.class_attrs, "fields": self.fields,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ClassSummary":
        return cls(
            name=data["name"], line=data["line"], bases=data["bases"],
            decorators=data["decorators"],
            methods={k: FunctionSummary.from_dict(m)
                     for k, m in data["methods"].items()},
            class_attrs=data["class_attrs"], fields=data["fields"],
        )


@dataclass(frozen=True)
class SpecReg:
    """A ``register(ExperimentSpec(...))`` site (keyword -> name expr)."""

    line: int
    kwargs: Tuple[Tuple[str, str], ...]

    def kwarg(self, name: str) -> str:
        for key, value in self.kwargs:
            if key == name:
                return value
        return ""

    def to_dict(self) -> Dict[str, Any]:
        return {"line": self.line,
                "kwargs": [list(kv) for kv in self.kwargs]}


@dataclass
class ModuleSummary:
    """Everything the flow rules need to know about one file."""

    module: str
    path: str          #: absolute path
    relpath: str       #: path as reported in findings
    digest: str
    imports: List[ImportEdge] = field(default_factory=list)
    aliases: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    classes: Dict[str, ClassSummary] = field(default_factory=dict)
    #: top-level assignments, name -> "mutable" | "other".
    module_globals: Dict[str, str] = field(default_factory=dict)
    spec_regs: List[SpecReg] = field(default_factory=list)
    #: raw first-arg names of pool ``.submit`` calls.
    worker_entries: List[Tuple[str, int]] = field(default_factory=list)
    suppressions: _Suppressions = field(default_factory=_Suppressions)
    syntax_error: Optional[Tuple[int, int, str]] = None

    def all_functions(self) -> Iterable[FunctionSummary]:
        yield from self.functions.values()
        for klass in self.classes.values():
            yield from klass.methods.values()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "module": self.module, "path": self.path,
            "relpath": self.relpath, "digest": self.digest,
            "imports": [e.to_dict() for e in self.imports],
            "aliases": self.aliases,
            "functions": {k: f.to_dict()
                          for k, f in self.functions.items()},
            "classes": {k: c.to_dict() for k, c in self.classes.items()},
            "module_globals": self.module_globals,
            "spec_regs": [s.to_dict() for s in self.spec_regs],
            "worker_entries": [list(w) for w in self.worker_entries],
            "suppressions": {
                "file_level": sorted(self.suppressions.file_level),
                "by_line": {str(k): sorted(v)
                            for k, v in self.suppressions.by_line.items()},
                "directives": [list(d) for d in self.suppressions.directives],
            },
            "syntax_error": (list(self.syntax_error)
                             if self.syntax_error else None),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ModuleSummary":
        sup = _Suppressions(
            file_level=set(data["suppressions"]["file_level"]),
            by_line={int(k): set(v)
                     for k, v in data["suppressions"]["by_line"].items()},
            directives=[(d[0], d[1], tuple(d[2]))
                        for d in data["suppressions"]["directives"]])
        err = data.get("syntax_error")
        return cls(
            module=data["module"], path=data["path"],
            relpath=data["relpath"], digest=data["digest"],
            imports=[ImportEdge(e["target"], e["symbol"], e["line"],
                                e["lazy"]) for e in data["imports"]],
            aliases=data["aliases"],
            functions={k: FunctionSummary.from_dict(f)
                       for k, f in data["functions"].items()},
            classes={k: ClassSummary.from_dict(c)
                     for k, c in data["classes"].items()},
            module_globals=data["module_globals"],
            spec_regs=[SpecReg(s["line"],
                               tuple((k, v) for k, v in s["kwargs"]))
                       for s in data["spec_regs"]],
            worker_entries=[(w[0], w[1]) for w in data["worker_entries"]],
            suppressions=sup,
            syntax_error=(err[0], err[1], err[2]) if err else None,
        )


# ---------------------------------------------------------------------------
# module naming
# ---------------------------------------------------------------------------
def _package_root(path: str) -> str:
    """Topmost directory whose chain down to ``path`` is all packages."""
    directory = os.path.dirname(os.path.abspath(path))
    while os.path.exists(os.path.join(directory, "__init__.py")):
        parent = os.path.dirname(directory)
        if parent == directory:
            break
        directory = parent
    return directory


def module_name_for(path: str) -> str:
    """Dotted module name of ``path`` relative to its package root."""
    root = _package_root(path)
    rel = os.path.relpath(os.path.abspath(path), root)
    parts = rel.replace(os.sep, "/").split("/")
    parts[-1] = parts[-1][:-len(".py")]
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts) if parts else os.path.basename(root)


def _containing_package(module: str, is_init: bool) -> List[str]:
    parts = module.split(".")
    return parts if is_init else parts[:-1]


# ---------------------------------------------------------------------------
# the summariser
# ---------------------------------------------------------------------------
def _dotted(node: ast.AST) -> str:
    """Flatten Name/Attribute chains ("a.b.c"); "" when not a chain."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _factory_name(node: ast.AST) -> str:
    """Value expr of a spec kwarg: name, ``lambda: X(...)``, or literal."""
    if isinstance(node, ast.Lambda) and isinstance(node.body, ast.Call):
        return _dotted(node.body.func)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return _dotted(node)


#: Mutating container/obj methods treated as writes to the receiver.
_MUTATORS = frozenset({
    "append", "add", "update", "setdefault", "extend", "insert",
    "remove", "discard", "clear", "pop", "popitem", "appendleft",
})

_MUTABLE_CTORS = frozenset({"dict", "list", "set", "defaultdict",
                            "OrderedDict", "deque", "Counter"})


class _Summarizer(ast.NodeVisitor):
    """One-pass walker building a :class:`ModuleSummary`."""

    def __init__(self, summary: ModuleSummary, package: List[str]) -> None:
        self.s = summary
        self.package = package
        self.func_stack: List[FunctionSummary] = []
        self.class_stack: List[ClassSummary] = []
        self.local_stack: List[Set[str]] = []
        self.type_checking_depth = 0

    # -- imports ---------------------------------------------------------
    def _add_alias(self, name: str, target: str) -> None:
        # A function-local import binds a *shared* object (module or
        # class), not function-local state: record the alias but keep
        # the name out of the locals set so writes through it are still
        # seen as writes to shared state.
        if self.func_stack:
            self.func_stack[-1].local_aliases[name] = target
        elif not self.class_stack:
            self.s.aliases[name] = target

    def _lazy(self) -> bool:
        return bool(self.func_stack) or self.type_checking_depth > 0

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.s.imports.append(ImportEdge(
                target=alias.name, symbol="", line=node.lineno,
                lazy=self._lazy()))
            bound = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else alias.name.split(".")[0]
            self._add_alias(bound, target)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level:
            base = self.package[:len(self.package) - (node.level - 1)]
            module = ".".join(base + ([node.module] if node.module else []))
        else:
            module = node.module or ""
        for alias in node.names:
            if alias.name == "*":
                self.s.imports.append(ImportEdge(
                    target=module, symbol="*", line=node.lineno,
                    lazy=self._lazy()))
                continue
            self.s.imports.append(ImportEdge(
                target=module, symbol=alias.name, line=node.lineno,
                lazy=self._lazy()))
            self._add_alias(alias.asname or alias.name,
                            f"{module}.{alias.name}")

    # -- TYPE_CHECKING blocks are typing-only (treated as lazy) ----------
    def visit_If(self, node: ast.If) -> None:
        test = _dotted(node.test)
        if test in ("TYPE_CHECKING", "typing.TYPE_CHECKING"):
            self.type_checking_depth += 1
            for child in node.body:
                self.visit(child)
            self.type_checking_depth -= 1
            for child in node.orelse:
                self.visit(child)
            return
        self.generic_visit(node)

    # -- defs ------------------------------------------------------------
    def _signature(self, fn: FunctionSummary,
                   args: ast.arguments) -> None:
        positional = list(args.posonlyargs) + list(args.args)
        fn.params = [a.arg for a in positional]
        for param, default in zip(fn.params[len(fn.params)
                                            - len(args.defaults):],
                                  args.defaults):
            fn.defaults[param] = ast.unparse(default)
        fn.kwonly = [a.arg for a in args.kwonlyargs]
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                fn.defaults[arg.arg] = ast.unparse(default)
        fn.has_vararg = args.vararg is not None
        fn.has_kwarg = args.kwarg is not None

    def _visit_def(self, node: Any) -> None:
        qual = (f"{self.class_stack[-1].name}.{node.name}"
                if self.class_stack else node.name)
        fn = FunctionSummary(name=qual, line=node.lineno)
        fn.decorators = [_dotted(d) or ast.unparse(d)
                         for d in node.decorator_list]
        self._signature(fn, node.args)
        if self.class_stack and not self.func_stack:
            self.class_stack[-1].methods[node.name] = fn
        elif not self.func_stack:
            self.s.functions[node.name] = fn
        # Nested defs fold into the enclosing function's summary (their
        # bodies still contribute calls/reads/writes to it).
        target = self.func_stack[-1] if self.func_stack else fn
        locals_ = set(fn.params) | set(fn.kwonly)
        if node.args.vararg:
            locals_.add(node.args.vararg.arg)
        if node.args.kwarg:
            locals_.add(node.args.kwarg.arg)
        if self.func_stack:
            self.local_stack[-1].update(locals_)
            for child in node.body:
                self.visit(child)
            return
        self.func_stack.append(target)
        self.local_stack.append(locals_)
        for child in node.body:
            self.visit(child)
        self.local_stack.pop()
        self.func_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_def(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_def(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self.func_stack:  # function-local class: opaque
            self.generic_visit(node)
            return
        klass = ClassSummary(name=node.name, line=node.lineno)
        klass.bases = [_dotted(b) for b in node.bases if _dotted(b)]
        klass.decorators = [_dotted(d) or ast.unparse(d)
                            for d in node.decorator_list]
        self.s.classes[node.name] = klass
        self.class_stack.append(klass)
        for child in node.body:
            if isinstance(child, ast.AnnAssign) and isinstance(
                    child.target, ast.Name):
                klass.fields[child.target.id] = ast.unparse(
                    child.annotation)
            elif isinstance(child, ast.Assign):
                for target in child.targets:
                    if isinstance(target, ast.Name):
                        klass.class_attrs[target.id] = ast.unparse(
                            child.value)
            self.visit(child)
        self.class_stack.pop()

    # -- module globals --------------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        if not self.func_stack and not self.class_stack:
            kind = self._value_kind(node.value)
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.s.module_globals[target.id] = kind
        self._check_write_target(node)
        if self.func_stack:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.local_stack[-1].add(target.id)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if (not self.func_stack and not self.class_stack
                and isinstance(node.target, ast.Name)
                and node.value is not None):
            self.s.module_globals[node.target.id] = self._value_kind(
                node.value)
        self._check_write_target(node)
        if self.func_stack and isinstance(node.target, ast.Name):
            self.local_stack[-1].add(node.target.id)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_write_target(node)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        if self.func_stack:
            for name in ast.walk(node.target):
                if isinstance(name, ast.Name):
                    self.local_stack[-1].add(name.id)
        self.generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        if self.func_stack:
            for item in node.items:
                if item.optional_vars is not None:
                    for name in ast.walk(item.optional_vars):
                        if isinstance(name, ast.Name):
                            self.local_stack[-1].add(name.id)
        self.generic_visit(node)

    @staticmethod
    def _value_kind(value: ast.AST) -> str:
        if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.ListComp,
                              ast.DictComp, ast.SetComp)):
            return "mutable"
        if isinstance(value, ast.Call):
            name = _dotted(value.func).split(".")[-1]
            if name in _MUTABLE_CTORS:
                return "mutable"
        return "other"

    def visit_Global(self, node: ast.Global) -> None:
        if self.func_stack:
            fn = self.func_stack[-1]
            for name in node.names:
                fn.writes.append(WriteSite(
                    base=name, attr="", line=node.lineno, kind="rebind"))

    def _check_write_target(self, node: Any) -> None:
        """Record ``X[...] = v`` / ``X.attr = v`` with non-local ``X``."""
        if not self.func_stack:
            return
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target])
        fn = self.func_stack[-1]
        for target in targets:
            if isinstance(target, ast.Subscript) and isinstance(
                    target.value, ast.Name):
                base = target.value.id
                if not self._is_local(base):
                    fn.writes.append(WriteSite(
                        base=base, attr="", line=target.lineno,
                        kind="mutate"))
            elif isinstance(target, ast.Attribute):
                base = _dotted(target.value)
                root = base.split(".")[0] if base else ""
                if root and root not in ("self", "cls") and \
                        not self._is_local(root):
                    fn.writes.append(WriteSite(
                        base=base, attr=target.attr, line=target.lineno,
                        kind="setattr"))

    def _is_local(self, name: str) -> bool:
        return bool(self.local_stack) and name in self.local_stack[-1]

    # -- calls / reads ---------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        callee = _dotted(node.func)
        if self.func_stack and callee:
            fn = self.func_stack[-1]
            fn.calls.append(CallSite(
                callee=callee, line=node.lineno,
                args=tuple(a.id if isinstance(a, ast.Name) else None
                           for a in node.args),
                kwargs=tuple(
                    (kw.arg, kw.value.id
                     if isinstance(kw.value, ast.Name) else None)
                    for kw in node.keywords if kw.arg is not None)))
            # Mutating method on a non-local receiver: CACHE.append(...)
            if "." in callee:
                base, method = callee.rsplit(".", 1)
                root = base.split(".")[0]
                if (method in _MUTATORS and root not in ("self", "cls")
                        and not self._is_local(root)):
                    fn.writes.append(WriteSite(
                        base=base, attr="", line=node.lineno,
                        kind="mutate"))
        # Worker-entry detection: pool.submit(f, ...)
        leaf = callee.split(".")[-1] if callee else ""
        if leaf == "submit" and node.args and \
                isinstance(node.args[0], ast.Name):
            self.s.worker_entries.append(
                (node.args[0].id, node.lineno))
        # Spec registration: register(ExperimentSpec(...))
        if leaf == "register" and len(node.args) == 1 and isinstance(
                node.args[0], ast.Call):
            inner = node.args[0]
            if _dotted(inner.func).split(".")[-1] == "ExperimentSpec":
                self.s.spec_regs.append(SpecReg(
                    line=node.lineno,
                    kwargs=tuple(
                        (kw.arg, _factory_name(kw.value))
                        for kw in inner.keywords if kw.arg is not None)))
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if self.func_stack and isinstance(node.ctx, ast.Load) and \
                isinstance(node.value, ast.Name):
            self.func_stack[-1].attr_reads.append(
                (node.value.id, node.attr, node.lineno))
        self.generic_visit(node)


def summarize_source(source: str, path: str, relpath: str,
                     digest: str = "") -> ModuleSummary:
    """Build one module's summary (syntax errors become a marker)."""
    module = module_name_for(path)
    summary = ModuleSummary(module=module, path=os.path.abspath(path),
                            relpath=relpath, digest=digest)
    summary.suppressions = _parse_suppressions(source.splitlines())
    try:
        tree = ast.parse(source, filename=relpath)
    except SyntaxError as exc:
        summary.syntax_error = (exc.lineno or 1, exc.offset or 0,
                                exc.msg or "invalid syntax")
        return summary
    is_init = os.path.basename(path) == "__init__.py"
    package = _containing_package(module, is_init)
    _Summarizer(summary, package).visit(tree)
    return summary


# ---------------------------------------------------------------------------
# the linked graph
# ---------------------------------------------------------------------------
@dataclass
class FlowStats:
    """How the graph was built (surfaced on stderr and in tests)."""

    files: int = 0
    parsed: int = 0
    cached: int = 0
    elapsed: float = 0.0

    def describe(self) -> str:
        return (f"flows: {self.files} modules ({self.parsed} parsed, "
                f"{self.cached} from cache) in {self.elapsed:.3f}s")


class ProgramGraph:
    """All module summaries, linked for cross-module resolution."""

    def __init__(self, summaries: Sequence[ModuleSummary]) -> None:
        self.modules: Dict[str, ModuleSummary] = {}
        for summary in summaries:
            self.modules[summary.module] = summary
        self.order: List[str] = sorted(self.modules)

    # -- lookups ---------------------------------------------------------
    def module(self, name: str) -> Optional[ModuleSummary]:
        return self.modules.get(name)

    def summaries(self) -> Iterable[ModuleSummary]:
        for name in self.order:
            yield self.modules[name]

    def has_module(self, dotted: str) -> bool:
        return dotted in self.modules

    def _split_symbol(self, dotted: str) -> Tuple[Optional[str], str]:
        """Split ``a.b.c`` into (module, symbol-path) against the universe."""
        parts = dotted.split(".")
        for i in range(len(parts), 0, -1):
            candidate = ".".join(parts[:i])
            if candidate in self.modules:
                return candidate, ".".join(parts[i:])
        return None, dotted

    def resolve(self, module: str, name: str,
                local_aliases: Optional[Dict[str, str]] = None,
                _hops: int = 0) -> Optional[Tuple[str, str]]:
        """Resolve a dotted name to ``(module, symbol)`` in the universe.

        ``symbol`` may itself be dotted ("Class.method") or "" when the
        name resolves to a module.  Follows re-export chains (``from .x
        import f`` in an ``__init__``) up to :data:`_MAX_ALIAS_HOPS`.
        """
        if _hops > _MAX_ALIAS_HOPS:
            return None
        summary = self.modules.get(module)
        if summary is None:
            return None
        head, _, rest = name.partition(".")
        # Local (function-level) aliases shadow module-level ones.
        target = None
        if local_aliases and head in local_aliases:
            target = local_aliases[head]
        elif head in summary.aliases:
            target = summary.aliases[head]
        if target is None:
            if head in summary.functions or head in summary.classes or \
                    head in summary.module_globals:
                symbol = head + (f".{rest}" if rest else "")
                return module, symbol
            return None
        dotted = target + (f".{rest}" if rest else "")
        target_module, symbol = self._split_symbol(dotted)
        if target_module is None:
            return None
        if not symbol:
            return target_module, ""
        target_summary = self.modules[target_module]
        head2 = symbol.split(".")[0]
        if head2 in target_summary.functions or \
                head2 in target_summary.classes or \
                head2 in target_summary.module_globals:
            return target_module, symbol
        # Re-exported: chase the alias in the target module.
        return self.resolve(target_module, symbol, _hops=_hops + 1)

    def find_function(self, module: str, name: str,
                      local_aliases: Optional[Dict[str, str]] = None,
                      ) -> Optional[Tuple[ModuleSummary, FunctionSummary]]:
        """Resolve a callee name to its :class:`FunctionSummary`."""
        resolved = self.resolve(module, name, local_aliases)
        if resolved is None:
            return None
        mod_name, symbol = resolved
        summary = self.modules[mod_name]
        if not symbol:
            return None
        parts = symbol.split(".")
        if len(parts) == 1:
            fn = summary.functions.get(parts[0])
            return (summary, fn) if fn is not None else None
        if len(parts) == 2 and parts[0] in summary.classes:
            fn = summary.classes[parts[0]].methods.get(parts[1])
            return (summary, fn) if fn is not None else None
        return None

    def find_class(self, module: str, name: str,
                   ) -> Optional[Tuple[ModuleSummary, ClassSummary]]:
        resolved = self.resolve(module, name)
        if resolved is None:
            return None
        mod_name, symbol = resolved
        summary = self.modules[mod_name]
        if symbol and symbol in summary.classes:
            return summary, summary.classes[symbol]
        return None

    def mro(self, module: str, class_name: str,
            limit: int = 12) -> List[Tuple[ModuleSummary, ClassSummary]]:
        """The in-universe base-class chain (C3 not needed: linear walk)."""
        out: List[Tuple[ModuleSummary, ClassSummary]] = []
        queue: List[Tuple[str, str]] = [(module, class_name)]
        seen: Set[Tuple[str, str]] = set()
        while queue and len(out) < limit:
            mod, name = queue.pop(0)
            if (mod, name) in seen:
                continue
            seen.add((mod, name))
            found = self.find_class(mod, name)
            if found is None:
                continue
            summary, klass = found
            out.append((summary, klass))
            for base in klass.bases:
                queue.append((summary.module, base))
        return out


# ---------------------------------------------------------------------------
# building (with the incremental cache)
# ---------------------------------------------------------------------------
def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def _load_cache(cache_path: Optional[str]) -> Dict[str, Any]:
    if not cache_path or not os.path.exists(cache_path):
        return {}
    try:
        with open(cache_path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return {}
    if not isinstance(data, dict) or data.get("format") != FLOWS_FORMAT:
        return {}
    files = data.get("files")
    return files if isinstance(files, dict) else {}


def _store_cache(cache_path: Optional[str],
                 entries: Dict[str, Any]) -> None:
    if not cache_path:
        return
    payload = {"format": FLOWS_FORMAT, "files": entries}
    tmp = f"{cache_path}.tmp.{os.getpid()}"
    try:
        os.makedirs(os.path.dirname(os.path.abspath(cache_path)),
                    exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
        os.replace(tmp, cache_path)
    except OSError:
        # The cache is an accelerator, never a correctness dependency.
        try:
            os.remove(tmp)
        except OSError:
            pass


def build_graph(files: Sequence[str], root: Optional[str] = None,
                cache_path: Optional[str] = None,
                ) -> Tuple[ProgramGraph, FlowStats]:
    """Parse (or cache-load) every file and link the program graph."""
    t0 = time.perf_counter()
    cache = _load_cache(cache_path)
    next_cache: Dict[str, Any] = {}
    summaries: List[ModuleSummary] = []
    stats = FlowStats(files=len(files))
    for path in files:
        abspath = os.path.abspath(path)
        relpath = os.path.relpath(path, root) if root else path
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError:
            continue
        digest = _digest(raw)
        entry = cache.get(abspath)
        if entry and entry.get("digest") == digest:
            try:
                summary = ModuleSummary.from_dict(entry["summary"])
                summary.relpath = relpath  # root may differ between runs
                summaries.append(summary)
                next_cache[abspath] = entry
                stats.cached += 1
                continue
            except (KeyError, TypeError, ValueError):
                pass  # corrupted entry: fall through to a fresh parse
        summary = summarize_source(raw.decode("utf-8", "replace"),
                                   abspath, relpath, digest)
        summaries.append(summary)
        next_cache[abspath] = {"digest": digest,
                               "summary": summary.to_dict()}
        stats.parsed += 1
    _store_cache(cache_path, next_cache)
    graph = ProgramGraph(summaries)
    stats.elapsed = time.perf_counter() - t0
    return graph, stats
