"""Bounded intraproject call graph behind RL001's order taint.

The graph is built from the :class:`~repro.devtools.lint.framework.ModuleSource`
objects a rule's ``check_project`` receives, so it sees exactly the
modules in scope -- nothing is imported or executed.  Resolution is
deliberately bounded:

* a bare-name call resolves to a function/class in the same module or
  through the module's ``import``/``from ... import`` table (relative
  imports are resolved against the module key, absolute ``repro.``
  imports are stripped to the same package-relative namespace);
* ``self.method(...)`` resolves within the owning class;
* ``receiver.method(...)`` resolves by *unique method name* across
  every scanned class -- when several classes define the name, all
  candidates are returned and callers union their summaries.

A name outside the scanned set resolves to its :class:`ImportEntry`
(or to nothing); RL001's own vocabulary covers the stdlib's set-like
calls.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..lint.framework import ModuleSource

__all__ = [
    "CallGraph",
    "ClassInfo",
    "FunctionInfo",
    "ImportEntry",
    "module_name",
]

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def module_name(module: ModuleSource) -> str:
    """Dotted package-relative module name (``core.solver``)."""
    parts = list(module.module_key)
    if not parts:
        return ""
    last = parts[-1]
    if last.endswith(".py"):
        last = last[:-3]
    if last == "__init__":
        parts = parts[:-1]
    else:
        parts[-1] = last
    return ".".join(parts)


@dataclass(eq=False)
class ClassInfo:
    """One scanned class and its directly defined methods."""

    module: ModuleSource
    module_name: str
    node: ast.ClassDef
    methods: Dict[str, "FunctionInfo"] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.node.name


@dataclass(eq=False)
class FunctionInfo:
    """One scanned function or method."""

    module: ModuleSource
    module_name: str
    node: FunctionNode
    owner: Optional[ClassInfo] = None
    is_static: bool = False
    is_classmethod: bool = False

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def qualname(self) -> str:
        if self.owner is not None:
            return f"{self.module_name}:{self.owner.name}.{self.name}"
        return f"{self.module_name}:{self.name}"

    @property
    def params(self) -> Tuple[str, ...]:
        """Bindable parameter names, in positional order (kw-only last)."""
        args = self.node.args
        names = [a.arg for a in args.posonlyargs]
        names += [a.arg for a in args.args]
        names += [a.arg for a in args.kwonlyargs]
        return tuple(names)

    @property
    def positional_params(self) -> Tuple[str, ...]:
        args = self.node.args
        names = [a.arg for a in args.posonlyargs]
        names += [a.arg for a in args.args]
        return tuple(names)

    @property
    def self_param(self) -> Optional[str]:
        """The implicit-receiver parameter name, for bound methods."""
        if self.owner is None or self.is_static:
            return None
        positional = self.positional_params
        return positional[0] if positional else None


@dataclass(frozen=True)
class ImportEntry:
    """One name the module imported: where it came from."""

    target_module: str  # package-relative dotted name ("core.binding")
    symbol: Optional[str]  # None for `import x` module bindings
    internal: bool  # True when the target lives under the repro tree


class CallGraph:
    """Function/class index plus import-aware name resolution."""

    def __init__(self, modules: Sequence[ModuleSource]) -> None:
        self.modules: List[ModuleSource] = list(modules)
        self.module_names: Dict[str, ModuleSource] = {}
        self.functions: Dict[Tuple[str, str], FunctionInfo] = {}
        self.classes: Dict[Tuple[str, str], ClassInfo] = {}
        self.methods_by_name: Dict[str, List[FunctionInfo]] = {}
        self.imports: Dict[str, Dict[str, ImportEntry]] = {}
        for module in self.modules:
            self._index_module(module)

    # -- construction ---------------------------------------------------
    def _index_module(self, module: ModuleSource) -> None:
        modname = module_name(module)
        self.module_names[modname] = module
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = self._function_info(module, modname, node, None)
                self.functions[(modname, node.name)] = info
            elif isinstance(node, ast.ClassDef):
                cls = ClassInfo(module=module, module_name=modname, node=node)
                self.classes[(modname, node.name)] = cls
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        info = self._function_info(module, modname, item,
                                                   cls)
                        cls.methods[item.name] = info
                        self.methods_by_name.setdefault(
                            item.name, []
                        ).append(info)
        self.imports[modname] = self._import_table(module, modname)

    @staticmethod
    def _function_info(
        module: ModuleSource,
        modname: str,
        node: FunctionNode,
        owner: Optional[ClassInfo],
    ) -> FunctionInfo:
        decorators = {
            d.id for d in node.decorator_list if isinstance(d, ast.Name)
        }
        return FunctionInfo(
            module=module,
            module_name=modname,
            node=node,
            owner=owner,
            is_static="staticmethod" in decorators,
            is_classmethod="classmethod" in decorators,
        )

    def _import_table(
        self, module: ModuleSource, modname: str
    ) -> Dict[str, ImportEntry]:
        table: Dict[str, ImportEntry] = {}
        package = modname.split(".")[:-1] if modname else []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    target, internal = self._strip_repro(alias.name)
                    if alias.asname is not None:
                        table[alias.asname] = ImportEntry(
                            target, None, internal)
                    else:
                        top = alias.name.split(".")[0]
                        t, internal = self._strip_repro(top)
                        table[top] = ImportEntry(t, None, internal)
            elif isinstance(node, ast.ImportFrom):
                target = self._resolve_from(node, package)
                if target is None:
                    continue
                target_module, internal = target
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    table[alias.asname or alias.name] = ImportEntry(
                        target_module, alias.name, internal)
        return table

    @staticmethod
    def _strip_repro(name: str) -> Tuple[str, bool]:
        if name == "repro":
            return "", True
        if name.startswith("repro."):
            return name[len("repro."):], True
        return name, False

    @staticmethod
    def _resolve_from(
        node: ast.ImportFrom, package: List[str]
    ) -> Optional[Tuple[str, bool]]:
        if node.level == 0:
            target, internal = CallGraph._strip_repro(node.module or "")
            return target, internal
        # Relative import: level 1 is the current package, each extra
        # level climbs one parent.  A level that climbs past the scan
        # root still resolves (empty base) -- the scanned module keys
        # are already package-relative.
        climb = node.level - 1
        base = package[: len(package) - climb] if climb else list(package)
        if climb > len(package):
            base = []
        tail = node.module.split(".") if node.module else []
        return ".".join(base + tail), True

    # -- resolution -----------------------------------------------------
    def resolve_name(
        self, modname: str, name: str, _depth: int = 0
    ) -> Union[FunctionInfo, ClassInfo, ImportEntry, None]:
        """Resolve a bare name to a scanned function/class.

        Returns the :class:`ImportEntry` itself when the name is
        imported but its target is outside the scanned set (callers
        decide whether that is benign-external or incompleteness).
        Returns ``None`` for names with no import/definition at all.
        """
        if _depth > 4:
            return None
        found = self.functions.get((modname, name))
        if found is not None:
            return found
        cls = self.classes.get((modname, name))
        if cls is not None:
            return cls
        entry = self.imports.get(modname, {}).get(name)
        if entry is None:
            return None
        if entry.symbol is None:
            return entry  # a module object, not a callable
        if entry.target_module in self.module_names:
            resolved = self.resolve_name(
                entry.target_module, entry.symbol, _depth + 1)
            if resolved is not None:
                return resolved
        return entry

    def resolve_method(
        self, owner: Optional[ClassInfo], receiver_is_self: bool, name: str
    ) -> List[FunctionInfo]:
        """Candidate methods for a ``receiver.name(...)`` call."""
        if receiver_is_self and owner is not None:
            own = owner.methods.get(name)
            if own is not None:
                return [own]
        return list(self.methods_by_name.get(name, []))

    def all_functions(self) -> List[FunctionInfo]:
        """Every indexed function, in deterministic order."""
        out: List[FunctionInfo] = []
        for key in sorted(self.functions):
            out.append(self.functions[key])
        for key in sorted(self.classes):
            cls = self.classes[key]
            for mname in sorted(cls.methods):
                out.append(cls.methods[mname])
        return out
