"""Pickle-safety rules for process-pool boundary modules.

Shard builds run in worker processes: ``build_one_corpus`` arguments and
returns, the ``ReproError`` hierarchy, fault plans and store handles all
cross the pool boundary through ``pickle``.  PKL001–PKL003 apply only to
*boundary* modules — selected by the engine's
``boundary_globs`` configuration (by default ``repro/errors.py``,
``repro/core/builder.py`` and everything under ``repro/shard/``) or by
an explicit ``# repro-lint: boundary`` marker comment in the file.

* **PKL001** — a class defined inside a function pickles by qualified
  name, which the unpickling process cannot resolve: boundary classes
  must live at module (or class-body) level.
* **PKL002** — a lambda stored on an instance (``self.x = lambda …``)
  or as a dataclass field default makes every instance unpicklable;
  module-level functions pickle by reference.
* **PKL003** — an exception ``__init__`` that takes keyword-only or
  extra positional state breaks the default ``Exception`` reduction
  (which replays ``self.args`` only), so the class must define
  ``__reduce__`` (directly or via an in-module base).
* **PKL004** — ``pickle.load`` / ``pickle.loads`` in any module.  The
  artifact store (:mod:`repro.io.store`) is the only on-disk format, and
  it verifies every payload's sha256 before reading it; unpickling a
  file or byte string would bring back an unverified second format.
  Pickling in memory across the pool boundary is the executor's own
  business and is not flagged.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.module import ModuleInfo
from repro.analysis.rules import Rule, register

_REDUCERS = {"__reduce__", "__reduce_ex__", "__getstate__"}


def _class_methods(node: ast.ClassDef) -> dict[str, ast.FunctionDef]:
    return {
        item.name: item
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


@register
class LocalClassRule(Rule):
    rule_id = "PKL001"
    title = "function-local class in a boundary module"
    hint = (
        "move the class to module level so pickle can resolve it by "
        "qualified name in the worker process"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if not module.boundary:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if module.enclosing_function(node) is not None:
                yield self.finding(
                    module,
                    node,
                    f"class `{node.name}` is defined inside a function and "
                    "cannot cross the process-pool boundary",
                )


@register
class StoredLambdaRule(Rule):
    rule_id = "PKL002"
    title = "lambda stored in picklable state"
    hint = (
        "replace the lambda with a module-level function (pickles by "
        "reference) or make the attribute injectable and non-pickled"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if not module.boundary:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Lambda):
                continue
            context = self._storage_context(module, node)
            if context is not None:
                yield self.finding(
                    module,
                    node,
                    f"lambda stored {context} is not picklable",
                )

    def _storage_context(
        self, module: ModuleInfo, node: ast.Lambda
    ) -> str | None:
        parent = module.parent(node)
        # field(default=lambda ...) / field(default_factory=lambda ...)
        if isinstance(parent, ast.keyword) and parent.arg in (
            "default",
            "default_factory",
        ):
            call = module.parent(parent)
            if isinstance(call, ast.Call):
                qualified = module.resolve(call.func) or ""
                name = qualified.rpartition(".")[2] or (
                    call.func.id if isinstance(call.func, ast.Name) else ""
                )
                if name == "field":
                    return "as a dataclass field default"
        if isinstance(parent, (ast.Assign, ast.AnnAssign)):
            targets = (
                parent.targets
                if isinstance(parent, ast.Assign)
                else [parent.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    return f"on instance attribute `self.{target.attr}`"
            enclosing = module.parent(parent)
            if isinstance(enclosing, ast.ClassDef):
                return f"as a class attribute of `{enclosing.name}`"
        return None


@register
class ExceptionReduceRule(Rule):
    rule_id = "PKL003"
    title = "exception __init__ breaks default pickling"
    hint = (
        "define __reduce__ returning (rebuild_fn, state) — worker "
        "exceptions are pickled back to the parent by the pool"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if not module.boundary:
            return
        classes = {
            node.name: node
            for node in ast.walk(module.tree)
            if isinstance(node, ast.ClassDef)
        }
        for node in classes.values():
            if not self._looks_like_exception(node, classes):
                continue
            init = _class_methods(node).get("__init__")
            if init is None or not self._has_extra_state(init):
                continue
            if not self._defines_reducer(node, classes):
                yield self.finding(
                    module,
                    node,
                    f"exception `{node.name}` takes keyword/extra state in "
                    "__init__ but defines no __reduce__ — it will not "
                    "survive the pool's pickle round-trip",
                )

    @staticmethod
    def _base_names(node: ast.ClassDef) -> list[str]:
        """Terminal base-class names: `errors.ShardBuildError` → that attr."""
        names = []
        for base in node.bases:
            if isinstance(base, ast.Attribute):
                names.append(base.attr)
            elif isinstance(base, ast.Name):
                names.append(base.id)
        return names

    def _looks_like_exception(
        self, node: ast.ClassDef, classes: dict[str, ast.ClassDef]
    ) -> bool:
        for name in self._base_names(node):
            if name.endswith("Error") or name.endswith("Exception"):
                return True
            base = classes.get(name)
            if base is not None and self._looks_like_exception(base, classes):
                return True
        return False

    @staticmethod
    def _has_extra_state(init: ast.FunctionDef) -> bool:
        if init.args.kwonlyargs:
            return True
        # (self, message) is replayable through Exception's default
        # reduction; anything beyond that is extra positional state.
        return len(init.args.args) > 2

    def _defines_reducer(
        self, node: ast.ClassDef, classes: dict[str, ast.ClassDef]
    ) -> bool:
        if _REDUCERS & set(_class_methods(node)):
            return True
        for name in self._base_names(node):
            base = classes.get(name)
            if base is not None and self._defines_reducer(base, classes):
                return True
        return False


_UNPICKLERS = {"pickle.load", "pickle.loads"}


@register
class UnpickleRule(Rule):
    rule_id = "PKL004"
    title = "pickle deserialization"
    hint = (
        "persist through repro.io.store (write_store / ArtifactStore), the "
        "one on-disk format, which verifies its payloads before reading"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = module.resolve(node.func)
            if qualified in _UNPICKLERS:
                yield self.finding(
                    module,
                    node,
                    f"`{qualified}` reads a pickle payload — the artifact "
                    "store is the only on-disk format",
                )
