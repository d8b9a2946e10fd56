"""RL001..RL007 — this repository's determinism and wire-format invariants.

Each rule's docstring states the invariant it protects and why the
reproduction breaks without it; DESIGN.md §9 is the narrative version.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.config import LintConfig
from repro.lint.findings import Finding, Severity
from repro.lint.rules import FileContext, Rule, register

# ---------------------------------------------------------------------------
# RL001 — no ambient RNG
# ---------------------------------------------------------------------------

# Module-level functions of `random` that draw from (or reset) the
# shared global generator. Seeded instances (`random.Random(seed)`,
# `numpy.random.default_rng(seed)`) are the sanctioned alternative.
_GLOBAL_RANDOM_FNS = frozenset(
    {
        "seed", "random", "randrange", "randint", "getrandbits", "randbytes",
        "choice", "choices", "shuffle", "sample", "uniform", "triangular",
        "betavariate", "expovariate", "gammavariate", "gauss",
        "lognormvariate", "normalvariate", "vonmisesvariate",
        "paretovariate", "weibullvariate", "binomialvariate",
    }
)
# numpy.random callables that are *not* the legacy global-state API.
_NUMPY_RANDOM_OK = frozenset(
    {"default_rng", "Generator", "RandomState", "SeedSequence", "PCG64",
     "MT19937", "Philox", "SFC64", "BitGenerator"}
)


@register
class UnseededRandomRule(Rule):
    """RL001: no module-level ``random`` / ``numpy.random`` calls.

    Every run must be a pure function of its explicit seeds. Calls like
    ``random.choice(...)`` or ``numpy.random.shuffle(...)`` draw from
    interpreter-global state that any import or test-ordering change
    perturbs, so two "identical" runs silently diverge. RNGs must be
    constructed seeded (``random.Random(seed)``,
    ``numpy.random.default_rng(seed)``) and threaded to their users.
    """

    id = "RL001"
    title = "unseeded module-level RNG call"
    severity = Severity.ERROR
    rationale = "ambient RNG state breaks run-for-run determinism"
    autofix_hint = (
        "construct random.Random(seed) / numpy.random.default_rng(seed) "
        "and pass it to the caller"
    )
    interests = (ast.Call,)

    def applies_to(self, relpath: str, config: LintConfig) -> bool:
        return not config.is_under(relpath, config.rng_exempt_paths)

    def check(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        dotted = ctx.dotted_name(node.func)
        if dotted is None:
            return
        if dotted.startswith("random."):
            fn = dotted[len("random."):]
            if fn in _GLOBAL_RANDOM_FNS:
                yield ctx.finding(
                    self,
                    node,
                    f"call to global-state RNG `{dotted}`; "
                    f"thread a seeded random.Random instance instead",
                )
        elif dotted.startswith("numpy.random."):
            fn = dotted[len("numpy.random."):]
            if fn.split(".")[0] not in _NUMPY_RANDOM_OK:
                yield ctx.finding(
                    self,
                    node,
                    f"call to legacy global-state RNG `{dotted}`; "
                    f"use numpy.random.default_rng(seed)",
                )


# ---------------------------------------------------------------------------
# RL002 — no wall clock in the deterministic core
# ---------------------------------------------------------------------------

_CLOCK_CALLS = frozenset(
    {
        "time.time", "time.time_ns",
        "time.perf_counter", "time.perf_counter_ns",
        "time.monotonic", "time.monotonic_ns",
        "time.process_time", "time.process_time_ns",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    }
)


@register
class WallClockRule(Rule):
    """RL002: the core never reads the wall clock.

    Simulated I/O cost is *modeled* time (``ReliabilityConfig.read_cost``
    accumulated into ``SearchTrace.io_time``); real timestamps in
    engine/paging/analysis paths would make traces machine- and
    load-dependent, so replay ``--check`` could never be byte-exact.
    Only the observability layer and the benchmarks may time things.
    """

    id = "RL002"
    title = "wall-clock read outside obs/benchmarks"
    severity = Severity.ERROR
    rationale = "real timestamps make traces irreproducible"
    autofix_hint = (
        "move the measurement into repro.obs (PhaseProfiler) or model "
        "the cost explicitly"
    )
    interests = (ast.Call,)

    def applies_to(self, relpath: str, config: LintConfig) -> bool:
        return not config.is_under(relpath, config.clock_exempt_paths)

    def check(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        dotted = ctx.dotted_name(node.func)
        if dotted in _CLOCK_CALLS:
            yield ctx.finding(
                self,
                node,
                f"wall-clock call `{dotted}` in a deterministic path",
            )


# ---------------------------------------------------------------------------
# RL003 — no hash-ordered iteration
# ---------------------------------------------------------------------------


def _is_set_expr(node: ast.expr, bindings: frozenset[str]) -> bool:
    """Conservatively: does this expression evaluate to a set?

    Recognises set displays/comprehensions, ``set()``/``frozenset()``
    calls, set-operator combinations of set expressions, the named set
    methods, and names the enclosing scope bound to one of the above.
    """
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in bindings
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if isinstance(func, ast.Attribute) and func.attr in (
            "union", "intersection", "difference", "symmetric_difference",
        ):
            return _is_set_expr(func.value, bindings)
        return False
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return _is_set_expr(node.left, bindings) or _is_set_expr(
            node.right, bindings
        )
    return False


def _annotation_is_set(annotation: ast.expr) -> bool:
    """Whether an annotation spells ``set[...]`` / ``frozenset[...]``."""
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    if isinstance(annotation, ast.Name):
        return annotation.id in ("set", "frozenset", "Set", "FrozenSet")
    if isinstance(annotation, ast.Attribute):
        return annotation.attr in ("Set", "FrozenSet", "AbstractSet")
    return False


def _set_bindings(scope: ast.AST) -> frozenset[str]:
    """Names bound to set-valued expressions anywhere in ``scope``
    (one fixpoint-free pass: good enough for lint-grade inference)."""
    names: set[str] = set()
    for node in ast.walk(scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
            node is not scope
        ):
            continue  # nested scopes analysed on their own
        value: ast.expr | None = None
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            value, targets = node.value, node.targets
        elif isinstance(node, ast.AnnAssign):
            value = node.value
            targets = [node.target]
            if _annotation_is_set(node.annotation):
                if isinstance(node.target, ast.Name):
                    names.add(node.target.id)
        if value is not None and _is_set_expr(value, frozenset(names)):
            for target in targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    # Annotated set-typed parameters count too.
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = scope.args
        for arg in (
            *args.posonlyargs, *args.args, *args.kwonlyargs,
            *filter(None, (args.vararg, args.kwarg)),
        ):
            if arg.annotation is not None and _annotation_is_set(arg.annotation):
                names.add(arg.arg)
    return frozenset(names)


# Calls whose argument order-sensitivity makes set iteration leak.
_ORDER_SENSITIVE_CALLS = frozenset({"list", "tuple", "enumerate", "iter", "next"})
# Order-insensitive consumers: iterating a set through these is fine.
_ORDER_FREE_CALLS = frozenset(
    {"sorted", "min", "max", "sum", "len", "any", "all", "set", "frozenset"}
)


@register
class UnorderedIterationRule(Rule):
    """RL003: set iteration order must never reach a result.

    ``set``/``frozenset`` iterate in hash order, which for ``str`` and
    ``tuple`` keys varies with ``PYTHONHASHSEED``. Any walk, plan, or
    output assembled by iterating a bare set is therefore different on
    a different interpreter invocation — exactly the class of bug PR 4
    hand-hunted before the parallel runner could promise byte-identical
    merges. Sort the set (``sorted(s, key=...)``) or keep an
    insertion-ordered dict instead.
    """

    id = "RL003"
    title = "order-sensitive iteration over a set"
    severity = Severity.WARNING
    rationale = "hash order leaks PYTHONHASHSEED into results"
    autofix_hint = "sorted(s) / dict.fromkeys(...) / an ordered container"
    interests = (ast.For, ast.ListComp, ast.DictComp, ast.GeneratorExp,
                 ast.Call, ast.Starred, ast.YieldFrom)

    def _bindings(self, node: ast.AST, ctx: FileContext) -> frozenset[str]:
        scope: ast.AST = ctx.enclosing_function(node) or ctx.tree
        cache: dict[ast.AST, frozenset[str]] = ctx.scratch.setdefault(
            self.id, {}
        )
        if scope not in cache:
            cache[scope] = _set_bindings(scope)
        return cache[scope]

    def _flag(
        self, iterable: ast.expr, node: ast.AST, ctx: FileContext, what: str
    ) -> Iterator[Finding]:
        if _is_set_expr(iterable, self._bindings(node, ctx)):
            yield ctx.finding(
                self,
                iterable,
                f"{what} iterates a set in hash order; "
                f"sort it or use an insertion-ordered container",
            )

    def check(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        if isinstance(node, ast.For):
            yield from self._flag(node.iter, node, ctx, "for loop")
        elif isinstance(node, (ast.ListComp, ast.DictComp, ast.GeneratorExp)):
            # A SetComp over a set stays unordered -> not flagged; a
            # generator consumed by an order-free builtin (any/sum/...)
            # cannot leak order either.
            if isinstance(node, ast.GeneratorExp):
                parent = ctx.parents.get(node)
                if (
                    isinstance(parent, ast.Call)
                    and isinstance(parent.func, ast.Name)
                    and parent.func.id in _ORDER_FREE_CALLS
                ):
                    return
            for comp in node.generators:
                yield from self._flag(comp.iter, node, ctx, "comprehension")
        elif isinstance(node, ast.Starred):
            yield from self._flag(node.value, node, ctx, "unpacking")
        elif isinstance(node, ast.YieldFrom):
            yield from self._flag(node.value, node, ctx, "yield from")
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in _ORDER_SENSITIVE_CALLS:
                for arg in node.args[:1]:
                    yield from self._flag(arg, node, ctx, f"{func.id}()")
            elif isinstance(func, ast.Attribute) and func.attr == "join":
                for arg in node.args[:1]:
                    yield from self._flag(arg, node, ctx, "str.join()")


# ---------------------------------------------------------------------------
# RL004 — cell specs are frozen picklable data
# ---------------------------------------------------------------------------

_PICKLABLE_NAMES = frozenset(
    {
        "int", "float", "str", "bool", "bytes", "None",
        "tuple", "list", "dict", "set", "frozenset",
        "Tuple", "List", "Dict", "Set", "FrozenSet",
        "Sequence", "Mapping", "Optional", "Union",
    }
)


def _annotation_names(annotation: ast.expr) -> Iterator[str]:
    """Every base name an annotation mentions (``dict[str, int | None]``
    -> dict, str, int, None)."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant):
            if node.value is None:
                yield "None"
            elif isinstance(node.value, str):
                # A string annotation: parse and recurse.
                try:
                    inner = ast.parse(node.value, mode="eval").body
                except SyntaxError:
                    yield node.value
                else:
                    yield from _annotation_names(inner)


def _dataclass_decoration(node: ast.ClassDef) -> tuple[bool, bool]:
    """(is_dataclass, frozen=True) from the decorator list."""
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else (
            target.id if isinstance(target, ast.Name) else None
        )
        if name != "dataclass":
            continue
        frozen = False
        if isinstance(deco, ast.Call):
            for kw in deco.keywords:
                if kw.arg == "frozen" and isinstance(kw.value, ast.Constant):
                    frozen = bool(kw.value.value)
        return True, frozen
    return False, False


@register
class PicklableSpecRule(Rule):
    """RL004: process-boundary specs are frozen, picklable dataclasses.

    The campaign runner (``--jobs N`` included) ships :class:`CellSpec`s
    to forked workers and promises the merged output is byte-identical
    to a serial run. That only holds if a spec (a) cannot be mutated
    after construction and (b) consists of data that pickles to the
    same cell on the far side — no lambdas, no open handles, no live
    graphs. The rule statically
    checks the dataclass is ``frozen=True`` and every field annotation
    stays within the picklable whitelist (configurable extras, e.g.
    ``ReliabilityConfig``).
    """

    id = "RL004"
    title = "parallel spec not frozen/picklable"
    severity = Severity.ERROR
    rationale = "mutable or unpicklable specs break worker determinism"
    autofix_hint = "@dataclass(frozen=True) with primitive/tuple fields"
    interests = (ast.ClassDef,)

    def check(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        assert isinstance(node, ast.ClassDef)
        config = ctx.config
        if node.name not in config.spec_classes:
            return
        is_dc, frozen = _dataclass_decoration(node)
        if not is_dc or not frozen:
            yield ctx.finding(
                self,
                node,
                f"spec class `{node.name}` must be @dataclass(frozen=True)",
            )
        allowed = _PICKLABLE_NAMES | set(config.extra_picklable)
        for stmt in node.body:
            if not isinstance(stmt, ast.AnnAssign) or not isinstance(
                stmt.target, ast.Name
            ):
                continue
            bad = [
                name
                for name in _annotation_names(stmt.annotation)
                if name not in allowed
            ]
            if bad:
                yield ctx.finding(
                    self,
                    stmt,
                    f"spec field `{node.name}.{stmt.target.id}` has "
                    f"non-whitelisted type name(s): {', '.join(sorted(set(bad)))}",
                )


# ---------------------------------------------------------------------------
# RL005 — trace events round-trip the wire form
# ---------------------------------------------------------------------------

# Types `jsonable`/`retuple` round-trip exactly for the identifier
# shapes the engine emits. `Any` is allowed for vertex/block-id fields
# (arbitrary hashables by design; the wire form retuples them), and
# ClassVar marks the `kind` tag.
_WIRE_NAMES = frozenset(
    {"int", "float", "str", "bool", "None", "tuple", "dict",
     "Tuple", "Dict", "Mapping", "Any", "ClassVar"}
)


@register
class EventWireFormRule(Rule):
    """RL005: trace-event fields stay within the wire-type whitelist.

    Replay reconstructs a run *exactly* from JSONL, which requires
    every event field to survive ``to_dict`` -> JSON -> ``retuple``.
    A field holding a set, a custom object, or a callable would be
    stringified on the way out (``jsonable``'s fallback) and could
    never be rebuilt, breaking ``replay --check``. The whitelist is
    exactly what the wire helpers round-trip.
    """

    id = "RL005"
    title = "trace-event field outside the wire-type whitelist"
    severity = Severity.ERROR
    rationale = "non-jsonable fields cannot round-trip replay --check"
    autofix_hint = "use int/float/str/bool/tuple/Mapping (or Any for ids)"
    interests = (ast.ClassDef,)

    def applies_to(self, relpath: str, config: LintConfig) -> bool:
        return config.is_under(relpath, config.event_paths)

    def check(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        assert isinstance(node, ast.ClassDef)
        config = ctx.config
        base_names = {
            base.attr if isinstance(base, ast.Attribute) else (
                base.id if isinstance(base, ast.Name) else None
            )
            for base in node.bases
        }
        is_event = node.name in config.event_bases or bool(
            base_names & set(config.event_bases)
        )
        if not is_event:
            return
        is_dc, frozen = _dataclass_decoration(node)
        if not is_dc or not frozen:
            yield ctx.finding(
                self,
                node,
                f"trace event `{node.name}` must be @dataclass(frozen=True)",
            )
        for stmt in node.body:
            if not isinstance(stmt, ast.AnnAssign) or not isinstance(
                stmt.target, ast.Name
            ):
                continue
            bad = [
                name
                for name in _annotation_names(stmt.annotation)
                if name not in _WIRE_NAMES
            ]
            if bad:
                yield ctx.finding(
                    self,
                    stmt,
                    f"event field `{node.name}.{stmt.target.id}` has "
                    f"non-wire type name(s): {', '.join(sorted(set(bad)))} "
                    f"(would not survive jsonable/retuple)",
                )


# ---------------------------------------------------------------------------
# RL006 — no swallowed exceptions
# ---------------------------------------------------------------------------


def _handler_reraises(handler: ast.ExceptHandler) -> bool:
    return any(isinstance(node, ast.Raise) for node in ast.walk(handler))


def _broad_names(handler: ast.ExceptHandler) -> list[str]:
    """The over-broad exception names a handler catches."""
    nodes: list[ast.expr] = []
    if handler.type is None:
        return ["<bare>"]
    if isinstance(handler.type, ast.Tuple):
        nodes = list(handler.type.elts)
    else:
        nodes = [handler.type]
    broad: list[str] = []
    for node in nodes:
        name = node.attr if isinstance(node, ast.Attribute) else (
            node.id if isinstance(node, ast.Name) else None
        )
        if name in ("Exception", "BaseException"):
            broad.append(name)
    return broad


@register
class SwallowedExceptionRule(Rule):
    """RL006: no bare/over-broad handler may swallow errors.

    The fault-injection layer signals unrecoverable disks with typed
    :class:`~repro.errors.ReproError` subclasses, and the harness's
    degradation path (``ExperimentResult.error``) depends on them
    propagating to exactly one place. A ``try: ... except: pass`` (or
    ``except Exception:`` that never re-raises) between the store and
    the harness would turn a lost block into silent data corruption.
    Bare ``except:`` is always flagged; ``except Exception`` /
    ``BaseException`` is flagged when the handler contains no
    ``raise``.
    """

    id = "RL006"
    title = "bare or swallowing broad exception handler"
    severity = Severity.WARNING
    rationale = "swallowed ReproErrors corrupt the degradation path"
    autofix_hint = "catch the specific exception types, or re-raise"
    interests = (ast.ExceptHandler,)

    def check(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        assert isinstance(node, ast.ExceptHandler)
        if node.type is None:
            yield ctx.finding(
                self,
                node,
                "bare `except:`; name the exception types "
                "(GraphError/ReproError/... must stay observable)",
            )
            return
        broad = _broad_names(node)
        if broad and not _handler_reraises(node):
            yield ctx.finding(
                self,
                node,
                f"`except {'/'.join(broad)}` without re-raise swallows "
                f"typed errors; narrow it or re-raise",
            )


# ---------------------------------------------------------------------------
# RL007 — public API fully annotated
# ---------------------------------------------------------------------------


def _is_public_api(
    node: ast.FunctionDef | ast.AsyncFunctionDef, ctx: FileContext
) -> bool:
    if node.name.startswith("_") and not (
        node.name.startswith("__") and node.name.endswith("__")
    ):
        return False
    if ctx.enclosing_function(node) is not None:
        return False  # nested helper
    cls = ctx.enclosing_class(node)
    if cls is not None and cls.name.startswith("_"):
        return False
    return True


@register
class TypedPublicApiRule(Rule):
    """RL007: public functions in the typed packages carry full
    annotations.

    The package ships ``py.typed``: downstream checkers trust our
    annotations. Inside, the mypy strict gate only has teeth where
    signatures exist — an unannotated public function in ``core/``,
    ``blockings/``, or ``adversaries/`` silently widens everything it
    touches to ``Any``. Every parameter (except ``self``/``cls``) and
    every return must be annotated.
    """

    id = "RL007"
    title = "public function missing annotations"
    severity = Severity.WARNING
    rationale = "untyped public surface defeats the strict-typing gate"
    autofix_hint = "annotate all parameters and the return type"
    interests = (ast.FunctionDef, ast.AsyncFunctionDef)

    def applies_to(self, relpath: str, config: LintConfig) -> bool:
        return config.is_under(relpath, config.typed_api_paths)

    def check(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        if not _is_public_api(node, ctx):
            return
        in_class = ctx.enclosing_class(node) is not None
        args = node.args
        ordered = [*args.posonlyargs, *args.args]
        missing: list[str] = []
        for index, arg in enumerate(ordered):
            if in_class and index == 0 and arg.arg in ("self", "cls"):
                continue
            if arg.annotation is None:
                missing.append(arg.arg)
        for arg in args.kwonlyargs:
            if arg.annotation is None:
                missing.append(arg.arg)
        for arg in (args.vararg, args.kwarg):
            if arg is not None and arg.annotation is None:
                missing.append("*" + arg.arg)
        if missing:
            yield ctx.finding(
                self,
                node,
                f"public function `{node.name}` has unannotated "
                f"parameter(s): {', '.join(missing)}",
            )
        if node.returns is None:
            yield ctx.finding(
                self,
                node,
                f"public function `{node.name}` has no return annotation",
            )
