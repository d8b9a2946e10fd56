"""RL008..RL011 — lock-discipline rules (the concurrency gate).

The service thread pool, the shared block cache and the per-instrument
metrics locks make parts of the reproduction concurrent, and a data
race there used to be caught only by whichever test happened to
interleave badly. These rules make lock discipline a *linted
invariant*; each message names its violation kind (the ``VIOLATION_*``
constants below).

The shared machinery is a per-class **concurrency summary** built once
per ``ClassDef`` and cached in ``ctx.scratch``:

* *lock attributes* — ``self.X`` assigned ``threading.Lock()`` /
  ``RLock()`` / ``Condition()``;
* *accesses* — every ``self.<attr>`` read/write with the set of locks
  statically held at that point (``with self._lock:`` nesting);
* *lock-context methods* — private methods whose every intra-class
  call site holds a lock are treated as running under that lock (the
  ``_touch``/``_admit`` "caller holds the lock" idiom in
  ``service/cache.py``), computed as a shrinking fixpoint;
* *acquisitions, calls and blocking operations* with their held sets,
  feeding the cross-module lock-order graph (RL009) and the
  blocking-under-lock rule (RL011).

Known limits (DESIGN.md §14): closures and lambdas are not analysed
for RL008 (only RL010 looks at thread targets), module-level locks are
invisible, and attribute types are resolved from ``__init__``
assignments and parameter annotations only.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

from repro.lint.config import LintConfig
from repro.lint.findings import Finding, Severity
from repro.lint.rules import FileContext, ProjectContext, Rule, register

#: RL008: state touched without the lock that guards it.
VIOLATION_UNGUARDED = "unguarded-access"
#: RL009: two locks acquired in both orders.
VIOLATION_LOCK_ORDER = "lock-order-cycle"
#: RL010: a thread target mutates shared state with no guard at all.
VIOLATION_UNGUARDED_CAPTURE = "unguarded-capture"
#: RL011: a blocking operation runs while a lock is held.
VIOLATION_BLOCKING_CALL = "blocking-while-locked"

_SCRATCH_KEY = "concurrency-summaries"
_PROJECT_KEY = "RL009"

#: Constructors whose result is a guarding primitive.
_LOCK_FACTORIES = frozenset(
    {"threading.Lock", "threading.RLock", "threading.Condition"}
)
#: Queue-ish constructors whose blocking get/put matters for RL011.
_QUEUE_FACTORIES = frozenset(
    {"queue.Queue", "queue.LifoQueue", "queue.PriorityQueue",
     "queue.SimpleQueue", "multiprocessing.Queue", "multiprocessing.JoinableQueue"}
)
#: Container-mutating attribute calls counted as writes (RL008/RL010).
_MUTATORS = frozenset(
    {"append", "extend", "add", "update", "insert", "remove", "discard",
     "clear", "pop", "popitem", "setdefault", "appendleft", "popleft"}
)
#: Dotted callables that block the calling thread outright.
_BLOCKING_DOTTED = frozenset(
    {"time.sleep", "subprocess.run", "subprocess.call",
     "subprocess.check_call", "subprocess.check_output", "subprocess.Popen",
     "os.system", "os.waitpid", "select.select", "socket.create_connection"}
)
#: Attribute calls that block regardless of receiver type.
_BLOCKING_ATTRS = frozenset(
    {"wait", "wait_for", "result", "read_text", "write_text",
     "read_bytes", "write_bytes"}
)
#: Constructors/targets that fan work out to threads (RL010).
_THREAD_FACTORIES = frozenset(
    {"threading.Thread", "multiprocessing.Process",
     "multiprocessing.pool.Pool", "multiprocessing.Pool"}
)
_SUBMIT_ATTRS = frozenset({"submit", "apply_async", "map"})

_CONSTRUCTORS = frozenset({"__init__", "__new__", "__post_init__", "__del__"})


# ---------------------------------------------------------------------------
# The per-class concurrency summary
# ---------------------------------------------------------------------------


@dataclass
class _Access:
    """One ``self.<attr>`` touch inside a method body."""

    attr: str
    write: bool
    method: str
    held: frozenset[str]
    node: ast.AST


@dataclass
class _Acquire:
    """One ``with self.<lock>:`` entry and the locks already held."""

    lock: str
    held: frozenset[str]
    method: str
    node: ast.AST


@dataclass
class _Call:
    """A call made inside a method: ``self.m()`` or ``self.attr.m()``."""

    via_attr: str | None  # None for self.m(), else the self attribute
    name: str
    held: frozenset[str]
    method: str
    node: ast.AST


@dataclass
class _Blocking:
    """A potentially blocking operation and the locks held around it."""

    label: str
    held: frozenset[str]
    method: str
    node: ast.AST


@dataclass
class _ClassSummary:
    """Everything the four rules need to know about one class."""

    name: str
    relpath: str
    lock_attrs: frozenset[str] = frozenset()
    method_names: frozenset[str] = frozenset()
    # ``self.X`` the class assigns: a call ``self.X()`` runs a stored value.
    stored_attrs: frozenset[str] = frozenset()
    attr_types: dict[str, str] = field(default_factory=dict)
    accesses: list[_Access] = field(default_factory=list)
    acquires: list[_Acquire] = field(default_factory=list)
    calls: list[_Call] = field(default_factory=list)
    blocking: list[_Blocking] = field(default_factory=list)
    # method -> locks it is effectively running under (fixpoint).
    effective: dict[str, frozenset[str]] = field(default_factory=dict)


def _rightmost_name(node: ast.expr) -> str | None:
    """The trailing identifier of a (possibly dotted) expression."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _self_attr(node: ast.expr) -> str | None:
    """``self.X`` -> ``"X"``; anything else -> None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _annotation_type(annotation: ast.expr | None) -> str | None:
    """The first concrete class name an annotation mentions
    (``MetricsRegistry | None`` -> ``"MetricsRegistry"``)."""
    if annotation is None:
        return None
    for sub in ast.walk(annotation):
        name = None
        if isinstance(sub, ast.Name):
            name = sub.id
        elif isinstance(sub, ast.Attribute):
            name = sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                inner = ast.parse(sub.value, mode="eval").body
            except SyntaxError:
                continue
            return _annotation_type(inner)
        if name and name not in ("None", "Optional", "Union"):
            return name
    return None


class _MethodScanner:
    """Walks one method body tracking the statically held self-locks."""

    def __init__(
        self, summary: _ClassSummary, method: str, ctx: FileContext
    ) -> None:
        self.summary = summary
        self.method = method
        self.ctx = ctx

    def scan(self, fn: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self._param_types = {
            arg.arg: _annotation_type(arg.annotation)
            for arg in (*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs)
        }
        for stmt in fn.body:
            self._visit(stmt, frozenset())

    # -- the walk ----------------------------------------------------------

    def _visit(self, node: ast.AST, held: frozenset[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return  # closures deliberately out of static scope
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired: set[str] = set()
            for item in node.items:
                lock = _self_attr(item.context_expr)
                if lock is not None and lock in self.summary.lock_attrs:
                    self.summary.acquires.append(
                        _Acquire(
                            lock=lock,
                            held=held | frozenset(acquired),
                            method=self.method,
                            node=item.context_expr,
                        )
                    )
                    acquired.add(lock)
                else:
                    self._visit(item.context_expr, held)
                    if item.optional_vars is not None:
                        self._visit(item.optional_vars, held)
            inner = held | frozenset(acquired)
            for stmt in node.body:
                self._visit(stmt, inner)
            return
        if isinstance(node, ast.Call):
            self._visit_call(node, held)
            for child in ast.iter_child_nodes(node):
                self._visit(child, held)
            return
        if isinstance(node, ast.Attribute):
            attr = _self_attr(node)
            if (
                attr is not None
                and attr not in self.summary.lock_attrs
                and attr not in self.summary.method_names
            ):
                self.summary.accesses.append(
                    _Access(
                        attr=attr,
                        write=isinstance(node.ctx, (ast.Store, ast.Del)),
                        method=self.method,
                        held=held,
                        node=node,
                    )
                )
            self._visit(node.value, held)
            return
        if isinstance(node, ast.Subscript) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            # ``self.X[k] = v`` / ``del self.X[k]`` mutate X.
            attr = _self_attr(node.value)
            if attr is not None and attr not in self.summary.lock_attrs:
                self.summary.accesses.append(
                    _Access(
                        attr=attr,
                        write=True,
                        method=self.method,
                        held=held,
                        node=node,
                    )
                )
        for child in ast.iter_child_nodes(node):
            self._visit(child, held)

    def _visit_call(self, node: ast.Call, held: frozenset[str]) -> None:
        func = node.func
        # self.m(...) and self.attr.m(...)
        if isinstance(func, ast.Attribute):
            receiver = func.value
            attr = _self_attr(receiver)
            if isinstance(receiver, ast.Name) and receiver.id == "self":
                if func.attr in self.summary.method_names:
                    self.summary.calls.append(
                        _Call(
                            via_attr=None,
                            name=func.attr,
                            held=held,
                            method=self.method,
                            node=node,
                        )
                    )
            elif attr is not None:
                self.summary.calls.append(
                    _Call(
                        via_attr=attr,
                        name=func.attr,
                        held=held,
                        method=self.method,
                        node=node,
                    )
                )
                if func.attr in _MUTATORS:
                    self.summary.accesses.append(
                        _Access(
                            attr=attr,
                            write=True,
                            method=self.method,
                            held=held,
                            node=node,
                        )
                    )
        self._record_blocking(node, held)

    def _record_blocking(self, node: ast.Call, held: frozenset[str]) -> None:
        label = _blocking_label(
            node, self.ctx, self.summary, self._param_types,
            self.ctx.config.blocking_call_names,
        )
        if label is not None:
            self.summary.blocking.append(
                _Blocking(label=label, held=held, method=self.method, node=node)
            )


def _blocking_label(
    node: ast.Call,
    ctx: FileContext,
    summary: _ClassSummary | None,
    param_types: Mapping[str, str | None],
    blocking_names: tuple[str, ...],
) -> str | None:
    """A human-oriented label when this call can block, else None."""
    func = node.func
    dotted = ctx.dotted_name(func)
    if dotted in _BLOCKING_DOTTED:
        return dotted
    if isinstance(func, ast.Name):
        if func.id == "open":
            return "open()"
        if func.id in blocking_names:
            return f"{func.id}()"
        return None
    if not isinstance(func, ast.Attribute):
        return None
    attr_of_self = _self_attr(func.value)
    if func.attr in blocking_names:
        # ``self.loader(key)`` — a caller-supplied callable stored on
        # the instance blocks just like its bare-name counterpart.
        return f"{func.attr}()"
    if func.attr in _BLOCKING_ATTRS:
        # ``with self._cond: self._cond.wait()`` releases the held lock
        # — the sanctioned condition-variable idiom, not a violation.
        if (
            func.attr in ("wait", "wait_for")
            and summary is not None
            and attr_of_self is not None
            and attr_of_self in summary.lock_attrs
        ):
            return None
        return f".{func.attr}()"
    if func.attr == "join":
        # Thread.join() takes no args or a numeric timeout; str.join
        # takes an iterable — only the former blocks on another thread.
        if not node.args and not node.keywords:
            return ".join()"
        if len(node.args) == 1 and isinstance(node.args[0], ast.Constant) and (
            isinstance(node.args[0].value, (int, float))
        ):
            return ".join()"
        return None
    if func.attr in ("get", "put"):
        receiver_type = None
        if summary is not None and attr_of_self is not None:
            receiver_type = summary.attr_types.get(attr_of_self)
        elif isinstance(func.value, ast.Name):
            receiver_type = param_types.get(func.value.id)
        if receiver_type in _QUEUE_FACTORIES or receiver_type in (
            "Queue", "LifoQueue", "PriorityQueue", "SimpleQueue",
            "JoinableQueue",
        ):
            return f"Queue.{func.attr}()"
        return None
    if summary is not None and _self_attr(func) in summary.stored_attrs:
        # ``self.on_hit()`` — a callable stored on the instance runs
        # whatever its setter handed in, so it blocks like a ``loader``.
        return f"self.{func.attr}()"
    return None


def _summarize(node: ast.ClassDef, ctx: FileContext) -> _ClassSummary:
    """Build (or fetch the cached) concurrency summary for one class."""
    cache: dict[ast.AST, _ClassSummary] = ctx.scratch.setdefault(
        _SCRATCH_KEY, {}
    )
    if node in cache:
        return cache[node]
    summary = _ClassSummary(name=node.name, relpath=ctx.relpath)
    methods: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            methods[stmt.name] = stmt
    summary.method_names = frozenset(methods)

    # Pass 1: lock attributes and attribute types.
    for fn in methods.values():
        for sub in ast.walk(fn):
            if isinstance(sub, ast.Assign):
                targets = sub.targets
                value: ast.expr | None = sub.value
            elif isinstance(sub, ast.AnnAssign):
                targets = [sub.target]
                value = sub.value
            else:
                continue
            for target in targets:
                attr = _self_attr(target)
                if attr is None:
                    continue
                summary.stored_attrs |= {attr}
                inferred = _infer_type(value, ctx)
                if inferred is None and isinstance(sub, ast.AnnAssign):
                    inferred = _annotation_type(sub.annotation)
                if inferred is None and isinstance(value, ast.Name):
                    # ``self.sink = sink`` with an annotated parameter.
                    inferred = _param_annotation(fn, value.id)
                if inferred in _LOCK_FACTORIES:
                    summary.lock_attrs |= {attr}
                elif inferred is not None and attr not in summary.attr_types:
                    summary.attr_types[attr] = inferred

    # Pass 2: per-method walks with held-lock tracking.
    for name, fn in methods.items():
        _MethodScanner(summary, name, ctx).scan(fn)

    # Pass 3: lock-context fixpoint for private helpers.
    summary.effective = _effective_locks(summary)
    for records in (summary.accesses, summary.acquires, summary.calls,
                    summary.blocking):
        for record in records:  # type: ignore[attr-defined]
            eff = summary.effective.get(record.method, frozenset())
            record.held = record.held | eff

    cache[node] = summary
    return summary


def _infer_type(value: ast.expr | None, ctx: FileContext) -> str | None:
    """The dotted (or bare) type name a ``self.X = ...`` value implies."""
    if value is None:
        return None
    if isinstance(value, ast.Call):
        dotted = ctx.dotted_name(value.func)
        if dotted in _LOCK_FACTORIES or dotted in _QUEUE_FACTORIES:
            return dotted
        return _rightmost_name(value.func)
    if isinstance(value, ast.IfExp):
        return _infer_type(value.body, ctx) or _infer_type(value.orelse, ctx)
    return None


def _param_annotation(
    fn: ast.FunctionDef | ast.AsyncFunctionDef, name: str
) -> str | None:
    for arg in (*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs):
        if arg.arg == name:
            return _annotation_type(arg.annotation)
    return None


def _effective_locks(summary: _ClassSummary) -> dict[str, frozenset[str]]:
    """Locks a method can assume are held, from its intra-class call
    sites (shrinking fixpoint; public methods assume nothing)."""
    sites: dict[str, list[tuple[str, frozenset[str]]]] = {}
    for call in summary.calls:
        if call.via_attr is None:
            sites.setdefault(call.name, []).append((call.method, call.held))
    effective: dict[str, frozenset[str]] = {}
    for name in summary.method_names:
        private = name.startswith("_") and not (
            name.startswith("__") and name.endswith("__")
        )
        if private and sites.get(name):
            effective[name] = summary.lock_attrs
        else:
            effective[name] = frozenset()
    for _ in range(len(summary.method_names) + 1):
        changed = False
        for name, call_sites in sites.items():
            if not effective.get(name):
                continue
            new = summary.lock_attrs
            for caller, held in call_sites:
                new = new & (held | effective.get(caller, frozenset()))
            if new != effective[name]:
                effective[name] = new
                changed = True
        if not changed:
            break
    return effective


# ---------------------------------------------------------------------------
# RL008 — attributes stay under their inferred guard
# ---------------------------------------------------------------------------


@register
class GuardedAttributeRule(Rule):
    """RL008: an attribute written under a lock is *always* accessed
    under that lock.

    The guard map is inferred, not declared: if a class's writes to
    ``self._counts`` happen inside ``with self._lock:``, the lock *is*
    the guard, and any read outside it (a stats snapshot, a ``__len__``)
    races the mutation — on CPython that can mean a torn multi-field
    snapshot or a ``RuntimeError: dictionary changed size during
    iteration``. Constructors are exempt (the object is not shared
    yet), and private helpers whose every call site holds the lock
    inherit it (the documented "caller holds the lock" idiom).
    """

    id = "RL008"
    title = "attribute accessed outside its inferred lock guard"
    severity = Severity.ERROR
    rationale = "unguarded access to lock-guarded state is a data race"
    autofix_hint = (
        "take the guarding lock (or copy state out under it) before "
        "reading; see DESIGN.md §14"
    )
    interests = (ast.ClassDef,)

    def check(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        assert isinstance(node, ast.ClassDef)
        summary = _summarize(node, ctx)
        if not summary.lock_attrs:
            return
        relevant = [
            access
            for access in summary.accesses
            if access.method not in _CONSTRUCTORS
        ]
        guards = _guard_map(relevant)
        seen: set[tuple[str, str, int]] = set()
        for access in relevant:
            guard = guards.get(access.attr)
            if guard is None or guard in access.held:
                continue
            key = (access.attr, access.method, getattr(access.node, "lineno", 0))
            if key in seen:
                continue
            seen.add(key)
            verb = "written" if access.write else "read"
            yield ctx.finding(
                self,
                access.node,
                f"[{VIOLATION_UNGUARDED}] `{summary.name}.{access.attr}` is "
                f"guarded by `self.{guard}` but {verb} without it in "
                f"`{access.method}`",
            )


def _guard_map(accesses: Sequence[_Access]) -> dict[str, str]:
    """attr -> the lock that guards it (most common lock over guarded
    writes; alphabetical tie-break keeps reports deterministic)."""
    votes: dict[str, dict[str, int]] = {}
    for access in accesses:
        if access.write and access.held:
            counts = votes.setdefault(access.attr, {})
            for lock in access.held:
                counts[lock] = counts.get(lock, 0) + 1
    return {
        attr: min(counts, key=lambda lock: (-counts[lock], lock))
        for attr, counts in votes.items()
    }


# ---------------------------------------------------------------------------
# RL009 — the static lock-order graph is acyclic
# ---------------------------------------------------------------------------


@register
class LockOrderRule(Rule):
    """RL009: the whole-program lock acquisition graph has no cycles.

    Every ``with self._a:`` nested (directly, or through method calls
    resolved across modules via ``__init__``/annotation types) inside
    ``with self._b:`` adds the edge ``b -> a``. Two code paths that
    acquire the same pair of locks in opposite orders deadlock under
    the right interleaving — e.g. a ``SharedBlockCache`` callback
    taking a sink lock while the sink's flush path takes the cache
    lock. The check is global: edges from every linted file land in
    one graph and cycles are reported at each participating
    acquisition site.
    """

    id = "RL009"
    title = "lock-order cycle across acquisition sites"
    severity = Severity.ERROR
    rationale = "inverted lock acquisition orders deadlock under load"
    autofix_hint = (
        "impose one global order (document it in DESIGN.md §14) or "
        "release the first lock before taking the second"
    )
    interests = (ast.ClassDef,)

    def check(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        assert isinstance(node, ast.ClassDef)
        summary = _summarize(node, ctx)
        if ctx.project is None:
            return
        store: dict[str, _ClassSummary] = ctx.project.scratch.setdefault(
            _PROJECT_KEY, {}
        )
        if summary.lock_attrs or summary.acquires or summary.calls:
            # First definition wins on (unlikely) duplicate class names;
            # files are walked in sorted order so this is deterministic.
            store.setdefault(summary.name, summary)
        return
        yield  # pragma: no cover -- makes this a generator

    def finalize(self, project: ProjectContext) -> Iterator[Finding]:
        classes: dict[str, _ClassSummary] = project.scratch.get(
            _PROJECT_KEY, {}
        )
        edges = _lock_order_edges(classes)
        if not edges:
            return
        adjacency: dict[str, set[str]] = {}
        for (src, dst) in edges:
            adjacency.setdefault(src, set()).add(dst)
            adjacency.setdefault(dst, set())
        cyclic = _cyclic_nodes(adjacency)
        emitted: set[tuple[str, str]] = set()
        for (src, dst), (relpath, node) in sorted(
            edges.items(), key=lambda kv: (kv[1][0], kv[1][1].lineno, kv[0])
        ):
            in_cycle = (src == dst) or (src in cyclic and dst in cyclic and (
                _reaches(adjacency, dst, src)
            ))
            if not in_cycle or (src, dst) in emitted:
                continue
            emitted.add((src, dst))
            members = sorted(
                {src, dst}
                | {n for n in cyclic if _reaches(adjacency, dst, n) and
                   _reaches(adjacency, n, src)}
            )
            yield Finding(
                path=relpath,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                rule=self.id,
                severity=self.severity,
                message=(
                    f"[{VIOLATION_LOCK_ORDER}] acquires `{dst}` while "
                    f"holding `{src}`, closing a lock-order cycle "
                    f"({' -> '.join(members + [members[0]])})"
                ),
            )


def _lock_order_edges(
    classes: Mapping[str, _ClassSummary]
) -> dict[tuple[str, str], tuple[str, ast.AST]]:
    """(held, acquired) -> first (relpath, node) acquisition site.

    Lock node ids are ``ClassName._attr``. Calls made while holding a
    lock contribute the callee's transitively acquired locks, with the
    callee resolved through the receiver attribute's inferred type.
    """
    # Locks each method acquires directly.
    acquired: dict[tuple[str, str], set[str]] = {}
    for summary in classes.values():
        for acq in summary.acquires:
            acquired.setdefault((summary.name, acq.method), set()).add(
                f"{summary.name}.{acq.lock}"
            )
    # Transitive closure through resolvable calls.
    resolved_calls: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for summary in classes.values():
        for call in summary.calls:
            callee = _resolve_callee(summary, call, classes)
            if callee is not None:
                resolved_calls.setdefault(
                    (summary.name, call.method), []
                ).append(callee)
    for _ in range(len(classes) * 4 + 1):
        changed = False
        for caller, callees in resolved_calls.items():
            bucket = acquired.setdefault(caller, set())
            before = len(bucket)
            for callee in callees:
                bucket |= acquired.get(callee, set())
            if len(bucket) != before:
                changed = True
        if not changed:
            break

    edges: dict[tuple[str, str], tuple[str, ast.AST]] = {}

    def add_edge(src: str, dst: str, relpath: str, node: ast.AST) -> None:
        key = (src, dst)
        if key not in edges:
            edges[key] = (relpath, node)

    for summary in sorted(classes.values(), key=lambda s: (s.relpath, s.name)):
        for acq in summary.acquires:
            dst = f"{summary.name}.{acq.lock}"
            for held in sorted(acq.held):
                add_edge(f"{summary.name}.{held}", dst, summary.relpath, acq.node)
        for call in summary.calls:
            if not call.held:
                continue
            callee = _resolve_callee(summary, call, classes)
            if callee is None:
                continue
            for lock in sorted(acquired.get(callee, set())):
                for held in sorted(call.held):
                    src = f"{summary.name}.{held}"
                    if src != lock:
                        add_edge(src, lock, summary.relpath, call.node)
                    else:
                        add_edge(src, lock, summary.relpath, call.node)
    return edges


def _resolve_callee(
    summary: _ClassSummary,
    call: _Call,
    classes: Mapping[str, _ClassSummary],
) -> tuple[str, str] | None:
    if call.via_attr is None:
        if call.name in summary.method_names:
            return (summary.name, call.name)
        return None
    receiver_type = summary.attr_types.get(call.via_attr)
    if receiver_type is None:
        return None
    target = classes.get(receiver_type)
    if target is None or call.name not in target.method_names:
        return None
    return (target.name, call.name)


def _cyclic_nodes(adjacency: Mapping[str, set[str]]) -> set[str]:
    """Nodes on at least one cycle (members of a non-trivial SCC or a
    self-loop), via iterative Tarjan."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = [0]
    cyclic: set[str] = set()

    for root in sorted(adjacency):
        if root in index:
            continue
        work: list[tuple[str, Iterator[str]]] = [
            (root, iter(sorted(adjacency.get(root, ()))))
        ]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, children = work[-1]
            advanced = False
            for child in children:
                if child not in index:
                    index[child] = low[child] = counter[0]
                    counter[0] += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(sorted(adjacency.get(child, ())))))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1:
                    cyclic.update(component)
                elif component and component[0] in adjacency.get(
                    component[0], set()
                ):
                    cyclic.add(component[0])
    return cyclic


def _reaches(
    adjacency: Mapping[str, set[str]], start: str, goal: str
) -> bool:
    if start == goal:
        return True
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for child in adjacency.get(node, ()):
            if child == goal:
                return True
            if child not in seen:
                seen.add(child)
                frontier.append(child)
    return False


# ---------------------------------------------------------------------------
# RL010 — thread targets don't mutate unguarded shared state
# ---------------------------------------------------------------------------


@register
class ThreadCaptureRule(Rule):
    """RL010: state handed to a thread is guarded or sharded.

    A ``Thread(target=...)``/``executor.submit(...)`` target runs
    concurrently with its creator; any attribute or captured container
    it mutates without a lock is a race the type system cannot see.
    Two idioms stay exempt: mutations inside any ``with <lock>:``
    block, and the shard-by-parameter pattern (``results[client]``
    where ``client`` is a target parameter — each thread owns its
    slot, the idiom ``closed_loop_threaded`` uses).
    """

    id = "RL010"
    title = "thread target mutates unguarded shared state"
    severity = Severity.ERROR
    rationale = "unsynchronized writes from worker threads corrupt state"
    autofix_hint = (
        "guard the mutation with a lock, or shard the container by a "
        "per-thread index parameter"
    )
    interests = (ast.Call,)

    def check(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        target = _spawn_target(node, ctx)
        if target is None:
            return
        fn = _resolve_target_function(target, node, ctx)
        if fn is None:
            return
        kind, body = fn
        if kind == "method":
            yield from self._check_method(target, body, node, ctx)
        else:
            yield from self._check_function(body, node, ctx)

    def _check_method(
        self,
        target: ast.expr,
        method: ast.FunctionDef | ast.AsyncFunctionDef,
        spawn: ast.Call,
        ctx: FileContext,
    ) -> Iterator[Finding]:
        cls = ctx.enclosing_class(spawn)
        if cls is None:
            return
        summary = _summarize(cls, ctx)
        guards = _guard_map(
            [a for a in summary.accesses if a.method not in _CONSTRUCTORS]
        )
        seen: set[str] = set()
        for access in summary.accesses:
            if access.method != method.name or not access.write:
                continue
            if access.held:
                continue  # written under some lock
            if access.attr in guards or access.attr in seen:
                continue  # RL008's jurisdiction / already reported
            seen.add(access.attr)
            yield ctx.finding(
                self,
                spawn,
                f"[{VIOLATION_UNGUARDED_CAPTURE}] thread target "
                f"`{summary.name}.{method.name}` mutates `self.{access.attr}` "
                f"without any lock",
            )

    def _check_function(
        self,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        spawn: ast.Call,
        ctx: FileContext,
    ) -> Iterator[Finding]:
        params = {
            arg.arg
            for arg in (*fn.args.posonlyargs, *fn.args.args,
                        *fn.args.kwonlyargs)
        }
        local = set(params)
        for sub in ast.walk(fn):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                local.add(sub.id)
        seen: set[str] = set()
        for name, node in _captured_mutations(fn, params, local):
            if name in seen:
                continue
            seen.add(name)
            yield ctx.finding(
                self,
                spawn,
                f"[{VIOLATION_UNGUARDED_CAPTURE}] thread target "
                f"`{fn.name}` mutates captured `{name}` without a lock",
            )


def _spawn_target(node: ast.Call, ctx: FileContext) -> ast.expr | None:
    """The callable expression a thread-spawning call will run."""
    dotted = ctx.dotted_name(node.func)
    if dotted in _THREAD_FACTORIES or (
        dotted is not None and dotted.split(".")[-1] in ("Thread", "Process")
    ):
        for kw in node.keywords:
            if kw.arg == "target":
                return kw.value
        if node.args:
            return node.args[0]
        return None
    if (
        isinstance(node.func, ast.Attribute)
        and node.func.attr in _SUBMIT_ATTRS
        and node.args
    ):
        candidate = node.args[0]
        # Only self-methods and named local functions are analysable;
        # anything else (module functions, partials) is out of scope.
        if _self_attr(candidate) is not None or isinstance(candidate, ast.Name):
            return candidate
    return None


def _resolve_target_function(
    target: ast.expr, spawn: ast.Call, ctx: FileContext
) -> tuple[str, ast.FunctionDef | ast.AsyncFunctionDef] | None:
    attr = _self_attr(target)
    if attr is not None:
        cls = ctx.enclosing_class(spawn)
        if cls is None:
            return None
        for stmt in cls.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                stmt.name == attr
            ):
                return ("method", stmt)
        return None
    if isinstance(target, ast.Name):
        scope: ast.AST | None = ctx.enclosing_function(spawn) or ctx.tree
        while scope is not None:
            body = getattr(scope, "body", [])
            for stmt in body:
                if isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) and stmt.name == target.id:
                    return ("function", stmt)
            scope = ctx.parents.get(scope)
        return None
    return None


def _captured_mutations(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
    params: set[str],
    local: set[str],
) -> Iterator[tuple[str, ast.AST]]:
    """(captured name, node) pairs for unguarded shared mutations."""

    def visit(node: ast.AST, guarded: bool) -> Iterator[tuple[str, ast.AST]]:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            # Holding *any* named context manager counts as guarded —
            # lint-grade: the common case is a captured Lock.
            locked = guarded or any(
                isinstance(item.context_expr, (ast.Name, ast.Attribute))
                for item in node.items
            )
            for item in node.items:
                yield from visit(item.context_expr, guarded)
            for stmt in node.body:
                yield from visit(stmt, locked)
            return
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _MUTATORS and not guarded:
                root, sharded = _capture_root(node.func.value, params)
                if root is not None and root not in local and not sharded:
                    yield (root, node)
        if isinstance(node, ast.Subscript) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ) and not guarded:
            root, sharded = _capture_root(node, params)
            if root is not None and root not in local and not sharded:
                yield (root, node)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue
            yield from visit(child, guarded)

    for stmt in fn.body:
        yield from visit(stmt, False)


def _capture_root(
    node: ast.expr, params: set[str]
) -> tuple[str | None, bool]:
    """(root captured name, sharded-by-parameter?) of a receiver chain."""
    sharded = False
    while True:
        if isinstance(node, ast.Subscript):
            if isinstance(node.slice, ast.Name) and node.slice.id in params:
                sharded = True
            node = node.value
            continue
        if isinstance(node, ast.Attribute):
            node = node.value
            continue
        break
    if isinstance(node, ast.Name):
        return node.id, sharded
    return None, sharded


# ---------------------------------------------------------------------------
# RL011 — nothing blocks while a lock is held
# ---------------------------------------------------------------------------


@register
class BlockingUnderLockRule(Rule):
    """RL011: no blocking operation runs while holding a lock.

    A lock held across ``Event.wait``, ``Queue.get/put``, thread
    joins, file I/O, a caller-supplied ``loader``/``load_fn``, or a
    callable the class stores on itself (``self.on_hit()`` where the
    class assigns ``self.on_hit``) convoys every other thread behind a
    slow (or never-returning) operation — the single worst-case the
    service's tail latency can hit. The sanctioned idiom is
    *release-then-wait*: install a marker under the lock, release,
    block on the marker, re-check — exactly what
    ``SharedBlockCache.fetch`` does (and why it is not flagged: its
    ``marker.wait()`` sits outside the ``with`` block).
    ``Condition.wait`` on the *held* condition is exempt (it releases
    the lock by contract). Self-method calls are followed
    transitively within the class.
    """

    id = "RL011"
    title = "blocking call while holding a lock"
    severity = Severity.ERROR
    rationale = "blocking under a lock convoys all other lock users"
    autofix_hint = (
        "install an in-flight marker under the lock, release, then "
        "block (the single-flight idiom in service/cache.py)"
    )
    interests = (ast.ClassDef,)

    def check(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        assert isinstance(node, ast.ClassDef)
        summary = _summarize(node, ctx)
        if not summary.lock_attrs:
            return
        # Methods that (transitively) perform a blocking operation,
        # with one representative label each.
        blocking_methods: dict[str, str] = {}
        for record in summary.blocking:
            blocking_methods.setdefault(record.method, record.label)
        for _ in range(len(summary.method_names) + 1):
            changed = False
            for call in summary.calls:
                if call.via_attr is not None:
                    continue
                label = blocking_methods.get(call.name)
                if label is not None and call.method not in blocking_methods:
                    blocking_methods[call.method] = (
                        f"{call.name}() -> {label}"
                    )
                    changed = True
            if not changed:
                break
        seen: set[tuple[str, int]] = set()
        for record in summary.blocking:
            if not record.held:
                continue
            key = (record.label, getattr(record.node, "lineno", 0))
            if key in seen:
                continue
            seen.add(key)
            locks = ", ".join(f"self.{lock}" for lock in sorted(record.held))
            yield ctx.finding(
                self,
                record.node,
                f"[{VIOLATION_BLOCKING_CALL}] blocking call `{record.label}` "
                f"while holding {locks} in `{summary.name}.{record.method}`; "
                f"release first (single-flight idiom)",
            )
        for call in summary.calls:
            if call.via_attr is not None or not call.held:
                continue
            label = blocking_methods.get(call.name)
            if label is None or call.method in _CONSTRUCTORS:
                continue
            key = (f"self.{call.name}", getattr(call.node, "lineno", 0))
            if key in seen:
                continue
            seen.add(key)
            locks = ", ".join(f"self.{lock}" for lock in sorted(call.held))
            yield ctx.finding(
                self,
                call.node,
                f"[{VIOLATION_BLOCKING_CALL}] `self.{call.name}()` blocks "
                f"(via {label}) and is called while holding {locks} in "
                f"`{summary.name}.{call.method}`",
            )
