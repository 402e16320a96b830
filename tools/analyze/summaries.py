"""Phase-1 per-file summaries for the whole-program (project) passes.

The per-file engine parses each file exactly once; while it has the tree
in hand it also extracts a JSON-serializable *summary* — the facts the
phase-2 project passes need without re-reading any source:

* **classes** — methods, base names, lock attributes
  (``self._lock = threading.Lock()`` with construction line), attribute
  *type terms* (from ``self.x = Ctor(...)`` assignments and from
  annotations like ``_pool: WorkerPool | None``), and which attributes
  each method releases (``self._thread.join()``);
* **functions** — parameter/return type terms, every call site with a
  locally-inferred receiver term, ``with self.<lock>:`` held spans, a
  small taint IR (sources, flows, sinks, returns), and resource
  acquire/release/escape events;
* **imports, scopes, suppressions** — so project findings resolve names
  across modules and still honor inline ``# analyze: ignore[...]``.

Type *terms* are the little language the project model resolves lazily:

* ``{"t": "self"}`` — the enclosing instance;
* ``{"t": "attr", "of": T, "name": "pool"}`` — attribute of a term;
* ``{"t": "cls", "name": "WorkerPool", "elem": T|None}`` — a named class
  (possibly a container with a payload type, ``dict[str, _WorkerHandle]``);
* ``{"t": "ret", "name": "gauge", "recv": T}`` — a method call's return;
* ``{"t": "retf", "name": "threading.Thread"}`` — a bare/dotted call's
  return (constructor or function — phase 2 decides);
* ``{"t": "elem", "of": T}`` — iterating a container term.

Everything here is *local*: no imports are resolved and no other file is
consulted, so summaries cache and pickle exactly like findings do.
"""

from __future__ import annotations

import ast

from analyze.findings import parse_suppressions
from analyze.passes.base import build_scope_index

__all__ = [
    "SUMMARY_VERSION",
    "LOCK_FACTORIES",
    "RELEASE_METHODS",
    "extract_summary",
]

#: Bump when the summary shape changes (folded into the engine's cache key
#: via the analyzer-code digest, but explicit versioning keeps mixed
#: caches detectable).
SUMMARY_VERSION = 1

LOCK_FACTORIES = {"Lock", "RLock", "Condition"}

#: Method names that release/terminate a held resource.
RELEASE_METHODS = {
    "close",
    "terminate",
    "kill",
    "wait",
    "join",
    "shutdown",
    "stop",
    "cleanup",
}

#: Taint sources: reads off a socket, a shard pipe's frame reader
#: (``repro.serving.wire.read_frame``), or ``.read()`` on an ``rfile``-ish
#: receiver (the HTTP request body stream).
_TAINT_RECV_CALLS = {"recv", "recv_into", "read_frame"}
_TAINT_READ_CALLS = {"read", "readline"}

_HOLDS_LOCK_MARKERS = (
    "caller holds the lock",
    "holds the lock",
    "callers hold the lock",
)


def _dotted_chain(node: ast.AST) -> str | None:
    """``a.b.c`` for a pure-Name attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _annotation_term(node: ast.AST | None) -> dict | None:
    """Type term for an annotation expression (best effort, None = unknown)."""
    if node is None:
        return None
    if isinstance(node, ast.Constant):
        if not isinstance(node.value, str):
            return None
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Name):
        return None if node.id == "None" else {"t": "cls", "name": node.id}
    if isinstance(node, ast.Attribute):
        chain = _dotted_chain(node)
        return {"t": "cls", "name": chain} if chain else None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _annotation_term(node.left) or _annotation_term(node.right)
    if isinstance(node, ast.Subscript):
        base = _annotation_term(node.value)
        if base is None:
            return None
        elems = (
            list(node.slice.elts)
            if isinstance(node.slice, ast.Tuple)
            else [node.slice]
        )
        elem = None
        for candidate in reversed(elems):
            elem = _annotation_term(candidate)
            if elem is not None:
                break
        if base["name"].rpartition(".")[2] == "Optional":
            return elem
        base = dict(base)
        base["elem"] = elem
        return base
    return None


class _Env:
    """Per-function local type environment, updated in statement order."""

    def __init__(self) -> None:
        self.terms: dict[str, dict | None] = {}

    def __contains__(self, name: str) -> bool:
        return name in self.terms

    def get(self, name: str) -> dict | None:
        return self.terms.get(name)

    def set(self, name: str, term: dict | None) -> None:
        self.terms[name] = term


def _expr_term(node: ast.AST, env: _Env) -> dict | None:
    if isinstance(node, ast.Name):
        if node.id == "self":
            return {"t": "self"}
        return env.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _expr_term(node.value, env)
        if base is None:
            return None
        return {"t": "attr", "of": base, "name": node.attr}
    if isinstance(node, ast.Call):
        return _call_term(node, env)
    if isinstance(node, ast.Await):
        return _expr_term(node.value, env)
    return None


def _call_term(node: ast.Call, env: _Env) -> dict | None:
    func = node.func
    if isinstance(func, ast.Name):
        if func.id in ("list", "sorted", "tuple", "set", "frozenset", "reversed"):
            # Element-preserving container conversions: the payload type of
            # ``list(self._workers.values())`` is the argument's payload.
            return _expr_term(node.args[0], env) if node.args else None
        return {"t": "retf", "name": func.id}
    if isinstance(func, ast.Attribute):
        chain = _dotted_chain(func)
        root = chain.split(".", 1)[0] if chain else None
        if chain and root != "self" and root not in env:
            # a.b.c(...) where ``a`` is not a local: a module-dotted call.
            return {"t": "retf", "name": chain}
        recv = _expr_term(func.value, env)
        if recv is None:
            return None
        return {"t": "ret", "name": func.attr, "recv": recv}
    return None


def _call_record(node: ast.Call, env: _Env) -> dict | None:
    """One call-site record: leaf name, dotted chain (when root-importable),
    and the receiver's type term (for method calls)."""
    func = node.func
    if isinstance(func, ast.Name):
        return {"line": node.lineno, "name": func.id, "chain": func.id, "recv": None}
    if isinstance(func, ast.Attribute):
        chain = _dotted_chain(func)
        root = chain.split(".", 1)[0] if chain else None
        if chain and root != "self" and root not in env:
            return {
                "line": node.lineno,
                "name": func.attr,
                "chain": chain,
                "recv": None,
            }
        return {
            "line": node.lineno,
            "name": func.attr,
            "chain": None,
            "recv": _expr_term(func.value, env),
        }
    return None


def _taint_flow_vars(node: ast.AST) -> list[str]:
    """Names whose taint flows through *node* transparently (slices,
    concatenation, tuples — not calls)."""
    names: list[str] = []

    def walk(n: ast.AST) -> None:
        if isinstance(n, ast.Name):
            names.append(n.id)
        elif isinstance(n, ast.Subscript):
            walk(n.value)
        elif isinstance(n, ast.BinOp):
            walk(n.left)
            walk(n.right)
        elif isinstance(n, (ast.Tuple, ast.List, ast.Set)):
            for element in n.elts:
                walk(element)
        elif isinstance(n, ast.IfExp):
            walk(n.body)
            walk(n.orelse)
        elif isinstance(n, ast.Starred):
            walk(n.value)

    walk(node)
    return names


def _arg_vars(node: ast.Call) -> list[str | None]:
    """Positional-then-keyword argument vars (None for non-Name args)."""
    out: list[str | None] = []
    for arg in node.args:
        out.append(arg.id if isinstance(arg, ast.Name) else None)
    for keyword in node.keywords:
        value = keyword.value
        out.append(value.id if isinstance(value, ast.Name) else None)
    return out


def _term_mentions(term: dict | None, name: str) -> bool:
    if not term:
        return False
    if term.get("name") == name:
        return True
    for key in ("of", "recv", "elem"):
        if _term_mentions(term.get(key), name):
            return True
    return False


def _pipe_kwargs(node: ast.Call) -> list[str]:
    """Popen kwargs routed to PIPE (``stdout=subprocess.PIPE`` etc.)."""
    piped = []
    for keyword in node.keywords:
        if keyword.arg in ("stdout", "stderr", "stdin"):
            value = keyword.value
            leaf = value.attr if isinstance(value, ast.Attribute) else (
                value.id if isinstance(value, ast.Name) else ""
            )
            if leaf == "PIPE":
                piped.append(keyword.arg)
    return piped


def _daemon_kwarg(node: ast.Call) -> bool:
    for keyword in node.keywords:
        if keyword.arg == "daemon" and isinstance(keyword.value, ast.Constant):
            return bool(keyword.value.value)
    return False


def _caller_locked(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    if fn.name.endswith("_locked"):
        return True
    doc = ast.get_docstring(fn) or ""
    return any(marker in doc.lower() for marker in _HOLDS_LOCK_MARKERS)


class _FunctionScanner:
    """In-order scan of one function body (nested defs get their own
    scanner for calls/locks/taint, but *resource* events are inlined into
    the outermost function — a closure that opens a client still leaks it
    from its owner's frame)."""

    def __init__(self, fn, qual: str, cls_name: str | None) -> None:
        self.fn = fn
        self.qual = qual
        self.cls = cls_name
        self.env = _Env()
        self.calls: list[dict] = []
        self.lock_spans: list[dict] = []
        self.taint_ops: list[dict] = []
        self.resources: list[dict] = []
        self.attr_sets: list[dict] = []  # self.X = <term> assignments
        self.returns_self_attr = False

    # -- entry ---------------------------------------------------------------

    def scan(self) -> dict:
        for arg in (
            list(self.fn.args.posonlyargs)
            + list(self.fn.args.args)
            + list(self.fn.args.kwonlyargs)
        ):
            self.env.set(arg.arg, _annotation_term(arg.annotation))
        self._scan_body(self.fn.body, inline_resources=True)
        return {
            "qual": self.qual,
            "cls": self.cls,
            "line": self.fn.lineno,
            "end": self.fn.end_lineno or self.fn.lineno,
            "params": [
                arg.arg
                for arg in (
                    list(self.fn.args.posonlyargs) + list(self.fn.args.args)
                )
            ],
            "param_terms": {
                arg.arg: _annotation_term(arg.annotation)
                for arg in (
                    list(self.fn.args.posonlyargs)
                    + list(self.fn.args.args)
                    + list(self.fn.args.kwonlyargs)
                )
            },
            "returns": _annotation_term(self.fn.returns),
            "returns_self_attr": self.returns_self_attr,
            "caller_locked": _caller_locked(self.fn),
            "calls": self.calls,
            "lock_spans": self.lock_spans,
            "taint": self.taint_ops,
            "resources": self.resources,
        }

    # -- statement walk ------------------------------------------------------

    def _scan_body(
        self, body: list[ast.stmt], *, inline_resources: bool, protected: bool = False
    ) -> None:
        for stmt in body:
            self._scan_stmt(stmt, inline_resources=inline_resources, protected=protected)

    def _scan_stmt(
        self, stmt: ast.stmt, *, inline_resources: bool, protected: bool
    ) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested def: resource events inline (closures share the owner's
            # lifetime); calls/locks/taint belong to the nested summary.
            if inline_resources:
                nested = _FunctionScanner(stmt, f"{self.qual}.{stmt.name}", self.cls)
                nested.env.terms.update(self.env.terms)
                nested.scan()
                self.resources.extend(nested.resources)
            return
        if isinstance(stmt, ast.ClassDef):
            return

        self._scan_expressions(stmt, protected=protected)

        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                expr = item.context_expr
                if isinstance(expr, ast.Attribute):
                    recv = _expr_term(expr.value, self.env)
                    if recv is not None:
                        # Candidate lock span: ``with self._lock:`` or
                        # ``with handle.send_lock:`` — phase 2 keeps it
                        # only if the receiver's class declares the attr
                        # as a lock.
                        self.lock_spans.append(
                            {
                                "attr": expr.attr,
                                "recv": recv,
                                "start": stmt.lineno,
                                "end": stmt.end_lineno or stmt.lineno,
                            }
                        )
                if isinstance(expr, ast.Call):
                    self._note_acquisition(
                        item.optional_vars.id
                        if isinstance(item.optional_vars, ast.Name)
                        else None,
                        expr,
                        managed=True,
                    )
                if item.optional_vars is not None and isinstance(
                    item.optional_vars, ast.Name
                ):
                    self.env.set(item.optional_vars.id, _expr_term(expr, self.env))
            self._scan_body(stmt.body, inline_resources=inline_resources, protected=protected)
            return
        if isinstance(stmt, (ast.Try, getattr(ast, "TryStar", ast.Try))):
            self._scan_body(stmt.body, inline_resources=inline_resources, protected=protected)
            for handler in stmt.handlers:
                self._scan_body(handler.body, inline_resources=inline_resources, protected=True)
            self._scan_body(stmt.orelse, inline_resources=inline_resources, protected=protected)
            self._scan_body(stmt.finalbody, inline_resources=inline_resources, protected=True)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            if isinstance(stmt.target, ast.Name):
                iter_term = _expr_term(stmt.iter, self.env)
                self.env.set(
                    stmt.target.id,
                    {"t": "elem", "of": iter_term} if iter_term else None,
                )
                if isinstance(stmt.iter, ast.Name):
                    self._note_container_release(stmt, protected=protected)
            self._scan_body(stmt.body, inline_resources=inline_resources, protected=protected)
            self._scan_body(stmt.orelse, inline_resources=inline_resources, protected=protected)
            return
        for field in ("body", "orelse"):
            sub = getattr(stmt, field, None)
            if isinstance(sub, list) and sub and isinstance(sub[0], ast.stmt):
                self._scan_body(sub, inline_resources=inline_resources, protected=protected)

        if isinstance(stmt, ast.Assign):
            self._apply_assign(stmt.targets, stmt.value, protected=protected)
        elif isinstance(stmt, ast.AnnAssign):
            term = _annotation_term(stmt.annotation)
            if isinstance(stmt.target, ast.Name):
                if term is None and stmt.value is not None:
                    term = _expr_term(stmt.value, self.env)
                self.env.set(stmt.target.id, term)
                if stmt.value is not None:
                    self._apply_assign([stmt.target], stmt.value, protected=protected)
            elif (
                isinstance(stmt.target, ast.Attribute)
                and isinstance(stmt.target.value, ast.Name)
                and stmt.target.value.id == "self"
            ):
                self.attr_sets.append(
                    {"attr": stmt.target.attr, "term": term, "line": stmt.lineno}
                )
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            self.taint_ops.append(
                {
                    "op": "return",
                    "line": stmt.lineno,
                    "vars": _taint_flow_vars(stmt.value),
                }
            )
            for name in set(_taint_flow_vars(stmt.value)):
                self._note_escape(name, "return")
            term = _expr_term(stmt.value, self.env)
            inner = term
            while inner and inner.get("t") == "attr":
                if inner.get("of", {}).get("t") == "self":
                    # Accessor: returns a self-owned object — callers
                    # borrow it, they don't acquire it.
                    self.returns_self_attr = True
                    break
                inner = inner.get("of")

    # -- expression-level events --------------------------------------------

    def _scan_expressions(self, stmt: ast.stmt, *, protected: bool) -> None:
        """Record every call in *stmt* (excluding nested defs/lambdas),
        innermost-first so chained receivers are seen before wrappers."""
        calls: list[ast.Call] = []

        def walk(node: ast.AST) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef),
                ):
                    continue
                walk(child)
            if isinstance(node, ast.Call):
                calls.append(node)

        walk(stmt)
        for call in calls:
            record = _call_record(call, self.env)
            if record is not None:
                self.calls.append(record)
            self._note_taint_call(call, record)
            self._note_release(call, protected=protected)

    def _note_taint_call(self, call: ast.Call, record: dict | None) -> None:
        if record is None:
            return
        recv = record.get("recv")
        source = record["name"] in _TAINT_RECV_CALLS or (
            record["name"] in _TAINT_READ_CALLS
            and (
                _term_mentions(recv, "rfile")
                or (record.get("chain") or "").split(".")[0] == "rfile"
            )
        )
        self.taint_ops.append(
            {
                "op": "call",
                "line": call.lineno,
                "name": record["name"],
                "chain": record.get("chain"),
                "recv": recv,
                "recv_var": (
                    call.func.value.id
                    if isinstance(call.func, ast.Attribute)
                    and isinstance(call.func.value, ast.Name)
                    else None
                ),
                "args": _arg_vars(call),
                "source": bool(source),
                "dst": None,  # patched by _apply_assign when bound
            }
        )

    # -- assignments ---------------------------------------------------------

    def _apply_assign(
        self, targets: list[ast.AST], value: ast.AST, *, protected: bool
    ) -> None:
        term = _expr_term(value, self.env)
        flow_vars = _taint_flow_vars(value)
        names: list[str] = []
        for target in targets:
            if isinstance(target, ast.Name):
                names.append(target.id)
                self.env.set(target.id, term)
            elif isinstance(target, (ast.Tuple, ast.List)) and isinstance(
                value, ast.Call
            ):
                for element in target.elts:
                    if isinstance(element, ast.Name):
                        names.append(element.id)
                        self.env.set(element.id, None)
            elif (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                self.attr_sets.append(
                    {"attr": target.attr, "term": term, "line": target.lineno}
                )
                if isinstance(value, ast.Name):
                    self.resources.append(
                        {
                            "event": "escape",
                            "var": value.id,
                            "kind": "self",
                            "attr": target.attr,
                        }
                    )
                if isinstance(value, ast.Call):
                    self._note_acquisition(
                        None, value, stored_attr=target.attr
                    )

        if isinstance(value, ast.Call):
            for op in reversed(self.taint_ops):
                if op["op"] == "call" and op["line"] == value.lineno:
                    op["dst"] = names[0] if names else None
                    break
            for name in names:
                self._note_acquisition(name, value)
        elif isinstance(value, (ast.ListComp, ast.SetComp)) and isinstance(
            value.elt, ast.Call
        ):
            for name in names:
                self._note_acquisition(name, value.elt, container_of=name)
        elif names and flow_vars:
            self.taint_ops.append(
                {
                    "op": "assign",
                    "line": getattr(value, "lineno", 0),
                    "dst": names[0],
                    "src": flow_vars,
                }
            )

    # -- resource events -----------------------------------------------------

    def _note_acquisition(
        self,
        var: str | None,
        call: ast.Call,
        *,
        managed: bool = False,
        stored_attr: str | None = None,
        container_of: str | None = None,
    ) -> None:
        term = _call_term(call, self.env)
        if term is None:
            return
        self.resources.append(
            {
                "event": "acquire",
                "var": var,
                "line": call.lineno,
                "term": term,
                "pipes": _pipe_kwargs(call),
                "daemon": _daemon_kwarg(call),
                "managed": managed,
                "stored_attr": stored_attr,
                "container": container_of,
            }
        )

    def _note_release(self, call: ast.Call, *, protected: bool) -> None:
        func = call.func
        if not isinstance(func, ast.Attribute) or func.attr not in RELEASE_METHODS:
            return
        # x.close() / x.stdout.close() / alias-of-self-attr patterns.
        base = func.value
        sub_attr = None
        if isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
            sub_attr = base.attr
            root = base.value.id
        elif isinstance(base, ast.Name):
            root = base.id
        else:
            return
        term = _expr_term(base, self.env)
        self.resources.append(
            {
                "event": "release",
                "var": root if root != "self" else None,
                "sub_attr": sub_attr if root != "self" else None,
                "self_attr": sub_attr if root == "self" else None,
                "term": term,
                "method": func.attr,
                "line": call.lineno,
                "protected": protected,
            }
        )
        # ``clients.append(client)`` — container membership, not a release.

    def _note_escape(self, var: str, kind: str) -> None:
        self.resources.append({"event": "escape", "var": var, "kind": kind})

    def _note_container_release(self, loop: ast.For, *, protected: bool) -> None:
        """``for x in container: x.close()`` marks *container* released."""
        assert isinstance(loop.target, ast.Name) and isinstance(loop.iter, ast.Name)
        var = loop.target.id
        for node in ast.walk(loop):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in RELEASE_METHODS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == var
            ):
                self.resources.append(
                    {
                        "event": "container-release",
                        "container": loop.iter.id,
                        "method": node.func.attr,
                        "line": node.lineno,
                        "protected": protected,
                    }
                )
                return


def _scan_container_links(fn: ast.AST, resources: list[dict]) -> None:
    """Link acquired vars to the list they are appended to (escape-to-
    container): ``clients.append(client)``."""
    acquired = {r["var"] for r in resources if r["event"] == "acquire" and r["var"]}
    if not acquired:
        return
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("append", "add")
            and isinstance(node.func.value, ast.Name)
            and node.args
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id in acquired
        ):
            for record in resources:
                if record["event"] == "acquire" and record["var"] == node.args[0].id:
                    record["container"] = node.func.value.id


def _class_summary(cls: ast.ClassDef, functions: dict[str, dict]) -> dict:
    lock_attrs: dict[str, dict] = {}
    for node in ast.walk(cls):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        if not isinstance(value, ast.Call):
            continue
        func = value.func
        leaf = (
            func.attr
            if isinstance(func, ast.Attribute)
            else (func.id if isinstance(func, ast.Name) else "")
        )
        if leaf not in LOCK_FACTORIES:
            continue
        for target in node.targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                lock_attrs[target.attr] = {"line": node.lineno, "kind": leaf}

    methods = [
        n.name
        for n in cls.body
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]

    # Class-level annotations (``x: WorkerPool | None``) type attributes too.
    attr_terms: dict[str, dict] = {}
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            term = _annotation_term(node.annotation)
            if term is not None:
                attr_terms[node.target.id] = term

    release_sites: dict[str, list[str]] = {}
    for method in methods:
        summary = functions.get(f"{cls.name}.{method}")
        if summary is None:
            continue
        for record in summary["resources"]:
            if record["event"] != "release":
                continue
            attr = record.get("self_attr")
            term = record.get("term")
            if attr is None and term and term.get("t") == "attr":
                inner = term
                # Resolve alias chains back to a self attribute root.
                while inner.get("of", {}).get("t") == "attr":
                    inner = inner["of"]
                if inner.get("of", {}).get("t") == "self":
                    attr = inner["name"]
            if attr:
                release_sites.setdefault(attr, [])
                if method not in release_sites[attr]:
                    release_sites[attr].append(method)
        for record in summary.get("attr_sets", []):
            if record["term"] is not None and record["attr"] not in attr_terms:
                attr_terms[record["attr"]] = record["term"]

    return {
        "name": cls.name,
        "line": cls.lineno,
        "bases": [b for b in (_dotted_chain(base) for base in cls.bases) if b],
        "methods": methods,
        "lock_attrs": lock_attrs,
        "attr_terms": attr_terms,
        "release_sites": release_sites,
    }


def _imports_of(tree: ast.Module) -> dict[str, str]:
    """Local bound name -> absolute dotted target (module or module.name)."""
    imports: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imports[bound] = alias.name if alias.asname else alias.name.split(".")[0]
                if alias.asname is None:
                    imports[alias.name.split(".")[0]] = alias.name.split(".")[0]
                else:
                    imports[bound] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                if alias.name == "*":
                    continue
                imports[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return imports


def extract_summary(tree: ast.Module, *, module: str, path: str, lines: list[str]) -> dict:
    """The per-file summary consumed by the phase-2 project passes."""
    functions: dict[str, dict] = {}

    def visit_functions(
        node: ast.AST, prefix: str, cls_name: str | None, in_function: bool = False
    ) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}.{child.name}" if prefix else child.name
                scanner = _FunctionScanner(child, qual, cls_name)
                summary = scanner.scan()
                if in_function:
                    # Nested def: its resource events were already inlined
                    # into the owner's summary (closures share the owner's
                    # lifetime) — don't double-report them here.
                    summary["resources"] = []
                else:
                    _scan_container_links(child, summary["resources"])
                summary["attr_sets"] = scanner.attr_sets
                functions[qual] = summary
                visit_functions(child, qual, cls_name, True)
            elif isinstance(child, ast.ClassDef):
                qual = f"{prefix}.{child.name}" if prefix else child.name
                visit_functions(child, qual, child.name, in_function)
            else:
                visit_functions(child, prefix, cls_name, in_function)

    visit_functions(tree, "", None)

    classes = {
        node.name: _class_summary(node, functions)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }

    scopes = [
        [s.qualname, s.header_line, s.start, s.end] for s in build_scope_index(tree)
    ]
    suppress = {
        str(line): sorted(tokens)
        for line, tokens in parse_suppressions(lines).items()
    }
    return {
        "version": SUMMARY_VERSION,
        "module": module,
        "path": path,
        "imports": _imports_of(tree),
        "classes": classes,
        "functions": functions,
        "scopes": scopes,
        "suppress": suppress,
    }
