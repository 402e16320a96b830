"""Project pass: resource lifecycle — acquisition to release on all paths.

Tracks OS-handle-bearing objects from the call that creates them to the
call that releases them:

* builtin acquirers — ``socket.socket`` / ``socket.create_connection``,
  ``subprocess.Popen``, ``http.client.HTTPConnection``,
  ``threading.Thread``, ``multiprocessing`` pipe ``Connection``s,
  ``selectors`` selectors (the epoll/kqueue fd behind the serving event
  loop), and ``multiprocessing.shared_memory.SharedMemory`` segments
  (the mapped fd behind the worker slot rings);
* *resource-backed* project classes — any class holding one of the above
  in an attribute (by assignment or annotation, computed to a fixpoint so
  a class holding a resource-backed class counts too) that also exposes a
  release method (``close``/``shutdown``/``stop``/``terminate``/``__exit__``);
* factories — functions whose return annotation resolves to either.

Escape analysis keeps ownership honest: a handle that is returned, passed
to a constructor (ownership transfer), or stored on ``self`` is not a
local leak — but a ``self``-stored handle must be released by *some*
method of its class (``owned-unreleased`` otherwise). Handles appended to
a local list count as released when a loop over that list releases each
element.

Codes:

* **``leaked-resource``** — acquired, never released or escaped.
* **``leak-on-exception``** — released, but only on the straight-line
  path; an exception between acquire and release leaks the fd. Release
  must happen in a ``finally``/``except`` block or via ``with``.
  (Threads are exempt: an unjoined thread on an error path is not an fd.)
* **``popen-pipe-leak``** — a ``Popen(stdout=PIPE)`` terminated locally
  without closing the pipe fd; ``kill()``+``wait()`` reaps the child but
  the parent's pipe end survives until GC.
* **``unjoined-thread``** — a non-daemon thread that is neither joined,
  stored, nor escaped.
* **``owned-unreleased``** — a resource stored on ``self`` in a class with
  no method that ever releases that attribute.
"""

from __future__ import annotations

from analyze.findings import Finding
from analyze.project import ProjectModel, ProjectPass, Resolved

__all__ = ["ResourceLifecyclePass"]

#: External types that directly hold an OS handle, and their kind.
_EXT_KINDS = {
    "socket.socket": "socket",
    "socket.create_connection": "socket",
    "subprocess.Popen": "popen",
    "http.client.HTTPConnection": "http",
    "http.client.HTTPSConnection": "http",
    "multiprocessing.Pipe": "pipe",
    "multiprocessing.connection.Connection": "pipe",
    "threading.Thread": "thread",
    "selectors.BaseSelector": "selector",
    "selectors.DefaultSelector": "selector",
    "selectors.SelectSelector": "selector",
    "multiprocessing.shared_memory.SharedMemory": "shm",
}

#: Kinds that hold a file descriptor (exception-safety required).
#: ``selector`` holds the epoll/kqueue fd; ``shm`` holds the mapped
#: segment fd until close() (and the segment itself until unlink()).
_FD_KINDS = {"socket", "popen", "http", "pipe", "object", "selector", "shm"}

#: A class is resource-backed only if it can actually release.
_RELEASER_METHODS = {"close", "shutdown", "stop", "terminate", "__exit__", "join"}


def _resource_backed_classes(model: ProjectModel) -> set[str]:
    """Class ids holding fd-bearing attrs (transitively), with a releaser."""
    backed: set[str] = set()
    changed = True
    while changed:
        changed = False
        for classid, cls in model.classes.items():
            if classid in backed:
                continue
            if not (_RELEASER_METHODS & set(cls["methods"])):
                continue
            module = classid.rsplit(".", 1)[0]
            for term in cls["attr_terms"].values():
                resolved = model.resolve_type(term, module, classid)
                if _is_fd_resource(resolved, backed):
                    backed.add(classid)
                    changed = True
                    break
    return backed


def _is_fd_resource(resolved: Resolved | None, backed: set[str]) -> bool:
    if resolved is None:
        return False
    if resolved.kind == "ext":
        kind = _EXT_KINDS.get(resolved.id)
        if kind in _FD_KINDS:
            return True
        if resolved.id.startswith("builtins.") and resolved.elem is not None:
            return _is_fd_resource(resolved.elem, backed)
        return False
    return resolved.id in backed


class ResourceLifecyclePass(ProjectPass):
    name = "resource-lifecycle"
    codes = (
        "leaked-resource",
        "leak-on-exception",
        "popen-pipe-leak",
        "unjoined-thread",
        "owned-unreleased",
    )
    description = (
        "Track socket/Popen/HTTPConnection/pipe/Thread/selector/"
        "SharedMemory handles from acquisition to release on every exit "
        "path, with escape analysis for ownership transfer and "
        "self-stored handles."
    )

    def run(self, model: ProjectModel) -> tuple[list[Finding], dict]:
        backed = _resource_backed_classes(model)
        findings: list[Finding] = []
        for funcid in sorted(model.functions):
            findings.extend(self._check_function(model, funcid, backed))
        return findings, {}

    # -- per-function --------------------------------------------------------

    def _classify(
        self, model: ProjectModel, term: dict, module: str, classid: str | None,
        backed: set[str],
    ) -> str | None:
        resolved = model.resolve_type(term, module, classid)
        if resolved is None:
            return None
        if resolved.kind == "ext":
            return _EXT_KINDS.get(resolved.id)
        return "object" if resolved.id in backed else None

    def _check_function(
        self, model: ProjectModel, funcid: str, backed: set[str]
    ) -> list[Finding]:
        fn = model.functions[funcid]
        module, classid = model.function_context(funcid)
        events = fn["resources"]
        if not any(e["event"] == "acquire" for e in events):
            return []
        path = model.path_of(funcid)
        qual = funcid[len(module) + 1 :]

        releases: dict[str, list[dict]] = {}
        container_releases: dict[str, list[dict]] = {}
        escapes: dict[str, list[dict]] = {}
        for event in events:
            if event["event"] == "release" and event.get("var"):
                releases.setdefault(event["var"], []).append(event)
            elif event["event"] == "container-release":
                container_releases.setdefault(event["container"], []).append(event)
            elif event["event"] == "escape":
                escapes.setdefault(event["var"], []).append(event)

        ctor_args = self._ctor_arg_vars(model, fn, module, classid)

        findings: list[Finding] = []
        for event in events:
            if event["event"] != "acquire":
                continue
            kind = self._classify(model, event["term"], module, classid, backed)
            if kind is None:
                continue
            if self._is_borrowed(model, event["term"], module, classid):
                continue  # accessor return: owned by the callee's object
            findings.extend(
                self._verdict(
                    model=model,
                    event=event,
                    kind=kind,
                    releases=releases,
                    container_releases=container_releases,
                    escapes=escapes,
                    ctor_args=ctor_args,
                    path=path,
                    qual=qual,
                    classid=classid,
                )
            )
        return findings

    def _is_borrowed(
        self, model: ProjectModel, term: dict, module: str, classid: str | None
    ) -> bool:
        """True when the acquiring call is an accessor that returns a
        self-owned attribute (``self._connect()`` handing back the cached
        ``self._connection``) — the callee's object owns the handle."""
        if term.get("t") == "ret":
            call = {"name": term["name"], "chain": None, "recv": term["recv"]}
        elif term.get("t") == "retf":
            call = {
                "name": term["name"].rpartition(".")[2],
                "chain": term["name"],
                "recv": None,
            }
        else:
            return False
        target = model.resolve_call(call, module, classid)
        if target is None or target[0] != "fn":
            return False
        return bool(model.functions[target[1]].get("returns_self_attr"))

    def _ctor_arg_vars(
        self, model: ProjectModel, fn: dict, module: str, classid: str | None
    ) -> set[str]:
        """Vars handed to a constructor — ownership transfers to the object."""
        transferred: set[str] = set()
        for op in fn["taint"]:
            if op["op"] != "call" or not any(op["args"]):
                continue
            call = {"name": op["name"], "chain": op["chain"], "recv": op["recv"]}
            target = model.resolve_call(call, module, classid)
            if target and target[0] == "ctor":
                transferred.update(v for v in op["args"] if v)
        return transferred

    def _verdict(
        self,
        *,
        model: ProjectModel,
        event: dict,
        kind: str,
        releases: dict[str, list[dict]],
        container_releases: dict[str, list[dict]],
        escapes: dict[str, list[dict]],
        ctor_args: set[str],
        path: str,
        qual: str,
        classid: str | None,
    ) -> list[Finding]:
        var = event["var"]
        line = event["line"]

        def finding(code: str, message: str) -> Finding:
            return Finding(
                path=path, line=line, col=1, rule=self.name, code=code,
                message=message, symbol=qual,
            )

        var_releases = releases.get(var, []) if var else []
        var_container = (
            container_releases.get(event.get("container") or "", [])
            if event.get("container")
            else []
        )
        pipe_closed = any(r.get("sub_attr") for r in var_releases)
        plain_releases = [r for r in var_releases if not r.get("sub_attr")]
        released = bool(plain_releases or var_container)
        protected = any(r["protected"] for r in plain_releases) or any(
            r["protected"] for r in var_container
        )
        var_escapes = escapes.get(var, []) if var else []
        returned = any(e["kind"] == "return" for e in var_escapes)
        stored_attr = event.get("stored_attr") or next(
            (e.get("attr") for e in var_escapes if e["kind"] == "self"), None
        )
        transferred = var in ctor_args if var else False

        out: list[Finding] = []

        # Popen with inherited pipes, reaped locally: the pipe fd must be
        # closed where the process is reaped, whatever else happens. A
        # ``with Popen(...)`` block closes them in ``__exit__``.
        if (
            kind == "popen"
            and event["pipes"]
            and plain_releases
            and not pipe_closed
            and not event["managed"]
        ):
            out.append(
                finding(
                    "popen-pipe-leak",
                    f"Popen({'/'.join(event['pipes'])}=PIPE) is terminated here "
                    "but its pipe fd is never closed on this path "
                    "(close process.stdout/stderr where the process is reaped)",
                )
            )

        if event["managed"]:
            return out

        if stored_attr is not None:
            if classid is not None and kind != "thread" or (
                classid is not None and kind == "thread" and not event["daemon"]
            ):
                cls = model.classes.get(classid or "")
                release_sites = cls["release_sites"] if cls else {}
                if classid is not None and stored_attr not in release_sites:
                    out.append(
                        Finding(
                            path=path, line=line, col=1, rule=self.name,
                            code="owned-unreleased",
                            message=(
                                f"self.{stored_attr} holds a {kind} resource but "
                                f"no method of {classid.rsplit('.', 1)[1]} "
                                "releases it"
                            ),
                            symbol=qual,
                        )
                    )
            return out

        if kind == "thread":
            if (
                event["daemon"]
                or released
                or returned
                or transferred
                or event.get("container")
            ):
                return out
            out.append(
                finding(
                    "unjoined-thread",
                    "non-daemon Thread is started but never joined, stored, "
                    "or handed off — process shutdown will hang on it",
                )
            )
            return out

        # fd-bearing kinds.
        if returned or transferred:
            return out
        if not released:
            out.append(
                finding(
                    "leaked-resource",
                    f"{kind} resource acquired here is never released on any "
                    "path (no close/terminate/join, no escape)",
                )
            )
            return out
        if not protected:
            out.append(
                finding(
                    "leak-on-exception",
                    f"{kind} resource is released only on the non-exception "
                    "path; an exception before the release leaks the handle "
                    "(release it in a finally block or use a with statement)",
                )
            )
        return out
