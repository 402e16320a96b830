"""Project pass: interprocedural wire-byte taint flow.

The serving stack's untrusted-input contract (docs/serving.md): bytes
read off the wire — the HTTP body stream (``self.rfile.read``) or a
shard pipe (``read_frame``) — must pass a *decode/validate*
boundary (``decode_png`` / ``decode_netpbm`` / ``decode_image_payload`` /
``ensure_image``) before any ndarray construction or math touches them.
The per-file ``validation-boundary`` pass checks one function at a time;
this pass follows the bytes across module boundaries via the call graph.

Taint propagates through assignments, slices, concatenation, container
literals, ``list.append``, and *resolved* calls (a callee that returns
its tainted parameter taints the call result, computed recursively with
memoization). Sanitizer calls clear taint; unresolvable calls clear
taint too — precision over recall, same as the other project passes.

Codes:

* **``raw-ndarray-sink``** — tainted bytes reach ``np.frombuffer`` /
  ``np.fromstring`` (directly, or inside a resolved callee — reported at
  the call site that sent the tainted bytes in).
* **``raw-ndarray-param``** — tainted bytes passed as an
  ndarray-annotated parameter: wire bytes smuggled into image math.
"""

from __future__ import annotations

from analyze.findings import Finding
from analyze.project import ProjectModel, ProjectPass

__all__ = ["TaintWirePass", "SANITIZERS"]

SANITIZERS = {
    "decode_png",
    "decode_netpbm",
    "decode_image_payload",
    "ensure_image",
}

_SINK_LEAVES = {"frombuffer", "fromstring"}
_NUMPY_ROOTS = {"np", "numpy"}
_COLLECT_METHODS = {"append", "extend", "add"}


def _is_np_sink(chain: str | None) -> bool:
    if not chain or "." not in chain:
        return False
    root, _, leaf = chain.partition(".")
    return root in _NUMPY_ROOTS and leaf.rpartition(".")[2] in _SINK_LEAVES


def _is_ndarray_term(term: dict | None) -> bool:
    return bool(
        term
        and term.get("t") == "cls"
        and term["name"].rpartition(".")[2] == "ndarray"
    )


class TaintWirePass(ProjectPass):
    name = "taint-wire"
    codes = ("raw-ndarray-sink", "raw-ndarray-param")
    description = (
        "Interprocedural taint: wire bytes (rfile.read / pipe recv) must "
        "pass decode_png/decode_netpbm/ensure_image before ndarray "
        "construction or math, across module boundaries."
    )

    def run(self, model: ProjectModel) -> tuple[list[Finding], dict]:
        self._model = model
        self._memo: dict[tuple[str, frozenset], tuple[bool, bool]] = {}
        self._in_progress: set[tuple[str, frozenset]] = set()
        findings: list[Finding] = []
        for funcid in sorted(model.functions):
            findings.extend(self._simulate(funcid, frozenset(), emit=True)[2])
        return findings, {}

    # -- the interprocedural simulator --------------------------------------

    def _summary_flags(self, funcid: str, tainted: frozenset) -> tuple[bool, bool]:
        """(returns_taint, sinks_if_tainted) for *funcid* with *tainted*
        params — memoized, cycle-guarded, no findings emitted."""
        key = (funcid, tainted)
        if key in self._memo:
            return self._memo[key]
        if key in self._in_progress:
            return (False, False)
        self._in_progress.add(key)
        returns_taint, sinks, _ = self._simulate(funcid, tainted, emit=False)
        self._in_progress.discard(key)
        self._memo[key] = (returns_taint, sinks)
        return self._memo[key]

    def _simulate(
        self, funcid: str, tainted_params: frozenset, *, emit: bool
    ) -> tuple[bool, bool, list[Finding]]:
        model = self._model
        fn = model.functions[funcid]
        module, classid = model.function_context(funcid)
        leaf = funcid.rsplit(".", 1)[1]
        if leaf in SANITIZERS:
            # The decode/validate boundary itself is allowed to touch raw
            # bytes — that is its entire job.
            return (False, False, [])
        path = model.path_of(funcid)
        qual = funcid[len(module) + 1 :]

        tainted: set[str] = set(tainted_params)
        returns_taint = False
        sinks_hit = False
        findings: list[Finding] = []

        def emit_finding(line: int, code: str, message: str) -> None:
            if emit:
                findings.append(
                    Finding(
                        path=path, line=line, col=1, rule=self.name,
                        code=code, message=message, symbol=qual,
                    )
                )

        for op in fn["taint"]:
            kind = op["op"]
            if kind == "assign":
                if any(v in tainted for v in op["src"]):
                    tainted.add(op["dst"])
                else:
                    tainted.discard(op["dst"])
                continue
            if kind == "return":
                if any(v in tainted for v in op["vars"]):
                    returns_taint = True
                continue
            # kind == "call"
            name = op["name"]
            dst = op["dst"]
            tainted_args = [v for v in op["args"] if v and v in tainted]

            if name in _COLLECT_METHODS and tainted_args and op["recv_var"]:
                tainted.add(op["recv_var"])
                continue
            if op["source"]:
                if dst:
                    tainted.add(dst)
                continue
            if name in SANITIZERS:
                if dst:
                    tainted.discard(dst)
                continue
            if _is_np_sink(op["chain"]) and tainted_args:
                sinks_hit = True
                emit_finding(
                    op["line"],
                    "raw-ndarray-sink",
                    f"raw wire bytes ({', '.join(sorted(set(tainted_args)))}) "
                    f"reach np.{op['chain'].rpartition('.')[2]} without "
                    "passing decode_png/decode_netpbm/ensure_image",
                )
                if dst:
                    tainted.add(dst)
                continue

            call = {"name": name, "chain": op["chain"], "recv": op["recv"]}
            target = model.resolve_call(call, module, classid)
            result_tainted = False
            if target is not None and target[0] == "fn":
                callee = target[1]
                callee_leaf = callee.rsplit(".", 1)[1]
                if callee_leaf in SANITIZERS:
                    pass  # boundary crossed: result is clean
                else:
                    callee_fn = model.functions[callee]
                    params = list(callee_fn["params"])
                    if params and params[0] == "self" and op["chain"] is None:
                        params = params[1:]
                    tainted_callee_params = frozenset(
                        pname
                        for pname, v in zip(params, op["args"])
                        if v and v in tainted
                    )
                    for pname, v in zip(params, op["args"]):
                        if (
                            v
                            and v in tainted
                            and _is_ndarray_term(
                                callee_fn["param_terms"].get(pname)
                            )
                        ):
                            sinks_hit = True
                            emit_finding(
                                op["line"],
                                "raw-ndarray-param",
                                f"raw wire bytes ({v}) passed as "
                                f"ndarray parameter '{pname}' of "
                                f"{callee_leaf}() without decode/validate",
                            )
                    rt, callee_sinks = self._summary_flags(
                        callee, tainted_callee_params
                    )
                    if tainted_callee_params and callee_sinks:
                        sinks_hit = True
                        emit_finding(
                            op["line"],
                            "raw-ndarray-sink",
                            "raw wire bytes "
                            f"({', '.join(sorted(tainted_callee_params))}) "
                            f"flow into {callee_leaf}(), which applies ndarray "
                            "construction/math without decode/validate",
                        )
                    # ``rt`` also covers a callee with its own wire source
                    # and clean arguments (e.g. body = self._read_body()).
                    result_tainted = rt
            if dst:
                if result_tainted:
                    tainted.add(dst)
                else:
                    tainted.discard(dst)

        return (returns_taint, sinks_hit, findings)
