"""Structural verifier for tile modules.

Returns a list of diagnostics (empty means valid) rather than raising, so
callers can report every violation at once.  Diagnostics are ordered by op
position; tag-balance findings, which are whole-module properties, come last
in tag order.  What lowering refuses is reported at its op: an unknown op,
and a forall, which runs only once fork-join lowering has turned it into
async regions (that pass alone checks its threads).  A forked region runs
alongside the ops after it until its group's await, so the scratchpad it
takes counts as live until then; every forked group must be awaited.
"""

from __future__ import annotations

from .ir import (
    EXPR_OPS,
    GUARDED_OPS,
    OP_TYPES,
    AllocTcm,
    AsyncExecute,
    AwaitAll,
    Binary,
    BufferDecl,
    Compute,
    Const,
    Copy,
    DeallocTcm,
    DmaStart,
    Forall,
    ForTiles,
    Input,
    MemSpace,
    Op,
    TileModule,
    Unary,
    ViewRef,
    expr_nodes,
    op_regions,
)
from .lower import Schedule, iv_guard, lower, walk
from .machine import MachineConfig


class _Checker:
    def __init__(self, m: TileModule | Schedule, machine: MachineConfig):
        self.sched = m  # lowered for the tag-balance walk when still a module
        self.m = m.module if isinstance(m, Schedule) else m
        self.machine = machine
        self.diags: list[str] = []
        self.ddr = {d.id: d for d in self.m.buffers}
        self.live_tcm: dict[str, BufferDecl] = {}
        self.live_bytes = 0
        # group -> TCM bytes its forked regions take until its await; those
        # bytes are in live_bytes too.
        self.held: dict[str, int] = {}
        self.groups_forked: dict[str, None] = {}  # in order of first fork
        self.groups_awaited: set[str] = set()
        self.tag_sites: dict[int, str] = {}  # tag -> dst base of its first dma.start
        # False once a fault that lowering raises on is reported.
        self.walkable = True

    def err(self, path: str, msg: str) -> None:
        self.diags.append(f"{path}: {msg}")

    # -- views ------------------------------------------------------------ #

    def check_view(self, path: str, view: ViewRef, op: Op, loop: int | None) -> None:
        decl = self.ddr.get(view.base) or self.live_tcm.get(view.base)
        if decl is None:
            self.err(path, f"view references unknown or dead buffer @{view.base}")
            return
        if view.row_count < 1 or view.col_count < 1:
            self.err(path, f"view of @{view.base} must cover at least one row and column")
            return
        if view.col_count > decl.cols:
            self.err(
                path,
                f"view of @{view.base} has col_count {view.col_count} > buffer cols {decl.cols}",
            )
        if view.row_scale != 0 and loop is None:
            self.err(path, f"view of @{view.base} uses an induction variable outside any loop")
            return
        candidates = [view.row_base]
        if loop is not None:
            # The iv values the op runs at: lowering's guard within the loop.
            guard = iv_guard(op) if isinstance(op, GUARDED_OPS) else None
            lo, hi = (0, loop) if guard is None else (max(0, guard[0]), min(loop, guard[1]))
            if lo >= hi:
                return  # guarded out on every iteration: the view never resolves
            if view.row_scale != 0:
                candidates = [view.row_offset_at(lo), view.row_offset_at(hi - 1)]
        for off in candidates:
            if off < 0 or off + view.row_count > decl.rows:
                self.err(
                    path,
                    f"view of @{view.base} out of bounds: rows [{off}, {off + view.row_count})"
                    f" vs buffer rows {decl.rows}",
                )
                break

    # -- scopes: loop arms and async regions ------------------------------ #

    def check_scope(self, body: tuple[Op, ...], prefix: str, loop: int | None, leak: str) -> int:
        """Checks a region that must free every TCM buffer it allocates:
        reports `leak` at the region's path when it does not, restores the
        live set and the held bytes either way, and returns the region's
        peak TCM byte count.  So a group forked in the region and awaited
        outside it holds its bytes only to the region's end."""
        saved = dict(self.live_tcm), self.live_bytes, dict(self.held)
        peak = self.check_body(body, prefix, loop)
        if set(self.live_tcm) != set(saved[0]):
            self.err(prefix, leak)
        self.live_tcm, self.live_bytes, self.held = saved
        return peak

    # -- main walk --------------------------------------------------------- #

    def check_body(self, body: tuple[Op, ...], prefix: str, loop: int | None) -> int:
        """Checks a region inside a loop of `loop` tiles (None outside any
        loop); returns the peak concurrent TCM byte count seen."""
        peak = self.live_bytes
        for i, op in enumerate(body):
            path = f"{prefix}[{i}]"
            if type(op) not in OP_TYPES:  # lowering rejects it: nothing is walked
                self.err(path, f"unknown op {op!r}")
                self.walkable = False
                continue
            if loop is None and isinstance(op, GUARDED_OPS) and (
                op.only_if_iv_lt is not None or op.only_if_iv_ge is not None
            ):
                self.err(path, "guard on an induction variable outside any loop")

            if isinstance(op, AllocTcm):
                d = op.decl
                if d.space is not MemSpace.TCM:
                    self.err(path, f"tcm.alloc of @{d.id} must declare tcm space")
                if d.rows < 1 or d.cols < 1:
                    self.err(path, f"buffer @{d.id} must have at least one row and column")
                if d.id in self.ddr or d.id in self.live_tcm:
                    self.err(path, f"buffer id @{d.id} already live")
                else:
                    self.live_tcm[d.id] = d
                    self.live_bytes += d.nbytes
                    peak = max(peak, self.live_bytes)
                    if self.live_bytes > self.machine.tcm_capacity:
                        self.err(
                            path,
                            f"tcm capacity exceeded: {self.live_bytes} bytes live"
                            f" > capacity {self.machine.tcm_capacity}",
                        )
            elif isinstance(op, DeallocTcm):
                d = self.live_tcm.pop(op.buffer_id, None)
                if d is None:
                    self.err(path, f"tcm.dealloc of @{op.buffer_id} which is not live")
                else:
                    self.live_bytes -= d.nbytes
            elif isinstance(op, Copy) or isinstance(op, DmaStart):
                self.check_view(f"{path}.src", op.src, op, loop)
                self.check_view(f"{path}.dst", op.dst, op, loop)
                if op.src.elems != op.dst.elems:
                    self.err(
                        path,
                        f"transfer shape mismatch: src {op.src.elems} elems"
                        f" vs dst {op.dst.elems} elems",
                    )
                if isinstance(op, DmaStart):
                    seen = self.tag_sites.setdefault(op.tag, op.dst.base)
                    if seen != op.dst.base:
                        self.err(
                            path,
                            f"tag {op.tag} reused with a different destination"
                            f" (@{seen} vs @{op.dst.base})",
                        )
            elif isinstance(op, Compute):
                if op.vector_factor < 1:
                    self.err(path, f"vector_factor must be >= 1, got {op.vector_factor}")
                for k, v in enumerate(op.inputs):
                    self.check_view(f"{path}.in{k}", v, op, loop)
                    if v.elems != op.output.elems:
                        self.err(path, f"compute input {k} has {v.elems} elems vs output {op.output.elems}")
                self.check_view(f"{path}.out", op.output, op, loop)
                used = set()
                for node in expr_nodes(op.expr):
                    if isinstance(node, Input):
                        used.add(node.index)
                    elif isinstance(node, (Unary, Binary)):
                        if node.op not in EXPR_OPS[type(node)]:
                            self.err(path, f"unknown {type(node).__name__.lower()} op {node.op!r}")
                    elif not isinstance(node, Const):
                        self.err(path, f"not an expression node: {node!r}")
                if used != set(range(len(op.inputs))):
                    self.err(
                        path,
                        f"expression input indices {sorted(used)} must be dense"
                        f" over the {len(op.inputs)} declared inputs",
                    )
            elif isinstance(op, ForTiles):
                if op.tile_count < 1:
                    self.err(path, f"loop tile_count must be >= 1, got {op.tile_count}")
                # A double-buffered loop's ping and pong arms are each a scope.
                leak = "loop body must free every tcm buffer it allocates"
                for name, arm in op_regions(op):
                    arm_peak = self.check_scope(arm, f"{path}.{name}", op.tile_count, leak)
                    peak = max(peak, arm_peak)
            elif isinstance(op, Forall):  # lowering rejects it: nothing is walked
                self.err(path, "forall does not run until fork-join lowering (form_async_threads)")
                self.walkable = False
            elif isinstance(op, AsyncExecute):
                self.groups_forked[op.group] = None
                leak = "async region leaks tcm allocations past its end"
                held = self.check_scope(op.body, f"{path}.body", loop, leak) - self.live_bytes
                self.held[op.group] = self.held.get(op.group, 0) + held
                self.live_bytes += held
                peak = max(peak, self.live_bytes)
                if self.live_bytes > self.machine.tcm_capacity:
                    self.err(
                        path,
                        f"tcm capacity exceeded across concurrent async regions:"
                        f" {self.live_bytes} bytes > capacity {self.machine.tcm_capacity}",
                    )
            elif isinstance(op, AwaitAll):
                self.groups_awaited.add(op.group)
                self.live_bytes -= self.held.pop(op.group, 0)
        return peak

    # -- whole-module checks ------------------------------------------------ #

    def check_module(self) -> list[str]:
        seen_ids: set[str] = set()
        for d in self.m.buffers:
            if d.space is not MemSpace.DDR:
                self.err("buffers", f"module buffer @{d.id} must live in ddr space")
            if d.rows < 1 or d.cols < 1:
                self.err("buffers", f"buffer @{d.id} must have at least one row and column")
            if d.id in seen_ids:
                self.err("buffers", f"duplicate buffer id @{d.id}")
            seen_ids.add(d.id)

        top_loops = sum(1 for op in self.m.body if isinstance(op, (ForTiles, Forall)))
        if top_loops > 1:
            self.err("body", f"expected at most one top-level tile loop, found {top_loops}")

        self.check_body(self.m.body, "body", None)

        for d in self.live_tcm.values():
            self.err("body", f"tcm buffer @{d.id} is never deallocated")
        for group in self.groups_forked:
            if group not in self.groups_awaited:
                self.err("body", f"async group @{group} is never awaited")

        self._check_tag_balance()
        return self.diags

    def _check_tag_balance(self) -> None:
        if not self.walkable:
            return
        starts: dict[int, int] = {}
        waits: dict[int, int] = {}
        for step, _ in walk(lower(self.sched).body):
            if step.kind == "transfer" and step.tag is not None:
                starts[step.tag] = starts.get(step.tag, 0) + 1
            elif step.kind == "wait":
                waits[step.op.tag] = waits.get(step.op.tag, 0) + 1
        for tag_id in sorted(set(starts) | set(waits)):
            s, w = starts.get(tag_id, 0), waits.get(tag_id, 0)
            if s != w:
                self.diags.append(
                    f"body: unbalanced tag {tag_id}: {s} dma.start vs {w} dma.wait"
                )


def verify_module(m: TileModule | Schedule, machine: MachineConfig) -> list[str]:
    """All structural violations in the module, empty when valid.  Given a
    schedule, checks its module and walks its steps for tag balance.  A
    fault that lowering raises on is reported at its op, and such a module
    gets no tag-balance walk."""
    return _Checker(m, machine).check_module()
