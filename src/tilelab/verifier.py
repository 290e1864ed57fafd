"""Structural verifier for tile modules.

Returns a list of diagnostics (empty means valid) rather than raising, so
callers can report every violation at once.  Diagnostics are ordered by op
position; tag-balance findings, which are whole-module properties, come last
in tag order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ir import (
    ANCHORS,
    GUARDED_OPS,
    AddToGroup,
    AllocTcm,
    AsyncExecute,
    AwaitAll,
    BufferDecl,
    Compute,
    Copy,
    DeallocTcm,
    DmaStart,
    FlipToggle,
    Forall,
    ForTiles,
    IfToggle,
    MemSpace,
    Op,
    TileModule,
    ViewRef,
    expr_input_indices,
)
from .lower import lower, walk
from .machine import MachineConfig


@dataclass(frozen=True)
class _LoopCtx:
    iv: str
    tile_count: int
    toggled: bool


def _iv_range(op: Op, loop: _LoopCtx | None) -> tuple[int, int] | None:
    """Executed iv range [lo, hi) of a possibly guarded op, None when the op
    never executes or there is no enclosing loop."""
    if loop is None:
        return None
    lo, hi = 0, loop.tile_count
    lt = getattr(op, "only_if_iv_lt", None)
    ge = getattr(op, "only_if_iv_ge", None)
    if lt is not None:
        hi = min(hi, lt)
    if ge is not None:
        lo = max(lo, ge)
    if lo >= hi:
        return None
    return lo, hi


class _Checker:
    def __init__(self, m: TileModule, machine: MachineConfig):
        self.m = m
        self.machine = machine
        self.diags: list[str] = []
        self.ddr = {d.id: d for d in m.buffers}
        self.live_tcm: dict[str, BufferDecl] = {}
        self.live_bytes = 0
        self.tokens: dict[str, str | None] = {}  # token -> group (None until added)
        self.groups_awaited: set[str] = set()
        self.tag_sites: dict[int, tuple[str, str]] = {}  # id -> (role, dst base)

    def err(self, path: str, msg: str) -> None:
        self.diags.append(f"{path}: {msg}")

    # -- views ------------------------------------------------------------ #

    def check_view(self, path: str, view: ViewRef, op: Op, loop: _LoopCtx | None) -> None:
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
        if loop is not None:
            rng = _iv_range(op, loop)
            if rng is None:
                return  # guarded out on every iteration: the view never resolves
            if view.row_scale == 0:
                candidates = [view.row_base]
            else:
                lo, hi = rng
                candidates = [view.row_offset_at(lo), view.row_offset_at(hi - 1)]
        else:
            candidates = [view.row_base]
        for off in candidates:
            if off < 0 or off + view.row_count > decl.rows:
                self.err(
                    path,
                    f"view of @{view.base} out of bounds: rows [{off}, {off + view.row_count})"
                    f" vs buffer rows {decl.rows}",
                )
                break

    # -- capacity helper for concurrent async regions ----------------------- #

    def _region_peak(self, body: tuple[Op, ...], path: str, loop: _LoopCtx | None, toggled: bool) -> int:
        """Peak extra TCM bytes inside an async region, checked recursively;
        the region must free everything it allocates."""
        saved_live = dict(self.live_tcm)
        saved_bytes = self.live_bytes
        peak = self.check_body(body, path, loop, toggled)
        if set(self.live_tcm) != set(saved_live):
            self.err(path, "async region leaks tcm allocations past its end")
            self.live_tcm = saved_live
            self.live_bytes = saved_bytes
        return peak - saved_bytes

    # -- main walk --------------------------------------------------------- #

    def check_body(
        self,
        body: tuple[Op, ...],
        prefix: str,
        loop: _LoopCtx | None,
        toggled: bool,
    ) -> int:
        """Checks a region; returns the peak concurrent TCM byte count seen."""
        peak = self.live_bytes
        i = 0
        while i < len(body):
            op = body[i]
            path = f"{prefix}[{i}]"
            if op.anchor is not None and op.anchor not in ANCHORS:
                self.err(path, f"unknown anchor attribute {op.anchor!r}")
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
                    seen = self.tag_sites.get(op.tag.id)
                    site = (op.tag.role.value, op.dst.base)
                    if seen is None:
                        self.tag_sites[op.tag.id] = site
                    elif seen != site:
                        self.err(
                            path,
                            f"tag {op.tag.id} reused with a different role or destination"
                            f" ({seen[0]}->@{seen[1]} vs {site[0]}->@{site[1]})",
                        )
            elif isinstance(op, Compute):
                if op.vector_factor < 1:
                    self.err(path, f"vector_factor must be >= 1, got {op.vector_factor}")
                for k, v in enumerate(op.inputs):
                    self.check_view(f"{path}.in{k}", v, op, loop)
                    if v.elems != op.output.elems:
                        self.err(path, f"compute input {k} has {v.elems} elems vs output {op.output.elems}")
                self.check_view(f"{path}.out", op.output, op, loop)
                used = expr_input_indices(op.expr)
                if used != set(range(len(op.inputs))):
                    self.err(
                        path,
                        f"expression input indices {sorted(used)} must be dense"
                        f" over the {len(op.inputs)} declared inputs",
                    )
            elif isinstance(op, ForTiles):
                if op.tile_count < 1:
                    self.err(path, f"loop tile_count must be >= 1, got {op.tile_count}")
                inner = _LoopCtx(op.iv, op.tile_count, op.toggle_init is not None)
                before = dict(self.live_tcm)
                peak = max(
                    peak,
                    self.check_body(op.body, f"{path}.body", inner, toggled or inner.toggled),
                )
                if set(self.live_tcm) != set(before):
                    self.err(path, "loop body must free every tcm buffer it allocates")
                    self.live_tcm = before
                    self.live_bytes = sum(d.nbytes for d in before.values())
            elif isinstance(op, Forall):
                if op.tile_count < 1:
                    self.err(path, f"forall tile_count must be >= 1, got {op.tile_count}")
                if op.threads < 1:
                    self.err(path, f"forall threads must be >= 1, got {op.threads}")
                inner = _LoopCtx(op.iv, op.tile_count, False)
                peak = max(peak, self.check_body(op.body, f"{path}.body", inner, toggled))
            elif isinstance(op, AsyncExecute):
                if op.token in self.tokens:
                    self.err(path, f"duplicate async token %{op.token}")
                self.tokens[op.token] = None
                # Sibling regions of one fork-join group run concurrently, so
                # their scratchpad footprints add up.
                cluster_extra = 0
                j = i
                while j < len(body) and isinstance(body[j], (AsyncExecute, AddToGroup)):
                    sub = body[j]
                    subpath = f"{prefix}[{j}]"
                    if isinstance(sub, AsyncExecute):
                        if j > i and sub.token in self.tokens:
                            self.err(subpath, f"duplicate async token %{sub.token}")
                        self.tokens.setdefault(sub.token, None)
                        cluster_extra += self._region_peak(sub.body, f"{subpath}.body", loop, toggled)
                    else:
                        self._check_add_to_group(sub, subpath)
                    j += 1
                if self.live_bytes + cluster_extra > self.machine.tcm_capacity:
                    self.err(
                        path,
                        f"tcm capacity exceeded across concurrent async regions:"
                        f" {self.live_bytes + cluster_extra} bytes"
                        f" > capacity {self.machine.tcm_capacity}",
                    )
                peak = max(peak, self.live_bytes + cluster_extra)
                i = j
                continue
            elif isinstance(op, AddToGroup):
                self._check_add_to_group(op, path)
            elif isinstance(op, AwaitAll):
                self.groups_awaited.add(op.group)
            elif isinstance(op, IfToggle):
                if not toggled:
                    self.err(path, "if_toggle outside a loop with a carried toggle")
                snapshot = (dict(self.live_tcm), self.live_bytes)
                peak = max(peak, self.check_body(op.then_body, f"{path}.then", loop, toggled))
                self.live_tcm, self.live_bytes = dict(snapshot[0]), snapshot[1]
                peak = max(peak, self.check_body(op.else_body, f"{path}.else", loop, toggled))
                self.live_tcm, self.live_bytes = snapshot
            elif isinstance(op, FlipToggle):
                if not toggled:
                    self.err(path, "flip_toggle outside a loop with a carried toggle")
            i += 1
        return peak

    def _check_add_to_group(self, op: AddToGroup, path: str) -> None:
        if op.token not in self.tokens:
            self.err(path, f"add_to_group of unknown token %{op.token}")
        elif self.tokens[op.token] is not None:
            self.err(path, f"token %{op.token} added to more than one group")
        else:
            self.tokens[op.token] = op.group

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

        self.check_body(self.m.body, "body", None, toggled=False)

        for d in self.live_tcm.values():
            self.err("body", f"tcm buffer @{d.id} is never deallocated")
        for token, group in self.tokens.items():
            if group is None:
                self.err("body", f"async token %{token} never added to a group")
            elif group not in self.groups_awaited:
                self.err("body", f"async group @{group} is never awaited")

        self._check_tag_balance()
        return self.diags

    def _check_tag_balance(self) -> None:
        starts: dict[int, int] = {}
        waits: dict[int, int] = {}
        try:
            for step, _ in walk(lower(self.m).body):
                if step.kind == "transfer" and step.tag is not None:
                    starts[step.tag] = starts.get(step.tag, 0) + 1
                elif step.kind == "wait":
                    waits[step.op.tag.id] = waits.get(step.op.tag.id, 0) + 1
        except ValueError as exc:
            self.err("body", str(exc))
            return
        for tag_id in sorted(set(starts) | set(waits)):
            s, w = starts.get(tag_id, 0), waits.get(tag_id, 0)
            if s != w:
                self.diags.append(
                    f"body: unbalanced tag {tag_id}: {s} dma.start vs {w} dma.wait"
                )


def verify_module(m: TileModule, machine: MachineConfig) -> list[str]:
    """All structural violations in the module, empty when valid."""
    return _Checker(m, machine).check_module()
