"""Reference static CFG: the `Cfg` object that `cfg_json` and `build_cfg` replaced.

`_partition` builds blocks, `Edge` objects and the static loops; `Cfg.to_json`
is the old `cfattest cfg` output and `Cfg.loop_entries` the old loop-body
map of the structural decode.  Tests compare `isa.cfg_json` and
`attestation.build_cfg(p).loops` against them.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Optional

from cfattest.isa import (CALL, INDIRECT_CALL, INDIRECT_JUMP, JUMP, NOT_TAKEN, RETURN,
                          STRAIGHT_KINDS, TAKEN, WORD, Program)

EDGE_FALLTHROUGH = "fallthrough"
EDGE_TAKEN = "taken"
EDGE_CALL = "call"
EDGE_RETURN_ANY = "return-any"
EDGE_INDIRECT_ANY = "indirect-any"
_EDGE_KIND = {NOT_TAKEN: EDGE_FALLTHROUGH, TAKEN: EDGE_TAKEN, JUMP: EDGE_TAKEN, CALL: EDGE_CALL,
              INDIRECT_CALL: EDGE_INDIRECT_ANY, INDIRECT_JUMP: EDGE_INDIRECT_ANY,
              RETURN: EDGE_RETURN_ANY}


@dataclass(frozen=True, order=True)
class Edge:
    src: int
    dest: Optional[int]  # None for statically unresolved targets
    kind: str


@dataclass(frozen=True, order=True)
class Block:
    start: int
    end: int  # address of the last instruction in the block


@dataclass(frozen=True)
class Cfg:
    blocks: tuple[Block, ...]
    edges: frozenset[Edge]
    static_loops: tuple[tuple[int, int], ...]  # (entry addr, backedge addr)

    def loop_entries(self) -> Mapping[int, int]:
        """entry -> largest backedge address (loop body upper bound).

        Built once per Cfg: the verifier looks it up for every reported path.
        """
        return self._loop_entries

    @cached_property
    def _loop_entries(self) -> Mapping[int, int]:
        out: dict[int, int] = {}
        for entry, backedge in self.static_loops:
            out[entry] = max(out.get(entry, 0), backedge)
        return MappingProxyType(out)

    def to_json(self) -> dict:
        def hx(a):
            return "any" if a is None else f"0x{a:x}"

        return {
            "blocks": [{"start": hx(b.start), "end": hx(b.end)} for b in self.blocks],
            "edges": [
                {"src": hx(e.src), "dest": hx(e.dest), "kind": e.kind}
                for e in sorted(self.edges, key=lambda e: (e.src, e.kind, -1 if e.dest is None else e.dest))
            ],
            "static_loops": [
                {"entry": hx(en), "backedge": hx(be)} for en, be in self.static_loops
            ],
        }


def _partition(p: Program) -> Cfg:
    """Partition a program into basic blocks at its leaders and collect static edges.

    The edges are the program's branch sites, plus a fallthrough edge out of
    each block that ends on a straight-line instruction.  static_loops holds
    exactly the sites' static loop backedges (`Sites.backward`); subroutine
    calls (linking) never qualify.
    """
    starts = p.leaders
    blocks = [Block(s, e - WORD) for s, e in zip(starts, starts[1:] + (p.end,))]

    edges = {Edge(src, dest, _EDGE_KIND[kind]) for src, dest, kind in p.sites.site.values()}
    edges.update(Edge(b.end, b.end + WORD, EDGE_FALLTHROUGH) for b in blocks
                 if b.end + WORD < p.end and p.instr_at(b.end).kind in STRAIGHT_KINDS)
    static_loops = sorted((dest, src) for src, dest in p.sites.backward.values())
    return Cfg(tuple(blocks), frozenset(edges), tuple(static_loops))
