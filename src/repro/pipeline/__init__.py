"""The staged compilation pipeline behind :class:`SDXController`.

Stage graph (see ``docs/internals.md`` for the full contract)::

    BGP UPDATEs -> UpdateIngress -> RouteServer (RIB / best paths)
                                        |
    policy edits ----+------------------+--- EventBus / DirtyTracker
                     v                                 |
           [AST] -> [FEC + VNH reconcile] -> [stage-2 build]
                     |                                 |
                     v                                 v
           CompileShards ("policy", name | "chains" | "default")
                     v
              [assemble] -> FabricCommitter -> SDNSwitch flow table
"""

from repro.pipeline.events import (
    ChainsChanged,
    CommitApplied,
    CompileFinished,
    DirtyTracker,
    EventBus,
    PolicyChanged,
    QuarantineLifted,
    RoutesChanged,
)
from repro.pipeline.pipeline import CompilationPipeline
from repro.pipeline.shards import ShardResult, ShardTask, run_shard
from repro.pipeline.stages import BASE_COOKIE, BASE_PRIORITY, FabricCommitter, UpdateIngress

__all__ = [
    "BASE_COOKIE",
    "BASE_PRIORITY",
    "ChainsChanged",
    "CommitApplied",
    "CompilationPipeline",
    "CompileFinished",
    "DirtyTracker",
    "EventBus",
    "FabricCommitter",
    "PolicyChanged",
    "QuarantineLifted",
    "RoutesChanged",
    "ShardResult",
    "ShardTask",
    "UpdateIngress",
    "run_shard",
]
