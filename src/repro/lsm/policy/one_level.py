"""1-leveling: the whole tree is a single leveled run.

Every minor compaction merges L0 straight into one disjoint sorted run
(L1 on a standalone tree, L2 at the Compactor); no deeper level is ever
populated.  Point reads and scans touch at most one table below L0 and
space amplification is minimal, at the cost of rewriting the whole run
proportionally to ingest — the read-optimised extreme of the design
space.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ClassVar

from ..compaction import major_compaction
from ..manifest import LevelEdit
from .base import register_policy
from .leveling import LevelingPolicy

if TYPE_CHECKING:  # pragma: no cover
    from ..sstable import SSTable
    from ..tree import LSMTree


@register_policy
class OneLevelingPolicy(LevelingPolicy):
    """Single leveled level below L0; L2 is the distributed bottom.

    Leveling with the levels below the first one cut off: the level
    shapes, the minor-compaction movement (L0 + L1 fold into a fresh
    leveled L1 run) and the forward selection are inherited.
    """

    name: ClassVar[str] = "one_leveling"
    l2_is_bottom: ClassVar[bool] = True
    overflow_enabled: ClassVar[bool] = False

    def compact_tree(self, tree: "LSMTree") -> None:
        config = tree.config
        if len(tree.manifest.level(0)) <= config.level_thresholds[0]:
            return
        l0 = list(reversed(tree.manifest.level(0)))  # newest first
        # L1 is the bottom: leveled merge, tombstones dropped.
        result, untouched = major_compaction(
            l0,
            tree.manifest.level(1),
            config.sstable_entries,
            tree._effective_keep_policy(bottom=True),
        )
        removed_next = [t for t in tree.manifest.level(1) if t not in untouched]
        edit = (
            LevelEdit()
            .remove(0, l0)
            .remove(1, removed_next)
            .add(1, result.tables)
        )
        tree.manifest.apply(edit)
        tree._record_compaction(1, result.stats)

    def select_l2_overflow(
        self,
        l2_tables: list["SSTable"],
        threshold: int,
        pointer: bytes | None,
    ) -> tuple[list["SSTable"], bytes | None]:
        # L2 never overflows: it is the bottom level.
        return [], pointer
