"""Inferred community usage classes (paper Section 5.5).

The classifier assigns every AS a two-character string: the first character
describes the inferred *tagging* behaviour, the second the inferred
*forwarding* behaviour.  Each character is one of

* ``t`` / ``s`` -- tagger / silent (respectively ``f`` / ``c`` -- forward /
  cleaner),
* ``u`` -- undecided: counters exist but neither threshold is met
  (conflicting evidence, e.g. selective tagging),
* ``n`` -- none: no counter was ever increased (no usable evidence).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.usage.roles import ForwardingRole, TaggingRole


class TaggingClass(enum.Enum):
    """Inferred tagging behaviour."""

    TAGGER = "t"
    SILENT = "s"
    UNDECIDED = "u"
    NONE = "n"

    @property
    def code(self) -> str:
        """Single-character code used in the paper's tables."""
        return self.value

    @property
    def is_decided(self) -> bool:
        """``True`` for tagger / silent inferences."""
        return self in (TaggingClass.TAGGER, TaggingClass.SILENT)

    @classmethod
    def from_role(cls, role: TaggingRole) -> "TaggingClass":
        """The class matching a ground-truth role (used for scoring)."""
        return cls.TAGGER if role is TaggingRole.TAGGER else cls.SILENT

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class ForwardingClass(enum.Enum):
    """Inferred forwarding behaviour."""

    FORWARD = "f"
    CLEANER = "c"
    UNDECIDED = "u"
    NONE = "n"

    @property
    def code(self) -> str:
        """Single-character code used in the paper's tables."""
        return self.value

    @property
    def is_decided(self) -> bool:
        """``True`` for forward / cleaner inferences."""
        return self in (ForwardingClass.FORWARD, ForwardingClass.CLEANER)

    @classmethod
    def from_role(cls, role: ForwardingRole) -> "ForwardingClass":
        """The class matching a ground-truth role (used for scoring)."""
        return cls.FORWARD if role is ForwardingRole.FORWARD else cls.CLEANER

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class UsageClassification:
    """The complete inferred classification of one AS."""

    tagging: TaggingClass
    forwarding: ForwardingClass

    @property
    def code(self) -> str:
        """Two-character code, e.g. ``tf``, ``sc``, ``nu``."""
        return self.tagging.code + self.forwarding.code

    @property
    def is_full(self) -> bool:
        """``True`` when both behaviours were decided (tf, tc, sf, sc)."""
        return self.tagging.is_decided and self.forwarding.is_decided

    @property
    def is_partial(self) -> bool:
        """``True`` when exactly one behaviour was decided."""
        return self.tagging.is_decided != self.forwarding.is_decided

    @property
    def is_empty(self) -> bool:
        """``True`` when no behaviour was decided at all."""
        return not self.tagging.is_decided and not self.forwarding.is_decided

    @classmethod
    def from_code(cls, code: str) -> "UsageClassification":
        """Parse a two-character code such as ``"tf"`` or ``"nu"``."""
        if len(code) != 2:
            raise ValueError(f"invalid classification code {code!r}")
        return cls(TaggingClass(code[0]), ForwardingClass(code[1]))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.code


#: The class assigned when an AS was never seen at all.
UNCLASSIFIED = UsageClassification(TaggingClass.NONE, ForwardingClass.NONE)

#: The 16 two-character codes, indexed ``4 * tagging + forwarding`` in enum
#: order -- what :func:`repro.core.counters.class_code_indices` indexes into.
CLASS_CODES = tuple(t.value + f.value for t in TaggingClass for f in ForwardingClass)

#: Each of :data:`CLASS_CODES` parsed once, keyed by its code.
CLASSIFICATIONS = {code: UsageClassification.from_code(code) for code in CLASS_CODES}
