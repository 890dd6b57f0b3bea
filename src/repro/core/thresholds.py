"""Counting thresholds (paper Section 5.3).

An AS is classified ``tagger`` when the share of tagger evidence among all
tagging evidence reaches ``tagger_threshold`` (and analogously for the other
three classes).  The paper uses 99% throughout and shows in Section 6.3.1
(Figure 2) that results are not very sensitive to this choice; the ROC sweep
re-runs the inference for thresholds between 50% and 100%.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, replace
from typing import List


@dataclass(frozen=True)
class Thresholds:
    """The four classification thresholds, each in ``(0.5, 1.0]``."""

    tagger: float = 0.99
    silent: float = 0.99
    forward: float = 0.99
    cleaner: float = 0.99

    def __post_init__(self) -> None:
        for name in ("tagger", "silent", "forward", "cleaner"):
            value = getattr(self, name)
            if not 0.5 < value <= 1.0:
                raise ValueError(
                    f"{name} threshold must be in (0.5, 1.0], got {value}"
                )

    @classmethod
    def uniform(cls, value: float) -> "Thresholds":
        """All four thresholds set to the same *value* (Figure 2 sweep)."""
        return cls(tagger=value, silent=value, forward=value, cleaner=value)

    def with_tagging(self, value: float) -> "Thresholds":
        """Copy with only the tagging-side thresholds changed."""
        return replace(self, tagger=value, silent=value)

    def with_forwarding(self, value: float) -> "Thresholds":
        """Copy with only the forwarding-side thresholds changed."""
        return replace(self, forward=value, cleaner=value)

    def as_list(self) -> List[float]:
        """``[tagger, silent, forward, cleaner]``: the stored and served form,
        read back by ``Thresholds(*values)``."""
        return list(astuple(self))


#: The paper's default configuration.
DEFAULT_THRESHOLDS = Thresholds()
