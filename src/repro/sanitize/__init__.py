"""Data sanitation pipeline (paper Section 4.1).

Before inference the raw collector data is filtered and transformed "so as
not to impart unintentional bias":

1. routing information with unallocated prefixes or ASNs is removed,
2. AS paths containing AS_SETs are removed,
3. the MRT Peer AS Number is prepended to the AS path when ``A_1`` differs
   from it (IXP route servers),
4. path prepending is collapsed, and
5. observations are deduplicated into unique ``(path, comm)`` tuples.

In addition, :mod:`repro.sanitize.sources` classifies each community of an
observation into the paper's source groups *peer*, *foreign*, *stray*, and
*private* (Section 3.2).
"""

from repro.sanitize.filters import SanitationStats, Sanitizer
from repro.sanitize.sources import CommunitySource, classify_community, classify_community_set

__all__ = [
    "SanitationStats",
    "Sanitizer",
    "CommunitySource",
    "classify_community",
    "classify_community_set",
]
