"""Shannon entropy of a string, shared by the detector and the lab catalog.

It imports nothing from the scanner, so the lab can derive its markers
without loading the detector.
"""

from __future__ import annotations

import math
from collections import Counter


def shannon_entropy(text: str) -> float:
    """Shannon entropy in bits per character of the string's distribution."""
    if not text:
        return 0.0
    counts = Counter(text)
    total = len(text)
    return max(0.0, -sum((n / total) * math.log2(n / total) for n in counts.values()))
