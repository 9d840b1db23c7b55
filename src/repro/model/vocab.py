"""Vocabulary abstraction for the synthetic language models.

Real serving systems carry a tokenizer; the simulation only needs token
*identities* (for tree-node equality during verification) and a vocabulary
size (for drawing distinct candidate ids).  Token ids are plain ints in
``[0, size)``.  A few ids at the top of the range are reserved for special
tokens; the models never draw them.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Number of ids reserved at the top of the vocabulary for special tokens.
NUM_SPECIAL_TOKENS = 4


@dataclass(frozen=True)
class Vocabulary:
    """A token id space.

    Parameters
    ----------
    size:
        Total number of token ids, including the reserved special ids.
    """

    size: int = 32_000

    def __post_init__(self) -> None:
        if self.size <= NUM_SPECIAL_TOKENS + 1:
            raise ValueError(f"vocabulary too small: {self.size}")

    @property
    def num_regular(self) -> int:
        """Number of ordinary (non-special) token ids."""
        return self.size - NUM_SPECIAL_TOKENS
