"""Scalar SplitMix64, one draw at a time: the reference for generate_instance.

It shares no code with robustkit.experiments, whose batched stream must
match it draw for draw. Tests also use it to draw random parameters.
"""

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


class SplitMix64:
    """Counter-based PRNG: state advances by the golden gamma, output is mixed."""

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN) & MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def randint_upto(self, bound: int) -> int:
        """Uniform integer in {0, ..., bound} by masked rejection sampling."""
        if bound < 0:
            raise ValueError("bound must be >= 0")
        mask = (1 << bound.bit_length()) - 1
        while True:
            r = self.next_u64() & mask
            if r <= bound:
                return r
