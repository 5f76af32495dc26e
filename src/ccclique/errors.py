"""Exception types shared across the simulator and coloring algorithms.

Verification *results* (e.g. an improper edge found by a checker) are plain
values, not exceptions; the classes here signal contract violations or
desk-scale parameter rejections that callers are expected to handle.
"""


class CliqueError(Exception):
    """Base class for all package errors."""


class BandwidthViolation(CliqueError):
    """A message exceeded the word size, or an ordered pair was used twice
    in one round."""

    def __init__(self, src, dst, bits):
        self.src, self.dst, self.bits = src, dst, bits
        super().__init__(f"pair ({src}->{dst}) sent {bits} bits in one round")


class SeedLengthMismatch(CliqueError):
    """Seed bit-string does not match the hash family's required length."""


class ChunkTooWide(CliqueError):
    """A seed-search chunk needs more leader nodes than the clique has."""


class DegreeTooLarge(CliqueError):
    """Graph degree violates an operation's admissibility precondition."""


class ParameterViolation(CliqueError):
    """Caller-supplied algorithm parameters violate a stated precondition."""


class PlanRejected(CliqueError):
    """A partition plan's probabilities are invalid at this scale."""


class AllocationOverflow(CliqueError):
    """Measured part degrees `need` more colors than are `available`."""

    def __init__(self, need: int, available: int):
        self.need, self.available = need, available
        super().__init__(f"sum of child palettes {need} exceeds {available}")


class NoZeroViolationSeed(CliqueError):
    """Derandomized partition cannot certify zero degree-cap violations."""


class InputError(CliqueError):
    """Malformed external input (files, CLI arguments)."""
