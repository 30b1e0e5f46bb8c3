"""Exception types shared across the package, the export limits that the
command line and the library both check with ConfigError, the integer rule
for counts and seeds, and the memory ceiling that both the ensemble and the
path matrix are refused above."""

import operator
import os
import resource

GRID_POINTS = 101            # default samples of the planned timeline [0, PD] at export
MAX_GRID_POINTS = 1_000_000  # the most it takes: bounds an export's arrays and file
MAX_BINS = 100_000           # the most histogram bins; bounds the histogram's arrays

_CGROUP_MEMORY_MAX = "/sys/fs/cgroup/memory.max"  # this process's cgroup v2 limit
_CGROUP_V1_LIMIT = "/sys/fs/cgroup/memory/memory.limit_in_bytes"  # and its v1 limit


class RiskMcError(Exception):
    """Base class for every domain error raised by riskmc."""


class SpecError(RiskMcError):
    """A project definition violates a structural or field invariant."""


class BadDistributionParams(SpecError):
    pass


class BadDefinition(SpecError):
    """An activity, risk, or observation field is out of range."""


class DuplicateId(SpecError):
    pass


class UnknownPredecessor(SpecError):
    """A precedence pair or matrix column names no declared activity."""


class BadPrecedence(SpecError):
    """An activity is listed as its own predecessor."""


class BadDummy(SpecError):
    """Dummy start/end must have zero duration and zero cost."""


class BadRiskTarget(SpecError):
    pass


class CycleDetected(SpecError):
    def __init__(self, cycle):
        self.cycle = tuple(cycle)
        super().__init__("precedence cycle: " + " -> ".join(self.cycle))


class MultipleSources(SpecError):
    def __init__(self, ids):
        self.ids = tuple(ids)
        super().__init__("expected exactly one source (dummy start), found: "
                         + (", ".join(self.ids) or "none"))


class MultipleSinks(SpecError):
    def __init__(self, ids):
        self.ids = tuple(ids)
        super().__init__("expected exactly one sink (dummy end), found: "
                         + (", ".join(self.ids) or "none"))


class ParseError(RiskMcError):
    """Project-file diagnostic carrying a source location."""

    def __init__(self, message, source="<string>", line=None):
        self.source = source
        self.line = line
        where = source if line is None else f"{source}:{line}"
        super().__init__(f"{where}: {message}")


class ProjectSyntaxError(ParseError):
    pass


class UnknownField(ParseError):
    pass


class PathExplosion(RiskMcError):
    pass


class EmptySample(RiskMcError):
    pass


class ConfigError(RiskMcError):
    pass


class EvOutOfRange(RiskMcError):
    pass


class EvZero(RiskMcError):
    pass


class KTooLarge(RiskMcError):
    pass


class DegenerateProject(RiskMcError):
    pass


def check_integer(name, value, least=None) -> int:
    """value as an int; ConfigError unless it is an integer (an int or a numpy
    integer, never a float) of at least `least`."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        raise ConfigError(f"{name} must be >= {least}, got {value}")
    return value


def _memory_ceiling() -> int:
    """Bytes one command may plan to use: physical memory, or the
    address-space limit (RLIMIT_AS) or a cgroup v2 or v1 memory limit where
    one is lower."""
    limits = [os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")]
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    if soft != resource.RLIM_INFINITY:
        limits.append(soft)
    for path in (_CGROUP_MEMORY_MAX, _CGROUP_V1_LIMIT):
        try:
            with open(path, "rb") as fh:
                cgroup = fh.read().strip()  # a byte count; v2 writes "max" for none
        except OSError:  # absent outside a cgroup hierarchy of that version
            continue
        if cgroup.isdigit():
            limits.append(int(cgroup))
    return min(limits)


def check_memory(error, count, unit, n_nodes, need_of, need="need"):
    """Refuse, before anything is allocated, `count` runs or paths (`unit`)
    of `n_nodes` nodes that would need need_of(count) bytes, above
    _memory_ceiling(): raise `error`, naming the most that fit. need_of is
    non-decreasing and at least 1 B per unit."""
    ceiling = _memory_ceiling()
    bytes_needed = need_of(count)
    if bytes_needed > ceiling:
        lo, hi = 0, min(count - 1, ceiling)  # the most that fit is in [lo, hi]
        while lo < hi:
            mid = (lo + hi + 1) // 2
            lo, hi = (mid, hi) if need_of(mid) <= ceiling else (lo, mid - 1)
        raise error(f"{count} {unit} of {n_nodes} nodes {need} "
                    f"{bytes_needed / 2**30:.3g} GiB, above the "
                    f"{ceiling / 2**30:.3g} GiB memory ceiling; at most "
                    f"{lo} {unit} fit")
