"""Exception types shared across the package, and the export limits that
the command line and the library both check with ConfigError."""

GRID_POINTS = 101            # default samples of the planned timeline [0, PD] at export
MAX_GRID_POINTS = 1_000_000  # the most it takes: bounds an export's arrays and file
MAX_BINS = 100_000           # the most histogram bins; bounds the histogram's arrays


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
