"""Exception hierarchy shared across the package."""


class GnetError(Exception):
    """Base class for all library errors."""


class ParseError(GnetError):
    """Syntax error in a guard expression or composition expression."""

    def __init__(self, position, message):
        super().__init__(f"at {position}: {message}")
        self.position = position
        self.message = message


class UnboundVariable(GnetError):
    def __init__(self, name):
        super().__init__(f"unbound variable {name!r}")
        self.name = name


class TypeMismatch(GnetError):
    pass


class UnknownService(GnetError):
    def __init__(self, name):
        super().__init__(f"unknown service {name!r}")
        self.name = name


class DuplicateService(GnetError):
    def __init__(self, name):
        super().__init__(f"duplicate service {name!r}")
        self.name = name


class UnknownBlock(GnetError):
    def __init__(self, name):
        super().__init__(f"unknown block {name!r}")
        self.name = name


class UnknownMethod(GnetError):
    def __init__(self, service, method):
        super().__init__(f"service {service!r} has no method {method!r}")
        self.service = service
        self.method = method


class ArityMismatch(GnetError):
    pass


class EmptyBranchSet(GnetError):
    pass


class MissingReqMethod(GnetError):
    def __init__(self, service):
        super().__init__(f"service {service!r} declares no 'req' method")
        self.service = service


class MalformedBlock(GnetError):
    pass


class EmptyReplacement(GnetError):
    pass


class DepthLimitExceeded(GnetError):
    pass


class SubnetDeadlock(GnetError):
    """An invoked method that stopped short of its goal: its `outcome`
    (Deadlock or StepLimit), the firing events of its partial `trace` and
    its final frozen `marking`."""

    def __init__(self, message, outcome=None, trace=(), marking=frozenset()):
        super().__init__(message)
        self.outcome = outcome
        self.trace = trace
        self.marking = marking


class UnboundFreeVariable(GnetError):
    def __init__(self, name):
        super().__init__(f"free variable {name!r} has no declared domain")
        self.name = name


class UnflattenableIsp(GnetError):
    pass


class InvalidModel(GnetError):
    """A model that `validate` rejects; the message is its report."""
