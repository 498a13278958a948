"""Exception types shared across the package."""


class OrdriskError(Exception):
    """Base class for package errors."""


class DomainError(OrdriskError, ValueError):
    """An argument lies outside its documented domain."""


class OrderViolationError(OrdriskError):
    """Marginals fail the stochastic-order precondition."""

    def __init__(self, report, message=None):
        self.report = report
        if message is None:
            message = (
                f"stochastic order violated: max violation "
                f"{report.max_violation:.3g} at t = {report.witness:.6g}"
            )
        super().__init__(message)


class PlanInfeasibleError(OrdriskError):
    """The discrete coupling ran out of admissible targets.

    Raised by the matching of grid points where some x has no y left at or
    above it. ``dl_plan_discrete`` checks the order first and clamps each y
    point to the x point of its level, so a plan never raises it.
    """


class DegenerateSpreadError(OrdriskError):
    """The dependence-uncertainty spread is empty or inverted."""
