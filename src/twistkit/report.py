"""Structured pass/fail reporting for the verification pipelines.

A check is a set of named residuals that must vanish: series, or matrices
of series, each with a `first_nonzero()` order.  The report keeps, for
each name, the first order at which that residual is non-zero."""

from __future__ import annotations

from collections import namedtuple


class VerificationReport(namedtuple("VerificationReport", "first_failures")):
    # first_failures: check name -> first failure order, or None when the
    # check passes
    __slots__ = ()

    @classmethod
    def of(cls, residuals: dict) -> "VerificationReport":
        """The report on {name: residual}, in the order of the names."""
        return cls({name: r.first_nonzero() for name, r in residuals.items()})

    @property
    def passed(self) -> bool:
        return all(bad is None for bad in self.first_failures.values())

    def lines(self) -> list[str]:
        return [f"{name}: pass" if bad is None
                else f"{name}: fail (first failure at order {bad})"
                for name, bad in self.first_failures.items()]

    def __str__(self):
        return "\n".join(self.lines())
