"""The work budget that bounds every search in the package.

A search is charged the work it is about to do, or has done so far,
against one limit: the explicit budget argument, else QOWS_BUDGET, else
DEFAULT_BUDGET. Work over the limit ends the search with BudgetExceeded,
raised here and nowhere else, with a message that names the work and the
limit. A charge takes the limit resolved once, so a running charge costs a
comparison. A budget is an integer by as_integer's rule, which the
package's lengths, positions and packed values follow too.
"""
import operator
import os

from .errors import BudgetExceeded, FormatError

DEFAULT_BUDGET = 1 << 24


def as_integer(x, error, what):
    """x as an int by operator.index, so numpy integers and bools count;
    error naming what if x is no integer. Budgets, lengths, positions and
    packed values follow this rule, and so does a symbol (core._is_symbol)."""
    try:
        return operator.index(x)
    except TypeError:
        raise error(f"{what} must be an integer, got {x!r}") from None


def resolve_budget(budget=None):
    """Budget precedence: explicit argument, QOWS_BUDGET, built-in default.
    A budget must be a non-negative integer; numpy integers count as one."""
    if budget is not None:
        limit, what = as_integer(budget, FormatError, "budget"), "budget"
    else:
        env = os.environ.get("QOWS_BUDGET")
        try:
            limit, what = int(env) if env else DEFAULT_BUDGET, "QOWS_BUDGET"
        except ValueError:
            raise FormatError(f"QOWS_BUDGET must be an integer, got {env!r}")
    if limit < 0:
        raise FormatError(f"{what} must be non-negative, got {limit}")
    return limit


def over_by_exponent(base, exp, limit):
    """Whether base**exp is over limit by its exponent alone: base^exp >=
    2^exp for base > 1, so an exponent of limit's bit length or more puts
    it over without the power being computed."""
    return base > 1 and exp >= limit.bit_length()


def refuse(what, limit, verb="exceeds"):
    """Raise BudgetExceeded: what, the work, is over limit."""
    raise BudgetExceeded(f"{what} {verb} budget {limit}")


def charge(total, limit, what, verb="exceeds"):
    """Refuse total units of work, what naming them, if over limit."""
    if total > limit:
        refuse(what, limit, verb)


def charge_steps(leaders, n, limit):
    """Charge the leaders * n e-steps of one evaluation, leaders steps over
    n symbols each; the message is formatted only on refusal."""
    if leaders * n > limit:
        refuse(f"{leaders} leaders times {n} symbols", limit)


def charge_power(base, exp, limit, what):
    """Charge base**exp units, named in the message by what followed by the
    power, as base^exp when its exponent alone puts it over limit, else by
    its value."""
    if over_by_exponent(base, exp, limit):
        refuse(f"{what} {base}^{exp}", limit)
    total = base**exp
    if total > limit:
        refuse(f"{what} {total}", limit)
