"""Catalog descriptors with an open bracket, for the tests of the bounds search,
and the candidate-list bracket that ``tc_bounds`` must agree with.

Every catalog space closes at zcl + 1, so ``tc_bounds`` searches no product
algebra for a spec.  Its product branch is still reached by hand-built
descriptors; ``open_cpn`` builds them.
"""

from dataclasses import replace
from operator import itemgetter

from tcplan import catalog


def open_cpn(descriptor: catalog.SpaceDescriptor) -> catalog.SpaceDescriptor:
    """``descriptor`` with every ``cpn`` leaf's category, known value and
    rule count set to None: the bracket [2n + 1, 4n + 1] that CP^n had before
    its category was stored.  Product nodes are rebuilt over the new factors,
    so the top node keeps only its spelling."""
    if descriptor.factors:
        node = catalog._product(descriptor.form, [open_cpn(f) for f in descriptor.factors])
        return replace(node, spec=descriptor.spec)
    if descriptor.form.kind == "cpn":
        return replace(descriptor, cat=None, known_tc=None, rules=None)
    return descriptor


def candidate_tc_bounds(descriptor: catalog.SpaceDescriptor) -> tuple[catalog.BoundsReport, int]:
    """``catalog._tc_bounds`` written as lists of candidates, with a report
    at every node: of equal candidates ``min`` and ``max`` return the first
    listed, which is the order the one-report recursion must keep."""
    factors = [candidate_tc_bounds(f) for f in descriptor.factors]

    uppers: list[tuple[int, str]] = []
    if descriptor.rules is not None:
        uppers.append((descriptor.rules, "planner rule count"))
    if factors:
        total = sum(report.upper for report, _ in factors)
        uppers.append((total - (len(factors) - 1), "product inequality"))
    uppers.append((2 * descriptor.geometry_dim + 1, "dimension bound"))
    if descriptor.cat is not None:
        uppers.append((2 * descriptor.cat - 1, "category bound"))
    upper, upper_why = min(uppers, key=itemgetter(0))

    if not factors:
        cup_length = catalog._cup_length(descriptor.algebra)
    else:
        cup_length = sum(length for _, length in factors)
        if cup_length + 1 != upper:
            cup_length = catalog.zdcl(descriptor.algebra).length

    lowers: list[tuple[int, str]] = []
    if descriptor.contractible:
        lowers.append((1, "contractible"))
    lowers.append((cup_length + 1, "cup-length lower bound"))
    if descriptor.cat is not None:
        lowers.append((descriptor.cat, "category lower bound"))
    if not descriptor.contractible:
        lowers.append((2, "non-contractible"))
    lower, lower_why = max(lowers, key=itemgetter(0))

    report = catalog.BoundsReport(
        space=str(descriptor.spec),
        lower=lower,
        upper=upper,
        lower_provenance=lower_why,
        upper_provenance=upper_why,
        exact=lower == upper,
    )
    return report, cup_length
