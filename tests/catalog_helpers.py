"""Catalog descriptors with an open bracket, for the tests of the bounds search.

Every catalog space closes at zcl + 1, so ``tc_bounds`` searches no product
algebra for a spec.  Its product branch is still reached by hand-built
descriptors; ``open_cpn`` builds them.
"""

from dataclasses import replace

from tcplan import catalog


def open_cpn(descriptor: catalog.SpaceDescriptor) -> catalog.SpaceDescriptor:
    """``descriptor`` with every ``cpn`` leaf's category, known value and
    rule count set to None: the bracket [2n + 1, 4n + 1] that CP^n had before
    its category was stored.  Product nodes are rebuilt over the new factors,
    so the top node keeps only its spelling."""
    if descriptor.factors:
        node = catalog._product([open_cpn(f) for f in descriptor.factors])
        return replace(node, spec=descriptor.spec)
    if descriptor.form.kind == "cpn":
        return replace(descriptor, cat=None, known_tc=None, rules=None)
    return descriptor
