"""The closure and enumeration code the submodule lattice replaced, kept as
independent oracles: the numpy fixpoint loop of submodule_generated and the
enumeration that closes every frontier ideal with every element."""

import numpy as np

from sgmod.bitset import mask_of, members


def oracle_closure(module, gens):
    """The member mask of the submodule gens generate, by a fixpoint loop."""
    in_set = np.zeros(module.size, dtype=bool)
    in_set[module.zero] = True
    in_set[[int(g) for g in gens]] = True
    new = np.flatnonzero(in_set)
    while new.size:
        # + is commutative, so the new elements against all members meet every
        # sum not met before
        sums = module.add_table[np.ix_(new, np.flatnonzero(in_set))]
        reach = np.zeros(module.size, dtype=bool)
        reach[sums.ravel()] = True
        reach[module.action_table[:, new].ravel()] = True
        new = np.flatnonzero(reach & ~in_set)
        in_set[new] = True
    return mask_of(np.flatnonzero(in_set).tolist())


def oracle_enumerate_submodules(module):
    """Every submodule's member mask, sorted by member tuple: each frontier
    submodule is closed with every element outside it."""
    zero = oracle_closure(module, ())
    known = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for mask in frontier:
            base = members(mask)
            for a in module.elements():
                if mask >> a & 1:
                    continue
                bigger = oracle_closure(module, base + (a,))
                if bigger not in known:
                    known.add(bigger)
                    nxt.append(bigger)
        frontier = nxt
    return sorted(known, key=members)

