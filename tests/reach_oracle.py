"""Brute-force reachable-marking enumerator used as an independent oracle.

Deliberately naive: no frontier queue, no incremental bookkeeping.  Every
pass recomputes the one-step successors of every known marking and the loop
stops when a pass adds nothing new.  Only the guard evaluator is shared with
the library; the enabling and firing logic here is written from scratch
against the flat-net structure.  Values follow a rule of its own: two are
the same when their reprs are, so the int 1 and the bool True are apart.
"""

from itertools import product

from gnets import guards


def canon(marking):
    """A hashable normal form: empty places dropped, each token paired with
    its repr and the pairs sorted."""
    items = []
    for place in sorted(marking):
        tokens = tuple(sorted((repr(tok), tok) for tok in marking[place]))
        if tokens:
            items.append((place, tokens))
    return tuple(items)


def _thaw(key):
    return {place: [tok for _, tok in tokens] for place, tokens in key}


def _bindings_for(transition, chosen, domains):
    """All complete variable bindings for one choice of input tokens."""
    binding = {}
    for (_, pattern), token in zip(transition.inputs, chosen):
        if len(pattern) != len(token):
            return
        for var, value in zip(pattern, token):
            if var in binding and repr(binding[var]) != repr(value):
                return
            binding[var] = value
    free = set(guards.expr_vars(transition.gate))
    for _, exprs in transition.outputs:
        for e in exprs:
            free |= guards.expr_vars(e)
    free = sorted(free - set(binding))
    for name in free:
        if name not in domains:
            raise ValueError(f"no domain for free variable {name}")
    for values in product(*(domains[name] for name in free)):
        full = dict(binding)
        full.update(zip(free, values))
        yield full


def _one_step(flat, marking):
    """Every marking reachable from `marking` by a single firing."""
    out = []
    for t in flat.transitions:
        pools = []
        for place, _ in t.inputs:
            pools.append(range(len(marking.get(place, []))))
        if any(not pool for pool in pools):
            continue
        for picked in product(*pools):
            # the same token may not be picked twice from one place
            taken = [(place, i) for (place, _), i in zip(t.inputs, picked)]
            if len(set(taken)) < len(taken):
                continue
            chosen = [marking[place][i] for place, i in taken]
            for binding in _bindings_for(t, chosen, flat.domains):
                if not guards.eval_condition(t.gate, binding):
                    continue
                succ = {p: [tok for i, tok in enumerate(toks)
                            if (p, i) not in taken]
                        for p, toks in marking.items()}
                for place, exprs in t.outputs:
                    succ.setdefault(place, []).append(
                        tuple(guards.eval_expr(e, binding) for e in exprs))
                out.append(succ)
    return out


def reachable_markings(flat, initial, max_markings=50000):
    """Fixpoint of the one-step successor relation, as a set of canonical
    markings."""
    known = {canon(initial)}
    while True:
        added = set()
        for key in known:
            for succ in _one_step(flat, _thaw(key)):
                skey = canon(succ)
                if skey not in known:
                    added.add(skey)
        if not added:
            return known
        known |= added
        if len(known) > max_markings:
            raise RuntimeError("oracle exceeded its marking budget")
