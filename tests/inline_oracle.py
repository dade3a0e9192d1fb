"""Round-by-round ISP inliner used as an independent oracle.

Deliberately naive: every round restricts each invoked method's net,
renames a copy of it, and substitutes the whole round into a new host
structure; the regions are updated by scanning every region per ISP.  Only
the data classes of `gnets.model` and the guard substitution are shared
with the library; restriction, renaming, substitution and the id order are
written from scratch.  The result is the library's, arc order aside.
"""

import re
from dataclasses import replace

from gnets import guards
from gnets.model import TAU, GNetModel, InternalStructure, PlaceKind

SEP = "§"  # the separator of renamed-apart ids


def id_order(ident):
    """p2 before p10."""
    return tuple(int(part) if part.isdigit() else part
                 for part in re.split(r"(\d+)", ident))


def _closure(struct, seeds, forward):
    """`seeds` and every node reached from them along (or against) arcs."""
    seen = set(seeds)
    changed = True
    while changed:
        changed = False
        for a, b in struct.arcs:
            src, dst = (a, b) if forward else (b, a)
            if src in seen and dst not in seen:
                seen.add(dst)
                changed = True
    return seen


def restrict(struct, init, goals):
    """The nodes reachable from `init` and co-reachable from `goals`, less
    the transitions with a preset place outside them."""
    keep = _closure(struct, {init}, True) & _closure(struct, goals, False)
    places = {p.id for p in struct.places if p.id in keep}
    trans = {t for t in struct.transitions if t in keep
             and all(a in places for a, b in struct.arcs if b == t)}
    nodes = places | trans
    return InternalStructure(
        places=tuple(p for p in struct.places if p.id in places),
        transitions=tuple(t for t in struct.transitions if t in trans),
        arcs=tuple((a, b) for a, b in struct.arcs
                   if a in nodes and b in nodes),
        inscriptions=tuple((k, v) for k, v in struct.inscriptions
                           if k[0] in nodes and k[1] in nodes),
        conditions=tuple((t, c) for t, c in struct.conditions if t in trans),
        actions=tuple((t, a) for t, a in struct.actions if t in trans),
        labels=tuple((p, lab) for p, lab in struct.labels if p in places))


def rename(struct, suffix):
    def new(ident):
        return ident + SEP + suffix

    return InternalStructure(
        places=tuple(replace(p, id=new(p.id)) for p in struct.places),
        transitions=tuple(new(t) for t in struct.transitions),
        arcs=tuple((new(a), new(b)) for a, b in struct.arcs),
        inscriptions=tuple(((new(a), new(b)), v)
                           for (a, b), v in struct.inscriptions),
        conditions=tuple((new(t), c) for t, c in struct.conditions),
        actions=tuple((new(t), a) for t, a in struct.actions),
        labels=tuple((new(p), lab) for p, lab in struct.labels))


def rename_variables(struct, mapping):
    subst = {old: guards.Var(new) for old, new in mapping.items()}
    return replace(
        struct,
        inscriptions=tuple((k, tuple(guards.subst_expr(e, subst) for e in v))
                           for k, v in struct.inscriptions),
        conditions=tuple((t, guards.subst_condition(c, subst))
                         for t, c in struct.conditions),
        actions=tuple((t, tuple(guards.Assign(mapping.get(a.target, a.target),
                                              guards.subst_expr(a.expr, subst))
                                for a in acts))
                      for t, acts in struct.actions))


def substitute(host, groups):
    """One level: each (ISP id, sub, entry, exits) replaces its ISP.  Kept
    arcs, then redirected arcs in arc order, then the subs' arcs; a
    redirected arc takes the first inscription offered, a sub's own wins."""
    ends = {pid: (entry, exits) for pid, _, entry, exits in groups}
    arcs, inscriptions = [], {}
    ins = dict(host.inscriptions)
    for a, b in host.arcs:
        if a not in ends and b not in ends:
            arcs.append((a, b))
            if (a, b) in ins:
                inscriptions[a, b] = ins[a, b]
    for a, b in host.arcs:
        if b in ends:
            new = [(a, ends[b][0])]
        elif a in ends:
            new = [(x, b) for x in ends[a][1]]
        else:
            continue
        arcs += new
        for arc in new:
            if (a, b) in ins and arc not in inscriptions:
                inscriptions[arc] = ins[a, b]
    subs = [sub for _, sub, _, _ in groups]
    for sub in subs:
        arcs += sub.arcs
        inscriptions.update(sub.inscriptions)
    unique = []
    for arc in arcs:
        if arc not in unique:
            unique.append(arc)
    return InternalStructure(
        places=tuple(p for p in host.places if p.id not in ends)
        + sum((sub.places for sub in subs), ()),
        transitions=host.transitions + sum((s.transitions for s in subs), ()),
        arcs=tuple(unique),
        inscriptions=tuple(sorted(inscriptions.items())),
        conditions=host.conditions + sum((s.conditions for s in subs), ()),
        actions=host.actions + sum((s.actions for s in subs), ()),
        labels=tuple((p, lab) for p, lab in host.labels if p not in ends)
        + sum((s.labels for s in subs), ()))


def inline(ws, reg, depth_limit=16):
    """(inlined service, regions) as `analysis.inline_isps` defines them."""
    service, regions, counter = ws, {}, 0
    for done in range(depth_limit + 1):
        struct = service.net.internal
        isps = sorted((p for p in struct.places if p.kind is PlaceKind.ISP),
                      key=lambda p: id_order(p.id))
        if not isps:
            return service, {k: frozenset(v) for k, v in regions.items()}
        if done == depth_limit:
            break
        attrs = list(service.net.gsp.attributes)
        groups, inits = [], {}
        for isp in isps:
            counter += 1
            suffix = f"i{counter}"
            callee = reg.services[isp.invoked_gnet]
            method = next(m for m in callee.net.gsp.methods
                          if m.name == isp.using_method)
            host_names = {a.name for a in attrs}
            var_map = {a.name: a.name + SEP + suffix
                       for a in callee.net.gsp.attributes
                       if a.name in host_names}
            sub = rename(rename_variables(restrict(
                callee.net.internal, method.init_place,
                set(method.goal_places)), var_map), suffix)
            attrs += [a for a in (replace(a, name=var_map.get(a.name, a.name))
                                  for a in callee.net.gsp.attributes)
                      if a.name not in host_names]
            goals = {g + SEP + suffix for g in method.goal_places}
            labels = dict(sub.labels)
            labels.update((g, TAU) for g in goals)
            sub = replace(sub, places=tuple(
                replace(p, kind=PlaceKind.NORMAL) if p.id in goals else p
                for p in sub.places), labels=tuple(sorted(labels.items())))
            inits[isp.id] = method.init_place + SEP + suffix
            groups.append((isp.id, sub, inits[isp.id],
                           sorted(goals, key=id_order)))
            spliced = {p.id for p in sub.places}
            for members in regions.values():
                if isp.id in members:
                    members.discard(isp.id)
                    members |= spliced
            regions[isp.id] = set(spliced)
        gsp = replace(service.net.gsp, attributes=tuple(attrs), methods=tuple(
            replace(m, init_place=inits.get(m.init_place, m.init_place))
            for m in service.net.gsp.methods))
        service = replace(service, net=GNetModel(
            gsp, substitute(struct, groups)))
    raise RecursionError(f"inlining took more than {depth_limit} rounds")
