import json
import random

from boxtree.geometry import Box, Region


def random_boxes(n, seed, lo=0.0, hi=1000.0, max_side=50.0):
    """Deterministic random box sets with names 0..n-1."""
    rng = random.Random(seed)
    out = []
    for name in range(n):
        x0 = rng.uniform(lo, hi)
        y0 = rng.uniform(lo, hi)
        out.append(
            Box(name, x0, y0, x0 + rng.uniform(0, max_side), y0 + rng.uniform(0, max_side))
        )
    return out


def merge_region(box, children=()):
    """Region that just encloses ``box`` and up to two child regions: the
    reference merge the builds' regions are checked against.

    Coordinate-wise min of the mins and max of the maxes; with no children
    the region equals the box itself.
    """
    x_min, y_min, x_max, y_max = box.x_min, box.y_min, box.x_max, box.y_max
    for r in children:
        if r.x_min < x_min:
            x_min = r.x_min
        if r.y_min < y_min:
            y_min = r.y_min
        if r.x_max > x_max:
            x_max = r.x_max
        if r.y_max > y_max:
            y_max = r.y_max
    return Region(x_min, y_min, x_max, y_max)


def _node(name, box, lt=None, gt=None):
    """One tree-file line; ``lt``/``gt`` are (child name, child region)."""

    def child(link):
        return None if link is None else {"name": link[0], "region": list(link[1])}

    return json.dumps({"name": name, "box": list(box), "lt": child(lt), "gt": child(gt)})


UNIT = (0.0, 0.0, 1.0, 1.0)

# Tree files that a search must refuse, one per defect.
BAD_TREES = {
    "inverted-box": [_node(0, (5.0, 5.0, 1.0, 1.0))],
    "non-numeric-coordinate": [_node(0, ("a", 0.0, 1.0, 1.0))],
    "duplicate-name": [_node(0, UNIT, lt=(1, UNIT)), _node(1, UNIT), _node(1, UNIT)],
    "dangling-child": [_node(0, UNIT, lt=(99, UNIT))],
    # names below 2^63 but for a child's: the names column must hold it too
    "dangling-child-beyond-int64": [_node(0, UNIT, lt=(2**63, UNIT)), _node(5, UNIT)],
    "no-root": [_node(0, UNIT, lt=(1, UNIT)), _node(1, UNIT, lt=(2, UNIT)),
                _node(2, UNIT, lt=(0, UNIT))],
    "two-roots": [_node(0, UNIT), _node(1, UNIT)],
    "cycle-below-root": [_node(0, UNIT, lt=(1, UNIT)), _node(1, UNIT, lt=(2, UNIT)),
                         _node(2, UNIT, lt=(1, UNIT))],
    "cycle-apart-from-root": [_node(0, UNIT), _node(1, UNIT, lt=(2, UNIT)),
                              _node(2, UNIT, lt=(1, UNIT))],
    "child-reached-twice": [_node(0, UNIT, lt=(1, UNIT), gt=(1, UNIT)), _node(1, UNIT)],
    "region-misses-subtree": [_node(0, UNIT, lt=(1, UNIT)), _node(1, (5.0, 5.0, 6.0, 6.0))],
    # the deeper miss, below node 2, is the one named
    "two-regions-miss-subtrees": [
        _node(0, UNIT, lt=(1, UNIT), gt=(2, (0.0, 0.0, 6.0, 6.0))), _node(1, (5.0, 5.0, 6.0, 6.0)),
        _node(2, UNIT, gt=(3, UNIT)), _node(3, (5.0, 5.0, 6.0, 6.0))],
    "list-name": [_node([1], UNIT)],
    "string-child-name": [_node(0, UNIT, lt=("1", UNIT)), _node(1, UNIT)],
    "bool-name": [_node(True, UNIT)],
    "float-name": [_node(1.5, UNIT)],
    "negative-name": [_node(-3, UNIT)],
    "null-name": [_node(None, UNIT)],
    # float() takes each of these; a tree file's coordinates are JSON numbers
    "string-box": ['{"name":0,"box":"0022","lt":null,"gt":null}'],
    "string-coordinate": [_node(0, ("0.0", "0.0", "1.0", "1.0"))],
    "bool-coordinate": [_node(0, (True, True, 2, 2))],
    "string-region": ['{"name":0,"box":[0,0,1,1],"lt":{"name":1,"region":"0011"},"gt":null}',
                      _node(1, UNIT)],
    # JSON integers beyond the range of a float
    "huge-int-coordinate": [_node(0, (0, 0, 10**400, 1))],
    "huge-int-region": [_node(0, UNIT, lt=(1, (0, 0, 10**400, 1))), _node(1, UNIT)],
}

# The BAD_TREES cases refused when a line is parsed; only a tree file can
# have them, since an in-process tree is made of Box and int values.
PARSE_ERRORS = {
    "non-numeric-coordinate",
    "list-name",
    "string-child-name",
    "bool-name",
    "float-name",
    "negative-name",
    "null-name",
    "string-box",
    "string-coordinate",
    "bool-coordinate",
    "string-region",
    "huge-int-coordinate",
    "huge-int-region",
}
