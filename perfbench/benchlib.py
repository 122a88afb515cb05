"""Pure helpers of the benchmark: percentile selection, spec F1 against the
generator's ground truth, and span self-time arithmetic.

They have no I/O and no dependency on the program, so test_benchlib.py can
check them in isolation.
"""

import math

ROLES = ("source", "sanitizer", "sink")

# Tail percentiles the benchmark may report, highest last. The reported tail
# is the highest of these with at least TAIL_BEYOND samples beyond it.
TAIL_LADDER = (50.0, 90.0, 99.0)
TAIL_BEYOND = 10


def nearest_rank(sorted_values, pct):
    """The nearest-rank percentile `pct` (0 < pct <= 100) of a sorted list."""
    if not sorted_values:
        raise ValueError("no samples")
    return sorted_values[rank_of(pct, len(sorted_values)) - 1]


def rank_of(pct, count):
    """1-based nearest rank of percentile `pct` among `count` samples."""
    # The epsilon keeps 90% of 100 at rank 90 despite binary fractions.
    return max(1, math.ceil(pct / 100.0 * count - 1e-9))


def tail_percentile(values):
    """(label, value) of the highest ladder percentile that has at least
    TAIL_BEYOND samples beyond it; with too few samples for any of them,
    the maximum."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    best = None
    for pct in TAIL_LADDER:
        if len(ordered) - rank_of(pct, len(ordered)) >= TAIL_BEYOND:
            best = pct
    if best is None:
        return "max", ordered[-1]
    return "p%g" % best, nearest_rank(ordered, best)


def parse_learned_spec(text):
    """{(rep, role): score} from the learned-spec text format
    ("<role> <score> <representation>" lines, '#' comments)."""
    scores = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        role, score, rep = line.split(" ", 2)
        scores[(rep, role)] = float(score)
    return scores


def parse_seed_reps(text):
    """Every representation the seed spec names, whatever its role."""
    reps = set()
    for line in text.splitlines():
        line = line.strip()
        if line[:2] in ("o:", "a:", "i:"):
            reps.add(line[2:].strip())
    return reps


def parse_truth(text):
    """{role: set(rep)} from the corpus writer's "role<TAB>rep" lines."""
    truth = {role: set() for role in ROLES}
    for line in text.splitlines():
        if line:
            role, rep = line.split("\t", 1)
            truth[role].add(rep)
    return truth


def macro_f1(scores, truth, seed_reps, threshold=0.1):
    """Mean over the three roles of the F1 of the representations scored at
    or above `threshold`, seeded representations excluded from both the
    predictions and the truth."""
    total = 0.0
    for role in ROLES:
        predicted = {rep for (rep, r), s in scores.items()
                     if r == role and s >= threshold and rep not in seed_reps}
        relevant = truth[role] - seed_reps
        correct = len(predicted & relevant)
        precision = correct / len(predicted) if predicted else 0.0
        recall = correct / len(relevant) if relevant else 0.0
        if precision + recall > 0:
            total += 2 * precision * recall / (precision + recall)
    return total / len(ROLES)


def covered_length(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    that its children cover. `spans` are dicts with start, end and parent
    (the index of the parent span, or -1)."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span["parent"] >= 0:
            children[span["parent"]].append(i)
    out = []
    for i, span in enumerate(spans):
        lo, hi = span["start"], span["end"]
        clipped = [(max(lo, spans[c]["start"]), min(hi, spans[c]["end"]))
                   for c in children[i]]
        clipped = [(a, b) for a, b in clipped if b > a]
        out.append((hi - lo) - covered_length(clipped))
    return out


def layer_self_times(spans, roots):
    """({name: summed self time}, traced wall) over `spans`; spans named in
    `roots` are the tracer's own grouping spans, not layers, so their self
    time is the unattributed part of the traced wall."""
    own = self_times(spans)
    layers = {}
    wall = 0.0
    for span, self_s in zip(spans, own):
        if span["parent"] < 0:
            wall += span["end"] - span["start"]
        if span["name"] not in roots:
            layers[span["name"]] = layers.get(span["name"], 0.0) + self_s
    return layers, wall
