"""The benchmark workloads: inputs, one library call sequence per item, checks.

``build(name, seed, call)`` imports ``m2alg``, builds the fixtures and
returns a Workload whose steps form one pass.  Each step returns the
canonical output text of its item (hashed into the run's digest) and
raises when its check fails.  ``call(layer, fn, *args)`` is how every step
calls into the library, so the traced run can record a span per call.

* ``words``: the word problem over Q, as ``m2alg reduce`` does it.  Words
  are a seeded stratified sample of the uniform random words of length
  1..16: every 80 consecutive words hold one word of each length at each
  exponent pair, and within a (pair, length) stratum the number of y's and
  whether two y's are adjacent get their exact proportional share of the
  pass.  Seeds change which words are drawn, not the mix; the mix matters
  because a word with "yy" is zero at once while a long word without one
  can cost a thousand times more.
* ``structure``: L = A[s,t]/I with its witness matrices, over Q and GF(3),
  on a fixed ascending grid of coprime pairs.
* ``membership``: a classification table over F_7, F_13 and Q with every
  verdict refereed, like ``m2alg table --oracle``, on fixed ascending grids.
"""

import math
import random

WORD_PAIRS = ((5, 4), (4, 3), (7, 3), (9, 8), (10, 7))
WORD_MAX_LEN = 16
WORD_ROUNDS = 60  # 60 * 80 = 4800 words per pass

STRUCTURE_PAIRS = tuple(
    (i, j) for i in range(2, 14) for j in range(1, i) if math.gcd(i, j) == 1
) + ((17, 16), (21, 20))

FP_GRIDS = ((7, 40), (13, 24))  # (p, largest i and j)
Q_MAX = 40
Q_WITNESS_MAX = 20

NAMES = ("words", "structure", "membership")


class CheckFailed(Exception):
    """An item's output failed the benchmark's correctness check."""


class Step:
    __slots__ = ("label", "is_item", "run")

    def __init__(self, label, is_item, run):
        self.label = label
        self.is_item = is_item
        self.run = run


class Workload:
    def __init__(self, steps, counters):
        self.steps = steps
        self.counters = counters  # exact work counts from returned values


def build(name, seed, call, word_rounds=WORD_ROUNDS):
    if name == "words":
        return _words(seed, call, word_rounds)
    if name == "structure":
        return _structure(call)
    if name == "membership":
        return _membership(call)
    raise ValueError(f"unknown workload {name!r}")


def _words(seed, call, rounds):
    from m2alg.fields import QQ
    from m2alg.freealg import NCPoly, Word, build_rewrite_system, matrix_model, reduce

    counters = {"freealg.reduce.nf_terms": 0}
    systems = {pair: build_rewrite_system(*pair, QQ) for pair in WORD_PAIRS}
    models = {pair: matrix_model(*pair, QQ) for pair in WORD_PAIRS}

    def step(pair, letters):
        expr = NCPoly.of_word(Word.from_letters(letters), QQ)
        rs = systems[pair]
        model = models[pair]

        def run():
            nf = call("freealg.reduce", reduce, expr, rs)
            counters["freealg.reduce.nf_terms"] += len(nf.terms)
            if call("freealg.image", model.image, expr) != call(
                "freealg.image", model.image, nf
            ):
                raise CheckFailed(f"{letters} at {pair}: image of normal form differs")
            return f"{expr.text()} -> {nf.text()}"

        return Step(f"{pair[0]},{pair[1]} {letters}", True, run)

    rng = random.Random(seed)
    strata = [(pair, n) for pair in WORD_PAIRS for n in range(1, WORD_MAX_LEN + 1)]
    shapes = {stratum: _shape_schedule(rng, stratum[1], rounds) for stratum in strata}
    steps = []
    for r in range(rounds):
        rng.shuffle(strata)
        for pair, n in strata:
            steps.append(step(pair, _draw_word(rng, n, *shapes[pair, n][r])))
    return Workload(steps, counters)


def _word_shapes(n):
    """(y count, has "yy", probability) over the uniform words of length n."""
    shapes = []
    for k in range(n + 1):
        apart = math.comb(n - k + 1, k)
        together = math.comb(n, k) - apart
        if apart:
            shapes.append((k, False, apart / 2**n))
        if together:
            shapes.append((k, True, together / 2**n))
    return shapes


def _shape_schedule(rng, n, rounds):
    """One shape per round, each shape in proportion to its probability."""
    picks = []
    for r in range(rounds):
        u = (r + 0.5) / rounds
        acc = 0.0
        for k, together, prob in _word_shapes(n):
            acc += prob
            if u < acc:
                break
        picks.append((k, together))
    rng.shuffle(picks)
    return picks


def _draw_word(rng, n, k, together):
    """A uniform word of length n with k y's, with or without a "yy"."""
    if together:
        while True:
            ys = set(rng.sample(range(n), k))
            if any(p + 1 in ys for p in ys):
                break
    else:
        gaps = sorted(rng.sample(range(n - k + 1), k))
        ys = {g + i for i, g in enumerate(gaps)}
    return "".join("y" if p in ys else "x" for p in range(n))


def _structure(call):
    from m2alg.fields import GF, QQ
    from m2alg.groebner import structure_basis
    from m2alg.model import witness_XY

    def step(i, j, field):
        def run():
            gb = call("groebner.buchberger", structure_basis, i, j, field)
            call("model.witness", witness_XY, i, j, field, gb=gb)
            dim = gb.dimension()
            if dim != (i + j - 1) * (i - j) // 2:
                raise CheckFailed(f"dim L = {dim} at ({i}, {j}) over {field.name}")
            return " ; ".join(g.text() for g in gb.polys) + f" dim={dim}"

        return Step(f"{field.name} {i},{j}", True, run)

    steps = [step(i, j, field) for field in (QQ, GF(3)) for i, j in STRUCTURE_PAIRS]
    return Workload(steps, {})


def _membership(call):
    from m2alg.membership import decide_Q, decide_Q_semantic, decide_Zp
    from m2alg.oracle import construct_witness_Q, enum_sweep_fp, oracle_roots_fp2

    counters = {
        "oracle.enum.matrices_scanned": 0,
        "oracle.enum.witnesses": 0,
        "oracle.roots.quadratics_scanned": 0,
        "oracle.roots.witnesses": 0,
    }
    found = {}

    def sweep(p, pairs):
        def run():
            hits = call("oracle.enum", enum_sweep_fp, p, pairs)
            found[p] = hits
            xs = [x for x in hits.values() if x is not None]
            if len(xs) < len(hits):
                scanned = p**4
            else:
                scanned = 1 + max(((a * p + b) * p + c) * p + d for a, b, c, d in xs)
            counters["oracle.enum.matrices_scanned"] += scanned
            counters["oracle.enum.witnesses"] += len(xs)
            return f"{len(xs)} of {len(hits)} pairs have a witness"

        return Step(f"sweep F{p}", False, run)

    def fp_row(p, i, j):
        def run():
            d = call("membership.decide", decide_Zp, p, i, j)
            rep = call("oracle.roots", oracle_roots_fp2, p, i, j)
            quadratic = rep.details.get("quadratic")
            if quadratic is None:
                counters["oracle.roots.quadratics_scanned"] += p * p
            else:
                counters["oracle.roots.quadratics_scanned"] += quadratic[0] * p + quadratic[1] + 1
                counters["oracle.roots.witnesses"] += 1
            enum_found = found[p][(i, j)] is not None
            if not d.verdict == rep.found == enum_found:
                raise CheckFailed(
                    f"F{p} ({i}, {j}): theorem {d.verdict}, roots {rep.found}, enum {enum_found}"
                )
            if rep.found and not rep.verified:
                raise CheckFailed(f"F{p} ({i}, {j}): roots witness not verified")
            return f"{d.verdict} {d.fired_rule}"

        return Step(f"F{p} {i},{j}", True, run)

    def q_row(i, j):
        def run():
            dq = call("membership.decide", decide_Q, i, j)
            ds = call("membership.decide", decide_Q_semantic, i, j)
            if dq.verdict != ds.verdict:
                raise CheckFailed(f"Q ({i}, {j}): congruence {dq.verdict}, semantic {ds.verdict}")
            if i <= Q_WITNESS_MAX and j <= Q_WITNESS_MAX:
                rep = call("oracle.q_witness", construct_witness_Q, i, j)
                if rep.found != dq.verdict or (rep.found and not rep.verified):
                    raise CheckFailed(f"Q ({i}, {j}): witness found={rep.found}")
            return f"{dq.verdict} {dq.fired_rule} {ds.fired_rule}"

        return Step(f"Q {i},{j}", True, run)

    steps = []
    for p, m in FP_GRIDS:
        pairs = [(i, j) for i in range(1, m + 1) for j in range(1, m + 1)]
        steps.append(sweep(p, pairs))
        steps += [fp_row(p, i, j) for i, j in pairs]
    steps += [q_row(i, j) for i in range(1, Q_MAX + 1) for j in range(1, Q_MAX + 1)]
    return Workload(steps, counters)
