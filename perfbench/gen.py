"""Seeded input generators of the benchmark.

Everything the program under test sees is written here, from the seed:
the pump and quickstart inputs with their one-constant edits, and the
daemon request plan (scheme lattice, Zipf popularity, FAIL share, synthesis
frames). The same seed always gives the same files.
"""

import os
import random

# The daemon mix. Each value says where it comes from; the ones marked
# "assumption" are not backed by any file of the repository, and
# perfbench/README.md lists them as such.
#
# The quickstart PIM answers within an 80 ms window (M's invariant x <= 80).
# A periodic task slower than the window cannot pick every request up in
# time: the PSM timelocks and C3 fails. That is the generator's analytic
# verdict for every lattice point: period > WINDOW_MS => FAIL, else PASS.
WINDOW_MS = 80
# From fast.pss's 10 ms period to late.pss's 200 ms, the passing and the
# failing quickstart platform of the CI batch gate; the points between are
# an assumption.
PERIODS = [10, 20, 30, 40, 50, 60, 100, 200]
STAGES = [1, 3]            # fast.pss's 1 ms stages, and 3 ms (assumption)
ACK_CEILINGS = [3, 8, 13, 18]  # the first four Ack ceilings of fast_sweep.pss
# Every third verify request draws an overrunning scheme, as bench_daemon
# sends late.pss every third request.
FAIL_EVERY = 3
ZIPF_S = 1.1               # popularity skew (assumption)
BOUND_RANGE = (60, 120)    # requirement bounds (assumption)

# Every SYNTH_EVERY-th request is a synthesis frame: the CI synthesis smoke
# (fast_sweep.pss, 8 Ack-ceiling candidates, QREQ within 80). The share,
# 1 in 20, is an assumption.
SYNTH_TEMPLATE = "fast_sweep.pss"
SYNTH_BOUND = 80
SYNTH_EVERY = 20
PLAN_OPS = 20000

# One-constant scheme edits that keep the network skeleton. Index 0 is the
# edit of the default seed (pump: StopInfusion `delay 10 50 -> 55`).
PUMP_EDITS = [55, 60, 65, 70]
QUICKSTART_EDITS = [5, 4, 6, 7]

QUICKSTART_SCHEME = """scheme IS1-lattice {{
  input Req {{
    signal pulse
    read interrupt
    delay 1 3
  }}

  output Ack {{
    delay 1 {ack}
  }}

  io {{
    invocation periodic {period}
    transfer buffers 5
    policy read-all
    stages {stage} {stage} {stage}
  }}
}}
"""


def edit_choice(seed, choices):
    return choices[seed % len(choices)]


def write(path, text):
    with open(path, "w") as f:
        f.write(text)


def edited_scheme(source, old, new):
    """Replace exactly one occurrence of `old` (a whole scheme line)."""
    if source.count(old) != 1:
        raise ValueError("edit target %r must occur exactly once" % old)
    return source.replace(old, new)


def pump_inputs(root, out, seed):
    """pump.psv + board.pss, and board.pss with the seed's StopInfusion edit."""
    models = os.path.join(root, "examples", "models")
    with open(os.path.join(models, "board.pss")) as f:
        board = f.read()
    with open(os.path.join(models, "pump.psv")) as f:
        write(os.path.join(out, "pump.psv"), f.read())
    write(os.path.join(out, "board.pss"), board)
    ceiling = edit_choice(seed, PUMP_EDITS)
    write(os.path.join(out, "board_edit.pss"),
          edited_scheme(board, "delay 10 50", "delay 10 %d" % ceiling))
    return ceiling


def quickstart_inputs(root, out, seed):
    """quickstart.psv + fast.pss, and fast.pss with the seed's Ack edit."""
    models = os.path.join(root, "examples", "models")
    with open(os.path.join(models, "fast.pss")) as f:
        fast = f.read()
    with open(os.path.join(models, "quickstart.psv")) as f:
        write(os.path.join(out, "quickstart.psv"), f.read())
    write(os.path.join(out, "fast.pss"), fast)
    ceiling = edit_choice(seed, QUICKSTART_EDITS)
    # fast.pss declares `delay 1 3` for both Req and Ack; the Ack block is
    # the one that follows `output Ack {`.
    head, tail = fast.split("output Ack {", 1)
    write(os.path.join(out, "fast_edit.pss"),
          head + "output Ack {" + tail.replace("delay 1 3", "delay 1 %d" % ceiling, 1))
    return ceiling


def _zipf_weights(n):
    return [1.0 / (rank + 1) ** ZIPF_S for rank in range(n)]


def daemon_plan(root, out, seed, model_name):
    """Write the lattice schemes, the synthesis template and the request plan.

    Returns the plan path. Synthesis frames and overrunning schemes sit at
    fixed positions of the plan, so their shares are exact. Popularity is
    Zipf over a fixed shuffled order of the lattice, drawn separately inside
    its PASS and its FAIL part, so every seed sees the same mix: the seed
    only draws which scheme and which bound each verify request gets.
    """
    rng = random.Random(seed)
    lines = ["model %s" % model_name, "requirement QREQ Req Ack"]
    passing, failing = [], []
    index = 0
    for period in PERIODS:
        for stage in STAGES:
            for ack in ACK_CEILINGS:
                name = "lat_p%d_s%d_a%d.pss" % (period, stage, ack)
                write(os.path.join(out, name),
                      QUICKSTART_SCHEME.format(ack=ack, period=period, stage=stage))
                overruns = period > WINDOW_MS
                lines.append("scheme %s %s" % (name, "FAIL" if overruns else "PASS"))
                (failing if overruns else passing).append(index)
                index += 1
    with open(os.path.join(root, "examples", "models", SYNTH_TEMPLATE)) as f:
        write(os.path.join(out, SYNTH_TEMPLATE), f.read())
    lines.append("template %s FIT" % SYNTH_TEMPLATE)
    popularity = random.Random(0)
    popularity.shuffle(passing)
    popularity.shuffle(failing)
    pass_weights = _zipf_weights(len(passing))
    fail_weights = _zipf_weights(len(failing))
    verifies = 0
    for op in range(PLAN_OPS):
        if op % SYNTH_EVERY == SYNTH_EVERY - 1:
            lines.append("op s 0 %d" % SYNTH_BOUND)
            continue
        verifies += 1
        if verifies % FAIL_EVERY == 0:
            scheme = rng.choices(failing, fail_weights)[0]
        else:
            scheme = rng.choices(passing, pass_weights)[0]
        lines.append("op v %d %d" % (scheme, rng.randint(*BOUND_RANGE)))
    path = os.path.join(out, "plan.txt")
    write(path, "\n".join(lines) + "\n")
    return path
