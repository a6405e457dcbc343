"""Workload definitions: the seed turns into a plan of generated inputs.

hostbench never sees the seed. A plan is text: "check <kind> ..." adds
an untimed post-run check, every other line is one op. A run's ops are
distinct, and hostbench repeats them in order for the whole timed
section, so each op is timed several times and its best time is robust
to noise from other tenants of the host.

The seed picks which scenario indices, release-jitter seeds and
fault-window offsets make up the ops, their order and the sampled
design cells, always from the finite pools below, so every op a seed
can produce has its outputs pinned in expected/<workload>.tsv
(regenerate with `run.py --record` after an intended model change).
"""

import random

WORKLOADS = ("control", "design_replay")

PLANTS = ("quad-crazyflie", "rocket-lander", "rover-rover",
          "cartpole-cartpole")
SPECS = tuple(f"{p}/{d}" for p in PLANTS
              for d in ("easy", "medium", "hard", "medium+gusty"))
MODELS = ("scalar", "vector", "gemmini")

# Closed-loop episodes fly their scenario's whole mission: every
# waypoint, then the settling grace, so solves converge early, run to
# the iteration cap and switch waypoints as in the paper's missions.
# f32 episodes: per (spec, model), PICK of POOL scenario indices; one
# keeps a pass of the control plan short, so every op is repeated
# often enough in a run for its best time to be steady.
F32_SCENARIO_POOL = 4
F32_SCENARIO_PICK = 1
# Narrow-format episodes: a subset sized to a few seconds per pass,
# since a fixed-point solve iteration costs 15-18x an f32 one. Every
# plant flies bf16, cartpole i32, and rover (for its accumulator
# saturations) and cartpole i16. Each flies scenario 0 of the plant's
# easy spec under a timing model fixed per op: the same episodes, and
# the same set-up (one calibration per (plant, model, format)), for
# every seed.
NARROW = (("quad-crazyflie", "bf16"), ("rocket-lander", "bf16"),
          ("rover-rover", "bf16"), ("cartpole-cartpole", "bf16"),
          ("cartpole-cartpole", "i32"), ("rover-rover", "i16"),
          ("cartpole-cartpole", "i16"))
TASK_SETS = ("quad50", "quad50+rover25", "cart100+quad50+rover25")
FREQS_MHZ = (50, 100, 200)
JITTER_SEEDS = (11, 23, 37, 59, 71, 83, 97, 101)
JITTER_PICK = 4  # jitter seeds per (task set, model, frequency)
FAULT_OFFSETS_MS = (0, 60, 120, 180, 240, 300, 360, 420)
FAULT_JITTER_SEEDS = (11, 23)
FAULT_PICK = 4   # offsets per run, each with the governor on and off

DR_CONFIGS = 15  # refined fig10 configurations
DR_POINTS = 24   # 8 latency scales x 3 width scales per configuration
DR_SAMPLES = 6   # cells re-checked against a direct runStream

POOL_CHECK_OPS = 12  # ops re-run on the thread pool vs serial


def _cl(spec, model, fmt, idx):
    return f"cl {spec} {model} {fmt} {idx}"


def _narrow():
    return [_cl(f"{p}/easy", MODELS[k % len(MODELS)], f, 0)
            for k, (p, f) in enumerate(NARROW)]


def _dr_ops(phase):
    return [f"dr {p} {c} {phase}" for p in PLANTS for c in range(DR_CONFIGS)]


def generate(workload, seed):
    """(ops, checks) for workload under seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "control":
        ops = [_cl(s, m, "f32", i) for s in SPECS for m in MODELS
               for i in rng.sample(range(F32_SCENARIO_POOL),
                                   F32_SCENARIO_PICK)]
        ops += _narrow()
        ops += [f"ss {t} {m} {fr} {j}" for t in TASK_SETS for m in MODELS
                for fr in FREQS_MHZ
                for j in rng.sample(JITTER_SEEDS, JITTER_PICK)]
        for off in rng.sample(FAULT_OFFSETS_MS, FAULT_PICK):
            js = rng.choice(FAULT_JITTER_SEEDS)
            ops += [f"fault {off} {a} {js}" for a in (0, 1)]
    elif workload == "design_replay":
        ops = []
        for phase in ("cold", "warm", "hot"):
            part = _dr_ops(phase)
            rng.shuffle(part)
            ops += part
        checks = [f"sample {rng.choice(PLANTS)} {rng.randrange(DR_CONFIGS)} "
                  f"{rng.randrange(DR_POINTS)}" for _ in range(DR_SAMPLES)]
        checks.append(f"serial {rng.choice(PLANTS)} "
                      f"{rng.randrange(DR_CONFIGS)}")
        checks += [f"frontier {p}" for p in PLANTS]
        return ops, checks
    else:
        raise ValueError(f"unknown workload {workload}")
    rng.shuffle(ops)
    return ops, [f"pool {POOL_CHECK_OPS}"]


def pinned_pool(workload):
    """(ops, checks) covering every input generate() can produce once."""
    if workload == "control":
        ops = [_cl(s, m, "f32", i) for s in SPECS for m in MODELS
               for i in range(F32_SCENARIO_POOL)]
        ops += _narrow()
        ops += [f"ss {t} {m} {fr} {j}" for t in TASK_SETS for m in MODELS
                for fr in FREQS_MHZ for j in JITTER_SEEDS]
        ops += [f"fault {off} {a} {j}" for off in FAULT_OFFSETS_MS
                for a in (0, 1) for j in FAULT_JITTER_SEEDS]
    elif workload == "design_replay":
        return (_dr_ops("cold") + _dr_ops("warm") + _dr_ops("hot"),
                [f"frontier {p}" for p in PLANTS])
    else:
        raise ValueError(f"unknown workload {workload}")
    return ops, []


def render(ops, checks):
    """Plan file text."""
    return "\n".join(list(ops) + [f"check {c}" for c in checks]) + "\n"
