"""Training workloads: Algorithm 1 iterations on the two paper presets.

One iteration is what Algorithm 1 repeats: fill the |D| = 512 buffer
with policy-sampled transitions (act -> env step -> Eq. 1-6 round ->
observe), then run the PPO update.  The run is timed from the end of a
two-iteration warm-up (16 episodes of 64 steps) at iteration boundaries,
so every timed interval is one whole iteration.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

#: workload -> (preset attribute in repro.experiments.presets, num_envs).
TRAIN_WORKLOADS = {
    "train-testbed": ("TESTBED_PRESET", 1),
    "train-sim50": ("SIMULATION_PRESET", 4),
}

#: Untimed warm-up: 2 iterations = 16 episodes of 64 steps.
WARMUP_ITERATIONS = 2
#: The digest of episode costs and agent state is taken after this many
#: PPO updates (64 episodes), a point every run reaches.
DIGEST_ITERATIONS = 8
#: Episode budget given to the trainer; runs end on time, well before it.
N_EPISODES = 100_000


def build_trainer(workload: str, seed: int):
    """The seeded trainer of one training workload (envs included)."""
    from repro.core.trainer import OfflineTrainer, TrainerConfig
    from repro.experiments import presets

    preset_name, num_envs = TRAIN_WORKLOADS[workload]
    preset = getattr(presets, preset_name)
    config = TrainerConfig(n_episodes=N_EPISODES)
    if num_envs == 1:
        return OfflineTrainer(presets.build_env(preset, seed=seed), config, rng=seed)
    config.num_envs = num_envs
    spec = presets.build_env_spec(preset, seed=seed)
    return OfflineTrainer(config=config, rng=seed, env_spec=spec)


def cold_start(workload: str, seed: int) -> None:
    """Everything a training run builds before its first step.

    Runs in a fresh interpreter (``python -m benchmarks.e2e coldstart``),
    so imports count too.  The vectorized workload also builds the
    vector env the trainer builds when ``train()`` starts.
    """
    trainer = build_trainer(workload, seed)
    if trainer.config.use_vectorized:
        from repro.parallel import make_vec_env

        make_vec_env(trainer.env_spec, trainer.config.num_envs).close()


def digest(episode_costs: List[float], state: Dict[str, np.ndarray]) -> str:
    """sha256 over the episode costs and every agent tensor, by key."""
    h = hashlib.sha256(np.asarray(episode_costs, dtype=np.float64).tobytes())
    for key in sorted(state):
        h.update(key.encode())
        h.update(np.ascontiguousarray(state[key]).tobytes())
    return h.hexdigest()


@dataclass
class TrainRun:
    """Timings and checks of one training run."""

    iteration_s: List[float] = field(default_factory=list)
    #: Time from one policy call to the next (act -> env step -> observe)
    #: for steps that neither end an episode nor run the PPO update.
    step_s: List[float] = field(default_factory=list)
    steps_per_iteration: int = 0
    cpu_s: float = 0.0
    digest: str = ""
    digest_cost: float = math.nan
    updates: int = 0
    bad_updates: int = 0

    @property
    def timed_s(self) -> float:
        return sum(self.iteration_s)


def _stats_ok(stats) -> bool:
    values = (stats.policy_loss, stats.value_loss, stats.entropy,
              stats.approx_kl, stats.clip_fraction, stats.grad_norm_actor,
              stats.grad_norm_critic)
    return not stats.skipped and all(math.isfinite(v) for v in values)


def run_training(workload: str, seed: int, seconds: float, *,
                 iterations: Optional[int] = None, tracer=None) -> TrainRun:
    """Train until ``seconds`` of timed iterations (or ``iterations``).

    With a ``tracer`` its recording is switched on for exactly the timed
    iterations.  Stopping happens only at iteration boundaries, and never
    before the digest point.  Step times come from a timestamp taken at
    every policy call (the agent's own ``act``/``act_batch``); a step is
    dropped when an episode ended or an update ran since the last call.
    """
    trainer = build_trainer(workload, seed)
    agent = trainer.agent
    history = trainer.history
    run = TrainRun(steps_per_iteration=trainer.config.buffer_size)
    clock = time.perf_counter
    marks: List[float] = []
    excluded = 0.0
    last_step: Optional[float] = None
    last_marker = (0, 0)
    seen = 0
    at_boundary = False
    cpu0 = 0.0

    def stamped(act):
        def call(*args, **kwargs):
            nonlocal last_step, last_marker
            if marks:
                now = clock()
                marker = (agent.total_updates, len(history.episode_costs))
                if last_step is not None and marker == last_marker:
                    run.step_s.append(now - last_step)
                last_step, last_marker = now, marker
            return act(*args, **kwargs)
        return call

    agent.act = stamped(agent.act)
    agent.act_batch = stamped(agent.act_batch)

    record_update = history.record_update

    def checked_record(stats) -> None:
        run.updates += 1
        if not _stats_ok(stats):
            run.bad_updates += 1
        record_update(stats)

    history.record_update = checked_record
    if tracer is not None:
        tracer.recording = False

    def on_episode(_episode: int, _summary: dict) -> None:
        nonlocal seen, at_boundary, excluded, cpu0
        n = agent.total_updates
        if n == seen:
            return
        seen = n
        now = clock()
        if n < WARMUP_ITERATIONS:
            return
        at_boundary = True
        if marks:
            run.iteration_s.append(now - marks[-1] - excluded)
            excluded = 0.0
        else:
            cpu0 = time.process_time()
            if tracer is not None:
                tracer.recording = True
        marks.append(now)
        if n == DIGEST_ITERATIONS:
            run.digest = digest(history.episode_costs, agent.state_dict())
            run.digest_cost = float(np.mean(history.episode_costs))
            excluded += clock() - now

    def stop() -> bool:
        nonlocal at_boundary
        if not at_boundary:
            return False
        at_boundary = False
        done_iters = len(run.iteration_s)
        if iterations is not None:
            done = done_iters >= iterations
        else:
            done = done_iters >= 1 and sum(run.iteration_s) >= seconds
        return done and agent.total_updates >= DIGEST_ITERATIONS

    trainer.train(progress_callback=on_episode, stop=stop)
    if tracer is not None:
        tracer.recording = False
    run.cpu_s = time.process_time() - cpu0
    return run
