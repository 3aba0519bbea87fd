"""Strang-splitting time integration with blow-up guarding.

Both substeps are exact flows (diagonal linear phases, pointwise nonlinear
phase rotation), so the native mass is conserved to roundoff per step and
the splitting is second order and time reversible.

One Strang evaluation is a leading half linear step, the nonlinear phase,
and a trailing linear substep on the kept-row spectrum of the phase's
output: Machinery.forward keeps only the rows of the x modes that the 2/3
rule keeps, which is the projection, so the trailing substep dealiases
without a transform pair of its own and every alpha flow, x multiplier and
norm runs on those rows (85 of 128, 171 of 256).

Both paths carry the synchronous field as a kept-row spectrum c and a lag
l, the field being S(l) c, where the linear flow S(t) and the 2/3
projection P are diagonal and N(t) is the nonlinear phase.  One helper
returns the kept-row spectrum P N(t) S(t_flow + l) c of each Strang
evaluation, so both paths pass only spectra to the propagators, which
Machinery.propagator binds to the kept rows.  The StepperState holds c, l
and the time from t = 0 to the last sample: ``integrate`` takes one
Machinery.forward of the initial data, which is its 2/3 projection, the
lag of one segment folds into the next segment's leading flow, and S(l)
is applied only for a record, which reads a snapshot of S(l) c
(``StepperState.snapshot``) and synthesizes the nodal field once.

The fixed-step path keeps, after each step, c = P N(dt) S(dt/2 + l) c and
l = dt/2: the trailing half of step i and the leading half of step i+1
are one masked full step (first same as last; exact because both halves
are exact flows, and 0.5*dt + 0.5*dt == dt exactly), and so are the last
step of one segment and the first of the next.  Each step is one alpha
application (Hermite forward and inverse, or the div-form matrix G(t)
over its band) and one x-FFT pair and nonlinear phase, which
Machinery.phased runs per block of alpha columns (Machinery.column_blocks:
9 blocks of 57 columns for 513 div nodes on 256 x points, one block on
the drift form's 256 x 64), so every nodal array of the step is
block-sized; each record adds the S(l) and the inverse transforms of its
synthesis, per block as well, and no forward transform.

The adaptive path compares one step of length dt with two of dt/2 (step
doubling) in one fused attempt:

    coarse   a = N(dt) S(dt/2 + l) c
    fine     v = N(dt/2) S(dt/4 + l) c,   b = N(dt/2) S(dt/2) P v

The two middle quarter steps of the fine pair merge into one masked half
step, as in the fixed path.  The one-step result is S(dt/2) P a and the
two-half-step one S(dt/4) P b; S(dt/4) is unitary and commutes with P, so

    err = ||S(dt/2) P a - S(dt/4) P b|| = ||P (S(dt/4) a - b)||,

one vdot over the kept rows, without a synthesis.  On acceptance the
guard's H^1 is read off the spectrum of b, and the step keeps c = P b with
the lag l = dt/4: its last quarter step folds into the next attempt's
leading flows.  An attempt, accepted or rejected, costs 4 alpha flows
(the banded div-form matrix, or a diagonal phase between 3 forward and 3
inverse Hermite transforms), and per column block 6 x-FFTs (3 forward, 3
inverse) and 3 nonlinear phases; three separate Strang evaluations cost
12 x-FFTs, 6 alpha flows with 6 Hermite transform pairs, and 3 phases.

The blow-up guard needs the native H^1 after every step.  That norm is
invariant under the linear flow: the x phase is unitary and diagonal in k,
the drift-form alpha phase is diagonal in the Hermite modes, and the
div-form matrix exp(itP_h) commutes with the face-difference form
-<P_h u, u> (its band drops only entries below 1e-15 of the largest, so
this holds to roundoff).  So the kept-row spectrum that each linear
substep holds already gives the H^1 of the field at the end of the step,
and the guard reads it there (observables.h1_native on a Snapshot); the
nonlinear substep's input check is the one finiteness test per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import observables
from .grids import x_fft, x_ifft
from .operators import Machinery, NonFiniteFieldError, apply_nonlinearity


# pinned tolerances: the adaptive controller halves dt on a step-doubling
# discrepancy above ERR_GROW, doubles it below ERR_SHRINK up to DT_MAX, and
# the guard flags an H^1 ratio to the initial value above H1_RATIO_MAX
DT_MAX = 1e-1
ERR_GROW = 1e-8
ERR_SHRINK = 1e-11
H1_RATIO_MAX = 1e3


@dataclass(frozen=True)
class StepControl:
    """Fixed-step by default; the adaptive mode halves/doubles dt from the
    one-step versus two-half-step discrepancy in the native L^2.  The guard
    flags a controller driven to ``dt_min``."""

    dt: float = 1e-3
    adaptive: bool = False
    dt_min: float = 1e-8


@dataclass
class StepperState:
    """The synchronous field at ``time`` is S(``lag``) ``spectrum``, a
    kept-row spectrum and the linear flow that it still owes."""

    spectrum: np.ndarray
    dt: float
    lag: float = 0.0
    time: float = 0.0
    step_count: int = 0
    rejected_count: int = 0
    floor_count: int = 0  # accepted at dt_min while still failing ERR_GROW
    blowup_flag: bool = False
    blowup_time_estimate: float | None = None
    h1_initial: float | None = None
    dt_range: tuple[float, float] | None = None  # (min, max) accepted dt

    def accept(self, dt: float):
        """Count one accepted step of length dt."""
        self.step_count += 1
        lo, hi = self.dt_range or (dt, dt)
        self.dt_range = (min(lo, dt), max(hi, dt))

    def snapshot(self, mach: Machinery) -> observables.Snapshot:
        """The field at ``time`` as a snapshot of its kept-row spectrum
        S(lag) c, which synthesizes the nodal field on first use."""
        carried = self.spectrum
        if self.lag:
            carried = mach.propagator(self.lag).advance(carried)
        return observables.Snapshot(carried, mach)


def _dealias(data: np.ndarray, mach: Machinery) -> np.ndarray:
    """The nodal 2/3 projection by one x-FFT pair: the tests' reference for
    ``Machinery.forward`` and ``synthesize``, which the stepper uses."""
    hat = x_fft(data, mach.grid)
    hat *= mach.dealias[..., None]
    return x_ifft(hat, mach.grid)


def detect_blowup(state: StepperState, control: StepControl, h1: float,
                  time: float) -> StepperState:
    """Flag on nonfinite values, on an H^1 ratio past the ceiling, or when
    the step controller has been driven to dt_min with rejections or
    acceptances at the floor.

    ``h1`` is the native H^1 of the stepped field at ``time``, against the
    ``state.h1_initial`` that ``integrate`` set.  A nonfinite ``h1`` means a
    nonfinite field.
    """
    if state.blowup_flag:
        return state
    at_floor = state.dt <= control.dt_min and state.rejected_count + state.floor_count > 0
    if (not math.isfinite(h1) or at_floor
            or state.h1_initial > 0 and h1 / state.h1_initial > H1_RATIO_MAX):
        state.blowup_flag = True
        state.blowup_time_estimate = time
    return state


def _phased(mach: Machinery, spectrum: np.ndarray, t_flow: float, t_phase: float) -> np.ndarray:
    """P N(t_phase) S(t_flow) on a kept-row spectrum: the kept-row spectrum
    of the nonlinear phase's output, which Machinery.phased forms block by
    block, so no full nodal array exists.  ``apply_nonlinearity`` is looked
    up per call, so a replacement of this module's name sees every block."""
    return mach.phased(mach.propagator(t_flow).advance(spectrum),
                       lambda data, columns: apply_nonlinearity(data, mach, t_phase, columns))


def _synchronize(state, carried, lag, time, target):
    """Store the field S(lag) ``carried`` at the flag time or the target."""
    state.spectrum, state.lag = carried, lag
    state.time = time if state.blowup_flag else target
    return state


def _snap_dt(dt: float, nominal: float) -> float:
    """``nominal`` for a dt within 1e-12 relative of it, else dt, so the
    propagator cache sees one key per dt, not one per ulp of jitter."""
    return nominal if abs(dt - nominal) <= 1e-12 * abs(nominal) else dt


def _advance_fixed(state, mach, target, control):
    # uniform substeps per segment, rounded up so that none is longer than
    # control.dt (the 1e-12 relative slack absorbs division jitter)
    start = time = state.time
    remaining = target - start
    n_sub = max(1, math.ceil(remaining / control.dt * (1.0 - 1e-12)))
    dt = _snap_dt(remaining / n_sub, control.dt)
    state.dt = dt
    # first same as last: a step keeps the spectrum of its nonlinear output
    # with the lag dt/2, which folds into the next step's leading half step
    carried, lag = state.spectrum, state.lag
    for i in range(1, n_sub + 1):
        try:
            carried = _phased(mach, carried, 0.5 * dt + lag, dt)
        except NonFiniteFieldError:
            # only reachable on the run's first step: a later nonfinite
            # field already gave a nonfinite H^1 and flagged the step before
            state.blowup_flag = True
            state.blowup_time_estimate = time
            break
        lag = 0.5 * dt
        time = start + i * dt
        state.accept(dt)
        h1 = observables.h1_native(observables.Snapshot(carried, mach), mach)
        state = detect_blowup(state, control, h1=h1, time=time)
        if state.blowup_flag:
            break
    return _synchronize(state, carried, lag, time, target)


def _doubling_attempt(carried: np.ndarray, lag: float, mach: Machinery, dt: float):
    """One fused step-doubling attempt of length dt from the synchronous
    field S(lag) ``carried``, given as a kept-row spectrum and a lag.

    Returns (err, fine): the native L^2 distance between the one-step and
    the two-half-step results, and the kept-row spectrum of the fine pair's
    second nonlinear output, which S(dt/4) takes to the end of the step.
    """
    coarse = _phased(mach, carried, 0.5 * dt + lag, dt)
    mid = _phased(mach, carried, 0.25 * dt + lag, 0.5 * dt)
    # the middle quarter steps of the two halves merge into one masked half
    fine = _phased(mach, mid, 0.5 * dt, 0.5 * dt)
    # ||S(dt/2) P coarse - S(dt/4) P fine|| = ||P (S(dt/4) coarse - fine)||
    diff = mach.propagator(0.25 * dt).advance(coarse) - fine
    return mach.spectral_l2(diff), fine


def _advance_adaptive(state, mach, target, control):
    eps = 1e-12 * max(1.0, abs(target))
    nominal = state.dt
    time = state.time
    # an accepted step keeps its fine spectrum with the lag dt/4, and its
    # last quarter step folds into the next attempt's leading flows
    carried, lag = state.spectrum, state.lag
    while time < target - eps and not state.blowup_flag:
        # a segment's last step is one ulp off nominal when time rounds
        dt = _snap_dt(min(nominal, target - time), nominal)
        try:
            err, fine = _doubling_attempt(carried, lag, mach, dt)
        except NonFiniteFieldError:
            state.blowup_flag = True
            state.blowup_time_estimate = time
            break
        if err > ERR_GROW and dt > control.dt_min:
            nominal = max(0.5 * dt, control.dt_min)
            state.rejected_count += 1
            continue
        carried, lag = fine, 0.25 * dt
        time += dt
        state.accept(dt)
        state.dt = nominal
        if err > ERR_GROW:
            # still failing at the dt floor: hand off to the guard
            state.floor_count += 1
        h1 = observables.h1_native(observables.Snapshot(fine, mach), mach)
        state = detect_blowup(state, control, h1=h1, time=time)
        if err < ERR_SHRINK and dt == nominal:
            nominal = min(2.0 * dt, DT_MAX)
        state.dt = nominal
    return _synchronize(state, carried, lag, time, target)


def integrate(
    initial: np.ndarray,
    mach: Machinery,
    sample_times,
    control: StepControl | None = None,
    record_fn=observables.sample_record,
):
    """Run the nodal ``initial`` data from t = 0 to each sample time
    exactly, emitting one record ``record_fn(snapshot, time, mach)`` per
    sample, with an ``observables.Snapshot`` of the kept-row spectrum; on a
    blow-up flag the schedule is truncated and the flag time recorded.
    Returns (records, final StepperState)."""
    control = control or StepControl()
    samples = list(sample_times)
    if not samples:
        raise ValueError("empty sample schedule")
    if not all(math.isfinite(t) for t in samples):
        raise ValueError("sample times must be finite")
    if any(t1 > t2 for t1, t2 in zip(samples, samples[1:])):
        raise ValueError("sample times must be sorted")
    if samples[0] < 0:
        raise ValueError(f"sample times must not be negative, got {samples[0]}")

    # the forward transform projects the initial data once, so conservation
    # tracks the orbit of the dealiased state rather than a one-time mask
    # transient; nonfinite data flags at the first step's nonlinear phase
    spectrum = mach.forward(np.asarray(initial, dtype=np.complex128))
    h1 = observables.h1_native(observables.Snapshot(spectrum, mach), mach)
    state = StepperState(spectrum, control.dt, h1_initial=h1)

    advance = _advance_adaptive if control.adaptive else _advance_fixed
    records = []
    for target in samples:
        if target > state.time:
            state = advance(state, mach, target, control)
        if state.blowup_flag:
            break
        records.append(record_fn(state.snapshot(mach), state.time, mach))
    return records, state
