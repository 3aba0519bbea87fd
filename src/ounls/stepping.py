"""Strang-splitting time integration with blow-up guarding.

Both substeps are exact flows (diagonal linear phases, pointwise nonlinear
phase rotation), so the native mass is conserved to roundoff per step and
the splitting is second order and time reversible.

One Strang evaluation is a leading half linear step, the nonlinear phase,
and a trailing linear substep whose x multiplier is x_phase * dealias_mask:
the 2/3 mask and the linear flow are both diagonal in k, so the trailing
substep dealiases without a transform pair of its own.

The fixed-step path merges the trailing half of step i with the leading
half of step i+1 into one masked full step (first same as last; exact
because both halves are exact flows).  A segment of n steps between sample
times costs n + 1 linear applications: an opening half step, n - 1 merged
full steps and a closing half step that makes the field synchronous for
the sample.  Each step is one x-FFT pair, one alpha application (Hermite
forward and inverse, or the dense div-form matrix) and one nonlinear phase.

The adaptive path compares one step of length dt with two of dt/2 (step
doubling) in one fused attempt.  It carries the spectrum s0 of the
synchronous field, where the linear flow S(t) and the 2/3 projection P are
diagonal (N(t) is the nonlinear phase):

    coarse   a = N(dt) S(dt/2) s0
    fine     v = N(dt/2) S(dt/4) s0,   b = N(dt/2) S(dt/2) P v

The two middle quarter steps of the fine pair merge into one masked half
step, as in the fixed path.  The one-step result is S(dt/2) P a and the
two-half-step one S(dt/4) P b; S(dt/4) is unitary and commutes with P, so

    err = ||S(dt/2) P a - S(dt/4) P b|| = ||P (S(dt/4) a - b)||,

read off the spectra without a synthesis.  On acceptance the guard's H^1 is
read off the spectrum of b and the next s0 is S(dt/4) P b.  An attempt costs
6 x-FFTs (3 forward, 3 inverse), 5 alpha flows (4 when rejected: the dense
div-form matrix, or a diagonal phase between 3 forward and 3 inverse Hermite
transforms) and 3 nonlinear phases; three separate Strang evaluations cost
12 x-FFTs, 6 alpha flows with 6 Hermite transform pairs, and 3 phases.  The
nodal field is built only at the segment end or at a flag.

The blow-up guard needs the native H^1 after every step.  That norm is
invariant under the linear flow: the x phase is unitary and diagonal in k,
the drift-form alpha phase is diagonal in the Hermite modes, and the
div-form matrix exp(itP_h) commutes with the face-difference form
-<P_h u, u>.  So the masked spectrum that each linear substep holds already
gives the H^1 of the field at the end of the step, and the guard reads it
from there; the nonlinear substep's input check is the one finiteness test
per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import observables
from .grids import x_fft, x_ifft
from .operators import Machinery, NonFiniteFieldError, apply_nonlinearity
from .state import Field


@dataclass(frozen=True)
class StepControl:
    """Fixed-step by default; the adaptive mode halves/doubles dt from the
    one-step versus two-half-step discrepancy in the native L^2."""

    dt: float = 1e-3
    adaptive: bool = False
    dt_min: float = 1e-8
    dt_max: float = 1e-1
    err_grow: float = 1e-8
    err_shrink: float = 1e-11


@dataclass(frozen=True)
class BlowupThresholds:
    norm_ratio_max: float = 1e3
    dt_min: float = 1e-8


@dataclass
class StepperState:
    field: Field
    dt: float
    step_count: int = 0
    rejected_count: int = 0
    floor_count: int = 0  # accepted at dt_min while still failing err_grow
    blowup_flag: bool = False
    blowup_time_estimate: float | None = None
    h1_initial: float | None = None
    dt_range: tuple[float, float] | None = None  # (min, max) accepted dt

    def accept(self, dt: float):
        """Count one accepted step of length dt."""
        self.step_count += 1
        lo, hi = self.dt_range or (dt, dt)
        self.dt_range = (min(lo, dt), max(hi, dt))


def _dealias(data: np.ndarray, mach: Machinery) -> np.ndarray:
    hat = x_fft(data, mach.grid)
    hat *= mach.dealias[..., None]
    return x_ifft(hat, mach.grid)


def detect_blowup(
    state: StepperState,
    mach: Machinery,
    thresholds: BlowupThresholds,
    h1: float | None = None,
    time: float | None = None,
) -> StepperState:
    """Flag on nonfinite values, on an H^1 ratio past the ceiling, or when
    the step controller has been driven to dt_min with rejections or
    acceptances at the floor.

    ``h1`` is the native H^1 of the field at ``time`` when the caller holds
    it already; by default both come from state.field.  A nonfinite ``h1``
    means a nonfinite field.
    """
    if state.blowup_flag:
        return state
    if time is None:
        time = state.field.time
    if h1 is None:
        h1 = (
            observables.h1_native(state.field, mach.spec, mach)
            if state.field.finite
            else math.nan
        )
    flagged = False
    if not math.isfinite(h1):
        flagged = True
    elif state.h1_initial is None:
        state.h1_initial = h1
    elif state.h1_initial > 0 and h1 / state.h1_initial > thresholds.norm_ratio_max:
        flagged = True
    if state.dt <= thresholds.dt_min and state.rejected_count + state.floor_count > 0:
        flagged = True
    if flagged:
        state.blowup_flag = True
        state.blowup_time_estimate = time
    return state


def _advance_fixed(state, mach, target, control, thresholds):
    # uniform substeps per segment, rounded up so that none is longer than
    # control.dt (the 1e-12 relative slack absorbs division jitter); a dt
    # within 1e-12 of the nominal one is snapped to it, so the float-keyed
    # propagator cache sees one key per dt and not one per one-ulp jitter
    # of remaining / n_sub
    remaining = target - state.field.time
    n_sub = max(1, math.ceil(remaining / control.dt * (1.0 - 1e-12)))
    dt = remaining / n_sub
    if abs(dt - control.dt) <= 1e-12 * abs(control.dt):
        dt = control.dt
    state.dt = dt
    # first same as last: the trailing half step of step i and the leading
    # half step of step i+1 are one masked full step, so the field is
    # synchronous only at the segment end or at a flag
    half = mach.propagator(0.5 * dt)
    full = mach.propagator(dt) if n_sub > 1 else half
    start = state.field.time
    data = half.apply(state.field.data)
    for i in range(1, n_sub + 1):
        try:
            phased = apply_nonlinearity(data, mach.spec, mach, dt)
        except NonFiniteFieldError:
            # only reachable on the first step: a later nonfinite field
            # already gave a nonfinite H^1 and flagged the step before
            state.blowup_flag = True
            state.blowup_time_estimate = state.field.time
            return state
        last = i == n_sub
        data, h1 = (half if last else full).apply(phased, mach.dealias, h1=True)
        state.accept(dt)
        time = start + i * dt
        state = detect_blowup(state, mach, thresholds, h1=h1, time=time)
        if state.blowup_flag:
            if not last:
                data = half.apply(phased, mach.dealias)
            state.field = Field(data, time)
            return state
    state.field = Field(data, target)
    return state


def _doubling_attempt(s0: np.ndarray, mach: Machinery, dt: float):
    """One fused step-doubling attempt of length dt from the spectrum ``s0``
    of the synchronous field.

    Returns (err, fine, quarter): the native L^2 distance between the
    one-step and the two-half-step results, the spectrum of the fine pair's
    second nonlinear output, and the quarter-step propagator whose masked
    advance of that spectrum ends the step.
    """
    half, quarter = mach.propagator(0.5 * dt), mach.propagator(0.25 * dt)

    def phased(prop, spectrum, t, mask=None):
        data = mach.synthesize(prop.advance(spectrum, mask))
        return apply_nonlinearity(data, mach.spec, mach, t)

    coarse = phased(half, s0, dt)
    mid = phased(quarter, s0, 0.5 * dt)
    # the middle quarter steps of the two halves merge into one masked half
    fine = mach.forward(phased(half, mach.forward(mid), 0.5 * dt, mach.dealias))
    # ||S(dt/2) P coarse - S(dt/4) P fine|| = ||P (S(dt/4) coarse - fine)||
    diff = quarter.advance(mach.forward(coarse)) - fine
    return quarter.spectral_l2(diff, mach.dealias), fine, quarter


def _advance_adaptive(state, mach, target, control, thresholds):
    eps = 1e-12 * max(1.0, abs(target))
    nominal = state.dt
    time = state.field.time
    # the spectrum of the synchronous field is carried from step to step;
    # the nodal field is built only at the segment end or at a flag
    spectrum = mach.forward(state.field.data)
    while time < target - eps and not state.blowup_flag:
        dt = min(nominal, target - time)
        try:
            err, fine, quarter = _doubling_attempt(spectrum, mach, dt)
        except NonFiniteFieldError:
            state.blowup_flag = True
            state.blowup_time_estimate = time
            break
        if err > control.err_grow and dt > control.dt_min:
            nominal = max(0.5 * dt, control.dt_min)
            state.rejected_count += 1
            continue
        h1 = quarter.spectral_h1(fine, mach.dealias)
        spectrum = quarter.advance(fine, mach.dealias)
        time += dt
        state.accept(dt)
        state.dt = nominal
        if err > control.err_grow:
            # still failing at the dt floor: hand off to the guard
            state.floor_count += 1
        state = detect_blowup(state, mach, thresholds, h1=h1, time=time)
        if err < control.err_shrink and dt == nominal:
            nominal = min(2.0 * dt, control.dt_max)
        state.dt = nominal
    state.field = Field(mach.synthesize(spectrum), time if state.blowup_flag else target)
    return state


def integrate(
    initial: Field,
    mach: Machinery,
    horizon: float,
    sample_times,
    control: StepControl | None = None,
    thresholds: BlowupThresholds | None = None,
    record_fn=observables.sample_record,
):
    """Run to each sample time exactly, emitting one diagnostics record per
    sample; on a blow-up flag the schedule is truncated and the flag time
    recorded.  Returns (records, final StepperState)."""
    control = control or StepControl()
    thresholds = thresholds or BlowupThresholds(dt_min=control.dt_min)
    samples = list(sample_times)
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if not samples:
        raise ValueError("empty sample schedule")
    if any(t1 > t2 for t1, t2 in zip(samples, samples[1:])):
        raise ValueError("sample times must be sorted")
    if samples[0] < 0 or samples[-1] > horizon + 1e-12:
        raise ValueError("sample times must lie inside [0, horizon]")

    field = Field(initial.data.copy(), initial.time)
    if field.finite:
        # project the initial data once so conservation tracks the orbit of
        # the dealiased state rather than a one-time mask transient
        field.data = _dealias(field.data, mach)
        state = StepperState(field=field, dt=control.dt)
        state.h1_initial = observables.h1_native(field, mach.spec, mach)
    else:
        state = StepperState(field=field, dt=control.dt)

    advance = _advance_adaptive if control.adaptive else _advance_fixed
    records = []
    for target in samples:
        if target > state.field.time:
            state = advance(state, mach, target, control, thresholds)
        if state.blowup_flag:
            break
        records.append(record_fn(state.field, mach.spec, mach))
    return records, state
