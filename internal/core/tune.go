package core

import (
	"fmt"

	"spstream/internal/perfmodel"
)

// This file is the runtime tuning surface the lag-aware degradation
// controller (internal/ingest) drives: the knobs that trade model
// quality for per-slice throughput while a stream is live. All of them
// may only be called between slices (the Decomposer is not safe for
// concurrent use), which is exactly when the controller runs — after
// one ProcessSliceContext returns and before the next begins.

// MaxIters returns the current inner (per-slice) iteration bound.
func (d *Decomposer) MaxIters() int { return d.opt.MaxIters }

// SetMaxIters adjusts the inner iteration bound for subsequent slices
// (floor 1). Fewer inner iterations is the cheapest quality/throughput
// trade: the factors take smaller steps per slice but the model stays
// well-defined.
func (d *Decomposer) SetMaxIters(n int) {
	if n < 1 {
		n = 1
	}
	d.opt.MaxIters = n
}

// ADMMMaxIters returns the inner ADMM iteration bound (constrained
// runs).
func (d *Decomposer) ADMMMaxIters() int { return d.solver.Options().MaxIters }

// SetADMMMaxIters adjusts the ADMM inner-loop bound for subsequent
// solves (floor 1).
func (d *Decomposer) SetADMMMaxIters(n int) { d.solver.SetMaxIters(n) }

// Algorithm returns the solver variant currently in use.
func (d *Decomposer) Algorithm() Algorithm { return d.opt.Algorithm }

// SetAlgorithm switches the solver variant between slices. The three
// variants share the explicit factor/Gram state that crosses slice
// boundaries (finishSpCP materializes A = A_z ⊕ A_nz every slice), so
// the switch is exact: the next slice simply runs the other inner
// loop. The spCP-stream incremental C_z bookkeeping is invalidated by
// any switch (its prevNZ set refers to slices processed by the other
// path), so the next spCP slice recomputes C_z,t−1 from scratch — one
// extra Gram pass, after which incremental maintenance resumes.
//
// The same constraint-compatibility rules as construction apply
// (spCP-stream rejects constraints unless ConstrainedSpCP is set);
// incompatible switches return an error and leave the decomposer
// unchanged.
func (d *Decomposer) SetAlgorithm(a Algorithm) error {
	if a == d.opt.Algorithm {
		return nil
	}
	trial := d.opt
	trial.Algorithm = a
	if err := trial.Validate(d.dims); err != nil {
		return err
	}
	d.opt.Algorithm = a
	d.prevNZ = nil
	return nil
}

// MTTKRPKernel returns the current factor-mode MTTKRP kernel policy.
func (d *Decomposer) MTTKRPKernel() MTTKRPKernel { return d.opt.MTTKRPKernel }

// SetMTTKRPKernel overrides the MTTKRP kernel policy for subsequent
// slices. KernelDefault restores the per-algorithm default (Lock for
// Baseline, cost-model Auto otherwise); KernelAuto/KernelPlan/
// KernelCSF/KernelLock force a specific strategy. The switch is exact:
// every kernel computes the same MTTKRP, only its schedule (and hence
// rounding order) differs, and the table is re-resolved at the next
// slice begin. Unknown values return an error and leave the policy
// unchanged.
func (d *Decomposer) SetMTTKRPKernel(k MTTKRPKernel) error {
	if k < KernelDefault || k > KernelLock {
		return fmt.Errorf("core: unknown MTTKRPKernel %d", int(k))
	}
	d.opt.MTTKRPKernel = k
	return nil
}

// LayoutPolicy returns the current adaptive-layout policy.
func (d *Decomposer) LayoutPolicy() LayoutPolicy { return d.opt.Layout }

// SetLayoutPolicy overrides the adaptive-layout policy for subsequent
// slices. LayoutOff freezes remapping and histogram learning (the
// learned state is kept, so re-enabling resumes where it left off);
// LayoutDefault re-enables it. The switch is exact in the
// same sense as SetMTTKRPKernel: every layout computes the same
// updates, only memory order (and hence rounding order) differs.
// Unknown values return an error and leave the policy unchanged.
func (d *Decomposer) SetLayoutPolicy(l LayoutPolicy) error {
	if l < LayoutDefault || l > LayoutOff {
		return fmt.Errorf("core: unknown LayoutPolicy %d", int(l))
	}
	d.opt.Layout = l
	return nil
}

// LayoutStats summarizes the adaptive layout manager (zero value until
// the first slice profiles under an active layout policy).
func (d *Decomposer) LayoutStats() perfmodel.LayoutStats { return d.layout.Stats() }

// LastLayoutDecision reports the layout verdict of the most recent
// slice begin: whether the slice was renumbered into its compact
// nz-row space, and whether any mode used the learned hot-first order.
// Diagnostics surface for serve and the determinism tests.
func (d *Decomposer) LastLayoutDecision() (remapped, hotFirst bool) {
	remapped = d.lastDec.Remap
	for _, p := range d.lastDec.HotFirst {
		if p != nil {
			hotFirst = true
		}
	}
	return remapped, hotFirst
}

// KernelSchedule appends the current per-mode kernel table (resolved
// at the last slice begin) to dst as one letter per mode — "P"lan,
// "C"SF, "L"ock, "S"treamed out of core — the compact schedule string
// the determinism tests compare across checkpoint restores.
func (d *Decomposer) KernelSchedule(dst []byte) []byte {
	for _, kc := range d.kernels {
		switch kc {
		case kcPlan:
			dst = append(dst, 'P')
		case kcCSF:
			dst = append(dst, 'C')
		case kcStream:
			dst = append(dst, 'S')
		default:
			dst = append(dst, 'L')
		}
	}
	return dst
}

// NoteOverload folds the ingestion pipeline's overload counters into
// the recovery stats, so a single ResilienceStats read reports both
// failure recovery and load shedding for the stream.
func (d *Decomposer) NoteOverload(shed, coalesced, stale, drained int) {
	d.stats.OverloadSheds += shed
	d.stats.OverloadCoalesced += coalesced
	d.stats.StaleSheds += stale
	d.stats.DrainedSlices += drained
}

// NoteBreaker folds the serving layer's circuit-breaker counters into
// the recovery stats (open transitions, half-open probes, and slices
// shed at admission while the breaker was open).
func (d *Decomposer) NoteBreaker(opens, probes, sheds int) {
	d.stats.BreakerOpens += opens
	d.stats.BreakerProbes += probes
	d.stats.BreakerSheds += sheds
}

// NoteSpill folds the durable-backlog counters into the recovery stats
// (slices diverted to the WAL spill tier, slices replayed back out of
// it, and the backlog still on disk at drain time).
func (d *Decomposer) NoteSpill(spilled, replayed, pending int) {
	d.stats.SpilledSlices += spilled
	d.stats.SpillReplayed += replayed
	d.stats.SpillPending = pending
}
