package core

import (
	"spstream/internal/csf"
	"spstream/internal/dense"
	"spstream/internal/mttkrp"
	"spstream/internal/perfmodel"
	"spstream/internal/sptensor"
)

// This file threads the MTTKRP kernel policy through the slice
// lifecycle. At every slice begin, chooseKernels resolves the policy
// (Options.MTTKRPKernel, adjustable between slices via
// SetMTTKRPKernel) into one concrete kernel per mode; the iterate
// phases dispatch on that table. Under KernelAuto the perfmodel
// selector compares the predicted cost of the compiled coordinate plan
// against the tiled CSF engine per mode, using the measured slice shape
// — a pure function of (slice, options), so checkpoint-restored and
// retried slices reproduce the original kernel schedule exactly. A
// slice evaluated out of core bypasses the policy: every mode takes
// kcStream (see beginStreamKernels).

// kernelChoice is one mode's resolved kernel for the current slice.
type kernelChoice int8

const (
	kcLock kernelChoice = iota
	kcPlan
	kcCSF
	// kcStream is the blocked MTTKRP over a block source
	// (mttkrp.StreamKernel), bit-identical to the plan kernel on the
	// materialized slice.
	kcStream
)

// mttkrpMode computes dst = MTTKRP(in, factors, n) with mode n's kernel
// from the table. plan is the compiled coordinate plan (plan modes
// only); CSF modes read the trees the pooled engine built at begin.
// Only a streamed block that fails to decode returns an error.
func (d *Decomposer) mttkrpMode(dst *dense.Matrix, in operand, plan *mttkrp.Plan, factors []*dense.Matrix, n int) error {
	switch d.kernels[n] {
	case kcStream:
		return d.sk.MTTKRP(dst, in.src, factors, n)
	case kcCSF:
		d.csfEng.MTTKRP(dst, factors, n)
	case kcPlan:
		d.mt.PlanMTTKRP(dst, plan, factors, n)
	default:
		d.mt.Lock(dst, in.x, factors, n)
	}
	return nil
}

// fillKernels sets every mode of the table to kc.
func (d *Decomposer) fillKernels(kc kernelChoice) {
	if cap(d.kernels) < d.n {
		d.kernels = make([]kernelChoice, d.n)
	}
	d.kernels = d.kernels[:d.n]
	for m := range d.kernels {
		d.kernels[m] = kc
	}
}

// beginStreamKernels resolves the table for a slice evaluated out of
// core: every mode streams, whatever the policy and algorithm. Nothing
// is profiled, remapped or compiled, and the layout verdict is cleared
// so diagnostics never report a stale remap.
func (d *Decomposer) beginStreamKernels() {
	d.lastDec = perfmodel.Decision{}
	d.streamKernel()
	d.fillKernels(kcStream)
}

// kernelPolicy resolves KernelDefault to the per-algorithm default.
func (d *Decomposer) kernelPolicy() MTTKRPKernel {
	if d.opt.MTTKRPKernel != KernelDefault {
		return d.opt.MTTKRPKernel
	}
	if d.opt.Algorithm == Baseline {
		return KernelLock
	}
	return KernelAuto
}

// selectorAmortIters is the inner-iteration count the per-slice build
// cost is amortized over in Auto selection: MaxIters capped low, so a
// stream that converges quickly is not charged for builds it would
// never amortize. Deliberately conservative — underestimating the
// iteration count biases toward the cheaper-to-build plan.
func (d *Decomposer) selectorAmortIters() int {
	it := d.opt.MaxIters
	if it > 8 {
		it = 8
	}
	return it
}

// layoutActive reports whether the adaptive layout manager runs: it
// rides the Auto cost-model path of the optimized algorithms (forced
// kernel policies pin the whole layout so kernel benchmarks stay
// apples-to-apples) and can be switched off via Options.Layout.
func (d *Decomposer) layoutActive() bool {
	return d.opt.Layout != LayoutOff &&
		d.opt.Algorithm != Baseline &&
		d.kernelPolicy() == KernelAuto
}

// ensureLayout lazily creates the stream-lifetime layout manager.
func (d *Decomposer) ensureLayout() *perfmodel.Layout {
	if d.layout == nil {
		d.layout = perfmodel.NewLayout(perfmodel.DefaultLayoutParams(), d.dims)
	}
	return d.layout
}

// chooseKernelsFrom fills d.kernels (one choice per mode) from an
// already-measured profile (ignored under forced policies) and reports
// which compiled layouts the slice needs. Under KernelAuto the
// selection is a pure function of (profile, rank, options) — the
// profile of the view the kernels will actually run over, so the cost
// model sees the remapped shape when the layout manager remapped.
func (d *Decomposer) chooseKernelsFrom(prof *perfmodel.SliceProfile) (needPlan, needCSF bool) {
	switch d.kernelPolicy() {
	case KernelLock:
		d.fillKernels(kcLock)
	case KernelPlan:
		d.fillKernels(kcPlan)
	case KernelCSF:
		d.fillKernels(kcCSF)
	default: // KernelAuto
		d.fillKernels(kcPlan)
		amort := d.selectorAmortIters()
		for m := range d.kernels {
			if d.sel.SelectMTTKRPEx(*prof, m, d.k, amort, prof.Sorted) == perfmodel.MTTKRPCSF {
				d.kernels[m] = kcCSF
			}
		}
	}
	for _, kc := range d.kernels {
		switch kc {
		case kcPlan:
			needPlan = true
		case kcCSF:
			needCSF = true
		}
	}
	return needPlan, needCSF
}

// chooseKernels profiles x (under Auto) and resolves the kernel table —
// the single-tensor path used by spCP-stream, forced policies, and the
// selection tests.
func (d *Decomposer) chooseKernels(x *sptensor.Tensor) (needPlan, needCSF bool) {
	if d.kernelPolicy() == KernelAuto {
		d.profiler.Profile(&d.prof, x, nil, d.t)
	}
	return d.chooseKernelsFrom(&d.prof)
}

// ensureEngine lazily creates the CSF engine on the Decomposer's pool.
func (d *Decomposer) ensureEngine() *csf.Engine {
	if d.csfEng == nil {
		d.csfEng = csf.NewEngineWithPool(d.opt.Workers, d.pool)
	}
	return d.csfEng
}

// compileKernels compiles the layouts the resolved kernel table needs
// over kx: CSF trees for the CSF modes (built eagerly so the cost lands
// in the Pre phase, not the first iteration) and the coordinate plan
// for the plan modes. Returns the plan (nil when no mode uses it).
// hintSorted passes the sorted-base claim to the CSF engine, unlocking
// its reduced-pass builds (the engine verifies the claim itself, so an
// optimistic hint is safe).
func (d *Decomposer) compileKernels(kx *sptensor.Tensor, needPlan, needCSF, hintSorted bool) *mttkrp.Plan {
	if needCSF {
		eng := d.ensureEngine()
		eng.Begin(kx)
		if hintSorted {
			eng.SetSortedBase()
		}
		for m, kc := range d.kernels {
			if kc == kcCSF {
				eng.Build(m)
			}
		}
	}
	if !needPlan {
		return nil
	}
	if allPlan(d.kernels) {
		return d.mt.NewPlan(kx)
	}
	need := make([]bool, len(d.kernels))
	for m, kc := range d.kernels {
		need[m] = kc == kcPlan
	}
	return d.mt.NewPlanFor(kx, need)
}

// beginKernels resolves the kernel table for slice x and compiles the
// layouts it needs. Forced policies skip profiling, so the sorted-base
// hint is passed optimistically (slices arrive Coalesce-sorted in
// every production path; the engine's own verification catches the
// rest).
func (d *Decomposer) beginKernels(x *sptensor.Tensor) *mttkrp.Plan {
	auto := d.kernelPolicy() == KernelAuto
	needPlan, needCSF := d.chooseKernels(x)
	return d.compileKernels(x, needPlan, needCSF, !auto || d.prof.Sorted)
}

// beginKernelsLayout is beginKernels for the explicit path with the
// adaptive layout manager in the loop: profile the global slice (the
// same counting pass folds the per-row histograms), ask the layout
// manager whether remapping pays off, remap through the pooled
// remapper when it does, and select kernels over the profile of
// whichever view the inner loop will run on. Returns the compiled plan
// and the remapped view (nil when the slice runs in place).
func (d *Decomposer) beginKernelsLayout(x *sptensor.Tensor) (*mttkrp.Plan, *mttkrp.Remapped) {
	if d.kernelPolicy() != KernelAuto {
		d.lastDec = perfmodel.Decision{}
		needPlan, needCSF := d.chooseKernelsFrom(&d.prof)
		return d.compileKernels(x, needPlan, needCSF, true), nil
	}
	var lay *perfmodel.Layout
	if d.layoutActive() {
		lay = d.ensureLayout()
	}
	d.profiler.Profile(&d.prof, x, lay, d.t)
	dec := lay.Decide(d.prof, d.k, d.selectorAmortIters())
	d.lastDec = dec
	if !dec.Remap {
		needPlan, needCSF := d.chooseKernelsFrom(&d.prof)
		return d.compileKernels(x, needPlan, needCSF, d.prof.Sorted), nil
	}
	rm := d.remapper.Begin(x, dec.HotFirst)
	d.compactProfile(rm, dec.HotFirst != nil)
	needPlan, needCSF := d.chooseKernelsFrom(&d.profNz)
	return d.compileKernels(rm.X, needPlan, needCSF, d.profNz.Sorted), rm
}

// compactProfile derives the remapped view's profile from the global
// one without a second counting pass: mode m's index space collapses
// to its nz-row count (every local row is nonzero by construction),
// nonzero counts and distinct-pair counts are invariant under the
// per-mode renumbering, and ascending-id remapping preserves storage
// order (hot-first does not).
func (d *Decomposer) compactProfile(rm *mttkrp.Remapped, hot bool) {
	p := &d.profNz
	p.NNZ = d.prof.NNZ
	if cap(p.Modes) < len(d.prof.Modes) {
		p.Modes = make([]perfmodel.ModeProfile, len(d.prof.Modes))
	}
	p.Modes = p.Modes[:len(d.prof.Modes)]
	for m, mp := range d.prof.Modes {
		nz := len(rm.NZ[m])
		p.Modes[m] = perfmodel.ModeProfile{Dim: nz, NZRows: nz, TopRowFrac: mp.TopRowFrac}
	}
	p.Sorted = d.prof.Sorted && !hot
	p.Pair01 = d.prof.Pair01
}

func allPlan(ks []kernelChoice) bool {
	for _, kc := range ks {
		if kc != kcPlan {
			return false
		}
	}
	return true
}
