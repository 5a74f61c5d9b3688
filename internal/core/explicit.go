package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"spstream/internal/dense"
	"spstream/internal/mttkrp"
	"spstream/internal/parallel"
	"spstream/internal/resilience"
	"spstream/internal/trace"
)

// explicitRun holds the per-slice state of Algorithm 1 between the
// begin/iterate/finish phases. Splitting the slice loop this way keeps
// every per-slice artifact (compiled MTTKRP layouts, convergence state)
// out of the Decomposer while letting tests drive — and measure — a
// single steady-state inner iteration in isolation. The kernel table
// d.kernels (resolved in beginExplicit) says which kernel each mode's
// MTTKRP dispatches to; plan is nil when no mode chose it, the CSF
// trees live in the Decomposer's pooled engine, and a block source
// operand streams through kcStream on every mode.
type explicitRun struct {
	in   operand
	plan *mttkrp.Plan
	// rm, when non-nil, is the layout manager's compact renumbering of
	// the slice (see beginKernelsLayout): the kernels run over rm.X and
	// the gathered d.aNzCur factors, while d.a/d.psi stay in global row
	// ids — the remapping is invisible outside the mode-update inner
	// loop, so snapshots and checkpoints always see global rows.
	rm        *mttkrp.Remapped
	optimized bool
	deltaPrev float64
	res       SliceResult
}

// view returns the operand and factors the kernels run over: the
// compact remapped slice with the gathered rows, or the slice as given
// with the full factors.
func (d *Decomposer) view(run *explicitRun) (operand, []*dense.Matrix) {
	if run.rm != nil {
		return operand{x: run.rm.X}, d.aNzCur
	}
	return run.in, d.a
}

// processSliceExplicit runs one time slice of Algorithm 1 with explicit
// factor matrices — the Baseline and Optimized variants, and every
// slice evaluated out of core. The two algorithms differ in kernel
// choice: Lock vs plan-based segmented MTTKRP, single-lock vs
// thread-local streaming-mode update, and Algorithm 2 vs Algorithm 3
// ADMM for constrained problems. The context is checked at iteration
// boundaries (and inside long ADMM loops via the solver's cancel hook),
// so cancellation abandons the slice without tearing down mid-kernel.
func (d *Decomposer) processSliceExplicit(ctx context.Context, in operand) (SliceResult, error) {
	run, err := d.beginExplicit(in)
	if err != nil {
		return run.res, err
	}
	for iter := 1; iter <= d.opt.MaxIters; iter++ {
		d.iterNo = iter
		if err := ctx.Err(); err != nil {
			return run.res, err
		}
		if err := d.injectFault(resilience.StageIterate, iter); err != nil {
			return run.res, err
		}
		converged, err := d.iterateExplicit(run)
		if err != nil {
			return run.res, err
		}
		if converged {
			run.res.Converged = true
			break
		}
	}
	return d.finishExplicit(run)
}

// beginExplicit performs the per-slice Pre work: snapshot A_{t-1} and
// C_{t-1}, seed H = C (A == A_{t-1} at the start of the inner loop),
// resolve the per-mode kernel table and compile the layouts it needs
// (coordinate plan and/or CSF trees — both amortized over the inner
// iterations), and solve the closed-form sₜ warm start. A block source
// streams every mode and compiles nothing.
func (d *Decomposer) beginExplicit(in operand) (*explicitRun, error) {
	run := &explicitRun{
		in:        in,
		optimized: d.opt.Algorithm != Baseline,
		deltaPrev: math.Inf(1),
		res:       SliceResult{T: d.t, NNZ: in.nnz(), Fit: math.NaN()},
	}
	var err error
	d.bd.Time(trace.Pre, func() {
		for m := range d.a {
			d.prevA[m].CopyFrom(d.a[m])
			d.cPrev[m].CopyFrom(d.c[m])
			d.h[m].CopyFrom(d.c[m])
		}
		if in.src != nil {
			d.beginStreamKernels()
		} else {
			run.plan, run.rm = d.beginKernelsLayout(in.x)
		}
		if run.rm != nil {
			d.ensureNzPsi(run.rm)
			d.ensureANzCur(run.rm)
		}
		kin, factors := d.view(run)
		err = d.solveS(kin, factors, !run.optimized)
	})
	if err != nil {
		return run, err
	}
	d.bd.Time(trace.Misc, d.buildMuG)
	d.ensurePsi()
	return run, nil
}

// iterateExplicit runs one inner ALS/ADMM iteration (all modes plus the
// time-mode block) and reports convergence. This is the steady-state hot
// path: all parallel work dispatches ctx-style through the persistent
// pool, timing uses explicit Add calls, and the Φ factorization reuses
// the Decomposer's Cholesky storage — zero heap allocations per call.
func (d *Decomposer) iterateExplicit(run *explicitRun) (bool, error) {
	run.res.Iters++
	d.bd.Iters++
	phi := d.scratch1
	q := d.scratch2
	kin, factors := d.view(run)
	rm := run.rm
	for n := 0; n < d.n; n++ {
		// Φ⁽ⁿ⁾ and its Cholesky factorization. Hoisted ahead of the Ψ
		// work (on which it does not depend) so the remapped path can use
		// the factor for its fused compact update below.
		t0 := time.Now()
		d.buildPhi(phi, n)
		err := d.factorize(phi)
		d.bd.Add(trace.Inverse, time.Since(t0))
		if err != nil {
			return false, fmt.Errorf("core: mode %d Φ factorization: %w", n, err)
		}
		// Ψ⁽ⁿ⁾ = MTTKRP(Xₜ, {A}, n)·diag(sₜ) — the slice's time mode
		// contributes the single Khatri-Rao row sₜ, which (all nonzeros
		// sharing one time index) reduces to a column scaling of the
		// N-way MTTKRP. On a remapped slice the kernel runs over the
		// compact slice and gathered factors into the |nz|×K Ψ_nz.
		t0 = time.Now()
		psi := d.psi[n]
		if rm != nil {
			psi = d.nzPsi[n]
		}
		if err := d.mttkrpMode(psi, kin, run.plan, factors, n); err != nil {
			return false, fmt.Errorf("core: mode %d MTTKRP: %w", n, err)
		}
		if rm == nil {
			dense.ScaleColumns(psi, psi, d.s)
		}
		d.bd.Add(trace.MTTKRP, time.Since(t0))
		t0 = time.Now()
		d.buildQ(q, n)
		switch {
		case rm == nil:
			// … + A⁽ⁿ⁾ₜ₋₁ ((⊛_{v≠n} H⁽ᵛ⁾) ⊛ µG): the "Historical" term,
			// an Iₙ×K by K×K product against the full previous factor.
			d.addMulAB(psi, d.prevA[n], q)
			d.bd.Add(trace.Historical, time.Since(t0))
		case d.opt.Constraint == nil:
			// Remapped: the historical term folds into the compact rows
			// only: Ψ_nz ← Ψ_nz·diag(sₜ) + (A⁽ⁿ⁾ₜ₋₁)_nz·Q …
			s := d.s
			prev := d.prevA[n]
			for r, g := range rm.NZ[n] {
				dst := psi.Row(r)
				for j := range dst {
					dst[j] *= s[j]
				}
				for kk, av := range prev.Row(int(g)) {
					if av == 0 {
						continue
					}
					rb := q.Data[kk*q.Stride : kk*q.Stride+d.k]
					for j, bv := range rb {
						dst[j] += av * bv
					}
				}
			}
			d.bd.Add(trace.Historical, time.Since(t0))
			// … and the full Iₙ×K Ψ is never materialized: the kernel
			// output is zero off the nz rows, so Ψ_z = (A⁽ⁿ⁾ₜ₋₁·Q)_z and
			// the z-row solves collapse into one K×K composition
			// M = Q·Φ⁻¹ followed by a streaming product — the per-row
			// triangular solves run only over the |nz| compact rows.
			t0 = time.Now()
			d.solveRows(psi, psi, &d.chol)
			for i := 0; i < d.k; i++ {
				d.chol.SolveVec(q.Row(i))
			}
			d.mulAB(d.a[n], d.prevA[n], q)
			rm.ScatterMode(d.a[n], psi, n)
			d.bd.Add(trace.Update, time.Since(t0))
		default:
			// Constrained remap: ADMM needs the full-row Ψ, so build it
			// as overwrite-plus-scatter (still no Iₙ×K zero fill).
			d.mulAB(d.psi[n], d.prevA[n], q)
			s := d.s
			for r, g := range rm.NZ[n] {
				dst := d.psi[n].Row(int(g))
				src := psi.Row(r)
				for j, v := range src {
					dst[j] += v * s[j]
				}
			}
			d.bd.Add(trace.Historical, time.Since(t0))
		}
		// A⁽ⁿ⁾ update for the paths that materialized the full Ψ: direct
		// solve (non-constrained) or ADMM. The fused remap path already
		// updated A⁽ⁿ⁾ above.
		if rm == nil || d.opt.Constraint != nil {
			t0 = time.Now()
			if d.opt.Constraint == nil {
				d.solveRows(d.a[n], d.psi[n], &d.chol)
			} else if run.optimized {
				st, e := d.solver.BlockedFused(d.a[n], phi, d.psi[n], d.opt.Constraint)
				run.res.ADMMIters += st.Iters
				err = e
			} else {
				st, e := d.solver.Baseline(d.a[n], phi, d.psi[n], d.opt.Constraint)
				run.res.ADMMIters += st.Iters
				err = e
			}
			d.bd.Add(trace.Update, time.Since(t0))
			if err != nil {
				return false, fmt.Errorf("core: mode %d ADMM: %w", n, err)
			}
		}
		// Refresh the Gram matrices used by the other modes. The C⁽ⁿ⁾
		// refresh is "Gram" work; the H⁽ⁿ⁾ cross-Gram against A⁽ⁿ⁾ₜ₋₁ is
		// part of the historical term (Fig. 8 accounting).
		t0 = time.Now()
		dense.GramParallel(d.c[n], d.a[n], d.opt.Workers)
		d.bd.Add(trace.Gram, time.Since(t0))
		t0 = time.Now()
		dense.MulAtBParallel(d.h[n], d.prevA[n], d.a[n], d.opt.Workers)
		d.bd.Add(trace.Historical, time.Since(t0))
		if d.opt.Normalize {
			t0 = time.Now()
			d.normalizeModeExplicit(n)
			d.bd.Add(trace.Misc, time.Since(t0))
		}
		if rm != nil {
			// Refresh the mode's compact gather so the remaining modes'
			// kernels (and the time-mode solve) read the updated rows.
			t0 = time.Now()
			rm.GatherMode(d.aNzCur[n], d.a[n], n)
			d.bd.Add(trace.Misc, time.Since(t0))
		}
	}
	// Time-mode ALS block: refresh sₜ against the updated factors (the
	// single-row MTTKRP that motivates the Hybrid Lock kernel) and with
	// it the µG + ssᵀ Hadamard operand.
	t0 := time.Now()
	err := d.solveS(kin, factors, !run.optimized)
	d.bd.Add(trace.MTTKRP, time.Since(t0))
	if err != nil {
		return false, err
	}
	t0 = time.Now()
	d.buildMuG()
	d.bd.Add(trace.Misc, time.Since(t0))
	// δₜ = Σ_n ‖A⁽ⁿ⁾−A⁽ⁿ⁾ₜ₋₁‖_F / ‖A⁽ⁿ⁾‖_F (Eq. 15).
	t0 = time.Now()
	var delta float64
	for n := 0; n < d.n; n++ {
		num := dense.ParallelFrobNorm2Diff(d.a[n], d.prevA[n], d.opt.Workers)
		den := dense.FrobNorm2(d.a[n])
		if den > 0 {
			delta += math.Sqrt(num / den)
		}
	}
	d.bd.Add(trace.Error, time.Since(t0))
	run.res.Delta = delta
	converged := math.Abs(delta-run.deltaPrev) < d.opt.Tol
	run.deltaPrev = delta
	return converged, nil
}

// finishExplicit performs the Post work (fit tracking, G/S temporal
// update) and returns the slice result.
func (d *Decomposer) finishExplicit(run *explicitRun) (SliceResult, error) {
	if d.opt.TrackFit {
		var err error
		d.bd.Time(trace.Misc, func() { run.res.Fit, err = d.sliceFit(run.in) })
		if err != nil {
			return run.res, err
		}
	}
	d.bd.Time(trace.Post, d.finishSlice)
	return run.res, nil
}

// ensurePsi lazily allocates the Ψ workspace (one Iₙ×K matrix per mode).
func (d *Decomposer) ensurePsi() {
	if d.psi != nil {
		return
	}
	d.psi = make([]*dense.Matrix, d.n)
	for m, dim := range d.dims {
		d.psi[m] = dense.NewMatrix(dim, d.k)
	}
}

// ensureANzCur sizes the per-mode gathered compact factors A_nz to the
// remapped slice's nz row counts (reallocating only modes whose count
// changed) and fills them from the current factors.
func (d *Decomposer) ensureANzCur(rm *mttkrp.Remapped) {
	if d.aNzCur == nil {
		d.aNzCur = make([]*dense.Matrix, d.n)
	}
	for m := range d.aNzCur {
		rows := len(rm.NZ[m])
		if d.aNzCur[m] == nil || d.aNzCur[m].Rows != rows || d.aNzCur[m].Cols != d.k {
			d.aNzCur[m] = dense.NewMatrix(rows, d.k)
		}
	}
	rm.GatherFactorsInto(d.aNzCur, d.a)
}

// mulAB computes dst = a·b (full overwrite — the write variant of
// addMulAB) with the row dimension parallelized (a: I×K, b: K×K,
// dst: I×K). Allocation-free via the Decomposer-owned argument block.
func (d *Decomposer) mulAB(dst, a, b *dense.Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("core: mulAB shape mismatch")
	}
	pa := &d.pargs
	pa.dst, pa.a, pa.b = dst, a, b
	d.pool.Do(a.Rows, d.opt.Workers, pa, mulABBody)
	*pa = coreArgs{}
}

func mulABBody(ctx any, _ int, r parallel.Range) {
	pa := ctx.(*coreArgs)
	a, b, dst := pa.a, pa.b, pa.dst
	n := b.Cols
	for i := r.Lo; i < r.Hi; i++ {
		ra := a.Row(i)
		rd := dst.Row(i)[:n]
		for j := range rd {
			rd[j] = 0
		}
		for kk, av := range ra {
			if av == 0 {
				continue
			}
			rb := b.Data[kk*b.Stride : kk*b.Stride+n]
			for j, bv := range rb {
				rd[j] += av * bv
			}
		}
	}
}

// addMulAB computes dst += a·b with the row dimension parallelized
// (a: I×K, b: K×K, dst: I×K). Allocation-free: the operands travel
// through the Decomposer-owned argument block.
func (d *Decomposer) addMulAB(dst, a, b *dense.Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("core: addMulAB shape mismatch")
	}
	pa := &d.pargs
	pa.dst, pa.a, pa.b = dst, a, b
	d.pool.Do(a.Rows, d.opt.Workers, pa, addMulABBody)
	*pa = coreArgs{}
}

func addMulABBody(ctx any, _ int, r parallel.Range) {
	pa := ctx.(*coreArgs)
	a, b, dst := pa.a, pa.b, pa.dst
	n := b.Cols
	for i := r.Lo; i < r.Hi; i++ {
		ra := a.Row(i)
		rd := dst.Row(i)
		for kk, av := range ra {
			if av == 0 {
				continue
			}
			rb := b.Data[kk*b.Stride : kk*b.Stride+n]
			for j, bv := range rb {
				rd[j] += av * bv
			}
		}
	}
}

// solveRows computes dst = rhs·Φ⁻¹ row by row using the shared Cholesky
// factor, parallelized over rows. Allocation-free like addMulAB.
func (d *Decomposer) solveRows(dst, rhs *dense.Matrix, chol *dense.Cholesky) {
	if dst.Rows != rhs.Rows || dst.Cols != rhs.Cols {
		panic("core: solveRows shape mismatch")
	}
	pa := &d.pargs
	pa.dst, pa.a, pa.chol = dst, rhs, chol
	d.pool.Do(rhs.Rows, d.opt.Workers, pa, solveRowsBody)
	*pa = coreArgs{}
}

func solveRowsBody(ctx any, _ int, r parallel.Range) {
	pa := ctx.(*coreArgs)
	for i := r.Lo; i < r.Hi; i++ {
		row := pa.dst.Row(i)
		copy(row, pa.a.Row(i))
		pa.chol.SolveVec(row)
	}
}
