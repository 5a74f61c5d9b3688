package core

import (
	"context"
	"fmt"
	"math"

	"spstream/internal/admm"
	"spstream/internal/csf"
	"spstream/internal/dense"
	"spstream/internal/mttkrp"
	"spstream/internal/parallel"
	"spstream/internal/perfmodel"
	"spstream/internal/resilience"
	"spstream/internal/sptensor"
	"spstream/internal/synth"
	"spstream/internal/trace"
)

// Decomposer consumes time slices one at a time and maintains the
// streaming CP factorization. It is not safe for concurrent use.
type Decomposer struct {
	opt  Options
	dims []int
	n    int // number of non-streaming modes
	k    int // rank

	// Factor state.
	a     []*dense.Matrix // current factors A⁽ⁿ⁾ (Iₙ×K)
	prevA []*dense.Matrix // A⁽ⁿ⁾ₜ₋₁ snapshot during a slice
	c     []*dense.Matrix // C⁽ⁿ⁾ = A⁽ⁿ⁾ᵀA⁽ⁿ⁾ (K×K)
	cPrev []*dense.Matrix // C⁽ⁿ⁾ₜ₋₁ (K×K)
	h     []*dense.Matrix // H⁽ⁿ⁾ = Aₜ₋₁ᵀA (K×K)
	g     *dense.Matrix   // temporal Gram G (K×K)
	s     []float64       // current sₜ
	sHist [][]float64     // all temporal rows (the S factor)
	t     int             // slices processed

	// spCP-stream state carried across slices.
	prevNZ [][]int32       // nz sets of the previous slice
	cz     []*dense.Matrix // Gram of A's z-rows w.r.t. prevNZ

	// Kernels and workspaces.
	psi    []*dense.Matrix // Ψ workspace for the explicit algorithms
	nzPsi  []*dense.Matrix // per-mode Ψ_nz workspaces for spCP-stream
	mt     *mttkrp.Computer
	solver *admm.Solver
	bd     trace.Breakdown
	rng    *synth.RNG
	pool   *parallel.Pool

	// MTTKRP kernel selection (see kernels.go): the pooled CSF engine
	// (created on first use), the cost-model selector, the reusable slice
	// profile it reads, and the per-mode kernel table resolved at every
	// slice begin.
	csfEng  *csf.Engine
	sel     perfmodel.Selector
	prof    perfmodel.SliceProfile
	kernels []kernelChoice

	// Out-of-core evaluation (see streamed.go): the pooled streaming
	// MTTKRP kernel behind kcStream (created on first streamed slice)
	// and the evaluation mode the selector picked for the most recent
	// block slice.
	sk       *mttkrp.StreamKernel
	lastEval perfmodel.EvalMode

	// Adaptive memory layout (see kernels.go and perfmodel/layout.go):
	// the stream-lifetime layout manager (lazily created when the
	// policy allows it), the pooled profiler that folds each slice's
	// row counts into its histograms, the pooled remapper, the compact
	// profile of the remapped view, the gathered compact factors the
	// remapped kernels read, and the last slice's resolved decision
	// (for the tune/serve diagnostics and the determinism tests).
	layout   *perfmodel.Layout
	profiler perfmodel.Profiler
	remapper mttkrp.Remapper
	profNz   perfmodel.SliceProfile
	aNzCur   []*dense.Matrix
	lastDec  perfmodel.Decision

	// Scratch K×K matrices reused across iterations.
	muG, phiS, sPhi, scratch1, scratch2 *dense.Matrix

	// Reusable Cholesky factorization of the per-mode Φ (and the sₜ Φ).
	chol dense.Cholesky

	// Reusable column-scale buffer for normalization.
	colScale []float64

	// Reusable argument block for the ctx-style parallel helpers below.
	pargs coreArgs

	// Resilience state (see resilient.go): recovery counters, the
	// last-good snapshot, and the slice attempt / inner iteration
	// counters reported to the fault-injection hook.
	stats        resilience.Stats
	snap         *stateSnapshot
	sliceAttempt int
	iterNo       int

	// commitHook, when set, observes every committed slice (see
	// SetCommitHook).
	commitHook func(SliceResult)
}

// SetCommitHook registers a callback invoked immediately after a slice
// commits — ProcessSliceContext returning nil, with the factor state
// advanced to include the slice. It never fires for failed, skipped,
// rolled-back, or cancelled slices, so a hook that snapshots the
// factors (the serving layer's snapshot publisher) can never observe
// state a later rollback will retract: by the time the hook runs, the
// slice's mutations are final. The hook runs on the goroutine driving
// the decomposer, while it is quiescent — reading factors, Fit, and T
// inside the hook is safe; retaining references past its return is not.
func (d *Decomposer) SetCommitHook(h func(SliceResult)) { d.commitHook = h }

// coreArgs carries addMulAB/solveRows operands through the worker pool
// without closures; owned by the Decomposer and cleared after each call.
type coreArgs struct {
	dst, a, b *dense.Matrix
	chol      *dense.Cholesky
}

// NewDecomposer creates a decomposer for slices with the given mode
// lengths. Factors are randomly initialized (non-negative uniform, so
// constrained runs start feasible).
func NewDecomposer(dims []int, opt Options) (*Decomposer, error) {
	opt = opt.withDefaults()
	if err := opt.Validate(dims); err != nil {
		return nil, err
	}
	d := &Decomposer{
		opt:  opt,
		dims: append([]int(nil), dims...),
		n:    len(dims),
		k:    opt.Rank,
		mt:   mttkrp.NewComputer(opt.Workers),
		rng:  synth.NewRNG(opt.Seed),
		pool: parallel.Default(),
		sel:  perfmodel.NewSelector(opt.Workers),
	}
	d.solver = admm.NewSolver(admm.Options{
		Workers:  opt.Workers,
		Tol:      opt.ADMMTol,
		MaxIters: opt.ADMMMaxIters,
	})
	k := d.k
	for _, dim := range dims {
		f := dense.NewMatrix(dim, k)
		for i := range f.Data {
			f.Data[i] = d.rng.Float64() + 0.1 // positive, well away from 0
		}
		d.a = append(d.a, f)
		d.prevA = append(d.prevA, dense.NewMatrix(dim, k))
		d.c = append(d.c, dense.NewMatrix(k, k))
		d.cPrev = append(d.cPrev, dense.NewMatrix(k, k))
		d.h = append(d.h, dense.NewMatrix(k, k))
	}
	d.g = dense.NewMatrix(k, k)
	d.s = make([]float64, k)
	d.muG = dense.NewMatrix(k, k)
	d.phiS = dense.NewMatrix(k, k)
	d.sPhi = dense.NewMatrix(k, k)
	d.scratch1 = dense.NewMatrix(k, k)
	d.scratch2 = dense.NewMatrix(k, k)
	d.colScale = make([]float64, k)
	for range dims {
		d.cz = append(d.cz, dense.NewMatrix(k, k))
	}
	// Invariant: d.c always holds Gram(d.a) at slice boundaries.
	d.refreshGrams()
	return d, nil
}

// Dims returns the slice mode lengths.
func (d *Decomposer) Dims() []int { return d.dims }

// Rank returns the decomposition rank K.
func (d *Decomposer) Rank() int { return d.k }

// T returns the number of slices processed so far.
func (d *Decomposer) T() int { return d.t }

// Factor returns the current factor matrix for mode n (live storage; do
// not modify).
func (d *Decomposer) Factor(n int) *dense.Matrix { return d.a[n] }

// TemporalGram returns the temporal Gram matrix G (live storage).
func (d *Decomposer) TemporalGram() *dense.Matrix { return d.g }

// Temporal returns the accumulated temporal factor S as a T×K matrix.
func (d *Decomposer) Temporal() *dense.Matrix { return dense.FromRows(d.sHist) }

// LastS returns the most recent temporal row sₜ (live storage).
func (d *Decomposer) LastS() []float64 { return d.s }

// Breakdown returns the accumulated per-phase time breakdown.
func (d *Decomposer) Breakdown() *trace.Breakdown { return &d.bd }

// ResetBreakdown clears accumulated phase timings.
func (d *Decomposer) ResetBreakdown() { d.bd.Reset() }

// operand is one slice's nonzeros as the kernels read them: a resident
// tensor x, or a block source src evaluated out of core. Exactly one is
// set. The same explicit loop runs over both; the kernel table decides
// which kernels read which (see kcStream).
type operand struct {
	x   *sptensor.Tensor
	src sptensor.BlockSource
}

func (in operand) nnz() int {
	if in.src != nil {
		return in.src.NNZ()
	}
	return in.x.NNZ()
}

// scan is the guarded path's input scan: coordinates in range and
// values finite. A block source must also decode every block and hold
// the nonzero count it advertises.
func (in operand) scan() error {
	if in.src == nil {
		return scanSliceInput(in.x)
	}
	total := 0
	for b := 0; b < in.src.Blocks(); b++ {
		blk, err := in.src.Block(b)
		if err != nil {
			return err
		}
		if err := scanSliceInput(blk); err != nil {
			return fmt.Errorf("block %d: %w", b, err)
		}
		total += blk.NNZ()
	}
	if total != in.src.NNZ() {
		return fmt.Errorf("sptensor: block source reports %d nonzeros, blocks hold %d", in.src.NNZ(), total)
	}
	return nil
}

// norm2 returns ‖X‖². A block source accumulates block by block in
// block order: the same left-to-right sum Norm2 takes over the
// materialized concatenation.
func (in operand) norm2() (float64, error) {
	if in.src == nil {
		return in.x.Norm2(), nil
	}
	sum := 0.0
	for b := 0; b < in.src.Blocks(); b++ {
		blk, err := in.src.Block(b)
		if err != nil {
			return 0, err
		}
		for _, v := range blk.Vals {
			sum += v * v
		}
	}
	return sum, nil
}

// checkSlice validates a slice's shape against the decomposer.
func (d *Decomposer) checkSlice(in operand) error {
	var dims []int
	switch {
	case in.src != nil:
		dims = in.src.Dims()
	case in.x != nil:
		dims = in.x.Dims
	default:
		return fmt.Errorf("core: nil slice")
	}
	if len(dims) != d.n {
		return fmt.Errorf("core: slice has %d modes, decomposer expects %d", len(dims), d.n)
	}
	for m, dim := range dims {
		if dim != d.dims[m] {
			return fmt.Errorf("core: slice mode %d length %d ≠ %d", m, dim, d.dims[m])
		}
	}
	return nil
}

// ProcessSlice advances the factorization by one time slice. It is
// ProcessSliceContext with a background context.
func (d *Decomposer) ProcessSlice(x *sptensor.Tensor) (SliceResult, error) {
	return d.ProcessSliceContext(context.Background(), x)
}

// ProcessStream drains a slice source, invoking cb (if non-nil) after
// every slice, and returns the per-slice results. It is
// ProcessStreamContext with a background context.
func (d *Decomposer) ProcessStream(src sptensor.SliceSource, cb func(SliceResult)) ([]SliceResult, error) {
	return d.ProcessStreamContext(context.Background(), src, cb)
}

// --- shared helpers ---------------------------------------------------

// refreshGrams recomputes C⁽ⁿ⁾ for all modes from the current factors.
func (d *Decomposer) refreshGrams() {
	for m := range d.a {
		dense.GramParallel(d.c[m], d.a[m], d.opt.Workers)
	}
}

// solveS computes the closed-form sₜ update
// (⊛_v C⁽ᵛ⁾ + λI)s = ψ with ψ from the streaming-mode MTTKRP over the
// given factors. It runs once before the inner loop (warm start from
// the previous slice's factors) and once per inner iteration (the time
// mode is the (N+1)-th ALS block). The locked flag selects the
// pathological single-lock kernel (Baseline) vs the thread-local
// reduction — the paper's prime example of lock contention (§IV-B).
func (d *Decomposer) solveS(in operand, factors []*dense.Matrix, locked bool) error {
	phi := d.sPhi
	phi.Fill(1)
	for m := range factors {
		dense.Hadamard(phi, phi, d.c[m])
	}
	dense.AddScaledIdentity(phi, phi, d.opt.StreamRidge)
	if err := d.timeMode(d.s, in, factors, locked); err != nil {
		return fmt.Errorf("core: sₜ MTTKRP: %w", err)
	}
	if err := d.factorize(phi); err != nil {
		return fmt.Errorf("core: sₜ solve: %w", err)
	}
	d.chol.SolveVec(d.s)
	return nil
}

// timeMode computes the streaming-mode MTTKRP ψ into dst. A block
// source always takes the streamed thread-local reduction, which is
// bit-identical to the in-memory TimeMode; the single-lock variant has
// no streamed twin.
func (d *Decomposer) timeMode(dst []float64, in operand, factors []*dense.Matrix, locked bool) error {
	switch {
	case in.src != nil:
		return d.streamKernel().TimeMode(dst, in.src, factors)
	case locked:
		d.mt.TimeModeLocked(dst, in.x, factors)
	default:
		d.mt.TimeMode(dst, in.x, factors)
	}
	return nil
}

// buildMuG caches µG + ssᵀ (into phiS scratch) and µG (into muG) for the
// current slice; both are fixed across inner iterations.
func (d *Decomposer) buildMuG() {
	dense.Scale(d.muG, d.opt.Mu, d.g)
	dense.OuterProduct(d.phiS, d.s, d.s)
	dense.Add(d.phiS, d.phiS, d.muG)
}

// buildPhi computes Φ⁽ⁿ⁾ = (⊛_{v≠n} C⁽ᵛ⁾) ⊛ (µG + ssᵀ) + ridge·I into
// dst, returning the ridge actually applied.
func (d *Decomposer) buildPhi(dst *dense.Matrix, mode int) float64 {
	dst.Fill(1)
	for v := range d.c {
		if v == mode {
			continue
		}
		dense.Hadamard(dst, dst, d.c[v])
	}
	dense.Hadamard(dst, dst, d.phiS)
	ridge := d.opt.FactorRidgeRel * dense.Trace(dst) / float64(d.k)
	if ridge <= 0 || math.IsNaN(ridge) {
		ridge = 1e-12
	}
	dense.AddScaledIdentity(dst, dst, ridge)
	return ridge
}

// buildQ computes Q⁽ⁿ⁾ = (⊛_{v≠n} H⁽ᵛ⁾) ⊛ µG into dst.
func (d *Decomposer) buildQ(dst *dense.Matrix, mode int) {
	dst.Fill(1)
	for v := range d.h {
		if v == mode {
			continue
		}
		dense.Hadamard(dst, dst, d.h[v])
	}
	dense.Hadamard(dst, dst, d.muG)
}

// finishSlice performs the bookkeeping common to all algorithms after
// the inner loop converges: the G/S temporal updates and the slice
// counter. (Normalization, when enabled, already ran per iteration —
// Algorithm 4 line 30.)
func (d *Decomposer) finishSlice() {
	// Gₜ = µGₜ₋₁ + sₜsₜᵀ.
	dense.Scale(d.g, d.opt.Mu, d.g)
	for i := 0; i < d.k; i++ {
		gi := d.g.Row(i)
		si := d.s[i]
		for j := 0; j < d.k; j++ {
			gi[j] += si * d.s[j]
		}
	}
	d.sHist = append(d.sHist, append([]float64(nil), d.s...))
	d.t++
}

// columnScales extracts the per-column 2-norms λ of mode m's factor
// from diag(C⁽ᵐ⁾) (so it works identically for the Gram-form algorithm)
// and their inverses, guarding dead columns, and absorbs λ into sₜ so
// the model [[A…; s]] is unchanged by the rescaling.
func (d *Decomposer) columnScales(m int) (inv []float64) {
	inv = d.colScale
	for j := 0; j < d.k; j++ {
		v := d.c[m].At(j, j)
		lambda := 1.0
		if v > 0 {
			lambda = math.Sqrt(v)
		}
		inv[j] = 1 / lambda
		d.s[j] *= lambda
	}
	return inv
}

// scaleGrams applies the column rescaling to mode m's cached Gram
// state: C ← D⁻¹CD⁻¹ and H ← H·D⁻¹ (H's left side is the unscaled
// A⁽ᵐ⁾ₜ₋₁).
func (d *Decomposer) scaleGrams(m int, inv []float64) {
	dense.ScaleColumns(d.c[m], d.c[m], inv)
	dense.ScaleRows(d.c[m], d.c[m], inv)
	dense.ScaleColumns(d.h[m], d.h[m], inv)
}

// normalizeModeExplicit implements Algorithm 4's per-iteration
// normalize(C, H) (line 30) for the explicit algorithms: after mode m's
// update, its factor columns are rescaled to unit norm, the scale is
// absorbed into sₜ, and the µG + ssᵀ operand is refreshed so subsequent
// modes in the same iteration see a consistent model.
func (d *Decomposer) normalizeModeExplicit(m int) {
	inv := d.columnScales(m)
	dense.ScaleColumns(d.a[m], d.a[m], inv)
	d.scaleGrams(m, inv)
	d.buildMuG()
}

// normalizeModeSpCP is the Gram-form counterpart: the explicit nz rows
// and the z-row transform T⁽ᵐ⁾ are rescaled (A_z = A_z,t₋₁·T, so
// scaling T's columns scales the implicit z rows), along with the
// current C_z and the C/H state.
func (d *Decomposer) normalizeModeSpCP(m int, aNz, tCur, czCur *dense.Matrix) {
	inv := d.columnScales(m)
	dense.ScaleColumns(aNz, aNz, inv)
	dense.ScaleColumns(tCur, tCur, inv)
	dense.ScaleColumns(czCur, czCur, inv)
	dense.ScaleRows(czCur, czCur, inv)
	d.scaleGrams(m, inv)
	d.buildMuG()
}
