// Package core implements the CP-stream family of streaming tensor
// decomposition algorithms from the paper:
//
//   - Baseline: Algorithm 1 with the original kernel choices — lock-pool
//     MTTKRP (including a single-lock streaming-mode update) and, for
//     constrained problems, the pass-per-operation ADMM of Algorithm 2.
//   - Optimized: Algorithm 1 with the paper's optimized kernels — Hybrid
//     Lock MTTKRP, thread-local streaming-mode reduction, and Blocked &
//     Fused ADMM (Algorithm 3) for constraints.
//   - SpCPStream: the paper's new Algorithm 4 for non-constrained
//     problems — factor rows are partitioned into nz/z subsets, the z
//     subset is carried implicitly in K×K Gram form, and convergence is
//     checked from traces of the C and H Gram matrices.
//
// All three produce a rank-K factorization {A⁽¹⁾,…,A⁽ᴺ⁾, S} of a stream
// of N-way slices, with forgetting factor µ weighting history through
// the temporal Gram matrix G.
package core

import (
	"errors"
	"fmt"

	"spstream/internal/admm"
	"spstream/internal/parallel"
	"spstream/internal/resilience"
)

// Algorithm selects the solver variant.
type Algorithm int

const (
	// Optimized is CP-stream with Hybrid Lock MTTKRP and BF-ADMM (the
	// zero value).
	Optimized Algorithm = iota
	// Baseline is the unoptimized CP-stream reference.
	Baseline
	// SpCPStream is the paper's new Gram-form algorithm (non-constrained
	// only).
	SpCPStream
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case Baseline:
		return "baseline"
	case Optimized:
		return "optimized"
	case SpCPStream:
		return "spcp-stream"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// MTTKRPKernel selects the factor-mode MTTKRP strategy.
type MTTKRPKernel int

const (
	// KernelDefault picks per algorithm: Lock for Baseline (the
	// paper-faithful unoptimized reference) and Auto for Optimized and
	// SpCPStream.
	KernelDefault MTTKRPKernel = iota
	// KernelAuto selects plan vs CSF per mode at every slice using the
	// perfmodel cost selector on the measured slice shape (nnz, mode
	// lengths, rank, workers). The choice is a pure function of the
	// slice and the options, so restored runs reproduce it exactly.
	KernelAuto
	// KernelPlan forces the per-slice compiled coordinate plan
	// (mttkrp.Plan) for every mode.
	KernelPlan
	// KernelCSF forces the tiled CSF fiber-tree engine (csf.Engine) for
	// every mode.
	KernelCSF
	// KernelLock forces the baseline striped-mutex kernel (no per-slice
	// compile step).
	KernelLock
)

// String names the kernel policy.
func (k MTTKRPKernel) String() string {
	switch k {
	case KernelDefault:
		return "default"
	case KernelAuto:
		return "auto"
	case KernelPlan:
		return "plan"
	case KernelCSF:
		return "csf"
	case KernelLock:
		return "lock"
	default:
		return fmt.Sprintf("MTTKRPKernel(%d)", int(k))
	}
}

// LayoutPolicy selects the adaptive memory-layout manager (see
// perfmodel.Layout): per-mode decayed hot-row histograms learned across
// slices, and a per-slice cost-model decision to renumber the slice
// into its compact nz-row index space (optionally hot-first) before the
// inner iterations run.
type LayoutPolicy int

const (
	// LayoutDefault enables adaptive layout whenever the kernel policy
	// resolves to Auto on the optimized algorithms (it rides the same
	// slice profile the kernel selector reads, so it costs nothing
	// extra to keep on).
	LayoutDefault LayoutPolicy = iota
	// LayoutOff disables remapping and layout learning; slices run in
	// stream order over the full index space (the pre-layout behavior,
	// and the apples-to-apples baseline the bench suite compares
	// against).
	LayoutOff
)

// String names the layout policy.
func (l LayoutPolicy) String() string {
	switch l {
	case LayoutDefault:
		return "default"
	case LayoutOff:
		return "off"
	default:
		return fmt.Sprintf("LayoutPolicy(%d)", int(l))
	}
}

// Options configure a Decomposer. Zero values select the paper's
// defaults where one exists.
type Options struct {
	// Rank K of the decomposition. Required.
	Rank int
	// Algorithm variant. Default Optimized.
	Algorithm Algorithm
	// Mu is the forgetting factor µ ∈ [0,1]. Default 0.99 (paper §VI-B).
	Mu float64
	// Tol is the outer-loop tolerance ε on |δₜ − δₜ₋₁|. Default 1e-5.
	Tol float64
	// MaxIters bounds the inner (per-slice) iteration count. Default 20.
	MaxIters int
	// StreamRidge is the Frobenius regularization on the streaming-mode
	// solve (paper §VI-B uses 1e-2). Default 1e-2.
	StreamRidge float64
	// FactorRidgeRel scales the ridge added to Φ⁽ⁿ⁾ before factorization,
	// relative to tr(Φ)/K. Default 1e-6.
	FactorRidgeRel float64
	// Workers is the parallel width (≤0 = GOMAXPROCS).
	Workers int
	// Constraint, when non-nil, activates constrained CP-stream with the
	// ADMM inner solver. SpCPStream rejects constraints (paper §VII).
	Constraint admm.Constraint
	// ADMMTol and ADMMMaxIters configure the inner ADMM loop.
	// Defaults 1e-4 / 50.
	ADMMTol      float64
	ADMMMaxIters int
	// Seed drives the random factor initialization. Default 1.
	Seed uint64
	// TrackFit enables per-slice fit computation (extra nnz·K work).
	TrackFit bool
	// Normalize applies the per-iteration normalize(C, H) of Algorithm 4
	// (line 30): after every mode update, that mode's factor columns are
	// rescaled to unit norm (norms taken from diag(C), so the Gram-form
	// algorithm needs no explicit factors), with the scales absorbed
	// into sₜ.
	Normalize bool
	// DirectCz disables the incremental C_z,t−1 maintenance of
	// Algorithm 4 lines 8–11 and recomputes C_z,t−1 = C − A_nzᵀA_nz
	// from scratch every slice. Slower when consecutive slices share
	// most of their nz sets; exists for the ablation benchmark and as a
	// numerical cross-check (spCP-stream only).
	DirectCz bool
	// MTTKRPKernel selects the factor-mode MTTKRP strategy; see the
	// MTTKRPKernel constants. The default picks Lock for Baseline and
	// the cost-model Auto selection for Optimized and SpCPStream.
	// Adjustable between slices via Decomposer.SetMTTKRPKernel.
	MTTKRPKernel MTTKRPKernel
	// Layout selects the adaptive memory-layout manager; see the
	// LayoutPolicy constants. Only consulted when the kernel policy
	// resolves to Auto (forced kernel policies pin the whole layout for
	// reproducible kernel benchmarking). Adjustable between slices via
	// Decomposer.SetLayoutPolicy.
	Layout LayoutPolicy
	// MemBudget caps the estimated resident bytes a slice may occupy
	// during processing (see perfmodel.ResidentBytes). When a slice
	// arriving through ProcessBlockSlice would exceed it, the slice is
	// evaluated out of core: every kernel streams over the source blocks
	// and only one block plus the factor matrices stay resident.
	// Non-positive (the default) means unconstrained — block sources are
	// materialized and take the regular in-memory path. Slices arriving
	// through ProcessSlice are already resident and ignore the budget.
	MemBudget int64
	// Resilience, when non-nil, enables guarded slice processing: input
	// scanning, the ridge-escalation recovery ladder for solver
	// failures, post-slice health checks, last-good snapshot rollback,
	// and the RetrySlice/SkipSlice/Abort policy. See resilience.Config.
	Resilience *resilience.Config
	// ConstrainedSpCP enables the experimental constrained spCP-stream
	// extension — the integration of ADMM into spCP-stream that the
	// paper names as future work (§VII). The nz rows are solved exactly
	// with ADMM each inner iteration; the implicit z rows remain linear
	// during the inner loop and are materialized and projected once per
	// slice, after which the Gram state is re-synchronized. This is an
	// approximation: z rows are feasible at slice boundaries but the
	// inner iterations see their unprojected Grams. Constraints that
	// need global column norms are not supported on this path.
	ConstrainedSpCP bool
}

func (o Options) withDefaults() Options {
	if o.Mu == 0 {
		o.Mu = 0.99
	}
	if o.Tol <= 0 {
		o.Tol = 1e-5
	}
	if o.MaxIters <= 0 {
		o.MaxIters = 20
	}
	if o.StreamRidge <= 0 {
		o.StreamRidge = 1e-2
	}
	if o.FactorRidgeRel <= 0 {
		o.FactorRidgeRel = 1e-6
	}
	if o.Workers <= 0 {
		o.Workers = parallel.DefaultWorkers()
	}
	if o.ADMMTol <= 0 {
		o.ADMMTol = 1e-4
	}
	if o.ADMMMaxIters <= 0 {
		o.ADMMMaxIters = 50
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Resilience != nil {
		cfg := o.Resilience.WithDefaults()
		o.Resilience = &cfg
	}
	return o
}

// Validate reports configuration errors.
func (o Options) Validate(dims []int) error {
	if o.Rank < 1 {
		return errors.New("core: Rank must be ≥ 1")
	}
	if len(dims) < 2 {
		return fmt.Errorf("core: need ≥ 2 non-streaming modes, got %d", len(dims))
	}
	for m, d := range dims {
		if d < 1 {
			return fmt.Errorf("core: mode %d has non-positive length %d", m, d)
		}
	}
	if o.Mu < 0 || o.Mu > 1 {
		return fmt.Errorf("core: forgetting factor µ=%g outside [0,1]", o.Mu)
	}
	if o.MTTKRPKernel < KernelDefault || o.MTTKRPKernel > KernelLock {
		return fmt.Errorf("core: unknown MTTKRPKernel %d", int(o.MTTKRPKernel))
	}
	if o.Layout < LayoutDefault || o.Layout > LayoutOff {
		return fmt.Errorf("core: unknown LayoutPolicy %d", int(o.Layout))
	}
	if o.Algorithm == SpCPStream && o.Constraint != nil {
		if !o.ConstrainedSpCP {
			return errors.New("core: spCP-stream does not support constraints (paper §VII); set ConstrainedSpCP to enable the experimental extension")
		}
		if o.Constraint.NeedsColNorms() {
			return errors.New("core: constrained spCP-stream does not support column-norm constraints")
		}
	}
	return nil
}

// SliceResult reports the outcome of processing one time slice.
type SliceResult struct {
	// T is the 0-based time index of the slice just processed.
	T int
	// NNZ is the slice's nonzero count.
	NNZ int
	// Iters is the number of inner iterations run.
	Iters int
	// Delta is the final convergence measure δₜ (Eq. 15).
	Delta float64
	// Converged reports whether |δ−δ_prev| < Tol within MaxIters.
	Converged bool
	// ADMMIters is the total ADMM iteration count across modes and
	// inner iterations (constrained runs only).
	ADMMIters int
	// Fit is 1 − ‖X−X̂‖/‖X‖ for this slice (TrackFit only, else NaN).
	Fit float64
	// Retries is the number of whole-slice re-runs the resilience layer
	// consumed before this result (0 on the first attempt).
	Retries int
	// Skipped reports that the slice was dropped under the SkipSlice
	// policy: the decomposer state is the pre-slice snapshot and the
	// other result fields describe the final failed attempt.
	Skipped bool
}
