package core

import (
	"context"
	"fmt"

	"spstream/internal/mttkrp"
	"spstream/internal/perfmodel"
	"spstream/internal/sptensor"
)

// Out-of-core slice evaluation. A slice arriving as a sptensor.BlockSource
// (an .spblk reader, or any block iterator) is first sized against
// Options.MemBudget by perfmodel.SelectEval:
//
//   - EvalInMemory: the blocks are materialized into one tensor and the
//     slice takes the regular ProcessSliceContext path — kernel table,
//     adaptive layout, and all.
//   - EvalStreamed: the slice never materializes. It runs the same
//     explicit Algorithm 1 loop (explicit.go) with the block source as
//     its operand and kcStream on every mode of the kernel table: the
//     factor-mode MTTKRP, the streaming-mode (time) MTTKRP, and the
//     fit's ‖X‖² all stream over the blocks via mttkrp.StreamKernel, so
//     the resident set is one decoded block plus the factor matrices,
//     independent of the slice's nonzero count.
//
// The streamed factor-mode MTTKRP is bit-identical to the compiled
// coordinate plan (mttkrp.PlanMTTKRP) and the streamed time-mode
// reduction is bit-identical to the thread-local in-memory reduction,
// both for any worker count — so on the same input (the block
// concatenation) a streamed slice produces bit-identical factors,
// temporal weights, and fit to the in-memory Optimized/KernelPlan run.
// The Baseline algorithm's deliberately contended lock kernels and the
// spCP-stream Gram-form recurrence have no out-of-core counterpart:
// under EvalStreamed every algorithm takes the streamed kernels, and
// only the ADMM variant still follows the algorithm (Algorithm 2 for
// Baseline, Algorithm 3 otherwise). Adaptive layout and per-mode
// kernel selection are in-memory concerns and stay off here.

// LastEvalMode reports where the most recent ProcessBlockSlice ran
// (in-memory after materialization, or streamed out of core). Slices
// fed through ProcessSlice do not update it.
func (d *Decomposer) LastEvalMode() perfmodel.EvalMode { return d.lastEval }

// streamKernel lazily creates the pooled streaming kernel. It shares
// the Decomposer's mttkrp.Computer, so worker count and scratch follow
// the same configuration as the in-memory kernels.
func (d *Decomposer) streamKernel() *mttkrp.StreamKernel {
	if d.sk == nil {
		d.sk = mttkrp.NewStreamKernel(d.mt)
	}
	return d.sk
}

// ProcessBlockSlice advances the factorization by one time slice
// delivered as blocks. It is ProcessBlockSliceContext with a background
// context.
func (d *Decomposer) ProcessBlockSlice(src sptensor.BlockSource) (SliceResult, error) {
	return d.ProcessBlockSliceContext(context.Background(), src)
}

// ProcessBlockSliceContext advances the factorization by one time slice
// delivered as a block source, choosing between materializing it (the
// regular in-memory path) and streaming it out of core according to
// Options.MemBudget. Context semantics, the resilience policy, and the
// commit hook behave exactly as in ProcessSliceContext.
func (d *Decomposer) ProcessBlockSliceContext(ctx context.Context, src sptensor.BlockSource) (SliceResult, error) {
	in := operand{src: src}
	if err := d.checkSlice(in); err != nil {
		return SliceResult{}, err
	}
	d.lastEval = d.sel.SelectEval(src.NNZ(), d.n, d.opt.MemBudget)
	if d.lastEval == perfmodel.EvalInMemory {
		x, err := sptensor.MaterializeBlocks(src)
		if err != nil {
			return SliceResult{}, fmt.Errorf("core: materializing block slice: %w", err)
		}
		in = operand{x: x}
	}
	return d.process(ctx, in)
}
