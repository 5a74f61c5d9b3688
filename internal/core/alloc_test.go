package core

import (
	"context"
	"testing"

	"spstream/internal/sptensor"
)

// The steady-state inner iteration of every algorithm must be
// allocation-free: the begin phase compiles the per-slice plan and
// sizes all workspaces, after which the inner ALS loop — MTTKRP,
// historical term, Φ factorization, row solves, Gram refreshes, and the
// convergence check — runs entirely on Decomposer-owned storage. These
// are the regression tests the tentpole promises; a single closure or
// undersized buffer on the hot path fails them.
//
// Workers is pinned to 1 so every parallel helper takes its inline
// path regardless of GOMAXPROCS; the pool's own zero-spawn dispatch is
// covered by the parallel and mttkrp alloc tests with explicit pools.

func TestExplicitIterateZeroAlloc(t *testing.T) {
	for _, alg := range []Algorithm{Baseline, Optimized} {
		for _, streamed := range []bool{false, true} {
			s := skewedStream(t, 314)
			opt := Options{Rank: 4, Algorithm: alg, Seed: 7, Workers: 1}
			in := operand{x: s.Slices[1]}
			if streamed {
				// A one-byte budget sends every block slice out of core:
				// the same loop with kcStream on every mode.
				opt.MemBudget = 1
				src, err := sptensor.SplitBlocks(s.Slices[1], 64)
				if err != nil {
					t.Fatal(err)
				}
				in = operand{src: src}
			}
			d, err := NewDecomposer(s.Dims, opt)
			if err != nil {
				t.Fatal(err)
			}
			// Prime cross-slice state (sHist growth, chol storage, psi,
			// and the stream kernel's per-block scratch).
			prime := operand{x: s.Slices[0]}
			if streamed {
				src, err := sptensor.SplitBlocks(s.Slices[0], 64)
				if err != nil {
					t.Fatal(err)
				}
				prime = operand{src: src}
			}
			if _, err := d.process(context.Background(), prime); err != nil {
				t.Fatal(err)
			}
			run, err := d.beginExplicit(in)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.iterateExplicit(run); err != nil { // warm scratch
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := d.iterateExplicit(run); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%v (streamed=%v) inner iteration allocates %.1f times per run, want 0", alg, streamed, allocs)
			}
		}
	}
}

func TestSpCPIterateZeroAlloc(t *testing.T) {
	s := skewedStream(t, 314)
	d, err := NewDecomposer(s.Dims, Options{Rank: 4, Algorithm: SpCPStream, Seed: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.ProcessSlice(s.Slices[0]); err != nil {
		t.Fatal(err)
	}
	run, err := d.beginSpCP(s.Slices[1])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.iterateSpCP(run); err != nil { // warm scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := d.iterateSpCP(run); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("spCP inner iteration allocates %.1f times per run, want 0", allocs)
	}
}
