package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"spstream/internal/admm"
	"spstream/internal/core"
	"spstream/internal/perfmodel"
	"spstream/internal/sptensor"
	"spstream/internal/sptensor/ooc"
	"spstream/internal/synth"
)

// replaySpec is one library-path workload: slices handed straight to
// a core.Decomposer, no HTTP.
type replaySpec struct {
	config   func(seed uint64, slices int) synth.Config
	nonneg   bool
	ooc      bool // write each slice as SPBLK and stream it under a budget
	blockNNZ int  // SPBLK target block size (ooc only)
}

var replaySpecs = map[string]replaySpec{
	"replay-skewed":     {config: skewedConfig},
	"replay-ooc-nonneg": {config: cubeConfig, nonneg: true, ooc: true, blockNNZ: 20000},
}

const (
	replayRank = 16
	// replayMaxSlices bounds a run; the clock normally stops it first.
	replayMaxSlices = 200
	setupRepeats    = 5
)

// replayOptions is the timed configuration. Algorithm is always set:
// its zero value is Baseline, whose lock-pool MTTKRP is not
// deterministic at more than one worker. Every slice runs a fixed
// iteration budget (a tolerance no slice reaches): with the default
// tolerance the iteration count swings between 3 and 20 from seed to
// seed on the cube, and the time per slice with it.
func replayOptions(sp replaySpec) core.Options {
	opt := core.Options{
		Rank:         replayRank,
		Algorithm:    core.Optimized,
		MTTKRPKernel: core.KernelAuto,
		Layout:       core.LayoutDefault,
		Workers:      runtime.NumCPU(),
		TrackFit:     true,
		Tol:          1e-12,
		MaxIters:     8,
		ADMMTol:      1e-12,
		ADMMMaxIters: 10,
	}
	if sp.nonneg {
		opt.Constraint = admm.NonNeg{}
	}
	return opt
}

// referenceOptions is the output check's reference: the paper's
// Baseline on one worker. Out of core the reference is the Optimized
// algorithm on one worker, in memory: the Baseline's constrained path
// runs the pass-per-operation ADMM of Algorithm 2 instead of the
// blocked & fused ADMM of Algorithm 3, and the two round differently
// (fits differ by up to 0.4% on some seeds), while the Optimized
// in-memory solve is bit-identical to the streamed one.
func referenceOptions(sp replaySpec) core.Options {
	opt := replayOptions(sp)
	if !sp.ooc {
		opt.Algorithm = core.Baseline
		opt.MTTKRPKernel = core.KernelDefault
	}
	opt.Workers = 1
	return opt
}

// sliceFeed produces the workload's slices in order. For out-of-core
// workloads each slice is written to an SPBLK file; open hands the
// slice over (the timed part), prepare does the untimed generation.
type sliceFeed struct {
	sp   replaySpec
	cfg  synth.Config
	dir  string
	dims []int
	cur  *sptensor.Tensor
}

func newSliceFeed(sp replaySpec, seed uint64, dir string) *sliceFeed {
	cfg := sp.config(seed, replayMaxSlices)
	return &sliceFeed{sp: sp, cfg: cfg, dir: dir, dims: cfg.Dims()}
}

func (f *sliceFeed) path(t int) string {
	return filepath.Join(f.dir, fmt.Sprintf("slice-%04d.spblk", t))
}

// prepare generates slice t (and writes it, out of core).
func (f *sliceFeed) prepare(t int) error {
	x, err := synth.GenerateSlice(f.cfg, t)
	if err != nil {
		return err
	}
	if f.sp.ooc {
		f.cur = nil // out of core, the slice lives only in its file
		return ooc.WriteTensor(f.path(t), x, f.sp.blockNNZ)
	}
	f.cur = x
	return nil
}

// reference returns slice t as the reference solve sees it: the same
// nonzeros in the same order as the timed run.
func (f *sliceFeed) reference(t int) (*sptensor.Tensor, error) {
	if !f.sp.ooc {
		return synth.GenerateSlice(f.cfg, t)
	}
	r, err := ooc.Open(f.path(t))
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return sptensor.MaterializeBlocks(r)
}

// budget is the MemBudget that forces every slice out of core: a
// quarter of the slice's resident estimate.
func (f *sliceFeed) budget() int64 {
	if !f.sp.ooc {
		return 0
	}
	return perfmodel.ResidentBytes(f.cfg.NNZPerSlice, len(f.dims)) / 4
}

// solver wraps the per-slice call so the traced run can add spans.
type solver func(d *core.Decomposer, f *sliceFeed, t int) (core.SliceResult, error)

// solveSlice hands slice t to the decomposer: ProcessSlice in memory,
// ooc.Open + ProcessBlockSlice out of core.
func solveSlice(d *core.Decomposer, f *sliceFeed, t int) (core.SliceResult, error) {
	if !f.sp.ooc {
		return d.ProcessSlice(f.cur)
	}
	r, err := ooc.Open(f.path(t))
	if err != nil {
		return core.SliceResult{}, err
	}
	defer r.Close()
	return d.ProcessBlockSlice(r)
}

// replayRun is what one replay run observed.
type replayRun struct {
	setup              []float64 // seconds per set-up, warm-up slice included
	results            []core.SliceResult
	wall               []float64 // ms per timed slice
	solve              time.Duration
	nnz                int
	streamed, remapped int
}

// runReplay runs one replay: setupRepeats set-ups, each a new
// decomposer and the warm-up slice, then slices until seconds of wall
// time (input generation included) have passed or limit slices (the
// warm-up included) have run. Each slice's hand-over and solve is
// timed.
func runReplay(rec *recorder, sp replaySpec, seed uint64, seconds float64, limit int, dir string, solve solver) (*sliceFeed, *core.Decomposer, *replayRun, error) {
	f := newSliceFeed(sp, seed, dir)
	run := &replayRun{}
	var clock time.Time
	if err := f.prepare(0); err != nil {
		return nil, nil, nil, err
	}
	opt := replayOptions(sp)
	opt.MemBudget = f.budget()
	// Each set-up creates a decomposer and solves the first slice on
	// it (file open included out of core); the state after it is the
	// same every time, so the last one carries on. The previous one is
	// collected first, so that the heap high-water holds one decomposer.
	var d *core.Decomposer
	var res core.SliceResult
	for i := 0; i < setupRepeats; i++ {
		d = nil
		runtime.GC()
		start := time.Now()
		dec, err := core.NewDecomposer(f.dims, opt)
		if err != nil {
			return nil, nil, nil, err
		}
		if res, err = solve(dec, f, 0); err != nil {
			return nil, nil, nil, fmt.Errorf("warm-up slice: %w", err)
		}
		run.setup = append(run.setup, time.Since(start).Seconds())
		d = dec
	}
	run.results = append(run.results, res)
	for t := 1; t < limit && (t == 1 || time.Since(clock).Seconds() < seconds); t++ {
		if t == 1 {
			clock = time.Now()
		}
		id := rec.begin("bench.prepare", 0, t)
		err := f.prepare(t)
		runtime.GC() // generation garbage must not count against the solve
		rec.end(id)
		if err != nil {
			return nil, nil, nil, err
		}
		start := time.Now()
		res, err := solve(d, f, t)
		el := time.Since(start)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("slice %d: %w", t, err)
		}
		run.solve += el
		run.wall = append(run.wall, ms(el))
		run.nnz += res.NNZ
		run.results = append(run.results, res)
		if d.LastEvalMode() == perfmodel.EvalStreamed {
			run.streamed++
		}
		if remapped, _ := d.LastLayoutDecision(); remapped {
			run.remapped++
		}
	}
	return f, d, run, nil
}

// fitTol is the relative fit tolerance of the replay output check. At
// the seed commit the unconstrained Optimized solve differs from the
// Baseline reference in the last bits, and the difference grows along
// the stream (1e-14 relative on the first replay-skewed slice, 1e-9 by
// the twentieth), so bit equality does not hold.
const fitTol = 1e-6

// checkReference re-solves every slice of the run with the one-worker
// reference and requires, slice by slice, equal iteration counts and
// fits within fitTol. Both sides run the fixed iteration budget, so the
// counts differ only when the timed solve stops early (its change in
// delta falling below Tol); the fit is the numerical check.
func checkReference(sp replaySpec, f *sliceFeed, got []core.SliceResult) error {
	ref, err := core.NewDecomposer(f.dims, referenceOptions(sp))
	if err != nil {
		return err
	}
	for t, g := range got {
		x, err := f.reference(t)
		if err != nil {
			return err
		}
		want, err := ref.ProcessSlice(x)
		if err != nil {
			return fmt.Errorf("reference slice %d: %w", t, err)
		}
		if err := sameSlice(g, want); err != nil {
			return fmt.Errorf("slice %d: %w", t, err)
		}
	}
	return nil
}

// sameSlice compares one slice outcome with its reference.
func sameSlice(got, want core.SliceResult) error {
	if got.Iters != want.Iters || !(math.Abs(got.Fit-want.Fit) <= fitTol*math.Abs(want.Fit)) {
		return fmt.Errorf("iters %d fit %.17g, reference iters %d fit %.17g", got.Iters, got.Fit, want.Iters, want.Fit)
	}
	return nil
}

// heapSampler records the heap high-water of this process while a
// slice is being solved. Generation garbage is collected before each
// slice, so the peak is the solver's working set.
type heapSampler struct {
	active atomic.Bool
	stop   chan struct{}
	done   chan struct{}
	peak   uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
			if !h.active.Load() {
				continue
			}
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in MiB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// replayWorkload is the untraced replay run.
func replayWorkload(name string, seed uint64, seconds float64, work string) (*result, error) {
	sp := replaySpecs[name]
	dir := filepath.Join(work, "slices")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	heap := startHeapSampler()
	f, _, run, err := runReplay(nil, sp, seed, seconds, replayMaxSlices, dir, func(d *core.Decomposer, f *sliceFeed, t int) (core.SliceResult, error) {
		heap.active.Store(true)
		defer heap.active.Store(false)
		return solveSlice(d, f, t)
	})
	peak := heap.Stop()
	if err != nil {
		return nil, err
	}
	r := newResult(name)
	r.attempted = len(run.results)
	r.set("setup_s", median(run.setup), "s")
	r.set("visible_ms_p50", percentile(run.wall, 0.5), "ms")
	r.set("visible_ms_p90", percentile(run.wall, 0.9), "ms")
	r.set("nnz_per_s", float64(run.nnz)/run.solve.Seconds(), "1/s")
	fits := make([]float64, 0, len(run.results))
	for _, res := range run.results[1:] {
		fits = append(fits, res.Fit)
	}
	r.set("fit_mean", mean(fits), "fit")
	r.set("peak_mem_mib", peak, "MiB")
	r.set("slices", float64(len(run.wall)), "count")
	r.set("slice_ms_p50", percentile(run.wall, 0.5), "ms")
	r.set("visible_tail_supported", boolNum(supports(len(run.wall), 0.9)), "bool")

	n := float64(len(run.wall))
	streamedFrac, remapFrac := float64(run.streamed)/n, float64(run.remapped)/n
	r.set("core.streamed_frac", streamedFrac, "share")
	r.set("perfmodel.remap_frac", remapFrac, "share")
	if sp.ooc {
		r.validity("core.streamed_frac == 1", streamedFrac == 1)
	} else {
		r.validity("core.streamed_frac == 0", streamedFrac == 0)
		r.validity("perfmodel.remap_frac > 0", remapFrac > 0)
	}
	r.check(fmt.Sprintf("reference: per-slice iterations equal and fit within %g of a 1-worker reference solve", fitTol), checkReference(sp, f, run.results))
	return r, nil
}

func boolNum(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
