package core

import (
	"bytes"
	"testing"

	"spstream/internal/sptensor"
	"spstream/internal/synth"
)

// remapStream generates a stream skewed enough for the layout manager to
// choose remapping under the default cost model: one long mode whose
// activity touches a small fraction of its rows, so the z-row solve
// collapse dominates the remap build cost even at small ranks.
func remapStream(t testing.TB, seed uint64, slices int) *sptensor.Stream {
	t.Helper()
	s, err := synth.Generate(synth.Config{
		Name: "remap",
		Dists: []synth.IndexDist{
			synth.NewZipf(20000, 1.1),
			synth.Uniform{N: 60},
			synth.NewZipf(80, 1.2),
		},
		T:           slices,
		NNZPerSlice: 600,
		Values:      synth.ValuePlanted,
		PlantedRank: 3,
		NoiseStd:    0.01,
		Seed:        seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// scheduleTrace runs one slice and appends the resolved kernel table and
// layout verdict — the per-slice schedule fingerprint the determinism
// contract is stated in.
func scheduleTrace(t *testing.T, d *Decomposer, x *sptensor.Tensor, trace []byte) []byte {
	t.Helper()
	if _, err := d.ProcessSlice(x); err != nil {
		t.Fatal(err)
	}
	trace = d.KernelSchedule(trace)
	rm, hot := d.LastLayoutDecision()
	code := byte('-')
	switch {
	case rm && hot:
		code = 'H'
	case rm:
		code = 'R'
	}
	return append(trace, code, '|')
}

// TestLayoutCheckpointRoundTrip is the determinism acceptance test: save
// mid-stream with an active permutation and remap schedule, restore into
// a fresh decomposer, and finish the stream — the factors must be
// bit-identical to an uninterrupted run and the kernel+layout schedule
// of every remaining slice identical. The layout histograms are part of
// the SPSTRM03 payload; losing them would silently change the schedule
// (and with it the rounding order, hence the factors).
func TestLayoutCheckpointRoundTrip(t *testing.T) {
	s := remapStream(t, 404, 8)
	opt := Options{Rank: 4, Algorithm: Optimized, Workers: 1, Seed: 5}
	cut := 4

	ref, err := NewDecomposer(s.Dims, opt)
	if err != nil {
		t.Fatal(err)
	}
	var refTrace []byte
	for _, x := range s.Slices {
		refTrace = scheduleTrace(t, ref, x, refTrace)
	}

	first, err := NewDecomposer(s.Dims, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range s.Slices[:cut] {
		if _, err := first.ProcessSlice(x); err != nil {
			t.Fatal(err)
		}
	}
	if rm, _ := first.LastLayoutDecision(); !rm {
		t.Fatal("stream does not trigger remapping — test is vacuous")
	}
	if st := first.LayoutStats(); st.Epoch != cut {
		t.Fatalf("layout epoch = %d before save, want %d", st.Epoch, cut)
	}

	var buf bytes.Buffer
	if err := first.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	second, err := NewDecomposer(s.Dims, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := second.RestoreState(&buf); err != nil {
		t.Fatal(err)
	}
	if st := second.LayoutStats(); st != first.LayoutStats() {
		t.Fatalf("restored layout stats %+v != saved %+v", st, first.LayoutStats())
	}

	// Finish both runs, comparing the schedule slice by slice.
	var tailRef, tailSecond []byte
	for ti := cut; ti < s.T(); ti++ {
		tailRef = scheduleTrace(t, first, s.Slices[ti], tailRef)
		tailSecond = scheduleTrace(t, second, s.Slices[ti], tailSecond)
	}
	if !bytes.Equal(tailRef, tailSecond) {
		t.Fatalf("restored schedule %q != interrupted-run schedule %q", tailSecond, tailRef)
	}
	// The full reference trace must agree with the interrupted run's
	// tail too (the restore replays the same decisions the uninterrupted
	// stream made).
	if !bytes.Equal(refTrace[len(refTrace)-len(tailRef):], tailRef) {
		t.Fatalf("schedule tail %q != uninterrupted %q", tailRef, refTrace)
	}
	if d := maxFactorDiff(ref, second); d != 0 {
		t.Fatalf("restored factors differ from uninterrupted by %g", d)
	}
	if d := ref.Temporal().MaxAbsDiff(second.Temporal()); d != 0 {
		t.Fatalf("temporal factors differ by %g", d)
	}
}

// TestExplicitRemapEquivalence: the remapped inner loop computes the
// same updates as the layout-off path up to floating-point
// reassociation (the z-row solves compose Q·Φ⁻¹ before touching the
// rows). The factor trajectories must stay close across a whole stream.
func TestExplicitRemapEquivalence(t *testing.T) {
	s := remapStream(t, 405, 6)
	on, _ := runStream(t, s, Options{Rank: 4, Algorithm: Optimized, Workers: 1, Seed: 5, Layout: LayoutDefault})
	off, _ := runStream(t, s, Options{Rank: 4, Algorithm: Optimized, Workers: 1, Seed: 5, Layout: LayoutOff})
	if rm, _ := on.LastLayoutDecision(); !rm {
		t.Fatal("layout-on run never remapped — test is vacuous")
	}
	if rm, _ := off.LastLayoutDecision(); rm {
		t.Fatal("layout-off run remapped")
	}
	if d := maxFactorDiff(on, off); d > 1e-6 {
		t.Fatalf("remap path diverges from layout-off by %g", d)
	}
}

// TestExplicitRemapIterateZeroAlloc extends the steady-state guarantee
// to the remapped inner loop: compact kernels, fused historical term,
// compact solves, the z-row composition, and the per-mode gather refresh
// all run on pooled storage.
func TestExplicitRemapIterateZeroAlloc(t *testing.T) {
	s := remapStream(t, 406, 3)
	d, err := NewDecomposer(s.Dims, Options{Rank: 4, Algorithm: Optimized, Seed: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range s.Slices[:2] {
		if _, err := d.ProcessSlice(x); err != nil {
			t.Fatal(err)
		}
	}
	run, err := d.beginExplicit(operand{x: s.Slices[2]})
	if err != nil {
		t.Fatal(err)
	}
	if run.rm == nil {
		t.Fatal("slice not remapped — test is vacuous")
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
		t.Errorf("remapped inner iteration allocates %.1f times per run, want 0", allocs)
	}
}

// TestLayoutPolicyTuning covers the runtime layout knob: validation,
// freezing via LayoutOff (decisions stop, learned state kept), and
// re-enabling.
func TestLayoutPolicyTuning(t *testing.T) {
	s := remapStream(t, 407, 4)
	d, err := NewDecomposer(s.Dims, Options{Rank: 4, Algorithm: Optimized, Workers: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SetLayoutPolicy(LayoutPolicy(99)); err == nil {
		t.Fatal("invalid layout policy accepted")
	}
	if _, err := d.ProcessSlice(s.Slices[0]); err != nil {
		t.Fatal(err)
	}
	if rm, _ := d.LastLayoutDecision(); !rm {
		t.Fatal("expected remap on slice 0")
	}
	epoch := d.LayoutStats().Epoch

	if err := d.SetLayoutPolicy(LayoutOff); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ProcessSlice(s.Slices[1]); err != nil {
		t.Fatal(err)
	}
	if rm, _ := d.LastLayoutDecision(); rm {
		t.Fatal("LayoutOff slice still remapped")
	}
	if got := d.LayoutStats().Epoch; got != epoch {
		t.Fatalf("frozen layout kept learning: epoch %d → %d", epoch, got)
	}

	if err := d.SetLayoutPolicy(LayoutDefault); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ProcessSlice(s.Slices[2]); err != nil {
		t.Fatal(err)
	}
	if rm, _ := d.LastLayoutDecision(); !rm {
		t.Fatal("re-enabled layout did not resume remapping")
	}
	if got := d.LayoutStats().Epoch; got != epoch+1 {
		t.Fatalf("re-enabled layout epoch = %d, want %d", got, epoch+1)
	}
}
