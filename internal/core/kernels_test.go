package core

import (
	"testing"

	"spstream/internal/perfmodel"
)

// Every kernel policy computes the same MTTKRP — only the schedule
// (and hence floating-point rounding order) differs — so forcing any
// of them must leave the factor trajectory unchanged to FP noise.
func TestKernelPoliciesEquivalent(t *testing.T) {
	s := skewedStream(t, 117)
	ref, _ := runStream(t, s, Options{Rank: 3, Algorithm: Optimized, Seed: 4, Workers: 2, MTTKRPKernel: KernelPlan})
	for _, k := range []MTTKRPKernel{KernelAuto, KernelCSF, KernelLock} {
		got, _ := runStream(t, s, Options{Rank: 3, Algorithm: Optimized, Seed: 4, Workers: 2, MTTKRPKernel: k})
		if d := maxFactorDiff(ref, got); d > 1e-8 {
			t.Fatalf("policy %v changed results by %g", k, d)
		}
	}
}

// The spCP-stream path dispatches through the same kernel table over
// the remapped slice; forcing CSF there must match the plan run too.
func TestKernelPoliciesEquivalentSpCP(t *testing.T) {
	s := skewedStream(t, 118)
	ref, _ := runStream(t, s, Options{Rank: 3, Algorithm: SpCPStream, Seed: 4, Workers: 2, MTTKRPKernel: KernelPlan})
	for _, k := range []MTTKRPKernel{KernelAuto, KernelCSF} {
		got, _ := runStream(t, s, Options{Rank: 3, Algorithm: SpCPStream, Seed: 4, Workers: 2, MTTKRPKernel: k})
		if d := maxFactorDiff(ref, got); d > 1e-8 {
			t.Fatalf("spCP policy %v changed results by %g", k, d)
		}
	}
}

// KernelDefault resolves per algorithm: the paper-faithful Lock kernel
// for Baseline, cost-model Auto for the optimized variants.
func TestKernelPolicyDefaults(t *testing.T) {
	for _, tc := range []struct {
		alg  Algorithm
		want MTTKRPKernel
	}{
		{Baseline, KernelLock},
		{Optimized, KernelAuto},
		{SpCPStream, KernelAuto},
	} {
		d, err := NewDecomposer([]int{10, 12, 14}, Options{Rank: 3, Algorithm: tc.alg})
		if err != nil {
			t.Fatal(err)
		}
		if got := d.kernelPolicy(); got != tc.want {
			t.Fatalf("%v: default policy = %v, want %v", tc.alg, got, tc.want)
		}
	}
}

// chooseKernels obeys forced policies exactly and reports the layouts
// the slice needs.
func TestChooseKernelsForced(t *testing.T) {
	s := skewedStream(t, 119)
	x := s.Slices[0]
	d, err := NewDecomposer(s.Dims, Options{Rank: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		policy            MTTKRPKernel
		want              kernelChoice
		needPlan, needCSF bool
	}{
		{KernelPlan, kcPlan, true, false},
		{KernelCSF, kcCSF, false, true},
		{KernelLock, kcLock, false, false},
	} {
		if err := d.SetMTTKRPKernel(tc.policy); err != nil {
			t.Fatal(err)
		}
		needPlan, needCSF := d.chooseKernels(x)
		if needPlan != tc.needPlan || needCSF != tc.needCSF {
			t.Fatalf("%v: need = (%v,%v), want (%v,%v)", tc.policy, needPlan, needCSF, tc.needPlan, tc.needCSF)
		}
		for m, kc := range d.kernels {
			if kc != tc.want {
				t.Fatalf("%v: mode %d resolved to %v", tc.policy, m, kc)
			}
		}
	}
}

// Auto selection is a pure function of the slice and the options —
// resolving the same slice twice must give the same table (the
// checkpoint-restore bit-identity guarantee depends on this).
func TestChooseKernelsDeterministic(t *testing.T) {
	s := skewedStream(t, 120)
	d, err := NewDecomposer(s.Dims, Options{Rank: 3, Algorithm: Optimized})
	if err != nil {
		t.Fatal(err)
	}
	d.chooseKernels(s.Slices[0])
	first := append([]kernelChoice(nil), d.kernels...)
	// Resolve other slices in between, then the original again.
	d.chooseKernels(s.Slices[1])
	d.chooseKernels(s.Slices[0])
	for m, kc := range d.kernels {
		if kc != first[m] {
			t.Fatalf("mode %d: choice changed from %v to %v on re-resolution", m, first[m], kc)
		}
	}
	// And the underlying selector is itself deterministic.
	var prof perfmodel.SliceProfile
	perfmodel.ProfileInto(&prof, s.Slices[0], nil)
	sel := perfmodel.NewSelector(2)
	for m := range s.Dims {
		a := sel.SelectMTTKRP(prof, m, 3, 8)
		b := sel.SelectMTTKRP(prof, m, 3, 8)
		if a != b {
			t.Fatalf("selector not deterministic for mode %d", m)
		}
	}
}

// SetMTTKRPKernel validates its argument and switches take effect on
// the next slice.
func TestSetMTTKRPKernel(t *testing.T) {
	s := skewedStream(t, 121)
	d, err := NewDecomposer(s.Dims, Options{Rank: 3, Algorithm: Optimized})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SetMTTKRPKernel(KernelLock + 1); err == nil {
		t.Fatal("out-of-range policy accepted")
	}
	if got := d.MTTKRPKernel(); got != KernelDefault {
		t.Fatalf("failed Set changed the policy to %v", got)
	}
	for _, k := range []MTTKRPKernel{KernelCSF, KernelPlan, KernelLock, KernelAuto} {
		if err := d.SetMTTKRPKernel(k); err != nil {
			t.Fatal(err)
		}
		if got := d.MTTKRPKernel(); got != k {
			t.Fatalf("MTTKRPKernel() = %v after Set(%v)", got, k)
		}
		if _, err := d.ProcessSlice(s.Slices[0]); err != nil {
			t.Fatalf("slice under policy %v: %v", k, err)
		}
	}
}

// An out-of-range policy in Options must be rejected at construction.
func TestOptionsRejectUnknownKernel(t *testing.T) {
	_, err := NewDecomposer([]int{10, 12}, Options{Rank: 2, MTTKRPKernel: KernelLock + 1})
	if err == nil {
		t.Fatal("NewDecomposer accepted an unknown MTTKRPKernel")
	}
}
