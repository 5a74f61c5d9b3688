package core

import (
	"fmt"
	"math"

	"spstream/internal/dense"
	"spstream/internal/sptensor"
)

// sliceFit computes the fit 1 − ‖Xₜ − X̂ₜ‖_F/‖Xₜ‖_F of the current model
// X̂ₜ = [[A⁽¹⁾,…,A⁽ᴺ⁾; sₜ]] against the slice, entirely in sparse form:
//
//	‖X−X̂‖² = ‖X‖² − 2·⟨X, X̂⟩ + ‖X̂‖²
//	⟨X, X̂⟩  = sᵀ·ψ with ψ the streaming-mode MTTKRP over current factors
//	‖X̂‖²    = sᵀ(⊛_v C⁽ᵛ⁾)s
//
// A block source yields the same bits as its materialized
// concatenation: ‖X‖² and ψ both reduce in the in-memory order. Only a
// block that fails to decode returns an error.
func (d *Decomposer) sliceFit(in operand) (float64, error) {
	xnorm2, err := in.norm2()
	if err != nil {
		return math.NaN(), fmt.Errorf("core: fit: %w", err)
	}
	if xnorm2 == 0 {
		return math.NaN(), nil
	}
	psi := make([]float64, d.k)
	if err := d.timeMode(psi, in, d.a, false); err != nil {
		return math.NaN(), fmt.Errorf("core: fit: %w", err)
	}
	had := d.scratch1
	had.Fill(1)
	for m := range d.c {
		dense.Hadamard(had, had, d.c[m])
	}
	tmp := make([]float64, d.k)
	dense.MulVec(tmp, had, d.s)
	model2 := dense.Dot(d.s, tmp)
	inner := dense.Dot(d.s, psi)
	err2 := xnorm2 - 2*inner + model2
	if err2 < 0 {
		err2 = 0
	}
	return 1 - math.Sqrt(err2/xnorm2), nil
}

// FitOf evaluates the current model's fit 1 − ‖X−X̂‖_F/‖X‖_F against an
// arbitrary slice-shaped tensor using the latest temporal weights —
// e.g. to score a held-out or incoming slice before folding it in.
// Returns NaN for an empty slice.
func (d *Decomposer) FitOf(x *sptensor.Tensor) (float64, error) {
	in := operand{x: x}
	if err := d.checkSlice(in); err != nil {
		return math.NaN(), fmt.Errorf("core: FitOf: %w", err)
	}
	return d.sliceFit(in)
}
