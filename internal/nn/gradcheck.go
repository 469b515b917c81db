package nn

import (
	"fmt"

	"medsplit/internal/rng"
	"medsplit/internal/tensor"
)

// GradCheck numerically verifies a layer's backward pass.
//
// It builds the scalar objective f(x, θ) = <Forward(x), R> for a fixed
// random cotangent R, computes analytic gradients with one
// Forward/Backward pair, then compares every coordinate (up to
// maxCoords per tensor, sampled deterministically) against the central
// finite difference (f(v+ε) − f(v−ε)) / 2ε.
//
// Layers with stochastic forward passes (Dropout) cannot be checked this
// way; their tests verify mask consistency instead.
type GradCheck struct {
	Eps       float32 // perturbation, default 1e-2 (float32 sweet spot)
	Tol       float64 // max |analytic − numeric| / max(1, |numeric|), default 2e-2
	MaxCoords int     // per-tensor coordinate budget, default 64
	Seed      uint64  // cotangent seed
}

// Check runs the gradient check for layer l at input x. It returns an
// error describing the first failing coordinate, or nil.
func (gc GradCheck) Check(l Layer, x *tensor.Tensor) error {
	eps := gc.Eps
	if eps == 0 {
		eps = 1e-2
	}
	tol := gc.Tol
	if tol == 0 {
		tol = 2e-2
	}
	maxCoords := gc.MaxCoords
	if maxCoords == 0 {
		maxCoords = 64
	}
	r := rng.New(gc.Seed + 0x5eed)

	// Fixed cotangent; created after one probe forward to learn the
	// output shape.
	probe := l.Forward(x, true)
	cot := tensor.New(probe.Shape()...)
	cot.FillNormal(r, 0, 1)

	objective := func() float64 {
		return tensor.Dot(l.Forward(x, true), cot)
	}

	// Analytic pass.
	ZeroGrads(l.Params())
	_ = l.Forward(x, true)
	dx := l.Backward(cot)

	// Numeric check of input gradient, unless the layer is an input
	// layer (MarkInput) and returned none.
	if dx != nil {
		if err := gc.checkTensor("input", x, dx, objective, eps, tol, maxCoords, r); err != nil {
			return err
		}
	}
	// Numeric check of each parameter gradient.
	for _, p := range l.Params() {
		if err := gc.checkTensor(p.Name, p.W, p.G, objective, eps, tol, maxCoords, r); err != nil {
			return err
		}
	}
	return nil
}

func (gc GradCheck) checkTensor(name string, v, analytic *tensor.Tensor, objective func() float64, eps float32, tol float64, maxCoords int, r *rng.RNG) error {
	n := v.Size()
	coords := make([]int, 0, maxCoords)
	if n <= maxCoords {
		for i := 0; i < n; i++ {
			coords = append(coords, i)
		}
	} else {
		perm := r.Perm(n)
		coords = append(coords, perm[:maxCoords]...)
	}
	data := v.Data()
	ad := analytic.Data()
	for _, i := range coords {
		orig := data[i]
		data[i] = orig + eps
		fPlus := objective()
		data[i] = orig - eps
		fMinus := objective()
		data[i] = orig
		numeric := (fPlus - fMinus) / (2 * float64(eps))
		diff := float64(ad[i]) - numeric
		if diff < 0 {
			diff = -diff
		}
		scale := 1.0
		if numeric > 1 || numeric < -1 {
			if numeric < 0 {
				scale = -numeric
			} else {
				scale = numeric
			}
		}
		if diff/scale > tol {
			return fmt.Errorf("nn: gradcheck %s[%d]: analytic %v vs numeric %v (rel %v)",
				name, i, ad[i], numeric, diff/scale)
		}
	}
	return nil
}
