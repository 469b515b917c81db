package nn_test

import (
	"testing"

	"medsplit/internal/models"
	"medsplit/internal/nn"
	"medsplit/internal/rng"
	"medsplit/internal/tensor"
)

// BenchmarkFrontStep measures the platform's per-round weight pass on
// the front halves perfbench trains: zero the gradients, backward the
// cut gradient, clip, and take the SGD step. mlp is split-mlp-geo25's
// front (Dense 3072→64 + Tanh, 4 samples); vgg-lite is split-vgg-tcp's
// (conv1 + ReLU + pool at width 8, 32 samples). The front's first
// layer is the input layer, so backward computes no input gradient.
func BenchmarkFrontStep(b *testing.B) {
	cases := []struct {
		name  string
		batch int
		build func(r *rng.RNG) *models.Model
	}{
		{"mlp", 4, func(r *rng.RNG) *models.Model { return models.MLP(3*32*32, []int{64}, 10, r) }},
		{"vgg-lite", 32, func(r *rng.RNG) *models.Model { return models.VGGLite(10, 8, r) }},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			r := rng.New(1)
			m := tc.build(r)
			front, _, err := models.Split(m.Net, m.DefaultCut)
			if err != nil {
				b.Fatal(err)
			}
			x := tensor.New(append([]int{tc.batch}, m.InputShape...)...)
			x.FillNormal(r, 0, 1)
			a := front.Forward(x, true)
			da := tensor.New(a.Shape()...)
			da.FillNormal(r, 0, 0.01)
			params := front.Params()
			opt := &nn.SGD{LR: 0.01}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nn.ZeroGrads(params)
				front.Backward(da)
				nn.ClipGrads(params, 5)
				opt.Step(params)
			}
		})
	}
}
