package experiment

import (
	"math"
	"testing"
)

// goldenPoint is one curve point of a pinned baseline run, with the
// loss as its raw float64 bits.
type goldenPoint struct {
	round    int
	accuracy float64
	lossBits uint64
	bytes    int64
}

// TestBaselineGolden pins the parameter-server baselines bit for bit:
// the full curve and the final global-model digest of each config. Any
// change to what the baselines push or how the server applies it shows
// up here.
func TestBaselineGolden(t *testing.T) {
	resnet := Config{Arch: ArchResNet, Classes: 4, Width: 4, TrainSamples: 128, TestSamples: 32,
		Platforms: 2, Rounds: 16, TotalBatch: 16, EvalEvery: 8, Seed: 3, Noise: 0.1}
	fedavg := func(steps int) Config {
		c := fastCfg()
		c.LocalSteps = steps
		return c
	}
	cases := []struct {
		name   string
		run    Runner
		cfg    Config
		digest uint64
		curve  []goldenPoint
	}{
		{"syncsgd mlp", RunSyncSGD, fastCfg(), 0xddba4dd5a3f0015a, []goldenPoint{
			{9, 0.9583333333333334, 0x3fe0a88eea30c50b, 31511140},
			{19, 0.9583333333333334, 0x3fafe4201de34f77, 63022280},
		}},
		// ResNet-lite carries BatchNorm state, so the accuracy points
		// also pin the server's state averaging.
		{"syncsgd resnet", RunSyncSGD, resnet, 0xa3de6994fe05a9a6, []goldenPoint{
			{7, 0.5, 0x3ff09eb30f666e64, 697552},
			{15, 0.71875, 0x3ff3050a09748166, 1395104},
		}},
		{"fedavg mlp steps 1", RunFedAvg, fedavg(1), 0x179092a6a79365e0, []goldenPoint{
			{9, 0.9583333333333334, 0x3fe0a88f1c5c6fa0, 31511140},
			{19, 0.9583333333333334, 0x3fafe41eb35d3d9b, 63022280},
		}},
		{"fedavg mlp steps 4", RunFedAvg, fedavg(4), 0x17cf7c835fa63133, []goldenPoint{
			{9, 0.9583333333333334, 0x3f9f7741059eaabc, 31511140},
			{19, 0.9791666666666666, 0x3f9332241b72f1d4, 63022280},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := tc.run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Curve.Points) != len(tc.curve) {
				t.Fatalf("%d curve points, want %d", len(res.Curve.Points), len(tc.curve))
			}
			for i, p := range res.Curve.Points {
				got := goldenPoint{p.Round, p.Accuracy, math.Float64bits(p.Loss), p.Bytes}
				if got != tc.curve[i] {
					t.Errorf("point %d = %+v, want %+v", i, got, tc.curve[i])
				}
			}
			if res.WeightDigest != tc.digest {
				t.Errorf("weight digest %#x, want %#x", res.WeightDigest, tc.digest)
			}
		})
	}
}
