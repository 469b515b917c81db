package main

import (
	"math"
	"testing"

	"medsplit/internal/experiment"
	"medsplit/internal/models"
	"medsplit/internal/nn"
	"medsplit/internal/rng"
	"medsplit/internal/tensor"
	"medsplit/internal/wire"
)

func TestCodecWrapperKeepsReusableCodec(t *testing.T) {
	tr := newTracer("core")
	var c wire.Codec = tr.wrapCodec(wire.RawCodec{})
	rc, ok := c.(wire.ReusableCodec)
	if !ok {
		t.Fatal("wrapped codec lost wire.ReusableCodec; the engine would fall back to allocating paths")
	}
	if c.Name() != (wire.RawCodec{}).Name() {
		t.Errorf("wrapped codec name %q: the handshake compares it with the peer's", c.Name())
	}
	x := tensor.FromSlice([]float32{1, -2, 3.5, 0}, 2, 2)
	buf := rc.EncodeTensorsInto(nil, x)
	if string(buf) != string(wire.RawCodec{}.EncodeTensors(x)) {
		t.Error("wrapped encode differs from the raw codec's")
	}
	ts, err := rc.DecodeTensorsInto(nil, buf)
	if err != nil || len(ts) != 1 || !tensor.AllClose(ts[0], x, 0) {
		t.Fatalf("round trip: %v, %v", ts, err)
	}
	if tr.calls("wire_encode") != 1 || tr.calls("wire_decode") != 1 {
		t.Errorf("probe calls: encode %d decode %d, want 1 each", tr.calls("wire_encode"), tr.calls("wire_decode"))
	}
}

// The layer wrapper must leave what the engine asks of a model half
// unchanged for the benchmark's models: parameters, stateful tensors,
// replay safety and the computed values.
func TestHalfWrapperKeepsEngineView(t *testing.T) {
	for _, arch := range []experiment.Arch{experiment.ArchVGG, experiment.ArchMLP} {
		m, err := experiment.BuildModel(experiment.Config{Arch: arch, Classes: 10, Width: 8, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		front, back, err := models.Split(m.Net, m.DefaultCut)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer("core")
		x := tensor.New(append([]int{3}, m.InputShape...)...)
		r := rng.New(9)
		for i := range x.Data() {
			x.Data()[i] = float32(r.Float64())
		}
		for _, half := range []*nn.Sequential{front, back} {
			w, err := tr.wrapHalf(half, "fwd", "bwd", "eval")
			if err != nil {
				t.Fatalf("%s: %v", arch, err)
			}
			if len(nn.CollectState(w)) != len(nn.CollectState(half)) || nn.ReplaySafe(w) != nn.ReplaySafe(half) {
				t.Errorf("%s %s: wrapper changed CollectState or ReplaySafe", arch, half.Name())
			}
			if len(w.Params()) != len(half.Params()) {
				t.Fatalf("%s %s: %d params wrapped, %d unwrapped", arch, half.Name(), len(w.Params()), len(half.Params()))
			}
			for i, p := range w.Params() {
				if p != half.Params()[i] {
					t.Errorf("%s %s: param %d is not the half's own", arch, half.Name(), i)
				}
			}
			want := half.Forward(x, false).Clone()
			got := w.Forward(x, false)
			if !bitEqual(got, want) {
				t.Errorf("%s %s: wrapped forward differs", arch, half.Name())
			}
			x = want // the back half consumes the front's output
		}
		if tr.calls("eval") != 2 || tr.calls("fwd") != 0 {
			t.Errorf("%s: eval calls %d, train calls %d; want 2 and 0", arch, tr.calls("eval"), tr.calls("fwd"))
		}
	}
}

func TestHalfWrapperRefusesHiddenState(t *testing.T) {
	tr := newTracer("core")
	m, err := experiment.BuildModel(experiment.Config{Arch: experiment.ArchResNet, Classes: 10, Width: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	front, _, err := models.Split(m.Net, m.DefaultCut)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.wrapHalf(front, "fwd", "bwd", "eval"); err == nil {
		t.Error("wrapped a half with BatchNorm state")
	}
	drop := nn.NewSequential("drop", nn.NewDropout("d", 0.5, rng.New(1)))
	if _, err := tr.wrapHalf(drop, "fwd", "bwd", "eval"); err == nil {
		t.Error("wrapped a half with dropout")
	}
}

func TestNilTracerInstallsNothing(t *testing.T) {
	var tr *tracer
	ran := false
	tr.labelled(func() { ran = true })
	tr.setLabel("loadgen")
	if !ran {
		t.Error("labelled did not run its function")
	}
}

// A traced session trains the same weights as an untraced one, over
// both transports. The sessions are a few rounds on a tiny model, not
// a workload.
func TestTracedSessionMatchesUntraced(t *testing.T) {
	for _, tcp := range []bool{true, false} {
		spec := splitSpec{
			cfg: experiment.Config{
				Arch: experiment.ArchMLP, Classes: 4, TrainSamples: 40, TestSamples: 20,
				Noise: 0.35, Platforms: 2, Rounds: 4, TotalBatch: 8, LR: 0.05,
				Sharding: experiment.ShardingIID,
			},
			tcp: tcp,
		}
		plain, err := spec.runSession(3, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer("core")
		traced, err := spec.runSession(3, tr, nil)
		if err != nil {
			t.Fatal(err)
		}
		if plain.digest != traced.digest || plain.acc != traced.acc {
			t.Errorf("tcp=%v: traced digest %016x acc %v, untraced %016x acc %v", tcp, traced.digest, traced.acc, plain.digest, plain.acc)
		}
		if len(plain.stamps) != 4 || len(traced.stamps) != 4 {
			t.Errorf("tcp=%v: %d and %d round stamps, want 4", tcp, len(plain.stamps), len(traced.stamps))
		}
		exchanges := int64(spec.cfg.Rounds * spec.cfg.Platforms)
		for _, n := range []string{"front_fwd", "front_bwd", "back_fwd", "back_bwd", "loss"} {
			if got := tr.calls(n); got != exchanges {
				t.Errorf("tcp=%v: %s called %d times, want %d", tcp, n, got, exchanges)
			}
		}
		if got := tr.calls("opt_step"); got != 2*exchanges {
			t.Errorf("tcp=%v: opt_step called %d times, want %d", tcp, got, 2*exchanges)
		}
		if tr.calls("transport_send") == 0 || tr.calls("wire_encode") == 0 {
			t.Errorf("tcp=%v: transport or codec wrapper never called", tcp)
		}
		if !tcp && plain.simElapsed <= 0 {
			t.Error("simulated session reported no virtual time")
		}
	}
}

func bitEqual(a, b *tensor.Tensor) bool {
	if !tensor.SameShape(a, b) {
		return false
	}
	for i, v := range a.Data() {
		if math.Float32bits(v) != math.Float32bits(b.Data()[i]) {
			return false
		}
	}
	return true
}
