package paramserver

import (
	"errors"
	"testing"

	"medsplit/internal/dataset"
	"medsplit/internal/models"
	"medsplit/internal/nn"
	"medsplit/internal/rng"
	"medsplit/internal/tensor"
	"medsplit/internal/transport"
)

func flatData(t *testing.T, classes, train, test int, seed uint64) (*dataset.Dataset, *dataset.Dataset) {
	t.Helper()
	tr, te := dataset.SynthCIFAR(dataset.SynthConfig{Classes: classes, Train: train, Test: test, Seed: seed})
	fl := func(d *dataset.Dataset) *dataset.Dataset {
		n := d.X.Dim(0)
		return &dataset.Dataset{X: d.X.Reshape(n, d.X.Size()/n), Labels: d.Labels, Classes: d.Classes}
	}
	return fl(tr), fl(te)
}

func buildModel(seed uint64, in, classes int) *nn.Sequential {
	return models.MLP(in, []int{32}, classes, rng.New(seed)).Net
}

// buildBN is a small MLP with BatchNorm, so pushes carry normalization
// state.
func buildBN(seed uint64, in, classes int) *nn.Sequential {
	r := rng.New(seed)
	return nn.NewSequential("bn-mlp",
		nn.NewDense("fc1", in, 24, r),
		nn.NewBatchNorm("bn1", 24),
		nn.NewTanh("tanh"),
		nn.NewDense("head", 24, classes, r),
	)
}

func seqIdx(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// trainsAndEvaluates runs a K-client session on a 4-class task and
// checks accuracy, client loss, per-round traffic and the byte
// snapshots' alignment with the evaluations.
func trainsAndEvaluates(t *testing.T, cfg ServerConfig, opt func() nn.Optimizer, seed uint64) {
	t.Helper()
	const K = 3
	train, test := flatData(t, 4, 240, 60, seed)
	in := train.X.Dim(1)
	cfg.Model = buildModel(seed, in, 4)
	cfg.Clients = K
	cfg.EvalData = test
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	shards := dataset.ShardIID(train.Len(), K, rng.New(seed+1))
	clients := make([]*Client, K)
	for k := range clients {
		if clients[k], err = NewClient(ClientConfig{
			ID:    k,
			Model: buildModel(seed, in, 4),
			Opt:   opt(),
			Loss:  nn.SoftmaxCrossEntropy{},
			Shard: train.Subset(shards[k]),
			Batch: 8,
			Seed:  seed + 100 + uint64(k),
			Meter: &transport.Meter{},
		}); err != nil {
			t.Fatal(err)
		}
	}
	serverStats, clientStats, err := RunLocal(srv, clients)
	if err != nil {
		t.Fatal(err)
	}
	if len(serverStats.Evals) == 0 {
		t.Fatal("no evaluations recorded")
	}
	if final := serverStats.Evals[len(serverStats.Evals)-1]; final.Accuracy < 0.3 {
		t.Fatalf("final accuracy %v (chance 0.25)", final.Accuracy)
	}
	c0 := clientStats[0]
	if len(c0.Loss) != cfg.Rounds {
		t.Fatalf("%d loss records for %d rounds", len(c0.Loss), cfg.Rounds)
	}
	if c0.Loss[len(c0.Loss)-1] >= c0.Loss[0] {
		t.Fatalf("client loss did not decrease: %v -> %v", c0.Loss[0], c0.Loss[len(c0.Loss)-1])
	}
	if len(c0.Bytes) != len(serverStats.Evals) {
		t.Fatalf("byte snapshots %d, evals %d", len(c0.Bytes), len(serverStats.Evals))
	}
	// 2×|model| per round plus framing and the weight trailer.
	modelBytes := int64(len(nn.EncodeParams(cfg.Model.Params())))
	perRound := c0.Bytes[len(c0.Bytes)-1] / int64(cfg.Rounds)
	if perRound < 2*modelBytes || perRound > 2*modelBytes+4096 {
		t.Fatalf("per-round client traffic %d, want ≈ 2×%d", perRound, modelBytes)
	}
}

func TestSyncSGDTrainsAndEvaluates(t *testing.T) {
	trainsAndEvaluates(t, ServerConfig{Algo: SyncSGD, Opt: &nn.SGD{LR: 0.1}, Rounds: 40, EvalEvery: 20},
		func() nn.Optimizer { return nil }, 41)
}

func TestFedAvgTrainsAndEvaluates(t *testing.T) {
	trainsAndEvaluates(t, ServerConfig{Algo: FedAvg, Rounds: 12, LocalSteps: 4, EvalEvery: 6},
		func() nn.Optimizer { return &nn.SGD{LR: 0.1} }, 51)
}

// centralized trains ref on data with the batch sequence a client seeded
// with seed draws, one SGD step per round.
func centralized(ref *nn.Sequential, data *dataset.Dataset, rounds int, seed uint64) {
	opt := &nn.SGD{LR: 0.05}
	loss := nn.SoftmaxCrossEntropy{}
	sampler := dataset.NewBatchSampler(seqIdx(data.Len()), 8, rng.New(seed^0x9e3779b97f4a7c15))
	for r := 0; r < rounds; r++ {
		x, labels := data.Batch(sampler.Next())
		nn.ZeroGrads(ref.Params())
		_, g := loss.Loss(ref.Forward(x, true), labels)
		ref.Backward(g)
		opt.Step(ref.Params())
	}
}

// With one client, SyncSGD must match centralized SGD on the same batch
// sequence.
func TestSyncSGDEqualsCentralizedSingleWorker(t *testing.T) {
	train, _ := flatData(t, 3, 64, 8, 43)
	in := train.X.Dim(1)
	const rounds = 8
	ref := buildModel(9, in, 3)
	centralized(ref, train, rounds, 300)

	global := buildModel(9, in, 3)
	srv, err := NewServer(ServerConfig{Algo: SyncSGD, Model: global, Opt: &nn.SGD{LR: 0.05}, Clients: 1, Rounds: rounds})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(ClientConfig{
		ID: 0, Model: buildModel(1234, in, 3), // junk init: the broadcast overwrites it
		Loss: nn.SoftmaxCrossEntropy{}, Shard: train, Batch: 8, Seed: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunLocal(srv, []*Client{c}); err != nil {
		t.Fatal(err)
	}
	assertSameWeights(t, ref, global)
}

// FedAvg with one client and one local step degenerates to centralized
// SGD: the average of one model is that model.
func TestFedAvgSingleClientEqualsCentralized(t *testing.T) {
	train, _ := flatData(t, 3, 64, 8, 53)
	in := train.X.Dim(1)
	const rounds = 6
	ref := buildModel(19, in, 3)
	centralized(ref, train, rounds, 500)

	global := buildModel(19, in, 3)
	srv, err := NewServer(ServerConfig{Algo: FedAvg, Model: global, Clients: 1, Rounds: rounds})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(ClientConfig{
		ID: 0, Model: buildModel(999, in, 3), Opt: &nn.SGD{LR: 0.05},
		Loss: nn.SoftmaxCrossEntropy{}, Shard: train, Batch: 8, Seed: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunLocal(srv, []*Client{c}); err != nil {
		t.Fatal(err)
	}
	assertSameWeights(t, ref, global)
}

func assertSameWeights(t *testing.T, want, got *nn.Sequential) {
	t.Helper()
	wantP, gotP := want.Params(), got.Params()
	for i := range wantP {
		if !tensor.AllClose(wantP[i].W, gotP[i].W, 1e-6) {
			t.Fatalf("param %d diverged from centralized training", i)
		}
	}
}

// Two clients with shard sizes 3:1 and LR 0 both push the broadcast
// weights back unchanged, so the weighted average must equal the
// broadcast: a fixed-point check of the aggregation plumbing.
func TestFedAvgWeightedAveraging(t *testing.T) {
	train, _ := flatData(t, 2, 40, 8, 54)
	in := train.X.Dim(1)
	global := buildModel(23, in, 2)
	before := nn.EncodeParams(global.Params())
	srv, err := NewServer(ServerConfig{Algo: FedAvg, Model: global, Clients: 2, Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	shards := dataset.ShardPowerLaw(train.Len(), 2, 1.5, rng.New(55))
	clients := make([]*Client, 2)
	for k := range clients {
		if clients[k], err = NewClient(ClientConfig{
			ID: k, Model: buildModel(23, in, 2), Opt: &nn.SGD{LR: 0},
			Loss: nn.SoftmaxCrossEntropy{}, Shard: train.Subset(shards[k]),
			Batch: 4, Seed: uint64(k),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := RunLocal(srv, clients); err != nil {
		t.Fatal(err)
	}
	if string(before) != string(nn.EncodeParams(global.Params())) {
		t.Fatal("zero-LR round must be an aggregation fixed point")
	}
}

// Models with BatchNorm must evaluate correctly on the server under
// both algorithms. Gradients never move the server's running
// statistics, so the protocol ships them explicitly (nn.Stateful);
// without that the global model evaluates at chance.
func TestBatchNormStateReachesServer(t *testing.T) {
	train, test := flatData(t, 3, 180, 60, 48)
	in := train.X.Dim(1)
	for _, tc := range []struct {
		cfg ServerConfig
		opt func() nn.Optimizer
	}{
		{ServerConfig{Algo: SyncSGD, Opt: &nn.SGD{LR: 0.1}}, func() nn.Optimizer { return nil }},
		{ServerConfig{Algo: FedAvg}, func() nn.Optimizer { return &nn.SGD{LR: 0.1} }},
	} {
		t.Run(tc.cfg.Algo.String(), func(t *testing.T) {
			global := buildBN(31, in, 3)
			cfg := tc.cfg
			cfg.Model, cfg.Clients, cfg.Rounds, cfg.EvalEvery, cfg.EvalData = global, 2, 40, 20, test
			srv, err := NewServer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			shards := dataset.ShardIID(train.Len(), 2, rng.New(49))
			clients := make([]*Client, 2)
			for k := range clients {
				if clients[k], err = NewClient(ClientConfig{
					ID: k, Model: buildBN(31, in, 3), Opt: tc.opt(), Loss: nn.SoftmaxCrossEntropy{},
					Shard: train.Subset(shards[k]), Batch: 16, Seed: uint64(600 + k),
				}); err != nil {
					t.Fatal(err)
				}
			}
			serverStats, _, err := RunLocal(srv, clients)
			if err != nil {
				t.Fatal(err)
			}
			if final := serverStats.Evals[len(serverStats.Evals)-1]; final.Accuracy < 0.5 {
				t.Fatalf("BN model at %.0f%% on the server (chance 33%%): running stats not synced", 100*final.Accuracy)
			}
			state := nn.CollectState(global)
			if len(state) != 2 {
				t.Fatalf("expected 2 state tensors, got %d", len(state))
			}
			if state[0].Norm() == 0 {
				t.Fatal("server running mean still at initialization")
			}
		})
	}
}

func TestFedAvgConfigValidation(t *testing.T) { configValidation(t, FedAvg) }

func TestSyncSGDConfigValidation(t *testing.T) { configValidation(t, SyncSGD) }

// configValidation checks that a server of the given algorithm, and
// the clients that join it, reject every malformed config as ErrConfig.
func configValidation(t *testing.T, algo Algo) {
	train, test := flatData(t, 2, 16, 8, 44)
	in := train.X.Dim(1)
	model := buildModel(11, in, 2)
	base := ServerConfig{Algo: algo, Model: model, Clients: 1, Rounds: 1}
	if algo == SyncSGD {
		base.Opt = &nn.SGD{}
	}
	if _, err := NewServer(base); err != nil {
		t.Fatalf("valid %v server: %v", algo, err)
	}
	with := func(edit func(*ServerConfig)) ServerConfig {
		cfg := base
		edit(&cfg)
		return cfg
	}
	type serverCase struct {
		name string
		cfg  ServerConfig
	}
	servers := []serverCase{
		{"nil model", with(func(c *ServerConfig) { c.Model = nil })},
		{"zero clients", with(func(c *ServerConfig) { c.Clients = 0 })},
		{"zero rounds", with(func(c *ServerConfig) { c.Rounds = 0 })},
		{"unknown algo", with(func(c *ServerConfig) { c.Algo = 0 })},
		{"negative local steps", with(func(c *ServerConfig) { c.LocalSteps = -3 })},
		{"negative eval period", with(func(c *ServerConfig) { c.EvalEvery, c.EvalData = -1, test })},
		{"eval without data", with(func(c *ServerConfig) { c.EvalEvery = 1 })},
	}
	if algo == SyncSGD {
		servers = append(servers,
			serverCase{"syncsgd without optimizer", with(func(c *ServerConfig) { c.Opt = nil })},
			serverCase{"syncsgd with local steps", with(func(c *ServerConfig) { c.LocalSteps = 4 })})
	}
	for _, tc := range servers {
		if _, err := NewServer(tc.cfg); !errors.Is(err, ErrConfig) {
			t.Errorf("server %s: err = %v, want ErrConfig", tc.name, err)
		}
	}
	loss := nn.SoftmaxCrossEntropy{}
	clients := []struct {
		name string
		cfg  ClientConfig
	}{
		{"nil model", ClientConfig{Loss: loss, Shard: train, Batch: 4}},
		{"nil loss", ClientConfig{Model: model, Shard: train, Batch: 4}},
		{"nil shard", ClientConfig{Model: model, Loss: loss, Batch: 4}},
		{"zero batch", ClientConfig{Model: model, Loss: loss, Shard: train}},
		{"negative batch", ClientConfig{Model: model, Loss: loss, Shard: train, Batch: -1}},
	}
	for _, tc := range clients {
		if _, err := NewClient(tc.cfg); !errors.Is(err, ErrConfig) {
			t.Errorf("client %s: err = %v, want ErrConfig", tc.name, err)
		}
	}
	if _, _, err := RunLocal(nil, nil); !errors.Is(err, ErrConfig) {
		t.Errorf("nil server: err = %v, want ErrConfig", err)
	}
}
