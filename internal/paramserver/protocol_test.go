package paramserver

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"medsplit/internal/dataset"
	"medsplit/internal/nn"
	"medsplit/internal/rng"
	"medsplit/internal/tensor"
	"medsplit/internal/transport"
	"medsplit/internal/wire"
)

// helloServer starts a one-client server of the given algorithm and
// returns its error channel plus the client end of the pipe.
func helloServer(t *testing.T, algo Algo) (transport.Conn, chan error) {
	t.Helper()
	srv, err := NewServer(ServerConfig{Algo: algo, Model: buildModel(61, 24, 2), Opt: &nn.SGD{}, Clients: 1, Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	sConn, cConn := transport.Pipe()
	t.Cleanup(func() { cConn.Close() })
	errCh := make(chan error, 1)
	go func() {
		_, serr := srv.Serve([]transport.Conn{sConn})
		errCh <- serr
		sConn.Close()
	}()
	return cConn, errCh
}

// sendHello sends meta as a client hello to a server of the given
// algorithm and returns the server's error.
func sendHello(t *testing.T, algo Algo, meta string) error {
	t.Helper()
	cConn, errCh := helloServer(t, algo)
	if err := cConn.Send(&wire.Message{Type: wire.MsgHello, Payload: wire.EncodeText(meta)}); err != nil {
		t.Fatal(err)
	}
	return <-errCh
}

// A client built before the versioned hello (no ";frame=" field) is
// rejected fail-fast with a typed *wire.FrameSkewError, not
// mis-reported as a protocol mismatch or left to desynchronize
// mid-training.
func TestFedAvgRejectsUnversionedHello(t *testing.T) { rejectsUnversionedHello(t, FedAvg) }

func TestSyncSGDRejectsUnversionedHello(t *testing.T) { rejectsUnversionedHello(t, SyncSGD) }

func rejectsUnversionedHello(t *testing.T, algo Algo) {
	err := sendHello(t, algo, "v=1;algo="+algo.String()+";rounds=1;eval=0") // what a pre-negotiation build sends
	var skew *wire.FrameSkewError
	if !errors.As(err, &skew) {
		t.Fatalf("err = %v, want *wire.FrameSkewError", err)
	}
	if skew.Got >= 0 || skew.Want != wire.FrameVersion {
		t.Fatalf("skew = got %d want %d; expected undeclared (got < 0) against %d", skew.Got, skew.Want, wire.FrameVersion)
	}
	if !errors.Is(err, wire.ErrBadVersion) {
		t.Fatalf("err = %v, want errors.Is(..., wire.ErrBadVersion)", err)
	}
}

// A peer declaring a different frame version is rejected with the
// declared version in the error.
func TestRejectsFrameSkew(t *testing.T) {
	err := sendHello(t, FedAvg, fmt.Sprintf("%s;frame=%d", hello, wire.FrameVersion-1))
	var skew *wire.FrameSkewError
	if !errors.As(err, &skew) {
		t.Fatalf("err = %v, want *wire.FrameSkewError", err)
	}
	if skew.Got != wire.FrameVersion-1 || skew.Want != wire.FrameVersion {
		t.Fatalf("skew = got %d want %d", skew.Got, skew.Want)
	}
}

// A version-1 client, which still sends its own copy of the plan, is a
// protocol mismatch.
func TestServerRejectsBadHello(t *testing.T) {
	if err := sendHello(t, FedAvg, "v=1;algo=fedavg;rounds=1;eval=0"+wire.FrameField()); !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v, want ErrProtocol", err)
	}
}

func TestFedAvgClientAdoptsServerPlan(t *testing.T) { clientAdoptsServerPlan(t, FedAvg) }

func TestSyncSGDClientAdoptsServerPlan(t *testing.T) { clientAdoptsServerPlan(t, SyncSGD) }

// clientAdoptsServerPlan checks that a client runs the plan of a server
// of the given algorithm, whatever it is, and rejects an ack whose plan
// is malformed or out of range.
func clientAdoptsServerPlan(t *testing.T, algo Algo) {
	train, test := flatData(t, 2, 32, 8, 57)
	in := train.X.Dim(1)
	newClient := func(opt nn.Optimizer) *Client {
		c, err := NewClient(ClientConfig{
			Model: buildModel(27, in, 2), Opt: opt, Loss: nn.SoftmaxCrossEntropy{},
			Shard: train, Batch: 4, Meter: &transport.Meter{},
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	t.Run("adopts", func(t *testing.T) {
		cfg := ServerConfig{
			Algo: algo, Model: buildModel(27, in, 2), Clients: 1,
			Rounds: 5, EvalEvery: 2, EvalData: test,
		}
		// FedAvg clients take three local steps a round; SyncSGD
		// clients one, with the optimizer on the server.
		steps, clientOpt := 1, nn.Optimizer(nil)
		if algo == FedAvg {
			cfg.LocalSteps, steps, clientOpt = 3, 3, &nn.SGD{LR: 0.05}
		} else {
			cfg.Opt = &nn.SGD{LR: 0.05}
		}
		srv, err := NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c := newClient(clientOpt)
		serverStats, clientStats, err := RunLocal(srv, []*Client{c})
		if err != nil {
			t.Fatal(err)
		}
		var rounds []int
		for _, ev := range serverStats.Evals {
			rounds = append(rounds, ev.Round)
		}
		if fmt.Sprint(rounds) != "[1 3 4]" {
			t.Fatalf("eval rounds %v, want [1 3 4]", rounds)
		}
		if st := clientStats[0]; len(st.Loss) != 5 || len(st.Bytes) != 3 {
			t.Fatalf("client ran %d rounds with %d snapshots, want 5 and 3", len(st.Loss), len(st.Bytes))
		}
		// steps local steps in each of five rounds drew 5·steps batches.
		ref := dataset.NewBatchSampler(seqIdx(train.Len()), 4, rng.New(0^0x9e3779b97f4a7c15))
		for i := 0; i < 5*steps; i++ {
			ref.Next()
		}
		if got, want := c.sampler.Next(), ref.Next(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("next batch %v, want %v after %d draws", got, want, 5*steps)
		}
	})

	ack := func(format string) []byte { return wire.EncodeText(fmt.Sprintf(format, algo)) }
	type ackCase struct {
		name string
		ack  []byte
		opt  nn.Optimizer
	}
	cases := []ackCase{
		{"empty ack", nil, &nn.SGD{}},
		{"not text", []byte{0xff, 1, 2}, &nn.SGD{}},
		{"zero rounds", ack("algo=%s;rounds=0;eval=0;steps=1"), &nn.SGD{}},
		{"negative rounds", ack("algo=%s;rounds=-2;eval=0;steps=1"), &nn.SGD{}},
		{"unknown algo", wire.EncodeText("algo=adam;rounds=2;eval=0;steps=1"), &nn.SGD{}},
		{"zero steps", ack("algo=%s;rounds=2;eval=0;steps=0"), &nn.SGD{}},
		{"negative eval", ack("algo=%s;rounds=2;eval=-1;steps=1"), &nn.SGD{}},
		{"non-canonical number", ack("algo=%s;rounds=+2;eval=0;steps=1"), &nn.SGD{}},
		{"trailing field", ack("algo=%s;rounds=2;eval=0;steps=1;x=1"), &nn.SGD{}},
		{"missing field", ack("algo=%s;rounds=2;eval=0"), &nn.SGD{}},
	}
	if algo == FedAvg {
		cases = append(cases, ackCase{"fedavg plan without optimizer", ack("algo=%s;rounds=2;eval=0;steps=1"), nil})
	} else {
		cases = append(cases, ackCase{"syncsgd with local steps", ack("algo=%s;rounds=2;eval=0;steps=3"), nil})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sConn, cConn := transport.Pipe()
			defer sConn.Close()
			go func() {
				if _, err := sConn.Recv(); err == nil {
					sConn.Send(&wire.Message{Type: wire.MsgHelloAck, Payload: tc.ack})
				}
			}()
			_, err := newClient(tc.opt).Run(cConn)
			cConn.Close()
			if !errors.Is(err, ErrProtocol) {
				t.Fatalf("err = %v, want ErrProtocol", err)
			}
		})
	}
}

func TestPlanRoundTrip(t *testing.T) {
	for _, p := range []plan{
		{algo: SyncSGD, rounds: 40, eval: 20, steps: 1},
		{algo: FedAvg, rounds: 1, eval: 0, steps: 4},
	} {
		got, err := parsePlan(p.String())
		if err != nil || got != p {
			t.Fatalf("parsePlan(%q) = %+v, %v", p.String(), got, err)
		}
	}
}

// bnPush encodes one valid push of the given algorithm for a BatchNorm
// model, so the payload carries parameter tensors, state and trailer.
func bnPush(algo Algo, weight float32) (shapes []*tensor.Tensor, payload []byte) {
	model := buildBN(15, 12, 2)
	params, state := model.Params(), nn.CollectState(model)
	trailer := tensor.New()
	trailer.Set(weight)
	var ps payloadSizer
	return tensorsOf(params, state, false), ps.encode(append(tensorsOf(params, state, algo == SyncSGD), trailer))
}

func TestDecodePushRejectsGarbage(t *testing.T) {
	shapes, good := bnPush(SyncSGD, 4)
	if _, n, err := decodePush(nil, good, shapes); err != nil || n != 4 {
		t.Fatalf("valid push: n %d, err %v", n, err)
	}
	raw := func(ts ...*tensor.Tensor) []byte {
		var ps payloadSizer
		return ps.encode(ts)
	}
	// weight builds a push of the right tensors with the given trailer.
	weight := func(ts ...*tensor.Tensor) []byte {
		return raw(append(append([]*tensor.Tensor(nil), shapes...), ts...)...)
	}
	scalar := func(v float32) *tensor.Tensor {
		t := tensor.New()
		t.Set(v)
		return t
	}
	for _, tc := range []struct {
		name string
		buf  []byte
	}{
		{"empty", nil},
		{"truncated", good[:10]},
		{"trailing byte", append(append([]byte(nil), good...), 9)},
		{"wrong shape", raw(tensor.New(3))},
		{"missing trailer", weight()},
		{"zero weight", weight(scalar(0))},
		{"negative weight", weight(scalar(-4))},
		{"NaN weight", weight(scalar(float32(math.NaN())))},
		{"huge weight", weight(scalar(1 << 30))},
		{"two-element trailer", weight(tensor.New(2))},
	} {
		if _, _, err := decodePush(nil, tc.buf, shapes); !errors.Is(err, ErrProtocol) {
			t.Errorf("%s: err = %v, want ErrProtocol", tc.name, err)
		}
	}
	// The trailer is read by value, whatever its rank.
	if _, n, err := decodePush(nil, weight(tensor.Full(7, 1)), shapes); err != nil || n != 7 {
		t.Fatalf("rank-1 trailer: n %d, err %v", n, err)
	}
}

// FuzzDecodePush drives the server's one push decoder with arbitrary
// bytes: it must decode or return ErrProtocol, never panic.
func FuzzDecodePush(f *testing.F) {
	shapes, weights := bnPush(FedAvg, 48)
	_, grads := bnPush(SyncSGD, 16)
	f.Add(weights)
	f.Add(grads)
	f.Add(grads[:len(grads)-3])
	var staging []*tensor.Tensor
	f.Fuzz(func(t *testing.T, buf []byte) {
		var n int
		var err error
		staging, n, err = decodePush(staging, buf, shapes)
		if err != nil && !errors.Is(err, ErrProtocol) {
			t.Fatalf("err = %v, want ErrProtocol", err)
		}
		if err == nil && n < 1 {
			t.Fatalf("accepted weight %d", n)
		}
	})
}

// exchange returns one client push through the pooled wire path: the
// client's encode, the server's staged decode and payload release.
func exchange(tb testing.TB, algo Algo, in, classes int) func() {
	model := buildModel(31, in, classes)
	params, state := model.Params(), nn.CollectState(model)
	trailer := tensor.New()
	trailer.Set(16)
	push := append(tensorsOf(params, state, algo == SyncSGD), trailer)
	shapes := tensorsOf(params, state, false)
	var sizer payloadSizer
	var staging []*tensor.Tensor
	return func() {
		payload := sizer.encode(push)
		var err error
		if staging, _, err = decodePush(staging, payload, shapes); err != nil {
			tb.Fatal(err)
		}
		wire.Buffers.Put(payload)
	}
}

// The steady-state round path (pooled encode, staged decode, payload
// release) must not allocate once buffers and staging are warm, so a
// regression that reintroduces per-round allocations fails here rather
// than only in benchmark numbers.
func steadyStateAllocFree(t *testing.T, algo Algo) {
	cycle := exchange(t, algo, 24, 2)
	cycle() // warm the pool and the staging tensors
	if n := testing.AllocsPerRun(50, cycle); n != 0 {
		t.Fatalf("steady-state exchange allocates %v objects per round, want 0", n)
	}
}

func TestFedAvgSteadyStateExchangeAllocFree(t *testing.T) { steadyStateAllocFree(t, FedAvg) }

func TestSyncSGDSteadyStateExchangeAllocFree(t *testing.T) { steadyStateAllocFree(t, SyncSGD) }

// BenchmarkFedAvgModelExchange and BenchmarkSyncSGDGradExchange measure
// one client push worth of encode+decode through the pooled wire path.
// Allocs/op is the headline number: steady state must report 0.
func BenchmarkFedAvgModelExchange(b *testing.B) { benchExchange(b, FedAvg) }

func BenchmarkSyncSGDGradExchange(b *testing.B) { benchExchange(b, SyncSGD) }

func benchExchange(b *testing.B, algo Algo) {
	cycle := exchange(b, algo, 3072, 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}
