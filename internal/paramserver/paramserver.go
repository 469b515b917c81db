// Package paramserver implements the parameter-server baselines the
// split framework is measured against:
//
//   - SyncSGD, Large-Scale Synchronous SGD (Chen et al.,
//     arXiv:1604.00981), the paper's Fig. 4 comparator. Each client
//     pushes the gradient of one local minibatch; the server applies the
//     batch-size-weighted average gradient.
//   - FedAvg, Federated Averaging (McMahan et al., AISTATS 2017), the
//     related-work de facto standard. Each client takes LocalSteps local
//     minibatch steps and pushes its weights; the server installs the
//     shard-size-weighted average.
//
// Both run one protocol. Each round the server broadcasts the model
// (weights and normalization state), collects one push per client,
// applies the pushes and evaluates on schedule. Every client therefore
// moves 2×|model| bytes per round, the communication profile the split
// framework's activations-only traffic is compared with. The protocol
// runs over the same wire and transport stack as the split engine, so
// byte accounting is identical.
//
// The server owns the session plan: its hello-ack tells every client
// the algorithm, round count, evaluation period and local step count,
// and clients adopt it instead of repeating it in their own config.
package paramserver

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"medsplit/internal/dataset"
	"medsplit/internal/nn"
	"medsplit/internal/rng"
	"medsplit/internal/tensor"
	"medsplit/internal/transport"
	"medsplit/internal/wire"
)

// Protocol errors.
var (
	// ErrProtocol reports an out-of-sequence or malformed message,
	// including a malformed or out-of-range session plan in the
	// hello-ack.
	ErrProtocol = errors.New("paramserver: protocol violation")
	// ErrConfig reports an invalid configuration.
	ErrConfig = errors.New("paramserver: invalid configuration")
)

// Algo selects what clients push and how the server applies it.
type Algo uint8

const (
	// SyncSGD: clients push one minibatch gradient plus the batch size;
	// the server averages the gradients, clips them and steps its
	// optimizer.
	SyncSGD Algo = iota + 1
	// FedAvg: clients push their weights after LocalSteps local steps
	// plus their shard size; the server installs the weighted average.
	FedAvg
)

// String names the algorithm as the hello-ack spells it.
func (a Algo) String() string {
	switch a {
	case SyncSGD:
		return "syncsgd"
	case FedAvg:
		return "fedavg"
	}
	return fmt.Sprintf("algo(%d)", uint8(a))
}

// hello is the client's hello base, sent ahead of wire.FrameField.
// Version 2: the server owns the plan; version-1 hellos carried the
// client's own copy of it.
const hello = "v=2"

// evalBatch is the evaluation batch size.
const evalBatch = 64

// plan is the session plan the server sends in its hello-ack.
type plan struct {
	algo   Algo
	rounds int
	eval   int // evaluate every so many rounds and after the last; 0 = never
	steps  int // local steps per round
}

func (p plan) String() string {
	return fmt.Sprintf("algo=%s;rounds=%d;eval=%d;steps=%d", p.algo, p.rounds, p.eval, p.steps)
}

// check reports why p cannot be run, or nil.
func (p plan) check() error {
	switch {
	case p.algo != SyncSGD && p.algo != FedAvg:
		return fmt.Errorf("unknown algorithm %s", p.algo)
	case p.rounds <= 0:
		return fmt.Errorf("%d rounds", p.rounds)
	case p.eval < 0:
		return fmt.Errorf("eval period %d", p.eval)
	case p.steps < 1:
		return fmt.Errorf("%d local steps", p.steps)
	case p.algo == SyncSGD && p.steps != 1:
		return fmt.Errorf("syncsgd pushes one gradient per round, not %d local steps", p.steps)
	}
	return nil
}

// parsePlan decodes a hello-ack plan. Only the canonical rendering of
// a runnable plan is accepted.
func parsePlan(text string) (plan, error) {
	var p plan
	name, rest, _ := strings.Cut(text, ";")
	for _, a := range []Algo{SyncSGD, FedAvg} {
		if name == "algo="+a.String() {
			p.algo = a
		}
	}
	if _, err := fmt.Sscanf(rest, "rounds=%d;eval=%d;steps=%d", &p.rounds, &p.eval, &p.steps); err != nil || p.String() != text {
		return p, fmt.Errorf("malformed plan %q", text)
	}
	return p, p.check()
}

func (p plan) evalRound(r int) bool {
	return p.eval > 0 && ((r+1)%p.eval == 0 || r == p.rounds-1)
}

// pushType is the message type of a client's push.
func (p plan) pushType() wire.MsgType {
	if p.algo == FedAvg {
		return wire.MsgModelPush
	}
	return wire.MsgGradPush
}

// ServerConfig configures the parameter server.
type ServerConfig struct {
	// Algo is the training algorithm.
	Algo Algo
	// Model is the server's authoritative global model.
	Model *nn.Sequential
	// Opt applies the averaged gradient each round (SyncSGD only).
	Opt nn.Optimizer
	// Clients is the number of clients that will connect.
	Clients int
	// Rounds is the number of synchronous rounds.
	Rounds int
	// LocalSteps is the number of local minibatch steps a FedAvg client
	// takes per round (FedAvg's E·|D|/B in step form). Zero means 1,
	// the only value SyncSGD accepts.
	LocalSteps int
	// ClipGrads, when positive, clamps the averaged gradient (SyncSGD
	// only).
	ClipGrads float32
	// EvalEvery, when positive, evaluates EvalData on the global model
	// every so many rounds and after the final round. Evaluation is
	// local to the server, which holds the full model, so it costs no
	// communication.
	EvalEvery int
	// EvalData is the held-out test set (required when EvalEvery > 0).
	EvalData *dataset.Dataset
}

// EvalStat is one evaluation point of the global model.
type EvalStat struct {
	Round    int
	Accuracy float64
}

// ServerStats is what the server measured.
type ServerStats struct {
	Evals []EvalStat
}

// Server is the parameter server.
type Server struct {
	cfg  ServerConfig
	plan plan
}

// NewServer validates cfg and builds the server.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("%w: nil model", ErrConfig)
	}
	if cfg.Clients <= 0 {
		return nil, fmt.Errorf("%w: %d clients", ErrConfig, cfg.Clients)
	}
	p := plan{algo: cfg.Algo, rounds: cfg.Rounds, eval: cfg.EvalEvery, steps: cfg.LocalSteps}
	if p.steps == 0 {
		p.steps = 1
	}
	if err := p.check(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrConfig, err)
	}
	if p.algo == SyncSGD && cfg.Opt == nil {
		return nil, fmt.Errorf("%w: syncsgd without an optimizer", ErrConfig)
	}
	if p.eval > 0 && cfg.EvalData == nil {
		return nil, fmt.Errorf("%w: EvalEvery without EvalData", ErrConfig)
	}
	return &Server{cfg: cfg, plan: p}, nil
}

// Serve drives the protocol over the per-client connections and returns
// the server's evaluation curve.
func (s *Server) Serve(conns []transport.Conn) (*ServerStats, error) {
	if len(conns) != s.cfg.Clients {
		return nil, fmt.Errorf("%w: %d connections for %d clients", ErrConfig, len(conns), s.cfg.Clients)
	}
	if err := s.handshake(conns); err != nil {
		return nil, err
	}
	params := s.cfg.Model.Params()
	state := nn.CollectState(s.cfg.Model)
	model := tensorsOf(params, state, false)
	staging := make([][]*tensor.Tensor, len(conns))
	pushes := make([][]*tensor.Tensor, len(conns))
	weights := make([]float64, len(conns))
	apply := func() error { return nn.AverageInto(model, pushes, weights) }
	if s.plan.algo == SyncSGD {
		apply = s.gradientStep(params, state, pushes, weights)
	}
	stats := &ServerStats{}
	var bcast payloadSizer
	var prevBcast []byte
	for r := 0; r < s.plan.rounds; r++ {
		// Round r-1's broadcast buffer is free again: every client
		// decoded it before pushing, and decoded tensors never alias the
		// payload. The server recycles it here (receivers must never
		// release a shared broadcast payload), which keeps the round
		// loop allocation-free.
		wire.Buffers.Put(prevBcast)
		payload := bcast.encode(model)
		prevBcast = payload
		for k, conn := range conns {
			if err := conn.Send(&wire.Message{
				Type:     wire.MsgModelPush,
				Platform: uint32(k),
				Round:    uint32(r),
				Payload:  payload,
			}); err != nil {
				return nil, fmt.Errorf("paramserver: broadcasting round %d to client %d: %w", r, k, err)
			}
		}
		for k, conn := range conns {
			m, err := recvExpect(conn, s.plan.pushType(), r)
			if err != nil {
				return nil, fmt.Errorf("paramserver: push from client %d: %w", k, err)
			}
			var n int
			staging[k], n, err = decodePush(staging[k], m.Payload, model)
			if err != nil {
				return nil, fmt.Errorf("paramserver: client %d: %w", k, err)
			}
			wire.ReleasePayload(&wire.Buffers, m)
			pushes[k] = staging[k][:len(model)]
			weights[k] = float64(n)
		}
		if err := apply(); err != nil {
			return nil, fmt.Errorf("paramserver: applying round %d: %w", r, err)
		}
		if s.plan.evalRound(r) {
			stats.Evals = append(stats.Evals, EvalStat{Round: r, Accuracy: s.evaluate()})
		}
	}
	for k, conn := range conns {
		if _, err := recvExpect(conn, wire.MsgBye, -1); err != nil {
			return nil, fmt.Errorf("paramserver: client %d shutdown: %w", k, err)
		}
	}
	return stats, nil
}

// gradientStep returns SyncSGD's apply: set the global gradient to the
// batch-size-weighted average of the pushed gradients, clip it, step
// the optimizer, and install the weighted average of the clients'
// normalization state (which does not flow through gradients).
func (s *Server) gradientStep(params []*nn.Param, state []*tensor.Tensor, pushes [][]*tensor.Tensor, weights []float64) func() error {
	sums := make([]*tensor.Tensor, len(params))
	for i, p := range params {
		sums[i] = tensor.New(p.G.Shape()...)
	}
	stateViews := make([][]*tensor.Tensor, len(pushes))
	return func() error {
		for _, t := range sums {
			t.Zero()
		}
		var total float64
		for k, push := range pushes {
			for i := range sums {
				sums[i].AxpyInPlace(float32(weights[k]), push[i])
			}
			total += weights[k]
			stateViews[k] = push[len(params):]
		}
		nn.ZeroGrads(params)
		inv := float32(1 / total)
		for i, p := range params {
			p.G.AxpyInPlace(inv, sums[i])
		}
		if s.cfg.ClipGrads > 0 {
			nn.ClipGrads(params, s.cfg.ClipGrads)
		}
		s.cfg.Opt.Step(params)
		return nn.AverageInto(state, stateViews, weights)
	}
}

// evaluate measures global-model accuracy on the held-out set.
func (s *Server) evaluate() float64 {
	data := s.cfg.EvalData
	n := data.Len()
	correct := 0
	for off := 0; off < n; off += evalBatch {
		idx := make([]int, min(evalBatch, n-off))
		for i := range idx {
			idx[i] = off + i
		}
		x, labels := data.Batch(idx)
		for i, c := range tensor.ArgmaxRows(s.cfg.Model.Forward(x, false)) {
			if c == labels[i] {
				correct++
			}
		}
	}
	return float64(correct) / float64(n)
}

// handshake checks each client's hello (identity, frame version,
// protocol version) and answers with the session plan.
func (s *Server) handshake(conns []transport.Conn) error {
	ack := wire.EncodeText(s.plan.String())
	for k, conn := range conns {
		m, err := recvExpect(conn, wire.MsgHello, -1)
		if err != nil {
			return fmt.Errorf("paramserver: hello from client %d: %w", k, err)
		}
		if int(m.Platform) != k {
			return fmt.Errorf("%w: connection %d identifies as client %d", ErrProtocol, k, m.Platform)
		}
		meta, err := wire.DecodeText(m.Payload)
		if err != nil {
			return fmt.Errorf("%w: hello from client %d: %v", ErrProtocol, k, err)
		}
		base, err := wire.CutFrameField(meta)
		if err != nil {
			return fmt.Errorf("paramserver: client %d: %w", k, err)
		}
		if base != hello {
			return fmt.Errorf("%w: client %d hello %q, want %q", ErrProtocol, k, base, hello)
		}
		if err := conn.Send(&wire.Message{Type: wire.MsgHelloAck, Platform: uint32(k), Payload: ack}); err != nil {
			return fmt.Errorf("paramserver: acking client %d: %w", k, err)
		}
	}
	return nil
}

// ClientConfig configures one data-holding client. The session plan
// (algorithm, rounds, evaluation period, local steps) comes from the
// server's hello-ack.
type ClientConfig struct {
	// ID is the client index.
	ID int
	// Model is the client's local replica (same architecture as the
	// server's; the first broadcast overwrites its weights).
	Model *nn.Sequential
	// Opt takes the client's local steps. A FedAvg plan requires it;
	// SyncSGD clients only compute gradients.
	Opt nn.Optimizer
	// Loss computes the training loss.
	Loss nn.Loss
	// Shard is the client's local data.
	Shard *dataset.Dataset
	// Batch is the local minibatch size.
	Batch int
	// Seed seeds the minibatch sampler.
	Seed uint64
	// Meter, when set, enables traffic snapshots at evaluation rounds.
	Meter *transport.Meter
}

// ClientStats is everything a client measured.
type ClientStats struct {
	// Loss[r] is the mean local training loss of round r.
	Loss []float64
	// Bytes[i] is the cumulative push and broadcast traffic at the
	// plan's i-th evaluation round (recorded only with a Meter).
	Bytes []int64
}

// Client runs the client side of the protocol.
type Client struct {
	cfg     ClientConfig
	sampler *dataset.BatchSampler
}

// NewClient validates cfg and builds a client.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Model == nil || cfg.Loss == nil {
		return nil, fmt.Errorf("%w: nil model/loss", ErrConfig)
	}
	if cfg.Shard == nil || cfg.Shard.Len() == 0 {
		return nil, fmt.Errorf("%w: client %d has no data", ErrConfig, cfg.ID)
	}
	if cfg.Batch <= 0 {
		return nil, fmt.Errorf("%w: batch %d", ErrConfig, cfg.Batch)
	}
	indices := make([]int, cfg.Shard.Len())
	for i := range indices {
		indices[i] = i
	}
	return &Client{
		cfg:     cfg,
		sampler: dataset.NewBatchSampler(indices, cfg.Batch, rng.New(cfg.Seed^0x9e3779b97f4a7c15)),
	}, nil
}

// Run executes the client protocol over conn and returns measurements.
func (c *Client) Run(conn transport.Conn) (*ClientStats, error) {
	p, err := c.handshake(conn)
	if err != nil {
		return nil, err
	}
	params := c.cfg.Model.Params()
	state := nn.CollectState(c.cfg.Model)
	// The push trailer weights this client's contribution: its shard
	// size under FedAvg, its batch size under SyncSGD.
	trailer := tensor.New()
	push := append(tensorsOf(params, state, p.algo == SyncSGD), trailer)
	stats := &ClientStats{}
	var scratch []*tensor.Tensor
	var sizer payloadSizer
	for r := 0; r < p.rounds; r++ {
		m, err := recvExpect(conn, wire.MsgModelPush, r)
		if err != nil {
			return nil, fmt.Errorf("paramserver: client %d round %d: %w", c.cfg.ID, r, err)
		}
		// The broadcast payload is shared across clients over in-process
		// pipes, so it is decoded (through reusable scratch) but never
		// released; only the server knows when every client has moved on.
		scratch, err = nn.DecodeModelScratch(scratch, params, state, m.Payload)
		if err != nil {
			return nil, fmt.Errorf("paramserver: client %d installing model: %w", c.cfg.ID, err)
		}
		var lossSum float64
		weight := c.cfg.Shard.Len()
		for step := 0; step < p.steps; step++ {
			x, labels := c.cfg.Shard.Batch(c.sampler.Next())
			nn.ZeroGrads(params)
			loss, g := c.cfg.Loss.Loss(c.cfg.Model.Forward(x, true), labels)
			c.cfg.Model.Backward(g)
			if p.algo == FedAvg {
				c.cfg.Opt.Step(params)
			} else {
				weight = len(labels)
			}
			lossSum += loss
		}
		stats.Loss = append(stats.Loss, lossSum/float64(p.steps))

		trailer.Set(float32(weight))
		if err := conn.Send(&wire.Message{
			Type:     p.pushType(),
			Platform: uint32(c.cfg.ID),
			Round:    uint32(r),
			Payload:  sizer.encode(push),
		}); err != nil {
			return nil, fmt.Errorf("paramserver: client %d pushing: %w", c.cfg.ID, err)
		}
		if p.evalRound(r) && c.cfg.Meter != nil {
			m := c.cfg.Meter
			stats.Bytes = append(stats.Bytes, m.TxBytesByType(wire.MsgGradPush)+m.RxBytesByType(wire.MsgGradPush)+
				m.TxBytesByType(wire.MsgModelPush)+m.RxBytesByType(wire.MsgModelPush))
		}
	}
	if err := conn.Send(&wire.Message{Type: wire.MsgBye, Platform: uint32(c.cfg.ID)}); err != nil {
		return nil, fmt.Errorf("paramserver: client %d bye: %w", c.cfg.ID, err)
	}
	return stats, nil
}

// handshake sends the hello and adopts the plan from the server's ack.
func (c *Client) handshake(conn transport.Conn) (plan, error) {
	if err := conn.Send(&wire.Message{
		Type:     wire.MsgHello,
		Platform: uint32(c.cfg.ID),
		Payload:  wire.EncodeText(hello + wire.FrameField()),
	}); err != nil {
		return plan{}, fmt.Errorf("paramserver: client %d hello: %w", c.cfg.ID, err)
	}
	m, err := recvExpect(conn, wire.MsgHelloAck, -1)
	if err != nil {
		return plan{}, fmt.Errorf("paramserver: client %d handshake: %w", c.cfg.ID, err)
	}
	text, err := wire.DecodeText(m.Payload)
	if err != nil {
		return plan{}, fmt.Errorf("%w: client %d hello-ack: %v", ErrProtocol, c.cfg.ID, err)
	}
	p, err := parsePlan(text)
	if err != nil {
		return plan{}, fmt.Errorf("%w: client %d: %v", ErrProtocol, c.cfg.ID, err)
	}
	if p.algo == FedAvg && c.cfg.Opt == nil {
		return plan{}, fmt.Errorf("%w: client %d has no optimizer for a fedavg plan", ErrProtocol, c.cfg.ID)
	}
	return p, nil
}

// tensorsOf lists what a model payload carries, in order: one tensor per
// parameter (its weights, or its gradient when grads is set), then the
// normalization state.
func tensorsOf(params []*nn.Param, state []*tensor.Tensor, grads bool) []*tensor.Tensor {
	ts := make([]*tensor.Tensor, 0, len(params)+len(state))
	for _, p := range params {
		if grads {
			ts = append(ts, p.G)
		} else {
			ts = append(ts, p.W)
		}
	}
	return append(ts, state...)
}

// payloadSizer remembers the largest payload a call site has produced
// so the next round's pooled buffer is already big enough and the
// appends never reallocate (same idiom as the core engine's wire path).
type payloadSizer struct{ max int }

// encode packs ts into a pooled buffer.
func (ps *payloadSizer) encode(ts []*tensor.Tensor) []byte {
	buf := wire.Buffers.Get(ps.max)
	for _, t := range ts {
		buf = t.AppendTo(buf)
	}
	if len(buf) > ps.max {
		ps.max = len(buf)
	}
	return buf
}

// decodePush is the one push decoder. A push carries one tensor per
// entry of shapes (a parameter's weights or gradient, then the
// normalization state), each with that entry's shape, and a trailing
// scalar weight: the client's shard size (FedAvg) or batch size
// (SyncSGD), a positive integer. Decoding reuses staging (grown on
// first use; the trailer lands in its last slot), so the steady-state
// receive path does not allocate. Decoded tensors never alias buf, so
// the caller may release the payload right after. Every malformed push
// is an ErrProtocol.
func decodePush(staging []*tensor.Tensor, buf []byte, shapes []*tensor.Tensor) ([]*tensor.Tensor, int, error) {
	if len(staging) != len(shapes)+1 {
		staging = make([]*tensor.Tensor, len(shapes)+1)
	}
	for i := range staging {
		t, rest, err := tensor.DecodeInto(staging[i], buf)
		if err != nil {
			return staging, 0, fmt.Errorf("%w: tensor %d: %v", ErrProtocol, i, err)
		}
		staging[i] = t
		buf = rest
		if i < len(shapes) && !tensor.SameShape(t, shapes[i]) {
			return staging, 0, fmt.Errorf("%w: tensor %d shape %v, want %v", ErrProtocol, i, t.Shape(), shapes[i].Shape())
		}
	}
	if len(buf) != 0 {
		return staging, 0, fmt.Errorf("%w: %d trailing bytes", ErrProtocol, len(buf))
	}
	// The trailer may arrive with any rank; read its one element
	// directly. 1<<24 bounds it to integers float32 holds exactly.
	trailer := staging[len(shapes)].Data()
	if len(trailer) != 1 || !(trailer[0] >= 1 && trailer[0] <= 1<<24) {
		return staging, 0, fmt.Errorf("%w: push weight trailer %v", ErrProtocol, trailer)
	}
	return staging, int(trailer[0]), nil
}

// recvExpect reads one message and validates its type and round.
func recvExpect(conn transport.Conn, want wire.MsgType, round int) (*wire.Message, error) {
	m, err := conn.Recv()
	if err != nil {
		return nil, fmt.Errorf("paramserver: receiving %s: %w", want, err)
	}
	if m.Type != want {
		return nil, fmt.Errorf("%w: got %s, want %s", ErrProtocol, m.Type, want)
	}
	if round >= 0 && m.Round != uint32(round) {
		return nil, fmt.Errorf("%w: %s for round %d, want %d", ErrProtocol, m.Type, m.Round, round)
	}
	return m, nil
}

// RunLocal wires a server and its clients over in-process pipes and
// runs the full session.
func RunLocal(server *Server, clients []*Client) (*ServerStats, []*ClientStats, error) {
	if server == nil {
		return nil, nil, fmt.Errorf("%w: nil server", ErrConfig)
	}
	if len(clients) != server.cfg.Clients {
		return nil, nil, fmt.Errorf("%w: %d clients for a %d-client server", ErrConfig, len(clients), server.cfg.Clients)
	}
	serverConns := make([]transport.Conn, len(clients))
	clientConns := make([]transport.Conn, len(clients))
	for k, c := range clients {
		s, cc := transport.Pipe()
		serverConns[k] = s
		if c.cfg.Meter != nil {
			cc = transport.Metered(cc, c.cfg.Meter)
		}
		clientConns[k] = cc
	}
	defer func() {
		for k := range clients {
			serverConns[k].Close()
			clientConns[k].Close()
		}
	}()

	var serverStats *ServerStats
	clientStats := make([]*ClientStats, len(clients))
	errs := make([]error, len(clients)+1)
	var wg sync.WaitGroup
	wg.Add(len(clients) + 1)
	go func() {
		defer wg.Done()
		st, err := server.Serve(serverConns)
		if err != nil {
			errs[0] = fmt.Errorf("server: %w", err)
			for _, c := range serverConns {
				c.Close()
			}
			return
		}
		serverStats = st
	}()
	for k, c := range clients {
		go func() {
			defer wg.Done()
			st, err := c.Run(clientConns[k])
			if err != nil {
				errs[k+1] = fmt.Errorf("client %d: %w", k, err)
				clientConns[k].Close()
				return
			}
			clientStats[k] = st
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, nil, err
	}
	return serverStats, clientStats, nil
}
