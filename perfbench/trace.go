package main

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"medsplit/internal/nn"
	"medsplit/internal/tensor"
	"medsplit/internal/transport"
	"medsplit/internal/wire"
)

// The traced run wraps the interfaces the engine already accepts
// (nn.Layer, nn.Optimizer, nn.Loss, wire.Codec, transport.Conn). Every
// wrapper counts calls and wall time, and runs the call under the
// runtime/pprof label layer=<label>, so CPU time per layer can be read
// from a CPU profile: wall time alone over-counts badly when more
// goroutines than cores are runnable. Untraced runs install none of
// this; they only stamp platform 0's loss calls (stampedLoss without a
// probe) to find round boundaries.

// labelKey is the pprof label key every wrapper sets.
const labelKey = "layer"

// probe accumulates one wrapped operation's call count and wall time.
type probe struct {
	ctx   context.Context // the labels to run the call under
	base  context.Context // the labels to restore afterwards
	calls atomic.Int64
	wall  atomic.Int64 // nanoseconds
}

// do runs f under the probe's label and records the call.
func (p *probe) do(f func()) {
	pprof.SetGoroutineLabels(p.ctx)
	start := time.Now()
	f()
	p.wall.Add(int64(time.Since(start)))
	p.calls.Add(1)
	pprof.SetGoroutineLabels(p.base)
}

// tracer owns the probes of one traced measurement. base is the label
// set of the goroutines that drive the program (layer=core for
// training, layer=serve for inference); wrappers restore it after each
// call, because a goroutine's current labels cannot be read back.
type tracer struct {
	base context.Context

	mu     sync.Mutex
	probes map[string]*probe
}

func newTracer(baseLabel string) *tracer {
	return &tracer{
		base:   pprof.WithLabels(context.Background(), pprof.Labels(labelKey, baseLabel)),
		probes: make(map[string]*probe),
	}
}

// probe returns the probe named name, labelled label, creating it on
// first use. Several probes may share a label (both transport
// directions are labelled "transport").
func (t *tracer) probe(name, label string) *probe {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.probes[name]
	if !ok {
		p = &probe{ctx: pprof.WithLabels(t.base, pprof.Labels(labelKey, label)), base: t.base}
		t.probes[name] = p
	}
	return p
}

// calls and wall read a probe's totals; a probe never created reads 0.
func (t *tracer) calls(name string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if p, ok := t.probes[name]; ok {
		return p.calls.Load()
	}
	return 0
}

func (t *tracer) wall(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	if p, ok := t.probes[name]; ok {
		return time.Duration(p.wall.Load())
	}
	return 0
}

// labelled runs f with the calling goroutine labelled with the
// tracer's base set, so every goroutine f starts inherits it. A nil
// tracer runs f unlabelled.
func (t *tracer) labelled(f func()) {
	if t == nil {
		f()
		return
	}
	pprof.SetGoroutineLabels(t.base)
	defer pprof.SetGoroutineLabels(context.Background())
	f()
}

// setLabel labels the calling goroutine layer=name for good, for
// goroutines that belong to no wrapped layer (the load generator). A
// nil tracer does nothing.
func (t *tracer) setLabel(name string) {
	if t == nil {
		return
	}
	pprof.SetGoroutineLabels(pprof.WithLabels(t.base, pprof.Labels(labelKey, name)))
}

// tracedLayer wraps one model half. Training-mode forwards, backwards
// and eval-mode forwards go to separate probes.
type tracedLayer struct {
	inner          nn.Layer
	fwd, bwd, eval *probe
}

// wrapHalf wraps a model half as a one-layer Sequential the engine
// accepts in place of the half. The wrapper hides the half's internal
// structure from nn.CollectState and nn.ReplaySafe, so it refuses
// halves for which that would change their answer: a half with
// stateful or stochastic layers. fwd/bwd name the training probes and
// eval the eval-mode forward probe; each probe is labelled with its
// own name.
func (t *tracer) wrapHalf(half *nn.Sequential, fwd, bwd, eval string) (*nn.Sequential, error) {
	if len(nn.CollectState(half)) != 0 || !nn.ReplaySafe(half) {
		return nil, fmt.Errorf("trace: %s has stateful or stochastic layers the wrapper would hide", half.Name())
	}
	l := &tracedLayer{
		inner: half,
		fwd:   t.probe(fwd, fwd),
		bwd:   t.probe(bwd, bwd),
		eval:  t.probe(eval, eval),
	}
	return nn.NewSequential(half.Name(), l), nil
}

func (l *tracedLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	p := l.eval
	if train {
		p = l.fwd
	}
	var out *tensor.Tensor
	p.do(func() { out = l.inner.Forward(x, train) })
	return out
}

func (l *tracedLayer) Backward(grad *tensor.Tensor) *tensor.Tensor {
	var out *tensor.Tensor
	l.bwd.do(func() { out = l.inner.Backward(grad) })
	return out
}

func (l *tracedLayer) Params() []*nn.Param { return l.inner.Params() }

func (l *tracedLayer) Name() string { return l.inner.Name() }

// tracedOptimizer wraps an optimizer's Step.
type tracedOptimizer struct {
	inner nn.Optimizer
	step  *probe
}

func (t *tracer) wrapOptimizer(o nn.Optimizer) nn.Optimizer {
	return &tracedOptimizer{inner: o, step: t.probe("opt_step", "opt_step")}
}

func (o *tracedOptimizer) Step(params []*nn.Param) { o.step.do(func() { o.inner.Step(params) }) }

func (o *tracedOptimizer) Name() string { return o.inner.Name() }

// stampedLoss wraps a loss function. When stamps is set, every call
// appends its start time (platform 0's round boundaries); when loss is
// set, the call is traced. The untraced run uses it for stamps alone.
type stampedLoss struct {
	inner  nn.Loss
	stamps *[]time.Time
	loss   *probe
}

func (s *stampedLoss) Loss(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	if s.stamps != nil {
		*s.stamps = append(*s.stamps, time.Now())
	}
	if s.loss == nil {
		return s.inner.Loss(logits, labels)
	}
	var v float64
	var g *tensor.Tensor
	s.loss.do(func() { v, g = s.inner.Loss(logits, labels) })
	return v, g
}

func (s *stampedLoss) Name() string { return s.inner.Name() }

// tracedCodec wraps a codec, keeping the buffer-reusing interface the
// engine's zero-allocation wire path type-asserts for.
type tracedCodec struct {
	inner    wire.ReusableCodec
	enc, dec *probe
}

var _ wire.ReusableCodec = (*tracedCodec)(nil)

func (t *tracer) wrapCodec(c wire.ReusableCodec) *tracedCodec {
	return &tracedCodec{inner: c, enc: t.probe("wire_encode", "wire_encode"), dec: t.probe("wire_decode", "wire_decode")}
}

func (c *tracedCodec) Name() string { return c.inner.Name() }

func (c *tracedCodec) EncodeTensors(ts ...*tensor.Tensor) []byte {
	var out []byte
	c.enc.do(func() { out = c.inner.EncodeTensors(ts...) })
	return out
}

func (c *tracedCodec) DecodeTensors(buf []byte) ([]*tensor.Tensor, error) {
	var out []*tensor.Tensor
	var err error
	c.dec.do(func() { out, err = c.inner.DecodeTensors(buf) })
	return out, err
}

func (c *tracedCodec) EncodeTensorsInto(buf []byte, ts ...*tensor.Tensor) []byte {
	var out []byte
	c.enc.do(func() { out = c.inner.EncodeTensorsInto(buf, ts...) })
	return out
}

func (c *tracedCodec) DecodeTensorsInto(dst []*tensor.Tensor, buf []byte) ([]*tensor.Tensor, error) {
	var out []*tensor.Tensor
	var err error
	c.dec.do(func() { out, err = c.inner.DecodeTensorsInto(dst, buf) })
	return out, err
}

// tracedConn wraps one end of a link. side is "server" or "platform";
// receive time on each side is mostly waiting for the peer.
type tracedConn struct {
	inner      transport.Conn
	send, recv *probe
}

func (t *tracer) wrapConn(c transport.Conn, side string) transport.Conn {
	return &tracedConn{
		inner: c,
		send:  t.probe("transport_send", "transport"),
		recv:  t.probe("transport_"+side+"_recv", "transport"),
	}
}

func (c *tracedConn) Send(m *wire.Message) error {
	var err error
	c.send.do(func() { err = c.inner.Send(m) })
	return err
}

func (c *tracedConn) Recv() (*wire.Message, error) {
	var m *wire.Message
	var err error
	c.recv.do(func() { m, err = c.inner.Recv() })
	return m, err
}

func (c *tracedConn) Close() error { return c.inner.Close() }
