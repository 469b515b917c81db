package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"medsplit/internal/experiment"
	"medsplit/internal/models"
	"medsplit/internal/nn"
	"medsplit/internal/serve"
	"medsplit/internal/tensor"
	"medsplit/internal/transport"
	"medsplit/internal/wire"
)

// infer-mlp-tcp: split inference against an InferenceServer on its
// default batching (8 rows / 2 ms flush) with 2 compute slots, over
// loopback TCP. Requests carry front-half activations computed at
// set-up. Phase A is an open loop (Poisson arrivals at inferRate, each
// timed from when it was due); phase B a closed loop with a fixed
// window of outstanding requests per connection.
const (
	inferTenants = 4
	inferConns   = 2
	inferRows    = 2  // rows per request
	inferPool    = 64 // distinct activation tensors per tenant
	inferClasses = 10
	inferRate    = 10000 // phase A arrivals per second, all connections
	inferLimit   = 50 * time.Millisecond
	inferWindow  = 32 // phase B outstanding requests per connection
	inferSetups  = 5
	inferWarmup  = 64 // closed-loop requests per connection before measuring
	inferDrain   = 2 * time.Second
	// Phase figures are medians over windows of about statWindow, so
	// a burst of contention from outside the process moves one window,
	// not the figure.
	statWindow = time.Second
	// Phase B keeps every request's send time in a ring of sendRing
	// slots per connection: far more than can be outstanding before the
	// deadline sheds them. Every latSample-th latency is kept.
	sendRing  = 1 << 16
	latSample = 8
)

// windows splits a phase of length span into n equal windows of about
// statWindow each (one window when the phase is shorter).
func windows(span time.Duration) (n int, width time.Duration) {
	n = max(1, int(span/statWindow))
	return n, span / time.Duration(n)
}

// Request phases, carried in the request's Platform field so responses
// route back to their phase; Round carries the sequence number.
const (
	phaseWarm = iota
	phaseOpen
	phaseClosed
	phaseCount
)

// inferRig is one set-up serving stack plus its client ends.
type inferRig struct {
	names []string
	acts  [][]*tensor.Tensor // [tenant][pool]: request activations
	want  [][]*tensor.Tensor // [tenant][pool]: expected logits
	mgr   *serve.Manager
	is    *serve.InferenceServer
	srv   []transport.Conn
	cli   []transport.Conn // metered on meter
	meter *transport.Meter

	handlers  sync.WaitGroup
	handleErr []error

	synth, init time.Duration
}

func tenantModel(seed uint64, i int) (*models.Model, error) {
	return experiment.BuildModel(experiment.Config{Arch: experiment.ArchMLP, Classes: inferClasses, Seed: seed + 101*uint64(i+1)})
}

// setupInfer builds tenants, request inputs, expected outputs, the
// serving stack and the connections. serveConns starts the connection
// handlers; a rig built only to time set-up leaves them off.
func setupInfer(seed uint64, tr *tracer, serveConns bool) (*inferRig, time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	_, test, _, err := experiment.BuildData(experiment.Config{
		Arch:         experiment.ArchMLP,
		Classes:      inferClasses,
		TrainSamples: 8,
		TestSamples:  inferPool * inferRows,
		Platforms:    1,
		TotalBatch:   1,
		Sharding:     experiment.ShardingIID,
		Seed:         seed,
	})
	if err != nil {
		return nil, 0, err
	}
	t1 := time.Now()
	rig := &inferRig{meter: &transport.Meter{}}
	backs := make([]*nn.Sequential, inferTenants)
	fronts := make([]*nn.Sequential, inferTenants)
	for i := range backs {
		m, err := tenantModel(seed, i)
		if err != nil {
			return nil, 0, err
		}
		if fronts[i], backs[i], err = models.Split(m.Net, m.DefaultCut); err != nil {
			return nil, 0, err
		}
	}
	t2 := time.Now()
	rig.synth, rig.init = t1.Sub(t0), t2.Sub(t1)
	idx := make([]int, inferRows)
	for i := range backs {
		rig.names = append(rig.names, fmt.Sprintf("tenant-%d", i))
		acts := make([]*tensor.Tensor, inferPool)
		want := make([]*tensor.Tensor, inferPool)
		for j := range acts {
			for r := range idx {
				idx[r] = j*inferRows + r
			}
			x, _ := test.Batch(idx)
			acts[j] = fronts[i].Forward(x, false).Clone()
			want[j] = backs[i].Forward(acts[j], false).Clone()
		}
		rig.acts = append(rig.acts, acts)
		rig.want = append(rig.want, want)
	}
	tenants := make([]serve.TenantConfig, inferTenants)
	for i := range tenants {
		back := backs[i]
		if tr != nil {
			if back, err = tr.wrapHalf(back, "back_fwd", "back_bwd", "back_fwd"); err != nil {
				return nil, 0, err
			}
		}
		tenants[i] = serve.TenantConfig{
			Name:      rig.names[i],
			BuildBack: func() (*nn.Sequential, error) { return back, nil },
		}
	}
	if rig.mgr, err = serve.NewManager(serve.Config{Tenants: tenants, ComputeSlots: 2}); err != nil {
		return nil, 0, err
	}
	// Batchers start here and inherit the serve label in traced runs.
	tr.labelled(func() { rig.is, err = serve.NewInferenceServer(rig.mgr, serve.InferConfig{}) })
	if err != nil {
		rig.mgr.Close()
		return nil, 0, err
	}
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		rig.close()
		return nil, 0, err
	}
	defer l.Close()
	for c := 0; c < inferConns; c++ {
		cli, err := transport.Dial(l.Addr())
		if err != nil {
			rig.close()
			return nil, 0, err
		}
		rig.cli = append(rig.cli, transport.Metered(cli, rig.meter))
		srv, err := l.Accept()
		if err != nil {
			rig.close()
			return nil, 0, err
		}
		if tr != nil {
			srv = tr.wrapConn(srv, "server")
		}
		rig.srv = append(rig.srv, srv)
	}
	setup := time.Since(t0)
	if serveConns {
		rig.handleErr = make([]error, inferConns)
		tr.labelled(func() {
			for c, conn := range rig.srv {
				rig.handlers.Add(1)
				go func() {
					defer rig.handlers.Done()
					rig.handleErr[c] = rig.is.HandleConn(conn)
				}()
			}
		})
	}
	return rig, setup, nil
}

// close says goodbye on every connection, waits for the handlers and
// releases the serving stack. It reports a handler's failure.
func (rig *inferRig) close() error {
	for _, c := range rig.cli {
		_ = c.Send(&wire.Message{Type: wire.MsgBye})
		c.Close() // a handler that missed the goodbye reads EOF instead
	}
	rig.handlers.Wait()
	closeAll(rig.srv)
	if rig.is != nil {
		rig.is.Close()
	}
	rig.mgr.Close()
	for c, err := range rig.handleErr {
		if err != nil {
			return fmt.Errorf("connection %d handler: %w", c, err)
		}
	}
	return nil
}

// pick is the request (tenant, pool entry) for a sequence number: a
// pure function of the seed, so any party can recompute it.
func pick(seed uint64, phase, conn, seq int) (tenant, entry int) {
	h := splitmix(seed ^ uint64(phase)<<56 ^ uint64(conn)<<48 ^ uint64(seq))
	return int(h % inferTenants), int((h >> 16) % inferPool)
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// phaseState is one phase's bookkeeping on one connection. Fields
// after mu are written by the connection's receiver.
type phaseState struct {
	start   time.Time
	offsets []time.Duration // open loop: due time of request seq, from start
	lag     []time.Duration // open loop: send time minus due time (sender-owned)
	window  chan struct{}   // closed loop: one token per outstanding request
	sentAt  []atomic.Int64  // closed loop: send time (Unix ns) of request seq, at seq%sendRing
	width   time.Duration   // statistics window
	sent    atomic.Int64

	mu     sync.Mutex
	closed bool
	got    int
	ok     int
	failed int
	wrong  int
	lat    []float64   // open loop: ms from due time; +Inf when failed
	done   []int       // closed loop: requests answered in each window
	sample [][]float64 // closed loop: sampled ms from send time per window; +Inf when failed
	werr   error       // first wrong response
}

// client is the benchmark's end of one connection: the loadgen.
type client struct {
	rig    *inferRig
	seed   uint64
	id     int
	conn   transport.Conn
	phases [phaseCount]atomic.Pointer[phaseState]
	dec    []*tensor.Tensor
}

func (c *client) send(phase, seq int) error {
	t, j := pick(c.seed, phase, c.id, seq)
	return c.conn.Send(&wire.Message{
		Type:     wire.MsgInferRequest,
		Platform: uint32(phase),
		Round:    uint32(seq),
		Payload: wire.EncodeInferRequest(wire.InferHeader{
			Tenant:         c.rig.names[t],
			RequestID:      uint64(phase)<<32 | uint64(seq),
			DeadlineMicros: uint32(inferLimit / time.Microsecond),
		}, c.rig.acts[t][j]),
	})
}

// receive reads responses until the connection closes, checking each
// against the expected logits bit for bit.
func (c *client) receive() {
	for {
		m, err := c.conn.Recv()
		if err != nil {
			return
		}
		now := time.Now()
		var ph *phaseState
		if int(m.Platform) < phaseCount {
			ph = c.phases[m.Platform].Load()
		}
		if ph == nil {
			continue // a response to no phase the client opened: ignored
		}
		ok, werr := c.verify(m)
		wire.ReleasePayload(&wire.Buffers, m)
		seq := int(m.Round)
		ph.mu.Lock()
		if !ph.closed {
			ph.got++
			switch {
			case werr != nil:
				ph.wrong++
				if ph.werr == nil {
					ph.werr = werr
				}
			case ok:
				ph.ok++
			default:
				ph.failed++
			}
			if ph.lat != nil && seq < len(ph.lat) {
				lat := now.Sub(ph.start.Add(ph.offsets[seq]))
				if ok && lat <= inferLimit {
					ph.lat[seq] = ms(lat)
				} else if ok {
					ph.ok-- // answered, but over the latency limit
					ph.failed++
				}
			}
			if ph.sentAt != nil {
				lat := now.Sub(time.Unix(0, ph.sentAt[seq%sendRing].Load()))
				if ok && lat > inferLimit {
					ok = false
					ph.ok--
					ph.failed++
				}
				if w := int(now.Sub(ph.start) / ph.width); w < len(ph.done) {
					if ok {
						ph.done[w]++
					}
					if seq%latSample == 0 {
						v := math.Inf(1)
						if ok {
							v = ms(lat)
						}
						ph.sample[w] = append(ph.sample[w], v)
					}
				}
			}
		}
		ph.mu.Unlock()
		if ph.window != nil {
			<-ph.window
		}
	}
}

// verify classifies a response: ok (logits equal to the local back
// half's, bit for bit), a typed rejection (not ok, no error), or a
// wrong answer (error).
func (c *client) verify(m *wire.Message) (ok bool, err error) {
	if m.Type != wire.MsgInferResponse || int(m.Platform) >= phaseCount {
		return false, fmt.Errorf("unexpected %s for phase %d", m.Type, m.Platform)
	}
	if _, _, _, derr := wire.DecodeServeError(m.Payload); derr == nil {
		return false, nil
	}
	ts, derr := wire.DecodeTensorsInto(c.dec, m.Payload)
	if derr != nil || len(ts) != 1 {
		return false, fmt.Errorf("response %d/%d: bad payload: %v", m.Platform, m.Round, derr)
	}
	c.dec = ts
	t, j := pick(c.seed, int(m.Platform), c.id, int(m.Round))
	got, want := ts[0], c.rig.want[t][j]
	if !tensor.SameShape(got, want) {
		return false, fmt.Errorf("response %d/%d: shape %v, want %v", m.Platform, m.Round, got.Shape(), want.Shape())
	}
	for i, v := range want.Data() {
		if math.Float32bits(got.Data()[i]) != math.Float32bits(v) {
			return false, fmt.Errorf("response %d/%d: logit %d is %v, local back half gives %v", m.Platform, m.Round, i, got.Data()[i], v)
		}
	}
	return true, nil
}

// openLoop sends the phase's schedule, each request at its due time.
func (c *client) openLoop(ph *phaseState) error {
	for seq, off := range ph.offsets {
		due := ph.start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		ph.lag[seq] = time.Since(due)
		ph.sent.Add(1)
		if err := c.send(phaseOpen, seq); err != nil {
			return err
		}
	}
	return nil
}

// closedLoop keeps cap(ph.window) requests outstanding until end or
// until max requests were sent. It gives up when no answer frees a
// slot for inferDrain.
func (c *client) closedLoop(ph *phaseState, phase int, end time.Time, max int) error {
	stall := time.NewTimer(inferDrain)
	defer stall.Stop()
	for seq := 0; seq < max && time.Now().Before(end); seq++ {
		select {
		case ph.window <- struct{}{}:
		default:
			stall.Reset(inferDrain)
			select {
			case ph.window <- struct{}{}:
			case <-stall.C:
				return fmt.Errorf("no answer in %v with %d requests outstanding", inferDrain, cap(ph.window))
			}
		}
		if ph.sentAt != nil {
			ph.sentAt[seq%sendRing].Store(time.Now().UnixNano())
		}
		ph.sent.Add(1)
		if err := c.send(phase, seq); err != nil {
			return err
		}
	}
	return nil
}

// poissonOffsets draws arrival times at rate per second over span.
func poissonOffsets(r *rand.Rand, rate float64, span time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += r.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= span {
			return out
		}
		out = append(out, d)
	}
}

// inferRun is one measurement of the inference workload.
type inferRun struct {
	setups      []time.Duration
	synth, init []time.Duration
	open        []*phaseState // per connection
	closed      []*phaseState
	stats       serve.InferStats // over the measured phases
	bytes       int64            // client-side wire bytes over the measured phases
	rt          rtTotals
}

func measureInfer(seed uint64, budget time.Duration, tr *tracer, prof *cpuProfile) (run *inferRun, err error) {
	run = &inferRun{}
	var rig *inferRig
	for i := 0; i < inferSetups; i++ {
		last := i == inferSetups-1
		r, setup, err := setupInfer(seed, tr, last)
		if err != nil {
			return nil, err
		}
		run.setups = append(run.setups, setup)
		run.synth = append(run.synth, r.synth)
		run.init = append(run.init, r.init)
		if !last {
			if err := r.close(); err != nil {
				return nil, err
			}
			continue
		}
		rig = r
	}
	clients := make([]*client, inferConns)
	var recv sync.WaitGroup
	for i := range clients {
		clients[i] = &client{rig: rig, seed: seed, id: i, conn: rig.cli[i]}
		recv.Add(1)
		go func() {
			defer recv.Done()
			tr.setLabel("loadgen")
			clients[i].receive()
		}()
	}
	// The receivers exit once close() has closed the client connections.
	defer func() {
		cerr := rig.close()
		recv.Wait()
		if cerr != nil && err == nil {
			err = cerr
		}
	}()

	// Warm-up: lazy model builds, connection buffers, batcher timers.
	warm := make([]*phaseState, inferConns)
	for i, c := range clients {
		warm[i] = &phaseState{start: time.Now(), window: make(chan struct{}, 8)}
		c.phases[phaseWarm].Store(warm[i])
	}
	if err := runPhase(clients, warm, tr, func(c *client, ph *phaseState) error {
		return c.closedLoop(ph, phaseWarm, time.Now().Add(time.Hour), inferWarmup)
	}); err != nil {
		return nil, err
	}

	stats0, bytes0 := rig.is.Stats(), rig.meter.TotalBytes()
	if prof != nil {
		if err := prof.start(); err != nil {
			return nil, err
		}
	}
	before := readRuntime()
	span := budget / 2
	run.open = make([]*phaseState, inferConns)
	start := time.Now().Add(time.Millisecond)
	for i, c := range clients {
		r := rand.New(rand.NewPCG(seed, uint64(i)))
		offs := poissonOffsets(r, inferRate/inferConns, span)
		_, width := windows(span)
		ph := &phaseState{start: start, offsets: offs, width: width, lag: make([]time.Duration, len(offs)), lat: make([]float64, len(offs))}
		for k := range ph.lat {
			ph.lat[k] = math.Inf(1)
		}
		run.open[i] = ph
		c.phases[phaseOpen].Store(ph)
	}
	err = runPhase(clients, run.open, tr, (*client).openLoop)
	if err == nil {
		run.closed = make([]*phaseState, inferConns)
		start := time.Now()
		n, width := windows(span)
		for i, c := range clients {
			run.closed[i] = &phaseState{
				start: start, width: width, window: make(chan struct{}, inferWindow),
				sentAt: make([]atomic.Int64, sendRing), done: make([]int, n), sample: make([][]float64, n),
			}
			c.phases[phaseClosed].Store(run.closed[i])
		}
		err = runPhase(clients, run.closed, tr, func(c *client, ph *phaseState) error {
			return c.closedLoop(ph, phaseClosed, start.Add(span), math.MaxInt)
		})
	}
	run.rt.add(before, readRuntime())
	if prof != nil {
		if perr := prof.stop(); perr != nil && err == nil {
			err = perr
		}
	}
	if err != nil {
		return nil, err
	}
	stats1 := rig.is.Stats()
	run.stats = serve.InferStats{
		Requests: stats1.Requests - stats0.Requests,
		Rejected: stats1.Rejected - stats0.Rejected,
		Batches:  stats1.Batches - stats0.Batches,
	}
	run.bytes = rig.meter.TotalBytes() - bytes0
	return run, nil
}

// runPhase runs send on every client at once, then waits (at most
// inferDrain) for every sent request to be answered and closes the
// phase; requests still unanswered count as failed.
func runPhase(clients []*client, phs []*phaseState, tr *tracer, send func(*client, *phaseState) error) error {
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr.setLabel("loadgen")
			errs[i] = send(c, phs[i])
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(inferDrain)
	for _, ph := range phs {
		for {
			ph.mu.Lock()
			done := int64(ph.got) == ph.sent.Load()
			if done || time.Now().After(deadline) {
				ph.closed = true
				ph.failed += int(ph.sent.Load()) - ph.got
				ph.mu.Unlock()
				break
			}
			ph.mu.Unlock()
			time.Sleep(time.Millisecond)
		}
	}
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("connection %d: %w", i, err)
		}
	}
	return nil
}

// Figures of an inferRun. Phase state is read only after its phase
// closed, so the receivers no longer write it.

func (r *inferRun) sent(phs []*phaseState) (n int64) {
	for _, ph := range phs {
		n += ph.sent.Load()
	}
	return n
}

func (r *inferRun) requests() int64 { return r.sent(r.open) + r.sent(r.closed) }

func (r *inferRun) failed() (n int64) {
	for _, ph := range append(append([]*phaseState(nil), r.open...), r.closed...) {
		n += int64(ph.failed + ph.wrong)
	}
	return n
}

// check fails the run on any wrong answer.
func (r *inferRun) check() error {
	for _, ph := range append(append([]*phaseState(nil), r.open...), r.closed...) {
		if ph.wrong > 0 {
			return fmt.Errorf("%d wrong responses, first: %w", ph.wrong, ph.werr)
		}
	}
	return nil
}

// latencies are phase A's request latencies in ms, +Inf for failed
// requests (a refused or late request misses every latency limit).
func (r *inferRun) latencies() []float64 {
	var out []float64
	for _, ph := range r.open {
		out = append(out, ph.lat...)
	}
	return out
}

// openPercentile is the median over phase A's windows of each
// window's q-quantile latency, a request belonging to the window it
// was due in.
func (r *inferRun) openPercentile(q float64) float64 {
	var byWindow [][]float64
	for _, ph := range r.open {
		for seq, off := range ph.offsets {
			w := int(off / ph.width)
			for len(byWindow) <= w {
				byWindow = append(byWindow, nil)
			}
			byWindow[w] = append(byWindow[w], ph.lat[seq])
		}
	}
	var ps []float64
	for _, lat := range byWindow {
		if len(lat) > 0 {
			ps = append(ps, percentile(lat, q))
		}
	}
	return median(ps)
}

// closedPercentile is the median over phase B's windows of each
// window's q-quantile latency from send to answer, over the sampled
// requests.
func (r *inferRun) closedPercentile(q float64) float64 {
	var ps []float64
	for w := range r.closed[0].sample {
		var lat []float64
		for _, ph := range r.closed {
			lat = append(lat, ph.sample[w]...)
		}
		if len(lat) > 0 {
			ps = append(ps, percentile(lat, q))
		}
	}
	return median(ps)
}

func (r *inferRun) lags() []float64 {
	var out []float64
	for _, ph := range r.open {
		out = append(out, durationsMs(ph.lag)...)
	}
	return out
}

// reqPerSecond is the median over phase B's windows of the requests
// answered in the window per second.
func (r *inferRun) reqPerSecond() float64 {
	rates := make([]float64, len(r.closed[0].done))
	for _, ph := range r.closed {
		for w, n := range ph.done {
			rates[w] += float64(n) / ph.width.Seconds()
		}
	}
	return median(rates)
}

func (r *inferRun) setupMedian() float64 {
	xs := make([]float64, len(r.setups))
	for i, d := range r.setups {
		xs[i] = d.Seconds()
	}
	return median(xs)
}
