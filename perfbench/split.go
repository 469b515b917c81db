package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"medsplit/internal/core"
	"medsplit/internal/experiment"
	"medsplit/internal/geonet"
	"medsplit/internal/models"
	"medsplit/internal/nn"
	"medsplit/internal/simnet"
	"medsplit/internal/transport"
	"medsplit/internal/wire"
)

// splitSpec is one split-training workload: the paper's sequential
// label-private protocol (four messages per platform per round, raw
// codec, one evaluation after the last round) over loopback TCP or
// the simulated geo-WAN. Every session trains cfg.Rounds rounds from
// scratch; a run repeats sessions until its time is used up.
type splitSpec struct {
	cfg experiment.Config // Seed is set per run
	tcp bool              // loopback TCP; otherwise simnet over SyntheticClinics
}

// warmupRounds leading round intervals of every session are excluded
// from the steady-state figures.
const warmupRounds = 2

// The simulated-WAN scenario of split-mlp-geo25: the 25-clinic,
// 10%-straggler profile BenchmarkConsistencyModes measures. Its seed is
// fixed so sim_round_ms compares across workload seeds.
const (
	geoScenarioSeed = 23
	geoBaseCompute  = 5 * time.Millisecond
	geoStragglers   = 0.1
	geoServerCost   = 2 * time.Millisecond
)

// session is the outcome of one training session.
type session struct {
	setup, synth, init time.Duration
	stamps             []time.Time // platform 0's Loss calls, one per round
	roundSamples       int         // samples all platforms train per round
	digest             uint64
	acc                float64
	wireBytes          int64 // training-message bytes, all links
	bytesByType        map[wire.MsgType]int64
	simElapsed         time.Duration
	rt                 rtTotals
}

// runSession builds data, models and links from seed, then trains one
// session. tr and prof are nil in untraced runs.
func (s splitSpec) runSession(seed uint64, tr *tracer, prof *cpuProfile) (*session, error) {
	cfg := s.cfg
	cfg.Seed = seed
	P := cfg.Platforms
	out := &session{}
	runtime.GC()

	t0 := time.Now()
	shards, test, batches, err := experiment.BuildData(cfg)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	fronts := make([]*nn.Sequential, P)
	var back *nn.Sequential
	for k := 0; k <= P; k++ {
		m, err := experiment.BuildModel(cfg)
		if err != nil {
			return nil, err
		}
		f, b, err := models.Split(m.Net, m.DefaultCut)
		if err != nil {
			return nil, err
		}
		if k < P {
			fronts[k] = f
		} else {
			back = b
		}
	}
	t2 := time.Now()

	var codec wire.Codec = wire.RawCodec{}
	srvBack, srvOpt := back, nn.Optimizer(&nn.SGD{LR: cfg.LR})
	if tr != nil {
		codec = tr.wrapCodec(wire.RawCodec{})
		srvOpt = tr.wrapOptimizer(srvOpt)
		if srvBack, err = tr.wrapHalf(back, "back_fwd", "back_bwd", "eval"); err != nil {
			return nil, err
		}
	}
	srv, err := core.NewServer(core.ServerConfig{
		Back:      srvBack,
		Opt:       srvOpt,
		Platforms: P,
		Rounds:    cfg.Rounds,
		ClipGrads: 5,
		EvalEvery: cfg.Rounds,
		Codec:     codec,
	})
	if err != nil {
		return nil, err
	}
	meters := make([]*transport.Meter, P)
	platforms := make([]*core.Platform, P)
	for k := range platforms {
		meters[k] = &transport.Meter{}
		front, opt := fronts[k], nn.Optimizer(&nn.SGD{LR: cfg.LR})
		var loss nn.Loss = &nn.ReusingSoftmaxCrossEntropy{}
		if k == 0 || tr != nil {
			sl := &stampedLoss{inner: loss}
			if k == 0 {
				sl.stamps = &out.stamps
			}
			if tr != nil {
				sl.loss = tr.probe("loss", "loss")
				opt = tr.wrapOptimizer(opt)
				if front, err = tr.wrapHalf(front, "front_fwd", "front_bwd", "eval"); err != nil {
					return nil, err
				}
			}
			loss = sl
		}
		pc := core.PlatformConfig{
			ID:        k,
			Front:     front,
			Opt:       opt,
			Loss:      loss,
			Shard:     shards[k],
			Batch:     batches[k],
			Rounds:    cfg.Rounds,
			ClipGrads: 5,
			EvalEvery: cfg.Rounds,
			Seed:      seed + uint64(1000+k),
			Codec:     codec,
			Meter:     meters[k],
		}
		if k == 0 {
			pc.EvalData = test
		}
		if platforms[k], err = core.NewPlatform(pc); err != nil {
			return nil, err
		}
		out.roundSamples += batches[k]
	}
	serverConns, platformConns, wan, err := s.connect(seed, P)
	if err != nil {
		return nil, err
	}
	for k := range platformConns {
		platformConns[k] = transport.Metered(platformConns[k], meters[k])
		if tr != nil {
			serverConns[k] = tr.wrapConn(serverConns[k], "server")
			platformConns[k] = tr.wrapConn(platformConns[k], "platform")
		}
	}
	t3 := time.Now()
	out.synth, out.init, out.setup = t1.Sub(t0), t2.Sub(t1), t3.Sub(t0)

	if prof != nil {
		if err := prof.start(); err != nil {
			closeAll(serverConns, platformConns)
			return nil, err
		}
	}
	before := readRuntime()
	var stats []*core.PlatformStats
	tr.labelled(func() {
		stats, err = core.RunConnected(srv, platforms, serverConns, platformConns)
	})
	out.rt.add(before, readRuntime())
	if prof != nil {
		if perr := prof.stop(); perr != nil && err == nil {
			err = perr
		}
	}
	if err != nil {
		return nil, err
	}

	if len(out.stamps) != cfg.Rounds {
		return nil, fmt.Errorf("platform 0 computed %d losses in %d rounds", len(out.stamps), cfg.Rounds)
	}
	evals := stats[0].Evals
	if len(evals) == 0 {
		return nil, fmt.Errorf("no evaluation after round %d", cfg.Rounds)
	}
	out.acc = evals[len(evals)-1].Accuracy
	out.digest = weightDigest(fronts, back)
	out.bytesByType = map[wire.MsgType]int64{}
	for _, m := range meters {
		out.wireBytes += core.TrainingBytes(m)
		out.bytesByType[wire.MsgActivations] += m.TxBytesByType(wire.MsgActivations)
		out.bytesByType[wire.MsgLogits] += m.RxBytesByType(wire.MsgLogits)
		out.bytesByType[wire.MsgLossGrad] += m.TxBytesByType(wire.MsgLossGrad)
		out.bytesByType[wire.MsgCutGrad] += m.RxBytesByType(wire.MsgCutGrad)
	}
	if wan != nil {
		out.simElapsed = wan.Elapsed()
	}
	return out, nil
}

// connect opens one link per platform: a loopback TCP connection to an
// in-process listener, or a simulated WAN link.
func (s splitSpec) connect(seed uint64, P int) (serverConns, platformConns []transport.Conn, wan *simnet.Network, err error) {
	serverConns = make([]transport.Conn, P)
	platformConns = make([]transport.Conn, P)
	if !s.tcp {
		topo, regions := geonet.SyntheticClinics(P, geoScenarioSeed)
		wan, pairs, err := simnet.FromTopology(topo, regions, simnet.Options{
			Seed: seed + 0x51A47,
			Compute: simnet.Compute{
				Server:   geoServerCost,
				Platform: geonet.SyntheticClinicCompute(P, geoScenarioSeed, geoBaseCompute, geoStragglers),
			},
		})
		if err != nil {
			return nil, nil, nil, err
		}
		for k, p := range pairs {
			serverConns[k], platformConns[k] = p.Server, p.Platform
		}
		return serverConns, platformConns, wan, nil
	}
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return nil, nil, nil, err
	}
	defer l.Close()
	// Dialling and accepting one link at a time pairs connection k with
	// platform k without a routing handshake.
	for k := 0; k < P; k++ {
		if platformConns[k], err = transport.Dial(l.Addr()); err == nil {
			serverConns[k], err = l.Accept()
		}
		if err != nil {
			closeAll(serverConns, platformConns)
			return nil, nil, nil, err
		}
	}
	return serverConns, platformConns, nil, nil
}

func closeAll(sets ...[]transport.Conn) {
	for _, set := range sets {
		for _, c := range set {
			if c != nil {
				c.Close()
			}
		}
	}
}

// weightDigest is FNV-1a over every final parameter's float32 bits,
// little-endian, platform fronts in id order and then the server back:
// the digest experiment.RunSplit reports as Result.WeightDigest.
func weightDigest(fronts []*nn.Sequential, back *nn.Sequential) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, seq := range append(append([]*nn.Sequential(nil), fronts...), back) {
		for _, p := range seq.Params() {
			for _, v := range p.W.Data() {
				binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
				h.Write(buf[:])
			}
		}
	}
	return h.Sum64()
}

// splitRun is one measurement: sessions repeated with one seed.
type splitRun struct {
	spec     splitSpec
	sessions []*session
	elapsed  time.Duration
}

// Each run holds at least this many sessions (the set-up median and
// the repeat-digest check need several) and this many round intervals
// (ten beyond p90).
const (
	minSessions  = 3
	minIntervals = 110
)

func (s splitSpec) measure(seed uint64, budget time.Duration, tr *tracer, prof *cpuProfile) (*splitRun, error) {
	run := &splitRun{spec: s}
	start := time.Now()
	for {
		sess, err := s.runSession(seed, tr, prof)
		if err != nil {
			return nil, err
		}
		run.sessions = append(run.sessions, sess)
		if len(run.sessions) >= minSessions && len(run.intervals()) >= minIntervals && time.Since(start) >= budget {
			break
		}
	}
	run.elapsed = time.Since(start)
	return run, nil
}

// intervals are the steady-state round times in ms: the gaps between
// consecutive Loss calls at platform 0, after the warm-up rounds.
func (r *splitRun) intervals() []float64 {
	var out []float64
	for _, s := range r.sessions {
		for i := warmupRounds; i+1 < len(s.stamps); i++ {
			out = append(out, ms(s.stamps[i+1].Sub(s.stamps[i])))
		}
	}
	return out
}

// samplesPerSecond is steady-state training throughput: the median
// over sessions of the samples trained between platform 0's warm-up
// boundary and its last round, over that time.
func (r *splitRun) samplesPerSecond() float64 {
	rates := make([]float64, len(r.sessions))
	for i, s := range r.sessions {
		last := len(s.stamps) - 1
		rates[i] = ratio(float64((last-warmupRounds)*s.roundSamples), s.stamps[last].Sub(s.stamps[warmupRounds]).Seconds())
	}
	return median(rates)
}

func (r *splitRun) rounds() int { return len(r.sessions) * r.spec.cfg.Rounds }

func (r *splitRun) setupMedian() float64 {
	xs := make([]float64, len(r.sessions))
	for i, s := range r.sessions {
		xs[i] = s.setup.Seconds()
	}
	return median(xs)
}

// check verifies what every session of one seed must share: the same
// final weights and accuracy, and an accuracy above chance.
func (r *splitRun) check() error {
	first := r.sessions[0]
	for i, s := range r.sessions[1:] {
		if s.digest != first.digest || s.acc != first.acc {
			return fmt.Errorf("session %d: digest %016x acc %v, session 0: digest %016x acc %v",
				i+1, s.digest, s.acc, first.digest, first.acc)
		}
	}
	chance := 1 / float64(r.spec.cfg.Classes)
	if math.IsNaN(first.acc) || math.IsInf(first.acc, 0) || first.acc <= chance {
		return fmt.Errorf("final accuracy %v is not above chance (%v)", first.acc, chance)
	}
	return nil
}

func (r *splitRun) rt() rtTotals {
	var t rtTotals
	for _, s := range r.sessions {
		t.merge(s.rt)
	}
	return t
}
