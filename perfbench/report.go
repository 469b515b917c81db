package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"medsplit/internal/wire"
)

// runSplit measures a split-training workload and builds its result.
func runSplit(spec splitSpec, o options) (*result, error) {
	base, err := spec.measure(o.seed, o.measureTime(), nil, nil)
	if err != nil {
		return nil, err
	}
	rounds := float64(spec.cfg.Rounds)
	first := base.sessions[0]
	if !o.trace {
		res := newResult(endToEnd)
		res.attempted = int64(base.rounds())
		res.check(base.check())
		iv := base.intervals()
		res.values["setup_s"] = base.setupMedian()
		res.values["throughput_per_s"] = base.samplesPerSecond()
		res.values["latency_ms_p50"] = percentile(iv, 0.5)
		res.values["latency_ms_p90"] = percentile(iv, 0.9)
		res.values["wire_bytes_per_op"] = float64(first.wireBytes) / rounds
		res.values["peak_rss_mb"] = peakRSSMB()

		res.note("sessions %d of %d rounds, %d platforms, seed %d, %.1fs", len(base.sessions), spec.cfg.Rounds, spec.cfg.Platforms, o.seed, base.elapsed.Seconds())
		res.note("setup_s %.4f s (median of %d)", res.values["setup_s"], len(base.sessions))
		res.note("train_samples_per_s %.1f samples/s", res.values["throughput_per_s"])
		res.note("round_ms_p50 %.3f ms (n=%d)", res.values["latency_ms_p50"], len(iv))
		res.note("round_ms_p90 %.3f ms (%d samples beyond)", res.values["latency_ms_p90"], tailSamples(len(iv), 0.9))
		res.note("final_acc %.4f", first.acc)
		res.note("wan_bytes_per_round %.0f bytes", res.values["wire_bytes_per_op"])
		if first.simElapsed > 0 {
			res.note("sim_round_ms %.3f virtual ms", ms(first.simElapsed)/rounds)
		}
		res.note("failed_ratio %d/%d", res.failed, res.attempted)
		res.note("peak_rss_mb %.1f MB", res.values["peak_rss_mb"])
		res.note("weight_digest %016x", first.digest)
		return res, nil
	}

	tr := newTracer("core")
	prof := &cpuProfile{}
	traced, err := spec.measure(o.seed, o.measureTime(), tr, prof)
	if err != nil {
		return nil, err
	}
	sum, err := prof.analyze()
	if err != nil {
		return nil, err
	}
	res := newResult(perLayer)
	res.attempted = int64(base.rounds() + traced.rounds())
	res.check(base.check())
	res.check(traced.check())
	tf := traced.sessions[0]
	if tf.digest != first.digest || tf.acc != first.acc {
		res.check(fmt.Errorf("traced run: digest %016x acc %v, untraced: digest %016x acc %v", tf.digest, tf.acc, first.digest, first.acc))
	}
	ops := float64(traced.rounds())
	res.layers(sum, tr, ops)
	res.runtimeFigures(base.rt(), float64(base.rounds()))
	var synth, init []float64
	for _, s := range traced.sessions {
		synth = append(synth, s.synth.Seconds())
		init = append(init, s.init.Seconds())
	}
	res.values["dataset.synth_s"] = median(synth)
	res.values["models.init_s"] = median(init)
	res.values["wire.bytes.activations"] = float64(tf.bytesByType[wire.MsgActivations]) / rounds
	res.values["wire.bytes.logits"] = float64(tf.bytesByType[wire.MsgLogits]) / rounds
	res.values["wire.bytes.loss_grad"] = float64(tf.bytesByType[wire.MsgLossGrad]) / rounds
	res.values["wire.bytes.cut_grad"] = float64(tf.bytesByType[wire.MsgCutGrad]) / rounds
	res.values["simnet.sim_round_ms"] = ms(tf.simElapsed) / rounds
	res.values["split.final_acc"] = tf.acc
	res.values["bench.trace_overhead_share"] = ratio(base.samplesPerSecond(), traced.samplesPerSecond()) - 1
	res.note("traced %d sessions, untraced %d; weight_digest %016x both", len(traced.sessions), len(base.sessions), first.digest)
	res.noteLabels(sum, ops)
	return res, nil
}

// runInfer measures the inference workload and builds its result.
func runInfer(o options) (*result, error) {
	base, err := measureInfer(o.seed, o.measureTime(), nil, nil)
	if err != nil {
		return nil, err
	}
	if !o.trace {
		res := newResult(endToEnd)
		res.attempted, res.failed = base.requests(), base.failed()
		res.check(base.check())
		lat := base.latencies()
		res.values["setup_s"] = base.setupMedian()
		res.values["throughput_per_s"] = base.reqPerSecond()
		res.values["latency_ms_p50"] = base.closedPercentile(0.5)
		res.values["latency_ms_p90"] = base.closedPercentile(0.9)
		res.values["wire_bytes_per_op"] = ratio(float64(base.bytes), float64(base.requests()))
		res.values["peak_rss_mb"] = peakRSSMB()

		res.note("tenants %d, connections %d, seed %d; open loop %d req/s then closed loop, window %d per connection",
			inferTenants, inferConns, o.seed, inferRate, inferWindow)
		res.note("setup_s %.4f s (median of %d)", res.values["setup_s"], len(base.setups))
		n, width := windows(o.measureTime() / 2)
		res.note("infer_ms_p50 %.3f ms open loop (median of %d windows of %v; pooled over n=%d: %.3f ms; failed count as over %v)",
			base.openPercentile(0.5), n, width, len(lat), percentile(lat, 0.5), inferLimit)
		res.note("infer_ms_p90 %.3f ms open loop (pooled %.3f ms, %d samples beyond)", base.openPercentile(0.9), percentile(lat, 0.9), tailSamples(len(lat), 0.9))
		res.note("closed_loop_ms_p50 %.3f ms, p90 %.3f ms (median of %d windows, every %dth request)",
			res.values["latency_ms_p50"], res.values["latency_ms_p90"], n, latSample)
		res.note("infer_req_per_s %.1f req/s closed loop (median of %d windows)", res.values["throughput_per_s"], n)
		res.note("failed_ratio %d/%d", res.failed, res.attempted)
		res.note("loadgen_lag_ms_p99 %.3f ms", percentile(base.lags(), 0.99))
		res.note("batches %d for %d admitted requests, %d rejected", base.stats.Batches, base.stats.Requests, base.stats.Rejected)
		res.note("peak_rss_mb %.1f MB", res.values["peak_rss_mb"])
		return res, nil
	}

	tr := newTracer("serve")
	prof := &cpuProfile{}
	traced, err := measureInfer(o.seed, o.measureTime(), tr, prof)
	if err != nil {
		return nil, err
	}
	sum, err := prof.analyze()
	if err != nil {
		return nil, err
	}
	res := newResult(perLayer)
	res.attempted = base.requests() + traced.requests()
	res.failed = base.failed() + traced.failed()
	res.check(base.check())
	res.check(traced.check())
	ops := float64(traced.requests())
	res.layers(sum, tr, ops)
	res.runtimeFigures(base.rt, float64(base.requests()))
	res.values["dataset.synth_s"] = median(seconds(traced.synth))
	res.values["models.init_s"] = median(seconds(traced.init))
	res.values["serve.batch_rows_mean"] = ratio(float64(inferRows*traced.stats.Requests), float64(traced.stats.Batches))
	res.values["serve.rejected_share"] = ratio(float64(traced.stats.Rejected), ops)
	res.values["serve.open_loop_ms_p50"] = base.openPercentile(0.5)
	res.values["serve.open_loop_ms_p90"] = base.openPercentile(0.9)
	res.values["loadgen.lag_ms_p99"] = percentile(base.lags(), 0.99)
	res.values["bench.trace_overhead_share"] = ratio(base.reqPerSecond(), traced.reqPerSecond()) - 1
	res.note("traced %d requests, untraced %d; every answer matched the local back half bit for bit", traced.requests(), base.requests())
	res.noteLabels(sum, ops)
	return res, nil
}

// layers fills the metrics read from the traced run's probes and CPU
// profile, per operation.
func (r *result) layers(sum *profileSummary, tr *tracer, ops float64) {
	for _, n := range []string{"front_fwd", "front_bwd", "back_fwd", "back_bwd", "opt_step", "loss"} {
		r.values["nn."+n+".cpu_ms"] = sum.byLabel[n] / ops
		r.values["nn."+n+".wall_ms"] = ms(tr.wall(n)) / ops
	}
	r.values["kernels.cpu_ms"] = sum.byPackage["medsplit/internal/tensor/kernels"] / ops
	r.values["tensor.cpu_ms"] = sum.byPackage["medsplit/internal/tensor"] / ops
	r.values["simnet.cpu_ms"] = sum.byPackage["medsplit/internal/simnet"] / ops
	r.values["core.self.cpu_ms"] = sum.byLabel["core"] / ops
	r.values["serve.self.cpu_ms"] = sum.byLabel["serve"] / ops
	r.values["wire.encode.cpu_ms"] = sum.byLabel["wire_encode"] / ops
	r.values["wire.decode.cpu_ms"] = sum.byLabel["wire_decode"] / ops
	r.values["transport.server_recv_wait_ms"] = ms(tr.wall("transport_server_recv")) / ops
	r.values["transport.platform_recv_wait_ms"] = ms(tr.wall("transport_platform_recv")) / ops
	r.values["transport.send_wall_ms"] = ms(tr.wall("transport_send")) / ops
	r.values["transport.msgs"] = float64(tr.calls("transport_send")) / ops
}

// runtimeFigures fills the runtime/metrics figures of the untraced
// measurement, per operation.
func (r *result) runtimeFigures(rt rtTotals, ops float64) {
	r.values["runtime.gc_cpu_ms"] = rt.gcCPU * 1000 / ops
	r.values["runtime.sched_wait_ms_p90"] = histPercentile(rt.buckets, rt.schedCount, 0.9) * 1000
	r.values["runtime.alloc_bytes"] = rt.allocBytes / ops
	r.values["runtime.allocs"] = rt.allocs / ops
}

// noteLabels lists CPU per label value, per operation, largest first.
func (r *result) noteLabels(sum *profileSummary, ops float64) {
	type kv struct {
		k string
		v float64
	}
	var all []kv
	for k, v := range sum.byLabel {
		all = append(all, kv{k, v})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v > all[j].v })
	var b strings.Builder
	for _, e := range all {
		fmt.Fprintf(&b, " %s=%.3f", e.k, e.v/ops)
	}
	r.note("cpu_ms_per_op by label:%s", b.String())
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
