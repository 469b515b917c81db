// Command perfbench is medsplit's end-to-end benchmark: split training
// over loopback TCP and over the simulated geo-WAN, and split inference
// against the serving tier. It drives the system only through its
// public functions, checks the outputs, and prints its figures; the
// last line of standard output is one JSON object.
//
// Run it from the repository root through the launcher, which builds
// this package first:
//
//	bash perfbench/run.sh --workload split-vgg-tcp --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with nothing installed in
// the program. --trace 1 measures once untraced and once with every
// engine interface wrapped and pprof-labelled, checks that both train
// the same weights, and prints the per-layer metrics. See README.md for
// the workloads and the layer-to-metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"medsplit/internal/experiment"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, measured with
// nothing installed in the program. Each has a meaning on every
// workload: an "op" is a training round on the split-* workloads and a
// request on infer-mlp-tcp.
var endToEnd = []metricDef{
	{"setup_s", "s"},            // median set-up: data synthesis + model init + connect
	{"throughput_per_s", "1/s"}, // steady-state samples/s (split-*), closed-loop req/s (infer)
	{"latency_ms_p50", "ms"},    // round interval at platform 0 (split-*), closed-loop request latency (infer)
	{"latency_ms_p90", "ms"},
	{"wire_bytes_per_op", "bytes"}, // bytes on all links per round (split-*) or per request (infer)
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's per-layer metrics. "/op" is per
// training round or per request; a layer a workload never reaches
// reads 0.
var perLayer = []metricDef{
	{"dataset.synth_s", "s"},
	{"models.init_s", "s"},
	{"nn.front_fwd.cpu_ms", "ms/op"}, {"nn.front_fwd.wall_ms", "ms/op"},
	{"nn.front_bwd.cpu_ms", "ms/op"}, {"nn.front_bwd.wall_ms", "ms/op"},
	{"nn.back_fwd.cpu_ms", "ms/op"}, {"nn.back_fwd.wall_ms", "ms/op"},
	{"nn.back_bwd.cpu_ms", "ms/op"}, {"nn.back_bwd.wall_ms", "ms/op"},
	{"nn.opt_step.cpu_ms", "ms/op"}, {"nn.opt_step.wall_ms", "ms/op"},
	{"nn.loss.cpu_ms", "ms/op"}, {"nn.loss.wall_ms", "ms/op"},
	{"kernels.cpu_ms", "ms/op"},
	{"tensor.cpu_ms", "ms/op"},
	{"core.self.cpu_ms", "ms/op"},
	{"transport.server_recv_wait_ms", "ms/op"},
	{"transport.platform_recv_wait_ms", "ms/op"},
	{"transport.send_wall_ms", "ms/op"},
	{"transport.msgs", "count/op"},
	{"wire.encode.cpu_ms", "ms/op"},
	{"wire.decode.cpu_ms", "ms/op"},
	{"wire.bytes.activations", "bytes/op"},
	{"wire.bytes.logits", "bytes/op"},
	{"wire.bytes.loss_grad", "bytes/op"},
	{"wire.bytes.cut_grad", "bytes/op"},
	{"simnet.cpu_ms", "ms/op"},
	{"simnet.sim_round_ms", "ms"},
	{"serve.batch_rows_mean", "rows"},
	{"serve.rejected_share", "fraction"},
	{"serve.self.cpu_ms", "ms/op"},
	{"serve.open_loop_ms_p50", "ms"},
	{"serve.open_loop_ms_p90", "ms"},
	{"runtime.gc_cpu_ms", "ms/op"},
	{"runtime.sched_wait_ms_p90", "ms"},
	{"runtime.alloc_bytes", "bytes/op"},
	{"runtime.allocs", "count/op"},
	{"loadgen.lag_ms_p99", "ms"},
	{"bench.trace_overhead_share", "fraction"},
	{"split.final_acc", "fraction"},
}

// Workloads. Their names are fixed: later changes cite them.
var splitWorkloads = map[string]splitSpec{
	// The paper's protocol on real sockets; conv compute dominates.
	"split-vgg-tcp": {
		cfg: experiment.Config{
			Arch: experiment.ArchVGG, Classes: 10, Width: 8,
			TrainSamples: 800, TestSamples: 200, Noise: 0.6,
			Platforms: 2, Rounds: 30, TotalBatch: 64, LR: 0.05,
			Sharding: experiment.ShardingIID,
		},
		tcp: true,
	},
	// 25 clinics over the simulated WAN; small batches, weight-sized
	// passes and many exchanges dominate.
	"split-mlp-geo25": {
		cfg: experiment.Config{
			Arch: experiment.ArchMLP, Classes: 10,
			TrainSamples: 800, TestSamples: 200, Noise: 0.6,
			Platforms: 25, Rounds: 60, TotalBatch: 100, LR: 0.05,
			Sharding: experiment.ShardingIID,
		},
	},
}

const inferWorkload = "infer-mlp-tcp"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "split-vgg-tcp, split-mlp-geo25 or infer-mlp-tcp")
	seed := fs.Uint64("seed", 1, "workload seed: data, weights and arrival schedule (hold-out seed: 1009)")
	seconds := fs.Float64("seconds", 25, "how long the run measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	// One process, at most two cores, whatever the machine has.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	o := options{seed: *seed, budget: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1}
	var res *result
	var err error
	if spec, ok := splitWorkloads[*workload]; ok {
		res, err = runSplit(spec, o)
	} else if *workload == inferWorkload {
		res, err = runInfer(o)
	} else {
		err = fmt.Errorf("unknown workload %q", *workload)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if err := res.write(stdout, *workload); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	for _, p := range res.problems {
		fmt.Fprintf(stderr, "perfbench: %s: output check failed: %v\n", *workload, p)
	}
	if !res.correct() {
		return 1
	}
	return 0
}

type options struct {
	seed   uint64
	budget time.Duration
	trace  bool
}

// measureTime is one measurement's share of the run: all of it, or
// half each for the untraced and the traced measurement of --trace 1,
// so both kinds of run take about --seconds.
func (o options) measureTime() time.Duration {
	if o.trace {
		return o.budget / 2
	}
	return o.budget
}

// result is what one invocation prints.
type result struct {
	attempted, failed int64
	problems          []error // failed output checks
	defs              []metricDef
	values            map[string]float64
	notes             []string // human-readable lines printed before the JSON
}

func newResult(defs []metricDef) *result {
	return &result{defs: defs, values: map[string]float64{}}
}

func (r *result) correct() bool { return len(r.problems) == 0 }

func (r *result) check(err error) {
	if err != nil {
		r.problems = append(r.problems, err)
	}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// write prints the notes, then every metric of r.defs as one JSON
// line. A metric the run did not set reads 0; a non-finite one is an
// error.
func (r *result) write(w io.Writer, workload string) error {
	out := jsonResult{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, d := range r.defs {
		v := r.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		out.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "%s  %s\n", workload, n)
	}
	if r.attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
