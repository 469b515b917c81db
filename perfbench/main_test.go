package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestResultWritesEveryMetricAsLastLine(t *testing.T) {
	defs := []metricDef{{"a_ms", "ms"}, {"b", "count"}}
	r := newResult(defs)
	r.attempted = 7
	r.values["a_ms"] = 1.25
	r.note("hello %d", 1)
	var buf bytes.Buffer
	if err := r.write(&buf, "w"); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 || lines[0] != "w  hello 1" {
		t.Fatalf("output %q", buf.String())
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[1]), &raw); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range raw {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if strings.Join(keys, ",") != "attempted,correct,failed,metrics" {
		t.Errorf("keys %v", keys)
	}
	var out jsonResult
	if err := json.Unmarshal([]byte(lines[1]), &out); err != nil {
		t.Fatal(err)
	}
	if !out.Correct || out.Attempted != 7 || out.Failed != 0 || len(out.Metrics) != 2 {
		t.Errorf("result %+v", out)
	}
	if m := out.Metrics["a_ms"]; m.Value != 1.25 || m.Unit != "ms" {
		t.Errorf("a_ms = %+v", m)
	}
	if m := out.Metrics["b"]; m.Value != 0 || m.Unit != "count" {
		t.Errorf("unset metric b = %+v, want 0 count", m)
	}

	r.check(errTest)
	buf.Reset()
	if err := r.write(&buf, "w"); err != nil || !strings.Contains(buf.String(), `"correct":false`) {
		t.Errorf("failed check: %q, %v", buf.String(), err)
	}
	r.values["b"] = math.Inf(1)
	if err := r.write(&buf, "w"); err == nil {
		t.Error("an infinite metric was written")
	}
	empty := newResult(defs)
	if err := empty.write(&buf, "w"); err == nil {
		t.Error("a result with nothing attempted was written")
	}
}

var errTest = os.ErrInvalid

// BENCHMARK.json at the repository root must describe what this
// program prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	want := []string{inferWorkload}
	for n := range splitWorkloads {
		want = append(want, n)
	}
	sort.Strings(names)
	sort.Strings(want)
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Errorf("workloads %v, program runs %v", names, want)
	}
	same := func(kind string, got []struct{ Name, Unit string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: %d metrics listed, program prints %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: listed %s %s, program prints %s %s", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

func TestRequestPickIsDeterministicAndInRange(t *testing.T) {
	seen := map[[2]int]bool{}
	for seq := 0; seq < 4000; seq++ {
		tn, e := pick(11, phaseOpen, 1, seq)
		if tn2, e2 := pick(11, phaseOpen, 1, seq); tn2 != tn || e2 != e {
			t.Fatal("pick is not a function of its arguments")
		}
		if tn < 0 || tn >= inferTenants || e < 0 || e >= inferPool {
			t.Fatalf("pick out of range: tenant %d entry %d", tn, e)
		}
		seen[[2]int{tn, e}] = true
	}
	if len(seen) < inferTenants*inferPool*9/10 {
		t.Errorf("4000 picks reached only %d of %d requests", len(seen), inferTenants*inferPool)
	}
}

func TestPoissonOffsets(t *testing.T) {
	offs := poissonOffsets(rand.New(rand.NewPCG(1, 2)), 5000, 2*time.Second)
	if n := len(offs); n < 9500 || n > 10500 {
		t.Errorf("%d arrivals in 2 s at 5000/s", n)
	}
	for i := 1; i < len(offs); i++ {
		if offs[i] < offs[i-1] {
			t.Fatal("arrivals out of order")
		}
	}
	if offs[len(offs)-1] >= 2*time.Second {
		t.Error("arrival beyond the span")
	}
}

// A fraction of a second of the inference load, to exercise the
// sender, receiver and phase bookkeeping under the race detector. It
// must answer every request correctly and stop every goroutine it
// started.
func TestShortInferRun(t *testing.T) {
	before := runtime.NumGoroutine()
	run, err := measureInfer(4, 200*time.Millisecond, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := run.check(); err != nil {
		t.Fatal(err)
	}
	if run.requests() == 0 || len(run.latencies()) == 0 || run.reqPerSecond() <= 0 {
		t.Errorf("requests %d, latencies %d, req/s %v", run.requests(), len(run.latencies()), run.reqPerSecond())
	}
	if len(run.setups) != inferSetups {
		t.Errorf("%d set-ups timed, want %d", len(run.setups), inferSetups)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines left running, %d before", n, before)
	}
}
