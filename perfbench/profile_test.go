package main

import (
	"math"
	"strings"
	"testing"
)

// Output of `go tool pprof -tags -unit=ms` on a profile with two label
// keys.
const tagsOut = ` layer: Total 2370.0ms
        1500.0ms (63.29%): front_fwd
         860.0ms (36.29%): core
          10.0ms ( 0.42%): transport

 tenant: Total 40.0ms
          40.0ms (  100%): tenant-0
`

func TestParseTags(t *testing.T) {
	got, err := parseTags(tagsOut, "layer")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"front_fwd": 1500, "core": 860, "transport": 10}
	if len(got) != len(want) {
		t.Fatalf("parseTags = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v ms, want %v", k, got[k], v)
		}
	}
	other, err := parseTags(tagsOut, "tenant")
	if err != nil || other["tenant-0"] != 40 || len(other) != 1 {
		t.Errorf("tenant key = %v, %v", other, err)
	}
	none, err := parseTags("", "layer")
	if err != nil || len(none) != 0 {
		t.Errorf("empty output = %v, %v", none, err)
	}
	if _, err := parseTags(" layer: Total 1.2s\n      1.2s (100%): core\n", "layer"); err == nil {
		t.Error("a value not in ms was accepted")
	}
}

// Output of `go tool pprof -top -unit=ms` (trimmed).
const topOut = `File: perfbench
Build ID: 9870fca5fc059535e8be7709e3a630f0dc490733
Type: cpu
Time: 2026-10-17 05:57:58 UTC
Duration: 3.32s, Total samples = 2970ms (89.54%)
Showing nodes accounting for 2970ms, 100% of 2970ms total
      flat  flat%   sum%        cum   cum%
    1200ms 40.40% 40.40%     1200ms 40.40%  medsplit/internal/tensor/kernels.gemmPanelAVX2
     800ms 26.94% 67.34%     2100ms 70.71%  medsplit/internal/tensor.gemmNN.func1
     300ms 10.10% 77.44%      300ms 10.10%  medsplit/internal/tensor.(*Tensor).Zero (inline)
     650ms 21.89% 99.33%      650ms 21.89%  runtime.memmove
      20ms  0.67%   100%       20ms  0.67%  main.(*probe).do
         0     0%   100%     2970ms   100%  runtime.goexit
`

func TestParseTop(t *testing.T) {
	got, err := parseTop(topOut)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"medsplit/internal/tensor/kernels": 1200,
		"medsplit/internal/tensor":         1100,
		"runtime":                          650,
		"main":                             20,
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("%s = %v ms, want %v", k, got[k], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("parseTop = %v, want %v", got, want)
	}
	if _, err := parseTop("File: x\n"); err == nil {
		t.Error("output without a table was accepted")
	}
	bad := topOut + "garbage row\n"
	if _, err := parseTop(bad); err == nil || !strings.Contains(err.Error(), "garbage") {
		t.Errorf("malformed row: err = %v", err)
	}
}

func TestFuncPackage(t *testing.T) {
	cases := map[string]string{
		"medsplit/internal/tensor.(*Tensor).Data":          "medsplit/internal/tensor",
		"medsplit/internal/tensor/kernels.gemmPanelAVX2":   "medsplit/internal/tensor/kernels",
		"medsplit/internal/core.(*Server).seqExchange":     "medsplit/internal/core",
		"runtime.nanotime (inline)":                        "runtime",
		"main.spin":                                        "main",
		"internal/runtime/syscall.Syscall6":                "internal/runtime/syscall",
		"medsplit/internal/simnet.(*endpoint).Send.func1":  "medsplit/internal/simnet",
		"slices.SortFunc[go.shape.[]int,go.shape.int]":     "slices",
		"gopkg.in/x.v2/sub.F":                              "gopkg.in/x.v2/sub",
		"medsplit/internal/nn.(*Dense).Forward.deferwrap1": "medsplit/internal/nn",
	}
	for in, want := range cases {
		if got := funcPackage(in); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestParseMs(t *testing.T) {
	for in, want := range map[string]float64{"0": 0, "12.5ms": 12.5, "2970ms": 2970} {
		if got, err := parseMs(in); err != nil || got != want {
			t.Errorf("parseMs(%q) = %v, %v", in, got, err)
		}
	}
	for _, in := range []string{"1.2s", "", "ms"} {
		if _, err := parseMs(in); err == nil {
			t.Errorf("parseMs(%q) accepted", in)
		}
	}
}
