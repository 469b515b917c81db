package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime/pprof"
	"strconv"
	"strings"
)

// cpuProfile records the measured intervals of a traced run, one
// profile file per interval (so set-up work never enters it), and
// reads them back merged through `go tool pprof`.
type cpuProfile struct {
	files []string
	cur   *os.File
}

func (c *cpuProfile) start() error {
	if err := os.MkdirAll(profileDir, 0o755); err != nil {
		return fmt.Errorf("profile dir: %w", err)
	}
	f, err := os.CreateTemp(profileDir, "cpu-*.pprof")
	if err != nil {
		return fmt.Errorf("profile file: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		os.Remove(f.Name())
		return fmt.Errorf("start cpu profile: %w", err)
	}
	c.cur = f
	c.files = append(c.files, f.Name())
	return nil
}

func (c *cpuProfile) stop() error {
	pprof.StopCPUProfile()
	err := c.cur.Close()
	c.cur = nil
	return err
}

// profileSummary is what the benchmark reads from the merged profile:
// CPU milliseconds per value of the layer label (what `pprof -tags`
// prints; unlabelled samples are not listed), and flat CPU
// milliseconds per Go package (the leaf frame's package, summed from
// `pprof -top`).
type profileSummary struct {
	byLabel   map[string]float64
	byPackage map[string]float64
}

// analyze runs go tool pprof over the recorded files, then deletes
// them.
func (c *cpuProfile) analyze() (*profileSummary, error) {
	defer func() {
		for _, f := range c.files {
			os.Remove(f)
		}
		c.files = nil
	}()
	if len(c.files) == 0 {
		return nil, fmt.Errorf("no cpu profile recorded")
	}
	tags, err := runPprof(append([]string{"-tags", "-unit=ms"}, c.files...))
	if err != nil {
		return nil, err
	}
	top, err := runPprof(append([]string{"-top", "-unit=ms", "-nodecount=1000000", "-nodefraction=0", "-edgefraction=0"}, c.files...))
	if err != nil {
		return nil, err
	}
	s := &profileSummary{}
	if s.byLabel, err = parseTags(tags, labelKey); err != nil {
		return nil, err
	}
	if s.byPackage, err = parseTop(top); err != nil {
		return nil, err
	}
	return s, nil
}

func runPprof(args []string) (string, error) {
	cmd := exec.Command("go", append([]string{"tool", "pprof"}, args...)...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go tool pprof %s: %w: %s", args[0], err, stderr.String())
	}
	return string(out), nil
}

var (
	tagsHeader = regexp.MustCompile(`^\s*(\S+): Total (\S+)$`)
	tagsValue  = regexp.MustCompile(`^\s*(\S+) \(\s*[0-9.]+%\): (.*)$`)
	topRow     = regexp.MustCompile(`^\s*(\S+)\s+[0-9.]+%\s+[0-9.]+%\s+(\S+)\s+[0-9.]+%\s+(.+)$`)
)

// parseTags reads `go tool pprof -tags -unit=ms` output and returns
// the per-value totals of label key, in milliseconds. A profile with
// no sample carrying key yields an empty map.
func parseTags(out, key string) (map[string]float64, error) {
	vals := map[string]float64{}
	inKey := false
	for _, line := range strings.Split(out, "\n") {
		if m := tagsHeader.FindStringSubmatch(line); m != nil {
			inKey = m[1] == key
			continue
		}
		m := tagsValue.FindStringSubmatch(line)
		if m == nil || !inKey {
			continue
		}
		v, err := parseMs(m[1])
		if err != nil {
			return nil, fmt.Errorf("pprof -tags line %q: %w", line, err)
		}
		vals[strings.TrimSpace(m[2])] += v
	}
	return vals, nil
}

// parseTop reads `go tool pprof -top -unit=ms` output and sums each
// function's flat time into its package, in milliseconds.
func parseTop(out string) (map[string]float64, error) {
	pkgs := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(out))
	header := false
	for sc.Scan() {
		line := sc.Text()
		if !header {
			header = strings.Contains(line, "flat%") && strings.Contains(line, "cum%")
			continue
		}
		m := topRow.FindStringSubmatch(line)
		if m == nil {
			return nil, fmt.Errorf("pprof -top row %q not understood", line)
		}
		v, err := parseMs(m[1])
		if err != nil {
			return nil, fmt.Errorf("pprof -top row %q: %w", line, err)
		}
		pkgs[funcPackage(m[3])] += v
	}
	if !header {
		return nil, fmt.Errorf("pprof -top output has no table header")
	}
	return pkgs, nil
}

// parseMs reads a pprof value printed with -unit=ms ("0", "12.5ms").
func parseMs(s string) (float64, error) {
	if s == "0" {
		return 0, nil
	}
	num, ok := strings.CutSuffix(s, "ms")
	if !ok {
		return 0, fmt.Errorf("value %q is not in ms", s)
	}
	return strconv.ParseFloat(num, 64)
}

// funcPackage returns the import path of the package a symbol from a
// profile belongs to: "medsplit/internal/tensor.(*Tensor).Data" →
// "medsplit/internal/tensor". The " (inline)" marker pprof appends is
// ignored.
func funcPackage(fn string) string {
	fn = strings.TrimSuffix(fn, " (inline)")
	dir, base := "", fn
	if i := strings.LastIndex(fn, "/"); i >= 0 {
		dir, base = fn[:i+1], fn[i+1:]
	}
	if i := strings.Index(base, "."); i >= 0 {
		base = base[:i]
	}
	return dir + base
}

// profileDir is where traced runs keep their profiles while they are
// read, relative to the repository root the benchmark runs from.
const profileDir = ".bench_build/profiles"
