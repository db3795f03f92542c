// Package benchstat parses `go test -bench -benchmem` output and compares
// per-sub-benchmark medians against a committed JSON baseline. It backs the
// benchcheck CI gate (cmd/benchcheck).
package benchstat

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Metric is one sub-benchmark's recorded cost.
type Metric struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Baseline is the committed regression fence (e.g. BENCH_detect.json).
// Baseline.Baseline maps sub-benchmark names (the part after the first
// "/", e.g. "workers=0") to their fenced medians.
type Baseline struct {
	Benchmark string `json:"benchmark"`
	CPU       string `json:"cpu"`
	// NumCPU records how many cores the baseline machine exposed. Core
	// count shifts parallel benchmarks even when the cpu string matches
	// (container CPU quotas), so benchcheck reports — without failing —
	// when the checking machine differs. 0 means unrecorded.
	NumCPU       int               `json:"num_cpu,omitempty"`
	TolerancePct float64           `json:"tolerance_pct"`
	Baseline     map[string]Metric `json:"baseline"`
	// CheckBytes gates bytes_per_op with the same rules as allocs_per_op
	// (zero baseline = hard allocation-free fence, negative = opt-out).
	// Off by default: B/op medians shift with benchtime amortization on
	// benchmarks with one-time setup cost, so each baseline opts in only
	// when its recorded bytes are stable under the CI command line. It is
	// the fence of choice for zero-copy paths, where a reintroduced bulk
	// copy moves B/op by orders of magnitude but allocs/op barely at all.
	CheckBytes bool `json:"check_bytes,omitempty"`
	// Speedups are parallel-speedup ratio gates checked in addition to
	// the per-sub-benchmark medians.
	Speedups []SpeedupGate `json:"speedups,omitempty"`
}

// SpeedupGate fences a parallel-speedup ratio: median ns/op of Base
// divided by median ns/op of Fast must be at least MinRatio. Unlike a
// single median, the ratio compares two measurements from the same run
// on the same machine, so it holds across cpu models — but it is a
// property of the core count (workers=4 cannot beat workers=1 on one
// core), so the gate applies only when the running machine's CPU count
// equals NumCPU (default: the baseline's num_cpu) and is reported and
// skipped otherwise. A baseline may carry one gate per core count it
// has been calibrated on; foreign-count gates self-skip.
type SpeedupGate struct {
	Fast     string  `json:"fast"` // e.g. "workers=4"
	Base     string  `json:"base"` // e.g. "workers=1"
	MinRatio float64 `json:"min_ratio"`
	NumCPU   int     `json:"num_cpu,omitempty"`
}

// LoadBaseline reads and validates a baseline JSON file.
func LoadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if b.Benchmark == "" || len(b.Baseline) == 0 {
		return nil, fmt.Errorf("%s: missing benchmark name or baseline entries", path)
	}
	if b.TolerancePct <= 0 {
		b.TolerancePct = 20
	}
	for i, g := range b.Speedups {
		if g.Fast == "" || g.Base == "" || g.MinRatio <= 0 {
			return nil, fmt.Errorf("%s: speedups[%d] needs fast, base and a positive min_ratio", path, i)
		}
	}
	return &b, nil
}

// Run holds the parsed samples of one `go test -bench` invocation.
// Samples are grouped by full benchmark name with the GOMAXPROCS suffix
// stripped (BenchmarkPipelineDetect/workers=4-8 → BenchmarkPipelineDetect/workers=4).
type Run struct {
	CPU     string
	Samples map[string][]Metric
}

// ParseRun parses `go test -bench -benchmem` text output. Lines that are
// not benchmark results (PASS, ok, goos, ...) are ignored.
func ParseRun(r io.Reader) (*Run, error) {
	run := &Run{Samples: make(map[string][]Metric)}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "cpu:"); ok {
			run.CPU = strings.TrimSpace(rest)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		name := trimProcSuffix(fields[0])
		var m Metric
		var got bool
		// fields[1] is the iteration count; after that come value/unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q in line %q", fields[i], line)
			}
			switch fields[i+1] {
			case "ns/op":
				m.NsPerOp = v
				got = true
			case "B/op":
				m.BytesPerOp = v
				got = true
			case "allocs/op":
				m.AllocsPerOp = v
				got = true
			}
		}
		if got {
			run.Samples[name] = append(run.Samples[name], m)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(run.Samples) == 0 {
		return nil, fmt.Errorf("no benchmark result lines found")
	}
	return run, nil
}

// trimProcSuffix drops go test's -GOMAXPROCS suffix from a benchmark name.
func trimProcSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// Median returns the per-field median across samples. Fields are ranked
// independently, so the result need not correspond to a single run —
// that is the point: it discards one-off noise per metric.
func Median(samples []Metric) Metric {
	pick := func(get func(Metric) float64) float64 {
		vs := make([]float64, len(samples))
		for i, s := range samples {
			vs[i] = get(s)
		}
		sort.Float64s(vs)
		n := len(vs)
		if n%2 == 1 {
			return vs[n/2]
		}
		return (vs[n/2-1] + vs[n/2]) / 2
	}
	return Metric{
		NsPerOp:     pick(func(m Metric) float64 { return m.NsPerOp }),
		BytesPerOp:  pick(func(m Metric) float64 { return m.BytesPerOp }),
		AllocsPerOp: pick(func(m Metric) float64 { return m.AllocsPerOp }),
	}
}

// Options parameterizes Compare.
type Options struct {
	// ForceTime checks ns/op even when the run's cpu string does not
	// match the baseline's.
	ForceTime bool
	// NumCPU is the running machine's core count (runtime.NumCPU()),
	// used to decide which speedup gates apply. 0 skips every gate.
	NumCPU int
}

// fullName resolves a baseline key to the full benchmark name: keys are
// normally sub-benchmark names under base.Benchmark; a key that is
// itself a full "Benchmark..." name fences a top-level benchmark,
// letting one file cover a family of flat benchmarks.
func fullName(base *Baseline, sub string) string {
	if strings.HasPrefix(sub, "Benchmark") {
		return sub
	}
	return "Benchmark" + strings.TrimPrefix(base.Benchmark, "Benchmark") + "/" + sub
}

// Compare checks a parsed run against the baseline and renders a report.
// It returns ok=false when any fenced sub-benchmark is missing from the
// run or regresses beyond the tolerance, or a speedup gate is not met.
// ns/op is compared only when the run's cpu matches the baseline's (or
// opts.ForceTime is set); allocs/op is always compared, since allocation
// counts are machine-independent. Speedup gates compare the run against
// itself, so they do not need the cpu match — only the matching core
// count.
func Compare(base *Baseline, run *Run, opts Options) (report string, ok bool) {
	var sb strings.Builder
	ok = true
	checkTime := opts.ForceTime || (base.CPU != "" && run.CPU == base.CPU)
	if !checkTime {
		fmt.Fprintf(&sb, "benchcheck: cpu %q != baseline %q; checking allocs/op only\n", run.CPU, base.CPU)
	}

	subs := make([]string, 0, len(base.Baseline))
	for sub := range base.Baseline {
		subs = append(subs, sub)
	}
	sort.Strings(subs)

	for _, sub := range subs {
		want := base.Baseline[sub]
		full := fullName(base, sub)
		samples := run.Samples[full]
		if len(samples) == 0 {
			fmt.Fprintf(&sb, "FAIL %s: no samples in benchmark output\n", full)
			ok = false
			continue
		}
		med := Median(samples)
		ok = checkExact(&sb, full, "allocs/op", med.AllocsPerOp, want.AllocsPerOp, base.TolerancePct) && ok
		if base.CheckBytes {
			ok = checkExact(&sb, full, "B/op", med.BytesPerOp, want.BytesPerOp, base.TolerancePct) && ok
		}
		if checkTime {
			ok = check(&sb, full, "ns/op", med.NsPerOp, want.NsPerOp, base.TolerancePct) && ok
		}
	}

	for _, g := range base.Speedups {
		ok = checkSpeedup(&sb, base, run, g, opts.NumCPU) && ok
	}
	return sb.String(), ok
}

// checkSpeedup gates one parallel-speedup ratio, or skips it when the
// core counts do not line up.
func checkSpeedup(w io.Writer, base *Baseline, run *Run, g SpeedupGate, numCPU int) bool {
	gateCPU := g.NumCPU
	if gateCPU == 0 {
		gateCPU = base.NumCPU
	}
	name := fmt.Sprintf("speedup %s vs %s", fullName(base, g.Fast), fullName(base, g.Base))
	if gateCPU == 0 || numCPU == 0 || numCPU != gateCPU {
		fmt.Fprintf(w, "skip %s: gate calibrated for %d CPUs, running on %d\n", name, gateCPU, numCPU)
		return true
	}
	fast := run.Samples[fullName(base, g.Fast)]
	slow := run.Samples[fullName(base, g.Base)]
	if len(fast) == 0 || len(slow) == 0 {
		fmt.Fprintf(w, "FAIL %s: no samples in benchmark output\n", name)
		return false
	}
	fm, sm := Median(fast).NsPerOp, Median(slow).NsPerOp
	if fm <= 0 {
		fmt.Fprintf(w, "FAIL %s: non-positive ns/op median %v\n", name, fm)
		return false
	}
	ratio := sm / fm
	if ratio < g.MinRatio {
		fmt.Fprintf(w, "FAIL %s: %.2fx, want >= %.2fx (%d CPUs)\n", name, ratio, g.MinRatio, gateCPU)
		return false
	}
	fmt.Fprintf(w, "ok   %s: %.2fx (>= %.2fx, %d CPUs)\n", name, ratio, g.MinRatio, gateCPU)
	return true
}

// checkExact gates a metric compared on every machine (allocs/op, B/op).
// allocs/op is machine-independent; B/op can move with the core count
// (GOMAXPROCS-sized runtime and pipeline state), so a B/op fence holds
// on the core count its baseline records.
// Unlike ns/op, a zero baseline is a real fence — "this path is
// allocation-free" — so want == 0 fails on any nonzero value instead of
// skipping. A negative want opts the field out.
func checkExact(w io.Writer, name, unit string, got, want, tolPct float64) bool {
	if want < 0 {
		return true
	}
	if want == 0 {
		if got > 0 {
			fmt.Fprintf(w, "FAIL %s: %s %.0f vs baseline 0 (allocation-free fence)\n", name, unit, got)
			return false
		}
		fmt.Fprintf(w, "ok   %s: %s 0 (allocation-free)\n", name, unit)
		return true
	}
	return check(w, name, unit, got, want, tolPct)
}

func check(w io.Writer, name, unit string, got, want, tolPct float64) bool {
	if want <= 0 {
		return true
	}
	deltaPct := (got - want) / want * 100
	if got > want*(1+tolPct/100) {
		fmt.Fprintf(w, "FAIL %s: %s %.0f vs baseline %.0f (%+.1f%%, tolerance %.0f%%)\n",
			name, unit, got, want, deltaPct, tolPct)
		return false
	}
	fmt.Fprintf(w, "ok   %s: %s %.0f vs baseline %.0f (%+.1f%%)\n", name, unit, got, want, deltaPct)
	return true
}
