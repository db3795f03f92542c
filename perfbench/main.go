// Command perfbench is zombiescope's end-to-end benchmark. It builds its
// inputs from a seed, runs one workload against the real program
// packages, checks every output against a reference, and prints the
// metrics named in BENCHMARK.json at the repository root.
//
//	bash perfbench/run.sh --workload batch-report --seed 1 --seconds 30 --trace 0
//
// Workloads:
//
//   - batch-report: zombiehunt -lifespans -detect all over the
//     paper-length author archive on disk, closed loop.
//   - live-fanout: the merged scale-4 update stream fed through
//     livefeed.Pipeline.Ingest to 1,000 in-process subscribers and 2
//     loopback wire clients: open loop at a reference rate, closed loop
//     for the capacity, and open loop over a ladder of offered rates.
//   - journal-restart: the same stream replayed closed loop into a
//     journaled broker with a midpoint FromStart wire client, then a
//     store reopen plus Pipeline.Recover (zombied's warm restart).
//
// With --trace 0 the last stdout line carries the end-to-end metrics;
// with --trace 1 it carries the per-layer metrics, from spans the
// benchmark records around its own calls into each layer, and a Chrome
// trace is written under .bench_build/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// config is one benchmark invocation.
type config struct {
	root     string // checkout root; scratch files go under root/.bench_build
	workload string
	seed     uint64
	seconds  float64
	trace    bool

	// The smoke test shrinks these; a benchmark run uses main's values.
	batchScale  int   // author-scenario scale divisor of batch-report (1 = paper length)
	liveScale   int   // author-scenario scale divisor of the live stream
	subscribers int   // in-process broker subscribers of live-fanout
	setupReps   int   // set-ups per run; setup_s is their median
	segBytes    int64 // event-store segment size of journal-restart

	out io.Writer // human-readable report lines
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run.
type result struct {
	attempted int
	failed    int
	// mismatches describes failed correctness gates; any entry fails
	// the run.
	mismatches []string
	e2e        map[string]metric
	layers     map[string]metric
}

func newResult() *result {
	return &result{e2e: map[string]metric{}, layers: map[string]metric{}}
}

// fail records a failed operation with its reason.
func (r *result) fail(format string, args ...any) {
	r.failed++
	r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
}

func (r *result) setLayer(name string, v float64) {
	u, ok := layerUnit[name]
	if !ok {
		panic("perfbench: unknown per-layer metric " + name)
	}
	r.layers[name] = metric{Value: v, Unit: u}
}

func (r *result) setE2E(name string, v float64) {
	u, ok := e2eUnit[name]
	if !ok {
		panic("perfbench: unknown end-to-end metric " + name)
	}
	r.e2e[name] = metric{Value: v, Unit: u}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg *config, t *tracer) (*result, error){
	"batch-report":    runBatch,
	"live-fanout":     runLive,
	"journal-restart": runJournal,
}

func main() {
	cfg := &config{
		root:        ".",
		batchScale:  1,
		liveScale:   4,
		subscribers: 1000,
		setupReps:   3,
		segBytes:    2 << 20,
		out:         os.Stdout,
	}
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: batch-report | live-fanout | journal-restart")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed (scenario generation and subscriber filters)")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced per-layer run instead of the end-to-end run")
	flag.Parse()
	cfg.trace = traceFlag != 0

	res, err := run(cfg)
	if err == nil {
		err = emit(os.Stdout, cfg, res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if len(res.mismatches) > 0 {
		os.Exit(1)
	}
}

// run executes one workload in a private scratch directory.
func run(cfg *config) (*result, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want batch-report, live-fanout or journal-restart)", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	var t *tracer
	if cfg.trace {
		t = newTracer()
	}
	res, err := fn(cfg, t)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if t != nil {
		fmt.Fprintln(cfg.out, "\nspans (benchmark call boundaries):")
		t.printSelfTable(cfg.out)
		dir := filepath.Join(cfg.root, ".bench_build")
		path := filepath.Join(dir, fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if err := t.writeChrome(path); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintf(cfg.out, "chrome trace: %s\n", path)
	}
	return res, nil
}

// workDir makes a fresh scratch directory for this run under
// <root>/.bench_build; the caller removes it.
func workDir(cfg *config) (string, error) {
	base := filepath.Join(cfg.root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "work-"+cfg.workload+"-")
}

// emit prints the environment stamp, the mismatches, and the final
// result line.
func emit(w io.Writer, cfg *config, res *result) error {
	want, have := e2eUnit, res.e2e
	if cfg.trace {
		want, have = layerUnit, res.layers
	}
	for name := range want {
		if _, ok := have[name]; !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
	}
	metrics := make(map[string]metric, len(want))
	for name := range want {
		metrics[name] = have[name]
	}
	stamp, _ := json.Marshal(envStamp(cfg))
	fmt.Fprintf(w, "env %s\n", stamp)
	for _, m := range res.mismatches {
		fmt.Fprintf(w, "MISMATCH %s\n", m)
	}
	failedFrac := ratio(float64(res.failed), float64(res.attempted))
	fmt.Fprintf(w, "%-26s %14.6g %s\n", "failed_frac", failedFrac, "ratio")
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(res.mismatches) == 0, res.attempted, res.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// envStamp identifies the machine and inputs a result was measured on.
func envStamp(cfg *config) map[string]any {
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// cpuModel reads the CPU model name from /proc/cpuinfo ("" elsewhere).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// printMetric prints one named metric line of the human report.
func printMetric(w io.Writer, name string, v float64, unit string) {
	fmt.Fprintf(w, "%-26s %14.6g %s\n", name, v, unit)
}
