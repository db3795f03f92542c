package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// benchmarkFile is the subset of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesCode pins BENCHMARK.json to the workloads and
// metrics the command actually measures.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", names, want)
	}
	check := func(kind string, listed []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, units map[string]string) {
		if len(listed) != len(units) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, command emits %d", kind, len(listed), len(units))
		}
		for _, m := range listed {
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s metric %s (%s): command emits unit %q", kind, m.Name, m.Unit, u)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, e2eUnit)
	check("per_layer", bf.PerLayer, layerUnit)
}

// TestSmokeAllWorkloads runs every workload at a tiny scale, untraced and
// traced, and checks that the run passes its correctness gates and emits
// every named metric with its unit.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			cfg := &config{
				root: t.TempDir(), workload: name, seed: 7, seconds: 0.2, trace: traced,
				batchScale: 64, liveScale: 64, subscribers: 40, setupReps: 2, segBytes: 64 << 10,
				out: &out,
			}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", name, traced, err)
			}
			if err := emit(&out, cfg, res); err != nil {
				t.Fatalf("%s trace=%t: %v", name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var got struct {
				Correct   bool              `json:"correct"`
				Attempted int               `json:"attempted"`
				Failed    int               `json:"failed"`
				Metrics   map[string]metric `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
				t.Fatalf("%s trace=%t: last line is not the result: %v", name, traced, err)
			}
			// A correct live-fanout run may still count failures: drop-oldest
			// loss on its saturated and ladder rungs, above the program's
			// capacity. Every other failure fails the run.
			lossOK := name == "live-fanout" && got.Failed <= got.Attempted
			if !got.Correct || (got.Failed != 0 && !lossOK) || got.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d\n%s",
					name, traced, got.Correct, got.Attempted, got.Failed, out.String())
			}
			want := e2eUnit
			if traced {
				want = layerUnit
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, want %d", name, traced, len(got.Metrics), len(want))
			}
			for m, unit := range want {
				v, ok := got.Metrics[m]
				if !ok || v.Unit != unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %s", name, traced, m, v, unit)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m, v.Value)
				}
			}
		}
	}
}
