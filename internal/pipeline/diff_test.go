// Differential test harness: the multi-worker pipeline must be
// observationally identical to the one-worker path of parallelism 0.
// Randomized netsim scenarios (internal/difftest) — session resets,
// withdrawals, zombie faults — are built and detected at several
// parallelism levels and the results compared with deep equality. The
// parallelism-0 results are compared against the test-only oracles
// (reference store, row sweep, sequential lifespan scan) in
// internal/zombie, where the oracles live.
package pipeline_test

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"zombiescope/internal/difftest"
	"zombiescope/internal/mrt"
	"zombiescope/internal/zombie"
)

// diffParallelism is the set of worker counts the harness checks against
// the parallelism-0 output.
var diffParallelism = []int{1, 2, 8}

// genScenario generates the campaign of seed.
func genScenario(t *testing.T, seed uint64) *difftest.Scenario {
	t.Helper()
	sc, err := difftest.Generate(seed)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestParallelMatchesSequential is the differential harness: randomized
// scenarios, every parallelism level, deep equality on every report
// against the parallelism-0 results. Those results are in turn pinned to
// the test-only oracles (reference store, row sweep, sequential lifespan
// scan) by TestOraclesMatchSequential in internal/zombie, at the same 50
// seeds.
func TestParallelMatchesSequential(t *testing.T) {
	const scenarios = 50
	thresholds := []time.Duration{30 * time.Minute, 90 * time.Minute, 3 * time.Hour}
	for seed := uint64(1); seed <= scenarios; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			sc := genScenario(t, seed)
			track := zombie.NewTrackSet(sc.Prefixes())

			seqHist, err := zombie.BuildHistory(sc.Updates, track)
			if err != nil {
				t.Fatal(err)
			}
			seqDet := &zombie.Detector{RecordPaths: true}
			seqRep := seqDet.DetectFromHistory(seqHist, sc.Intervals)
			seqSweep := zombie.Sweep(seqHist, sc.Intervals, thresholds, zombie.FilterOptions{}, 0)
			seqLife, err := zombie.TrackLifespans(sc.Dumps, sc.Intervals, zombie.LifespanConfig{})
			if err != nil {
				t.Fatal(err)
			}

			for _, par := range diffParallelism {
				h, err := zombie.BuildHistoryStreams(wholeStreams(sc.Updates), track, par)
				if err != nil {
					t.Fatalf("parallelism %d: BuildHistoryStreams: %v", par, err)
				}
				if !reflect.DeepEqual(h, seqHist) {
					t.Errorf("parallelism %d: History diverges from sequential", par)
				}
				det := &zombie.Detector{RecordPaths: true, Parallelism: par}
				if rep := det.DetectFromHistory(h, sc.Intervals); !reflect.DeepEqual(rep, seqRep) {
					t.Errorf("parallelism %d: Report diverges from sequential", par)
				}
				if sw := zombie.Sweep(h, sc.Intervals, thresholds, zombie.FilterOptions{}, par); !reflect.DeepEqual(sw, seqSweep) {
					t.Errorf("parallelism %d: Sweep diverges from sequential", par)
				}
				lr, err := zombie.TrackLifespans(sc.Dumps, sc.Intervals, zombie.LifespanConfig{Parallelism: par})
				if err != nil {
					t.Fatalf("parallelism %d: TrackLifespans: %v", par, err)
				}
				if !reflect.DeepEqual(lr, seqLife) {
					t.Errorf("parallelism %d: LifespanReport diverges from sequential", par)
				}
				if t.Failed() {
					break
				}
			}
		})
	}
}

// TestColumnarKernelMatchesRowSweep is the worker-count half of the kernel
// differential: across detector modes, the columnar kernel split over 1,
// 2 and 8 workers must produce reports deep-equal to the one-range kernel
// of parallelism 0, which TestColumnarKernelMatchesRowSweep in
// internal/zombie holds to the row-sweep oracle. Randomized scenarios, 50
// seeds.
func TestColumnarKernelMatchesRowSweep(t *testing.T) {
	const scenarios = 50
	for seed := uint64(1); seed <= scenarios; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			sc := genScenario(t, seed)
			track := zombie.NewTrackSet(sc.Prefixes())
			h, err := zombie.BuildHistory(sc.Updates, track)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range []struct {
				name string
				det  zombie.Detector
			}{
				{"default", zombie.Detector{}},
				{"paths", zombie.Detector{RecordPaths: true}},
				{"nosessions", zombie.Detector{IgnoreSessionState: true, RecordPaths: true}},
				{"threshold30m", zombie.Detector{Threshold: 30 * time.Minute, RecordPaths: true}},
			} {
				one := mode.det
				want := one.DetectFromHistory(h, sc.Intervals)
				for _, par := range []int{1, 2, 8} {
					col := mode.det
					col.Parallelism = par
					if got := col.DetectFromHistory(h, sc.Intervals); !reflect.DeepEqual(got, want) {
						t.Errorf("%s, parallelism %d: columnar kernel diverges from parallelism 0", mode.name, par)
					}
				}
				if t.Failed() {
					break
				}
			}
		})
	}
}

// wholeStreams presents each archive as a one-segment stream.
func wholeStreams(updates map[string][]byte) map[string][][]byte {
	streams := make(map[string][][]byte, len(updates))
	for name, data := range updates {
		streams[name] = [][]byte{data}
	}
	return streams
}

// splitStream cuts an MRT byte stream into nseg record-aligned segments
// of roughly equal size, so the streams-based builders see real
// multi-segment input.
func splitStream(t *testing.T, data []byte, nseg int) [][]byte {
	t.Helper()
	var bounds []int
	pos := 0
	for pos < len(data) {
		length := binary.BigEndian.Uint32(data[pos+8:])
		pos += mrt.HeaderLen + int(length)
		bounds = append(bounds, pos)
	}
	if len(bounds) < nseg {
		nseg = len(bounds)
	}
	var segs [][]byte
	start := 0
	for s := 1; s <= nseg; s++ {
		end := bounds[s*len(bounds)/nseg-1]
		if end > start {
			segs = append(segs, data[start:end])
			start = end
		}
	}
	return segs
}

// TestStreamsBuildMatchesConcatenated: building from segmented streams
// (the mmap ingest shape) must produce the identical History and Report
// as building from each collector's concatenated stream.
func TestStreamsBuildMatchesConcatenated(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			sc := genScenario(t, seed)
			track := zombie.NewTrackSet(sc.Prefixes())
			want, err := zombie.BuildHistory(sc.Updates, track)
			if err != nil {
				t.Fatal(err)
			}
			streams := make(map[string][][]byte, len(sc.Updates))
			for name, data := range sc.Updates {
				streams[name] = splitStream(t, data, 3)
			}
			for _, par := range diffParallelism {
				h, err := zombie.BuildHistoryStreams(streams, track, par)
				if err != nil {
					t.Fatalf("parallelism %d: %v", par, err)
				}
				if !reflect.DeepEqual(h, want) {
					t.Errorf("parallelism %d: streams History diverges from concatenated build", par)
				}
			}
			seq := &zombie.Detector{RecordPaths: true}
			wantRep, err := seq.Detect(sc.Updates, sc.Intervals)
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range diffParallelism {
				d := &zombie.Detector{RecordPaths: true, Parallelism: par}
				got, err := d.DetectStreams(streams, sc.Intervals)
				if err != nil {
					t.Fatalf("parallelism %d: %v", par, err)
				}
				if !reflect.DeepEqual(got, wantRep) {
					t.Errorf("parallelism %d: DetectStreams diverges from Detect", par)
				}
			}
		})
	}
}

// TestScalingBitIdentical pins worker-count independence while the
// runtime itself is constrained: for each GOMAXPROCS in {1, 2, 8}, the
// parallel history build and threshold sweep at workers 1/2/8 must be
// bit-identical to the sequential results computed before any
// GOMAXPROCS change.
func TestScalingBitIdentical(t *testing.T) {
	sc := genScenario(t, 99)
	track := zombie.NewTrackSet(sc.Prefixes())
	thresholds := []time.Duration{30 * time.Minute, 90 * time.Minute, 3 * time.Hour}
	wantHist, err := zombie.BuildHistory(sc.Updates, track)
	if err != nil {
		t.Fatal(err)
	}
	wantSweep := zombie.Sweep(wantHist, sc.Intervals, thresholds, zombie.FilterOptions{}, 0)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, par := range diffParallelism {
			h, err := zombie.BuildHistoryStreams(wholeStreams(sc.Updates), track, par)
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d workers=%d: %v", procs, par, err)
			}
			if !reflect.DeepEqual(h, wantHist) {
				t.Errorf("GOMAXPROCS=%d workers=%d: History diverges", procs, par)
			}
			if sw := zombie.Sweep(h, sc.Intervals, thresholds, zombie.FilterOptions{}, par); !reflect.DeepEqual(sw, wantSweep) {
				t.Errorf("GOMAXPROCS=%d workers=%d: Sweep diverges", procs, par)
			}
		}
	}
}

// TestDetectEndToEndParallel covers the Detector.Detect wiring (archive →
// history → report in one call) at every parallelism level.
func TestDetectEndToEndParallel(t *testing.T) {
	sc := genScenario(t, 1234)
	seq := &zombie.Detector{}
	want, err := seq.Detect(sc.Updates, sc.Intervals)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range diffParallelism {
		d := &zombie.Detector{Parallelism: par}
		got, err := d.Detect(sc.Updates, sc.Intervals)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("parallelism %d: Detect report diverges from sequential", par)
		}
	}
}
