// Differential harness against the test-only oracles: randomized netsim
// scenarios (internal/difftest) — session resets, withdrawals, zombie
// faults — built and detected at parallelism 0, with deep equality
// against the reference map store, the row-sweep evaluator and the
// sequential lifespan scan. internal/pipeline's harness holds every other
// parallelism to the same parallelism-0 results.
package zombie

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"zombiescope/internal/difftest"
)

// genScenario generates the campaign of seed.
func genScenario(t *testing.T, seed uint64) *difftest.Scenario {
	t.Helper()
	sc, err := difftest.Generate(seed)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestOraclesMatchSequential is the oracle half of the differential
// harness: on the randomized scenarios, the parallelism-0 report, sweep,
// legacy report and lifespan report must deep-equal what the test-only
// oracles produce. TestParallelMatchesSequential in
// internal/pipeline holds every other parallelism to these same
// parallelism-0 results, at the same 50 seeds.
func TestOraclesMatchSequential(t *testing.T) {
	const scenarios = 50
	thresholds := []time.Duration{30 * time.Minute, 90 * time.Minute, 3 * time.Hour}
	for seed := uint64(1); seed <= scenarios; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			sc := genScenario(t, seed)
			track := NewTrackSet(sc.Prefixes())

			seqHist, err := BuildHistory(sc.Updates, track)
			if err != nil {
				t.Fatal(err)
			}
			seqDet := &Detector{RecordPaths: true}
			seqRep := seqDet.DetectFromHistory(seqHist, sc.Intervals)
			seqSweep := Sweep(seqHist, sc.Intervals, thresholds, FilterOptions{}, 0)

			// Columnar store vs the original map store: the reference
			// build shares only recordEvents with the production path
			// (sequential reader, allocating decode, map-of-maps layout,
			// row-sweep evaluation), so agreement here pins the columnar
			// layout, the interned decode, the borrowed-buffer fold and
			// the kernel all at once.
			refHist, err := buildHistoryReference(sc.Updates, track)
			if err != nil {
				t.Fatal(err)
			}
			refDet := &Detector{RecordPaths: true}
			if rep := refDet.detectRows(refHist, sc.Intervals); !reflect.DeepEqual(rep, seqRep) {
				t.Errorf("columnar store: Report diverges from reference store")
			}
			if sw := sweepRows(refHist, sc.Intervals, thresholds, FilterOptions{}); !reflect.DeepEqual(sw, seqSweep) {
				t.Errorf("columnar store: Sweep diverges from reference store")
			}
			legacy := &LegacyDetector{Seed: seed}
			if got, want := legacy.Detect(seqHist, sc.Intervals), legacy.legacyRows(refHist, sc.Intervals); !reflect.DeepEqual(got, want) {
				t.Errorf("columnar store: legacy Report diverges from reference store")
			}

			// The chunked, table-carrying lifespan fold vs one sequential
			// reader scan per dump file.
			want, err := trackLifespansSequential(sc.Dumps, sc.Intervals, LifespanConfig{})
			if err != nil {
				t.Fatal(err)
			}
			lr, err := TrackLifespans(sc.Dumps, sc.Intervals, LifespanConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(lr, want) {
				t.Errorf("LifespanReport diverges from the sequential scan")
			}
		})
	}
}

// TestColumnarKernelMatchesRowSweep is the kernel differential: the same
// history, evaluated by the row-sweep reference and by the batched
// columnar kernel at parallelism 0, across detector modes, must produce
// deep-equal reports. TestColumnarKernelMatchesRowSweep in
// internal/pipeline holds the kernel at 1, 2 and 8 workers to the same
// parallelism-0 reports. Randomized scenarios, 50 seeds.
func TestColumnarKernelMatchesRowSweep(t *testing.T) {
	const scenarios = 50
	for seed := uint64(1); seed <= scenarios; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			sc := genScenario(t, seed)
			track := NewTrackSet(sc.Prefixes())
			h, err := BuildHistory(sc.Updates, track)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range []struct {
				name string
				det  Detector
			}{
				{"default", Detector{}},
				{"paths", Detector{RecordPaths: true}},
				{"nosessions", Detector{IgnoreSessionState: true, RecordPaths: true}},
				{"threshold30m", Detector{Threshold: 30 * time.Minute, RecordPaths: true}},
			} {
				det := mode.det
				if got, want := det.DetectFromHistory(h, sc.Intervals), det.detectRows(h, sc.Intervals); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: columnar kernel diverges from row sweep", mode.name)
					break
				}
			}
		})
	}
}
