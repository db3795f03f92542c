package zombie

import (
	"bytes"
	"fmt"
	"io"
	"net/netip"
	"reflect"
	"sort"
	"testing"
	"time"

	"zombiescope/internal/beacon"
	"zombiescope/internal/collector"
	"zombiescope/internal/mrt"
)

// sourcedRecord is one decoded record tagged with its collector.
type sourcedRecord struct {
	name string
	rec  mrt.Record
}

// timeMerged decodes per-collector archives into one stream ordered by
// record time, as a live consumer of several collectors sees it: a
// stable sort over the collectors concatenated in sorted-name order, so
// ties keep name order and each collector keeps its archive order.
func timeMerged(t *testing.T, updates map[string][]byte) []sourcedRecord {
	t.Helper()
	names := make([]string, 0, len(updates))
	for name := range updates {
		names = append(names, name)
	}
	sort.Strings(names)
	var stream []sourcedRecord
	for _, name := range names {
		rd := mrt.NewReader(bytes.NewReader(updates[name]))
		for {
			rec, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			stream = append(stream, sourcedRecord{name, rec})
		}
	}
	sort.SliceStable(stream, func(i, j int) bool {
		return stream[i].rec.RecordTime().Before(stream[j].rec.RecordTime())
	})
	return stream
}

// feedStream replays archives, time-merged across collectors, into a
// StreamDetector, advancing the clock with record timestamps, and
// returns the emitted events.
func feedStream(t *testing.T, updates map[string][]byte, intervals []beacon.Interval, threshold time.Duration) []ZombieEvent {
	t.Helper()
	var events []ZombieEvent
	sd := NewStreamDetector(intervals, threshold, func(ev ZombieEvent) {
		events = append(events, ev)
	})
	for _, sr := range timeMerged(t, updates) {
		sd.Advance(sr.rec.RecordTime())
		sd.Observe(sr.name, sr.rec)
	}
	// Flush remaining checks.
	sd.Advance(time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC))
	if sd.PendingChecks() != 0 {
		t.Fatalf("%d checks still pending after flush", sd.PendingChecks())
	}
	return events
}

// TestStreamMatchesBatchDifferential holds the StreamDetector to the
// batch Detector on the randomized multi-collector scenarios: grouped by
// interval, each check's emissions must equal the batch outbreak's
// routes in order, and a second run over the same stream must emit the
// identical sequence (alert order, and so zombie-channel sequence
// numbers and journal contents, are reproducible).
func TestStreamMatchesBatchDifferential(t *testing.T) {
	const scenarios = 50
	thresholds := []time.Duration{30 * time.Minute, 90 * time.Minute, 3 * time.Hour}
	type ivKey struct {
		prefix netip.Prefix
		at     int64
	}
	keyOf := func(iv beacon.Interval) ivKey { return ivKey{iv.Prefix, iv.AnnounceAt.UnixNano()} }
	for seed := uint64(1); seed <= scenarios; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			sc := genScenario(t, seed)
			for _, th := range thresholds {
				batch, err := (&Detector{Threshold: th}).Detect(sc.Updates, sc.Intervals)
				if err != nil {
					t.Fatal(err)
				}
				events := feedStream(t, sc.Updates, sc.Intervals, th)
				if again := feedStream(t, sc.Updates, sc.Intervals, th); !reflect.DeepEqual(again, events) {
					t.Errorf("threshold %v: two runs over the same stream emit different sequences", th)
				}
				groups := make(map[ivKey][]ZombieEvent)
				for _, ev := range events {
					groups[keyOf(ev.Interval)] = append(groups[keyOf(ev.Interval)], ev)
				}
				if len(groups) != len(batch.Outbreaks) {
					t.Errorf("threshold %v: stream fired %d intervals, batch has %d outbreaks", th, len(groups), len(batch.Outbreaks))
				}
				for _, ob := range batch.Outbreaks {
					got := groups[keyOf(ob.Interval)]
					if len(got) != len(ob.Routes) {
						t.Errorf("threshold %v, interval %v: stream emitted %d routes, batch %d", th, ob.Interval.AnnounceAt, len(got), len(ob.Routes))
						continue
					}
					for i, r := range ob.Routes {
						ev := got[i]
						if ev.Peer != r.Peer || ev.Prefix != r.Prefix || ev.Interval != r.Interval ||
							!ev.Path.Equal(r.Path) || !ev.AnnouncedAt.Equal(r.AnnouncedAt) || ev.Duplicate != r.Duplicate {
							t.Errorf("threshold %v, interval %v, route %d:\n stream %+v\n batch  %+v", th, ob.Interval.AnnounceAt, i, ev, r)
						}
					}
				}
			}
		})
	}
}

func TestStreamDetectorMatchesBatch(t *testing.T) {
	updates, _, b, _ := buildScenario(t)
	ivs := twoIntervals()

	batch, err := (&Detector{}).Detect(updates, ivs)
	if err != nil {
		t.Fatal(err)
	}
	events := feedStream(t, updates, ivs, DefaultThreshold)

	// Same zombies, same duplicate flags.
	type key struct {
		peer PeerID
		at   int64
	}
	batchSet := make(map[key]bool)
	for _, ob := range batch.Outbreaks {
		for _, r := range ob.Routes {
			batchSet[key{r.Peer, r.Interval.AnnounceAt.Unix()}] = r.Duplicate
		}
	}
	if len(events) != len(batchSet) {
		t.Fatalf("stream emitted %d events, batch found %d routes", len(events), len(batchSet))
	}
	for _, ev := range events {
		dup, ok := batchSet[key{ev.Peer, ev.Interval.AnnounceAt.Unix()}]
		if !ok {
			t.Errorf("stream-only event: %+v", ev)
			continue
		}
		if dup != ev.Duplicate {
			t.Errorf("duplicate flag mismatch for %v: stream %v, batch %v", ev.Peer, ev.Duplicate, dup)
		}
		if ev.Peer != peerOf(b) {
			t.Errorf("unexpected zombie peer %+v", ev.Peer)
		}
	}
}

func TestStreamDetectorEmitsInOrder(t *testing.T) {
	updates, _, _, _ := buildScenario(t)
	ivs := twoIntervals()
	events := feedStream(t, updates, ivs, DefaultThreshold)
	for i := 1; i < len(events); i++ {
		if events[i].DetectedAt.Before(events[i-1].DetectedAt) {
			t.Errorf("events out of order: %v before %v", events[i].DetectedAt, events[i-1].DetectedAt)
		}
	}
	// Detection instants are exactly withdrawal + threshold.
	for _, ev := range events {
		if got := ev.DetectedAt.Sub(ev.Interval.WithdrawAt); got != DefaultThreshold {
			t.Errorf("detected %v after withdrawal, want %v", got, DefaultThreshold)
		}
	}
}

func TestStreamDetectorSessionDown(t *testing.T) {
	// A peer whose session drops before the check must not fire.
	f := collector.NewFleet()
	s := sess("rrc25", 400, "2001:db8:feed::3")
	f.PeerAnnounce(t0.Add(time.Second), s, pfx, attrsAt(t0, 400, 25091, 8298, 210312))
	f.PeerState(t0.Add(30*time.Minute), s, mrt.StateEstablished, mrt.StateIdle)
	iv := beacon.Interval{Prefix: pfx, AnnounceAt: t0, WithdrawAt: t0.Add(15 * time.Minute), End: t0.Add(24 * time.Hour)}
	events := feedStream(t, f.UpdatesData(), []beacon.Interval{iv}, DefaultThreshold)
	if len(events) != 0 {
		t.Errorf("down session produced %d events", len(events))
	}
}

func TestStreamDetectorResurrectionFlag(t *testing.T) {
	// Withdraw at the peer, then a late re-announcement of the old route
	// (old Aggregator clock) before the check: flagged Resurrected.
	f := collector.NewFleet()
	s := sess("rrc25", 300, "2001:db8:feed::2")
	f.PeerAnnounce(t0.Add(time.Second), s, pfx, attrsAt(t0, 300, 8298, 210312))
	wd := t0.Add(15 * time.Minute)
	f.PeerWithdraw(wd.Add(time.Minute), s, pfx)
	// 70 minutes after withdrawal the stuck route is re-announced by an
	// infected upstream, carrying the ORIGINAL beacon clock.
	f.PeerAnnounce(wd.Add(70*time.Minute), s, pfx, attrsAt(t0, 300, 4637, 1299, 8298, 210312))
	iv := beacon.Interval{Prefix: pfx, AnnounceAt: t0, WithdrawAt: wd, End: t0.Add(24 * time.Hour)}
	events := feedStream(t, f.UpdatesData(), []beacon.Interval{iv}, DefaultThreshold)
	if len(events) != 1 {
		t.Fatalf("events = %d, want 1", len(events))
	}
	if !events[0].Resurrected {
		t.Error("late re-announcement not flagged as resurrection")
	}
	if events[0].Duplicate {
		t.Error("current-interval resurrection flagged duplicate")
	}
}

func TestStreamDetectorCleanWithdrawalSilent(t *testing.T) {
	f := collector.NewFleet()
	s := sess("rrc25", 200, "2001:db8:feed::1")
	f.PeerAnnounce(t0.Add(time.Second), s, pfx, attrsAt(t0, 200, 8298, 210312))
	f.PeerWithdraw(t0.Add(16*time.Minute), s, pfx)
	iv := beacon.Interval{Prefix: pfx, AnnounceAt: t0, WithdrawAt: t0.Add(15 * time.Minute), End: t0.Add(24 * time.Hour)}
	events := feedStream(t, f.UpdatesData(), []beacon.Interval{iv}, DefaultThreshold)
	if len(events) != 0 {
		t.Errorf("clean withdrawal produced %d events", len(events))
	}
}

func TestDetectorIgnoreSessionStateAblation(t *testing.T) {
	// With the ablation on, the session-down peer C becomes a (false)
	// zombie — the count can only grow.
	updates, _, _, c := buildScenario(t)
	ivs := twoIntervals()
	full, err := (&Detector{}).Detect(updates, ivs)
	if err != nil {
		t.Fatal(err)
	}
	ablated, err := (&Detector{IgnoreSessionState: true}).Detect(updates, ivs)
	if err != nil {
		t.Fatal(err)
	}
	fullRoutes := CountRoutes(full.Filter(FilterOptions{IncludeDuplicates: true}))
	ablRoutes := CountRoutes(ablated.Filter(FilterOptions{IncludeDuplicates: true}))
	if ablRoutes <= fullRoutes {
		t.Errorf("ablation found %d routes, full methodology %d; want strictly more", ablRoutes, fullRoutes)
	}
	// And the extra routes belong to the down-session peer.
	foundC := false
	for _, ob := range ablated.Outbreaks {
		for _, r := range ob.Routes {
			if r.Peer == peerOf(c) {
				foundC = true
			}
		}
	}
	if !foundC {
		t.Error("ablated detection did not surface the down-session peer")
	}
}
