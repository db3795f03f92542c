package main

import (
	"net/netip"
	"runtime"
	"sort"
	"time"

	"zombiescope/internal/beacon"
	"zombiescope/internal/experiments"
	"zombiescope/internal/livefeed"
	"zombiescope/internal/zombie"
)

// streamInput is the live-path workloads' input: the author scenario's
// update archives merged into one timestamp-ordered record stream, as
// zombied feeds it.
type streamInput struct {
	updates    map[string][]byte
	stream     []livefeed.SourcedRecord
	intervals  []beacon.Interval
	flushAt    time.Time
	collectors []string
	prefixes   []netip.Prefix // distinct beacon prefixes
}

// setupStream generates the author scenario at cfg.liveScale and merges
// its update archives, setupReps times; it returns the input and the
// duration of each set-up.
func setupStream(cfg *config) (*streamInput, []float64, error) {
	var (
		in    *streamInput
		times []float64
	)
	for i := 0; i < cfg.setupReps; i++ {
		in = nil
		runtime.GC()
		start := time.Now()
		data, err := experiments.RunAuthorScenario(experiments.DefaultAuthorConfig(cfg.seed, cfg.liveScale))
		if err != nil {
			return nil, nil, err
		}
		stream, err := livefeed.MergeUpdates(data.Updates)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		in = &streamInput{
			updates:   data.Updates,
			stream:    stream,
			intervals: data.Intervals,
			flushAt:   data.Config.TrackUntil,
		}
	}
	for name := range in.updates {
		in.collectors = append(in.collectors, name)
	}
	sort.Strings(in.collectors)
	seen := map[netip.Prefix]bool{}
	for _, iv := range in.intervals {
		if !seen[iv.Prefix] {
			seen[iv.Prefix] = true
			in.prefixes = append(in.prefixes, iv.Prefix)
		}
	}
	return in, times, nil
}

// routeKey identifies one zombie route for set comparison.
type routeKey struct {
	peer      zombie.PeerID
	prefix    netip.Prefix
	interval  int64
	duplicate bool
}

// batchRoutes is the batch Detector's route set over the same updates:
// the reference the live alert channel must reproduce exactly.
func batchRoutes(in *streamInput) (map[routeKey]bool, error) {
	rep, err := (&zombie.Detector{}).Detect(in.updates, in.intervals)
	if err != nil {
		return nil, err
	}
	out := map[routeKey]bool{}
	for _, ob := range rep.Outbreaks {
		for _, r := range ob.Routes {
			out[routeKey{r.Peer, r.Prefix, r.Interval.AnnounceAt.Unix(), r.Duplicate}] = true
		}
	}
	return out, nil
}

// alertKey is the route key of a zombie-channel event.
func alertKey(ev *livefeed.Event) routeKey {
	peer := zombie.PeerID{Collector: ev.Collector, AS: ev.PeerAS, Addr: ev.Peer}
	return routeKey{peer, ev.Alert.Prefix, ev.Alert.IntervalStart.Unix(), ev.Alert.Duplicate}
}

// streamDetectPass runs a StreamDetector alone over the stream, the
// detection layer of the live path without broker or wire, and returns
// how many alerts it emitted.
func streamDetectPass(in *streamInput) int {
	n := 0
	sd := zombie.NewStreamDetector(in.intervals, 0, func(zombie.ZombieEvent) { n++ })
	for _, sr := range in.stream {
		sd.Advance(sr.Rec.RecordTime())
		sd.Observe(sr.Collector, sr.Rec)
	}
	sd.Advance(in.flushAt)
	return n
}
