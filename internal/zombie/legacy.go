package zombie

import (
	"hash/fnv"
	"time"

	"zombiescope/internal/beacon"
)

// LegacyDetector reproduces the prior study's looking-glass methodology as
// the replication baseline. It differs from the revised Detector in the
// ways §3.1 of the paper calls out:
//
//   - State comes from a "black box" looking-glass service that lags the
//     raw feed by StateDelay, so recent withdrawals are invisible at
//     check time (false positives) and recent announcements are missed.
//   - The service is not always reachable: each (peer, prefix, interval)
//     check fails with probability 1-Availability, losing real zombies.
//   - Session STATE messages are ignored: a peer whose session dropped
//     still "has" its last-announced routes.
//   - No Aggregator-clock dedup: a route stuck across N intervals counts
//     N times.
type LegacyDetector struct {
	Threshold    time.Duration // default 90 minutes
	StateDelay   time.Duration // looking-glass update lag; default 3 minutes
	Availability float64       // probability a check succeeds; default 0.98
	Seed         uint64
}

func (d *LegacyDetector) threshold() time.Duration {
	if d.Threshold <= 0 {
		return DefaultThreshold
	}
	return d.Threshold
}

func (d *LegacyDetector) stateDelay() time.Duration {
	if d.StateDelay <= 0 {
		return 3 * time.Minute
	}
	return d.StateDelay
}

func (d *LegacyDetector) availability() float64 {
	if d.Availability <= 0 || d.Availability > 1 {
		return 0.98
	}
	return d.Availability
}

// Detect runs the legacy methodology over a history. Returned routes are
// never marked Duplicate (the legacy method cannot tell).
func (d *LegacyDetector) Detect(h *History, intervals []beacon.Interval) *Report {
	rep := &Report{
		Threshold: d.threshold(),
		Intervals: intervals,
		Peers:     h.Peers(),
	}
	for _, iv := range intervals {
		if h.SeenAnnounced(iv.Prefix, iv.AnnounceAt, iv.WithdrawAt) {
			rep.VisiblePrefixes++
		}
		// The looking glass answers with state as of checkAt-StateDelay.
		checkAt := iv.WithdrawAt.Add(d.threshold())
		effective := checkAt.Add(-d.stateDelay())
		var routes []Route
		for _, peer := range h.Peers() {
			if !d.checkSucceeds(peer, iv) {
				continue // looking glass unreachable for this check
			}
			c := pairCursor{evs: h.pairEvents(peer, iv.Prefix)} // no session stream
			st := c.advance(effective)
			if !st.Present {
				continue
			}
			routes = append(routes, Route{
				Peer:        peer,
				Prefix:      iv.Prefix,
				Interval:    iv,
				Path:        st.Path,
				AnnouncedAt: st.At,
				LastUpdate:  st.LastEvent,
			})
		}
		if len(routes) > 0 {
			rep.Outbreaks = append(rep.Outbreaks, Outbreak{Prefix: iv.Prefix, Interval: iv, Routes: routes})
		}
	}
	return rep
}

func (d *LegacyDetector) checkSucceeds(peer PeerID, iv beacon.Interval) bool {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	put(d.Seed)
	put(uint64(peer.AS))
	a := peer.Addr.As16()
	h.Write(a[:])
	pa := iv.Prefix.Addr().As16()
	h.Write(pa[:])
	put(uint64(iv.AnnounceAt.Unix()))
	const span = 1 << 32
	return float64(h.Sum64()%span)/span < d.availability()
}
