package zombie

import (
	"net/netip"
	"time"

	"zombiescope/internal/beacon"
	"zombiescope/internal/bgp"
)

// rowStore is what the row-sweep oracle reads: both the columnar History
// and the reference map store (refHistory) provide it, so the oracle runs
// unchanged over either.
type rowStore interface {
	Peers() []PeerID
	SeenAnnounced(p netip.Prefix, from, to time.Time) bool
	pairEvents(peer PeerID, p netip.Prefix) []histEvent
	sessionEvents(peer PeerID) []histEvent
}

// evalInterval evaluates one interval against the store by querying every
// peer's state at the check instant — the row-sweep evaluator, the oracle
// the columnar kernel is differentially tested against.
func (d *Detector) evalInterval(s rowStore, iv beacon.Interval) intervalResult {
	var res intervalResult
	if s.SeenAnnounced(iv.Prefix, iv.AnnounceAt, iv.WithdrawAt) {
		res.visible = true
	}
	checkAt := iv.WithdrawAt.Add(d.threshold())
	stateAt := func(peer PeerID, p netip.Prefix, t time.Time) State {
		if d.IgnoreSessionState {
			return stateAtIgnoringSessions(s.pairEvents(peer, p), t)
		}
		return stateAtMerged(s.pairEvents(peer, p), s.sessionEvents(peer), t)
	}
	for _, peer := range s.Peers() {
		st := stateAt(peer, iv.Prefix, checkAt)
		var pre State
		if d.RecordPaths {
			pre = stateAt(peer, iv.Prefix, iv.WithdrawAt)
		}
		d.peerDecision(peer, iv, st, pre, &res.routes, &res.pathObs)
	}
	return res
}

// detectRows runs detection with the row-sweep evaluator (per-interval,
// per-peer state walks) over any store. It is the reference the columnar
// kernel of DetectFromHistory must be bit-identical to.
func (d *Detector) detectRows(s rowStore, intervals []beacon.Interval) *Report {
	results := make([]intervalResult, len(intervals))
	for i, iv := range intervals {
		results[i] = d.evalInterval(s, iv)
	}
	return d.assemble(s.Peers(), intervals, results)
}

// sweepRows is Sweep over the row-sweep evaluator.
func sweepRows(s rowStore, intervals []beacon.Interval, thresholds []time.Duration, opts FilterOptions) []SweepPoint {
	out := make([]SweepPoint, 0, len(thresholds))
	for _, th := range thresholds {
		obs := (&Detector{Threshold: th}).detectRows(s, intervals).Filter(opts)
		frac := 0.0
		if len(intervals) > 0 {
			frac = float64(len(obs)) / float64(len(intervals))
		}
		out = append(out, SweepPoint{Threshold: th, Outbreaks: len(obs), Fraction: frac})
	}
	return out
}

// legacyRows is LegacyDetector.Detect over any store: the legacy
// methodology's per-interval, per-peer looking-glass queries.
func (d *LegacyDetector) legacyRows(s rowStore, intervals []beacon.Interval) *Report {
	rep := &Report{
		Threshold: d.threshold(),
		Intervals: intervals,
		Peers:     s.Peers(),
	}
	for _, iv := range intervals {
		if s.SeenAnnounced(iv.Prefix, iv.AnnounceAt, iv.WithdrawAt) {
			rep.VisiblePrefixes++
		}
		effective := iv.WithdrawAt.Add(d.threshold()).Add(-d.stateDelay())
		var routes []Route
		for _, peer := range s.Peers() {
			if !d.checkSucceeds(peer, iv) {
				continue
			}
			st := stateAtIgnoringSessions(s.pairEvents(peer, iv.Prefix), effective)
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

// stateAtMerged and stateAtIgnoringSessions are the oracle's own state
// folds, written independently of pairCursor so the kernel differential
// compares two implementations of the state model, not one with itself.

// stateAtMerged walks a pair stream and a session stream merged in event
// order, stopping at t.
func stateAtMerged(evs, sess []histEvent, t time.Time) State {
	var st State
	i, j := 0, 0
	for i < len(evs) || j < len(sess) {
		var ev histEvent
		takeSess := false
		switch {
		case i >= len(evs):
			ev, takeSess = sess[j], true
		case j >= len(sess):
			ev = evs[i]
		default:
			a, b := evs[i], sess[j]
			if b.at.Before(a.at) || (b.at.Equal(a.at) && b.order < a.order) {
				ev, takeSess = b, true
			} else {
				ev = a
			}
		}
		if !ev.at.Before(t) {
			break
		}
		if takeSess {
			j++
			if ev.kind == evSessionDown {
				st = State{LastEvent: ev.at}
			}
			continue
		}
		i++
		st.LastEvent = ev.at
		switch ev.kind {
		case evAnnounce:
			st.Present = true
			st.Path = ev.path
			st.Agg = ev.agg
			st.At = ev.at
		case evWithdraw:
			st.Present = false
			st.Path = bgp.ASPath{}
			st.Agg = nil
		}
	}
	return st
}

// stateAtIgnoringSessions reconstructs state from a pair stream alone,
// without honoring session downs, as the legacy pipeline did.
func stateAtIgnoringSessions(evs []histEvent, t time.Time) State {
	var st State
	for _, ev := range evs {
		if !ev.at.Before(t) {
			break
		}
		st.LastEvent = ev.at
		switch ev.kind {
		case evAnnounce:
			st.Present = true
			st.Path = ev.path
			st.Agg = ev.agg
			st.At = ev.at
		case evWithdraw:
			st.Present = false
		}
	}
	return st
}
