package zombie

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"zombiescope/internal/beacon"
	"zombiescope/internal/bgp"
	"zombiescope/internal/pipeline"
)

// Default thresholds for the non-zombie detectors.
const (
	// DefaultMOASMinDuration: a MOAS conflict shorter than this is churn
	// (an origin migration in flight), not a long-lived conflict.
	DefaultMOASMinDuration = time.Hour
	// DefaultHyperMinDuration: a hyper-specific prefix visible for less
	// than this is a blip, not a leak past filters.
	DefaultHyperMinDuration = 30 * time.Minute
	// DefaultStormMinEvents / DefaultStormWindow: a community noise storm
	// is at least this many community changes on one (peer, prefix)
	// within the window.
	DefaultStormMinEvents = 8
	DefaultStormWindow    = 15 * time.Minute
)

// Anomaly kinds.
const (
	KindZombieOutbreak = "zombie-outbreak"
	KindMOASConflict   = "moas-conflict"
	KindHyperSpecific  = "hyper-specific"
	KindCommunityStorm = "community-storm"
)

// ---------------------------------------------------------------------------
// Zombie detector, refactored behind the framework.

// ZombieAnomalyDetector wraps the paper's interval-anchored zombie
// detector as an AnomalyDetector: each surviving outbreak becomes one
// finding whose lifespan runs from the beacon withdrawal to the detection
// instant.
type ZombieAnomalyDetector struct {
	Det       Detector
	Intervals []beacon.Interval
	Filter    FilterOptions
}

func (d *ZombieAnomalyDetector) Name() string { return "zombie" }

func (d *ZombieAnomalyDetector) DetectAnomalies(h *History, win Window) []Anomaly {
	rep := d.Det.DetectFromHistory(h, d.Intervals)
	var out []Anomaly
	for _, ob := range rep.Filter(d.Filter) {
		origins := make(map[bgp.ASN]bool)
		for _, r := range ob.Routes {
			if o, ok := r.Path.Origin(); ok {
				origins[o] = true
			}
		}
		out = append(out, Anomaly{
			Kind:    KindZombieOutbreak,
			Prefix:  ob.Prefix,
			Origins: sortedOrigins(origins),
			Start:   ob.Interval.WithdrawAt,
			End:     ob.Interval.WithdrawAt.Add(d.Det.threshold()),
			Count:   len(ob.Routes),
			Detail:  fmt.Sprintf("%d stuck routes across %d peer ASes", len(ob.Routes), len(ob.PeerASes())),
		})
	}
	return out
}

// ---------------------------------------------------------------------------
// Long-lived MOAS conflicts.

// MOASDetector finds prefixes concurrently originated by two or more ASes
// for longer than MinDuration (Sediqi et al., "Live Long and Prosper").
// Per peer it reduces the merged announce/withdraw/session stream to
// ±1 deltas on a per-origin live-route count; the per-prefix sweep then
// applies deltas grouped by record timestamp, so the verdict depends only
// on state at each instant — never on how same-instant records from
// different peers happened to interleave during the build.
type MOASDetector struct {
	MinDuration time.Duration
	Parallelism int
}

func (d *MOASDetector) Name() string { return "moas" }

func (d *MOASDetector) minDuration() time.Duration {
	if d.MinDuration <= 0 {
		return DefaultMOASMinDuration
	}
	return d.MinDuration
}

func (d *MOASDetector) DetectAnomalies(h *History, win Window) []Anomaly {
	return sweepPrefixes(h, d.Parallelism, func(xi uint32, p netip.Prefix) []Anomaly {
		var deltas []originDelta
		for pi := range h.peers {
			deltas = appendOriginDeltas(deltas, h.pairSpan(uint32(pi), xi), h.sessSpan(uint32(pi)))
		}
		if len(deltas) == 0 {
			return nil
		}
		sort.SliceStable(deltas, func(i, j int) bool { return deltas[i].at.Before(deltas[j].at) })

		live := make(map[bgp.ASN]int)
		distinct := 0
		inConflict := false
		var start time.Time
		origins := make(map[bgp.ASN]bool)
		var out []Anomaly
		emit := func(end time.Time) {
			if a, ok := clipWindow(start, end, win, d.minDuration()); ok {
				a.Kind = KindMOASConflict
				a.Prefix = p
				a.Origins = sortedOrigins(origins)
				a.Count = len(a.Origins)
				a.Detail = fmt.Sprintf("%d concurrent origins for %v", len(a.Origins), a.Lifespan())
				out = append(out, a)
			}
			origins = make(map[bgp.ASN]bool)
		}
		for i := 0; i < len(deltas); {
			at := deltas[i].at
			// Apply every delta at this instant before judging: the count
			// at t is a fact; the intra-instant order is an artifact.
			for i < len(deltas) && deltas[i].at.Equal(at) {
				dl := deltas[i]
				before := live[dl.origin]
				after := before + dl.delta
				live[dl.origin] = after
				if before == 0 && after > 0 {
					distinct++
				} else if before > 0 && after == 0 {
					distinct--
				}
				i++
			}
			switch {
			case !inConflict && distinct >= 2:
				inConflict = true
				start = at
				collectLive(origins, live)
			case inConflict && distinct >= 2:
				collectLive(origins, live)
			case inConflict && distinct < 2:
				inConflict = false
				emit(at)
			}
		}
		if inConflict {
			emit(win.To)
		}
		return out
	})
}

// ---------------------------------------------------------------------------
// Hyper-specific prefixes.

// HyperSpecificDetector finds prefixes more specific than what transit
// filters conventionally admit (/25–/32 IPv4, /49–/128 IPv6) that stayed
// visible beyond MinDuration. Presence is the union across peers, swept
// with timestamp-grouped deltas like the MOAS sweep.
type HyperSpecificDetector struct {
	MinDuration time.Duration
	Parallelism int
}

func (d *HyperSpecificDetector) Name() string { return "hyperspecific" }

func (d *HyperSpecificDetector) minDuration() time.Duration {
	if d.MinDuration <= 0 {
		return DefaultHyperMinDuration
	}
	return d.MinDuration
}

// HyperSpecific reports whether p is more specific than conventional
// transit filters admit.
func HyperSpecific(p netip.Prefix) bool {
	if p.Addr().Is4() {
		return p.Bits() >= 25
	}
	return p.Bits() >= 49
}

func (d *HyperSpecificDetector) DetectAnomalies(h *History, win Window) []Anomaly {
	return sweepPrefixes(h, d.Parallelism, func(xi uint32, p netip.Prefix) []Anomaly {
		if !HyperSpecific(p) {
			return nil
		}
		var deltas []presenceDelta
		origins := make(map[bgp.ASN]bool)
		for pi := range h.peers {
			deltas = appendPresenceDeltas(deltas, h.pairSpan(uint32(pi), xi), h.sessSpan(uint32(pi)), origins)
		}
		if len(deltas) == 0 {
			return nil
		}
		sort.SliceStable(deltas, func(i, j int) bool { return deltas[i].at.Before(deltas[j].at) })

		count, peak := 0, 0
		visible := false
		var start time.Time
		var out []Anomaly
		emit := func(end time.Time) {
			if a, ok := clipWindow(start, end, win, d.minDuration()); ok {
				a.Kind = KindHyperSpecific
				a.Prefix = p
				a.Origins = sortedOrigins(origins)
				a.Count = peak
				a.Detail = fmt.Sprintf("/%d visible at %d peers for %v", p.Bits(), peak, a.Lifespan())
				out = append(out, a)
			}
		}
		for i := 0; i < len(deltas); {
			at := deltas[i].at
			for i < len(deltas) && deltas[i].at.Equal(at) {
				count += deltas[i].delta
				i++
			}
			switch {
			case !visible && count > 0:
				visible = true
				start = at
				peak = count
			case visible && count > 0:
				if count > peak {
					peak = count
				}
			case visible && count == 0:
				visible = false
				emit(at)
			}
		}
		if visible {
			emit(win.To)
		}
		return out
	})
}

// ---------------------------------------------------------------------------
// Community noise storms.

// CommunityStormDetector finds (peer, prefix) sessions whose community
// attribute churns abnormally fast (Krenc et al., "Keep your Communities
// Clean"): at least MinEvents community *changes* within RateWindow. A
// change is an announcement whose community set differs from the
// previous announcement's; re-announcements with identical communities
// (beacon refreshes) never count.
type CommunityStormDetector struct {
	MinEvents   int
	RateWindow  time.Duration
	Parallelism int
}

func (d *CommunityStormDetector) Name() string { return "community" }

func (d *CommunityStormDetector) minEvents() int {
	if d.MinEvents <= 0 {
		return DefaultStormMinEvents
	}
	return d.MinEvents
}

func (d *CommunityStormDetector) rateWindow() time.Duration {
	if d.RateWindow <= 0 {
		return DefaultStormWindow
	}
	return d.RateWindow
}

func (d *CommunityStormDetector) DetectAnomalies(h *History, win Window) []Anomaly {
	slots := make([][]Anomaly, len(h.pairKeys))
	eval := func(ki int) {
		key := h.pairKeys[ki]
		pi, xi := uint32(key>>32), uint32(key)
		evs := h.pairSpan(pi, xi)

		// Churn instants: announcements whose community set differs from
		// the previous one. Withdrawals do not reset the comparison — a
		// flap that toggles withdraw/announce with stable communities is
		// route noise, not community noise.
		var churn []time.Time
		var prev []bgp.Community
		prevValid := false
		for i := range evs {
			if evs[i].kind != evAnnounce {
				continue
			}
			if prevValid && !communitiesEqual(prev, evs[i].comms) {
				churn = append(churn, evs[i].at)
			}
			prev, prevValid = evs[i].comms, true
		}

		me, rw := d.minEvents(), d.rateWindow()
		var out []Anomaly
		runStart, runEnd := -1, -1
		flush := func() {
			if runStart < 0 {
				return
			}
			a := Anomaly{
				Kind:   KindCommunityStorm,
				Prefix: h.prefixes[xi],
				Peer:   h.peers[pi],
				Start:  churn[runStart],
				End:    churn[runEnd],
				Count:  runEnd - runStart + 1,
			}
			a.Detail = fmt.Sprintf("%d community changes in %v", a.Count, a.Lifespan())
			out = append(out, a)
			runStart, runEnd = -1, -1
		}
		for i := 0; i+me-1 < len(churn); i++ {
			if churn[i+me-1].Sub(churn[i]) > rw {
				continue
			}
			if runStart >= 0 && i > runEnd {
				flush()
			}
			if runStart < 0 {
				runStart = i
			}
			runEnd = i + me - 1
		}
		flush()
		slots[ki] = out
	}
	e := &pipeline.Engine{Workers: max(d.Parallelism, 1)}
	e.For(len(h.pairKeys), eval)
	var out []Anomaly
	for _, as := range slots {
		out = append(out, as...)
	}
	return out
}

// ---------------------------------------------------------------------------
// Shared sweep machinery.

// pairSpan returns the event span of (peer pi, prefix xi), empty if none.
func (h *History) pairSpan(pi, xi uint32) []histEvent {
	sp, ok := h.pairs[pairKey(pi, xi)]
	if !ok {
		return nil
	}
	return h.events[sp.off : sp.off+sp.n]
}

// sessSpan returns the session event span of peer pi.
func (h *History) sessSpan(pi uint32) []histEvent {
	if int(pi) >= len(h.sessSpans) {
		return nil
	}
	sp := h.sessSpans[pi]
	return h.sess[sp.off : sp.off+sp.n]
}

// sweepPrefixes runs a per-prefix evaluation over the columnar prefix
// index, optionally on pipeline workers, and concatenates the findings in
// canonical prefix order.
func sweepPrefixes(h *History, parallelism int, eval func(xi uint32, p netip.Prefix) []Anomaly) []Anomaly {
	slots := make([][]Anomaly, len(h.prefixes))
	run := func(i int) { slots[i] = eval(uint32(i), h.prefixes[i]) }
	e := &pipeline.Engine{Workers: max(parallelism, 1)}
	e.For(len(h.prefixes), run)
	var out []Anomaly
	for _, as := range slots {
		out = append(out, as...)
	}
	return out
}

// originDelta is one ±1 change of an origin's live-route count at an
// instant, the unit the MOAS sweep aggregates.
type originDelta struct {
	at     time.Time
	origin bgp.ASN
	delta  int
}

// appendOriginDeltas folds one peer's merged pair+session stream and
// emits origin count deltas: the peer votes for its route's origin while
// the route is present (and has one), so an announcement moves the vote
// and withdrawals and session downs clear it.
func appendOriginDeltas(deltas []originDelta, evs, sess []histEvent) []originDelta {
	c := pairCursor{evs: evs, sess: sess}
	var vote bgp.ASN
	voting := false
	for ev := c.next(); ev != nil; ev = c.next() {
		var o bgp.ASN
		ok := false
		if c.st.Present {
			o, ok = c.st.Path.Origin()
		}
		if ok == voting && o == vote {
			continue
		}
		if voting {
			deltas = append(deltas, originDelta{at: ev.at, origin: vote, delta: -1})
		}
		if ok {
			deltas = append(deltas, originDelta{at: ev.at, origin: o, delta: 1})
		}
		vote, voting = o, ok
	}
	return deltas
}

// presenceDelta is one ±1 change of a prefix's visible-peer count.
type presenceDelta struct {
	at    time.Time
	delta int
}

// appendPresenceDeltas folds one peer's merged pair+session stream and
// emits a visibility delta whenever the route's presence flips,
// collecting announced origins into origins.
func appendPresenceDeltas(deltas []presenceDelta, evs, sess []histEvent, origins map[bgp.ASN]bool) []presenceDelta {
	c := pairCursor{evs: evs, sess: sess}
	present := false
	for ev := c.next(); ev != nil; ev = c.next() {
		if ev.kind == evAnnounce {
			if o, ok := ev.path.Origin(); ok {
				origins[o] = true
			}
		}
		if c.st.Present == present {
			continue
		}
		present = c.st.Present
		delta := -1
		if present {
			delta = 1
		}
		deltas = append(deltas, presenceDelta{at: ev.at, delta: delta})
	}
	return deltas
}

// clipWindow intersects [start, end] with the evaluation window and
// applies the minimum-lifespan gate.
func clipWindow(start, end time.Time, win Window, minDur time.Duration) (Anomaly, bool) {
	if !win.From.IsZero() && start.Before(win.From) {
		start = win.From
	}
	if !win.To.IsZero() && end.After(win.To) {
		end = win.To
	}
	if end.Sub(start) < minDur {
		return Anomaly{}, false
	}
	return Anomaly{Start: start, End: end}, true
}

// collectLive adds every origin with a positive live count to set.
func collectLive(set map[bgp.ASN]bool, live map[bgp.ASN]int) {
	for o, n := range live {
		if n > 0 {
			set[o] = true
		}
	}
}

// communitiesEqual compares two community lists elementwise (order
// matters: the wire order is part of the attribute).
func communitiesEqual(a, b []bgp.Community) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sortedOrigins flattens an origin set into a sorted slice.
func sortedOrigins(set map[bgp.ASN]bool) []bgp.ASN {
	if len(set) == 0 {
		return nil
	}
	out := make([]bgp.ASN, 0, len(set))
	for o := range set {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
