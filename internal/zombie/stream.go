package zombie

import (
	"net/netip"
	"slices"
	"sort"
	"time"

	"zombiescope/internal/beacon"
	"zombiescope/internal/bgp"
	"zombiescope/internal/mrt"
)

// StreamDetector is the real-time variant of the detection methodology —
// the paper's §6 "Real-time detection of BGP zombies" future-work item.
// Instead of post-processing archives, it consumes collector records as
// they arrive and emits a ZombieEvent the moment a (peer, prefix) passes
// the detection threshold after a withdrawal, so operators of infected
// ASes can be notified while the stuck route is still doing damage.
//
// It runs on the batch state model: records become events
// through recordEvents, events fold into each pair's State through the
// shared transition, and a check builds its routes with the Detector's
// route decision. Feed it records with Observe (they may arrive slightly
// out of order within a clock-skew bound) and drive its clock with
// Advance; emitted events arrive on the callback in detection-time order,
// and the events of one check in canonical peer order — the route order
// of the batch report's outbreak. The zero value is not usable; construct
// with NewStreamDetector.
type StreamDetector struct {
	// det carries the threshold and clock tolerance of the route
	// decision the stream shares with the batch kernel.
	det      Detector
	onZombie func(ZombieEvent)
	track    TrackSet

	// State per (peer, prefix): by peer for lookups and session downs,
	// and by prefix in canonical peer order, the order a check visits
	// and emits them in (the batch report's route order).
	byPeer   map[PeerID]map[netip.Prefix]*streamPair
	byPrefix map[netip.Prefix][]*streamPair
	// pending detection checks, time-ordered.
	checks []pendingCheck

	// ingestNanos is the stamp of the record currently being processed,
	// set by SetIngestStamp before Advance/Observe and copied onto every
	// ZombieEvent fired while it is current.
	ingestNanos int64
}

// ZombieEvent is an emitted real-time detection.
type ZombieEvent struct {
	Peer        PeerID
	Prefix      netip.Prefix
	Interval    beacon.Interval
	Path        bgp.ASPath
	AnnouncedAt time.Time
	DetectedAt  time.Time
	// Duplicate marks a stuck route from an earlier interval (Aggregator
	// clock), already reported then.
	Duplicate bool
	// Resurrected marks a route that was withdrawn and came back without
	// a new beacon announcement before the check fired.
	Resurrected bool
	// IngestNanos is the monotonic process-clock stamp (obs.Nanos) of the
	// record whose Advance fired this detection — the latency-provenance
	// anchor carried through to the published alert. Zero when the driver
	// did not stamp (batch replays).
	IngestNanos int64
}

// streamPair is the live state of one (peer, prefix): the shared State,
// plus the stream-only record that a withdrawal or session down once
// removed the route, for resurrection marking.
type streamPair struct {
	peer      PeerID
	st        State
	withdrawn bool
}

// apply folds one event into the pair through the shared transition.
func (sp *streamPair) apply(ev *histEvent) {
	was := sp.st.Present
	sp.st.apply(ev)
	sp.withdrawn = sp.withdrawn || (was && !sp.st.Present)
}

type pendingCheck struct {
	at       time.Time
	interval beacon.Interval
}

// NewStreamDetector builds a streaming detector for the given beacon
// intervals. onZombie is called synchronously from Advance.
func NewStreamDetector(intervals []beacon.Interval, threshold time.Duration, onZombie func(ZombieEvent)) *StreamDetector {
	sd := &StreamDetector{
		det:      Detector{Threshold: threshold},
		onZombie: onZombie,
		track:    make(TrackSet),
		byPeer:   make(map[PeerID]map[netip.Prefix]*streamPair),
		byPrefix: make(map[netip.Prefix][]*streamPair),
	}
	for _, iv := range intervals {
		sd.track[iv.Prefix] = true
		sd.checks = append(sd.checks, pendingCheck{at: iv.WithdrawAt.Add(sd.det.threshold()), interval: iv})
	}
	sort.SliceStable(sd.checks, func(i, j int) bool { return sd.checks[i].at.Before(sd.checks[j].at) })
	return sd
}

// Observe ingests one collector record. Records timestamped after the
// current Advance watermark are fine (they usually are); records for
// untracked prefixes are ignored, and a record that fails to decode
// changes nothing. Events apply in arrival order, so the archive position
// recordEvents stamps is unused.
func (sd *StreamDetector) Observe(collectorName string, rec mrt.Record) {
	_ = recordEvents(collectorName, 0, rec, sd.track, nil, sd.prefixEvent, sd.sessionEvent)
}

// prefixEvent applies an announcement or withdrawal to its pair.
func (sd *StreamDetector) prefixEvent(peer PeerID, p netip.Prefix, ev histEvent) {
	pairs := sd.byPeer[peer]
	if pairs == nil {
		pairs = make(map[netip.Prefix]*streamPair)
		sd.byPeer[peer] = pairs
	}
	sp := pairs[p]
	if sp == nil {
		sp = &streamPair{peer: peer}
		pairs[p] = sp
		ps := sd.byPrefix[p]
		i, _ := slices.BinarySearchFunc(ps, peer, func(x *streamPair, peer PeerID) int { return comparePeers(x.peer, peer) })
		sd.byPrefix[p] = slices.Insert(ps, i, sp)
	}
	sp.apply(&ev)
}

// sessionEvent applies a session transition to every pair of the peer.
func (sd *StreamDetector) sessionEvent(peer PeerID, ev histEvent) {
	for _, sp := range sd.byPeer[peer] {
		sp.apply(&ev)
	}
}

// Advance moves the detection clock to `now`, firing every check whose
// instant has passed, in order. Call it with the record timestamps as the
// stream progresses (and once with a late timestamp to flush).
func (sd *StreamDetector) Advance(now time.Time) {
	for len(sd.checks) > 0 && !sd.checks[0].at.After(now) {
		check := sd.checks[0]
		sd.checks = sd.checks[1:]
		sd.fire(check)
	}
}

// fire emits every route of the check's prefix still present, in
// canonical peer order, each built by the batch route decision.
func (sd *StreamDetector) fire(check pendingCheck) {
	if sd.onZombie == nil {
		return
	}
	iv := check.interval
	for _, sp := range sd.byPrefix[iv.Prefix] {
		if !sp.st.Present {
			continue
		}
		r := sd.det.zombieRoute(sp.peer, iv, sp.st)
		sd.onZombie(ZombieEvent{
			IngestNanos: sd.ingestNanos,
			Peer:        r.Peer,
			Prefix:      r.Prefix,
			Interval:    r.Interval,
			Path:        r.Path,
			AnnouncedAt: r.AnnouncedAt,
			DetectedAt:  check.at,
			Duplicate:   r.Duplicate,
			// The route had been withdrawn at this peer and came back
			// after the interval's withdrawal without a new beacon
			// announcement: a live resurrection.
			Resurrected: sp.withdrawn &&
				sp.st.At.After(iv.WithdrawAt) &&
				r.AnnouncedAt.Before(sp.st.At.Add(-sd.det.tolerance())),
		})
	}
}

// PendingChecks reports how many interval checks have not fired yet.
func (sd *StreamDetector) PendingChecks() int { return len(sd.checks) }

// SetIngestStamp records the monotonic ingest stamp (obs.Nanos) of the
// record about to be fed through Advance/Observe. Detections fired while
// the stamp is current carry it as ZombieEvent.IngestNanos, so alert
// latency can be measured end to end from the moment the triggering
// record entered the process.
func (sd *StreamDetector) SetIngestStamp(nanos int64) { sd.ingestNanos = nanos }
