package zombie

import (
	"net/netip"
	"time"

	"zombiescope/internal/bgp"
	"zombiescope/internal/mrt"
	"zombiescope/internal/obs"
	"zombiescope/internal/pipeline"
)

// eventKind classifies a history event.
type eventKind uint8

const (
	evAnnounce eventKind = iota
	evWithdraw
	evSessionDown
	evSessionUp
)

// histEvent is one state-relevant event for a (peer, prefix).
type histEvent struct {
	at    time.Time
	order int // archive position, breaks same-second ties
	kind  eventKind
	path  bgp.ASPath
	agg   *bgp.Aggregator
	comms []bgp.Community // nil when the announcement carried none
}

// History is the reconstructed message-level state of every tracked
// (peer, prefix) pair, the substrate of the revised methodology.
//
// The store is columnar: peers and prefixes are canonicalized to dense
// sorted indices, every (peer, prefix) event stream is a contiguous span
// of one shared arena (laid out in ascending pairKey order), and session
// events live in a parallel arena spanned per peer. The layout is built by
// sealHistory in columnar.go and is identical no matter how many builders
// produced the events.
type History struct {
	peers     []PeerID
	prefixes  []netip.Prefix
	peerIdx   map[PeerID]uint32
	prefixIdx map[netip.Prefix]uint32
	events    []histEvent     // pair-event arena
	pairs     map[uint64]span // pairKey -> slice of events
	pairKeys  []uint64        // sorted pair keys: the arena's span order
	sess      []histEvent     // session-event arena
	sessSpans []span          // indexed by peer index; zero span = none
}

// TrackSet selects the prefixes worth reconstructing (beacon prefixes).
// A nil TrackSet tracks every prefix seen in the archives — the mode the
// anomaly detectors run in, since MOAS conflicts and hyper-specific leaks
// by definition involve prefixes no beacon schedule names.
type TrackSet map[netip.Prefix]bool

// tracks reports whether p should be reconstructed (nil = track all).
func (ts TrackSet) tracks(p netip.Prefix) bool {
	return ts == nil || ts[p]
}

// NewTrackSet builds a TrackSet from prefixes.
func NewTrackSet(prefixes []netip.Prefix) TrackSet {
	ts := make(TrackSet, len(prefixes))
	for _, p := range prefixes {
		ts[p] = true
	}
	return ts
}

// BuildHistory parses MRT update archives (one per collector, keyed by
// collector name) and reconstructs per-(peer, prefix) event histories for
// the tracked prefixes. Records of other prefixes are ignored. It is
// BuildHistoryStreams on one worker, each archive one segment.
func BuildHistory(updates map[string][]byte, track TrackSet) (*History, error) {
	return BuildHistoryStreams(oneSegment(updates), track, 0)
}

// oneSegment presents whole archives as single-segment streams.
func oneSegment(updates map[string][]byte) map[string][][]byte {
	streams := make(map[string][][]byte, len(updates))
	for name, data := range updates {
		streams[name] = [][]byte{data}
	}
	return streams
}

// BuildHistoryStreams reconstructs the History from segmented update
// streams: each collector's value is an ordered list of MRT segments (e.g.
// the mmapped rotated files of archive.OpenMapped) forming one logical
// stream, consumed zero-copy. Record numbering and the resulting History
// are identical to building from the concatenated streams.
//
// The archives are decoded in record-aligned chunks by the pipeline
// engine in borrowed-buffer mode, and updates are decoded through a
// reused scratch workspace with interned AS paths: nothing a record
// allocates outlives the record except the events themselves. With
// parallelism <= 1 the chunks run inline in stream order and every event
// goes straight into one builder. With more workers, events are routed to
// PeerID-hashed shards, each shard builds its slice lock-free in stream
// order, and the shards seal into the same canonical History.
func BuildHistoryStreams(streams map[string][][]byte, track TrackSet, parallelism int) (*History, error) {
	nshards := max(parallelism, 1)
	sp := obs.StartSpan("zombie.build_history")
	sp.SetArg("collectors", len(streams))
	sp.SetArg("shards", nshards)
	defer sp.End()
	e := &pipeline.Engine{Workers: nshards, Trace: sp, Borrow: true}
	m := pipeline.Default
	var builders []*histBuilder
	var err error
	if nshards == 1 {
		builders, err = foldOneBuilder(e, streams, track, m)
	} else {
		builders, err = foldShards(e, streams, track, nshards, sp, m)
	}
	if err != nil {
		return nil, wrapFileError(err)
	}

	// Merge: sealHistory renumbers canonically and lays out the arenas,
	// identically for one builder or many.
	mergeStart := time.Now()
	mergeSp := sp.Start("zombie.merge")
	h := sealHistory(builders)
	mergeSp.End()
	m.AddMerged(len(builders))
	m.ObserveMerge(time.Since(mergeStart))
	m.SyncHotPath()
	return h, nil
}

// foldOneBuilder is the single-worker fold. A one-worker engine runs the
// chunks inline in stream order, so every chunk shares the one builder
// and the one decode scratch.
func foldOneBuilder(e *pipeline.Engine, streams map[string][][]byte, track TrackSet, m *pipeline.Metrics) ([]*histBuilder, error) {
	b := newHistBuilder()
	var scratch bgp.Scratch
	_, _, err := pipeline.FoldStreams(e, streams,
		func(pipeline.FileChunk) *histBuilder { return b },
		func(_ *histBuilder, fc pipeline.FileChunk, idx int, rec mrt.Record) error {
			return recordEvents(fc.Name, fc.FileBase+idx+1, rec, track, &scratch, b.add, b.addSession)
		})
	if err != nil {
		return nil, err
	}
	m.AddSharded(len(b.events) + len(b.sess))
	return []*histBuilder{b}, nil
}

// peerEvent is one extracted history event tagged with its destination.
type peerEvent struct {
	peer    PeerID
	prefix  netip.Prefix
	session bool
	ev      histEvent
}

// eventBuckets is a per-chunk accumulator: extracted events pre-routed to
// their peer shard, in stream order within the chunk, plus the decode
// scratch workspace reused across the chunk's records.
type eventBuckets struct {
	scratch bgp.Scratch
	shards  [][]peerEvent
}

// foldShards is the multi-worker fold: chunks decode concurrently into
// per-chunk buckets, then each shard replays its events walking files and
// chunks in stream order, so every (peer, prefix) stream lands in its
// builder in stream order. Lock-free: a PeerID maps to exactly one shard,
// so a pair never spans builders.
func foldShards(e *pipeline.Engine, streams map[string][][]byte, track TrackSet, nshards int,
	sp *obs.Span, m *pipeline.Metrics) ([]*histBuilder, error) {
	names, accs, err := pipeline.FoldStreams(e, streams,
		func(pipeline.FileChunk) *eventBuckets {
			return &eventBuckets{shards: make([][]peerEvent, nshards)}
		},
		func(acc *eventBuckets, fc pipeline.FileChunk, idx int, rec mrt.Record) error {
			// order only has to be monotone in stream position per file
			// (events of one PeerID never span files).
			return recordEvents(fc.Name, fc.FileBase+idx+1, rec, track, &acc.scratch,
				func(peer PeerID, p netip.Prefix, ev histEvent) {
					s := shardOfPeer(peer, nshards)
					acc.shards[s] = append(acc.shards[s], peerEvent{peer: peer, prefix: p, ev: ev})
				},
				func(peer PeerID, ev histEvent) {
					s := shardOfPeer(peer, nshards)
					acc.shards[s] = append(acc.shards[s], peerEvent{peer: peer, session: true, ev: ev})
				})
		})
	if err != nil {
		return nil, err
	}
	buildStart := time.Now()
	buildSp := sp.Start("zombie.shard_build")
	builders := make([]*histBuilder, nshards)
	e.For(nshards, func(s int) {
		b := newHistBuilder()
		n := 0
		for i := range names {
			for _, acc := range accs[i] {
				for _, pe := range acc.shards[s] {
					if pe.session {
						b.addSession(pe.peer, pe.ev)
					} else {
						b.add(pe.peer, pe.prefix, pe.ev)
					}
					n++
				}
			}
		}
		builders[s] = b
		m.AddSharded(n)
	})
	buildSp.End()
	m.ObserveBuild(time.Since(buildStart))
	return builders, nil
}

// recordEvents converts one update-file record into its history events.
// It is the one record-to-event extraction: the batch builders, the
// journal and anomaly streams, StreamDetector and the reference builder
// of the tests all go through it, so only the scheduling (and the decode
// mode) differs, never the per-record semantics. Within one record,
// withdrawals are emitted before announcements — the tie the stable event
// sort preserves.
//
// With scratch non-nil the BGP message is decoded zero-copy into the
// scratch workspace with interned AS paths and aggregators; the update is
// only valid until the next call, but everything stored into histEvents
// (interned path/agg, prefix values) is retention-safe. With scratch nil
// the original fully-allocating decode runs; it interns nothing, which
// keeps the process-wide intern tables bounded under the long-running
// streams (StreamDetector, AnomalyStream) that use it.
func recordEvents(name string, order int, rec mrt.Record, track TrackSet, scratch *bgp.Scratch,
	prefixEv func(peer PeerID, p netip.Prefix, ev histEvent),
	sessionEv func(peer PeerID, ev histEvent),
) error {
	switch r := rec.(type) {
	case *mrt.BGP4MPMessage:
		peer := PeerID{Collector: name, AS: r.PeerAS, Addr: r.PeerIP}
		var u *bgp.Update
		var err error
		if scratch != nil {
			u, err = scratch.DecodeUpdate(r.Data, bgp.DecodeBorrow|bgp.DecodeIntern)
		} else {
			u, err = r.Update()
		}
		if err != nil {
			return err
		}
		// Withdrawals before announcements; within each, top-level routes
		// before MP attributes — the same order WithdrawnAll/Announced
		// return, without materializing the combined slices.
		for _, p := range u.Withdrawn {
			if track.tracks(p) {
				prefixEv(peer, p, histEvent{at: r.Timestamp, order: order, kind: evWithdraw})
			}
		}
		if u.Attrs.MPUnreach != nil {
			for _, p := range u.Attrs.MPUnreach.Withdrawn {
				if track.tracks(p) {
					prefixEv(peer, p, histEvent{at: r.Timestamp, order: order, kind: evWithdraw})
				}
			}
		}
		// Empty lists store as nil. Only the scratch decode reuses the
		// backing array, so only it needs the copy: an allocating
		// decode's list is already the event's own.
		comms := u.Attrs.Communities
		if scratch != nil || len(comms) == 0 {
			comms = cloneCommunities(comms)
		}
		annEv := histEvent{
			at:    r.Timestamp,
			order: order,
			kind:  evAnnounce,
			path:  u.Attrs.ASPath,
			agg:   u.Attrs.Aggregator,
			comms: comms,
		}
		for _, p := range u.NLRI {
			if track.tracks(p) {
				prefixEv(peer, p, annEv)
			}
		}
		if u.Attrs.MPReach != nil {
			for _, p := range u.Attrs.MPReach.NLRI {
				if track.tracks(p) {
					prefixEv(peer, p, annEv)
				}
			}
		}
	case *mrt.BGP4MPStateChange:
		peer := PeerID{Collector: name, AS: r.PeerAS, Addr: r.PeerIP}
		kind := evSessionUp
		if r.Down() {
			kind = evSessionDown
		} else if !r.Up() {
			return nil
		}
		sessionEv(peer, histEvent{at: r.Timestamp, order: order, kind: kind})
	}
	return nil
}

// cloneCommunities copies a decoded community list for retention. The
// scratch decoder reuses its Communities backing array across records, so
// anything stored into the arena must be copied out. Empty lists map to
// nil: records without communities stay allocation-free (the alloc fence
// counts on it) and both decode modes produce the same stored value.
func cloneCommunities(cs []bgp.Community) []bgp.Community {
	if len(cs) == 0 {
		return nil
	}
	out := make([]bgp.Community, len(cs))
	copy(out, cs)
	return out
}

// pairEvents returns the time-ordered event stream of (peer, p).
func (h *History) pairEvents(peer PeerID, p netip.Prefix) []histEvent {
	pi, ok := h.peerIdx[peer]
	if !ok {
		return nil
	}
	xi, ok := h.prefixIdx[p]
	if !ok {
		return nil
	}
	sp, ok := h.pairs[pairKey(pi, xi)]
	if !ok {
		return nil
	}
	return h.events[sp.off : sp.off+sp.n]
}

// sessionEvents returns the time-ordered session stream of peer.
func (h *History) sessionEvents(peer PeerID) []histEvent {
	pi, ok := h.peerIdx[peer]
	if !ok {
		return nil
	}
	sp := h.sessSpans[pi]
	return h.sess[sp.off : sp.off+sp.n]
}

// Peers returns every peer seen in the archives, sorted.
func (h *History) Peers() []PeerID {
	return h.peers
}

// State is the reconstructed status of a (peer, prefix) at an instant.
type State struct {
	Present bool
	// Path/Agg/At describe the last announcement when Present.
	Path bgp.ASPath
	Agg  *bgp.Aggregator
	At   time.Time
	// LastEvent is the time of the last event of any kind before the
	// query instant (zero if none).
	LastEvent time.Time
}

// apply is the one state transition of the zombie model. An
// announcement installs the route, a withdrawal removes it, and a session
// down clears the peer's route (a dead session cannot host a zombie);
// session ups change nothing. A withdrawal keeps At; Path/Agg/At are only
// meaningful while Present.
func (st *State) apply(ev *histEvent) {
	switch ev.kind {
	case evAnnounce:
		*st = State{Present: true, Path: ev.path, Agg: ev.agg, At: ev.at, LastEvent: ev.at}
	case evWithdraw:
		st.Present, st.Path, st.Agg, st.LastEvent = false, bgp.ASPath{}, nil, ev.at
	case evSessionDown:
		*st = State{LastEvent: ev.at}
	}
}

// pairCursor is the one fold of the zombie state model: it merges a
// pair's event stream with its peer's session stream in eventLess order
// and applies each event to the running State, resumably. A nil session
// stream ignores session state (the legacy methodology and the
// IgnoreSessionState ablation).
type pairCursor struct {
	evs, sess []histEvent
	i, j      int
	st        State
}

// head returns the next merged event without consuming it, and whether
// it comes from the session stream; nil at the end.
func (c *pairCursor) head() (*histEvent, bool) {
	if c.j < len(c.sess) && (c.i >= len(c.evs) || eventLess(c.sess[c.j], c.evs[c.i])) {
		return &c.sess[c.j], true
	}
	if c.i < len(c.evs) {
		return &c.evs[c.i], false
	}
	return nil, false
}

// take consumes ev, the head from the stream isSess names, and folds it
// into the state.
func (c *pairCursor) take(ev *histEvent, isSess bool) {
	if isSess {
		c.j++
	} else {
		c.i++
	}
	c.st.apply(ev)
}

// next consumes the next merged event, folds it into the state and
// returns it; nil at the end.
func (c *pairCursor) next() *histEvent {
	ev, isSess := c.head()
	if ev != nil {
		c.take(ev, isSess)
	}
	return ev
}

// advance folds every event strictly before t into the state and returns
// it. t must not decrease across calls on one cursor.
func (c *pairCursor) advance(t time.Time) State {
	for ev, isSess := c.head(); ev != nil && ev.at.Before(t); ev, isSess = c.head() {
		c.take(ev, isSess)
	}
	return c.st
}

// StateAt reconstructs the state of (peer, prefix) at time t, honoring
// session downs and ignoring events at or after t.
func (h *History) StateAt(peer PeerID, p netip.Prefix, t time.Time) State {
	c := pairCursor{evs: h.pairEvents(peer, p), sess: h.sessionEvents(peer)}
	return c.advance(t)
}

// SeenAnnounced reports whether any peer announced p within [from, to).
func (h *History) SeenAnnounced(p netip.Prefix, from, to time.Time) bool {
	xi, ok := h.prefixIdx[p]
	if !ok {
		return false
	}
	for pi := range h.peers {
		sp, ok := h.pairs[pairKey(uint32(pi), xi)]
		if !ok {
			continue
		}
		for _, ev := range h.events[sp.off : sp.off+sp.n] {
			if ev.kind == evAnnounce && !ev.at.Before(from) && ev.at.Before(to) {
				return true
			}
		}
	}
	return false
}
