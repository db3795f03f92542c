package zombie

import (
	"bytes"
	"fmt"
	"io"
	"net/netip"
	"sort"
	"time"

	"zombiescope/internal/mrt"
)

// refHistory is the original map-of-maps history store, kept as the
// differential oracle for the columnar store: buildHistoryReference feeds
// the same recordEvents stream through it with a sequential mrt.Reader and
// the original fully-allocating decode path, and the harness asserts the
// detectors see no difference. It shares nothing with the columnar layout
// beyond recordEvents.
type refHistory struct {
	// events per peer per prefix, time-ordered.
	events map[PeerID]map[netip.Prefix][]histEvent
	// session events per peer (downs clear all prefixes), time-ordered.
	session map[PeerID][]histEvent
	peers   []PeerID
}

// buildHistoryReference is BuildHistory over the original store, the
// sequential reader and the original allocating decode path. Slow but
// simple.
func buildHistoryReference(updates map[string][]byte, track TrackSet) (*refHistory, error) {
	r := &refHistory{
		events:  make(map[PeerID]map[netip.Prefix][]histEvent),
		session: make(map[PeerID][]histEvent),
	}
	names := make([]string, 0, len(updates))
	for name := range updates {
		names = append(names, name)
	}
	sort.Strings(names)
	order := 0
	for _, name := range names {
		rd := mrt.NewReader(bytes.NewReader(updates[name]))
		for {
			rec, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				rd.Release()
				return nil, fmt.Errorf("zombie: collector %s: %w", name, err)
			}
			order++
			if err := recordEvents(name, order, rec, track, nil, r.add, r.addSession); err != nil {
				rd.Release()
				return nil, fmt.Errorf("zombie: collector %s: %w", name, err)
			}
		}
		rd.Release()
	}
	r.finish()
	return r, nil
}

func (r *refHistory) add(peer PeerID, p netip.Prefix, ev histEvent) {
	m := r.events[peer]
	if m == nil {
		m = make(map[netip.Prefix][]histEvent)
		r.events[peer] = m
		r.peers = append(r.peers, peer)
	}
	m[p] = append(m[p], ev)
}

func (r *refHistory) addSession(peer PeerID, ev histEvent) {
	r.session[peer] = append(r.session[peer], ev)
	r.touch(peer)
}

func (r *refHistory) touch(peer PeerID) {
	if _, ok := r.events[peer]; !ok {
		r.events[peer] = make(map[netip.Prefix][]histEvent)
		r.peers = append(r.peers, peer)
	}
}

func (r *refHistory) finish() {
	for _, m := range r.events {
		for _, evs := range m {
			sort.SliceStable(evs, func(i, j int) bool { return eventLess(evs[i], evs[j]) })
		}
	}
	for _, evs := range r.session {
		sort.SliceStable(evs, func(i, j int) bool { return eventLess(evs[i], evs[j]) })
	}
	sort.Slice(r.peers, func(i, j int) bool { return comparePeers(r.peers[i], r.peers[j]) < 0 })
}

func (r *refHistory) pairEvents(peer PeerID, p netip.Prefix) []histEvent {
	return r.events[peer][p]
}

func (r *refHistory) sessionEvents(peer PeerID) []histEvent { return r.session[peer] }

func (r *refHistory) Peers() []PeerID { return r.peers }

func (r *refHistory) SeenAnnounced(p netip.Prefix, from, to time.Time) bool {
	for _, m := range r.events {
		for _, ev := range m[p] {
			if ev.kind == evAnnounce && !ev.at.Before(from) && ev.at.Before(to) {
				return true
			}
		}
	}
	return false
}
