package zombie

import (
	"bytes"
	"fmt"
	"io"
	"net/netip"
	"sort"

	"zombiescope/internal/beacon"
	"zombiescope/internal/mrt"
)

// trackLifespansSequential is the lifespan oracle: TrackLifespans as one
// sequential mrt.Reader scan per dump file, with the PeerIndexTable
// tracked in stream order and no chunking, staging or sharding. It shares
// only foldSeries and finishLifespans with the production tracker, and is
// the independent reference the lifespan harness compares against.
func trackLifespansSequential(dumps map[string][]byte, intervals []beacon.Interval, cfg LifespanConfig) (*LifespanReport, error) {
	track := make(TrackSet)
	for _, iv := range intervals {
		track[iv.Prefix] = true
	}
	series := make(map[peerPrefix][]ribObs)
	names := make([]string, 0, len(dumps))
	for n := range dumps {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		rd := mrt.NewReader(bytes.NewReader(dumps[name]))
		var table *mrt.PeerIndexTable
		for {
			rec, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, fmt.Errorf("zombie: dumps %s: %w", name, err)
			}
			switch r := rec.(type) {
			case *mrt.PeerIndexTable:
				table = r
			case *mrt.RIB:
				if !track[r.Prefix] {
					continue
				}
				if table == nil {
					return nil, fmt.Errorf("zombie: dumps %s: %w", name, mrt.ErrNoPeerIndex)
				}
				for _, e := range r.Entries {
					if int(e.PeerIndex) >= len(table.Peers) {
						return nil, fmt.Errorf("zombie: dumps %s: %w", name, mrt.ErrBadPeerIndex)
					}
					pe := table.Peers[e.PeerIndex]
					k := peerPrefix{peer: PeerID{Collector: name, AS: pe.AS, Addr: pe.Addr}, prefix: r.Prefix}
					series[k] = append(series[k], ribObs{at: r.Timestamp, path: e.Attrs.ASPath})
				}
			}
		}
	}
	rep := &LifespanReport{Prefixes: make(map[netip.Prefix]*PrefixLifespan)}
	for k, obs := range series {
		cfg.foldSeries(rep, k, obs, intervals)
	}
	finishLifespans(rep, intervals)
	return rep, nil
}
