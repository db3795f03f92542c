package zombie

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"strings"
	"testing"
	"time"

	"zombiescope/internal/beacon"
	"zombiescope/internal/bgp"
	"zombiescope/internal/mrt"
)

// Error parity on malformed archives: the builder, Detect and the lifespan
// tracker must fail with the same message at every parallelism, and with
// the same message as the sequential oracles — the error a sequential scan
// in collector-name order would have stopped at first, wrapped with the
// collector's name and unwrappable to its sentinel.

var (
	parityPrefix = netip.MustParsePrefix("93.175.146.0/24")
	parityIvs    = []beacon.Interval{{
		Prefix: parityPrefix, AnnounceAt: t0, WithdrawAt: t0.Add(2 * time.Hour), End: t0.Add(4 * time.Hour),
	}}
	// parityPad is enough padding records to cut a file into several
	// pipeline chunks (64 KiB minimum each), so errors land in different
	// chunks decoded concurrently.
	parityPad = 3000
)

func writeRecords(t *testing.T, recs ...mrt.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	wr := mrt.NewWriter(&buf)
	for _, rec := range recs {
		if err := wr.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// oversized appends an MRT header whose length exceeds mrt.MaxRecordLen.
func oversized(data []byte) []byte {
	hdr := make([]byte, mrt.HeaderLen)
	binary.BigEndian.PutUint32(hdr[8:], mrt.MaxRecordLen+1)
	return append(append([]byte(nil), data...), hdr...)
}

// truncated cuts the last record of data mid-body.
func truncated(data []byte) []byte { return data[:len(data)-5] }

// otherShards returns the first candidate whose shard differs from base's
// at every shard count the harness runs with more than one shard.
func otherShards[T any](t *testing.T, base T, shard func(T, int) int, candidates func(i int) T) T {
	t.Helper()
	for i := 0; i < 256; i++ {
		c := candidates(i)
		if shard(c, 2) != shard(base, 2) && shard(c, 8) != shard(base, 8) {
			return c
		}
	}
	t.Fatal("no candidate in another shard")
	panic("unreachable")
}

// checkParity requires every result to fail with one message that names
// the collector and wraps sentinel.
func checkParity(t *testing.T, errs map[string]error, sentinel error, names string) {
	t.Helper()
	var want string
	for label, err := range errs {
		if err == nil {
			t.Errorf("%s: no error on malformed input", label)
			continue
		}
		if !errors.Is(err, sentinel) {
			t.Errorf("%s: %v does not wrap %v", label, err, sentinel)
		}
		if !strings.Contains(err.Error(), names) {
			t.Errorf("%s: %q does not name %q", label, err, names)
		}
		if want == "" {
			want = err.Error()
		}
	}
	for label, err := range errs {
		if err != nil && err.Error() != want {
			t.Errorf("messages diverge:\n%s: %v\nothers: %s", label, err, want)
		}
	}
}

func TestHistoryErrorParity(t *testing.T) {
	u := &bgp.Update{
		NLRI: []netip.Prefix{parityPrefix},
		Attrs: bgp.PathAttributes{
			HasOrigin: true,
			ASPath:    bgp.NewASPath(200, 210312),
			NextHop:   netip.MustParseAddr("192.0.2.1"),
		},
	}
	wire, err := u.AppendWireFormat(nil)
	if err != nil {
		t.Fatal(err)
	}
	badMarker := append([]byte(nil), wire...)
	badMarker[0] = 0
	short := wire[:len(wire)-3] // the BGP length field claims more
	peerAt := func(i int) PeerID {
		return PeerID{Collector: "rrc00", AS: 200, Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(i)})}
	}
	msg := func(peer PeerID, i int, data []byte) *mrt.BGP4MPMessage {
		return &mrt.BGP4MPMessage{
			Timestamp: t0.Add(time.Duration(i) * time.Second),
			PeerAS:    peer.AS, LocalAS: 12654, AFI: bgp.AFIIPv4,
			PeerIP: peer.Addr, LocalIP: netip.MustParseAddr("192.0.2.254"),
			Data: data,
		}
	}
	pad := func(recs []mrt.Record, peer PeerID) []mrt.Record {
		for i := 0; i < parityPad; i++ {
			recs = append(recs, msg(peer, len(recs), wire))
		}
		return recs
	}
	clean := writeRecords(t, pad(nil, peerAt(1))...)

	// Two malformed UPDATEs from peers of different shards, in different
	// chunks of one file: the earlier one must win.
	a := peerAt(1)
	b := otherShards(t, a, shardOfPeer, func(i int) PeerID { return peerAt(2 + i) })
	recs := pad(nil, a)
	recs = append(recs, msg(b, len(recs), badMarker))
	recs = pad(recs, a)
	recs = append(recs, msg(a, len(recs), short))
	recs = pad(recs, a)
	twoErrs := writeRecords(t, recs...)

	for _, tc := range []struct {
		name     string
		updates  map[string][]byte
		sentinel error
		names    string
	}{
		{"truncated record", map[string][]byte{"rrc00": clean, "rrc01": truncated(clean)}, mrt.ErrTruncated, "collector rrc01"},
		{"oversized length", map[string][]byte{"rrc00": oversized(clean), "rrc01": clean}, mrt.ErrRecordTooBig, "collector rrc00"},
		{"two errors in different shards", map[string][]byte{"rrc00": twoErrs, "rrc01": truncated(clean)}, bgp.ErrBadMarker, "collector rrc00"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			errs := make(map[string]error)
			_, errs["oracle"] = buildHistoryReference(tc.updates, nil)
			for _, par := range []int{0, 1, 2, 8} {
				_, errs[fmt.Sprintf("BuildHistoryStreams/%d", par)] = BuildHistoryStreams(oneSegment(tc.updates), nil, par)
				_, errs[fmt.Sprintf("Detect/%d", par)] = (&Detector{Parallelism: par}).Detect(tc.updates, parityIvs)
			}
			checkParity(t, errs, tc.sentinel, tc.names)
		})
	}
}

func TestLifespanErrorParity(t *testing.T) {
	table := &mrt.PeerIndexTable{
		Timestamp:   t0,
		CollectorID: netip.MustParseAddr("192.0.2.254"),
		Peers: []mrt.PeerEntry{{
			BGPID: netip.MustParseAddr("192.0.2.1"), Addr: netip.MustParseAddr("192.0.2.1"), AS: 200,
		}},
	}
	rib := func(p netip.Prefix, i int, peerIndex uint16) *mrt.RIB {
		return &mrt.RIB{
			Timestamp: t0.Add(time.Duration(i) * time.Second),
			Sequence:  uint32(i),
			Prefix:    p,
			Entries: []mrt.RIBEntry{{
				PeerIndex:      peerIndex,
				OriginatedTime: t0,
				Attrs: bgp.PathAttributes{
					HasOrigin: true,
					ASPath:    bgp.NewASPath(200, 210312),
					NextHop:   netip.MustParseAddr("192.0.2.1"),
				},
			}},
		}
	}
	pa := parityPrefix
	pb := otherShards(t, pa, shardOfPrefix, func(i int) netip.Prefix {
		return netip.PrefixFrom(netip.AddrFrom4([4]byte{93, 175, byte(147 + i), 0}), 24)
	})
	ivs := append([]beacon.Interval{{Prefix: pb, AnnounceAt: t0, WithdrawAt: t0.Add(2 * time.Hour), End: t0.Add(4 * time.Hour)}}, parityIvs...)
	// pad appends valid tracked RIBs, so the chunks after the table's
	// chunk resolve it by carry.
	pad := func(recs []mrt.Record) []mrt.Record {
		for i := 0; i < parityPad; i++ {
			recs = append(recs, rib(pa, len(recs), 0))
		}
		return recs
	}
	clean := writeRecords(t, pad([]mrt.Record{table})...)
	// A bad peer index deep in a later chunk: found through the carried
	// table, not mistaken for a missing one.
	badLate := writeRecords(t, append(pad([]mrt.Record{table}), rib(pb, parityPad+1, 7))...)
	noTable := writeRecords(t, append([]mrt.Record{rib(pa, 0, 0), table}, pad(nil)...)...)
	// A missing table at the head of the stream beats a decode error at
	// its tail, though the decode error surfaces in an earlier stage.
	noTableThenTruncated := truncated(noTable)
	// Two semantic errors in prefixes of different shards, in different
	// collectors: the first in collector-name order wins.
	noTableB := writeRecords(t, append([]mrt.Record{rib(pb, 0, 0), table}, pad(nil)...)...)

	for _, tc := range []struct {
		name     string
		dumps    map[string][]byte
		sentinel error
		names    string
	}{
		{"truncated record", map[string][]byte{"rrc00": clean, "rrc01": truncated(clean)}, mrt.ErrTruncated, "dumps rrc01"},
		{"oversized length", map[string][]byte{"rrc00": oversized(clean), "rrc01": clean}, mrt.ErrRecordTooBig, "dumps rrc00"},
		{"RIB before peer index table", map[string][]byte{"rrc00": clean, "rrc01": noTable}, mrt.ErrNoPeerIndex, "dumps rrc01"},
		{"peer index out of range", map[string][]byte{"rrc00": badLate, "rrc01": clean}, mrt.ErrBadPeerIndex, "dumps rrc00"},
		{"semantic error before a decode error", map[string][]byte{"rrc00": noTableThenTruncated}, mrt.ErrNoPeerIndex, "dumps rrc00"},
		{"semantic error before a later file's decode error", map[string][]byte{"rrc00": badLate, "rrc01": truncated(clean)}, mrt.ErrBadPeerIndex, "dumps rrc00"},
		{"two errors in different shards", map[string][]byte{"rrc00": badLate, "rrc01": noTableB}, mrt.ErrBadPeerIndex, "dumps rrc00"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			errs := make(map[string]error)
			_, errs["oracle"] = trackLifespansSequential(tc.dumps, ivs, LifespanConfig{})
			for _, par := range []int{0, 1, 2, 8} {
				_, errs[fmt.Sprintf("TrackLifespans/%d", par)] = TrackLifespans(tc.dumps, ivs, LifespanConfig{Parallelism: par})
			}
			checkParity(t, errs, tc.sentinel, tc.names)
		})
	}
}
