package livefeed

import (
	"encoding/json"
	"fmt"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"zombiescope/internal/bgp"
	"zombiescope/internal/experiments"
	"zombiescope/internal/zombie"
)

func TestAnomalyEvent(t *testing.T) {
	start := time.Date(2024, 6, 10, 3, 0, 0, 0, time.UTC)
	a := zombie.Anomaly{
		Detector: "community",
		Kind:     zombie.KindCommunityStorm,
		Prefix:   netip.MustParsePrefix("2a0e:cccc::/48"),
		Peer:     zombie.PeerID{Collector: "rrc00", AS: 200, Addr: netip.MustParseAddr("2001:db8:feed::200")},
		Start:    start,
		End:      start.Add(30 * time.Minute),
		Count:    30,
		Detail:   "30 community changes in 30m",
	}
	ev := AnomalyEvent(a)
	if ev.Channel != ChannelAnomaly || ev.Type != a.Kind {
		t.Fatalf("channel/type = %s/%s, want %s/%s", ev.Channel, ev.Type, ChannelAnomaly, a.Kind)
	}
	if ev.Collector != "rrc00" || ev.PeerAS != 200 || ev.Peer != a.Peer.Addr {
		t.Fatalf("peer identity did not carry over: %+v", ev)
	}
	if !ev.Timestamp.Equal(a.End) {
		t.Fatalf("timestamp = %v, want finding end %v", ev.Timestamp, a.End)
	}
	if ps := ev.Prefixes(); len(ps) != 1 || ps[0] != a.Prefix {
		t.Fatalf("Prefixes() = %v, want [%v]", ps, a.Prefix)
	}

	// The anomaly channel is plain string matching in Filter: a
	// channel-scoped subscription needs no broker changes.
	anomalyOnly := Filter{Channels: []string{ChannelAnomaly}}
	if !anomalyOnly.Match(&ev) {
		t.Fatal("anomaly filter rejected an anomaly event")
	}
	updatesOnly := Filter{Channels: []string{ChannelUpdates}}
	if updatesOnly.Match(&ev) {
		t.Fatal("updates filter accepted an anomaly event")
	}

	// The payload survives the wire encoding (events travel as JSON).
	blob, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	var back Event
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Anomaly == nil {
		t.Fatal("anomaly payload lost across JSON round trip")
	}
	if !reflect.DeepEqual(*back.Anomaly, AnomalyAlert{
		Detector: a.Detector, Kind: a.Kind, Prefix: a.Prefix,
		PeerAS: a.Peer.AS, Peer: a.Peer.Addr,
		Start: a.Start, End: a.End, Count: a.Count, Detail: a.Detail,
	}) {
		t.Fatalf("alert changed across JSON round trip: %+v", back.Anomaly)
	}
}

func TestAnomalyEventOrigins(t *testing.T) {
	a := zombie.Anomaly{
		Detector: "moas",
		Kind:     zombie.KindMOASConflict,
		Prefix:   netip.MustParsePrefix("2a0e:aaaa::/48"),
		Origins:  []bgp.ASN{100, 400},
		Start:    time.Date(2024, 6, 10, 4, 0, 0, 0, time.UTC),
		End:      time.Date(2024, 6, 10, 8, 0, 0, 0, time.UTC),
		Count:    2,
	}
	ev := AnomalyEvent(a)
	blob, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	var back Event
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Anomaly == nil || len(back.Anomaly.Origins) != 2 ||
		back.Anomaly.Origins[0] != 100 || back.Anomaly.Origins[1] != 400 {
		t.Fatalf("origins changed across JSON round trip: %+v", back.Anomaly)
	}
	// Prefix-level findings carry no peer identity.
	if back.PeerAS != 0 || back.Peer.IsValid() {
		t.Fatalf("prefix-level finding grew a peer: %+v", back)
	}
}

// TestDetectAnomaliesPublishesOnce evaluates a growing stream three
// times: every call returns the complete report, but no finding reaches
// the anomaly channel twice, and every finding of the last report was
// published by some call.
func TestDetectAnomaliesPublishesOnce(t *testing.T) {
	sc, err := experiments.RunAnomalyScenario("mixed", 1)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := MergeUpdates(sc.Updates)
	if err != nil {
		t.Fatal(err)
	}
	broker := NewBroker(Config{RingSize: 1 << 16})
	defer broker.Close()
	sub, _, err := broker.Subscribe(Filter{}, PolicyDropOldest, 0)
	if err != nil {
		t.Fatal(err)
	}
	pipe := NewPipeline(broker, sc.Intervals, 0)
	if err := pipe.EnableAnomalies(nil, zombie.AnomalyConfig{Intervals: sc.Intervals}); err != nil {
		t.Fatal(err)
	}

	key := func(detector, kind string, prefix netip.Prefix, collector string, as bgp.ASN, peer netip.Addr, start time.Time) string {
		return fmt.Sprintf("%s|%s|%s|%s|%d|%s|%d", detector, kind, prefix, collector, as, peer, start.UnixNano())
	}
	var rep *zombie.AnomalyReport
	reported := 0
	prev := 0
	for _, cut := range []int{len(stream) / 3, 2 * len(stream) / 3, len(stream)} {
		for _, sr := range stream[prev:cut] {
			pipe.Ingest(sr)
		}
		prev = cut
		rep = pipe.DetectAnomalies(sc.Window)
		reported += len(rep.Findings)
	}
	if len(rep.Findings) == 0 {
		t.Fatal("mixed scenario produced no findings; the test would prove nothing")
	}

	published := make(map[string]int)
	for _, ev := range drainUntil(t, sub, broker.Seq()) {
		if ev.Channel != ChannelAnomaly {
			continue
		}
		al := ev.Anomaly
		k := key(al.Detector, al.Kind, al.Prefix, ev.Collector, al.PeerAS, al.Peer, al.Start)
		if published[k]++; published[k] == 2 {
			t.Errorf("finding %s published twice", k)
		}
	}
	if reported == len(published) {
		t.Fatalf("no finding was reported by more than one call (%d reported); the test would prove nothing", reported)
	}
	for _, a := range rep.Findings {
		if k := key(a.Detector, a.Kind, a.Prefix, a.Peer.Collector, a.Peer.AS, a.Peer.Addr, a.Start); published[k] == 0 {
			t.Errorf("finding %s of the last report was never published", k)
		}
	}
}
