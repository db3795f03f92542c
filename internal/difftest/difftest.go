// Package difftest generates the randomized beacon campaigns the
// differential harnesses replay: a small multihomed topology, a seeded mix
// of the paper's zombie mechanisms (wedged links, dropped withdrawals,
// stuck RIBs), AS-level and collector session resets, and the collector
// archives the campaign leaves behind. Everything is driven by the seed,
// so a harness failure reproduces from the seed alone.
//
// It imports only the simulator stack (topology, netsim, collector), so
// the packages under test — zombie included — can use it from their own
// tests without an import cycle.
package difftest

import (
	"math/rand/v2"
	"net/netip"
	"time"

	"zombiescope/internal/beacon"
	"zombiescope/internal/bgp"
	"zombiescope/internal/collector"
	"zombiescope/internal/netsim"
	"zombiescope/internal/topology"
)

// Scenario is one simulated campaign's archives and beacon intervals.
type Scenario struct {
	Updates   map[string][]byte
	Dumps     map[string][]byte
	Intervals []beacon.Interval
}

// Prefixes returns the distinct beacon prefixes of the intervals, in
// first-seen order.
func (sc *Scenario) Prefixes() []netip.Prefix {
	seen := make(map[netip.Prefix]bool)
	var out []netip.Prefix
	for _, iv := range sc.Intervals {
		if !seen[iv.Prefix] {
			seen[iv.Prefix] = true
			out = append(out, iv.Prefix)
		}
	}
	return out
}

// graph is the harness topology:
//
//	   1 ===== 2        (Tier-1 peering)
//	  / \     / \
//	10   11--+   12     (11 is multihomed to both Tier-1s)
//	 |    |       |
//	100  200     300    (100 = beacon origin; 200, 300 = collector peers)
func graph() (*topology.Graph, error) {
	g := topology.New()
	for _, a := range []struct {
		asn  bgp.ASN
		tier int
	}{{1, 1}, {2, 1}, {10, 2}, {11, 2}, {12, 2}, {100, 3}, {200, 3}, {300, 3}} {
		g.AddAS(a.asn, "", a.tier)
	}
	for _, err := range []error{
		g.AddP2P(1, 2),
		g.AddC2P(10, 1),
		g.AddC2P(11, 1),
		g.AddC2P(11, 2),
		g.AddC2P(12, 2),
		g.AddC2P(100, 10),
		g.AddC2P(200, 11),
		g.AddC2P(300, 12),
	} {
		if err != nil {
			return nil, err
		}
	}
	return g, nil
}

const origin bgp.ASN = 100

var prefixPool = []netip.Prefix{
	netip.MustParsePrefix("2a0d:3dc1:1200::/48"),
	netip.MustParsePrefix("2a0d:3dc1:1300::/48"),
	netip.MustParsePrefix("93.175.146.0/24"),
	netip.MustParsePrefix("93.175.147.0/24"),
}

// Generate simulates the campaign of seed and returns its collector
// archives.
func Generate(seed uint64) (*Scenario, error) {
	rng := rand.New(rand.NewPCG(seed, 0xd1ff))
	g, err := graph()
	if err != nil {
		return nil, err
	}
	sim := netsim.New(g, netsim.Config{Seed: seed + 1})
	fleet := collector.NewFleet()
	sim.SetSink(fleet)

	sessions := []netsim.Session{
		{Collector: "rrc00", PeerAS: 200, PeerIP: netip.MustParseAddr("2001:db8:feed::200"), AFI: bgp.AFIIPv6},
		{Collector: "rrc00", PeerAS: 200, PeerIP: netip.MustParseAddr("192.0.2.200"), AFI: bgp.AFIIPv4},
		{Collector: "rrc01", PeerAS: 300, PeerIP: netip.MustParseAddr("2001:db8:feed::300"), AFI: bgp.AFIIPv6},
		{Collector: "rrc01", PeerAS: 300, PeerIP: netip.MustParseAddr("192.0.2.130"), AFI: bgp.AFIIPv4},
	}
	for _, s := range sessions {
		if err := sim.AddCollectorSession(s); err != nil {
			return nil, err
		}
	}

	start := time.Date(2024, 6, 10, 12, 0, 0, 0, time.UTC)
	prefixes := prefixPool[:2+rng.IntN(len(prefixPool)-1)]
	rounds := 6 + rng.IntN(6)
	period := 4 * time.Hour
	end := start.Add(time.Duration(rounds) * period)

	// Faults, each with its own dice roll. Wedges and withdrawal drops are
	// the paper's zombie mechanisms; StickRIB models the stuck-FIB case.
	faults := sim.Faults()
	if rng.Float64() < 0.5 {
		ws := start.Add(time.Duration(rng.IntN(rounds)) * period)
		faults.WedgeLink(1, 11, 0, ws, ws.Add(time.Duration(1+rng.IntN(3*rounds))*time.Hour), nil)
	}
	if rng.Float64() < 0.4 {
		faults.DropWithdrawals(2, 11, 0.3+0.7*rng.Float64(), nil)
	}
	if rng.Float64() < 0.3 {
		faults.DropCollectorWithdrawals(200, 0.5+0.5*rng.Float64(), nil)
	}
	if rng.Float64() < 0.3 {
		faults.StickRIB(10, nil)
	}
	if rng.Float64() < 0.2 {
		faults.GlobalWithdrawalDrop(0.2*rng.Float64(), nil)
	}

	var intervals []beacon.Interval
	for _, p := range prefixes {
		for r := 0; r < rounds; r++ {
			at := start.Add(time.Duration(r) * period)
			agg := &bgp.Aggregator{ASN: origin, Addr: beacon.AggregatorClock(at)}
			if err := sim.ScheduleAnnounce(at, origin, p, agg); err != nil {
				return nil, err
			}
			wd := at.Add(2 * time.Hour)
			if err := sim.ScheduleWithdraw(wd, origin, p); err != nil {
				return nil, err
			}
			intervals = append(intervals, beacon.Interval{
				Prefix: p, AnnounceAt: at, WithdrawAt: wd, End: at.Add(period),
			})
		}
	}

	// Session churn: AS-level resets resurrect stuck routes; collector
	// session resets exercise the STATE-record handling.
	for i, n := 0, rng.IntN(4); i < n; i++ {
		pairs := [][2]bgp.ASN{{10, 1}, {11, 1}, {11, 2}, {12, 2}}
		pr := pairs[rng.IntN(len(pairs))]
		at := start.Add(time.Duration(rng.IntN(rounds*4)) * time.Hour)
		if err := sim.ScheduleSessionReset(at, pr[0], pr[1]); err != nil {
			return nil, err
		}
	}
	for i, n := 0, rng.IntN(3); i < n; i++ {
		sess := sessions[rng.IntN(len(sessions))]
		at := start.Add(time.Duration(rng.IntN(rounds*4)) * time.Hour)
		if err := sim.ScheduleCollectorSessionReset(at, sess); err != nil {
			return nil, err
		}
	}

	sim.EstablishCollectorSessions(start.Add(-time.Hour))
	for at := start.Add(8 * time.Hour); at.Before(end.Add(24 * time.Hour)); at = at.Add(8 * time.Hour) {
		sim.Run(at)
		fleet.SnapshotRIBs(at)
	}
	sim.RunAll()
	if err := fleet.Err(); err != nil {
		return nil, err
	}
	return &Scenario{
		Updates:   fleet.UpdatesData(),
		Dumps:     fleet.DumpData(),
		Intervals: intervals,
	}, nil
}
