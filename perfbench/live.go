package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"zombiescope/internal/livefeed"
	"zombiescope/internal/obs"
)

const (
	// refRate is live-fanout's reference offered rate (records/s): the
	// whole stream is fed at it, latency is reported at it and the alert
	// channel is checked against the batch detector at it.
	refRate = 10000
	// latencyLimitMS is the p99 due-to-arrival latency a ladder rung must
	// stay under to count as sustained.
	latencyLimitMS = 100.0
	// lateLimitMS bounds the generator's median lateness over the last
	// tenth of a rung: above it the backlog grew during the rung.
	lateLimitMS = 10.0
	// batchSpan is how many records one traced event batch (one trace
	// id) covers.
	batchSpan = 256
	// saturatedRecords is how many records of the stream one saturated
	// (closed-loop) rung feeds: a fixed amount of work, since the
	// stream's length varies with the seed.
	saturatedRecords = 50000
	// drainEvery is the in-process subscribers' sweep period.
	drainEvery = 2 * time.Millisecond
)

// ladderUp is the fixed ladder of offered rates above the reference
// rate, climbed until a rung fails; the highest rung that holds is
// sustained_rps. ladderDown is descended, until a rung holds, only when
// the reference rate itself is not sustained. The ladder is coarse: the
// program's capacity is measured closed loop (throughput_rps), and the
// ladder only shows which fixed rates it serves within the limits.
var (
	ladderUp   = []float64{14000, 28000, 56000}
	ladderDown = []float64{7000, 5000, 2500, 1000}
)

var epoch = time.Now()

// mono is a monotonic clock in nanoseconds shared by the generator and
// the clients.
func mono() int64 { return int64(time.Since(epoch)) }

// wireClient is one loopback feed connection read by its own goroutine.
type wireClient struct {
	conn *livefeed.Conn
	// arrival[seq] is the mono time the event arrived (0: never).
	arrival []int64
	alerts  map[routeKey]int
	// gaps counts deliveries whose seq was not the previous one plus one.
	gaps  int
	last  atomic.Uint64
	count atomic.Int64
	done  chan struct{}
}

// dialClient connects a client whose arrival table holds events seqs
// (it grows past that only if the feed publishes more).
func dialClient(addr string, f livefeed.Filter, policy livefeed.Policy, opts livefeed.DialOptions, events int) (*wireClient, error) {
	conn, err := livefeed.DialWith(addr, f, policy, 0, opts)
	if err != nil {
		return nil, err
	}
	c := &wireClient{conn: conn, arrival: make([]int64, events), alerts: map[routeKey]int{}, done: make(chan struct{})}
	go c.read()
	return c, nil
}

func (c *wireClient) read() {
	defer close(c.done)
	for {
		ev, err := c.conn.Next()
		now := mono()
		if err != nil {
			return
		}
		for int(ev.Seq) >= len(c.arrival) {
			c.arrival = append(c.arrival, make([]int64, len(c.arrival)+1024)...)
		}
		if prev := c.last.Load(); prev != 0 && ev.Seq != prev+1 {
			c.gaps++
		}
		c.arrival[ev.Seq] = now
		if ev.Channel == livefeed.ChannelZombie && ev.Alert != nil {
			c.alerts[alertKey(&ev)]++
		}
		c.last.Store(ev.Seq)
		c.count.Add(1)
	}
}

// close ends the connection and waits for the reader to exit; after it
// returns the client's fields may be read.
func (c *wireClient) close() {
	c.conn.Close()
	<-c.done
}

// feed is one instance of the system under test: broker, server-side
// detection pipeline, TCP server, in-process subscribers and wire
// clients.
type feed struct {
	reg    *obs.Registry
	broker *livefeed.Broker
	pipe   *livefeed.Pipeline
	srv    *livefeed.Server
	addr   string
	served chan struct{}

	subs      []*livefeed.Subscriber
	drainStop chan struct{}
	drained   chan struct{}
	delivered atomic.Int64

	clients []*wireClient
	// due[seq] is the mono time the record behind event seq was due.
	due []int64

	stopOnce sync.Once
}

// eventCap is the seq table size of a feed over in's stream: every
// record publishes one event, plus zombie alerts and slack.
func eventCap(in *streamInput) int { return len(in.stream) + len(in.stream)/4 + 1024 }

// newFeed starts a broker (with the given config, its metrics on reg),
// its pipeline and a loopback server. The due and arrival tables are
// allocated here, so a measured rung allocates only in the program.
func newFeed(in *streamInput, reg *obs.Registry, bcfg livefeed.Config, allowBlock bool) (*feed, error) {
	f := &feed{reg: reg, served: make(chan struct{}), due: make([]int64, eventCap(in))}
	bcfg.Metrics = livefeed.NewMetrics(f.reg)
	f.broker = livefeed.NewBroker(bcfg)
	f.pipe = livefeed.NewPipeline(f.broker, in.intervals, 0)
	f.srv = &livefeed.Server{Broker: f.broker, Name: "perfbench/1", AllowBlock: allowBlock}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f.addr = l.Addr().String()
	go func() {
		defer close(f.served)
		_ = f.srv.Serve(l) // net.ErrClosed once the feed stops
	}()
	return f, nil
}

// subscribe attaches n in-process drop-oldest subscribers with filters
// drawn from the seed (40% per collector, 50% per beacon prefix, 10%
// alerts only) and starts the one goroutine that drains them all.
func (f *feed) subscribe(in *streamInput, n int, seed uint64) error {
	rng := rand.New(rand.NewPCG(seed, 0x7a6f6d626965))
	for i := 0; i < n; i++ {
		var flt livefeed.Filter
		switch k := rng.IntN(10); {
		case k < 4:
			flt.Collectors = []string{in.collectors[rng.IntN(len(in.collectors))]}
		case k < 9:
			flt.Prefixes = append(flt.Prefixes, in.prefixes[rng.IntN(len(in.prefixes))])
		default:
			flt.Channels = []string{livefeed.ChannelZombie}
		}
		sub, _, err := f.broker.Subscribe(flt, livefeed.PolicyDropOldest, 0)
		if err != nil {
			return err
		}
		f.subs = append(f.subs, sub)
	}
	f.drainStop = make(chan struct{})
	f.drained = make(chan struct{})
	go f.drain()
	return nil
}

// drain is the single goroutine serving every in-process subscriber: it
// sweeps the rings every drainEvery, releasing each frame. A subscriber
// ring (1024 frames) outlasts a sweep period at any ladder rate.
func (f *feed) drain() {
	defer close(f.drained)
	tick := time.NewTicker(drainEvery)
	defer tick.Stop()
	for {
		got := 0
		for _, s := range f.subs {
			for {
				fr, ok := s.TryNextFrame()
				if !ok {
					break
				}
				fr.Release()
				got++
			}
		}
		f.delivered.Add(int64(got))
		select {
		case <-f.drainStop:
			return
		case <-tick.C:
		}
	}
}

// inprocDrops sums the drop-oldest evictions of the in-process
// subscribers.
func (f *feed) inprocDrops() uint64 {
	var n uint64
	for _, s := range f.subs {
		n += s.Drops()
	}
	return n
}

// ingest publishes one record through the pipeline and stamps every
// event it produced with the record's due time.
func (f *feed) ingest(sr livefeed.SourcedRecord, due int64, parent *span) {
	s0 := f.broker.Seq()
	sp := parent.child("livefeed.ingest")
	f.pipe.Ingest(sr)
	sp.end()
	f.stampDue(s0, due)
}

func (f *feed) stampDue(s0 uint64, due int64) {
	s1 := f.broker.Seq()
	for s := s0 + 1; s <= s1; s++ {
		for int(s) >= len(f.due) {
			f.due = append(f.due, make([]int64, len(f.due)+1024)...)
		}
		f.due[s] = due
	}
}

// waitClients waits until the first client has seen head and every
// client has been idle for a moment (bounded).
func (f *feed) waitClients(head uint64) {
	deadline := time.Now().Add(10 * time.Second)
	for f.clients[0].last.Load() < head && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	for time.Now().Before(deadline) {
		var before int64
		for _, c := range f.clients {
			before += c.count.Load()
		}
		time.Sleep(100 * time.Millisecond)
		var after int64
		for _, c := range f.clients {
			after += c.count.Load()
		}
		if after == before {
			return
		}
	}
}

// stop tears the feed down and waits for every goroutine it started.
func (f *feed) stop() { f.stopOnce.Do(f.shutdown) }

func (f *feed) shutdown() {
	f.broker.Close()
	f.srv.Shutdown(2 * time.Second)
	for _, c := range f.clients {
		c.close()
	}
	<-f.served
	if f.drainStop != nil {
		close(f.drainStop)
		<-f.drained
	}
}

// rung is the outcome of feeding records at one offered rate.
type rung struct {
	rate    float64
	records int
	head    uint64
	elapsed float64
	alloc   uint64
	cpu     time.Duration
	missing uint64 // events absent at the full-feed client
	drops   uint64 // in-process drop-oldest evictions
	// lastArrival is seconds from the first record's due time to the
	// full-feed client's last arrival.
	lastArrival float64
	latency     []float64
	lateness    []float64
	lateEnd     float64
	alerts      map[routeKey]int
	feed        *feed
}

func (r *rung) p50() float64 { return median(r.latency) }
func (r *rung) p99() float64 { return quantile(r.latency, 0.99) }

// sustained reports whether the rung met all three conditions: nothing
// missing at the full-feed client, p99 latency under the limit, and no
// growing generator backlog.
func (r *rung) sustained() bool {
	return r.missing == 0 && r.p99() < latencyLimitMS && r.lateEnd < lateLimitMS
}

// runRung feeds stream open loop at rate records/s (uniform schedule)
// into a fresh feed with subs in-process subscribers, a full-feed and an
// alerts-only wire client. Rate 0 feeds it closed loop, each record due
// when the previous Ingest returned. With flush the detector clock is
// then advanced past the experiment so every pending check fires.
func runRung(cfg *config, in *streamInput, stream []livefeed.SourcedRecord, rate float64, flush bool, t *tracer) (*rung, error) {
	f, err := newFeed(in, obs.NewRegistry(), livefeed.Config{}, false)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	if err := f.subscribe(in, cfg.subscribers, cfg.seed); err != nil {
		return nil, err
	}
	for _, flt := range []livefeed.Filter{{}, {Channels: []string{livefeed.ChannelZombie}}} {
		c, err := dialClient(f.addr, flt, livefeed.PolicyDropOldest, livefeed.DialOptions{}, eventCap(in))
		if err != nil {
			return nil, err
		}
		f.clients = append(f.clients, c)
	}
	r := &rung{rate: rate, records: len(stream), feed: f, lateness: make([]float64, len(stream)),
		latency: make([]float64, 0, eventCap(in))}
	runtime.GC()
	alloc0, cpu0 := allocBytes(), cpuTime()
	period := 0.0
	if rate > 0 {
		period = float64(time.Second) / rate
	}
	t0 := mono() + int64(2*time.Millisecond)
	var batch *span
	for i, sr := range stream {
		due := t0 + int64(float64(i)*period)
		if rate <= 0 {
			due = max(t0, mono())
		}
		if d := due - mono(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		r.lateness[i] = float64(mono()-due) / 1e6
		if t != nil && i%batchSpan == 0 {
			batch.end()
			batch = t.root("live.batch")
		}
		f.ingest(sr, due, batch)
	}
	batch.end()
	if flush {
		s0 := f.broker.Seq()
		f.pipe.Flush(in.flushAt)
		f.stampDue(s0, mono())
	}
	r.elapsed = float64(mono()-t0) / 1e9
	r.head = f.broker.Seq()
	f.waitClients(r.head)
	r.alloc = allocBytes() - alloc0
	r.cpu = cpuTime() - cpu0
	r.drops = f.inprocDrops()

	full := f.clients[0]
	// Read the clients only after their readers have exited.
	f.stop()
	for seq := uint64(1); seq <= r.head; seq++ {
		if int(seq) >= len(full.arrival) || full.arrival[seq] == 0 {
			r.missing++
			continue
		}
		r.latency = append(r.latency, float64(full.arrival[seq]-f.due[seq])/1e6)
		r.lastArrival = max(r.lastArrival, float64(full.arrival[seq]-t0)/1e9)
	}
	r.alerts = f.clients[1].alerts
	tail := r.lateness[len(r.lateness)*9/10:]
	r.lateEnd = median(tail)
	return r, nil
}

// streamPrefix returns the first records of the stream covering seconds
// at rate (the whole stream when it is shorter).
func streamPrefix(stream []livefeed.SourcedRecord, rate, seconds float64) []livefeed.SourcedRecord {
	n := int(rate * seconds)
	if n > len(stream) || n <= 0 {
		n = len(stream)
	}
	return stream[:n]
}

// runLive is the live-fanout workload.
func runLive(cfg *config, t *tracer) (*result, error) {
	res := newResult()
	in, setups, err := setupStream(cfg)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setupS := median(setups)
	want, err := batchRoutes(in)
	if err != nil {
		return nil, fmt.Errorf("batch reference: %w", err)
	}
	w := cfg.out
	fmt.Fprintf(w, "live-fanout: author scenario scale %d seed %d: %d records, %d intervals, %d batch zombie routes, %d subscribers + 2 wire clients\n",
		cfg.liveScale, cfg.seed, len(in.stream), len(in.intervals), len(want), cfg.subscribers)

	// Warm-up rung: one second of the stream, not measured.
	warm, err := runRung(cfg, in, streamPrefix(in.stream, refRate, 1), refRate, false, nil)
	if err != nil {
		return nil, err
	}
	countDelivery(res, warm)

	if t != nil {
		return liveTraced(cfg, t, in, res, want, setupS)
	}

	// Reference rungs: the whole stream at refRate, repeated while they
	// fit in a quarter of the run.
	var (
		refs  int
		refOK = true
		lat   []float64
	)
	start := time.Now()
	for refs == 0 || time.Since(start).Seconds() < cfg.seconds*0.25 {
		r, err := runRung(cfg, in, in.stream, refRate, true, nil)
		if err != nil {
			return nil, err
		}
		checkReference(res, r, want)
		printRung(w, r)
		refs++
		refOK = refOK && r.sustained()
		lat = append(lat, r.latency...)
	}

	// Saturated rungs: the first saturatedRecords records closed loop,
	// at least three, until 75% of the run. Capacity is records over the
	// time from the first record to the full-feed client's last arrival;
	// it, CPU and allocation per record are medians over these rungs.
	var capacity, cpus, allocs []float64
	for len(capacity) < 3 || time.Since(start).Seconds() < cfg.seconds*0.75 {
		r, err := runRung(cfg, in, in.stream[:min(saturatedRecords, len(in.stream))], 0, false, nil)
		if err != nil {
			return nil, err
		}
		countDelivery(res, r)
		printRung(w, r)
		capacity = append(capacity, ratio(float64(r.records), r.lastArrival))
		cpus = append(cpus, r.cpu.Seconds()*1e6/float64(r.records))
		allocs = append(allocs, float64(r.alloc)/float64(r.records))
	}

	// Climb from the reference rate while rungs hold; when the reference
	// itself does not hold, descend until a rung does.
	sustained := 0.0
	if refOK {
		sustained = refRate
	}
	steps := ladderUp
	if !refOK {
		steps = ladderDown
	}
	for _, rate := range steps {
		r, err := runRung(cfg, in, streamPrefix(in.stream, rate, cfg.seconds/10), rate, false, nil)
		if err != nil {
			return nil, err
		}
		countDelivery(res, r)
		printRung(w, r)
		ok := r.sustained()
		if ok {
			sustained = rate
		}
		if ok != refOK {
			break
		}
	}
	printMetric(w, "setup_s", setupS, "s")
	printMetric(w, "capacity_rps", median(capacity), "1/s")
	printMetric(w, "sustained_rps", sustained, "1/s")
	printMetric(w, "latency_p50_ms", median(lat), "ms")
	printMetric(w, "latency_p99_ms", quantile(lat, 0.99), "ms")
	printMetric(w, "latency_samples", float64(len(lat)), "count")
	printMetric(w, "reference_rungs", float64(refs), "count")
	printMetric(w, "saturated_rungs", float64(len(capacity)), "count")
	res.setE2E("setup_s", setupS)
	res.setE2E("throughput_rps", median(capacity))
	res.setE2E("cpu_us_per_rec", median(cpus))
	res.setE2E("alloc_b_per_rec", median(allocs))
	return res, nil
}

// countDelivery adds a rung's deliveries to the result. Each published
// event is one operation at the full-feed client, and each event an
// in-process subscriber's filter matched is one there; an event missing
// at the full-feed client or evicted from a subscriber (drop-oldest) is
// a failed one. Above the program's capacity such loss is expected, so
// it counts in failed/attempted without failing the run.
func countDelivery(res *result, r *rung) {
	res.attempted += int(r.head) + int(r.feed.delivered.Load()+int64(r.drops))
	res.failed += int(r.missing + r.drops)
}

// checkReference applies the reference rung's correctness gates: every
// published event reached the full-feed client and every in-process
// subscriber, and the alerts-only client received exactly the batch
// detector's zombie routes. Any loss here fails the run.
func checkReference(res *result, r *rung, want map[routeKey]bool) {
	countDelivery(res, r)
	if r.missing > 0 {
		res.mismatches = append(res.mismatches, fmt.Sprintf("full-feed client missed %d of %d events at %d rec/s", r.missing, r.head, int(r.rate)))
	}
	if r.drops > 0 {
		res.mismatches = append(res.mismatches, fmt.Sprintf("in-process subscribers lost %d events at %d rec/s", r.drops, int(r.rate)))
	}
	res.attempted += len(want)
	var missing, extra int
	for k := range want {
		if r.alerts[k] == 0 {
			missing++
		}
	}
	for k, n := range r.alerts {
		if !want[k] {
			extra += n
		} else if n > 1 {
			extra += n - 1
		}
	}
	if missing+extra > 0 {
		res.failed += missing + extra
		res.mismatches = append(res.mismatches, fmt.Sprintf("alerts-only client: %d batch routes missing, %d unexpected alerts", missing, extra))
	}
}

func printRung(w io.Writer, r *rung) {
	rate := fmt.Sprintf("%6.0f rec/s", r.rate)
	if r.rate <= 0 {
		rate = "closed loop "
	}
	fmt.Fprintf(w, "  rung %s: %6d records in %6.2fs (last arrival %.2fs), head %6d, missing %d, drops %d, p50 %.3f ms, p90 %.3f ms, p99 %.3f ms, late p50 %.3f p99 %.2f ms end %.2f ms, sustained %t\n",
		rate, r.records, r.elapsed, r.lastArrival, r.head, r.missing, r.drops, r.p50(), quantile(r.latency, 0.9), r.p99(),
		median(r.lateness), quantile(r.lateness, 0.99), r.lateEnd, r.sustained())
}

// liveTraced is the traced live-fanout run: the reference rung with a
// span per Ingest (one trace per batch of records), an untraced reference
// rung for the overhead, a StreamDetector-only pass, and a saturated
// wire-client pass.
func liveTraced(cfg *config, t *tracer, in *streamInput, res *result, want map[routeKey]bool, setupS float64) (*result, error) {
	zeroLayers(res)
	plain, err := runRung(cfg, in, in.stream, refRate, true, nil)
	if err != nil {
		return nil, err
	}
	traced, err := runRung(cfg, in, in.stream, refRate, true, t)
	if err != nil {
		return nil, err
	}
	checkReference(res, plain, want)
	checkReference(res, traced, want)
	printRung(cfg.out, plain)
	printRung(cfg.out, traced)

	root := t.root("zombie.stream_detect")
	streamDetectPass(in)
	root.end()

	nextUS, err := clientPass(in)
	if err != nil {
		return nil, err
	}
	self := t.selfTimes()
	feedLayers(res, traced.feed.reg, self)
	res.setLayer("zombie.stream_detect_s", self["zombie.stream_detect"].meanTotal())
	res.setLayer("wire.client_next_us", nextUS)
	res.setLayer("generator.late_ms_p99", quantile(traced.lateness, 0.99))
	res.setLayer("generator.late_ms_max", maxOf(traced.lateness))
	res.setLayer("livefeed.drops", float64(counter(traced.feed.reg, "livefeed_drops_drop_oldest_total")))
	res.setLayer("trace.overhead_frac", ratio(traced.p50()-plain.p50(), plain.p50()))
	res.setLayer("live.latency_p50_ms", plain.p50())
	res.setLayer("live.latency_p99_ms", plain.p99())
	printMetric(cfg.out, "setup_s", setupS, "s")
	printMetric(cfg.out, "latency_p50_ms (untraced)", plain.p50(), "ms")
	printMetric(cfg.out, "latency_p99_ms (untraced)", plain.p99(), "ms")
	printMetric(cfg.out, "latency_p50_ms (traced)", traced.p50(), "ms")
	printMetric(cfg.out, "latency_p99_ms (traced)", traced.p99(), "ms")
	return res, nil
}

// feedLayers sets the livefeed per-layer metrics from a feed's registry
// and the ingest spans.
func feedLayers(res *result, reg *obs.Registry, self map[string]*selfStat) {
	res.setLayer("livefeed.ingest_us", self["livefeed.ingest"].meanSelf()*1e6)
	res.setLayer("livefeed.publish_s", histogram(reg, "livefeed_publish_seconds").Sum())
	res.setLayer("livefeed.encodes", float64(counter(reg, "livefeed_encode_total")))
	res.setLayer("livefeed.frames_shared", float64(counter(reg, "livefeed_frames_shared_total")))
	res.setLayer("livefeed.shard_matches", float64(counter(reg, "livefeed_shard_matches_total")))
	res.setLayer("livefeed.shard_skips", float64(counter(reg, "livefeed_shard_skips_total")))
	res.setLayer("livefeed.e2e_p99_ms", histogram(reg, "livefeed_e2e_seconds").Quantile(0.99)*1e3)
	res.setLayer("livefeed.bytes_written", float64(counter(reg, "livefeed_bytes_written_total")))
	res.setLayer("livefeed.block_stalls", float64(counter(reg, "livefeed_block_stalls_total")))
}

// counter reads an already-registered counter by name (registration is
// idempotent, so this returns the program's own instrument).
func counter(reg *obs.Registry, name string) int64 { return reg.Counter(name, "").Value() }

func histogram(reg *obs.Registry, name string) *obs.Histogram { return reg.Histogram(name, "", nil) }

// clientPass measures the wire client alone: the whole stream is
// published into a broker that retains all of it, then one FromStart
// client reads it back as fast as it can. It returns the mean time per
// Conn.Next in microseconds.
func clientPass(in *streamInput) (float64, error) {
	f, err := newFeed(in, obs.NewRegistry(), livefeed.Config{ReplaySize: len(in.stream) + 1<<16}, false)
	if err != nil {
		return 0, err
	}
	defer f.stop()
	for _, sr := range in.stream {
		f.pipe.Ingest(sr)
	}
	head := f.broker.Seq()
	start := mono()
	c, err := dialClient(f.addr, livefeed.Filter{}, livefeed.PolicyDropOldest, livefeed.DialOptions{FromStart: true}, eventCap(in))
	if err != nil {
		return 0, err
	}
	f.clients = append(f.clients, c)
	deadline := time.Now().Add(30 * time.Second)
	for c.last.Load() < head {
		if time.Now().After(deadline) {
			return 0, errors.New("client pass: FromStart client did not reach the head")
		}
		time.Sleep(time.Millisecond)
	}
	elapsed := mono() - start
	return float64(elapsed) / 1e3 / float64(c.count.Load()), nil
}
