package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"zombiescope/internal/eventstore"
	"zombiescope/internal/livefeed"
	"zombiescope/internal/obs"
)

// journalRun is the outcome of one replay-then-restart cycle.
type journalRun struct {
	replay   time.Duration // both Replay calls (and the client join)
	alloc    uint64
	cpu      time.Duration // process CPU time during the replay
	restart  time.Duration // store open plus Recover
	open     time.Duration
	recover  time.Duration
	catchup  time.Duration // FromStart client: join to caught up with the head at join
	head     uint64
	reg      *obs.Registry
	recovers int
}

// journalCycle replays the stream closed loop (speed 0, like zombied
// -oneshot) into a broker journaled to a fresh event store under dir, with
// a block-policy FromStart wire client joining at the midpoint; then it
// closes the store, reopens it and times Pipeline.Recover, zombied's warm
// restart. Every correctness gate of the workload is applied to res.
func journalCycle(cfg *config, in *streamInput, dir string, res *result, root *span) (*journalRun, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	r := &journalRun{reg: obs.NewRegistry()}
	storeOpts := eventstore.Options{Dir: dir, SegmentBytes: cfg.segBytes, Metrics: eventstore.NewMetrics(r.reg)}
	st, err := eventstore.Open(storeOpts)
	if err != nil {
		return nil, err
	}
	f, err := newFeed(in, r.reg, livefeed.Config{Journal: &livefeed.StoreJournal{Store: st}, StartSeq: st.LastSeq()}, true)
	if err != nil {
		st.Close()
		return nil, err
	}
	ctx := context.Background()
	mid := len(in.stream) / 2

	runtime.GC()
	alloc0, cpu0 := allocBytes(), cpuTime()
	start := time.Now()
	sp := root.child("livefeed.replay")
	err = f.pipe.Replay(ctx, in.stream[:mid], in.stream[mid-1].Rec.RecordTime(), 0)
	sp.end()
	if err != nil {
		f.stop()
		st.Close()
		return nil, err
	}
	joinHead := f.broker.Seq()
	joinAt := mono()
	sp = root.child("wire.join")
	c, err := dialClient(f.addr, livefeed.Filter{}, livefeed.PolicyBlock, livefeed.DialOptions{FromStart: true}, eventCap(in))
	sp.end()
	if err != nil {
		f.stop()
		st.Close()
		return nil, err
	}
	f.clients = append(f.clients, c)
	sp = root.child("livefeed.replay")
	err = f.pipe.Replay(ctx, in.stream[mid:], in.flushAt, 0)
	sp.end()
	r.replay = time.Since(start)
	r.alloc = allocBytes() - alloc0
	r.cpu = cpuTime() - cpu0
	if err != nil {
		f.stop()
		st.Close()
		return nil, err
	}
	r.head = f.broker.Seq()
	pending := f.pipe.PendingChecks()

	sp = root.child("wire.drain")
	deadline := time.Now().Add(60 * time.Second)
	for c.last.Load() < r.head && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	sp.end()
	f.stop()
	// The FromStart client must have received seq 1..head, in order.
	res.attempted += int(r.head)
	missing := 0
	for seq := uint64(1); seq <= r.head; seq++ {
		if int(seq) >= len(c.arrival) || c.arrival[seq] == 0 {
			missing++
		}
	}
	if missing > 0 || c.gaps > 0 {
		res.failed += missing + c.gaps
		res.mismatches = append(res.mismatches, fmt.Sprintf("FromStart client: %d of %d events missing, %d out of order", missing, r.head, c.gaps))
	}
	if int(joinHead) < len(c.arrival) && c.arrival[joinHead] != 0 {
		r.catchup = time.Duration(c.arrival[joinHead] - joinAt)
	}
	sp = root.child("eventstore.close")
	err = st.Close()
	sp.end()
	if err != nil {
		return nil, err
	}

	// Warm restart.
	rs := root.child("journal.restart")
	t0 := time.Now()
	sp = rs.child("eventstore.open")
	st, err = eventstore.Open(storeOpts)
	r.open = time.Since(t0)
	sp.end()
	if err != nil {
		return nil, err
	}
	defer st.Close()
	b := livefeed.NewBroker(livefeed.Config{Journal: &livefeed.StoreJournal{Store: st}, StartSeq: st.LastSeq(),
		Metrics: livefeed.NewMetrics(obs.NewRegistry())})
	defer b.Close()
	p := livefeed.NewPipeline(b, in.intervals, 0)
	t1 := time.Now()
	sp = rs.child("livefeed.recover")
	r.recovers, err = p.Recover(st)
	sp.end()
	r.recover = time.Since(t1)
	r.restart = time.Since(t0)
	rs.end()
	if err != nil {
		return nil, err
	}
	// After Recover the detector must be where it was before the close,
	// and finishing the experiment must publish nothing new.
	res.attempted += 2
	if got := p.PendingChecks(); got != pending {
		res.fail("after Recover %d checks pending, %d before close", got, pending)
	}
	seq := b.Seq()
	p.Flush(in.flushAt)
	if b.Seq() != seq {
		res.fail("Flush after Recover published %d events", b.Seq()-seq)
	}
	return r, nil
}

// runJournal is the journal-restart workload.
func runJournal(cfg *config, t *tracer) (*result, error) {
	res := newResult()
	in, setups, err := setupStream(cfg)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setupS := median(setups)
	base, err := workDir(cfg)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)
	dir := filepath.Join(base, "store")
	w := cfg.out
	fmt.Fprintf(w, "journal-restart: author scenario scale %d seed %d: %d records, %d-byte segments\n",
		cfg.liveScale, cfg.seed, len(in.stream), cfg.segBytes)

	// Warm-up cycle, not measured.
	if _, err := journalCycle(cfg, in, dir, res, nil); err != nil {
		return nil, err
	}
	if t != nil {
		return journalTraced(cfg, t, in, dir, res, setupS)
	}

	var rps, restarts, allocs, cpus []float64
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for len(rps) < 3 || time.Now().Before(deadline) {
		r, err := journalCycle(cfg, in, dir, res, nil)
		if err != nil {
			return nil, err
		}
		rps = append(rps, float64(len(in.stream))/r.replay.Seconds())
		restarts = append(restarts, r.restart.Seconds())
		allocs = append(allocs, float64(r.alloc))
		cpus = append(cpus, r.cpu.Seconds())
		fmt.Fprintf(w, "  cycle: replay %.3fs (%.0f rec/s), catch-up %.3fs, restart %.4fs (open %.4fs, recover %.4fs, %d records)\n",
			r.replay.Seconds(), rps[len(rps)-1], r.catchup.Seconds(), r.restart.Seconds(), r.open.Seconds(), r.recover.Seconds(), r.recovers)
	}
	replayRPS := median(rps)
	restartS := median(restarts)
	printMetric(w, "setup_s", setupS, "s")
	printMetric(w, "replay_rps", replayRPS, "1/s")
	printMetric(w, "restart_s", restartS, "s")
	printMetric(w, "cycles", float64(len(rps)), "count")
	res.setE2E("setup_s", setupS)
	res.setE2E("throughput_rps", replayRPS)
	res.setE2E("cpu_us_per_rec", median(cpus)*1e6/float64(len(in.stream)))
	res.setE2E("alloc_b_per_rec", median(allocs)/float64(len(in.stream)))
	return res, nil
}

// journalTraced is the traced journal-restart run: cycles with spans
// around every layer call alternated with untraced cycles, plus a
// StreamDetector-only pass and a scan-only pass over the store.
func journalTraced(cfg *config, t *tracer, in *streamInput, dir string, res *result, setupS float64) (*result, error) {
	zeroLayers(res)
	var (
		traced, plain, restarts []float64
		last                    *journalRun
		catchups                []float64
	)
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for len(traced) < 2 || time.Now().Before(deadline) {
		root := t.root("journal.cycle")
		r, err := journalCycle(cfg, in, dir, res, root)
		root.end()
		if err != nil {
			return nil, err
		}
		traced = append(traced, r.replay.Seconds())
		catchups = append(catchups, r.catchup.Seconds())
		last = r
		r, err = journalCycle(cfg, in, dir, res, nil)
		if err != nil {
			return nil, err
		}
		plain = append(plain, r.replay.Seconds())
		restarts = append(restarts, r.restart.Seconds())
	}

	// Scan-only pass over the last cycle's store (left on disk).
	st, err := eventstore.Open(eventstore.Options{Dir: dir, Metrics: eventstore.NewMetrics(obs.NewRegistry()), ReadOnly: true})
	if err != nil {
		return nil, err
	}
	var scanned int
	root := t.root("eventstore.scan")
	err = st.Scan(eventstore.Query{}, func(e eventstore.Event) error {
		scanned += len(e.Payload)
		return nil
	})
	root.end()
	st.Close()
	if err != nil {
		return nil, err
	}
	root = t.root("zombie.stream_detect")
	streamDetectPass(in)
	root.end()

	self := t.selfTimes()
	n := float64(len(traced))
	feedLayers(res, last.reg, self)
	replayS := self["livefeed.replay"].total.Seconds() / n
	res.setLayer("livefeed.ingest_us", replayS/float64(len(in.stream))*1e6)
	res.setLayer("zombie.stream_detect_s", self["zombie.stream_detect"].meanTotal())
	res.setLayer("livefeed.backfill_catchup_s", median(catchups))
	res.setLayer("eventstore.appends", float64(counter(last.reg, "eventstore_appends_total")))
	res.setLayer("eventstore.append_p99_us", histogram(last.reg, "eventstore_append_seconds").Quantile(0.99)*1e6)
	res.setLayer("eventstore.fsync_p99_us", histogram(last.reg, "eventstore_fsync_seconds").Quantile(0.99)*1e6)
	res.setLayer("eventstore.seals", float64(counter(last.reg, "eventstore_seals_total")))
	res.setLayer("eventstore.open_s", self["eventstore.open"].meanSelf())
	res.setLayer("eventstore.scan_mb_per_s", ratio(float64(scanned)/1e6, self["eventstore.scan"].meanTotal()))
	res.setLayer("livefeed.recover_s", self["livefeed.recover"].meanSelf())
	res.setLayer("journal.restart_s", median(restarts))
	tracedMean, plainMean := mean(traced), mean(plain)
	res.setLayer("trace.overhead_frac", ratio(tracedMean-plainMean, plainMean))
	printMetric(cfg.out, "setup_s", setupS, "s")
	printMetric(cfg.out, "replay_rps (traced)", float64(len(in.stream))/tracedMean, "1/s")
	printMetric(cfg.out, "replay_rps (untraced)", float64(len(in.stream))/plainMean, "1/s")
	return res, nil
}
