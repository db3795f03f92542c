package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"net/netip"
	"os"
	"runtime"
	"sort"
	"time"

	"zombiescope/internal/archive"
	"zombiescope/internal/beacon"
	"zombiescope/internal/bgp"
	"zombiescope/internal/experiments"
	"zombiescope/internal/intern"
	"zombiescope/internal/mrt"
	"zombiescope/internal/pipeline"
	"zombiescope/internal/zombie"
)

// batchInput is the batch-report workload's on-disk archive plus the
// schedule zombiehunt would be given for it.
type batchInput struct {
	dir       string
	intervals []beacon.Interval
	track     zombie.TrackSet
	win       zombie.Window
	// updateRecords and dumpRecords count the archive's MRT records.
	updateRecords, dumpRecords int
	updateBytes                int
	// ref is the digest of the parallelism-0 reference report.
	ref string
}

func (in *batchInput) records() int { return in.updateRecords + in.dumpRecords }

// setupBatch generates the author scenario for the seed and writes it to
// disk as an MRT archive, setupReps times; it returns the input and the
// duration of each set-up.
func setupBatch(cfg *config, dir string) (*batchInput, []float64, error) {
	var (
		data  *experiments.AuthorData
		times []float64
	)
	for i := 0; i < cfg.setupReps; i++ {
		data = nil
		runtime.GC()
		start := time.Now()
		d, err := experiments.RunAuthorScenario(experiments.DefaultAuthorConfig(cfg.seed, cfg.batchScale))
		if err != nil {
			return nil, nil, err
		}
		if err := archive.Write(dir, &archive.Set{Updates: d.Updates, Dumps: d.Dumps}); err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		data = d
	}
	in := &batchInput{
		dir:       dir,
		intervals: data.Intervals,
		win:       zombie.Window{From: data.Config.Approach1Start, To: data.Config.TrackUntil},
	}
	var prefixes []netip.Prefix
	seen := map[netip.Prefix]bool{}
	for _, iv := range in.intervals {
		if !seen[iv.Prefix] {
			seen[iv.Prefix] = true
			prefixes = append(prefixes, iv.Prefix)
		}
	}
	in.track = zombie.NewTrackSet(prefixes)
	for _, b := range data.Updates {
		in.updateBytes += len(b)
		in.updateRecords += countRecords(b)
	}
	for _, b := range data.Dumps {
		in.dumpRecords += countRecords(b)
	}
	return in, times, nil
}

// countRecords walks MRT record headers.
func countRecords(b []byte) int {
	n := 0
	for len(b) >= mrt.HeaderLen {
		var h [mrt.HeaderLen]byte
		copy(h[:], b)
		_, _, _, length := mrt.ParseHeader(h)
		if int(length) > len(b)-mrt.HeaderLen {
			break
		}
		b = b[mrt.HeaderLen+int(length):]
		n++
	}
	return n
}

// reportStats are the counters one report moved.
type reportStats struct {
	dur            time.Duration
	cpu            time.Duration
	alloc          uint64
	recordsDecoded int64
	historyEvents  int64
	buildAlloc     uint64
	findings       int
	digest         string
}

// report does exactly what `zombiehunt -lifespans -detect all -parallel
// par` does over the archive: OpenMapped, DetectStreams, Summarize,
// TrackLifespans, then a track-all BuildHistoryStreams and
// RunAnomalyDetectors with every registered detector. The timed part
// ends when the report is complete; the digest and the unmap are not
// timed. With a tracer the timed part is one trace (root span
// batch.report) with a span per layer call; without one the same calls
// run untraced.
func report(in *batchInput, par int, t *tracer) (reportStats, error) {
	var st reportStats
	// Start every report from a collected heap, so the previous report's
	// garbage is not collected on this report's clock.
	runtime.GC()
	before := pipeline.Default.Snapshot()
	alloc0 := allocBytes()
	cpu0 := cpuTime()
	start := time.Now()
	root := t.root("batch.report")
	defer root.end() // ends early on errors; the success path ends it with the clock

	sp := root.child("archive.open")
	ms, err := archive.OpenMapped(in.dir)
	sp.end()
	if err != nil {
		return st, err
	}
	defer ms.Close()

	// DetectStreams is exactly these two calls over the same track set;
	// making them here gives each half its own span.
	sp = root.child("zombie.build_history")
	a0, e0 := allocBytes(), pipeline.Default.Snapshot()["events_sharded"]
	hist, err := zombie.BuildHistoryStreams(ms.Updates, in.track, par)
	st.buildAlloc = allocBytes() - a0
	st.historyEvents = pipeline.Default.Snapshot()["events_sharded"] - e0
	sp.end()
	if err != nil {
		return st, err
	}
	sp = root.child("zombie.detect_kernel")
	rep := (&zombie.Detector{Parallelism: par}).DetectFromHistory(hist, in.intervals)
	sp.end()

	sp = root.child("zombie.summarize")
	sum := zombie.Summarize(rep, zombie.NoisyConfig{}, 5)
	sp.end()

	sp = root.child("zombie.lifespans")
	lr, err := zombie.TrackLifespans(ms.Dumps, in.intervals, zombie.LifespanConfig{Parallelism: par})
	sp.end()
	if err != nil {
		return st, err
	}

	sp = root.child("zombie.anomaly_history")
	h, err := zombie.BuildHistoryStreams(ms.Updates, nil, par)
	sp.end()
	if err != nil {
		return st, err
	}
	sp = root.child("zombie.anomaly_eval")
	dets, err := zombie.BuildAnomalyDetectors(nil, zombie.AnomalyConfig{
		Intervals:   in.intervals,
		Threshold:   zombie.DefaultThreshold,
		Parallelism: par,
	})
	if err != nil {
		sp.end()
		return st, err
	}
	an := zombie.RunAnomalyDetectors(h, in.win, dets, par)
	sp.end()

	root.end()
	st.dur = time.Since(start)
	st.cpu = cpuTime() - cpu0
	st.alloc = allocBytes() - alloc0
	st.recordsDecoded = pipeline.Default.Snapshot()["records_decoded"] - before["records_decoded"]
	st.findings = len(an.Findings)
	st.digest = digestReport(rep, sum, lr, an)
	return st, nil
}

// digestReport hashes every output of a report in a canonical text form:
// all zombie routes, the summary, the lifespans and the anomaly findings.
func digestReport(rep *zombie.Report, sum *zombie.Summary, lr *zombie.LifespanReport, an *zombie.AnomalyReport) string {
	h := sha256.New()
	fmt.Fprintf(h, "visible %d peers %d\n", rep.VisiblePrefixes, len(rep.Peers))
	for _, ob := range rep.Outbreaks {
		fmt.Fprintf(h, "ob %s %d\n", ob.Prefix, ob.Interval.AnnounceAt.Unix())
		for _, r := range ob.Routes {
			fmt.Fprintf(h, " r %s %s %d %d %t\n", peerKey(r.Peer), r.Path, r.AnnouncedAt.UnixNano(), r.LastUpdate.UnixNano(), r.Duplicate)
		}
	}
	fmt.Fprintf(h, "sum %d %v %v %v\n", sum.Announcements, sum.WithDoubleCounting, sum.Deduped, sum.Clean)
	for _, p := range sum.NoisyPeers {
		fmt.Fprintf(h, "noisy %s\n", peerKey(p))
	}
	for _, o := range sum.TopOutbreaks {
		fmt.Fprintf(h, "top %s %d %d %t %d\n", o.Outbreak.Prefix, o.Outbreak.Interval.AnnounceAt.Unix(),
			len(o.Outbreak.Routes), o.Inferred, o.RootCause.Candidate)
	}
	prefixes := make([]netip.Prefix, 0, len(lr.Prefixes))
	for p := range lr.Prefixes {
		prefixes = append(prefixes, p)
	}
	sort.Slice(prefixes, func(i, j int) bool { return prefixes[i].String() < prefixes[j].String() })
	for _, p := range prefixes {
		pl := lr.Prefixes[p]
		fmt.Fprintf(h, "life %s %d\n", p, pl.WithdrawAt.Unix())
		for _, ep := range pl.Episodes {
			fmt.Fprintf(h, " ep %s %d %d %s %d\n", peerKey(ep.Peer), ep.FirstSeen.Unix(), ep.LastSeen.Unix(), ep.Path, ep.Observations)
		}
		for _, rs := range pl.Resurrections {
			fmt.Fprintf(h, " res %s %d %d %s\n", peerKey(rs.Peer), rs.LastSeen.Unix(), rs.ReappearedAt.Unix(), rs.Path)
		}
	}
	digestFindings(h, an.Findings)
	return hex.EncodeToString(h.Sum(nil))
}

func digestFindings(h hash.Hash, findings []zombie.Anomaly) {
	for _, a := range findings {
		fmt.Fprintf(h, "an %s %s %s %s %v %d %d %d %s\n", a.Detector, a.Kind, a.Prefix, peerKey(a.Peer),
			a.Origins, a.Start.Unix(), a.End.Unix(), a.Count, a.Detail)
	}
}

func peerKey(p zombie.PeerID) string {
	return fmt.Sprintf("%s/%d/%s", p.Collector, p.AS, p.Addr)
}

// hotStats snapshots the pooled-decode and intern counters.
type hotStats struct {
	pool      mrt.PoolStats
	path, agg intern.Stats
}

func readHot() hotStats {
	p, a := bgp.InternStats()
	return hotStats{pool: mrt.ReadPoolStats(), path: p, agg: a}
}

// runBatch is the batch-report workload.
func runBatch(cfg *config, t *tracer) (*result, error) {
	dir, err := workDir(cfg)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	res := newResult()
	in, setups, err := setupBatch(cfg, dir)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setupS := median(setups)
	par := runtime.GOMAXPROCS(0)
	w := cfg.out
	fmt.Fprintf(w, "batch-report: author scenario scale %d seed %d: %d intervals, %d update records (%.1f MB), %d dump records\n",
		cfg.batchScale, cfg.seed, len(in.intervals), in.updateRecords, float64(in.updateBytes)/1e6, in.dumpRecords)

	// Reference: the sequential report (parallelism 0).
	ref, err := report(in, 0, nil)
	if err != nil {
		return nil, fmt.Errorf("reference report: %w", err)
	}
	in.ref = ref.digest

	// check counts one report and applies its correctness gate.
	check := func(p int, st reportStats, err error) bool {
		res.attempted++
		if err != nil {
			res.fail("report at parallelism %d: %v", p, err)
			return false
		}
		if st.digest != in.ref {
			res.fail("report at parallelism %d differs from the parallelism-0 reference", p)
			return false
		}
		return true
	}
	// Warm-up: one report so lazy initialization and the page cache do
	// not land in the first timed report.
	st, err := report(in, par, nil)
	check(par, st, err)

	if t != nil {
		return batchTraced(cfg, t, in, res, setupS, check)
	}

	var durs, allocs, cpus []float64
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for n := 0; n < 3 || time.Now().Before(deadline); n++ {
		st, err := report(in, par, nil)
		if check(par, st, err) {
			durs = append(durs, st.dur.Seconds())
			allocs = append(allocs, float64(st.alloc))
			cpus = append(cpus, st.cpu.Seconds())
		}
	}
	reportS := median(durs)
	allocMB := median(allocs) / 1e6
	printMetric(w, "setup_s", setupS, "s")
	printMetric(w, "report_s", reportS, "s")
	printMetric(w, "report_s_p90", quantile(durs, 0.9), "s")
	printMetric(w, "report_alloc_mb", allocMB, "MB")
	printMetric(w, "reports", float64(len(durs)), "count")
	fmt.Fprintf(w, "report times (s): %.3f\n", durs)
	printMetric(w, "anomaly_findings", float64(ref.findings), "count")
	res.setE2E("setup_s", setupS)
	res.setE2E("throughput_rps", ratio(float64(in.records()), reportS))
	res.setE2E("cpu_us_per_rec", median(cpus)*1e6/float64(in.records()))
	res.setE2E("alloc_b_per_rec", median(allocs)/float64(in.records()))
	return res, nil
}

// batchTraced is the traced batch-report run: reports with spans around
// every layer call, alternated with untraced reports (the difference is
// the tracing overhead), plus a decode-only fold and reports at
// parallelism 0 and 1 for the pipeline ratios.
func batchTraced(cfg *config, t *tracer, in *batchInput, res *result, setupS float64,
	check func(int, reportStats, error) bool) (*result, error) {
	zeroLayers(res)
	par := runtime.GOMAXPROCS(0)
	var (
		traced, plain, plainAlloc   []float64
		decoded, events, buildAlloc float64
		findings                    int
	)
	hot0 := readHot()
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for n := 0; n < 3 || time.Now().Before(deadline); n++ {
		st, err := report(in, par, t)
		if check(par, st, err) {
			traced = append(traced, st.dur.Seconds())
			decoded += float64(st.recordsDecoded)
			events += float64(st.historyEvents)
			buildAlloc += float64(st.buildAlloc)
			findings = st.findings
		}
		st, err = report(in, par, nil)
		if check(par, st, err) {
			plain = append(plain, st.dur.Seconds())
			plainAlloc = append(plainAlloc, float64(st.alloc))
		}
	}

	// Decode-only pass: the archive's update streams folded with a no-op
	// accumulator, the decode layer alone.
	ms, err := archive.OpenMapped(in.dir)
	if err != nil {
		return nil, err
	}
	root := t.root("pipeline.decode")
	var nrec, nbytes int
	e := &pipeline.Engine{Workers: par, Borrow: true}
	_, accs, err := pipeline.FoldStreams(e, ms.Updates,
		func(fc pipeline.FileChunk) *int { return new(int) },
		func(acc *int, fc pipeline.FileChunk, idx int, rec mrt.Record) error {
			*acc++
			return nil
		})
	root.end()
	ms.Close()
	if err != nil {
		return nil, err
	}
	for _, file := range accs {
		for _, n := range file {
			nrec += *n
		}
	}
	nbytes = in.updateBytes

	// Parallelism 0 and 1 reports for the pipeline ratios.
	seqDurs := map[int][]float64{}
	for i := 0; i < 2; i++ {
		for _, p := range []int{0, 1} {
			st, err := report(in, p, nil)
			if check(p, st, err) {
				seqDurs[p] = append(seqDurs[p], st.dur.Seconds())
			}
		}
	}

	hot1 := readHot()

	self := t.selfTimes()
	rep := self["batch.report"]
	nTraced := float64(len(traced))
	tracedMean := mean(traced)
	plainMean := mean(plain)
	decodeS := self["pipeline.decode"].meanTotal()

	res.setLayer("archive.open_s", self["archive.open"].meanSelf())
	res.setLayer("pipeline.decode_s", decodeS)
	res.setLayer("mrt.records", float64(nrec))
	res.setLayer("mrt.decode_mb_per_s", ratio(float64(nbytes)/1e6, decodeS))
	res.setLayer("pipeline.decode_passes", ratio(ratio(decoded, nTraced), float64(in.records())))
	res.setLayer("pipeline.speedup_x", ratio(mean(seqDurs[0]), plainMean))
	res.setLayer("pipeline.overhead_x", ratio(mean(seqDurs[1]), mean(seqDurs[0])))
	hits := float64(hot1.path.Hits - hot0.path.Hits + hot1.agg.Hits - hot0.agg.Hits)
	misses := float64(hot1.path.Misses - hot0.path.Misses + hot1.agg.Misses - hot0.agg.Misses)
	res.setLayer("intern.hit_ratio", ratio(hits, hits+misses))
	reuses := float64(hot1.pool.Reuses - hot0.pool.Reuses)
	grows := float64(hot1.pool.Grows - hot0.pool.Grows)
	res.setLayer("mrt.pool_reuse_ratio", ratio(reuses, reuses+grows))
	res.setLayer("zombie.build_history_s", self["zombie.build_history"].meanSelf())
	res.setLayer("zombie.build_history_alloc_mb", ratio(buildAlloc, nTraced)/1e6)
	res.setLayer("zombie.history_events", ratio(events, nTraced))
	res.setLayer("zombie.detect_kernel_s", self["zombie.detect_kernel"].meanSelf())
	res.setLayer("zombie.intervals", float64(len(in.intervals)))
	res.setLayer("zombie.summarize_s", self["zombie.summarize"].meanSelf())
	res.setLayer("zombie.lifespans_s", self["zombie.lifespans"].meanSelf())
	res.setLayer("zombie.anomaly_history_s", self["zombie.anomaly_history"].meanSelf())
	res.setLayer("zombie.anomaly_eval_s", self["zombie.anomaly_eval"].meanSelf())
	res.setLayer("zombie.anomaly_findings", float64(findings))
	res.setLayer("batch.unaccounted_frac", ratio(rep.meanSelf(), rep.meanTotal()))
	res.setLayer("batch.report_s", median(plain))
	res.setLayer("batch.report_alloc_mb", median(plainAlloc)/1e6)
	res.setLayer("trace.overhead_frac", ratio(tracedMean-plainMean, plainMean))

	w := cfg.out
	printMetric(w, "setup_s", setupS, "s")
	printMetric(w, "report_s (traced, mean)", tracedMean, "s")
	printMetric(w, "report_s (untraced, mean)", plainMean, "s")
	fmt.Fprintln(w, "\nbatch-report layer budget (mean self time per report):")
	sum := 0.0
	for _, name := range []string{"archive.open", "zombie.build_history", "zombie.detect_kernel", "zombie.summarize",
		"zombie.lifespans", "zombie.anomaly_history", "zombie.anomaly_eval", "batch.report"} {
		v := self[name].meanSelf()
		sum += v
		label := name
		if name == "batch.report" {
			label = "unaccounted"
		}
		fmt.Fprintf(w, "  %-30s %9.4f s %6.1f%%\n", label, v, 100*ratio(v, rep.meanTotal()))
	}
	fmt.Fprintf(w, "  %-30s %9.4f s (batch.report span %.4f s)\n", "sum", sum, rep.meanTotal())
	return res, nil
}
