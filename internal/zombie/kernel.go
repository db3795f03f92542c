package zombie

import (
	"sort"
	"time"

	"zombiescope/internal/beacon"
	"zombiescope/internal/bgp"
	"zombiescope/internal/obs"
	"zombiescope/internal/pipeline"
)

// This file is the batched columnar detection kernel. The row-sweep
// evaluator (evalInterval, kept in the tests as the kernel's oracle) asks
// "state of (peer, prefix) at t?" once per
// (interval, peer) and re-walks the pair's event span from the start every
// time — O(intervals × peers × events). The columnar kernel inverts the
// loop: it sweeps the event arena once in span-index (pair-key) order and,
// per span, folds the pair's state forward through ALL of the prefix's
// query instants in one pass with a resumable merge cursor. Scratch
// (per-interval state slots) is reused across spans; the per-(interval,
// peer) decision is the shared peerDecision, so the only thing that
// changes is the sweep order — which is exactly what the differential
// harness checks.
//
// Determinism of the assembly: pair keys ascend peer-major, so for any
// fixed interval (one prefix) the spans of that prefix are visited in
// ascending peer order — the same order evalInterval's peer loop appends
// in. Peers with no events for a prefix contribute nothing in either
// kernel (no pair events means never Present, and session events alone
// cannot create presence), so skipping absent pairs is exact.

// pairQuery is one state query of a prefix's plan.
type pairQuery struct {
	slot int  // index into the prefix's interval list
	pre  bool // query at WithdrawAt (RecordPaths) instead of checkAt
	at   time.Time
}

// prefixPlan is the per-prefix query schedule, shared read-only by every
// span of that prefix.
type prefixPlan struct {
	ivs     []int       // interval indexes, in report order
	queries []pairQuery // sorted ascending by at, so one cursor pass answers all
}

// stateCursor folds a pair's merged (pair, session) event stream forward
// to successive non-decreasing query instants, replicating stateAtMerged
// (or stateAtIgnoringSessions) exactly, one event at a time, resumably.
type stateCursor struct {
	evs, sess []histEvent
	i, j      int
	st        State
	ignore    bool // stateAtIgnoringSessions semantics
}

// advance folds events strictly before t into the running state and
// returns it. t must not decrease across calls on one cursor.
func (c *stateCursor) advance(t time.Time) State {
	if c.ignore {
		for c.i < len(c.evs) {
			ev := c.evs[c.i]
			if !ev.at.Before(t) {
				break
			}
			c.i++
			c.st.LastEvent = ev.at
			switch ev.kind {
			case evAnnounce:
				c.st.Present = true
				c.st.Path = ev.path
				c.st.Agg = ev.agg
				c.st.At = ev.at
			case evWithdraw:
				c.st.Present = false
			}
		}
		return c.st
	}
	for c.i < len(c.evs) || c.j < len(c.sess) {
		var ev histEvent
		takeSess := false
		switch {
		case c.i >= len(c.evs):
			ev, takeSess = c.sess[c.j], true
		case c.j >= len(c.sess):
			ev = c.evs[c.i]
		default:
			a, b := c.evs[c.i], c.sess[c.j]
			if b.at.Before(a.at) || (b.at.Equal(a.at) && b.order < a.order) {
				ev, takeSess = b, true
			} else {
				ev = a
			}
		}
		if !ev.at.Before(t) {
			break
		}
		if takeSess {
			c.j++
			if ev.kind == evSessionDown {
				c.st = State{LastEvent: ev.at}
			}
			continue
		}
		c.i++
		c.st.LastEvent = ev.at
		switch ev.kind {
		case evAnnounce:
			c.st.Present = true
			c.st.Path = ev.path
			c.st.Agg = ev.agg
			c.st.At = ev.at
		case evWithdraw:
			c.st.Present = false
			c.st.Path = bgp.ASPath{}
			c.st.Agg = nil
		}
	}
	return c.st
}

// seenInSpan reports whether evs holds an announce in [from, to), using
// the span's (at, order) sort for a binary-searched start.
func seenInSpan(evs []histEvent, from, to time.Time) bool {
	lo := sort.Search(len(evs), func(i int) bool { return !evs[i].at.Before(from) })
	for _, ev := range evs[lo:] {
		if !ev.at.Before(to) {
			break
		}
		if ev.kind == evAnnounce {
			return true
		}
	}
	return false
}

// planQueries builds the per-prefix query schedules. Intervals of prefixes
// absent from the history contribute nothing in either kernel and get no
// plan.
func (d *Detector) planQueries(h *History, intervals []beacon.Interval) []*prefixPlan {
	plans := make([]*prefixPlan, len(h.prefixes))
	threshold := d.threshold()
	for i, iv := range intervals {
		xi, ok := h.prefixIdx[iv.Prefix]
		if !ok {
			continue
		}
		pl := plans[xi]
		if pl == nil {
			pl = &prefixPlan{}
			plans[xi] = pl
		}
		slot := len(pl.ivs)
		pl.ivs = append(pl.ivs, i)
		if d.RecordPaths {
			pl.queries = append(pl.queries, pairQuery{slot: slot, pre: true, at: iv.WithdrawAt})
		}
		pl.queries = append(pl.queries, pairQuery{slot: slot, at: iv.WithdrawAt.Add(threshold)})
	}
	for _, pl := range plans {
		if pl != nil {
			sort.SliceStable(pl.queries, func(i, j int) bool { return pl.queries[i].at.Before(pl.queries[j].at) })
		}
	}
	return plans
}

// sweepRange folds the spans of pairKeys[lo:hi] into per-interval results.
// st/pre are caller-owned scratch slots reused across spans.
func (d *Detector) sweepRange(h *History, intervals []beacon.Interval, plans []*prefixPlan,
	lo, hi int, results []intervalResult, stScratch, preScratch []State) {
	for _, k := range h.pairKeys[lo:hi] {
		pi, xi := uint32(k>>32), uint32(k)
		pl := plans[xi]
		if pl == nil {
			continue
		}
		sp := h.pairs[k]
		evs := h.events[sp.off : sp.off+sp.n]
		var sess []histEvent
		if !d.IgnoreSessionState {
			ssp := h.sessSpans[pi]
			sess = h.sess[ssp.off : ssp.off+ssp.n]
		}
		cur := stateCursor{evs: evs, sess: sess, ignore: d.IgnoreSessionState}
		for _, q := range pl.queries {
			if q.pre {
				preScratch[q.slot] = cur.advance(q.at)
			} else {
				stScratch[q.slot] = cur.advance(q.at)
			}
		}
		peer := h.peers[pi]
		for slot, ivIdx := range pl.ivs {
			iv := intervals[ivIdx]
			res := &results[ivIdx]
			if !res.visible && seenInSpan(evs, iv.AnnounceAt, iv.WithdrawAt) {
				res.visible = true
			}
			var pre State
			if d.RecordPaths {
				pre = preScratch[slot]
			}
			d.peerDecision(peer, iv, stScratch[slot], pre, &res.routes, &res.pathObs)
		}
	}
}

// detectColumnar evaluates every interval with the batched kernel. The
// span sequence is cut into Parallelism contiguous ranges (one when
// <= 1), one result set per range, merged in range order — ranges ascend
// the pair-key order, so concatenation reproduces the one-range append
// order exactly.
func (d *Detector) detectColumnar(h *History, intervals []beacon.Interval, sp *obs.Span) []intervalResult {
	plans := d.planQueries(h, intervals)
	maxIvs := 0
	for _, pl := range plans {
		if pl != nil && len(pl.ivs) > maxIvs {
			maxIvs = len(pl.ivs)
		}
	}
	nranges := min(max(d.Parallelism, 1), max(len(h.pairKeys), 1))
	ranged := make([][]intervalResult, nranges)
	e := &pipeline.Engine{Workers: nranges, Trace: sp}
	e.For(nranges, func(r int) {
		lo := r * len(h.pairKeys) / nranges
		hi := (r + 1) * len(h.pairKeys) / nranges
		results := make([]intervalResult, len(intervals))
		st := make([]State, maxIvs)
		pre := make([]State, maxIvs)
		d.sweepRange(h, intervals, plans, lo, hi, results, st, pre)
		ranged[r] = results
	})
	// Merge: per interval, concatenate the ranges' appends in range order
	// and OR the visibility — identical to the one-range sweep.
	results := ranged[0]
	for _, rr := range ranged[1:] {
		for i := range results {
			results[i].visible = results[i].visible || rr[i].visible
			results[i].routes = append(results[i].routes, rr[i].routes...)
			results[i].pathObs = append(results[i].pathObs, rr[i].pathObs...)
		}
	}
	return results
}
