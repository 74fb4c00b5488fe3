package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"ccp/internal/control"
	"ccp/internal/dist"
	"ccp/internal/fleet"
	"ccp/internal/graph"
	"ccp/internal/obs"
	"ccp/internal/partition"
)

// maxUnattributedShare is how much of coord.answer_us the mirror's layer
// rows may leave unexplained before the traced run fails: past it the
// decomposition no longer mirrors the program.
const maxUnattributedShare = 0.25

// series holds one per-layer timing: a sample per pass per slot, NaN where
// the step did not happen. Its row is the median over slots of each slot's
// fastest sample.
type series [][]float64

func newSeries(passes, slots int) series {
	s := make(series, passes)
	for k := range s {
		s[k] = make([]float64, slots)
		for i := range s[k] {
			s[k][i] = math.NaN()
		}
	}
	return s
}

func (s series) slots() []float64 { return perPosition(s, fastest) }
func (s series) row() float64     { return orZero(median(s.slots())) }

func us(ns int64) float64 { return float64(ns) / 1e3 }

// coordCounts totals the coordinator's own accounting over one pass.
type coordCounts struct {
	queries, sitesQueried, merged, snapshotHits int
	bytes                                       int64
	failed                                      int
}

// coordPass issues w's operations once through the dist coordinator, with a
// root span around every call, and stores each latency (µs) in lat. With
// traced set, queries go through AnswerTraced — the program's own tracing.
func coordPass(ctx context.Context, c *distCluster, w *workload, rec *recorder, name string, traced bool, lat []float64) coordCounts {
	var cc coordCounts
	for i, o := range w.ops {
		if o.Kind != opQuery {
			id := rec.start("coord.apply_update", 0, i)
			err := c.coord.ApplyUpdate(ctx, dist.StakeUpdate{Owner: o.A, Owned: o.B, Weight: updateWeight, Remove: o.Kind == opRemove})
			lat[i] = us(rec.end(id))
			if err != nil {
				cc.failed++
			}
			continue
		}
		q := control.Query{S: o.A, T: o.B}
		var ans bool
		var m *dist.Metrics
		var err error
		id := rec.start(name, 0, i)
		if traced {
			ans, m, _, err = c.coord.AnswerTraced(ctx, q)
		} else {
			ans, m, err = c.coord.Answer(ctx, q)
		}
		lat[i] = us(rec.end(id))
		if err != nil || ans != w.expected[i] {
			cc.failed++
			continue
		}
		cc.queries++
		cc.sitesQueried += m.SitesQueried
		cc.merged += m.MergedQueries
		cc.snapshotHits += m.SnapshotHits
		cc.bytes += m.Bytes
	}
	return cc
}

// setupRows times the set-up layers: the split (fastest of 3), then each
// site's query-independent reduction on throwaway sites (fastest of 3 each;
// the row is the median site).
func setupRows(ctx context.Context, w *workload, rec *recorder, m map[string]float64) error {
	var pi *partition.Partitioning
	var splitMS []float64
	for i := 0; i < 3; i++ {
		id := rec.start("partition.split", 0, -1)
		var err error
		if pi, err = partition.Split(w.eu.G, w.eu.Country, w.eu.Countries); err != nil {
			return err
		}
		splitMS = append(splitMS, float64(rec.end(id))/1e6)
	}
	m["partition.split_ms"] = fastest(splitMS)
	var precomputeMS []float64
	for _, p := range pi.Parts {
		var reps []float64
		for i := 0; i < 3; i++ {
			site := dist.NewSite(p, clusterOptions.SiteWorkers)
			id := rec.start("site.precompute", 0, -1)
			if _, err := site.Precompute(ctx); err != nil {
				return err
			}
			reps = append(reps, float64(rec.end(id))/1e6)
		}
		precomputeMS = append(precomputeMS, fastest(reps))
	}
	m["site.precompute_ms"] = median(precomputeMS)
	return nil
}

// mirrorRun collects the mirror's per-position layer times over the passes.
type mirrorRun struct {
	mir                                 *mirror
	total, self, slowest, merge, reduce series
	last                                []mirrorStats // the latest pass, for the counts
}

// pass answers w's queries through the mirror (updates go through the
// coordinator: the mirror has no write path of its own). k < 0 is a warm-up.
func (r *mirrorRun) pass(ctx context.Context, c *distCluster, w *workload, k int) (failed int) {
	r.last = r.last[:0]
	for i, op := range w.ops {
		if op.Kind != opQuery {
			up := dist.StakeUpdate{Owner: op.A, Owned: op.B, Weight: updateWeight, Remove: op.Kind == opRemove}
			if err := c.coord.ApplyUpdate(ctx, up); err != nil {
				failed++
			}
			continue
		}
		ans, st, err := r.mir.answer(ctx, i, control.Query{S: op.A, T: op.B})
		if err != nil || ans != w.expected[i] {
			failed++
		}
		r.last = append(r.last, st)
		if k < 0 {
			continue
		}
		r.total[k][i], r.self[k][i], r.slowest[k][i] = us(st.totalNS), us(st.selfNS), us(st.slowestSiteNS)
		if st.merged {
			r.merge[k][i], r.reduce[k][i] = us(st.mergeNS), us(st.reduceNS)
		}
	}
	return failed
}

// measureLayers is the traced run: 1 warm-up + o.tracedPasses passes of the
// real coordinator, of the program's own tracing, of the benchmark's
// step-by-step mirror, of the coordinator under an Observer and of direct
// calls into each layer, all over the same sequence, plus the set-up,
// write-side and instrumentation rows.
func measureLayers(ctx context.Context, w *workload, o runOpts) (*result, error) {
	res := &result{N: w.queries, K: o.tracedPasses, Updates: w.updates, Metrics: map[string]float64{}}
	m := res.Metrics
	rec := newRecorder()
	P, n := o.tracedPasses, len(w.ops)
	if err := setupRows(ctx, w, rec, m); err != nil {
		return nil, err
	}
	c, err := buildDist(ctx, w, o.outDir, nil)
	if err != nil {
		return nil, err
	}
	defer c.close()
	// The same cluster again with an Observer wired where
	// ClusterOptions.Observer wires it.
	observedCluster, err := buildDist(ctx, w, o.outDir, obs.NewObserver(obs.ObserverConfig{}))
	if err != nil {
		return nil, err
	}
	defer observedCluster.close()

	// The four variants take turns pass by pass, so that a slow stretch of
	// the machine slows all of them and none of the ratios between them.
	answer, traced, observed := newSeries(P, n), newSeries(P, n), newSeries(P, n)
	mr := mirrorRun{mir: newMirror(c.clients, rec), total: newSeries(P, n), self: newSeries(P, n),
		slowest: newSeries(P, n), merge: newSeries(P, n), reduce: newSeries(P, n)}
	warm := make([]float64, n)
	at := func(s series, k int) []float64 {
		if k < 0 {
			return warm
		}
		return s[k]
	}
	var counts coordCounts
	var walBytes int64
	for k := -1; k < P; k++ {
		wal0 := c.walBytes()
		counts = coordPass(ctx, c, w, rec, "coord.answer", false, at(answer, k))
		if k >= 0 {
			walBytes += c.walBytes() - wal0
		}
		res.Failed += counts.failed
		res.Failed += coordPass(ctx, c, w, rec, "coord.answer_traced", true, at(traced, k)).failed
		res.Failed += mr.pass(ctx, c, w, k)
		res.Failed += coordPass(ctx, observedCluster, w, rec, "coord.answer_observed", false, at(observed, k)).failed
		res.Attempted += 4 * n
	}

	probes := probeLayers(ctx, c, w, rec, P)
	probes.rows(m)
	res.Failed += probes.failed
	res.Attempted += probes.attempted

	// Counts, from the coordinator's own accounting and the mirror's replies
	// of the last pass (both repeat exactly pass to pass).
	nq := float64(max(counts.queries, 1))
	m["site.visits_per_query"] = float64(counts.sitesQueried) / nq
	m["coord.merged_ratio"] = float64(counts.merged) / nq
	m["coord.snapshot_hit_ratio"] = orZero(float64(counts.snapshotHits) / float64(counts.merged))
	m["wire.bytes_per_query"] = float64(counts.bytes) / nq
	var live, cached, decided, visits, mergedN, mgEdges float64
	for _, st := range mr.last {
		live += float64(st.live)
		cached += float64(st.cached)
		decided += float64(st.decided)
		visits += float64(st.live + st.cached + st.decided)
		if st.merged {
			mergedN++
			mgEdges += float64(st.mgraphEdges)
		}
	}
	m["site.live_per_query"] = live / float64(len(mr.last))
	m["site.cache_hit_ratio"] = orZero(cached / visits)
	m["site.decided_ratio"] = orZero(decided / visits)
	m["coord.mgraph_edges"] = orZero(mgEdges / mergedN)

	// The coordinator's rows. Per position, what the mirror's blocking path
	// — slowest site call, then merge, then reduce — fails to explain of the
	// real answer is unattributed.
	ans, slowest, merge, reduce := answer.slots(), mr.slowest.slots(), mr.merge.slots(), mr.reduce.slots()
	tracedAns, observedAns := traced.slots(), observed.slots()
	var answerQ, tracedQ, observedQ, unattributed, updateUS []float64
	for i, op := range w.ops {
		if op.Kind != opQuery {
			updateUS = append(updateUS, ans[i])
			continue
		}
		answerQ, tracedQ, observedQ = append(answerQ, ans[i]), append(tracedQ, tracedAns[i]), append(observedQ, observedAns[i])
		unattributed = append(unattributed, ans[i]-slowest[i]-orZero(merge[i])-orZero(reduce[i]))
	}
	m["coord.answer_us"] = median(answerQ)
	m["coord.self_us"] = mr.self.row()
	m["coord.unattributed_us"] = median(unattributed)
	m["coord.unattributed_share"] = m["coord.unattributed_us"] / m["coord.answer_us"]
	m["graph.merge_us"] = mr.merge.row()
	m["control.merge_reduce_us"] = mr.reduce.row()
	m["coord.apply_update_us"] = orZero(median(updateUS))
	m["store.wal_bytes_per_update"] = orZero(float64(walBytes) / float64(P*w.updates))
	m["trace.overhead_ratio"] = median(tracedQ) / m["coord.answer_us"]
	m["obs.observer_overhead_ratio"] = median(observedQ) / m["coord.answer_us"]
	m["fleet.gate_admit_ns"] = gateAdmitNS(ctx)

	if w.deploy == durableTCP {
		m["site.apply_update_us"] = probeApplyUpdate(c, w, rec, P)
		rows, err := probeStore(c.pi.Parts[0], o.outDir)
		if err != nil {
			return nil, err
		}
		for name, v := range rows {
			m[name] = v
		}
	}

	for _, d := range perLayer {
		if _, measured := m[d.Name]; !measured {
			m[d.Name] = 0 // a layer this workload never reaches (the store, off update-mix)
		}
	}

	res.Correct = res.Failed == 0
	if share := m["coord.unattributed_share"]; share > maxUnattributedShare {
		res.Correct = false
		fmt.Fprintf(o.log, "%s: coord.unattributed_us is %.0f%% of coord.answer_us (limit %.0f%%): the mirror no longer follows the program\n",
			w.name, 100*share, 100*maxUnattributedShare)
	}
	if got := m["site.visits_per_query"]; got != float64(w.countries) {
		res.Correct = false
		fmt.Fprintf(o.log, "%s: site.visits_per_query = %v, want the site count %d\n", w.name, got, w.countries)
	}
	fmt.Fprintf(o.log, "%s seed=%d traced: N=%d queries + %d updates per pass, 1+%d passes per variant, attempted=%d failed=%d; "+
		"mirror p50 %.0f us against coord.answer_us %.0f, unattributed %.1f%%\n",
		w.name, w.seed, w.queries, w.updates, P, res.Attempted, res.Failed,
		mr.total.row(), m["coord.answer_us"], 100*m["coord.unattributed_share"])
	return res, rec.write(filepath.Join(o.outDir, "trace-"+w.name+".json"))
}

// prober calls each layer directly, per query position, on the state the
// passes left behind (the initial state: every pass restores it). A query has
// up to two home sites — the ones storing s and t — and each is a slot of its
// own: on the real path they run in parallel and the slower one sets the time.
type prober struct {
	c   *distCluster
	w   *workload
	rec *recorder

	boundaries                  []graph.NodeSet // per site: in-nodes ∪ virtual nodes
	buf                         bytes.Buffer
	cloneScratch, decodeScratch *graph.Graph
	x                           graph.NodeSet
	reducer                     *control.Reducer

	// Per home slot (2 per query).
	evalLive, evalDecided, remoteLive        series
	clone, cloneAlloc, reduce                series
	rounds, removed, encode, decode, payload series
	// Per query.
	evalCached, revalidate, cbe series

	attempted, failed int
}

func (p *prober) timed(name string, qid int, fn func() error) float64 {
	id := p.rec.start(name, 0, qid)
	err := fn()
	d := us(p.rec.end(id))
	if err != nil {
		p.failed++
	}
	return d
}

// home probes the site h storing an endpoint of q. k < 0 is the warm-up.
func (p *prober) home(ctx context.Context, k, qi, slot, h int, q control.Query) {
	site, part := p.c.sites[h], p.c.pi.Parts[h]
	opts := dist.EvalOptions{UseCache: true}
	var pa *dist.PartialAnswer
	direct := func() float64 {
		return p.timed("site.evaluate", qi, func() (err error) {
			pa, err = site.Evaluate(ctx, q, opts)
			return err
		})
	}
	remote := func() float64 {
		if !p.c.remote {
			return math.NaN()
		}
		return p.timed("wire.rpc", qi, func() error {
			rpa, _, err := p.c.clients[h].Evaluate(ctx, q, opts)
			rpa.Release()
			return err
		})
	}
	// Whichever call touches the partition first pays for the cold cache
	// lines, so the direct and the remote call take turns going first.
	var directUS, remoteUS float64
	if k%2 == 0 {
		directUS, remoteUS = direct(), remote()
	} else {
		remoteUS, directUS = remote(), direct()
	}
	if pa == nil {
		return
	}
	// Live means the site copied and reduced its partition, whether that
	// ended in a partial answer or a decision; otherwise T1–T3 decided in
	// O(1) before any copy.
	live := pa.Reduced != nil || pa.Stats.Iterations > 0
	var encUS, decUS = math.NaN(), math.NaN()
	if pa.Reduced != nil {
		p.buf.Reset()
		encUS = p.timed("graph.encode", qi, func() error { return pa.Reduced.WriteBinary(&p.buf) })
		decUS = p.timed("graph.decode", qi, func() (err error) {
			if p.decodeScratch, err = graph.DecodeBinaryInto(p.decodeScratch, p.buf.Bytes()); err != nil {
				p.decodeScratch = nil // contents unspecified after an error
			}
			return err
		})
	}
	pa.Release()
	if !live {
		if k >= 0 {
			p.evalDecided[k][slot] = directUS
		}
		return
	}
	// The site's own steps, redone from outside: copy the partition into
	// reusable scratch, then reduce the copy with X = boundary ∪ {s, t} and
	// the trust the site would use.
	a0 := totalAlloc()
	cloneUS := p.timed("graph.clone", qi, func() error {
		p.cloneScratch = part.Local.CloneInto(p.cloneScratch)
		return nil
	})
	allocated := totalAlloc() - a0
	clear(p.x)
	p.x.AddAll(p.boundaries[h])
	p.x.Add(q.S)
	p.x.Add(q.T)
	trust := control.TerminationTrust{
		T1: part.Members.Has(q.S),
		T2: part.Members.Has(q.T) && !part.InNodes.Has(q.T),
	}
	var red control.Result
	reduceUS := p.timed("control.site_reduce", qi, func() (err error) {
		red, err = p.reducer.Reduce(ctx, p.cloneScratch, q, p.x,
			control.Options{Workers: clusterOptions.SiteWorkers, Trust: trust})
		return err
	})
	if k < 0 {
		return
	}
	p.evalLive[k][slot], p.remoteLive[k][slot] = directUS, remoteUS
	p.clone[k][slot], p.cloneAlloc[k][slot], p.reduce[k][slot] = cloneUS, float64(allocated), reduceUS
	p.rounds[k][slot], p.removed[k][slot] = float64(red.Stats.Iterations), float64(red.Stats.Removed)
	p.encode[k][slot], p.decode[k][slot] = encUS, decUS
	if !math.IsNaN(encUS) {
		p.payload[k][slot] = float64(p.buf.Len())
	}
}

// bystander probes a site storing neither endpoint: it answers from its
// cache and, asked with the epoch the asker holds, only revalidates. Over
// TCP that round trip is the empty-RPC floor.
func (p *prober) bystander(ctx context.Context, k, qi, other int, q control.Query) {
	site := p.c.sites[other]
	opts := dist.EvalOptions{UseCache: true, IfEpoch: site.Epoch(), HasIfEpoch: true}
	cachedUS := p.timed("site.evaluate_cached", qi, func() error {
		_, err := site.Evaluate(ctx, q, opts)
		return err
	})
	rttUS := math.NaN()
	if p.c.remote {
		rttUS = p.timed("wire.revalidate", qi, func() error {
			_, _, err := p.c.clients[other].Evaluate(ctx, q, opts)
			return err
		})
	}
	if k >= 0 {
		p.evalCached[k][qi], p.revalidate[k][qi] = cachedUS, rttUS
	}
}

// probeLayers runs 1 warm-up + P passes of the direct per-layer calls over
// w's queries and returns their rows.
func probeLayers(ctx context.Context, c *distCluster, w *workload, rec *recorder, P int) *prober {
	var queries []control.Query
	for _, o := range w.ops {
		if o.Kind == opQuery {
			queries = append(queries, control.Query{S: o.A, T: o.B})
		}
	}
	p := &prober{c: c, w: w, rec: rec, x: graph.NewNodeSet(), reducer: control.NewReducer()}
	for _, part := range c.pi.Parts {
		p.boundaries = append(p.boundaries, part.Boundary())
	}
	for _, s := range []*series{&p.evalLive, &p.evalDecided, &p.remoteLive, &p.clone, &p.cloneAlloc,
		&p.reduce, &p.rounds, &p.removed, &p.encode, &p.decode, &p.payload} {
		*s = newSeries(P, 2*len(queries))
	}
	for _, s := range []*series{&p.evalCached, &p.revalidate, &p.cbe} {
		*s = newSeries(P, len(queries))
	}
	for k := -1; k < P; k++ {
		for qi, q := range queries {
			p.attempted++
			homes := []int{c.pi.Locate(q.S)}
			if ht := c.pi.Locate(q.T); ht != homes[0] {
				homes = append(homes, ht)
			}
			for j, h := range homes {
				p.home(ctx, k, qi, 2*qi+j, h, q)
			}
			for other := range c.sites {
				if other != homes[0] && other != homes[len(homes)-1] {
					p.bystander(ctx, k, qi, other, q)
					break
				}
			}
			cbeUS := p.timed("control.cbe", qi, func() error {
				control.CBE(w.eu.G, q)
				return nil
			})
			if k >= 0 {
				p.cbe[k][qi] = cbeUS
			}
		}
	}
	return p
}

// rows folds the probes' series into their per-layer rows.
func (p *prober) rows(m map[string]float64) {
	live, cloned, reduced, remote := p.evalLive.slots(), p.clone.slots(), p.reduce.slots(), p.remoteLive.slots()
	self, overhead := make([]float64, len(live)), make([]float64, len(live))
	for i := range live {
		self[i] = live[i] - cloned[i] - reduced[i]
		overhead[i] = remote[i] - live[i]
	}
	m["site.evaluate_live_us"] = orZero(median(live))
	m["site.evaluate_decided_us"] = p.evalDecided.row()
	m["site.evaluate_cached_us"] = p.evalCached.row()
	m["site.self_us"] = orZero(median(self))
	m["graph.clone_us"] = orZero(median(cloned))
	m["graph.clone_alloc_bytes"] = p.cloneAlloc.row()
	m["control.site_reduce_us"] = orZero(median(reduced))
	m["control.rounds_per_reduce"] = orZero(mean(p.rounds.slots()))
	m["control.removed_per_reduce"] = orZero(mean(p.removed.slots()))
	m["graph.encode_us"] = p.encode.row()
	m["graph.decode_us"] = p.decode.row()
	m["wire.bytes_per_live_partial"] = orZero(mean(p.payload.slots()))
	m["wire.rpc_overhead_us"] = orZero(median(overhead))
	m["wire.revalidate_rtt_us"] = p.revalidate.row()
	m["control.cbe_us"] = p.cbe.row()
}

// gateAdmitNS times an uncontended fleet.Gate admission and release: the
// floor an admission-control change starts from (the gate is off end to end).
func gateAdmitNS(ctx context.Context) float64 {
	gate := fleet.NewGate(fleet.GateConfig{})
	const calls = 20000
	var reps []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			release, err := gate.Admit(ctx)
			if err != nil {
				return 0
			}
			release()
		}
		reps = append(reps, float64(time.Since(t0))/calls)
	}
	return fastest(reps)
}
