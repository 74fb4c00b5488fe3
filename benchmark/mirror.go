package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"ccp/internal/control"
	"ccp/internal/dist"
	"ccp/internal/graph"
)

// mirror answers a query the way dist.Coordinator.Answer does, but step by
// step from the benchmark's side with a span around every call into a layer:
// one Evaluate per site (in parallel, conditional on the epoch of the copy
// it already holds), graph.Merge of the partial answers on top of a reusable
// skeleton of the cached ones, and control.ParallelReduction of the merged
// graph with X = {s, t}. Its layer times are what coord.answer_us is
// decomposed into; coord.unattributed_us is what they fail to explain.
type mirror struct {
	clients []dist.SiteClient
	rec     *recorder

	copies  []cachedCopy // the mirror's own copies of cached partials, by client
	skels   [snapShards]map[string]*graph.Graph
	scratch *graph.Graph
	x       graph.NodeSet
}

// The skeleton cache has the coordinator's shape — 8 FNV-1a shards of at
// most 8 entries, a full shard dropped whole — so that on a workload with
// more site pairs than entries (fanout: 120 pairs, 64 entries) the mirror
// rebuilds skeletons as often as the program does.
const (
	snapShards   = 8
	snapPerShard = 8
)

type cachedCopy struct {
	epoch   uint64
	reduced *graph.Graph
}

// mirrorStats are one query's layer times (ns) and counts.
type mirrorStats struct {
	totalNS, selfNS   int64
	slowestSiteNS     int64
	mergeNS, reduceNS int64 // 0 when a site decided
	// Site replies by kind: live (partition copied and reduced), cached
	// (query-independent reduction, shipped or revalidated), decided (O(1)
	// exit by T1–T3).
	live, cached, decided int
	merged                bool
	mgraphEdges           int
}

func newMirror(clients []dist.SiteClient, rec *recorder) *mirror {
	m := &mirror{clients: clients, rec: rec, copies: make([]cachedCopy, len(clients)),
		scratch: graph.New(0), x: graph.NewNodeSet()}
	for i := range m.skels {
		m.skels[i] = make(map[string]*graph.Graph, snapPerShard)
	}
	return m
}

func (m *mirror) answer(ctx context.Context, qid int, q control.Query) (bool, mirrorStats, error) {
	var st mirrorStats
	root := m.rec.start("mirror.answer", 0, qid)
	finish := func() {
		st.totalNS = m.rec.end(root)
		st.selfNS = m.rec.selfNS(root)
	}

	type reply struct {
		i   int
		pa  *dist.PartialAnswer
		ns  int64
		err error
	}
	replies := make(chan reply, len(m.clients)) // one send per site, never blocks
	for i, cl := range m.clients {
		opts := dist.EvalOptions{UseCache: true}
		if c := m.copies[i]; c.reduced != nil {
			opts.IfEpoch, opts.HasIfEpoch = c.epoch, true
		}
		go func() {
			id := m.rec.start("site.rpc", root, qid)
			pa, _, err := cl.Evaluate(ctx, q, opts)
			replies <- reply{i, pa, m.rec.end(id), err}
		}()
	}
	var cachedParts, liveParts []*dist.PartialAnswer
	var firstErr error
	decided := control.Unknown
	for range m.clients {
		r := <-replies
		if r.err != nil {
			if firstErr == nil {
				firstErr = r.err
			}
			continue
		}
		st.slowestSiteNS = max(st.slowestSiteNS, r.ns)
		switch {
		case r.pa.NotModified:
			st.cached++
			cachedParts = append(cachedParts, &dist.PartialAnswer{SiteID: r.pa.SiteID,
				Reduced: m.copies[r.i].reduced, FromCache: true, Epoch: m.copies[r.i].epoch})
		case r.pa.FromCache:
			st.cached++
			m.copies[r.i] = cachedCopy{r.pa.Epoch, r.pa.Reduced}
			cachedParts = append(cachedParts, r.pa)
		case r.pa.Ans != control.Unknown:
			// Decided in O(1) by T1–T3, or only after copying and reducing
			// the partition — the latter is live work.
			if r.pa.Stats.Iterations > 0 {
				st.live++
			} else {
				st.decided++
			}
			decided = r.pa.Ans
		default:
			st.live++
			liveParts = append(liveParts, r.pa)
		}
	}
	release := func() {
		for _, pa := range liveParts {
			pa.Release()
		}
	}
	if firstErr != nil {
		release()
		finish()
		return false, st, firstErr
	}
	if decided != control.Unknown {
		release()
		finish()
		return decided.Bool(), st, nil
	}

	st.merged = true
	id := m.rec.start("graph.merge", root, qid)
	var mg *graph.Graph
	if len(cachedParts) >= 2 {
		mg = m.skeleton(cachedParts).CloneInto(m.scratch)
	} else {
		m.scratch.Reset()
		mg = m.scratch
		liveParts = append(cachedParts, liveParts...)
	}
	for _, pa := range liveParts {
		mg.Merge(pa.Reduced)
	}
	st.mergeNS = m.rec.end(id)
	release()
	st.mgraphEdges = mg.NumEdges()

	id = m.rec.start("control.merge_reduce", root, qid)
	clear(m.x)
	m.x.Add(q.S)
	m.x.Add(q.T)
	res, err := control.ParallelReduction(ctx, mg, q, m.x, control.Options{Workers: 1, Trust: control.FullTrust})
	st.reduceNS = m.rec.end(id)
	m.scratch = mg
	finish()
	if err != nil {
		return false, st, err
	}
	if res.Ans == control.Unknown {
		return false, st, fmt.Errorf("mirror: merged reduction could not decide %v", q)
	}
	return res.Ans.Bool(), st, nil
}

// skeleton returns the merge of the cached partials, built once per
// (site, epoch) vector.
func (m *mirror) skeleton(cached []*dist.PartialAnswer) *graph.Graph {
	sort.Slice(cached, func(i, j int) bool { return cached[i].SiteID < cached[j].SiteID })
	var b strings.Builder
	for _, pa := range cached {
		fmt.Fprintf(&b, "%d:%d;", pa.SiteID, pa.Epoch)
	}
	key := b.String()
	h := fnv.New32a()
	h.Write([]byte(key))
	shard := m.skels[h.Sum32()%snapShards]
	if sk := shard[key]; sk != nil {
		return sk
	}
	sk := graph.New(0)
	for _, pa := range cached {
		sk.Merge(pa.Reduced)
	}
	if len(shard) >= snapPerShard {
		clear(shard)
	}
	shard[key] = sk
	return sk
}
