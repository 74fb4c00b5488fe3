package main

// transport is how a workload's sites are deployed.
type transport int

const (
	inProcess  transport = iota // dist.LocalClient, no wire
	loopback                    // site servers on loopback TCP
	durableTCP                  // loopback TCP, WAL-backed sites in fresh dirs
)

// poolKind is the rule a workload's (s, t) pairs are drawn by.
type poolKind int

const (
	// crossBorder draws s from the controlling shareholders of border
	// companies and t from the in-nodes: the pairs no single site can be
	// expected to decide (the rule of experiments.crossBorderQueries).
	crossBorder poolKind = iota
	// uniform draws s and t uniformly over all companies.
	uniform
)

// spec fixes one workload: the graph, the deployment and the operation mix.
// Everything the program under test receives derives from a spec and a seed.
type spec struct {
	name, why       string
	countries       int     // gen.EU countries == sites
	nodesPerCountry int     // gen.EU companies per country
	outDegree       float64 // gen.EU average out-degree
	interconnect    float64 // gen.EU share of border companies
	deploy          transport
	pool            poolKind
	// liveSites is how many sites copy and reduce their partition at once for
	// a typical query — both home sites of a cross-border pair, the one of a
	// uniform pair — and so how many goroutines (1 or 2) the reference kernel
	// runs on between the operations.
	liveSites int
	n         int // queries per pass in the end-to-end run
	traceN    int // queries per pass in the traced run
	// updateEvery > 0 puts one update before every updateEvery-th query,
	// alternating AddStake(u,v,0.1) and RemoveStake(u,v) of the same pair.
	updateEvery int
}

// Pass counts. The end-to-end run makes one untimed warm-up pass and up to
// timedPasses timed ones; it starts no new pass once -seconds are spent but
// never stops below minTimedPasses. The traced run is 1 warm-up + tracedPasses.
const (
	timedPasses    = 12
	minTimedPasses = 4
	tracedPasses   = 4
	setupBuilds    = 9
	defaultSeconds = 28
)

// specs are the benchmark's workloads. Sizes are set so that 1 + 12 passes,
// with the reference kernel between the operations, take 15–17 s on 2 calm
// cores and still fit the run budget when the machine is half again as slow.
var specs = []spec{
	{
		name:      "xborder",
		why:       "cross-border pairs on 4 in-process sites: two sites clone+reduce a whole partition, two revalidate, coordinator merges",
		countries: 4, nodesPerCountry: 8000, outDegree: 3, interconnect: 0.01,
		deploy: inProcess, pool: crossBorder, liveSites: 2, n: 144, traceN: 64,
	},
	{
		name:      "local",
		why:       "uniform random pairs on the same cluster: one site decides, the merge and snapshot caches are never reached",
		countries: 4, nodesPerCountry: 8000, outDegree: 3, interconnect: 0.01,
		deploy: inProcess, pool: uniform, liveSites: 1, n: 304, traceN: 96,
	},
	{
		name:      "fanout",
		why:       "cross-border pairs on 16 loopback-TCP sites: 16 RPCs, 14 not-modified round trips, codec and 16-way merge dominate",
		countries: 16, nodesPerCountry: 1500, outDegree: 3, interconnect: 0.01,
		deploy: loopback, pool: crossBorder, liveSites: 2, n: 288, traceN: 96,
	},
	{
		name:      "update-mix",
		why:       "cross-border pairs on 4 durable TCP sites with an update before every 4th query: WAL fsync, epoch moves, cache rebuilds",
		countries: 4, nodesPerCountry: 8000, outDegree: 3, interconnect: 0.01,
		deploy: durableTCP, pool: crossBorder, liveSites: 2, n: 80, traceN: 40, updateEvery: 4,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// metricDef names one reported metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen; per-layer rows have none.
type metricDef struct {
	Name, Unit, Better string
	Bound              float64
}

// endToEnd are the metrics a user of the cluster sees, measured with tracing
// off. Every one is reported, non-zero, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"query_p95_ms", "ms", "lower", 0.25},
	{"queries_per_s", "1/s", "higher", 0.25},
	{"alloc_bytes_per_query", "B", "lower", 0.25},
	{"resident_bytes_per_edge", "B", "lower", 0.2},
}

// perLayer are the traced run's rows, in the order of the query path.
var perLayer = []metricDef{
	{Name: "partition.split_ms", Unit: "ms", Better: "lower"},
	{Name: "site.precompute_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.clone_us", Unit: "us", Better: "lower"},
	{Name: "graph.clone_alloc_bytes", Unit: "B", Better: "lower"},
	{Name: "control.site_reduce_us", Unit: "us", Better: "lower"},
	{Name: "control.rounds_per_reduce", Unit: "count", Better: "lower"},
	{Name: "control.removed_per_reduce", Unit: "count", Better: "higher"},
	{Name: "control.merge_reduce_us", Unit: "us", Better: "lower"},
	{Name: "control.cbe_us", Unit: "us", Better: "lower"},
	{Name: "site.evaluate_live_us", Unit: "us", Better: "lower"},
	{Name: "site.evaluate_cached_us", Unit: "us", Better: "lower"},
	{Name: "site.evaluate_decided_us", Unit: "us", Better: "lower"},
	{Name: "site.self_us", Unit: "us", Better: "lower"},
	{Name: "site.visits_per_query", Unit: "count", Better: "lower"},
	{Name: "site.live_per_query", Unit: "count", Better: "lower"},
	{Name: "site.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "site.decided_ratio", Unit: "ratio", Better: "higher"},
	{Name: "graph.encode_us", Unit: "us", Better: "lower"},
	{Name: "graph.decode_us", Unit: "us", Better: "lower"},
	{Name: "wire.bytes_per_live_partial", Unit: "B", Better: "lower"},
	{Name: "wire.bytes_per_query", Unit: "B", Better: "lower"},
	{Name: "wire.rpc_overhead_us", Unit: "us", Better: "lower"},
	{Name: "wire.revalidate_rtt_us", Unit: "us", Better: "lower"},
	{Name: "graph.merge_us", Unit: "us", Better: "lower"},
	{Name: "coord.answer_us", Unit: "us", Better: "lower"},
	{Name: "coord.self_us", Unit: "us", Better: "lower"},
	{Name: "coord.unattributed_us", Unit: "us", Better: "lower"},
	{Name: "coord.unattributed_share", Unit: "ratio", Better: "lower"},
	{Name: "coord.merged_ratio", Unit: "ratio", Better: "lower"},
	{Name: "coord.snapshot_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "coord.mgraph_edges", Unit: "count", Better: "lower"},
	{Name: "store.append_sync_us", Unit: "us", Better: "lower"},
	{Name: "store.append_nosync_us", Unit: "us", Better: "lower"},
	{Name: "store.fsyncs_per_append", Unit: "ratio", Better: "lower"},
	{Name: "store.wal_bytes_per_record", Unit: "B", Better: "lower"},
	{Name: "store.wal_bytes_per_update", Unit: "B", Better: "lower"},
	{Name: "store.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "store.replay_us_per_record", Unit: "us", Better: "lower"},
	{Name: "site.apply_update_us", Unit: "us", Better: "lower"},
	{Name: "coord.apply_update_us", Unit: "us", Better: "lower"},
	{Name: "fleet.gate_admit_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.observer_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}
