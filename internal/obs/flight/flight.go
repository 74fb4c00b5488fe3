// Package flight defines the system's one per-query event type and the
// always-on ring that keeps the last few thousand of them.
//
// An Event is a small fixed-size record — when, which query, which site,
// what (Type) and two operands — that components emit (through obs.Emitter)
// on every significant step: query start, the timed layers of a query
// (coord.answer, wire.rpc, site.evaluate, graph.clone, control.site_reduce,
// graph.merge, control.merge_reduce), retries, redials, circuit transitions,
// updates, WAL activity, slow-query promotions. The same
// events feed the metrics series, make up a traced query's Trace, and land
// in the Recorder: a bounded ring of the last events that, when a query goes
// slow or a circuit trips, holds what every process involved was just doing
// — dumpable via /debug/flight, on SIGQUIT, and mergeable across processes
// into one timeline (ccpctl flight).
//
// Recording is designed for the hot path: one fixed-size struct write under
// one mutex, zero allocations, nil-safe. Dumping while recording is safe (the
// dump takes the same mutex) and bounded: a recorder holds exactly its last
// capacity events, whatever query or site they belong to.
package flight

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Type classifies a flight-recorder event.
type Type uint8

const (
	// QueryStart marks a distributed query entering the coordinator;
	// A1/A2 carry the query's source and target node ids.
	QueryStart Type = iota + 1
	// CoordAnswer is the coordinator's end-to-end answer layer, emitted as
	// the query finishes; A1 is the latency in nanoseconds, A2 is 1 when the
	// query failed.
	CoordAnswer
	// WireRPC is the coordinator-side envelope of one per-site call; A1 is
	// the call duration in nanoseconds, A2 the payload bytes.
	WireRPC
	// SiteEvaluate is the site-side record of serving one evaluation; A1 is
	// the evaluation duration in nanoseconds, A2 how it was served (EvalLive,
	// EvalCached, EvalDecided, EvalRevalidated).
	SiteEvaluate
	// Retry is one per-call transport retry of an idempotent op; A1 is the
	// attempt number.
	Retry
	// Redial is a re-established connection; A1 is the lifetime redial
	// count.
	Redial
	// Circuit is a circuit-breaker transition; A1 is the consecutive-failure
	// count, A2 the new position (0 closed, 1 open, 2 half-open).
	Circuit
	// SiteReduce is a site's reduction of its partition copy; A1 is the
	// duration in nanoseconds, A2 the work done (PackReduce).
	SiteReduce
	// Update is one stake update applied; A1/A2 carry owner and owned.
	Update
	// SlowQuery marks a trace promoted into the slow-query log; A1 is the
	// traced latency in nanoseconds.
	SlowQuery
	// WALAppend is one record appended to a site's durable WAL; A1 is the
	// record's sequence number, A2 the framed record bytes. The six numbers
	// before it named the events of a retired merged-snapshot cache; they
	// stay unused, so a type keeps its number on the wire across versions.
	WALAppend Type = iota + 7
	// CkptBuild is one durable-store checkpoint written; A1 is the build
	// duration in nanoseconds, A2 the checkpoint file bytes.
	CkptBuild
	// RecoverReplay marks a site store recovering on boot; A1 is the number
	// of WAL records replayed past the checkpoint, A2 the replay duration in
	// nanoseconds.
	RecoverReplay
	// QueryShed marks a query rejected by the coordinator's admission gate
	// before it started; A1/A2 carry the query's source and target node ids.
	QueryShed
	// ReplBootstrap marks a follower replica bootstrapping from the leader's
	// checkpoint image; A1 is the image's covered sequence number, A2 the
	// image bytes.
	ReplBootstrap
	// ReplApply marks a batch of WAL records applied on a follower; A1 is
	// the follower's applied sequence after the batch, A2 the batch size.
	ReplApply
	// ReplPull is the follower-side record of one pull round-trip; A1 is the
	// leader's durable sequence, A2 the number of records shipped (0 for an
	// empty long-poll).
	ReplPull
	// AuditViolation marks an invariant probe reporting a violation; A1 is
	// the probe's registry index, A2 the probe's lifetime violation count.
	AuditViolation
	// SLOBreach marks an SLO's fast+slow burn rates both crossing their
	// thresholds (entering breach); A1 is the SLO's registry index, A2 the
	// fast-window burn rate in thousandths.
	SLOBreach
	// GraphClone is a site copying its partition into per-query scratch
	// under its read lock; A1 is the duration in nanoseconds, A2 the nodes
	// copied.
	GraphClone
	// GraphMerge is the coordinator assembling the partial answers into the
	// merged graph; A1 is the duration in nanoseconds, A2 the merged edges.
	GraphMerge
	// MergeReduce is the coordinator's final reduction of the merged graph;
	// operands as SiteReduce.
	MergeReduce
	// ReplTruncated marks a pull answered "truncated" — the leader
	// checkpointed past records the follower still needed, so it
	// re-bootstraps; A1 is the follower's applied sequence, A2 the leader's.
	ReplTruncated
	// StaleRead marks a follower answer older than a write its replica set
	// already committed, re-issued to the leader; A1 is the answer's epoch,
	// A2 the write watermark.
	StaleRead
	// NumTypes bounds the Type space (per-type tables are indexed by Type).
	NumTypes
)

// How a site served an evaluation — SiteEvaluate's A2.
const (
	EvalLive        = iota // cloned and reduced the partition
	EvalCached             // shipped the query-independent cached reduction
	EvalDecided            // a trusted termination condition decided locally
	EvalRevalidated        // told the coordinator its copy is still current
)

// typeInfo names each type and labels its two operands for Detail: "dur"
// prints a duration, "work" a PackReduce pair, "burn" thousandths, "k:a|b"
// the value's name from the list (bare when k is empty), "" nothing, and
// anything else prints as label=value.
var typeInfo = [NumTypes]struct{ name, a1, a2 string }{
	QueryStart:     {"query.start", "s", "t"},
	CoordAnswer:    {"coord.answer", "dur", ":ok|ERR"},
	WireRPC:        {"wire.rpc", "dur", "bytes"},
	SiteEvaluate:   {"site.evaluate", "dur", ":live|cached|decided|revalidated"},
	Retry:          {"retry", "attempt", ""},
	Redial:         {"redial", "redials", ""},
	Circuit:        {"circuit", "fails", "to:closed|open|half-open"},
	SiteReduce:     {"control.site_reduce", "dur", "work"},
	Update:         {"update", "owner", "owned"},
	SlowQuery:      {"slow.query", "dur", ""},
	WALAppend:      {"wal.append", "seq", "bytes"},
	CkptBuild:      {"ckpt.build", "dur", "bytes"},
	RecoverReplay:  {"recover.replay", "replayed", "dur"},
	QueryShed:      {"query.shed", "s", "t"},
	ReplBootstrap:  {"repl.bootstrap", "seq", "bytes"},
	ReplApply:      {"repl.apply", "applied", "batch"},
	ReplPull:       {"repl.pull", "leader", "recs"},
	AuditViolation: {"audit.violation", "probe", "violations"},
	SLOBreach:      {"slo.breach", "slo", "burn"},
	GraphClone:     {"graph.clone", "dur", "nodes"},
	GraphMerge:     {"graph.merge", "dur", "edges"},
	MergeReduce:    {"control.merge_reduce", "dur", "work"},
	ReplTruncated:  {"repl.truncated", "applied", "leader"},
	StaleRead:      {"stale.read", "epoch", "floor"},
}

// String names the event type ("query.start", "circuit", ...).
func (t Type) String() string {
	if t < NumTypes && typeInfo[t].name != "" {
		return typeInfo[t].name
	}
	return "type" + strconv.Itoa(int(t))
}

// Layer reports whether t is a timed layer: A1 is its duration, TS its end
// (so it began at TS − A1), and its name is the stem of the BENCHMARK.json
// per_layer rows that measure the same work.
func (t Type) Layer() bool {
	switch t {
	case CoordAnswer, WireRPC, SiteEvaluate, SiteReduce, GraphClone, GraphMerge, MergeReduce:
		return true
	}
	return false
}

// PackReduce folds a reduction's round count and its removed-plus-contracted
// node count into the one operand a reduce layer has left beside its
// duration.
func PackReduce(rounds, reduced int) int64 { return int64(rounds)<<40 | int64(reduced) }

// MarshalJSON renders the type as its string name, so /debug/flight dumps
// read without a decoder ring.
func (t Type) MarshalJSON() ([]byte, error) {
	return json.Marshal(t.String())
}

// UnmarshalJSON accepts both the string name and the raw number.
func (t *Type) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		for i, info := range typeInfo {
			if info.name == s {
				*t = Type(i)
				return nil
			}
		}
		return fmt.Errorf("flight: unknown event type %q", s)
	}
	var n uint8
	if err := json.Unmarshal(data, &n); err != nil {
		return fmt.Errorf("flight: event type must be a string or number: %s", data)
	}
	*t = Type(n)
	return nil
}

// Event is one recorded step — the only per-query event type: the flight
// ring, a query's trace, the slow-query log and the slog lines all hold or
// print these. The struct is fixed-size (no pointers, no strings) so
// emitting never allocates and a ring of them is one flat block of memory.
type Event struct {
	// TS is the event time in nanoseconds since the Unix epoch, on the
	// emitting process's clock; for a timed layer it is the layer's end.
	TS int64 `json:"ts"`
	// Trace is the id of the query the event belongs to (allocated by the
	// coordinator, carried to the sites on the wire); 0 outside any query.
	Trace uint64 `json:"trace,omitempty"`
	// A1/A2 are per-type arguments; see the Type constants.
	A1 int64 `json:"a1,omitempty"`
	A2 int64 `json:"a2,omitempty"`
	// Site is the partition id the event concerns, -1 at the coordinator.
	Site int32 `json:"site"`
	// Type classifies the event.
	Type Type `json:"type"`
}

// Detail renders the event's per-type arguments — the timeline's last
// column and the body of the event's slog line.
func (e Event) Detail() string {
	if e.Type >= NumTypes || typeInfo[e.Type].name == "" {
		return fmt.Sprintf("a1=%d a2=%d", e.A1, e.A2)
	}
	info := typeInfo[e.Type]
	return strings.TrimSpace(operand(info.a1, e.A1) + " " + operand(info.a2, e.A2))
}

// operand renders one argument under its typeInfo label.
func operand(label string, v int64) string {
	switch {
	case label == "":
		return ""
	case label == "dur":
		return "dur=" + time.Duration(v).String()
	case label == "work":
		return fmt.Sprintf("rounds=%d reduced=%d", v>>40, v&(1<<40-1))
	case label == "burn":
		return fmt.Sprintf("burn=%d.%03dx", v/1000, v%1000)
	}
	key, names, enum := strings.Cut(label, ":")
	if !enum {
		return fmt.Sprintf("%s=%d", label, v)
	}
	if list := strings.Split(names, "|"); v >= 0 && v < int64(len(list)) {
		if key == "" {
			return list[v]
		}
		return key + "=" + list[v]
	}
	return strings.TrimPrefix(fmt.Sprintf("%s=%d", key, v), "=")
}

// Recorder is the process-wide flight recorder: one bounded ring of the
// last events under one mutex. All methods are safe for concurrent use and
// nil-safe: a nil *Recorder records nothing, so uninstrumented components
// pay one pointer check.
type Recorder struct {
	mu      sync.Mutex
	process string
	ring    []Event
	total   uint64 // lifetime events recorded
}

// DefaultEvents is the ring capacity a zero ObserverConfig selects: 8192
// events ≈ 400 KB, a few thousand queries of context.
const DefaultEvents = 8192

// New builds a recorder holding the last capacity events (<= 0 selects
// DefaultEvents), attributed to the given process name ("coord", "site-3").
func New(process string, capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultEvents
	}
	return &Recorder{process: process, ring: make([]Event, 0, capacity)}
}

// SetProcess renames the recorder's process attribution (useful when the
// site id is only known after the recorder was built).
func (r *Recorder) SetProcess(name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.process = name
	r.mu.Unlock()
}

// Record adds one event to the ring, stamped now unless the caller already
// stamped it, overwriting the oldest once the ring is full: one slot write
// under the mutex. It never allocates, so always-on recording adds no
// garbage to the query hot path.
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	if e.TS == 0 {
		e.TS = time.Now().UnixNano()
	}
	r.mu.Lock()
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, e)
	} else {
		r.ring[r.total%uint64(cap(r.ring))] = e
	}
	r.total++
	r.mu.Unlock()
}

// Dump is a point-in-time copy of a recorder, the /debug/flight payload.
type Dump struct {
	// Process attributes the events ("coord", "site-3").
	Process string `json:"process"`
	// TakenNS is when the dump was taken, nanoseconds since the Unix epoch.
	TakenNS int64 `json:"taken_unix_ns"`
	// Dropped counts events overwritten by the bounded ring — how much
	// history scrolled off before this dump.
	Dropped uint64 `json:"dropped"`
	// Events are the retained events, time-ordered.
	Events []Event `json:"events"`
}

// Snapshot copies the retained events out, sorted by timestamp. Safe to
// call while recording continues.
func (r *Recorder) Snapshot() Dump {
	if r == nil {
		return Dump{TakenNS: time.Now().UnixNano()}
	}
	r.mu.Lock()
	d := Dump{
		Process: r.process,
		TakenNS: time.Now().UnixNano(),
		Dropped: r.total - uint64(len(r.ring)),
		Events:  append([]Event(nil), r.ring...),
	}
	r.mu.Unlock()
	sortEvents(d.Events)
	return d
}

// sortEvents time-orders events in place. The ring is in recording order
// modulo wraparound, and callers may stamp their own times (a timed layer
// carries its end); a plain stable sort keeps the dump path simple and runs
// off the hot path.
func sortEvents(evs []Event) {
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].TS != evs[j].TS {
			return evs[i].TS < evs[j].TS
		}
		return evs[i].Site < evs[j].Site
	})
}
