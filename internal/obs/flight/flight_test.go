package flight

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	r.Record(Event{Type: CoordAnswer, Site: -1, Trace: 1, A1: 2, A2: 3}) // must not panic
	r.setProcess("x")
	d := r.Snapshot()
	if d.Process != "" || len(d.Events) != 0 {
		t.Fatalf("nil recorder snapshot has %d events", len(d.Events))
	}
}

// TestRingBounded drives far more events than the ring holds and checks
// memory stays bounded: retained count never exceeds capacity, and the
// overwritten remainder is reported as Dropped.
func TestRingBounded(t *testing.T) {
	const capacity = 256
	r := New("site-0", capacity)
	const total = 10 * capacity
	for i := 0; i < total; i++ {
		r.Record(Event{Type: SiteEvaluate, Site: 0, Trace: uint64(i + 1), A1: int64(i), A2: 0})
	}
	d := r.Snapshot()
	if len(d.Events) > capacity {
		t.Fatalf("snapshot has %d events, capacity %d", len(d.Events), capacity)
	}
	if int(d.Dropped)+len(d.Events) != total {
		t.Fatalf("dropped %d + retained %d != recorded %d", d.Dropped, len(d.Events), total)
	}
}

// TestRingKeepsLastEventsOfOneTrace: the ring's capacity belongs to whatever
// was recorded last, not to a slice of the id space. N events of one trace
// (or a site's untraced wal.append stream) are all retained; N+k drop
// exactly the k oldest.
func TestRingKeepsLastEventsOfOneTrace(t *testing.T) {
	for _, trace := range []uint64{0, 7} {
		r := New("coord", DefaultEvents)
		const n, k = DefaultEvents, 1000
		for i := 0; i < n; i++ {
			r.Record(Event{TS: int64(i + 1), Type: WALAppend, Site: 3, Trace: trace, A1: int64(i)})
		}
		if d := r.Snapshot(); len(d.Events) != n || d.Dropped != 0 {
			t.Fatalf("trace %d: %d events of one trace left %d retained, %d dropped", trace, n, len(d.Events), d.Dropped)
		}
		for i := n; i < n+k; i++ {
			r.Record(Event{TS: int64(i + 1), Type: WALAppend, Site: 3, Trace: trace, A1: int64(i)})
		}
		d := r.Snapshot()
		if len(d.Events) != n || d.Dropped != k {
			t.Fatalf("trace %d: %d events left %d retained, %d dropped; want %d and %d", trace, n+k, len(d.Events), d.Dropped, n, k)
		}
		for j, e := range d.Events {
			if e.A1 != int64(k+j) {
				t.Fatalf("trace %d: retained event %d is #%d, want #%d (the %d oldest dropped)", trace, j, e.A1, k+j, k)
			}
		}
	}
}

// TestSnapshotWhileRecording exercises concurrent Record and Snapshot — the
// dump-while-recording path the -race run must hold clean.
func TestSnapshotWhileRecording(t *testing.T) {
	r := New("coord", 512)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					r.Record(Event{Type: WireRPC, Site: int32(w), Trace: uint64(i + 1), A1: int64(i), A2: 64})
				}
			}
		}(w)
	}
	deadline := time.Now().Add(50 * time.Millisecond)
	for time.Now().Before(deadline) {
		d := r.Snapshot()
		for i := 1; i < len(d.Events); i++ {
			if d.Events[i].TS < d.Events[i-1].TS {
				t.Errorf("snapshot not time-ordered at %d", i)
				break
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestSnapshotTimeOrdered(t *testing.T) {
	r := New("coord", 1024)
	for i := 0; i < 300; i++ {
		r.Record(Event{Type: QueryStart, Site: -1, Trace: uint64(i + 1), A1: 0, A2: 0})
	}
	d := r.Snapshot()
	if len(d.Events) != 300 {
		t.Fatalf("retained %d events, want 300", len(d.Events))
	}
	for i := 1; i < len(d.Events); i++ {
		if d.Events[i].TS < d.Events[i-1].TS {
			t.Fatalf("events out of order at %d", i)
		}
	}
}

func TestTypeJSONRoundTrip(t *testing.T) {
	for typ := QueryStart; typ < NumTypes; typ++ {
		if typeInfo[typ].name == "" {
			continue // a retired number
		}
		buf, err := json.Marshal(typ)
		if err != nil {
			t.Fatalf("marshal %v: %v", typ, err)
		}
		if !strings.Contains(string(buf), typ.String()) {
			t.Fatalf("marshal %v = %s, want the name", typ, buf)
		}
		var back Type
		if err := json.Unmarshal(buf, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", buf, err)
		}
		if back != typ {
			t.Fatalf("round trip %v -> %v", typ, back)
		}
	}
	var numeric Type
	if err := json.Unmarshal([]byte("3"), &numeric); err != nil || numeric != WireRPC {
		t.Fatalf("numeric unmarshal = %v, %v; want WireRPC", numeric, err)
	}
	// Events cross the wire by number: retiring a type must not renumber
	// the ones after it.
	for num, want := range map[string]Type{
		"17": WALAppend, "18": CkptBuild, "19": RecoverReplay, "20": QueryShed,
		"26": GraphClone, "27": GraphMerge, "28": MergeReduce,
	} {
		if err := json.Unmarshal([]byte(num), &numeric); err != nil || numeric != want {
			t.Fatalf("numeric unmarshal %s = %v, %v; want %v", num, numeric, err, want)
		}
	}
	if err := json.Unmarshal([]byte(`"no.such.event"`), &numeric); err == nil {
		t.Fatalf("unknown event name did not error")
	}
}

func TestDumpJSONRoundTrip(t *testing.T) {
	r := New("site-2", 64)
	r.Record(Event{Type: SiteEvaluate, Site: 2, Trace: 99, A1: int64(5 * time.Millisecond), A2: 1})
	r.Record(Event{Type: SiteReduce, Site: 2, Trace: 99, A1: int64(time.Millisecond), A2: PackReduce(3, 120)})
	buf, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var d Dump
	if err := json.Unmarshal(buf, &d); err != nil {
		t.Fatalf("decoding /debug/flight payload: %v", err)
	}
	if d.Process != "site-2" || len(d.Events) != 2 {
		t.Fatalf("round trip lost data: %+v", d)
	}
	if d.Events[0].Type != SiteEvaluate || d.Events[1].Type != SiteReduce {
		t.Fatalf("event types mangled: %+v", d.Events)
	}
}

// TestMergeTimeline checks the cross-process merge: events of three
// processes interleave into one time-ordered timeline, filterable by trace.
func TestMergeTimeline(t *testing.T) {
	mk := func(proc string, ts ...int64) Dump {
		d := Dump{Process: proc}
		for i, n := range ts {
			d.Events = append(d.Events, Event{TS: n, Trace: uint64(i%2 + 1), Type: SiteEvaluate})
		}
		return d
	}
	entries := MergeTimeline(mk("coord", 10, 40, 70), mk("site-0", 20, 50), mk("site-1", 30, 60))
	if len(entries) != 7 {
		t.Fatalf("merged %d entries, want 7", len(entries))
	}
	procs := map[string]bool{}
	for i, e := range entries {
		procs[e.Process] = true
		if i > 0 && e.TS < entries[i-1].TS {
			t.Fatalf("timeline out of order at %d", i)
		}
	}
	for _, p := range []string{"coord", "site-0", "site-1"} {
		if !procs[p] {
			t.Fatalf("process %s missing from timeline", p)
		}
	}
	only := FilterTrace(entries, 2)
	if len(only) == 0 {
		t.Fatalf("trace filter dropped everything")
	}
	for _, e := range only {
		if e.Trace != 2 {
			t.Fatalf("trace filter kept trace %d", e.Trace)
		}
	}
}

func TestWriteTimeline(t *testing.T) {
	r := New("coord", 64)
	r.Record(Event{Type: QueryStart, Site: -1, Trace: 7, A1: 12, A2: 9441})
	r.Record(Event{Type: CoordAnswer, Site: -1, Trace: 7, A1: int64(3 * time.Millisecond), A2: 0})
	var buf bytes.Buffer
	if err := WriteTimeline(&buf, MergeTimeline(r.Snapshot())); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"query.start", "coord.answer", "coord", "s=12 t=9441", "ok"} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline output missing %q:\n%s", want, out)
		}
	}
	var empty bytes.Buffer
	if err := WriteTimeline(&empty, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(empty.String(), "no events") {
		t.Fatalf("empty timeline output: %q", empty.String())
	}
}

// TestDetail pins how each kind of operand prints, and that an event of a
// type this build does not know — a dump or a wire response from a newer
// process, or a retired number — prints as typeN with raw operands instead
// of panicking. Types travel on the wire, so it also pins every kept type's
// number.
func TestDetail(t *testing.T) {
	for _, c := range []struct {
		e    Event
		want string
	}{
		{Event{Type: SiteReduce, A1: int64(2 * time.Millisecond), A2: PackReduce(3, 120)}, "dur=2ms rounds=3 reduced=120"},
		{Event{Type: SiteEvaluate, A1: 1500, A2: EvalRevalidated}, "dur=1.5µs revalidated"},
		{Event{Type: SiteEvaluate, A1: 1500, A2: 9}, "dur=1.5µs 9"},
		{Event{Type: Redial, A1: 3}, "redials=3"},
		{Event{Type: 25, A1: 2, A2: 14400}, "a1=2 a2=14400"},
		// 5, 7 and 24 named the retired retry, circuit-breaker and audit
		// violation events.
		{Event{Type: 5, A1: 2}, "a1=2 a2=0"},
		{Event{Type: 7, A1: 4, A2: 1}, "a1=4 a2=1"},
		{Event{Type: 24, A1: 1, A2: 3}, "a1=1 a2=3"},
		{Event{Type: 0, A1: -1, A2: 7}, "a1=-1 a2=7"},
		{Event{Type: 250, A1: -1, A2: 7}, "a1=-1 a2=7"},
	} {
		if got := c.e.Detail(); got != c.want {
			t.Errorf("%v.Detail() = %q, want %q", c.e.Type, got, c.want)
		}
	}
	if got := Type(250).String(); got != "type250" {
		t.Errorf("unknown type prints as %q, want type250", got)
	}
	if got := Type(24).String(); got != "type24" {
		t.Errorf("retired type 24 prints as %q, want type24", got)
	}
	for typ, want := range map[Type]int{
		QueryStart: 1, CoordAnswer: 2, WireRPC: 3, SiteEvaluate: 4, Redial: 6,
		SiteReduce: 8, Update: 9, SlowQuery: 10, WALAppend: 17, CkptBuild: 18,
		RecoverReplay: 19, QueryShed: 20, GraphClone: 26,
		GraphMerge: 27, MergeReduce: 28, NumTypes: 31,
	} {
		if int(typ) != want {
			t.Errorf("%v is number %d, want %d", typ, typ, want)
		}
	}
}

// TestLayerNamesMatchBenchmarkRows pins the vocabulary: every timed layer's
// event name is a prefix of some per_layer row of BENCHMARK.json (wire.rpc →
// wire.rpc_overhead_us, site.evaluate → site.evaluate_live_us, …), so the
// benchmark can read these events in place of its replay probes without a
// rename on either side.
func TestLayerNamesMatchBenchmarkRows(t *testing.T) {
	data, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	layers := 0
	for typ := QueryStart; typ < NumTypes; typ++ {
		if !typ.Layer() {
			continue
		}
		layers++
		found := false
		for _, row := range manifest.PerLayer {
			found = found || strings.HasPrefix(row.Name, typ.String()+"_")
		}
		if !found {
			t.Errorf("timed layer %q is the stem of no BENCHMARK.json per_layer row", typ)
		}
		if typeInfo[typ].a1 != "dur" {
			t.Errorf("timed layer %q does not carry its duration in A1", typ)
		}
	}
	if layers != 7 {
		t.Errorf("%d timed layers, want 7 (adding one means adding its benchmark row)", layers)
	}
}

// setProcess renames the recorder's process attribution, a write that a nil
// recorder must ignore like every other.
func (r *Recorder) setProcess(name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.process = name
	r.mu.Unlock()
}
