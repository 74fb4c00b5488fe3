package obs

import (
	"context"
	"log/slog"
	"time"

	"ccp/internal/obs/flight"
)

// Series is what one event type feeds on /metrics. Every handle is nil-safe,
// so a type binds whichever of them it has.
type Series struct {
	// Seconds observes A1 — a duration in nanoseconds — in seconds.
	Seconds *Histogram
	// Count moves by one per event, Sum by the event's A2.
	Count, Sum *Counter
	// ByA2 counts the event under the outcome its A2 names (a cache hit or
	// miss, how a site served, a failed query), when A2 indexes into it.
	ByA2 []*Counter
}

// Emitter is a component's one way of reporting that something happened: a
// single call stamps one flight.Event and hands it to every sink — the
// /metrics series bound to the event's type, the process's flight ring, the
// query's trace when the query is traced (see Scope), and an slog line
// rendered from Event.Detail at the type's level. Components embed one by
// value; the zero Emitter has no sinks, and emitting through it costs two
// pointer checks.
type Emitter struct {
	observed bool
	ring     *flight.Recorder
	slow     time.Duration
	log      *slog.Logger
	series   [flight.NumTypes]Series
}

// Attach points the emitter at o's flight ring and slow-query threshold.
// Call before the component serves; a nil o leaves the emitter as it was.
func (em *Emitter) Attach(o *Observer) {
	if o != nil {
		em.observed, em.ring, em.slow = true, o.flight, o.slow
	}
}

// SetLogger attaches (or, with nil, detaches) the slog sink.
func (em *Emitter) SetLogger(l *slog.Logger) { em.log = l }

// Bind registers the series events of type t feed.
func (em *Emitter) Bind(t flight.Type, s Series) { em.series[t] = s }

// Log returns the attached logger, or one that discards — for the lines an
// event cannot carry (anything with an error string).
func (em *Emitter) Log() *slog.Logger { return LoggerOr(em.log) }

func (em *Emitter) off() bool { return !em.observed && em.log == nil }

// Emit reports one occurrence outside any traced query (trace may still name
// the query it belongs to, or be 0).
func (em *Emitter) Emit(t flight.Type, site int32, trace uint64, a1, a2 int64) {
	q := Scope{em: em, ID: trace}
	q.Emit(t, site, a1, a2)
}

// sink fans one stamped event out to the series, the ring and the log. A
// coord.answer at or over the slow-query threshold is followed by one
// slow.query event with the same query id and duration.
func (em *Emitter) sink(e flight.Event) {
	if e.Type < flight.NumTypes {
		s := &em.series[e.Type]
		s.Seconds.Observe(float64(e.A1) / 1e9)
		s.Count.Inc()
		s.Sum.Add(e.A2)
		if e.A2 >= 0 && e.A2 < int64(len(s.ByA2)) {
			s.ByA2[e.A2].Inc()
		}
	}
	em.ring.Record(e)
	if lvl := eventLevel(e.Type); em.log != nil && em.log.Enabled(context.Background(), lvl) {
		em.log.LogAttrs(context.Background(), lvl, e.Type.String(),
			slog.Int("site", int(e.Site)), TraceIDAttr(e.Trace), slog.String("detail", e.Detail()))
	}
	if e.Type == flight.CoordAnswer && em.slow > 0 && e.A1 >= int64(em.slow) {
		em.sink(flight.Event{TS: e.TS, Trace: e.Trace, A1: e.A1, Site: e.Site, Type: flight.SlowQuery})
	}
}

// eventLevel is the slog level an event type prints at: what an operator
// acts on at info, the per-query firehose at debug.
func eventLevel(t flight.Type) slog.Level {
	switch t {
	case flight.Redial, flight.SlowQuery, flight.RecoverReplay:
		return slog.LevelInfo
	}
	return slog.LevelDebug
}

// Scope is one query's view of an Emitter: what is emitted through it
// carries the query's id and, when the query is traced, is also kept in
// Events. A Scope belongs to the goroutine running the query.
type Scope struct {
	em   *Emitter
	base int64
	// ID is the query's id, the Trace field of everything emitted here.
	ID uint64
	// Traced makes the scope keep what it emits in Events.
	Traced bool
	Events []flight.Event
}

// Query opens the scope of query id. With traced set the scope keeps its
// events; a non-zero base makes the kept copies carry TS as an offset from
// it — how a site hands its events back, free of its own clock.
func (em *Emitter) Query(id uint64, traced bool, base time.Time) Scope {
	q := Scope{em: em, ID: id, Traced: traced}
	if !base.IsZero() {
		q.base = base.UnixNano()
	}
	return q
}

func (q *Scope) off() bool { return !q.Traced && q.em.off() }

func (q *Scope) emit(e flight.Event) {
	e.Trace = q.ID
	if !q.em.off() {
		q.em.sink(e)
	}
	if q.Traced {
		e.TS -= q.base
		q.Events = append(q.Events, e)
	}
}

// Emit reports one occurrence within the query.
func (q *Scope) Emit(t flight.Type, site int32, a1, a2 int64) {
	if q.off() {
		return
	}
	q.emit(flight.Event{TS: time.Now().UnixNano(), A1: a1, A2: a2, Site: site, Type: t})
}

// Span reports the timed layer t that began at start and ends now, and
// returns now — where the next layer starts. With nothing listening it reads
// no clock and returns the zero time.
func (q *Scope) Span(t flight.Type, site int32, start time.Time, a2 int64) time.Time {
	if q.off() {
		return time.Time{}
	}
	now := time.Now()
	q.emit(flight.Event{TS: now.UnixNano(), A1: int64(now.Sub(start)), A2: a2, Site: site, Type: t})
	return now
}

// RPC reports the wire.rpc envelope of one site call, timed by the caller on
// this process's clock, and stitches in the events the site sent back: they
// arrive as offsets from the site's request start and are re-based onto the
// envelope's, so clock skew cannot bend the timeline.
func (q *Scope) RPC(site int32, start time.Time, dur time.Duration, bytes int64, remote []flight.Event) {
	if q.off() {
		return
	}
	q.emit(flight.Event{TS: start.Add(dur).UnixNano(), A1: int64(dur), A2: bytes, Site: site, Type: flight.WireRPC})
	if q.Traced {
		at := len(q.Events)
		q.Events = append(q.Events, remote...)
		for i := at; i < len(q.Events); i++ {
			q.Events[i].TS += start.UnixNano() - q.base
		}
	}
}
