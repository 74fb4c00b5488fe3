package dist

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"ccp/internal/control"
	"ccp/internal/graph"
	"ccp/internal/obs/flight"
	"ccp/internal/store"
)

func durationNS(ns int64) time.Duration { return time.Duration(ns) }

// The wire protocol: a client sends requests and reads responses over one
// connection, both gob-encoded. Requests carry a client-chosen ID that the
// site echoes in the response, so one connection multiplexes any number of
// concurrent calls; responses may arrive in any order. Graphs travel as the
// compact CCPG1 binary format produced by graph.WriteBinary, so wire size
// equals what the network-traffic table reports.

// op selects the request kind.
type op uint8

const (
	opEvaluate op = iota + 1
	opPrecompute
	opInfo
	// opApply carries one store.Record to the site's one write path.
	opApply
	// 5 and 6 are retired; a site answers them "unknown op".
)

// opName names an op for error reporting.
func opName(o op) string {
	switch o {
	case opEvaluate:
		return "evaluate"
	case opPrecompute:
		return "precompute"
	case opInfo:
		return "info"
	case opApply:
		return "apply"
	default:
		return fmt.Sprintf("op%d", o)
	}
}

// request is the client -> site message.
type request struct {
	// ID tags the request; the site echoes it in the response so concurrent
	// calls can share one connection.
	ID           uint64
	Op           op
	S, T         int32
	UseCache     bool
	ForcePartial bool
	// IfEpoch/HasIfEpoch carry the coordinator's conditional-fetch epoch.
	IfEpoch    uint64
	HasIfEpoch bool
	// DeadlineNS is the caller's remaining time budget for this request in
	// nanoseconds (0 = none). It travels as a relative duration rather than
	// an absolute instant so clock skew between coordinator and site cannot
	// distort it; the site re-anchors it on its own clock and enforces it
	// server-side (context deadline on the evaluation, write deadline on the
	// response).
	DeadlineNS int64
	// QueryID is the coordinator's id for the query this request belongs to
	// (the site stamps it on the events it emits); Trace asks the site to
	// send those events back in the response.
	QueryID uint64
	Trace   bool
	// opApply payload. The server clears its Seq, so a write from the wire
	// can never pose as a record already in the log.
	Record store.Record
}

// response is the site -> client message.
type response struct {
	// ID echoes the request this response answers.
	ID uint64
	// Err is non-empty when the site failed to serve the request; Code
	// classifies it (codeSite, codeDeadline, codeCancelled) so the client
	// can rebuild the typed error.
	Err  string
	Code uint8
	// SiteID identifies the partition (opInfo and opEvaluate).
	SiteID int
	// Members lists the companies the site stores, ascending (opInfo).
	Members []int32
	// Ans is the encoded control.Answer for opEvaluate.
	Ans int8
	// GraphBytes is the reduced partition in CCPG1 format, empty when the
	// answer was decided locally.
	GraphBytes []byte
	// Stats, ElapsedNS and FromCache mirror PartialAnswer.
	Stats     control.Stats
	ElapsedNS int64
	FromCache bool
	// UpdateRes answers opApply.
	UpdateRes UpdateResult
	// Epoch and NotModified support the coordinator-side cache.
	Epoch       uint64
	NotModified bool
	// Events are the site's events for a traced evaluate request
	// (request.Trace), with TS as an offset from the site's own request
	// start; the coordinator re-bases them when stitching.
	Events []flight.Event
}

// Error classification codes carried in response.Code.
const (
	codeSite      uint8 = 0 // site-side failure (default)
	codeDeadline  uint8 = 1 // the request's deadline expired server-side
	codeCancelled uint8 = 2 // the server cancelled the request (shutdown)
)

// errResponse builds the error response for a failed request, classifying
// context errors so the client can surface a typed DeadlineError or
// CancelledError instead of an opaque SiteError.
func errResponse(siteID int, err error) *response {
	resp := &response{SiteID: siteID, Err: err.Error(), Code: codeSite}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		resp.Code = codeDeadline
	case errors.Is(err, context.Canceled):
		resp.Code = codeCancelled
	}
	return resp
}

// encodePartial converts a PartialAnswer for the wire.
func encodePartial(pa *PartialAnswer) *response {
	resp := &response{
		SiteID:      pa.SiteID,
		Ans:         int8(pa.Ans),
		Stats:       pa.Stats,
		ElapsedNS:   pa.Elapsed.Nanoseconds(),
		FromCache:   pa.FromCache,
		Epoch:       pa.Epoch,
		NotModified: pa.NotModified,
		Events:      pa.Events,
	}
	if pa.Reduced != nil {
		// One allocation of exactly the payload's size: BinarySize is the
		// encoding's length.
		resp.GraphBytes = pa.Reduced.AppendBinary(make([]byte, 0, pa.Reduced.BinarySize()))
	}
	return resp
}

// decodePartial converts a wire response back to a PartialAnswer. A shipped
// graph, live or cached, decodes into scratch from pool — the copy-free
// arena path, returned for reuse by PartialAnswer.Release. The coordinator
// keeps only its own compacted copy of a cached partial, so it releases
// that graph as soon as it has compacted it.
func decodePartial(resp *response, pool *sync.Pool) (*PartialAnswer, error) {
	pa := &PartialAnswer{
		SiteID:      resp.SiteID,
		Ans:         control.Answer(resp.Ans),
		Stats:       resp.Stats,
		Elapsed:     durationNS(resp.ElapsedNS),
		FromCache:   resp.FromCache,
		Epoch:       resp.Epoch,
		NotModified: resp.NotModified,
		Events:      resp.Events,
	}
	if len(resp.GraphBytes) > 0 {
		scratch, _ := pool.Get().(*graph.Graph)
		// On a decode error the scratch graph's contents are unspecified;
		// it is deliberately not re-pooled.
		g, err := graph.DecodeBinaryInto(scratch, resp.GraphBytes)
		if err != nil {
			return nil, fmt.Errorf("dist: decoding reduced graph: %w", err)
		}
		pa.Reduced = g
		pa.pool = pool
	}
	return pa, nil
}

// LocalClient drives a Site in-process. Payload bytes are still accounted —
// as the CCPG1 size of the reduced graph — so local runs report the same
// traffic numbers a TCP deployment would. Contexts pass straight through to
// the site, so cancellation and deadlines behave exactly as they would across
// a real transport (minus the wire). It is safe for concurrent use.
type LocalClient struct {
	Site *Site
	// MeasureBytes turns payload accounting on; when false Bytes reads 0.
	MeasureBytes bool
}

// SiteID implements SiteClient.
func (c *LocalClient) SiteID() int { return c.Site.ID() }

// Precompute implements SiteClient.
func (c *LocalClient) Precompute(ctx context.Context) error {
	if _, err := c.Site.Precompute(ctx); err != nil {
		return ctxError(c.Site.ID(), "precompute", err)
	}
	return nil
}

// Members implements SiteClient.
func (c *LocalClient) Members() []graph.NodeID { return c.Site.MemberIDs() }

// Evaluate implements SiteClient.
func (c *LocalClient) Evaluate(ctx context.Context, q control.Query, opts EvalOptions) (*PartialAnswer, int64, error) {
	pa, err := c.Site.Evaluate(ctx, q, opts)
	if err != nil {
		return nil, 0, ctxError(c.Site.ID(), "evaluate", err)
	}
	return pa, c.payload(pa), nil
}

// evaluateInline implements inlineEvaluator: the site's free replies (see
// Site.evaluateFree), on the caller's goroutine.
func (c *LocalClient) evaluateInline(q control.Query, opts EvalOptions) (*PartialAnswer, int64, error, bool) {
	pa := c.Site.evaluateFree(q, opts)
	if pa == nil {
		return nil, 0, nil, false
	}
	return pa, c.payload(pa), nil, true
}

// payload is the byte count reported for pa: its graph's CCPG1 size, or 0
// unless MeasureBytes is set.
func (c *LocalClient) payload(pa *PartialAnswer) int64 {
	if c.MeasureBytes && pa.Reduced != nil {
		return pa.Reduced.BinarySize()
	}
	return 0
}

// Apply implements SiteClient.
func (c *LocalClient) Apply(ctx context.Context, rec store.Record) (UpdateResult, error) {
	if err := ctx.Err(); err != nil {
		return UpdateResult{}, ctxError(c.Site.ID(), "apply", err)
	}
	return c.Site.Apply(rec)
}
