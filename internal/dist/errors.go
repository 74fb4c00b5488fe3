package dist

import (
	"context"
	"errors"
	"fmt"

	"ccp/internal/control"
)

// Typed errors for the distributed runtime. The scheduler and callers can
// tell a site-side failure (the site served the request but could not
// execute it) from a transport failure (the connection to the site broke),
// a deadline miss (DeadlineError) and a caller cancellation (CancelledError)
// with errors.As, and a batch caller learns which query failed without
// string matching. DeadlineError and CancelledError unwrap to
// context.DeadlineExceeded and context.Canceled respectively, so plain
// errors.Is checks against the context sentinels also work.

// SiteError reports that a worker site failed while executing an operation.
// The site itself was reachable; the operation was invalid or failed there.
type SiteError struct {
	// SiteID is the partition id of the failing site, or -1 when the site
	// never identified itself.
	SiteID int
	// Op names the operation that failed ("evaluate", "update", ...).
	Op string
	// Msg is the site's own error message.
	Msg string
}

func (e *SiteError) Error() string {
	return fmt.Sprintf("dist: site %d: %s: %s", e.SiteID, e.Op, e.Msg)
}

// TransportError reports that the transport to a site failed: the request
// could not be delivered or the response could not be read. The site's state
// is unknown.
type TransportError struct {
	// SiteID is the partition id of the unreachable site, or -1 when the
	// connection broke before the site identified itself.
	SiteID int
	// Op names the operation in flight ("evaluate", "precompute", ...).
	Op string
	// Err is the underlying transport error.
	Err error
}

func (e *TransportError) Error() string {
	return fmt.Sprintf("dist: site %d: %s: transport: %v", e.SiteID, e.Op, e.Err)
}

func (e *TransportError) Unwrap() error { return e.Err }

// DeadlineError reports that an operation missed its deadline: the caller's
// context expired before the site answered, or the site itself gave up
// server-side. The site's state is consistent (evaluations run on per-query
// clones) but the answer was never produced.
type DeadlineError struct {
	// SiteID is the partition id of the slow site, or -1 when the deadline
	// expired at the coordinator (e.g. during the merged reduction).
	SiteID int
	// Op names the operation that timed out ("evaluate", "merge", ...).
	Op string
	// Err is the underlying cause; it is (or wraps) context.DeadlineExceeded.
	Err error
}

func (e *DeadlineError) Error() string {
	return fmt.Sprintf("dist: site %d: %s: deadline exceeded: %v", e.SiteID, e.Op, e.Err)
}

func (e *DeadlineError) Unwrap() error { return e.Err }

// CancelledError reports that the caller cancelled the operation before it
// completed. In-flight site work stops at the next round boundary; no answer
// was produced.
type CancelledError struct {
	// SiteID is the partition id the cancelled call targeted, or -1 when the
	// cancellation was observed at the coordinator.
	SiteID int
	// Op names the cancelled operation.
	Op string
	// Err is the underlying cause; it is (or wraps) context.Canceled.
	Err error
}

func (e *CancelledError) Error() string {
	return fmt.Sprintf("dist: site %d: %s: cancelled: %v", e.SiteID, e.Op, e.Err)
}

func (e *CancelledError) Unwrap() error { return e.Err }

// ctxError converts a context error into the matching typed error. Non-context
// errors pass through unchanged.
func ctxError(siteID int, op string, err error) error {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return &DeadlineError{SiteID: siteID, Op: op, Err: err}
	case errors.Is(err, context.Canceled):
		return &CancelledError{SiteID: siteID, Op: op, Err: err}
	}
	return err
}

// OverloadError reports that the coordinator's admission gate shed the
// query: the serving tier is saturated and taking the query would blow the
// tail latency of everything already in flight. The query was never started
// — callers can safely retry later or surface backpressure upstream.
type OverloadError struct {
	// Reason says which limit tripped ("in-flight limit", "queue full",
	// "queue wait exceeded", ...).
	Reason string
	// InFlight and Queued snapshot the gate at shed time.
	InFlight, Queued int
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("dist: overloaded: %s (in-flight %d, queued %d)", e.Reason, e.InFlight, e.Queued)
}

// AdmissionGate is the coordinator's admission-control hook: Admit blocks
// (briefly) or sheds, returning a release func to call when the admitted
// query finishes, or an *OverloadError when the query should be shed.
// Implementations must be safe for concurrent use. internal/fleet provides
// the production gate; the zero Options has no gate and admits everything.
type AdmissionGate interface {
	Admit(ctx context.Context) (release func(), err error)
}

// QueryError reports which query of a batch (or which single Answer call)
// failed. Unwrap exposes the underlying SiteError or TransportError.
type QueryError struct {
	// Index is the query's position in the batch (0 for single queries).
	Index int
	// Query is the failing query.
	Query control.Query
	// Err is the underlying failure.
	Err error
}

func (e *QueryError) Error() string {
	return fmt.Sprintf("dist: query %d (%v): %v", e.Index, e.Query, e.Err)
}

func (e *QueryError) Unwrap() error { return e.Err }
