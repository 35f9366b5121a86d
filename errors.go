package road

import "road/internal/apierr"

// Typed sentinel errors of the v1 API. Every error a Store returns wraps
// one of these (test with errors.Is); context-derived failures
// additionally wrap the context's own error, so
// errors.Is(err, context.DeadlineExceeded) works too.
var (
	// ErrCanceled marks a query aborted by its context. The partial
	// result returned with it is a valid prefix of the full answer and
	// Stats.Truncated is set.
	ErrCanceled = apierr.ErrCanceled
	// ErrBudgetExhausted marks a query stopped by its traversal budget.
	ErrBudgetExhausted = apierr.ErrBudgetExhausted
	// ErrInvalidRequest marks a structurally invalid request.
	ErrInvalidRequest = apierr.ErrInvalidRequest
	// ErrNoSuchNode marks a query from a non-existent intersection.
	ErrNoSuchNode = apierr.ErrNoSuchNode
	// ErrNoSuchEdge marks an operation on a non-existent road segment.
	ErrNoSuchEdge = apierr.ErrNoSuchEdge
	// ErrNoSuchObject marks an operation on a non-existent object.
	ErrNoSuchObject = apierr.ErrNoSuchObject
	// ErrEdgeClosed marks an operation that needs a live road segment
	// applied to a closed one.
	ErrEdgeClosed = apierr.ErrEdgeClosed
	// ErrEdgeNotClosed marks a reopen of a segment that is not closed.
	ErrEdgeNotClosed = apierr.ErrEdgeNotClosed
	// ErrAttrMismatch marks a path query whose target object fails the
	// attribute predicate.
	ErrAttrMismatch = apierr.ErrAttrMismatch
	// ErrUnreachable marks a path query whose target cannot be reached.
	ErrUnreachable = apierr.ErrUnreachable
	// ErrCrossShardRoad marks an AddRoad whose endpoints share no shard.
	ErrCrossShardRoad = apierr.ErrCrossShardRoad
	// ErrShardUnavailable marks a call that needed an out-of-process
	// shard host currently unreachable or marked down (RemoteDB only).
	// The serving layer answers it with HTTP 503.
	ErrShardUnavailable = apierr.ErrShardUnavailable
)
