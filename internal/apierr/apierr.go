// Package apierr defines the typed sentinel errors of the road.Store v1
// API. They live in a leaf package (no dependencies beyond the standard
// library) so every layer — graph, core, shard, the public road package
// and the serving subsystem — can wrap and test for the same identities
// with errors.Is, instead of growing layer-private fmt.Errorf strings.
//
// The road package re-exports each sentinel under the same name; callers
// outside this module should test against road.Err*.
package apierr

import "errors"

var (
	// ErrCanceled marks a query aborted by its context (cancellation or
	// deadline). Search loops check cooperatively every few heap pops, so
	// the partial result returned alongside it is a valid prefix of the
	// full answer and Stats.Truncated is set. The context's own error is
	// wrapped too: errors.Is(err, context.Canceled) (or DeadlineExceeded)
	// also holds.
	ErrCanceled = errors.New("query canceled")

	// ErrBudgetExhausted marks a query stopped by its traversal budget
	// (Request.Budget settled nodes) before completing. As with
	// ErrCanceled, the partial result is a valid prefix and
	// Stats.Truncated is set.
	ErrBudgetExhausted = errors.New("traversal budget exhausted")

	// ErrInvalidRequest marks a structurally invalid request (k < 1, a
	// negative or non-finite radius, an empty batch entry).
	ErrInvalidRequest = errors.New("invalid request")

	// ErrNoSuchNode marks a query from an intersection the network does
	// not contain.
	ErrNoSuchNode = errors.New("no such node")

	// ErrNoSuchEdge marks an operation on a road segment the network does
	// not contain.
	ErrNoSuchEdge = errors.New("no such edge")

	// ErrNoSuchObject marks an operation on (or a path query to) an
	// object that does not exist — never created, or already removed.
	ErrNoSuchObject = errors.New("no such object")

	// ErrEdgeClosed marks an operation that needs a live road segment —
	// placing an object, re-weighting, closing again — applied to a
	// closed (removed) one.
	ErrEdgeClosed = errors.New("edge closed")

	// ErrEdgeNotClosed marks a reopen of a segment that is not closed.
	ErrEdgeNotClosed = errors.New("edge not closed")

	// ErrAttrMismatch marks a path query whose target object does not
	// match the request's attribute predicate.
	ErrAttrMismatch = errors.New("attribute mismatch")

	// ErrUnreachable marks a path query whose target cannot be reached
	// from the query node on the live network.
	ErrUnreachable = errors.New("object unreachable")

	// ErrCrossShardRoad marks an AddRoad whose endpoints share no shard:
	// shard boundaries are fixed at build time, so such roads are
	// rejected by sharded stores.
	ErrCrossShardRoad = errors.New("endpoints share no shard")

	// ErrShardUnavailable marks a call that needed a shard host currently
	// marked down (or that failed talking to one). Queries that never
	// touch the dead shard are unaffected; the fleet health loop re-adopts
	// the host when it comes back.
	ErrShardUnavailable = errors.New("shard host unavailable")
)
