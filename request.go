package road

import (
	"context"
	"fmt"
	"math"
)

// This file defines the request side of the road.Store v1 API: typed,
// option-driven request structs shared by every Store implementation, the
// Request/Response pair of the batched Query entry point, and the
// functional options that build them. A request is plain data — it can be
// constructed literally, decoded from JSON (the struct tags are the wire
// format roadd's /batch endpoint speaks), or assembled with the NewKNN /
// NewWithin / NewPath constructors.

// KNNRequest asks for the K objects matching Attr nearest to From.
type KNNRequest struct {
	// From is the query intersection.
	From NodeID `json:"from"`
	// K is the number of neighbours wanted (≥ 1).
	K int `json:"k"`
	// Attr filters objects by attribute category (AnyAttr for all).
	Attr int32 `json:"attr,omitempty"`
	// MaxRadius, when > 0, additionally stops the expansion at that
	// network distance: fewer than K results may come back, but none
	// farther than MaxRadius.
	MaxRadius float64 `json:"max_radius,omitempty"`
	// Budget, when > 0, caps the total nodes settled before the search
	// gives up with ErrBudgetExhausted (the partial result is a valid
	// prefix; see Stats.Truncated).
	Budget int `json:"budget,omitempty"`
}

// WithinRequest asks for every object matching Attr within network
// distance Radius of From, closest first.
type WithinRequest struct {
	From   NodeID  `json:"from"`
	Radius float64 `json:"radius"`
	Attr   int32   `json:"attr,omitempty"`
	Budget int     `json:"budget,omitempty"`
}

// PathRequest asks for the detailed shortest route from From to Object.
type PathRequest struct {
	From   NodeID   `json:"from"`
	Object ObjectID `json:"object"`
	// Attr, when non-zero, requires the target object to match the
	// attribute category (ErrAttrMismatch otherwise). It validates the
	// target and does not steer the search: the route, its cost and its
	// Stats are the same with and without it.
	Attr   int32 `json:"attr,omitempty"`
	Budget int   `json:"budget,omitempty"`
}

// QueryOption tunes a request built by NewKNN, NewWithin or NewPath.
type QueryOption func(*queryOptions)

type queryOptions struct {
	attr      int32
	maxRadius float64
	budget    int
}

// WithAttr restricts the query to objects of one attribute category.
func WithAttr(attr int32) QueryOption {
	return func(o *queryOptions) { o.attr = attr }
}

// WithMaxRadius bounds a kNN expansion at a network distance (ignored by
// Within and Path requests, which carry their own bound).
func WithMaxRadius(radius float64) QueryOption {
	return func(o *queryOptions) { o.maxRadius = radius }
}

// WithBudget caps the nodes a query may settle before aborting with
// ErrBudgetExhausted.
func WithBudget(nodes int) QueryOption {
	return func(o *queryOptions) { o.budget = nodes }
}

func applyOptions(opts []QueryOption) queryOptions {
	var o queryOptions
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// NewKNN builds a kNN request.
func NewKNN(from NodeID, k int, opts ...QueryOption) KNNRequest {
	o := applyOptions(opts)
	return KNNRequest{From: from, K: k, Attr: o.attr, MaxRadius: o.maxRadius, Budget: o.budget}
}

// NewWithin builds a range request.
func NewWithin(from NodeID, radius float64, opts ...QueryOption) WithinRequest {
	o := applyOptions(opts)
	return WithinRequest{From: from, Radius: radius, Attr: o.attr, Budget: o.budget}
}

// NewPath builds a detailed-route request.
func NewPath(from NodeID, obj ObjectID, opts ...QueryOption) PathRequest {
	o := applyOptions(opts)
	return PathRequest{From: from, Object: obj, Attr: o.attr, Budget: o.budget}
}

// Request is one entry of a Query batch: exactly one of the three kinds
// set. The zero Request is invalid and answers ErrInvalidRequest.
type Request struct {
	KNN    *KNNRequest    `json:"knn,omitempty"`
	Within *WithinRequest `json:"within,omitempty"`
	Path   *PathRequest   `json:"path,omitempty"`
}

// Response answers one Request. For kNN and range requests Results holds
// the hits; for path requests Path and Dist hold the route. Err is the
// per-request failure (typed; test with errors.Is) — a failed entry never
// fails its batch.
type Response struct {
	Results []Result `json:"results,omitempty"`
	Path    []NodeID `json:"path,omitempty"`
	Dist    float64  `json:"dist,omitempty"`
	Stats   Stats    `json:"stats"`
	// Epoch is the maintenance epoch every answer of the batch was
	// computed at (one session, no interleaved maintenance).
	Epoch uint64 `json:"epoch"`
	Err   error  `json:"-"`
}

// RunBatch executes each request against one Querier in order, stamping
// every answer with the session's epoch observed once up front — the
// amortization the batched Store.Query entry point is for. Load
// generators and the HTTP layer share this helper so in-process and
// served batches behave identically.
func RunBatch(ctx context.Context, q Querier, reqs []Request) []Response {
	epoch := q.Epoch()
	out := make([]Response, len(reqs))
	for i, req := range reqs {
		out[i].Epoch = epoch
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				out[i].Err = fmt.Errorf("road: batch entry %d: %w: %w", i, ErrCanceled, err)
				out[i].Stats.Truncated = true
				continue
			}
		}
		switch {
		case req.KNN != nil:
			out[i].Results, out[i].Stats, out[i].Err = q.KNNContext(ctx, *req.KNN)
		case req.Within != nil:
			out[i].Results, out[i].Stats, out[i].Err = q.WithinContext(ctx, *req.Within)
		case req.Path != nil:
			var p Path
			p, out[i].Stats, out[i].Err = q.PathToContext(ctx, *req.Path)
			out[i].Path, out[i].Dist = p.Nodes, p.Dist
		default:
			out[i].Err = fmt.Errorf("road: batch entry %d names no query kind: %w", i, ErrInvalidRequest)
		}
	}
	return out
}

// validateKNN checks a kNN request's structure against a store of n nodes.
func validateKNN(req KNNRequest, n int) error {
	if req.K < 1 {
		return fmt.Errorf("road: k %d must be ≥ 1: %w", req.K, ErrInvalidRequest)
	}
	if req.MaxRadius < 0 || math.IsNaN(req.MaxRadius) {
		return fmt.Errorf("road: max radius %v must be ≥ 0: %w", req.MaxRadius, ErrInvalidRequest)
	}
	if req.Budget < 0 {
		return fmt.Errorf("road: budget %d must be ≥ 0: %w", req.Budget, ErrInvalidRequest)
	}
	return checkNode(req.From, n)
}

// validateWithin checks a range request's structure.
func validateWithin(req WithinRequest, n int) error {
	if req.Radius < 0 || math.IsNaN(req.Radius) || math.IsInf(req.Radius, 1) {
		return fmt.Errorf("road: radius %v must be a non-negative finite number: %w", req.Radius, ErrInvalidRequest)
	}
	if req.Budget < 0 {
		return fmt.Errorf("road: budget %d must be ≥ 0: %w", req.Budget, ErrInvalidRequest)
	}
	return checkNode(req.From, n)
}

// validatePath checks a path request's structure.
func validatePath(req PathRequest, n int) error {
	if req.Budget < 0 {
		return fmt.Errorf("road: budget %d must be ≥ 0: %w", req.Budget, ErrInvalidRequest)
	}
	return checkNode(req.From, n)
}

func checkNode(from NodeID, n int) error {
	if int(from) < 0 || int(from) >= n {
		return fmt.Errorf("road: node %d: %w", from, ErrNoSuchNode)
	}
	return nil
}

// clampByRadius truncates a distance-sorted result list at maxRadius —
// how sharded stores honour KNNRequest.MaxRadius (the single-index search
// applies it inside the expansion instead).
func clampByRadius(res []Result, maxRadius float64) []Result {
	if maxRadius <= 0 {
		return res
	}
	for len(res) > 0 && res[len(res)-1].Dist > maxRadius {
		res = res[:len(res)-1]
	}
	return res
}
