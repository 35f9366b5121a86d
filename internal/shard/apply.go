package shard

import (
	"fmt"

	"road/internal/apierr"
	"road/internal/graph"
	"road/internal/snapshot"
)

// Mutation application is split along the process boundary:
//
//   - Shard.applyLocal is the shard-side half — framework mutation plus
//     the shard's own identity-map updates, in shard-local coordinates.
//     It runs in-process for local shards and ON THE HOST for remote
//     ones (via HostApply).
//   - Router.ApplyOp wraps it with the router-side half: the global
//     graph mirror, edge/object location tables, ID-sequence bookkeeping
//     and integrity checks — which stay router-side in both deployments.
//
// Op encoding is unchanged (see router.go): local coordinates with the
// otherwise-unused fields carrying global IDs.

// applyResult reports the shard-side effects ApplyOp's router half (or a
// host's ApplyReply) needs.
type applyResult struct {
	// network marks weight/topology changes: derived routing state stale.
	network bool
	chg     netChange
	// doomed lists global IDs of objects dropped with a closed edge.
	doomed []graph.ObjectID
	// le is the new local edge (OpAddRoad); lo the new local object
	// (OpInsertObject).
	le graph.EdgeID
	lo graph.ObjectID
}

// checkEdge validates a shard-local edge ID against the shard's edge
// space (identity maps, so it works on mirrors too).
func (s *Shard) checkEdge(le graph.EdgeID) error {
	if le < 0 || int(le) >= len(s.globalEdge) {
		return fmt.Errorf("shard %d: edge %d outside shard state (%d edges)", s.ID, le, len(s.globalEdge))
	}
	return nil
}

// applyLocal applies one journal-encoded op to a full local shard:
// framework mutation plus shard-side identity maps. Runs under the
// shard's write exclusion (router-side lock in-process, host-side lock
// on a shard host).
func (s *Shard) applyLocal(op snapshot.Op) (applyResult, error) {
	var res applyResult
	switch op.Kind {
	case snapshot.OpSetDistance:
		if err := s.checkEdge(op.Edge); err != nil {
			return res, err
		}
		ed := s.F.Graph().Edge(op.Edge)
		ur, err := s.F.SetEdgeWeight(op.Edge, op.Value)
		if err != nil {
			return res, err
		}
		res.network = true
		res.chg = netChange{u: ed.U, v: ed.V, edge: op.Edge, wOld: ed.Weight, wNew: op.Value,
			overlayKept: ur.Filtered || len(ur.ChangedRnets) == 0}

	case snapshot.OpClose:
		if err := s.checkEdge(op.Edge); err != nil {
			return res, err
		}
		ed := s.F.Graph().Edge(op.Edge)
		// The framework drops objects on the edge; drop their identities
		// alongside and report them (the router's location table, and a
		// remote mirror, must drop them too).
		doomedLocal := s.F.Objects().OnEdge(op.Edge)
		if _, err := s.F.DeleteEdge(op.Edge); err != nil {
			return res, err
		}
		for _, lo := range doomedLocal {
			gid := s.globalObj[lo]
			res.doomed = append(res.doomed, gid)
			s.dropObject(gid)
		}
		res.network = true
		res.chg = netChange{u: ed.U, v: ed.V, edge: op.Edge, wOld: ed.Weight, wNew: inf, topology: true}

	case snapshot.OpReopen:
		if err := s.checkEdge(op.Edge); err != nil {
			return res, err
		}
		if _, err := s.F.RestoreEdge(op.Edge); err != nil {
			return res, err
		}
		ed := s.F.Graph().Edge(op.Edge)
		res.network = true
		res.chg = netChange{u: ed.U, v: ed.V, edge: op.Edge, wOld: inf, wNew: ed.Weight, topology: true}

	case snapshot.OpAddRoad:
		// op.Edge carries the GLOBAL ID the road was allocated; the shard
		// records the identity pairing and trusts the router (which
		// validates against its mirror) or the journal (validated when
		// first applied) for global uniqueness.
		le, _, err := s.F.AddEdge(op.U, op.V, op.Value)
		if err != nil {
			return res, err
		}
		s.localEdge[op.Edge] = le
		s.globalEdge = append(s.globalEdge, op.Edge)
		res.le = le
		res.network = true
		res.chg = netChange{u: op.U, v: op.V, edge: le, wOld: inf, wNew: op.Value, topology: true}

	case snapshot.OpInsertObject:
		if err := s.checkEdge(op.Edge); err != nil {
			return res, err
		}
		if _, dup := s.localObj[op.Object]; dup {
			return res, fmt.Errorf("%w: shard %d: global object %d already exists", ErrIntegrity, s.ID, op.Object)
		}
		o, err := s.F.InsertObject(op.Edge, op.Value, op.Attr)
		if err != nil {
			return res, err
		}
		s.addObject(o.ID, op.Object)
		res.lo = o.ID

	case snapshot.OpDeleteObject:
		lo, ok := s.localObj[op.Object]
		if !ok {
			return res, fmt.Errorf("shard %d: object %d: %w", s.ID, op.Object, apierr.ErrNoSuchObject)
		}
		if err := s.F.DeleteObject(lo); err != nil {
			return res, err
		}
		s.dropObject(op.Object)

	case snapshot.OpSetObjectAttr:
		lo, ok := s.localObj[op.Object]
		if !ok {
			return res, fmt.Errorf("shard %d: object %d: %w", s.ID, op.Object, apierr.ErrNoSuchObject)
		}
		if err := s.F.UpdateObjectAttr(lo, op.Attr); err != nil {
			return res, err
		}

	default:
		return res, fmt.Errorf("shard %d: %w: %d", s.ID, snapshot.ErrUnknownOp, op.Kind)
	}
	return res, nil
}

// HostApply applies one op to a full local shard on behalf of a shard
// host: framework + identity maps + incremental derived-state repair, returning the repair's outcome for the router's
// mirror. The caller holds the host-side write exclusion for this shard
// and has already write-ahead logged op; it fills the reply's
// Seq/JournalBytes.
func (s *Shard) HostApply(op snapshot.Op) (ApplyReply, error) {
	res, err := s.applyLocal(op)
	if err != nil {
		return ApplyReply{}, err
	}
	rep := ApplyReply{LocalEdge: res.le, LocalObj: res.lo, Doomed: res.doomed}
	if res.network {
		s.maintainDerived(res.chg)
		rep.Derived = s.derivedUpdate()
	}
	rep.Epoch = s.F.Epoch()
	rep.IndexBytes = s.F.IndexSizeBytes()
	return rep, nil
}

// ReplayApply applies one journal entry during host boot, without
// per-op derived refresh; finish with RefreshDerived.
func (s *Shard) ReplayApply(op snapshot.Op) error {
	_, err := s.applyLocal(op)
	return err
}

// RefreshDerived rebuilds the shard's derived routing state — the bulk
// counterpart of per-op maintenance, for after host-side journal replay.
func (s *Shard) RefreshDerived() { s.refreshDerived(true) }

// ApplyOp applies one journal-encoded mutation to shard id — in-process
// or, for a mirror shard, on its host — and updates the router's global
// bookkeeping. When refresh is false (bulk replay), the shard's derived
// state is NOT rebuilt; the caller must RefreshAll at the end.
func (r *Router) ApplyOp(id ID, op snapshot.Op, refresh bool) error {
	s := r.shards[id]
	// Router-side pre-check shared by both paths: global object-ID
	// uniqueness spans shards, which only the router can see.
	if op.Kind == snapshot.OpInsertObject {
		if _, dup := r.objLoc[op.Object]; dup {
			return fmt.Errorf("%w: shard %d: global object %d already exists", ErrIntegrity, id, op.Object)
		}
	}

	var res applyResult
	if s.F != nil {
		var err error
		res, err = s.applyLocal(op)
		if err != nil {
			return err
		}
	} else {
		// Mirror-side validations mirror applyLocal's cheap ones, so a
		// bad request never crosses the wire.
		switch op.Kind {
		case snapshot.OpSetDistance, snapshot.OpClose, snapshot.OpReopen, snapshot.OpInsertObject:
			if err := s.checkEdge(op.Edge); err != nil {
				return err
			}
		case snapshot.OpDeleteObject, snapshot.OpSetObjectAttr:
			if _, ok := s.localObj[op.Object]; !ok {
				return fmt.Errorf("shard %d: object %d: %w", id, op.Object, apierr.ErrNoSuchObject)
			}
		}
		rep, err := s.remote.Apply(op)
		if err != nil {
			return err
		}
		if refresh {
			// Before any other mirror update: an outcome this router
			// cannot read must fail the op, not stale the mirror.
			if err := s.applyDerivedUpdate(rep.Derived); err != nil {
				return err
			}
		}
		res = applyResult{doomed: rep.Doomed, le: rep.LocalEdge, lo: rep.LocalObj}
		// Mirror the shard-side identity updates applyLocal performed on
		// the host.
		switch op.Kind {
		case snapshot.OpClose:
			for _, gid := range rep.Doomed {
				s.dropObject(gid)
			}
		case snapshot.OpAddRoad:
			s.localEdge[op.Edge] = rep.LocalEdge
			s.globalEdge = append(s.globalEdge, op.Edge)
		case snapshot.OpInsertObject:
			s.addObject(rep.LocalObj, op.Object)
		case snapshot.OpDeleteObject:
			s.dropObject(op.Object)
		}
		s.repoch.Store(rep.Epoch)
		s.rbytes.Store(rep.IndexBytes)
		s.rseq.Store(rep.Seq)
		s.rjbytes.Store(rep.JournalBytes)
	}

	// Router-side global bookkeeping, identical for both paths.
	switch op.Kind {
	case snapshot.OpSetDistance:
		r.mutateMeta(func() { r.g.SetWeight(s.globalEdge[op.Edge], op.Value) })

	case snapshot.OpClose:
		r.mutateMeta(func() {
			for _, gid := range res.doomed {
				delete(r.objLoc, gid)
			}
			r.g.RemoveEdge(s.globalEdge[op.Edge])
		})

	case snapshot.OpReopen:
		r.mutateMeta(func() { r.g.RestoreEdge(s.globalEdge[op.Edge]) })

	case snapshot.OpAddRoad:
		var ge graph.EdgeID
		var addErr error
		r.mutateMeta(func() {
			ge, addErr = r.g.AddEdge(s.globalNode[op.U], s.globalNode[op.V], op.Value)
			if addErr == nil && ge == op.Edge {
				r.edgeShard = append(r.edgeShard, id)
			}
		})
		if addErr != nil {
			return fmt.Errorf("%w: shard %d: global mirror rejected road: %v", ErrIntegrity, id, addErr)
		}
		if ge != op.Edge {
			return fmt.Errorf("%w: shard %d: replayed road got global edge %d, journal says %d", ErrIntegrity, id, ge, op.Edge)
		}

	case snapshot.OpInsertObject:
		r.mutateMeta(func() {
			r.objLoc[op.Object] = id
			if op.Object >= r.nextObj {
				r.nextObj = op.Object + 1
			}
		})

	case snapshot.OpDeleteObject:
		r.mutateMeta(func() { delete(r.objLoc, op.Object) })
	}

	if refresh && s.F != nil && res.network {
		// Object churn leaves the routing state intact: border tables
		// depend only on the network, so only network mutations pay a
		// derived-state repair — and that repair is incremental
		// (maintain.go): it costs what the mutation changed. Its border
		// searches read CSR slabs the framework mutator left current.
		s.maintainDerived(res.chg)
	}
	return nil
}
