// Package mutator is the journalorder fixture: write-ahead mutators in
// clean and seeded-violation form.
package mutator

// Op is a journal-encoded mutation.
type Op struct{ Kind int }

// Journal is the write-ahead log; the analyzer matches on the type name.
type Journal struct{}

// Append durably logs an op.
func (j *Journal) Append(op Op) (uint64, error) { return 0, nil }

// State is live query state.
type State struct{}

// ApplyOp mutates live state.
func (s *State) ApplyOp(op Op) error { return nil }

// InsertObject mutates live state.
func (s *State) InsertObject(op Op) error { return nil }

// goodMutator journals before applying — the write-ahead contract.
func goodMutator(j *Journal, st *State, op Op) error {
	if _, err := j.Append(op); err != nil {
		return err
	}
	return st.ApplyOp(op)
}

// badMutator applies before the op is durable: a crash between the two
// acks a mutation that replay then silently loses.
func badMutator(j *Journal, st *State, op Op) error {
	if err := st.ApplyOp(op); err != nil { // want `state apply before journal append`
		return err
	}
	_, err := j.Append(op)
	return err
}

// logOp is the helper indirection the real DB.logOp uses.
func logOp(j *Journal, op Op) error {
	_, err := j.Append(op)
	return err
}

// goodIndirect appends through a helper — still clean.
func goodIndirect(j *Journal, st *State, op Op) error {
	if err := logOp(j, op); err != nil {
		return err
	}
	return st.InsertObject(op)
}

// badIndirect applies first even though the append hides in a helper.
func badIndirect(j *Journal, st *State, op Op) error {
	if err := st.InsertObject(op); err != nil { // want `state apply before journal append`
		return err
	}
	return logOp(j, op)
}

// branchMutator only journals on one path: the apply is not dominated.
func branchMutator(j *Journal, st *State, op Op, durable bool) error {
	if durable {
		if _, err := j.Append(op); err != nil {
			return err
		}
	}
	return st.ApplyOp(op) // want `state apply before journal append`
}

// deferredAppend journals at return time — after the apply ran.
func deferredAppend(j *Journal, st *State, op Op) error {
	defer j.Append(op)
	return st.ApplyOp(op) // want `state apply before journal append`
}

// replay applies without any journaling: recovery re-applies ops that
// are already durable, so this is clean by construction.
func replay(st *State, ops []Op) error {
	for _, op := range ops {
		if err := st.ApplyOp(op); err != nil {
			return err
		}
	}
	return nil
}

// embedded holds the write-ahead helper the way road's router-backed
// base does under ShardedDB and RemoteDB: callers reach it through the
// outer type, as a promoted method.
type embedded struct {
	j  *Journal
	st *State
}

// logOp appends to the embedded journal.
func (b *embedded) logOp(op Op) error {
	_, err := b.j.Append(op)
	return err
}

// Outer embeds the helper holder.
type Outer struct{ embedded }

// goodPromoted appends through the promoted helper, then applies.
func (o *Outer) goodPromoted(op Op) error {
	if err := o.logOp(op); err != nil {
		return err
	}
	return o.st.ApplyOp(op)
}

// badPromoted applies first: the promoted helper still counts as the
// append, so this is a journaled mutator in the wrong order.
func (o *Outer) badPromoted(op Op) error {
	if err := o.st.ApplyOp(op); err != nil { // want `state apply before journal append`
		return err
	}
	return o.logOp(op)
}
