package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
)

// Scheduler state export for daemon crash recovery. The persistent state is
// the commitment ledgers (capacity and planned migration) and nothing
// else: every placement compiles and solves its model afresh, so a plan is
// a function of the ledgers and the caller's inputs, and a scheduler
// restored from the ledgers places exactly as the uninterrupted one would.
// Snapshots written while the scheduler still cached per-app solver state
// also carry WarmTick and a Warm map; schedulerState no longer declares
// them, so gob skips them unread. Metrics (Config.Obs) are run-scoped and
// deliberately not part of the state.

// schedulerState is the gob wire form of a Scheduler's mutable state.
type schedulerState struct {
	NumSites, Steps int
	Committed       [][]float64
	MigCommitted    []float64
}

// EncodeState serializes the scheduler's commitment ledgers. The
// configuration is not included: restore by building a scheduler with the
// identical Config/numSites/steps and calling DecodeState on it.
func (s *Scheduler) EncodeState(w io.Writer) error {
	st := schedulerState{
		NumSites:     s.numSites,
		Steps:        s.steps,
		Committed:    s.committed,
		MigCommitted: s.migCommitted,
	}
	if err := gob.NewEncoder(w).Encode(st); err != nil {
		return fmt.Errorf("core: encoding scheduler state: %w", err)
	}
	return nil
}

// DecodeState restores state written by EncodeState into a scheduler built
// with the same shape (numSites, steps). It replaces the ledgers wholesale.
// Corrupt input — truncated, bit-flipped, wrongly shaped, or holding a
// non-finite ledger entry — returns an error and leaves the scheduler
// untouched; a decoder panic (gob panics on some malformed type
// descriptors) is converted to an error rather than killing the process.
func (s *Scheduler) DecodeState(r io.Reader) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("core: decoding scheduler state: corrupt stream: %v", p)
		}
	}()
	var st schedulerState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return fmt.Errorf("core: decoding scheduler state: %w", err)
	}
	if st.NumSites != s.numSites || st.Steps != s.steps {
		return fmt.Errorf("core: scheduler state is %d sites × %d steps, this scheduler is %d × %d",
			st.NumSites, st.Steps, s.numSites, s.steps)
	}
	if len(st.Committed) != s.numSites || len(st.MigCommitted) != s.steps {
		return fmt.Errorf("core: scheduler state ledgers malformed (%d site rows, %d mig steps)",
			len(st.Committed), len(st.MigCommitted))
	}
	for i, row := range st.Committed {
		if len(row) != s.steps {
			return fmt.Errorf("core: scheduler state site %d has %d steps, want %d", i, len(row), s.steps)
		}
		for t, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("core: scheduler state committed ledger holds %v at site %d step %d, want finite", v, i, t)
			}
		}
	}
	for t, v := range st.MigCommitted {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: scheduler state migration ledger holds %v at step %d, want finite", v, t)
		}
	}
	s.committed = st.Committed
	s.migCommitted = st.MigCommitted
	return nil
}
