package workload

import "fmt"

// Class is the SLO class of a VM. The paper's §2.3 splits applications into
// just "stable" and "degradable"; the simulator refines the stable side into
// SLO classes with different pause tolerances and pause-cost weights
// (RealTime, Interactive, Batch), while keeping the legacy two-value split
// as-is: Stable and Degradable retain their original encodings, so old
// traces, gob snapshots and seed experiments are untouched.
//
// Semantics: every class except Degradable is "firm" — its cores are
// scheduled and migrated by the co-scheduler, and pausing them violates the
// class SLO with a cost proportional to the class pause weight. Degradable
// cores pause in place for free (the paper's harvest/spot behaviour). Under
// power scarcity the scheduler degrades cheap classes first: Batch before
// Interactive/Stable before RealTime.
type Class int

const (
	// Stable is the legacy firm class (§2.3's on-demand equivalents). It
	// weighs the same as Interactive; it exists so that pre-SLO traces and
	// snapshots keep their exact meaning and byte encodings.
	Stable Class = iota
	// Degradable VMs tolerate preemption and resizing (spot/harvest
	// equivalents); their cores pause for free and are never migrated.
	Degradable
	// RealTime VMs serve latency-critical traffic: no pause tolerance and
	// the highest pause cost. They are the last to degrade.
	RealTime
	// Interactive VMs serve user-facing but retryable traffic: minutes of
	// pause tolerance at the legacy stable cost.
	Interactive
	// Batch VMs run deferrable computation: hours of pause tolerance at a
	// fraction of the interactive cost. They are the first firm class to
	// degrade.
	Batch
)

// AllClasses lists every class in degradation-ladder order, most critical
// first (the order per-class reports print in).
var AllClasses = []Class{RealTime, Interactive, Stable, Batch, Degradable}

// String implements fmt.Stringer. Stable and Degradable keep their legacy
// spellings ("stable", "degradable") so recorded traces round-trip unchanged.
func (c Class) String() string {
	switch c {
	case Stable:
		return "stable"
	case Degradable:
		return "degradable"
	case RealTime:
		return "realtime"
	case Interactive:
		return "interactive"
	case Batch:
		return "batch"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// ParseClass is the inverse of String. It accepts exactly the five class
// names, so files written by older versions ("stable"/"degradable") parse
// unchanged.
func ParseClass(s string) (Class, error) {
	switch s {
	case "stable":
		return Stable, nil
	case "degradable":
		return Degradable, nil
	case "realtime":
		return RealTime, nil
	case "interactive":
		return Interactive, nil
	case "batch":
		return Batch, nil
	default:
		return 0, fmt.Errorf("workload: unknown class %q", s)
	}
}

// Valid reports whether c is one of the five defined classes.
func (c Class) Valid() bool {
	switch c {
	case Stable, Degradable, RealTime, Interactive, Batch:
		return true
	}
	return false
}

// Firm reports whether the class's cores are scheduled and migrated by the
// co-scheduler (everything but Degradable). Pausing firm cores is an SLO
// violation; degradable cores pause in place for free.
func (c Class) Firm() bool { return c != Degradable }

// PauseWeight is the scheduler's pause-cost weight: how expensive pausing
// one of this class's cores is relative to a legacy stable core. The weight
// scales the MIP shortfall penalty and orders the engines' degradation
// ladder (ascending weight pauses first). Stable is exactly 1 so legacy
// single-class demands reproduce the pre-SLO objective bit for bit.
func (c Class) PauseWeight() float64 {
	switch c {
	case RealTime:
		return 4
	case Interactive, Stable:
		return 1
	case Batch:
		return 0.25
	default: // Degradable and unknown
		return 0
	}
}
