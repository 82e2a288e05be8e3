// Package core implements the paper's primary contribution: the network-
// and power-aware co-scheduler for multi-VB groups (§3.1, Fig 6).
//
// The scheduler follows the paper's four-step pipeline:
//
//  1. Subgraph identification — k-cliques of the site latency graph ranked
//     by combined coefficient of variation (internal/graph).
//  2. Subgraph selection and 3. Site selection — a mixed-integer program
//     (internal/mip) chooses, for each arriving application, how many cores
//     to place on each site of its group at each future plan step, using
//     power forecasts, minimizing predicted migration traffic (objective
//     O1) and optionally the peak per-step traffic (objective O2).
//  4. VM placement — within a site, the cluster packing of internal/cluster
//     applies; at this layer allocations are tracked in cores.
//
// Four policies mirror the paper's Table 1: Greedy (most-available-power
// site, no lookahead), MIP (O1 over the full horizon), MIP24h (O1 over
// rolling 24 h windows), and MIPPeak (O1 + O2).
package core

import (
	"fmt"
	"math"
	"time"

	"github.com/vbcloud/vb/internal/obs"
	"github.com/vbcloud/vb/internal/workload"
)

// Policy selects a scheduling strategy from the paper's Table 1.
type Policy int

// Scheduling policies.
const (
	// Greedy assigns each application to the single site with the most
	// currently available power.
	Greedy Policy = iota
	// MIP minimizes total predicted migration overhead (O1) over the full
	// remaining horizon.
	MIP
	// MIP24h is MIP with a rolling 24-hour lookahead, re-optimized daily.
	MIP24h
	// MIPPeak is MIP plus the peak objective (O2), trading slightly more
	// total traffic for far lower burstiness.
	MIPPeak
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case Greedy:
		return "Greedy"
	case MIP:
		return "MIP"
	case MIP24h:
		return "MIP-24h"
	case MIPPeak:
		return "MIP-peak"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// AllPolicies lists the four Table 1 policies in the paper's order.
func AllPolicies() []Policy { return []Policy{Greedy, MIP24h, MIP, MIPPeak} }

// ParsePolicy returns the policy whose String form is name.
func ParsePolicy(name string) (Policy, error) {
	for _, p := range AllPolicies() {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("core: unknown policy %q (want Greedy, MIP, MIP-24h, or MIP-peak)", name)
}

// Config parameterizes the scheduler.
type Config struct {
	// Policy selects the strategy.
	Policy Policy
	// PlanStep is the granularity of the allocation timeline (e.g. 6 h).
	PlanStep time.Duration
	// PeakWeight scales objective O2 for MIPPeak (zero elsewhere). Zero
	// with MIPPeak selects a default of 8.
	PeakWeight float64
	// MaxSitesPerApp bounds how many sites one application may span
	// (the paper's k, 2-5). Zero selects 3.
	MaxSitesPerApp int
	// UtilTarget is the fraction of powered cores schedulable, in (0, 1]
	// (paper 0.7). Zero selects 0.7.
	UtilTarget float64
	// Obs, when non-nil, receives scheduler metrics and trace events
	// (solve timings, objective values, placement counters). A nil
	// registry is a no-op and costs nothing on the hot path.
	Obs *obs.Registry
}

func (c Config) maxSites() int {
	if c.MaxSitesPerApp == 0 {
		return 3
	}
	return c.MaxSitesPerApp
}

// Utilization returns the schedulable fraction of powered cores:
// UtilTarget, or the paper's 0.7 when it is unset.
func (c Config) Utilization() float64 {
	if c.UtilTarget == 0 {
		return 0.7
	}
	return c.UtilTarget
}

func (c Config) peakWeight() float64 {
	if c.Policy != MIPPeak {
		return 0
	}
	if c.PeakWeight == 0 {
		return 8
	}
	return c.PeakWeight
}

// Validate reports configuration errors. Zero-valued tuning fields select
// the paper defaults; anything else must be in range.
func (c Config) Validate() error {
	if c.PlanStep <= 0 {
		return fmt.Errorf("core: non-positive plan step %v", c.PlanStep)
	}
	if u := c.UtilTarget; math.IsNaN(u) || u < 0 || u > 1 {
		return fmt.Errorf("core: UtilTarget %v outside [0, 1]", u)
	}
	if w := c.PeakWeight; math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
		return fmt.Errorf("core: PeakWeight %v is not a finite non-negative weight", w)
	}
	if c.MaxSitesPerApp < 0 {
		return fmt.Errorf("core: negative MaxSitesPerApp %d", c.MaxSitesPerApp)
	}
	switch c.Policy {
	case Greedy, MIP, MIP24h, MIPPeak:
	default:
		return fmt.Errorf("core: unknown policy %d", int(c.Policy))
	}
	return nil
}

// AppDemand is the scheduler's view of one application: aggregate cores and
// the memory that moves when they migrate.
type AppDemand struct {
	// ID identifies the application.
	ID int
	// Cores is the total cores requested.
	Cores float64
	// StableCores of those require high availability; the rest are
	// degradable and absorb power dips without migrating.
	StableCores float64
	// ClassCores optionally refines the demand by SLO class (cores per
	// class). Nil means the legacy two-class view: StableCores of Stable and
	// the remainder Degradable. When set, the firm-class cores must sum to
	// StableCores and all classes to Cores.
	ClassCores map[workload.Class]float64
	// MemGBPerCore converts migrated cores into migration bytes.
	MemGBPerCore float64
	// Start and End are the activity interval (End zero = until horizon).
	Start time.Time
	End   time.Time
}

// PauseWeight returns the demand's pause-cost weight: the core-weighted mean
// of its firm classes' pause weights. Legacy demands (nil ClassCores) weigh
// exactly 1 — the Stable class weight — so the MIP objective is bit-identical
// to the two-class scheduler's. The sum runs in workload.AllClasses order,
// so the weight's bits do not depend on map iteration order.
func (a AppDemand) PauseWeight() float64 {
	if len(a.ClassCores) == 0 {
		return 1
	}
	var wSum, cores float64
	for _, c := range workload.AllClasses {
		n := a.ClassCores[c]
		if !c.Firm() || n <= 0 {
			continue
		}
		wSum += c.PauseWeight() * n
		cores += n
	}
	if cores <= 0 {
		return 1
	}
	return wSum / cores
}

// ClassBreakdown returns the demand's cores per SLO class. Legacy demands map
// onto {Stable, Degradable}; zero-core classes are absent.
func (a AppDemand) ClassBreakdown() map[workload.Class]float64 {
	m := make(map[workload.Class]float64, 2)
	if len(a.ClassCores) > 0 {
		for c, n := range a.ClassCores {
			if n > 0 {
				m[c] = n
			}
		}
		return m
	}
	if a.StableCores > 0 {
		m[workload.Stable] = a.StableCores
	}
	if d := a.Cores - a.StableCores; d > 0 {
		m[workload.Degradable] = d
	}
	return m
}

// Validate reports demand errors. Non-finite fields are rejected explicitly:
// a NaN (e.g. from a zero-core app's memory-per-core division) compares
// false against every threshold, so the range checks alone would let it
// through into the MIP demand vector.
func (a AppDemand) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{{"cores", a.Cores}, {"stable cores", a.StableCores}, {"memory per core", a.MemGBPerCore}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("core: app %d has non-finite %s (%v)", a.ID, f.name, f.v)
		}
	}
	if a.Cores <= 0 {
		return fmt.Errorf("core: app %d has no cores", a.ID)
	}
	if a.StableCores < 0 || a.StableCores > a.Cores {
		return fmt.Errorf("core: app %d stable cores %v outside [0, %v]", a.ID, a.StableCores, a.Cores)
	}
	if a.MemGBPerCore <= 0 {
		return fmt.Errorf("core: app %d has non-positive memory per core", a.ID)
	}
	if a.ClassCores != nil {
		var firm, total float64
		for c, n := range a.ClassCores {
			if !c.Valid() {
				return fmt.Errorf("core: app %d has unknown class %d", a.ID, int(c))
			}
			if math.IsNaN(n) || math.IsInf(n, 0) || n < 0 {
				return fmt.Errorf("core: app %d has invalid %v cores (%v)", a.ID, c, n)
			}
			if c.Firm() {
				firm += n
			}
			total += n
		}
		const eps = 1e-6
		if math.Abs(firm-a.StableCores) > eps {
			return fmt.Errorf("core: app %d firm class cores %v disagree with stable cores %v", a.ID, firm, a.StableCores)
		}
		if math.Abs(total-a.Cores) > eps {
			return fmt.Errorf("core: app %d class cores sum %v disagrees with cores %v", a.ID, total, a.Cores)
		}
	}
	return nil
}

// Plan is an application's allocation schedule: Alloc[s][t] cores on site s
// during global plan step t. Steps before the app's arrival are zero.
type Plan struct {
	AppID int
	// MemGBPerCore converts the plan's core movements into traffic.
	MemGBPerCore float64
	// Alloc is indexed [site][planStep].
	Alloc [][]float64
}

// MigrationGB returns the planned migration traffic at global step t: cores
// newly appearing on a site relative to the previous step, times memory per
// core.
func (p Plan) MigrationGB(t int) float64 {
	if t <= 0 {
		return 0
	}
	var gb float64
	for _, row := range p.Alloc {
		if d := row[t] - row[t-1]; d > 0 {
			gb += d * p.MemGBPerCore
		}
	}
	return gb
}

// SitesUsed returns how many sites ever receive a positive allocation.
func (p Plan) SitesUsed() int {
	n := 0
	for _, row := range p.Alloc {
		for _, v := range row {
			if v > 1e-9 {
				n++
				break
			}
		}
	}
	return n
}
