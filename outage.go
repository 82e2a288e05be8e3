package vb

import (
	"fmt"
	"strings"

	"github.com/vbcloud/vb/internal/sim"
)

// This file regenerates the robustness experiment behind ISSUE 9: how much
// service the multi-VB group keeps delivering when sites black out or the
// solver degrades. The paper's scheduler goal (i) is availability of stable
// resources; the outage sweep quantifies how gracefully that goal degrades
// when N of the trio's three sites lose power for a full day, and how the
// scheduler's fallback ladder (MIP -> rounded LP -> greedy) absorbs solver
// pressure without ever failing a step.

// outageDays is the simulated span of the outage experiment. Four days keeps
// the sweep cheap (7 runs) while leaving a full pre-outage day, a full
// blackout day, and a recovery day.
const outageDays = 4

// OutageRow is one (scenario, policy) cell of the availability-under-outage
// sweep.
type OutageRow struct {
	// Label names the fault scenario ("no faults", "1-site blackout", ...).
	Label  string
	Policy Policy
	// MeanAvailability is the mean fraction of demanded stable core-steps
	// served across apps — the scheduler's goal (i) under duress.
	MeanAvailability float64
	// PausedStableCoreSteps counts availability violations (stable cores
	// paused), integrated over steps.
	PausedStableCoreSteps float64
	// ShortfallCoreSteps counts demanded cores the scheduler could not
	// place at all.
	ShortfallCoreSteps float64
	// TransferGB is the total migration traffic: outages force evacuations.
	TransferGB float64
	// Fallbacks counts scheduler steps that fell down the degradation
	// ladder (rounded-LP incumbent or greedy instead of full MIP).
	Fallbacks float64
	// DeadlineExceeded counts solves truncated by deadline or derated node
	// budget.
	DeadlineExceeded float64
}

// OutageResult is the availability-under-outage table.
type OutageResult struct {
	Rows []OutageRow
	// BlackoutSteps is the [start, end) plan-step window of the injected
	// blackouts.
	BlackoutSteps [2]int
}

// AvailabilityUnderOutage sweeps N = 0, 1, 2 simultaneous one-day site
// blackouts over the paper's European trio for the Greedy and MIP policies,
// plus a solver-slowdown scenario that forces the MIP down its fallback
// ladder. Every run is deterministic given the seed; the zero-fault rows are
// bit-identical to the seed experiment (the fault hooks are exact
// identities when no event is active).
func AvailabilityUnderOutage(seed uint64) (OutageResult, error) {
	// Steps are 6-hourly: day 3 of the 4-day run is steps [8, 12).
	const blackoutStart, blackoutEnd = 8, 12
	res := OutageResult{BlackoutSteps: [2]int{blackoutStart, blackoutEnd}}

	type scenario struct {
		label  string
		script *FaultScript
	}
	// Black out the load-bearing sites first: at the default seed the MIP
	// parks most demand on sites 1 and 2 during day 3, so the sweep measures
	// losing capacity the schedule actually uses.
	blackoutOrder := []int{1, 2}
	scenarios := []scenario{{label: "no faults"}}
	for n := 1; n <= 2; n++ {
		s := &FaultScript{}
		for _, site := range blackoutOrder[:n] {
			s.Events = append(s.Events, FaultEvent{
				Kind: FaultSiteBlackout, Site: site,
				Start: blackoutStart, End: blackoutEnd,
			})
		}
		scenarios = append(scenarios, scenario{
			label:  fmt.Sprintf("%d-site blackout", n),
			script: s,
		})
	}
	// The solver-slowdown scenario inflates solve latency 4096x for the
	// whole run: the node budget derates to 1/4096th, the MIP abandons
	// optimality and the degradation ladder serves rounded-LP/greedy
	// incumbents instead (visible in the Fallback/DeadlineX columns).
	slowdown := &FaultScript{Events: []FaultEvent{{
		Kind: FaultSolverSlowdown, Site: -1, Severity: 4096,
		Start: 0, End: outageDays * 4,
	}}}

	run := func(label string, pol Policy, script *FaultScript) (OutageRow, error) {
		reg := NewMetrics()
		s := Table1Setup{Seed: seed, Days: outageDays, Faults: script, Obs: reg}.withDefaults()
		sc, err := table1Scenario(s, table1Start, EuropeanTrio())
		if err != nil {
			return OutageRow{}, err
		}
		r, err := sim.Run(table1Config(s, pol), sc.in)
		if err != nil {
			return OutageRow{}, fmt.Errorf("vb: outage %q policy %v: %w", label, pol, err)
		}
		return OutageRow{
			Label:                 label,
			Policy:                pol,
			MeanAvailability:      r.MeanAvailability(),
			PausedStableCoreSteps: r.PausedStableCoreSteps,
			ShortfallCoreSteps:    r.ShortfallCoreSteps,
			TransferGB:            r.Transfer.Total(),
			Fallbacks:             reg.Counter("scheduler.fallback.count"),
			DeadlineExceeded:      reg.Counter("solver.deadline_exceeded"),
		}, nil
	}

	for _, sc := range scenarios {
		for _, pol := range []Policy{PolicyGreedy, PolicyMIP} {
			row, err := run(sc.label, pol, sc.script)
			if err != nil {
				return OutageResult{}, err
			}
			res.Rows = append(res.Rows, row)
		}
	}
	row, err := run("4096x solver slowdown", PolicyMIP, slowdown)
	if err != nil {
		return OutageResult{}, err
	}
	res.Rows = append(res.Rows, row)
	return res, nil
}

// Row returns the first row matching (label, policy), or false.
func (r OutageResult) Row(label string, p Policy) (OutageRow, bool) {
	for _, row := range r.Rows {
		if row.Label == label && row.Policy == p {
			return row, true
		}
	}
	return OutageRow{}, false
}

// Report renders the availability-under-outage table.
func (r OutageResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Availability under outage (%d-day run; blackouts cover steps [%d,%d))\n",
		outageDays, r.BlackoutSteps[0], r.BlackoutSteps[1])
	b.WriteString("  Scenario             Policy    Avail%  Paused   Short    Transfer  Fallback  DeadlineX\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-20s %-9s %5.2f%%  %-8.0f %-8.0f %-9.0f %-9.0f %.0f\n",
			row.Label, row.Policy, row.MeanAvailability*100,
			row.PausedStableCoreSteps, row.ShortfallCoreSteps, row.TransferGB,
			row.Fallbacks, row.DeadlineExceeded)
	}
	return b.String()
}
