package cluster

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"github.com/vbcloud/vb/internal/obs"
	"github.com/vbcloud/vb/internal/trace"
	"github.com/vbcloud/vb/internal/workload"
)

// RunResult holds the per-step outcome of driving one site through a power
// trace — the data behind the paper's Figure 4.
type RunResult struct {
	// Power is the normalized power trace that drove the run.
	Power trace.Series
	// OutGB and InGB are per-step migration traffic series.
	OutGB trace.Series
	InGB  trace.Series
	// Utilization is the per-step core utilization (of total cores).
	Utilization trace.Series
	// Steps holds the raw per-step results.
	Steps []StepResult
}

// TotalOutGB returns total out-migration traffic.
func (r RunResult) TotalOutGB() float64 { return r.OutGB.Total() }

// TotalInGB returns total in-migration traffic.
func (r RunResult) TotalInGB() float64 { return r.InGB.Total() }

// FractionQuietChanges returns the fraction of power *changes* that forced
// no migration out of the site — the paper's ">80% of the power changes
// don't incur migrations. Since the cluster is running at 70% utilization,
// minor variations in power are absorbed by simply powering down
// un-allocated cores" observation. Minor power *gains* still pull queued
// VMs in ("minor power gains cause migrations into the site"), which the
// paper reports separately as the spread-out In series.
func (r RunResult) FractionQuietChanges() float64 {
	n, quiet := 0, 0
	for i := 1; i < len(r.Steps); i++ {
		if r.Power.Values[i] == r.Power.Values[i-1] {
			continue
		}
		n++
		if r.Steps[i].OutGB == 0 {
			quiet++
		}
	}
	if n == 0 {
		return 1
	}
	return float64(quiet) / float64(n)
}

// Run drives a fresh site with the given normalized power series and VM
// arrivals. The series must be non-empty with a positive step. Every VM
// must have a unique ID, positive cores and memory and a non-negative
// lifetime; arrivals outside the power series window are ignored but still
// checked. Run does not keep or modify vms. A warm-up prefix (warmup steps) is simulated
// at full power first so the cluster reaches its steady-state utilization
// before power tracking begins, then excluded from the returned series.
func Run(cfg Config, power trace.Series, vms []workload.VM, warmup int) (RunResult, error) {
	return RunObs(cfg, power, vms, warmup, nil)
}

// RunObs is Run with an observability registry: each post-warm-up step with
// VM activity emits a SiteStep event (traffic, evictions, launches) and the
// per-step out/in traffic feeds registry histograms. A nil registry makes
// RunObs identical to Run.
func RunObs(cfg Config, power trace.Series, vms []workload.VM, warmup int, reg *obs.Registry) (RunResult, error) {
	defer obs.Time(reg, "cluster.run")()
	if power.IsEmpty() {
		return RunResult{}, trace.ErrEmptySeries
	}
	if power.Step <= 0 {
		return RunResult{}, fmt.Errorf("cluster: non-positive power step %v", power.Step)
	}
	if warmup < 0 {
		return RunResult{}, fmt.Errorf("cluster: negative warmup %d", warmup)
	}
	if len(vms) > math.MaxInt32 {
		return RunResult{}, fmt.Errorf("cluster: %d VMs, more than the %d an arrival index holds", len(vms), math.MaxInt32)
	}
	site, err := New(cfg)
	if err != nil {
		return RunResult{}, err
	}
	if err := validateVMs(vms); err != nil {
		return RunResult{}, err
	}
	// Bucket arrivals by step index relative to the warm-up origin without
	// copying the trace: count each step's arrivals, lay the in-window
	// VMs' indices out by step in one order, and sort each step's run by
	// ID (IDs are unique, so the order is fixed).
	warmStart := power.Start.Add(-time.Duration(warmup) * power.Step)
	total := warmup + power.Len()
	stepOf := func(vm *workload.VM) int {
		if d := vm.Arrival.Sub(warmStart); d >= 0 && int(d/power.Step) < total {
			return int(d / power.Step)
		}
		return -1
	}
	// After the prefix sums off[k] counts the arrivals up to and including
	// step k; filling each bucket from its end then leaves off[k] at
	// bucket k's start and off[k+1] at its end.
	off := make([]int, total+1)
	for i := range vms {
		if k := stepOf(&vms[i]); k >= 0 {
			off[k]++
		}
	}
	for k := 1; k <= total; k++ {
		off[k] += off[k-1]
	}
	order := make([]int32, off[total])
	for i := range vms {
		if k := stepOf(&vms[i]); k >= 0 {
			off[k]--
			order[off[k]] = int32(i)
		}
	}
	widest := 0
	for k := range total {
		slices.SortFunc(order[off[k]:off[k+1]], func(a, b int32) int { return cmp.Compare(vms[a].ID, vms[b].ID) })
		widest = max(widest, off[k+1]-off[k])
	}
	// Each step's arrivals are copied into one buffer, refilled before
	// every step: step copies each arrival into a slot and keeps nothing
	// of the slice.
	arrivals := make([]workload.VM, 0, widest)

	res := RunResult{
		Power:       power.Clone(),
		OutGB:       trace.New(power.Start, power.Step, power.Len()),
		InGB:        trace.New(power.Start, power.Step, power.Len()),
		Utilization: trace.New(power.Start, power.Step, power.Len()),
		Steps:       make([]StepResult, power.Len()),
	}
	// Dimensional breakdowns: traffic by direction, VM churn by kind, and
	// arrivals by workload class. Everything — including vec creation and
	// the class tally — stays behind the reg guard so the unobserved path
	// (what the Fig 4a allocation benchmark measures) is untouched.
	var traffic, churn *obs.CounterVec
	if reg != nil {
		traffic = reg.NewCounterVec("cluster.traffic_gb", "dir")
		churn = reg.NewCounterVec("cluster.vm_events", "kind")
		byClass := reg.NewCounterVec("cluster.vm_arrivals", "class")
		for _, i := range order {
			byClass.Inc(vms[i].Class.String())
		}
	}
	for i := 0; i < total; i++ {
		now := warmStart.Add(time.Duration(i) * power.Step)
		frac := 1.0
		if i >= warmup {
			frac = power.Values[i-warmup]
		}
		arrivals = arrivals[:0]
		for _, x := range order[off[i]:off[i+1]] {
			arrivals = append(arrivals, vms[x])
		}
		step := site.step(now, frac, arrivals)
		if i >= warmup {
			j := i - warmup
			res.Steps[j] = step
			res.OutGB.Values[j] = step.OutGB
			res.InGB.Values[j] = step.InGB
			res.Utilization.Values[j] = site.Utilization()
			if reg != nil {
				reg.Observe("cluster.step_out_gb", step.OutGB)
				reg.Observe("cluster.step_in_gb", step.InGB)
				traffic.Add(step.OutGB, "out")
				traffic.Add(step.InGB, "in")
				if step.Evicted != 0 {
					churn.Add(float64(step.Evicted), "evicted")
				}
				if step.Launched != 0 {
					churn.Add(float64(step.Launched), "launched")
				}
				if step.OutGB != 0 || step.InGB != 0 || step.Evicted != 0 || step.Launched != 0 {
					reg.Emit(obs.Event{Type: obs.SiteStep, Step: j, App: -1, Site: 0, Dst: -1,
						Cores: float64(step.Evicted + step.Launched), GB: step.OutGB + step.InGB})
				}
			}
		}
	}
	if reg != nil {
		reg.Add("cluster.out_gb", res.TotalOutGB())
		reg.Add("cluster.in_gb", res.TotalInGB())
	}
	return res, nil
}

// validateVMs rejects a VM list that the site would misaccount: a repeated
// ID or a VM that workload.VM.Validate refuses. The error names the VM's
// index in vms and its ID. IDs that strictly ascend, as every generated
// trace's do, are unique without a sorted copy.
func validateVMs(vms []workload.VM) error {
	ascending := true
	for i := range vms {
		vm := &vms[i]
		if err := vm.Validate(); err != nil {
			return fmt.Errorf("cluster: VM %d (ID %d): %w", i, vm.ID, err)
		}
		ascending = ascending && (i == 0 || vms[i-1].ID < vm.ID)
	}
	if ascending {
		return nil
	}
	ids := make([]int, len(vms))
	for i, vm := range vms {
		ids[i] = vm.ID
	}
	slices.Sort(ids)
	for k := 1; k < len(ids); k++ {
		if ids[k] != ids[k-1] {
			continue
		}
		var at []int
		for i, vm := range vms {
			if vm.ID == ids[k] {
				at = append(at, i)
			}
		}
		return fmt.Errorf("cluster: VM %d (ID %d): repeats the ID of VM %d", at[1], ids[k], at[0])
	}
	return nil
}
