package sim

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/vbcloud/vb/internal/core"
	"github.com/vbcloud/vb/internal/fault"
	"github.com/vbcloud/vb/internal/forecast"
	"github.com/vbcloud/vb/internal/obs"
	"github.com/vbcloud/vb/internal/trace"
	"github.com/vbcloud/vb/internal/workload"
)

// stepper is the stepping core Engine and VMEngine embed: validated
// configuration and input, the run's registry and scheduler, the step
// clock, the per-step preamble, the placement call, and the set of app IDs
// fed so far. Each engine keeps its own Advance body because the two order
// their phases differently, and swapping either order changes decisions.
type stepper struct {
	cfg         core.Config
	in          Input
	base        trace.Series
	numSites    int
	T           int
	stepsPerDay int
	util        float64
	reg         *obs.Registry
	sched       *core.Scheduler
	step        int
	// fed holds every app ID the engine has accepted; an ID is fed once.
	fed map[int]bool
}

var errNoApps = errors.New("sim: no applications to schedule (Input.Apps is empty)")

// validateStreaming checks everything Input.Validate does except the
// requirement that Apps be non-empty: a streaming engine receives its
// demands through Advance.
func (in Input) validateStreaming() error {
	if len(in.Actual) == 0 {
		return fmt.Errorf("sim: no sites")
	}
	if len(in.Bundles) != len(in.Actual) {
		return fmt.Errorf("sim: %d bundles for %d sites", len(in.Bundles), len(in.Actual))
	}
	if in.TotalCores <= 0 {
		return fmt.Errorf("sim: non-positive core count %v", in.TotalCores)
	}
	base := in.Actual[0]
	if base.IsEmpty() {
		return trace.ErrEmptySeries
	}
	for site, s := range in.Actual {
		if s.Step != base.Step || s.Len() != base.Len() || !s.Start.Equal(base.Start) {
			return fmt.Errorf("sim: power series disagree on time base")
		}
		for t, v := range s.Values {
			if !(v >= 0) || math.IsInf(v, 1) {
				return fmt.Errorf("sim: site %d power at step %d is %v, want finite and non-negative", site, t, v)
			}
		}
	}
	for _, a := range in.Apps {
		if err := a.Validate(); err != nil {
			return err
		}
	}
	if in.Faults != nil {
		sites, steps := in.Faults.Dims()
		if sites != len(in.Actual) || steps != base.Len() {
			return fmt.Errorf("sim: fault injector compiled for %d sites × %d steps, scenario is %d × %d",
				sites, steps, len(in.Actual), base.Len())
		}
	}
	return nil
}

// newStepper validates cfg and in and wires one registry through the run:
// the input's (preferred) or the scheduler config's, whichever is set also
// covering the other layer.
func newStepper(cfg core.Config, in Input) (stepper, error) {
	if err := cfg.Validate(); err != nil {
		return stepper{}, err
	}
	if err := in.validateStreaming(); err != nil {
		return stepper{}, err
	}
	base := in.Actual[0]
	if cfg.PlanStep != base.Step {
		return stepper{}, fmt.Errorf("sim: plan step %v != power step %v", cfg.PlanStep, base.Step)
	}
	numSites, T := len(in.Actual), base.Len()
	reg := in.Obs
	if reg == nil {
		reg = cfg.Obs
	} else if cfg.Obs == nil {
		cfg.Obs = reg
	}
	reg.SetGauge("sim.sites", float64(numSites))
	reg.SetGauge("sim.steps", float64(T))
	if reg != nil {
		for _, b := range in.Bundles {
			b.SetObs(reg)
		}
	}
	sched, err := core.NewScheduler(cfg, numSites, T)
	if err != nil {
		return stepper{}, err
	}
	return stepper{
		cfg: cfg, in: in, base: base, numSites: numSites, T: T,
		stepsPerDay: max(1, int(24*time.Hour/base.Step)),
		util:        cfg.Utilization(), reg: reg, sched: sched,
		fed: map[int]bool{},
	}, nil
}

// Step returns the next step Advance will execute.
func (c *stepper) Step() int { return c.step }

// Steps returns the total step count of the run's timeline.
func (c *stepper) Steps() int { return c.T }

// Now returns the simulation time of the next step.
func (c *stepper) Now() time.Time { return c.base.TimeAt(c.step) }

// Done reports whether the timeline is exhausted.
func (c *stepper) Done() bool { return c.step >= c.T }

// checkBatch reports the first of n arrivals, demand(i) being the i-th,
// that is invalid or repeats an app ID fed before or earlier in the batch.
func (c *stepper) checkBatch(n int, demand func(int) core.AppDemand) error {
	batch := make(map[int]bool, n)
	for i := 0; i < n; i++ {
		d := demand(i)
		if err := d.Validate(); err != nil {
			return err
		}
		if err := c.repeated(d.ID, batch); err != nil {
			return err
		}
		batch[d.ID] = true
	}
	return nil
}

// repeated reports an app ID fed before or already in batch.
func (c *stepper) repeated(id int, batch map[int]bool) error {
	if c.fed[id] || batch[id] {
		return fmt.Errorf("sim: app %d fed twice", id)
	}
	return nil
}

// stepEnv is what one step's phases share: the step and its time, the
// step's WAN budget (nil = unlimited), and the forecast capacity functions
// every placement this step plans against.
type stepEnv struct {
	t                  int
	now                time.Time
	wb                 *fault.LinkBudget
	predCap, stableCap core.CapacityFn
}

// begin opens the next step for a batch of n arrivals. It refuses the
// batch before changing any state, so a caller can retry a corrected
// batch; otherwise it marks the batch's IDs fed, records the step's fault
// onsets, sets its solver pressure, and takes its WAN budget (all no-ops
// without an injector).
func (c *stepper) begin(n int, demand func(int) core.AppDemand) (stepEnv, error) {
	if c.step >= c.T {
		return stepEnv{}, fmt.Errorf("sim: engine already at end of timeline (step %d of %d)", c.step, c.T)
	}
	if err := c.checkBatch(n, demand); err != nil {
		return stepEnv{}, err
	}
	for i := 0; i < n; i++ {
		c.fed[demand(i).ID] = true
	}
	t := c.step
	inj := c.in.Faults
	inj.OnStep(t, c.reg)
	c.sched.SetSolverPressure(inj.SolverInflation(t))
	env := stepEnv{t: t, now: c.base.TimeAt(t), wb: inj.WANBudget(t)}
	env.predCap, env.stableCap = c.capacityFns(env.now, t)
	return env, nil
}

// capacityFns builds the step's forecast capacity estimators. predCap is
// the forecast at face value; stableCap is the rolling minimum with
// lead-dependent pessimism — the paper's "place VMs on sites which are
// predicted to have stable power in the future" preference.
func (c *stepper) capacityFns(now time.Time, t int) (predCap, stableCap core.CapacityFn) {
	in, base, util, T := c.in, c.base, c.util, c.T
	margin := func(lead time.Duration) float64 {
		switch {
		case lead <= forecast.Horizon3H:
			return 0.03
		case lead <= forecast.HorizonDay:
			return 0.10
		default:
			return 0.18
		}
	}
	predCap = func(site, step int) float64 {
		v, ok := in.Bundles[site].PredictAt(now, base.TimeAt(step))
		if !ok {
			v = 0
		}
		// Fault view: in-flight outages (known once struck) and forecast
		// busts scale the prediction; ×1.0 is bit-exact with no injector.
		return util * v * in.TotalCores * in.Faults.ForecastFactor(site, t, step)
	}
	stableCap = func(site, step int) float64 {
		target := base.TimeAt(step)
		lead := target.Sub(now)
		v := math.Inf(1)
		for st := step - 1; st <= step+1; st++ {
			if st < 0 || st >= T {
				continue
			}
			pv, ok := in.Bundles[site].PredictAt(now, base.TimeAt(st))
			if !ok {
				pv = 0
			}
			if pv < v {
				v = pv
			}
		}
		if math.IsInf(v, 1) {
			v = 0
		}
		return (1 - margin(lead)) * util * v * in.TotalCores * in.Faults.ForecastFactor(site, t, step)
	}
	return predCap, stableCap
}

// replanDue reports whether step t re-plans every running app. All MIP
// variants re-plan daily as forecasts refresh ("as the environment changes
// ... we need to rerun the optimization", §3.1) and differ only in
// lookahead; Greedy never re-plans.
func (c *stepper) replanDue(t int) bool {
	return c.cfg.Policy != core.Greedy && t > 0 && t%c.stepsPerDay == 0
}

// endStep maps d's End to the exclusive bound of its active window: the
// step after the one holding End, 0 when End precedes the timeline, so
// that no step schedules the app, or the timeline's end when End is unset
// or after the timeline.
func (c *stepper) endStep(d core.AppDemand) int {
	if !d.End.IsZero() {
		if d.End.Before(c.base.Start) {
			return 0
		}
		if idx := c.base.IndexAt(d.End); idx >= 0 {
			return idx + 1
		}
	}
	return c.T
}

// place plans app d over the env's step to endStep and records the
// placement: a sim.admissions or sim.replans count and a plan_computed
// event. With prev nil it admits d; otherwise it re-plans, releasing prev's
// commitments and starting from cur, d's current cores per site.
func (c *stepper) place(env *stepEnv, d core.AppDemand, endStep int, cur []float64, prev *core.Plan) (core.Plan, error) {
	counter, kind := "sim.admissions", "admit"
	var prevAlloc [][]float64
	if prev != nil {
		counter, kind = "sim.replans", "replan"
		c.sched.Uncommit(*prev, env.t)
		prevAlloc = prev.Alloc
	}
	plan, err := c.sched.Place(d, env.t, endStep, env.predCap, env.stableCap, cur, prevAlloc)
	if err != nil {
		return plan, err
	}
	c.reg.Inc(counter)
	c.reg.Emit(obs.Event{Type: obs.PlanComputed, Step: env.t, App: d.ID, Site: -1, Dst: -1,
		Cores: d.StableCores, Detail: kind})
	return plan, nil
}

// drive is the batch loop under Run and RunVMLevel, timed as span: it
// sorts arrivals by Start in place and advances the engine to the end of
// its timeline, feeding each step the arrivals whose Start it has reached.
// Arrivals that start after the timeline never arrive. A streaming caller
// that feeds the same batches reproduces the batch run bit for bit.
func drive[A any](c *stepper, span string, arrivals []A, start func(A) time.Time, advance func([]A) error) error {
	if len(arrivals) == 0 {
		return errNoApps
	}
	defer obs.Time(c.reg, span)()
	sort.Slice(arrivals, func(i, j int) bool { return start(arrivals[i]).Before(start(arrivals[j])) })
	next := 0
	for !c.Done() {
		now, first := c.Now(), next
		for next < len(arrivals) && !start(arrivals[next]).After(now) {
			next++
		}
		if err := advance(arrivals[first:next]); err != nil {
			return err
		}
	}
	return nil
}

// addClass adds v to class c's entry of a step report's per-class map,
// creating the map on first use so clean steps keep their compact JSON
// form.
func addClass[V int | float64](m *map[string]V, c workload.Class, v V) {
	if *m == nil {
		*m = make(map[string]V)
	}
	(*m)[c.String()] += v
}
