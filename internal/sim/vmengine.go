package sim

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"time"

	"github.com/vbcloud/vb/internal/cluster"
	"github.com/vbcloud/vb/internal/core"
	"github.com/vbcloud/vb/internal/fault"
	"github.com/vbcloud/vb/internal/obs"
	"github.com/vbcloud/vb/internal/trace"
	"github.com/vbcloud/vb/internal/workload"
)

// VMEngine is the VM-granularity engine behind RunVMLevel: the evict →
// admit → replan → reconcile → rehome → depart loop, advanced one plan step
// at a time so a long-lived daemon (cmd/vbserve) can stream app arrivals in
// as they happen. RunVMLevel is a thin loop over Advance; feeding a
// VMEngine the batch arrivals in Start order reproduces RunVMLevel's
// decisions bit-for-bit. Unlike the fluid core-level Engine, a VMEngine
// owns real cluster.Site simulators, which — together with its plans and
// the scheduler's commitment ledgers — it can snapshot to disk and restore
// for crash recovery.
type VMEngine struct {
	stepper
	clusterCfg cluster.Config
	vecs       vmVecs
	sites      []*cluster.Site

	order  []*vmAppState
	vmSite map[int]int // vmID -> site (-1 = displaced)
	// fedVMs holds the ID of every firm VM the engine has accepted; an ID
	// is fed once, since vmSite is keyed by it.
	fedVMs map[int]bool

	fragSum float64
	res     VMLevelResult
}

// vmAppState is one streamed application's live scheduling state.
type vmAppState struct {
	demand  core.AppDemand
	plan    core.Plan
	vms     []workload.VM // stable VMs only
	endStep int
	started bool
}

// AppArrival is one application entering the system: its aggregate demand
// for the co-scheduler plus the discrete VMs behind it. Only Stable-class
// VMs are scheduled (degradable VMs pause in place for free, as in Run).
type AppArrival struct {
	Demand core.AppDemand `json:"demand"`
	VMs    []workload.VM  `json:"vms,omitempty"`
}

// Validate reports an arrival no engine state could make right: an invalid
// demand, or a VM that workload.VM.Validate refuses or that belongs to
// another app. Repeated IDs are Enqueue's to find.
func (a AppArrival) Validate() error {
	if err := a.Demand.Validate(); err != nil {
		return err
	}
	for i, vm := range a.VMs {
		if err := vm.Validate(); err != nil {
			return fmt.Errorf("sim: app %d VM %d (ID %d): %w", a.Demand.ID, i, vm.ID, err)
		}
		if vm.AppID != a.Demand.ID {
			return fmt.Errorf("sim: app %d VM %d (ID %d) belongs to app %d", a.Demand.ID, i, vm.ID, vm.AppID)
		}
	}
	return nil
}

// VMEvent identifies a VM-level event at a site.
type VMEvent struct {
	VM   int `json:"vm"`
	App  int `json:"app"`
	Site int `json:"site"`
}

// VMMove is one inter-site VM migration, with the reason the engine moved
// it: "reconcile" (plan steering) or "rehome" (relaunch after eviction).
type VMMove struct {
	VM     int     `json:"vm"`
	App    int     `json:"app"`
	From   int     `json:"from"`
	To     int     `json:"to"`
	GB     float64 `json:"gb"`
	Reason string  `json:"reason"`
}

// VMStepReport is the decision record of one Advance call: everything the
// engine decided this step, in deterministic order, suitable for a JSONL
// decision log.
type VMStepReport struct {
	Step int       `json:"step"`
	Now  time.Time `json:"now"`
	// Admitted lists app IDs that started this step.
	Admitted []int `json:"admitted,omitempty"`
	// Replans counts daily re-planning invocations this step.
	Replans int `json:"replans,omitempty"`
	// Evicted lists VMs displaced by power drops, in eviction order.
	Evicted []VMEvent `json:"evicted,omitempty"`
	// Moves lists inter-site migrations, in execution order.
	Moves []VMMove `json:"moves,omitempty"`
	// Failed lists VMs that could not be placed anywhere this step.
	Failed []int `json:"failed,omitempty"`
	// TransferGB is the step's total migration traffic.
	TransferGB float64 `json:"transfer_gb"`
	// Fragmentation is the mean end-of-step fragmentation across sites.
	Fragmentation float64 `json:"fragmentation"`
	// Per-SLO-class step deltas (absent when the step had none).
	EvictedByClass map[string]int     `json:"evicted_by_class,omitempty"`
	FailedByClass  map[string]int     `json:"failed_by_class,omitempty"`
	MovesGBByClass map[string]float64 `json:"moves_gb_by_class,omitempty"`
}

// NewVMEngine builds a VM-granularity stepping engine. Unlike RunVMLevel,
// Input.Apps may be empty: applications arrive through Advance, each app
// once. Feed each app at (or before) the first step whose time reaches its
// Start, in Start order, to match batch semantics.
func NewVMEngine(cfg core.Config, in Input, clusterCfg cluster.Config) (*VMEngine, error) {
	c, err := newStepper(cfg, in)
	if err != nil {
		return nil, err
	}
	if err := clusterCfg.Validate(); err != nil {
		return nil, err
	}
	sites := make([]*cluster.Site, c.numSites)
	for i := range sites {
		if sites[i], err = cluster.New(clusterCfg); err != nil {
			return nil, err
		}
	}
	return &VMEngine{
		stepper: c, clusterCfg: clusterCfg,
		vecs:   newVMVecs(c.reg, cfg.Policy, c.numSites),
		sites:  sites,
		vmSite: map[int]int{},
		fedVMs: map[int]bool{},
		res: VMLevelResult{
			Policy:   cfg.Policy,
			Transfer: trace.New(c.base.Start, c.base.Step, c.T),
		},
	}, nil
}

// Running returns the number of VMs currently placed on some site.
func (e *VMEngine) Running() int {
	n := 0
	for _, s := range e.vmSite {
		if s >= 0 {
			n++
		}
	}
	return n
}

// TrackedVMs returns the size of the VM location table (placed plus
// displaced VMs). A long-lived daemon watches this for leaks.
func (e *VMEngine) TrackedVMs() int { return len(e.vmSite) }

// Result returns the accumulated run result. After Done it equals what
// RunVMLevel would have returned.
func (e *VMEngine) Result() VMLevelResult {
	r := e.res
	if e.step > 0 {
		r.Fragmentation = e.fragSum / float64(e.step)
	}
	return r
}

// ArrivalQueue is a batch of arrivals for one Advance, built one arrival
// at a time by Enqueue, which keeps the app and firm VM IDs the batch
// holds. The zero value is empty. A queue is checked against the engine
// as it was when each arrival joined, so hand it to the next Advance and
// start a new one after.
type ArrivalQueue struct {
	Arrivals []AppArrival
	apps     map[int]bool
	vms      map[int]bool
}

// Enqueue appends arr to q when Advance would accept q.Arrivals with arr
// appended; otherwise it reports why and leaves q as it was. Advance
// refuses an arrival that Validate refuses, an app ID already queued or
// fed to the engine, and a firm VM ID already queued or fed (restored apps
// included in both). Degradable VMs are never tracked, so their IDs may
// repeat. Enqueue checks arr alone, so a queue of n arrivals is built in
// time linear in their VMs.
func (e *VMEngine) Enqueue(q *ArrivalQueue, arr AppArrival) error {
	if err := arr.Validate(); err != nil {
		return err
	}
	if err := e.repeated(arr.Demand.ID, q.apps); err != nil {
		return err
	}
	ids := make(map[int]bool, len(arr.VMs))
	for _, vm := range arr.VMs {
		if !vm.Class.Firm() {
			continue
		}
		if e.fedVMs[vm.ID] || q.vms[vm.ID] || ids[vm.ID] {
			return fmt.Errorf("sim: app %d VM %d fed twice", arr.Demand.ID, vm.ID)
		}
		ids[vm.ID] = true
	}
	if q.apps == nil {
		q.apps, q.vms = map[int]bool{}, map[int]bool{}
	}
	q.apps[arr.Demand.ID] = true
	for id := range ids {
		q.vms[id] = true
	}
	q.Arrivals = append(q.Arrivals, arr)
	return nil
}

// CheckArrivals reports why Advance would refuse batch: the first arrival
// Enqueue refuses when batch is queued in order.
func (e *VMEngine) CheckArrivals(batch []AppArrival) error {
	var q ArrivalQueue
	for _, arr := range batch {
		if err := e.Enqueue(&q, arr); err != nil {
			return err
		}
	}
	return nil
}

// Advance executes one plan step: feed the arrivals, apply power (evicting
// as needed), admit arrived apps and replan daily, reconcile VMs against
// plans, rehome displaced VMs, and depart finished ones. A batch
// CheckArrivals refuses is refused whole, leaving the engine unchanged.
func (e *VMEngine) Advance(arrivals []AppArrival) (VMStepReport, error) {
	if err := e.CheckArrivals(arrivals); err != nil {
		return VMStepReport{}, err
	}
	env, err := e.begin(len(arrivals), func(i int) core.AppDemand { return arrivals[i].Demand })
	if err != nil {
		return VMStepReport{}, err
	}
	// Register the arrivals in feed order, which the batch driver makes
	// Start order. Every firm class is scheduled and tracked; degradable
	// VMs pause in place for free (the paper's harvest semantics) and never
	// constrain placement. Legacy traces carry only Stable here.
	for _, arr := range arrivals {
		st := &vmAppState{demand: arr.Demand, endStep: e.endStep(arr.Demand)}
		for _, vm := range arr.VMs {
			if vm.Class.Firm() {
				st.vms = append(st.vms, vm)
				e.fedVMs[vm.ID] = true
			}
		}
		e.order = append(e.order, st)
	}
	t, now := env.t, env.now
	rep := VMStepReport{Step: t, Now: now}
	res := &e.res

	// 1. Apply power to every site. Capacity faults scale the power each
	// site sees. Evicted VMs are marked displaced (site -1) and re-homed in
	// step 4.
	for sIdx, site := range e.sites {
		for _, vm := range site.SetPowerEvict(e.in.Actual[sIdx].Values[t] * e.in.Faults.CapFactor(sIdx, t)) {
			e.vmSite[vm.ID] = -1
			rep.Evicted = append(rep.Evicted, VMEvent{VM: vm.ID, App: vm.AppID, Site: sIdx})
			addClass(&rep.EvictedByClass, vm.Class, 1)
			e.reg.Emit(obs.Event{Type: obs.VMEvicted, Step: t, App: vm.AppID, Site: sIdx, Dst: -1,
				VM: vm.ID, Cores: float64(vm.Cores), GB: float64(vm.MemoryGB)})
			e.vecs.evicted.Inc(e.vecs.policy, e.vecs.sites[sIdx])
			e.vecs.evictedCls.Inc(e.vecs.policy, vm.Class.String())
		}
	}

	// 2. Plan: admit arriving apps, then replan daily for MIP policies.
	for _, st := range e.order {
		if st.started || st.demand.Start.After(now) || t >= st.endStep {
			continue
		}
		if st.demand.StableCores > 0 {
			plan, err := e.place(&env, st.demand, st.endStep, nil, nil)
			if err != nil {
				return rep, err
			}
			st.plan = plan
		}
		st.started = true
		rep.Admitted = append(rep.Admitted, st.demand.ID)
	}
	if e.replanDue(t) {
		for _, st := range e.order {
			if !st.started || t >= st.endStep || st.plan.Alloc == nil {
				continue
			}
			cur := make([]float64, e.numSites)
			for _, vm := range st.vms {
				if s, ok := e.vmSite[vm.ID]; ok && s >= 0 {
					cur[s] += float64(vm.Cores)
				}
			}
			plan, err := e.place(&env, st.demand, st.endStep, cur, &st.plan)
			if err != nil {
				return rep, err
			}
			st.plan = plan
			rep.Replans++
		}
	}

	// 3. Reconcile each app's VMs against its plan: move VMs from
	// over-target sites to under-target sites with real headroom.
	for _, st := range e.order {
		if !st.started || t >= st.endStep || st.plan.Alloc == nil {
			continue
		}
		e.reconcile(st, t, env.wb, &rep)
	}

	// 4. Re-home displaced VMs and start never-placed VMs at their app's
	// planned sites (or anywhere with room). Rehoming is not WAN-gated: an
	// evicted VM has no live source replica (From is -1), so its relaunch
	// pulls from durable storage rather than the inter-site links the fault
	// model meters.
	for _, st := range e.order {
		if !st.started || t >= st.endStep {
			continue
		}
		for _, vm := range st.vms {
			if s, ok := e.vmSite[vm.ID]; ok && s >= 0 {
				continue
			}
			if end := vm.End(); !end.IsZero() && !end.After(now) {
				continue
			}
			placed := placeVM(vm, st.plan, t, e.sites, e.vmSite)
			if placed >= 0 {
				// Relaunch after displacement costs traffic; first boot
				// is free.
				if _, seen := e.vmSite[vm.ID]; seen {
					e.recordMove(&rep, t, vm, -1, placed, "rehome")
				}
				e.vmSite[vm.ID] = placed
			} else {
				res.FailedPlacements++
				addClass(&rep.FailedByClass, vm.Class, 1)
				rep.Failed = append(rep.Failed, vm.ID)
				e.reg.Inc("sim.vmlevel.failed_placements")
				e.reg.Emit(obs.Event{Type: obs.VMPlacementFail, Step: t, App: vm.AppID, Site: -1, Dst: -1,
					VM: vm.ID, Cores: float64(vm.Cores)})
				e.vecs.failedCls.Inc(e.vecs.policy, vm.Class.String())
			}
		}
	}

	// 5. Departures. Ended VMs leave the location table whether they are
	// running (site >= 0) or displaced (site -1): an evicted VM whose
	// lifetime ran out while waiting will never run again, and keeping it
	// would leak an entry per displaced-then-expired VM over a long run.
	for _, st := range e.order {
		for _, vm := range st.vms {
			s, ok := e.vmSite[vm.ID]
			if !ok {
				continue
			}
			if end := vm.End(); !end.IsZero() && !end.After(now) {
				if s >= 0 {
					e.sites[s].Remove(vm.ID)
				}
				delete(e.vmSite, vm.ID)
			}
		}
	}

	// Fragmentation bookkeeping.
	var frag float64
	for _, site := range e.sites {
		frag += site.Fragmentation()
	}
	e.fragSum += frag / float64(e.numSites)
	rep.Fragmentation = frag / float64(e.numSites)
	rep.TransferGB = res.Transfer.Values[t]
	e.reg.Observe("sim.vmlevel.step_transfer_gb", res.Transfer.Values[t])
	e.step++
	return rep, nil
}

// reconcile moves an app's VMs between sites until per-site core sums are
// within one VM of the plan, charging traffic for each move.
func (e *VMEngine) reconcile(st *vmAppState, t int, wb *fault.LinkBudget, rep *VMStepReport) {
	numSites := e.numSites
	plan := st.plan
	cur := make([]float64, numSites)
	bySite := make([][]workload.VM, numSites)
	for _, vm := range st.vms {
		if s, ok := e.vmSite[vm.ID]; ok && s >= 0 {
			cur[s] += float64(vm.Cores)
			bySite[s] = append(bySite[s], vm)
		}
	}
	for src := 0; src < numSites; src++ {
		over := cur[src] - plan.Alloc[src][t]
		for _, vm := range bySite[src] {
			if over < float64(vm.Cores) {
				continue // moving this VM would overshoot
			}
			// Find the most under-target destination that admits it.
			dst, worst := -1, 1e-9
			for d := 0; d < numSites; d++ {
				if d == src {
					continue
				}
				if under := plan.Alloc[d][t] - cur[d]; under > worst {
					dst, worst = d, under
				}
			}
			if dst < 0 {
				break
			}
			gb := float64(vm.MemoryGB)
			if !wb.CanMove(src, dst, gb) {
				continue // WAN link cut or out of budget; stay put
			}
			if !e.sites[dst].Admit(vm) {
				continue // fragmentation or admission refuses; stay put
			}
			wb.Consume(src, dst, gb)
			e.sites[src].Remove(vm.ID)
			e.vmSite[vm.ID] = dst
			cur[src] -= float64(vm.Cores)
			cur[dst] += float64(vm.Cores)
			over -= float64(vm.Cores)
			e.recordMove(rep, t, vm, src, dst, "reconcile")
		}
	}
}

// recordMove accounts one VM migration with its reason — a reconcile move
// between sites or a rehome relaunch from src -1 — in the result, the step
// report, the event stream and the vecs.
func (e *VMEngine) recordMove(rep *VMStepReport, t int, vm workload.VM, src, dst int, reason string) {
	gb := float64(vm.MemoryGB)
	e.res.Transfer.Values[t] += gb
	e.res.Moves++
	addClass(&rep.MovesGBByClass, vm.Class, gb)
	rep.Moves = append(rep.Moves, VMMove{VM: vm.ID, App: vm.AppID, From: src, To: dst, GB: gb, Reason: reason})
	e.reg.Emit(obs.Event{Type: obs.VMMoved, Step: t, App: vm.AppID, Site: src, Dst: dst,
		VM: vm.ID, Cores: float64(vm.Cores), GB: gb, Detail: reason})
	e.vecs.moves.Add(gb, e.vecs.policy, e.vecs.site(src), e.vecs.sites[dst])
	e.vecs.movesCls.Add(gb, e.vecs.policy, vm.Class.String())
}

// --- Snapshot / restore ---------------------------------------------------

// vmEngineFingerprint pins the run parameters a snapshot belongs to, so a
// snapshot cannot silently restore into a differently configured engine.
type vmEngineFingerprint struct {
	Policy     core.Policy
	PlanStep   time.Duration
	NumSites   int
	Steps      int
	TotalCores float64
	Cluster    cluster.Config
	Start      time.Time
	// FaultHash pins the fault script: a snapshot taken under one fault
	// timeline must not restore into an engine running a different one, or
	// the replayed decisions would silently diverge. Zero means no faults
	// (and old snapshots without the field decode to zero, which matches a
	// nil injector).
	FaultHash uint64
}

func (e *VMEngine) fingerprint() vmEngineFingerprint {
	return vmEngineFingerprint{
		Policy:     e.cfg.Policy,
		PlanStep:   e.cfg.PlanStep,
		NumSites:   e.numSites,
		Steps:      e.T,
		TotalCores: e.in.TotalCores,
		Cluster:    e.clusterCfg,
		Start:      e.base.Start,
		FaultHash:  e.in.Faults.Hash(),
	}
}

// vmAppWire is one app's state in snapshot wire form.
type vmAppWire struct {
	Demand  core.AppDemand
	Plan    core.Plan
	EndStep int
	Started bool
	VMs     []workload.VM
}

// vmEngineState is the complete gob wire form of a VMEngine. The obs
// registry is deliberately excluded: metrics are process-scoped telemetry,
// not decision state.
type vmEngineState struct {
	Fingerprint vmEngineFingerprint
	Step        int
	Apps        []vmAppWire
	VMSite      map[int]int
	Sites       []cluster.SiteState
	Sched       []byte

	TransferValues   []float64
	Moves            int
	FailedPlacements int
	FragSum          float64
}

// Snapshot serializes the engine's complete decision state — streamed apps
// and their plans, the VM location table, every site's server packing, and
// the scheduler's commitment ledgers — such that RestoreVMEngine resumes
// producing bit-identical decisions. No solver state is carried: every
// placement recompiles its model into the scheduler's solver arena in
// place, and only the arena's capacity survives from one placement to the
// next.
func (e *VMEngine) Snapshot(w io.Writer) error {
	var sched bytes.Buffer
	if err := e.sched.EncodeState(&sched); err != nil {
		return err
	}
	st := vmEngineState{
		Fingerprint:      e.fingerprint(),
		Step:             e.step,
		Apps:             make([]vmAppWire, len(e.order)),
		VMSite:           e.vmSite,
		Sites:            make([]cluster.SiteState, e.numSites),
		Sched:            sched.Bytes(),
		TransferValues:   e.res.Transfer.Values,
		Moves:            e.res.Moves,
		FailedPlacements: e.res.FailedPlacements,
		FragSum:          e.fragSum,
	}
	for i, a := range e.order {
		st.Apps[i] = vmAppWire{Demand: a.demand, Plan: a.plan, EndStep: a.endStep, Started: a.started, VMs: a.vms}
	}
	for i, site := range e.sites {
		st.Sites[i] = site.State()
	}
	if err := gob.NewEncoder(w).Encode(st); err != nil {
		return fmt.Errorf("sim: encoding engine snapshot: %w", err)
	}
	return nil
}

// countingReader tracks how many bytes a decoder has consumed, so corrupt
// snapshots can be reported with a byte position.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// RestoreVMEngine rebuilds an engine from a Snapshot. cfg, in, and
// clusterCfg must describe the same run that produced the snapshot (the
// snapshot's fingerprint is checked); the restored engine continues from
// the snapshotted step with the exact decision state of the original.
//
// Corrupt input — truncated, bit-flipped, or otherwise undecodable — always
// returns an error carrying the byte offset where decoding failed, never a
// panic: gob panics on some malformed type descriptors, and a daemon
// restoring a damaged snapshot must degrade to a fresh start, not crash.
func RestoreVMEngine(cfg core.Config, in Input, clusterCfg cluster.Config, r io.Reader) (eng *VMEngine, err error) {
	cr := &countingReader{r: r}
	defer func() {
		if p := recover(); p != nil {
			eng, err = nil, fmt.Errorf("sim: decoding engine snapshot: corrupt stream at byte %d: %v", cr.n, p)
		}
	}()
	e, err := NewVMEngine(cfg, in, clusterCfg)
	if err != nil {
		return nil, err
	}
	var st vmEngineState
	if err := gob.NewDecoder(cr).Decode(&st); err != nil {
		return nil, fmt.Errorf("sim: decoding engine snapshot at byte %d: %w", cr.n, err)
	}
	if got, want := st.Fingerprint, e.fingerprint(); got != want {
		return nil, fmt.Errorf("sim: snapshot fingerprint %+v does not match engine %+v", got, want)
	}
	if st.Step < 0 || st.Step > e.T {
		return nil, fmt.Errorf("sim: snapshot step %d outside [0,%d]", st.Step, e.T)
	}
	if len(st.TransferValues) != e.T {
		return nil, fmt.Errorf("sim: snapshot transfer series has %d steps, want %d", len(st.TransferValues), e.T)
	}
	if len(st.Sites) != e.numSites {
		return nil, fmt.Errorf("sim: snapshot has %d sites, want %d", len(st.Sites), e.numSites)
	}
	apps := make(map[int]bool, len(st.Apps))
	for _, a := range st.Apps {
		// A replan uncommits the plan from the ledgers and places the
		// demand again, so both must be what Place would accept, and the
		// app must be one Enqueue would have taken.
		if err := (AppArrival{Demand: a.Demand, VMs: a.VMs}).Validate(); err != nil {
			return nil, fmt.Errorf("sim: snapshot app %d: %w", a.Demand.ID, err)
		}
		if apps[a.Demand.ID] {
			return nil, fmt.Errorf("sim: snapshot repeats app %d", a.Demand.ID)
		}
		apps[a.Demand.ID] = true
		if a.Plan.Alloc == nil {
			continue
		}
		if len(a.Plan.Alloc) != e.numSites {
			return nil, fmt.Errorf("sim: snapshot app %d plan has %d site rows, want %d",
				a.Demand.ID, len(a.Plan.Alloc), e.numSites)
		}
		for s, row := range a.Plan.Alloc {
			if len(row) != e.T {
				return nil, fmt.Errorf("sim: snapshot app %d plan site %d has %d steps, want %d",
					a.Demand.ID, s, len(row), e.T)
			}
			for t, v := range row {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					return nil, fmt.Errorf("sim: snapshot app %d plan holds %v at site %d step %d, want finite and non-negative",
						a.Demand.ID, v, s, t)
				}
			}
		}
	}
	for id, s := range st.VMSite {
		if s < -1 || s >= e.numSites {
			return nil, fmt.Errorf("sim: snapshot places VM %d at site %d (valid range is [-1,%d))",
				id, s, e.numSites)
		}
	}
	for i, siteState := range st.Sites {
		if siteState.Config != e.clusterCfg {
			return nil, fmt.Errorf("sim: snapshot site %d has config %+v, engine runs %+v", i, siteState.Config, e.clusterCfg)
		}
		site, err := cluster.NewFromState(siteState)
		if err != nil {
			return nil, fmt.Errorf("sim: site %d: %w", i, err)
		}
		e.sites[i] = site
	}
	if err := e.sched.DecodeState(bytes.NewReader(st.Sched)); err != nil {
		return nil, err
	}
	e.order = make([]*vmAppState, len(st.Apps))
	for i, a := range st.Apps {
		e.order[i] = &vmAppState{demand: a.Demand, plan: a.Plan, vms: a.VMs, endStep: a.EndStep, started: a.Started}
		e.fed[a.Demand.ID] = true
		for _, vm := range a.VMs {
			if e.fedVMs[vm.ID] {
				return nil, fmt.Errorf("sim: snapshot repeats VM %d (app %d)", vm.ID, a.Demand.ID)
			}
			e.fedVMs[vm.ID] = true
		}
	}
	// The location table must agree with the sites: a site's VMs are
	// located at it, every entry names a VM of a snapshot app, and a VM
	// located at a site runs there. Otherwise a VM could run at two sites
	// at once, at a site the engine does not know, or count forever.
	runs := make(map[int]bool)
	for i, siteState := range st.Sites {
		for _, vms := range siteState.Servers {
			for _, vm := range vms {
				if s, ok := st.VMSite[vm.ID]; !ok || s != i {
					return nil, fmt.Errorf("sim: snapshot site %d runs VM %d, which the location table does not put there", i, vm.ID)
				}
				runs[vm.ID] = true
			}
		}
	}
	for id, s := range st.VMSite {
		if !e.fedVMs[id] {
			return nil, fmt.Errorf("sim: snapshot locates VM %d at site %d, but no snapshot app holds it", id, s)
		}
		if s >= 0 && !runs[id] {
			return nil, fmt.Errorf("sim: snapshot locates VM %d at site %d, which does not run it", id, s)
		}
	}
	e.vmSite = st.VMSite
	if e.vmSite == nil {
		e.vmSite = map[int]int{}
	}
	e.step = st.Step
	copy(e.res.Transfer.Values, st.TransferValues)
	e.res.Moves = st.Moves
	e.res.FailedPlacements = st.FailedPlacements
	e.fragSum = st.FragSum
	return e, nil
}
