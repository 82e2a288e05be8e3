package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"github.com/vbcloud/vb/internal/obs"
)

// TestSchedulerStateRoundTrip pins the daemon crash-recovery contract at
// the scheduler layer: after placing a handful of MIP apps, an
// encode/decode cycle into a fresh scheduler reproduces the commitment
// ledgers exactly, and subsequent placements (replans of known apps and a
// brand-new app) produce bit-identical plans on both schedulers.
func TestSchedulerStateRoundTrip(t *testing.T) {
	const sites, steps = 3, 12
	orig, err := NewScheduler(validConfig(MIP), sites, steps)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 9))
	pred := constCap(400, 250, 300)
	stable := constCap(120, 250, 60)

	type placed struct {
		d    AppDemand
		plan Plan
	}
	var apps []placed
	for id := 1; id <= 6; id++ {
		d := demand(id, 30+rng.Float64()*40, 20+rng.Float64()*20, 4)
		if d.StableCores > d.Cores {
			d.StableCores = d.Cores
		}
		plan, err := orig.Place(d, 0, steps, pred, stable, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, placed{d, plan})
	}

	var buf bytes.Buffer
	if err := orig.EncodeState(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := NewScheduler(validConfig(MIP), sites, steps)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.DecodeState(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}

	for site := 0; site < sites; site++ {
		for step := 0; step < steps; step++ {
			if orig.Committed(site, step) != restored.Committed(site, step) {
				t.Fatalf("committed[%d][%d] differs: %v vs %v",
					site, step, orig.Committed(site, step), restored.Committed(site, step))
			}
		}
	}

	// Replan every app plus one new app on both.
	replan := append(apps, placed{d: demand(99, 55, 45, 4)})
	for _, a := range replan {
		var prev []float64
		var prevPlan [][]float64
		if a.plan.Alloc != nil {
			prev = make([]float64, sites)
			for s := range prev {
				prev[s] = a.plan.Alloc[s][3]
			}
			prevPlan = a.plan.Alloc
		}
		pa, errA := orig.Place(a.d, 3, steps, pred, stable, prev, prevPlan)
		pb, errB := restored.Place(a.d, 3, steps, pred, stable, prev, prevPlan)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("app %d: errors diverge: %v vs %v", a.d.ID, errA, errB)
		}
		if errA != nil {
			continue
		}
		for s := range pa.Alloc {
			for step := range pa.Alloc[s] {
				if pa.Alloc[s][step] != pb.Alloc[s][step] {
					t.Fatalf("app %d: alloc[%d][%d] = %v vs %v (must be bit-identical)",
						a.d.ID, s, step, pa.Alloc[s][step], pb.Alloc[s][step])
				}
			}
		}
	}
}

// TestSchedulerDecodeRejectsMismatch ensures a snapshot from a different
// fleet shape, a malformed one, or one whose ledgers hold a non-finite
// entry cannot be loaded, and that a refused snapshot leaves the
// scheduler's ledgers untouched.
func TestSchedulerDecodeRejectsMismatch(t *testing.T) {
	const sites, steps = 2, 8
	good := func() schedulerState {
		st := schedulerState{NumSites: sites, Steps: steps, Committed: make([][]float64, sites),
			MigCommitted: make([]float64, steps)}
		for i := range st.Committed {
			st.Committed[i] = make([]float64, steps)
		}
		return st
	}
	for _, c := range []struct {
		name    string
		mutate  func(*schedulerState)
		raw     []byte
		wantErr string
	}{
		{name: "more sites", mutate: func(st *schedulerState) { st.NumSites = 3 }, wantErr: "3 sites × 8 steps"},
		{name: "more steps", mutate: func(st *schedulerState) { st.Steps = 9 }, wantErr: "2 sites × 9 steps"},
		{name: "garbage", raw: []byte("junk"), wantErr: "decoding scheduler state"},
		{name: "missing site row", mutate: func(st *schedulerState) { st.Committed = st.Committed[:1] }, wantErr: "1 site rows"},
		{name: "short site row", mutate: func(st *schedulerState) { st.Committed[1] = st.Committed[1][:5] }, wantErr: "site 1 has 5 steps"},
		{name: "committed NaN", mutate: func(st *schedulerState) { st.Committed[1][3] = math.NaN() },
			wantErr: "committed ledger holds NaN at site 1 step 3"},
		{name: "committed -Inf", mutate: func(st *schedulerState) { st.Committed[0][7] = math.Inf(-1) },
			wantErr: "committed ledger holds -Inf at site 0 step 7"},
		{name: "committed +Inf", mutate: func(st *schedulerState) { st.Committed[0][0] = math.Inf(1) },
			wantErr: "committed ledger holds +Inf at site 0 step 0"},
		{name: "migration NaN", mutate: func(st *schedulerState) { st.MigCommitted[5] = math.NaN() },
			wantErr: "migration ledger holds NaN at step 5"},
		{name: "migration +Inf", mutate: func(st *schedulerState) { st.MigCommitted[2] = math.Inf(1) },
			wantErr: "migration ledger holds +Inf at step 2"},
	} {
		t.Run(c.name, func(t *testing.T) {
			raw := c.raw
			if raw == nil {
				st := good()
				c.mutate(&st)
				var buf bytes.Buffer
				if err := gob.NewEncoder(&buf).Encode(st); err != nil {
					t.Fatal(err)
				}
				raw = buf.Bytes()
			}
			s, err := NewScheduler(validConfig(MIP), sites, steps)
			if err != nil {
				t.Fatal(err)
			}
			s.committed[1][3], s.migCommitted[5] = 42, 7
			err = s.DecodeState(bytes.NewReader(raw))
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("DecodeState error %v, want one containing %q", err, c.wantErr)
			}
			for site := 0; site < sites; site++ {
				for step := 0; step < steps; step++ {
					want := 0.0
					if site == 1 && step == 3 {
						want = 42
					}
					if got := s.Committed(site, step); got != want {
						t.Fatalf("refused snapshot changed committed[%d][%d] to %v", site, step, got)
					}
				}
			}
			if len(s.migCommitted) != steps || s.migCommitted[5] != 7 {
				t.Fatalf("refused snapshot changed the migration ledger: %v", s.migCommitted)
			}
		})
	}
}

// TestPlacementIndependentOfHistory pins the property that lets a snapshot
// carry only ledgers: a placement is a function of its model, not of the
// solves before it. A long-lived scheduler admits an app every other step
// and replans every running app each day, against capacities that vary by
// step and by planning time. Before each Place, a fresh scheduler receives
// a copy of the long-lived one's ledgers and places the same app; the two
// plans must match bit for bit.
//
// The long-lived scheduler recompiles every model into the arena it keeps
// (its solver and model buffers), and its models both shrink and regrow,
// so a value the arena carries from a larger model into a smaller one
// shows as a plan that differs. Under solver pressure 2000 the node budget
// is the root alone, so fractional placements take the ladder's rounded-LP
// tier, which must recompile the model into the same arena too.
func TestPlacementIndependentOfHistory(t *testing.T) {
	const sites, steps, perDay = 3, 32, 4
	for _, pol := range []Policy{MIP24h, MIP, MIPPeak} {
		var rows, vars, nnz sizeTrend
		for _, pressure := range []float64{1, 2000} {
			reg := obs.NewRegistry()
			for seed := uint64(1); seed <= 4; seed++ {
				rng := rand.New(rand.NewPCG(seed, 17))
				cfg := validConfig(pol)
				cfg.Obs = reg
				live, err := NewScheduler(cfg, sites, steps)
				if err != nil {
					t.Fatal(err)
				}
				live.SetSolverPressure(pressure)
				var base, phase [sites]float64
				for s := range base {
					base[s] = 100 + 150*rng.Float64()
					phase[s] = 2 * math.Pi * rng.Float64()
				}
				// The forecast made at step now of capacity at step: a daily
				// swing plus an error that shifts with every refresh.
				predAt := func(now int) CapacityFn {
					return func(site, step int) float64 {
						day := math.Sin(2*math.Pi*float64(step)/perDay + phase[site])
						miss := math.Sin(float64(3*now+step) + phase[site])
						return base[site] * (1 + 0.5*day) * (1 + 0.1*miss)
					}
				}
				place := func(d AppDemand, now, end int, pred CapacityFn, prev []float64, prevPlan [][]float64) Plan {
					t.Helper()
					fresh, err := NewScheduler(cfg, sites, steps)
					if err != nil {
						t.Fatal(err)
					}
					fresh.SetSolverPressure(pressure)
					for s := range live.committed {
						copy(fresh.committed[s], live.committed[s])
					}
					copy(fresh.migCommitted, live.migCommitted)
					stable := func(site, step int) float64 { return 0.7 * pred(site, step) }
					want, err := fresh.Place(d, now, end, pred, stable, prev, prevPlan)
					if err != nil {
						t.Fatal(err)
					}
					got, err := live.Place(d, now, end, pred, stable, prev, prevPlan)
					if err != nil {
						t.Fatal(err)
					}
					rows.see(len(live.model.rows.rows))
					vars.see(len(live.model.obj))
					nnz.see(len(live.model.rows.idx))
					for s := range got.Alloc {
						for step, v := range got.Alloc[s] {
							if math.Float64bits(v) != math.Float64bits(want.Alloc[s][step]) {
								t.Fatalf("%v pressure %v seed %d: app %d placed at step %d: alloc[%d][%d] = %v, fresh scheduler %v",
									pol, pressure, seed, d.ID, now, s, step, v, want.Alloc[s][step])
							}
						}
					}
					return got
				}

				type running struct {
					d    AppDemand
					end  int
					plan Plan
				}
				var apps []running
				for now := 0; now < steps; now++ {
					pred := predAt(now)
					if now > 0 && now%perDay == 0 {
						for i := range apps {
							a := &apps[i]
							if a.end <= now {
								continue
							}
							cur := make([]float64, sites)
							for s := range cur {
								cur[s] = a.plan.Alloc[s][now-1]
							}
							live.Uncommit(a.plan, now)
							a.plan = place(a.d, now, a.end, pred, cur, a.plan.Alloc)
						}
					}
					if now%2 == 0 {
						cores := 30 + 50*rng.Float64()
						d := demand(len(apps)+1, cores, cores*(0.5+0.4*rng.Float64()), 2+6*rng.Float64())
						end := min(steps, now+8+rng.IntN(12))
						apps = append(apps, running{d: d, end: end, plan: place(d, now, end, pred, nil, nil)})
					}
				}
			}
			if pressure > 1 && reg.Counter("scheduler.fallback.count") == 0 {
				t.Fatalf("%v: no placement under pressure %v took the fallback ladder", pol, pressure)
			}
		}
		for _, tr := range []struct {
			name string
			sizeTrend
		}{{"rows", rows}, {"variables", vars}, {"nonzeros", nnz}} {
			if !tr.shrank || !tr.regrew {
				t.Errorf("%v: the live scheduler's model %s never shrank and then regrew (shrank %v, regrew %v)",
					pol, tr.name, tr.shrank, tr.regrew)
			}
		}
	}
}

// sizeTrend records whether a sequence of sizes ever fell below its
// predecessor and, after that, ever rose above one.
type sizeTrend struct {
	last           int
	shrank, regrew bool
}

func (s *sizeTrend) see(n int) {
	if s.last > 0 && n < s.last {
		s.shrank = true
	}
	if s.shrank && n > s.last {
		s.regrew = true
	}
	s.last = n
}

// FuzzSchedulerDecodeState holds DecodeState to its contract on arbitrary
// bytes: it returns an error and leaves the ledgers untouched, or it
// installs ledgers of the scheduler's shape with every entry finite. It
// never panics. The seed is the state of a small MIP-24h run that admits
// apps and replans them daily.
func FuzzSchedulerDecodeState(f *testing.F) {
	const sites, steps = 3, 12
	cfg := validConfig(MIP24h)
	seed, err := NewScheduler(cfg, sites, steps)
	if err != nil {
		f.Fatal(err)
	}
	pred := func(site, step int) float64 { return 120 + 40*math.Sin(float64(step+2*site)) }
	type placed struct {
		d    AppDemand
		plan Plan
	}
	var apps []placed
	for now := 0; now < 9; now++ {
		if now > 0 && now%4 == 0 {
			for i := range apps {
				a := &apps[i]
				prev := make([]float64, sites)
				for site := range prev {
					prev[site] = a.plan.Alloc[site][now-1]
				}
				seed.Uncommit(a.plan, now)
				if a.plan, err = seed.Place(a.d, now, steps, pred, nil, prev, a.plan.Alloc); err != nil {
					f.Fatal(err)
				}
			}
		}
		if now%3 == 0 {
			d := demand(now+1, 60, 40, 4)
			plan, err := seed.Place(d, now, steps, pred, nil, nil, nil)
			if err != nil {
				f.Fatal(err)
			}
			apps = append(apps, placed{d, plan})
		}
	}
	var buf bytes.Buffer
	if err := seed.EncodeState(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := NewScheduler(cfg, sites, steps)
		if err != nil {
			t.Fatal(err)
		}
		err = s.DecodeState(bytes.NewReader(data))
		if len(s.committed) != sites || len(s.migCommitted) != steps {
			t.Fatalf("ledgers are %d site rows and %d migration steps after DecodeState (error %v)",
				len(s.committed), len(s.migCommitted), err)
		}
		for site, row := range s.committed {
			if len(row) != steps {
				t.Fatalf("site %d row has %d steps after DecodeState (error %v)", site, len(row), err)
			}
			for step, v := range row {
				if math.IsNaN(v) || math.IsInf(v, 0) || (err != nil && v != 0) {
					t.Fatalf("committed[%d][%d] = %v after DecodeState (error %v)", site, step, v, err)
				}
			}
		}
		for step, v := range s.migCommitted {
			if math.IsNaN(v) || math.IsInf(v, 0) || (err != nil && v != 0) {
				t.Fatalf("migCommitted[%d] = %v after DecodeState (error %v)", step, v, err)
			}
		}
	})
}
