package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/vbcloud/vb/internal/lp"
)

// refRow is one row of the reference builder: dense coefficients over every
// model variable.
type refRow struct {
	coeffs []float64
	sense  lp.Sense
	rhs    float64
}

// refPlacementRows is the row builder placementModel replaced: each row a
// map from variable to coefficient, copied into a dense slice as wide as the
// model. It stays here as the reference the sparse builder must reproduce
// bit for bit; the compiled instance drops exact zeros, so equal nonzeros in
// equal order mean an identical LP.
func refPlacementRows(s *Scheduler, app AppDemand, nowStep, H int, stableCap CapacityFn, prev []float64, prevPlan [][]float64) []refRow {
	k := s.numSites
	nA, nM, nO, nU := k*H, k*H, k*H, H
	nD := 0
	if prevPlan != nil {
		nD = k * H
	}
	nE := 0
	if s.cfg.peakWeight() > 0 {
		nE = H
	}
	aVar := func(site, tau int) int { return site*H + tau }
	mVar := func(site, tau int) int { return nA + site*H + tau }
	oVar := func(site, tau int) int { return nA + nM + site*H + tau }
	uVar := func(tau int) int { return nA + nM + nO + tau }
	dVar := func(site, tau int) int { return nA + nM + nO + nU + site*H + tau }
	yVar := func(site int) int { return nA + nM + nO + nU + nD + site }
	pVar := nA + nM + nO + nU + nD + k
	eVar := func(tau int) int { return pVar + 1 + tau }
	numVars := pVar + 1 + nE
	memGB := app.MemGBPerCore

	var rows []refRow
	row := func(pairs map[int]float64, sense lp.Sense, rhs float64) {
		coeffs := make([]float64, numVars)
		for j, v := range pairs {
			coeffs[j] = v
		}
		rows = append(rows, refRow{coeffs, sense, rhs})
	}
	demand := app.StableCores
	for tau := 0; tau < H; tau++ {
		pairs := map[int]float64{uVar(tau): 1}
		for site := 0; site < k; site++ {
			pairs[aVar(site, tau)] = 1
		}
		row(pairs, lp.EQ, demand)
	}
	for site := 0; site < k; site++ {
		for tau := 0; tau < H; tau++ {
			freeStable := stableCap(site, nowStep+tau) - s.committed[site][nowStep+tau]
			if freeStable < 0 {
				freeStable = 0
			}
			row(map[int]float64{aVar(site, tau): 1, oVar(site, tau): -1}, lp.LE, freeStable)
			row(map[int]float64{aVar(site, tau): 1, yVar(site): -demand}, lp.LE, 0)
			if tau == 0 {
				if prev != nil {
					row(map[int]float64{mVar(site, 0): 1, aVar(site, 0): -1}, lp.GE, -prev[site])
				}
			} else {
				row(map[int]float64{mVar(site, tau): 1, aVar(site, tau): -1, aVar(site, tau-1): 1}, lp.GE, 0)
			}
		}
		if prevPlan != nil {
			for tau := 0; tau < H; tau++ {
				old := prevPlan[site][nowStep+tau]
				row(map[int]float64{dVar(site, tau): 1, aVar(site, tau): -1}, lp.GE, -old)
				row(map[int]float64{dVar(site, tau): 1, aVar(site, tau): 1}, lp.GE, old)
			}
		}
	}
	pairs := map[int]float64{}
	for site := 0; site < k; site++ {
		pairs[yVar(site)] = 1
	}
	row(pairs, lp.LE, float64(s.cfg.maxSites()))
	if s.cfg.peakWeight() > 0 {
		meanCommitted := 0.0
		for tau := 0; tau < H; tau++ {
			meanCommitted += s.migCommitted[nowStep+tau]
		}
		meanCommitted /= float64(H)
		for tau := 0; tau < H; tau++ {
			pp := map[int]float64{pVar: -1}
			for site := 0; site < k; site++ {
				pp[mVar(site, tau)] = memGB
			}
			row(pp, lp.LE, -s.migCommitted[nowStep+tau])
			sm := map[int]float64{eVar(tau): -1}
			for site := 0; site < k; site++ {
				for t2 := 0; t2 < H; t2++ {
					sm[mVar(site, t2)] = -memGB / float64(H)
				}
				sm[mVar(site, tau)] += memGB
			}
			row(sm, lp.LE, meanCommitted-s.migCommitted[nowStep+tau])
		}
	}
	return rows
}

// refPlacementVars restates the model's per-variable arrays, each made
// fresh at the model's width: the objective, the upper bounds (the plain
// forecast's free capacity on a for the first day's steps, 1 on each site
// indicator y, +Inf elsewhere) and the integrality flags (y alone).
func refPlacementVars(s *Scheduler, app AppDemand, nowStep, H int, predCap, stableCap CapacityFn, prevPlan [][]float64) (obj, upper []float64, integer []bool) {
	k := s.numSites
	nA, nM, nO, nU := k*H, k*H, k*H, H
	nD := 0
	if prevPlan != nil {
		nD = k * H
	}
	nE := 0
	if s.cfg.peakWeight() > 0 {
		nE = H
	}
	aVar := func(site, tau int) int { return site*H + tau }
	mVar := func(site, tau int) int { return nA + site*H + tau }
	oVar := func(site, tau int) int { return nA + nM + site*H + tau }
	uVar := func(tau int) int { return nA + nM + nO + tau }
	dVar := func(site, tau int) int { return nA + nM + nO + nU + site*H + tau }
	yVar := func(site int) int { return nA + nM + nO + nU + nD + site }
	pVar := nA + nM + nO + nU + nD + k
	numVars := pVar + 1 + nE
	memGB := app.MemGBPerCore

	obj, upper, integer = make([]float64, numVars), make([]float64, numVars), make([]bool, numVars)
	for j := range upper {
		upper[j] = math.Inf(1)
	}
	hardSteps := max(1, int(24*time.Hour/s.cfg.PlanStep))
	for site := 0; site < k; site++ {
		for tau := 0; tau < H; tau++ {
			obj[mVar(site, tau)] = memGB * (1 + 0.5*float64(H-1-tau)/float64(H))
			obj[oVar(site, tau)] = 0.15 * memGB
			if prevPlan != nil {
				obj[dVar(site, tau)] = 0.05 * memGB
			}
			if tau < hardSteps {
				upper[aVar(site, tau)] = max(0, predCap(site, nowStep+tau)-s.committed[site][nowStep+tau])
			}
		}
		upper[yVar(site)] = 1
		integer[yVar(site)] = true
	}
	for tau := 0; tau < H; tau++ {
		obj[uVar(tau)] = 1000 * memGB * float64(H) * app.PauseWeight()
	}
	obj[pVar] = s.cfg.peakWeight()
	for tau := 0; tau < nE; tau++ {
		obj[pVar+1+tau] = 0.2
	}
	return obj, upper, integer
}

// TestPlacementModelMatchesDenseBuilder checks the sparse placement model
// against the map-based dense builder it replaced, over every combination
// of peak rows, a current allocation and a previous plan: the same rows in
// the same order, each with the same sense, RHS bits and coefficient bits
// (an omitted variable equals a dense zero). It also pins the exact sizing
// of the row buffer: placementShape predicts every row and nonzero. One
// scheduler per policy and site count builds every model in turn, into
// the buffers it keeps, so the models grow and shrink under it: an entry
// a larger model leaves behind shows as a mismatch.
func TestPlacementModelMatchesDenseBuilder(t *testing.T) {
	const steps = 12
	predCap := func(site, step int) float64 { return 900 + 400*math.Sin(float64(3*site+step)) }
	stableCap := func(site, step int) float64 { return 700 + 300*math.Cos(float64(site+2*step)) }
	for _, pol := range []Policy{MIP, MIPPeak} {
		for _, k := range []int{1, 2, 3} {
			s, err := NewScheduler(Config{Policy: pol, PlanStep: 6 * time.Hour}, k, steps)
			if err != nil {
				t.Fatal(err)
			}
			for site := 0; site < k; site++ {
				for step := 0; step < steps; step++ {
					s.committed[site][step] = float64(37*site + 11*step%5)
				}
			}
			for step := 0; step < steps; step++ {
				s.migCommitted[step] = float64(step%3) * 12.5
			}
			for _, H := range []int{6, 1, 3, 2} {
				for _, withPrev := range []bool{true, false} {
					for _, withPlan := range []bool{true, false} {
						name := fmt.Sprintf("%v/k=%d/H=%d/prev=%v/plan=%v", pol, k, H, withPrev, withPlan)
						app := demand(7, 500, 350, 4.3)
						var prev []float64
						var prevPlan [][]float64
						if withPrev {
							prev = make([]float64, k)
							for site := range prev {
								prev[site] = 350 / float64(k)
							}
						}
						if withPlan {
							prevPlan = make([][]float64, k)
							for site := range prevPlan {
								prevPlan[site] = make([]float64, steps)
								for step := range prevPlan[site] {
									prevPlan[site][step] = float64((site + step) % 4 * 50)
								}
							}
						}
						const now = 2
						prob := s.placementModel(app, now, H, predCap, stableCap, prev, prevPlan)
						if err := prob.Problem.Validate(); err != nil {
							t.Fatalf("%s: invalid model: %v", name, err)
						}
						if len(prob.Objective) != prob.NumVars || len(prob.Upper) != prob.NumVars || len(prob.Integer) != prob.NumVars {
							t.Fatalf("%s: %d objective, %d upper and %d integrality entries for %d variables",
								name, len(prob.Objective), len(prob.Upper), len(prob.Integer), prob.NumVars)
						}
						ref := refPlacementRows(s, app, now, H, stableCap, prev, prevPlan)
						refObj, refUpper, refInt := refPlacementVars(s, app, now, H, predCap, stableCap, prevPlan)
						for j := 0; j < prob.NumVars; j++ {
							if math.Float64bits(prob.Objective[j]) != math.Float64bits(refObj[j]) ||
								math.Float64bits(prob.Upper[j]) != math.Float64bits(refUpper[j]) || prob.Integer[j] != refInt[j] {
								t.Fatalf("%s: variable %d costs %v, bounded by %v, integer %v; reference %v, %v, %v",
									name, j, prob.Objective[j], prob.Upper[j], prob.Integer[j], refObj[j], refUpper[j], refInt[j])
							}
						}
						wantRows, wantNNZ := placementShape(k, H, withPrev, withPlan, pol == MIPPeak)
						nnz := 0
						for _, c := range prob.Constraints {
							nnz += len(c.Idx)
						}
						if len(prob.Constraints) != wantRows || nnz != wantNNZ {
							t.Fatalf("%s: %d rows and %d nonzeros, placementShape says %d and %d",
								name, len(prob.Constraints), nnz, wantRows, wantNNZ)
						}
						if len(ref) != len(prob.Constraints) {
							t.Fatalf("%s: %d rows, reference has %d", name, len(prob.Constraints), len(ref))
						}
						for i, c := range prob.Constraints {
							r := ref[i]
							if len(r.coeffs) != prob.NumVars {
								t.Fatalf("%s: reference is %d variables wide, model has %d", name, len(r.coeffs), prob.NumVars)
							}
							if c.Sense != r.sense || math.Float64bits(c.RHS) != math.Float64bits(r.rhs) {
								t.Fatalf("%s: row %d is %v %v, reference %v %v", name, i, c.Sense, c.RHS, r.sense, r.rhs)
							}
							dense := make([]float64, prob.NumVars)
							for t2, j := range c.Idx {
								dense[j] = c.Val[t2]
							}
							for j := range dense {
								if math.Float64bits(dense[j]) != math.Float64bits(r.coeffs[j]) {
									t.Fatalf("%s: row %d variable %d is %v, reference %v", name, i, j, dense[j], r.coeffs[j])
								}
							}
						}
					}
				}
			}
		}
	}
}
