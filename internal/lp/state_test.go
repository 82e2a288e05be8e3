package lp

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
)

// TestInstanceStateRoundTrip pins the crash-recovery contract: after a
// solve, an encode/decode cycle reproduces the instance bit-exactly (a
// restored instance even re-encodes to the same bytes), and a refreshed
// re-solve from the decoded instance pivots to exactly the same solution as
// the original would.
func TestInstanceStateRoundTrip(t *testing.T) {
	t.Run("sparse", func(t *testing.T) {
		rng := rand.New(rand.NewPCG(7, 11))
		for trial := 0; trial < 50; trial++ {
			p := randomStateProblem(rng)
			orig, err := NewInstance(p)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := orig.SolveCurrent(); err != nil {
				t.Fatal(err)
			}

			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(orig); err != nil {
				t.Fatal(err)
			}
			restored := new(Instance)
			if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(restored); err != nil {
				t.Fatal(err)
			}

			// Bit-exact persistent state.
			for _, c := range []struct {
				name string
				a, b interface{}
			}{
				{"basis", orig.basis, restored.basis},
				{"vstat", orig.vstat, restored.vstat},
				{"xB", orig.xB, restored.xB},
				{"d", orig.d, restored.d},
				{"lo", orig.lo, restored.lo},
				{"hi", orig.hi, restored.hi},
				{"cmin", orig.cmin, restored.cmin},
			} {
				if !reflect.DeepEqual(c.a, c.b) {
					t.Fatalf("trial %d: %s differs after round trip", trial, c.name)
				}
			}
			if orig.ready != restored.ready || orig.dExact != restored.dExact ||
				orig.pivots != restored.pivots || orig.refactors != restored.refactors {
				t.Fatalf("trial %d: flags differ after round trip", trial)
			}
			if orig.EtaChainLen() != restored.EtaChainLen() {
				t.Fatalf("trial %d: eta chain differs after round trip", trial)
			}
			// The factorization itself round-trips bit-exactly: a restored
			// instance re-encodes to the identical byte stream.
			rawA, err := orig.GobEncode()
			if err != nil {
				t.Fatal(err)
			}
			rawB, err := restored.GobEncode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rawA, rawB) {
				t.Fatalf("trial %d: re-encoded snapshot differs from original", trial)
			}

			// A perturbed re-solve follows the identical pivot path on both.
			q := p
			q.Objective = append([]float64(nil), p.Objective...)
			for i := range q.Objective {
				q.Objective[i] *= 1.1
			}
			if !orig.Refresh(q) || !restored.Refresh(q) {
				t.Fatalf("trial %d: refresh failed", trial)
			}
			stA, errA := orig.SolveCurrent()
			stB, errB := restored.SolveCurrent()
			if (errA == nil) != (errB == nil) || stA != stB {
				t.Fatalf("trial %d: statuses diverge: %v/%v vs %v/%v", trial, stA, errA, stB, errB)
			}
			if stA == Optimal {
				xa := orig.Values(nil)
				xb := restored.Values(nil)
				for i := range xa {
					if xa[i] != xb[i] {
						t.Fatalf("trial %d: x[%d] = %v vs %v (must be bit-identical)", trial, i, xa[i], xb[i])
					}
				}
				if orig.pivots != restored.pivots {
					t.Fatalf("trial %d: pivot counts diverge: %d vs %d", trial, orig.pivots, restored.pivots)
				}
			}
		}
	})
}

// legacyInstanceState is the pre-sparse-LU snapshot layout (no Mode field,
// dense inverse only). Gob matches struct fields by name, so encoding this
// reproduces byte streams written by old builds.
type legacyInstanceState struct {
	M, NStruct int
	Maximize   bool

	Cmin, B        []float64
	Senses         []Sense
	BaseLo, BaseHi []float64

	ColPtr, ColRow []int32
	ColVal         []float64
	RowPtr, RowCol []int32
	RowVal         []float64

	Lo, Hi    []float64
	Basis     []int32
	Vstat     []int8
	Binv      []float64
	BinvIdent bool
	XB        []float64
	Ready     bool
	D         []float64
	DExact    bool

	Pivots int64
}

// legacyPayload encodes in's state in the pre-sparse layout, with binv as
// the stored dense inverse.
func legacyPayload(t *testing.T, in *Instance, binv []float64, ident bool) []byte {
	t.Helper()
	legacy := legacyInstanceState{
		M: in.m, NStruct: in.nStruct, Maximize: in.maximize,
		Cmin: in.cmin, B: in.b, Senses: in.senses,
		BaseLo: in.baseLo, BaseHi: in.baseHi,
		ColPtr: in.colPtr, ColRow: in.colRow, ColVal: in.colVal,
		RowPtr: in.rowPtr, RowCol: in.rowCol, RowVal: in.rowVal,
		Lo: in.lo, Hi: in.hi,
		Basis: in.basis, Vstat: in.vstat,
		Binv: binv, BinvIdent: ident,
		XB: in.xB, Ready: in.ready,
		D: in.d, DExact: in.dExact,
		Pivots: in.pivots,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(legacy); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// basisInverse returns in's basis inverse as the row-major m×m matrix a
// pre-sparse writer stored: column r of B⁻¹ is B⁻¹·e_r.
func basisInverse(in *Instance) []float64 {
	m := in.m
	binv := make([]float64, m*m)
	col := make([]float64, m)
	for r := 0; r < m; r++ {
		clear(col)
		col[r] = 1
		in.fac.ftran(col)
		for i := 0; i < m; i++ {
			binv[i*m+r] = col[i]
		}
	}
	return binv
}

// checkLegacyResolve refreshes the restored instance with q and requires
// the status of a cold solve of q and an objective within 1e-9 relative.
func checkLegacyResolve(t *testing.T, name string, restored *Instance, q Problem) {
	t.Helper()
	cold, err := Solve(q)
	if err != nil {
		t.Fatalf("%s: cold solve: %v", name, err)
	}
	if !restored.Refresh(q) {
		t.Fatalf("%s: refresh failed", name)
	}
	st, err := restored.SolveCurrent()
	if err != nil {
		t.Fatalf("%s: restored solve: %v", name, err)
	}
	if st != cold.Status {
		t.Fatalf("%s: restored status %v, cold %v", name, st, cold.Status)
	}
	if st == Optimal {
		got := restored.ObjectiveValue()
		if math.Abs(got-cold.Objective) > 1e-9*math.Max(1, math.Abs(cold.Objective)) {
			t.Fatalf("%s: restored objective %.12g, cold %.12g", name, got, cold.Objective)
		}
	}
	// The restored instance writes the current format and reads it back.
	raw, err := restored.GobEncode()
	if err != nil {
		t.Fatalf("%s: re-encode: %v", name, err)
	}
	if err := new(Instance).GobDecode(raw); err != nil {
		t.Fatalf("%s: re-encoded snapshot rejected: %v", name, err)
	}
}

// TestInstanceDecodeLegacySnapshot pins the compatibility policy for
// snapshots written before the sparse kernel (no Mode field, dense inverse
// only): they restore by refactorizing the saved basis into a sparse LU, or
// onto the all-slack crash basis when that basis is singular, and then
// re-solve to the same status and objective as a cold solve.
func TestInstanceDecodeLegacySnapshot(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	for trial := 0; trial < 20; trial++ {
		p := randomStateProblem(rng)
		orig, err := NewInstance(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := orig.SolveCurrent(); err != nil {
			t.Fatal(err)
		}
		raw := legacyPayload(t, orig, basisInverse(orig), orig.fac.trivial && orig.fac.etaLen() == 0)
		restored := new(Instance)
		if err := restored.GobDecode(raw); err != nil {
			t.Fatalf("trial %d: legacy snapshot rejected: %v", trial, err)
		}
		if !reflect.DeepEqual(orig.basis, restored.basis) || !reflect.DeepEqual(orig.vstat, restored.vstat) {
			t.Fatalf("trial %d: nonsingular legacy basis not kept", trial)
		}
		if restored.EtaChainLen() != 0 {
			t.Fatalf("trial %d: legacy restore left an eta chain of %d", trial, restored.EtaChainLen())
		}

		q := p
		q.Objective = append([]float64(nil), p.Objective...)
		for i := range q.Objective {
			q.Objective[i] *= 0.9
		}
		checkLegacyResolve(t, fmt.Sprintf("trial %d", trial), restored, q)
	}

	// Columns 0 and 1 are equal, so a saved basis holding both is singular:
	// the decoder must fall back to the all-slack crash basis.
	p := Problem{
		NumVars:   3,
		Objective: []float64{1, 2, 1.5},
		Upper:     []float64{10, 10, 10},
		Constraints: []Constraint{
			{Idx: []int32{0, 1, 2}, Val: []float64{1, 1, 1}, Sense: LE, RHS: 4},
			{Idx: []int32{0, 1}, Val: []float64{1, 1}, Sense: GE, RHS: 1},
			{Idx: []int32{2}, Val: []float64{1}, Sense: GE, RHS: 0.5},
		},
	}
	orig, err := NewInstance(p)
	if err != nil {
		t.Fatal(err)
	}
	ns := orig.nStruct
	orig.basis = []int32{0, 1, int32(ns + 2)}
	orig.vstat = []int8{vsBasic, vsBasic, vsLower, vsLower, vsUpper, vsBasic}
	orig.ready = true
	restored := new(Instance)
	if err := restored.GobDecode(legacyPayload(t, orig, make([]float64, 9), false)); err != nil {
		t.Fatalf("singular legacy snapshot rejected: %v", err)
	}
	if want := []int32{int32(ns), int32(ns + 1), int32(ns + 2)}; !reflect.DeepEqual(restored.basis, want) {
		t.Fatalf("singular legacy basis restored as %v, want crash basis %v", restored.basis, want)
	}
	checkLegacyResolve(t, "singular", restored, p)
}

// TestInstanceDecodeRejectsCorrupt checks that truncated or inconsistent
// snapshots fail loudly instead of producing a silently wrong solver or
// one that panics on its next solve.
func TestInstanceDecodeRejectsCorrupt(t *testing.T) {
	p := Problem{
		NumVars:   4,
		Objective: []float64{-1, -2, -1, -3},
		Upper:     []float64{5, 5, 5, 5},
		Constraints: []Constraint{
			{Idx: []int32{0, 1}, Val: []float64{1, 1}, Sense: LE, RHS: 4},
			{Idx: []int32{1, 2}, Val: []float64{1, 1}, Sense: LE, RHS: 5},
			{Idx: []int32{2, 3}, Val: []float64{1, 1}, Sense: LE, RHS: 3},
			{Idx: []int32{0, 3}, Val: []float64{1, 1}, Sense: LE, RHS: 6},
			{Idx: []int32{0, 1, 2, 3}, Val: []float64{1, 1, 1, 1}, Sense: GE, RHS: 1},
			{Idx: []int32{0, 2}, Val: []float64{2, 1}, Sense: LE, RHS: 7},
			{Idx: []int32{1, 3}, Val: []float64{3, 1}, Sense: EQ, RHS: 6},
		},
	}
	inst, err := NewInstance(p)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := inst.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	if err := new(Instance).GobDecode(raw[:len(raw)/2]); err == nil {
		t.Error("truncated payload should fail to decode")
	}
	if err := new(Instance).GobDecode([]byte("not gob")); err == nil {
		t.Error("garbage payload should fail to decode")
	}

	// Internally inconsistent payloads are rejected by validation. The
	// fixture solves, refactorizes, and re-solves under a tighter bound, so
	// the payload carries U entries and an eta chain to corrupt.
	if _, err := inst.SolveCurrent(); err != nil {
		t.Fatal(err)
	}
	if !inst.refactorize() {
		t.Fatal("fixture basis is singular")
	}
	inst.SetBound(3, 0, 0.5)
	if _, err := inst.SolveCurrent(); err != nil {
		t.Fatal(err)
	}
	if f := inst.fac; f.trivial || len(f.uVal) == 0 || len(f.etaRow) == 0 || len(f.etaVal) == 0 {
		t.Fatalf("fixture lacks U entries (%d), etas (%d) or eta entries (%d) to corrupt",
			len(f.uVal), len(f.etaRow), len(f.etaVal))
	}
	encode := func(mutate func(*instanceState)) []byte {
		good, err := inst.GobEncode()
		if err != nil {
			t.Fatal(err)
		}
		var st instanceState
		if err := gob.NewDecoder(bytes.NewReader(good)).Decode(&st); err != nil {
			t.Fatal(err)
		}
		mutate(&st)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(st); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if err := new(Instance).GobDecode(encode(func(*instanceState) {})); err != nil {
		t.Fatalf("unmutated payload rejected: %v", err)
	}
	for _, c := range []struct {
		name   string
		mutate func(*instanceState)
		want   string // a substring the error must contain; empty: not checked
	}{
		{"unknown mode", func(st *instanceState) { st.Mode = 42 }, ""},
		{"short pivRow", func(st *instanceState) { st.LuPivRow = st.LuPivRow[:0] }, ""},
		{"out-of-range pivot", func(st *instanceState) { st.LuPivRow[0] = 99 }, ""},
		{"eta ptr mismatch", func(st *instanceState) {
			st.EtaRow = append(st.EtaRow, 0)
			st.EtaPiv = append(st.EtaPiv, 1)
		}, ""},
		{"eta ptr nonzero start", func(st *instanceState) { st.EtaPtr[0] = 1 }, ""},
		{"basis above range", func(st *instanceState) { st.Basis[0] = 1007 }, ""},
		{"negative basis", func(st *instanceState) { st.Basis[0] = -5 }, ""},
		{"legacy basis above range", func(st *instanceState) { st.Mode = modeLegacy; st.Basis[0] = 1007 }, ""},
		{"repeated basis", func(st *instanceState) { st.Basis[1] = st.Basis[0] }, ""},
		{"basic var marked nonbasic", func(st *instanceState) { st.Vstat[st.Basis[0]] = vsLower }, ""},
		{"vstat above enum", func(st *instanceState) { st.Vstat[0] = vsBasic + 1 }, ""},
		{"negative vstat", func(st *instanceState) { st.Vstat[0] = -1 }, ""},
		{"unknown sense", func(st *instanceState) { st.Senses[0] = 7 }, ""},
		{"colPtr decreases", func(st *instanceState) { st.ColPtr[1] = st.ColPtr[len(st.ColPtr)-1] + 1 }, ""},
		{"colPtr short of colRow", func(st *instanceState) { st.ColPtr[len(st.ColPtr)-1]-- }, ""},
		{"colPtr nonzero start", func(st *instanceState) { st.ColPtr[0] = -1 }, ""},
		{"rowPtr decreases", func(st *instanceState) { st.RowPtr[1] = st.RowPtr[len(st.RowPtr)-1] + 1 }, ""},
		{"rowPtr past rowCol", func(st *instanceState) { st.RowPtr[len(st.RowPtr)-1]++ }, ""},
		{"colVal short", func(st *instanceState) { st.ColVal = st.ColVal[:len(st.ColVal)-1] }, ""},
		{"colRow out of range", func(st *instanceState) { st.ColRow[0] = int32(st.M) }, ""},
		{"negative colRow", func(st *instanceState) { st.ColRow[0] = -1 }, ""},
		{"rowCol out of range", func(st *instanceState) { st.RowCol[0] = int32(st.NStruct) }, ""},
		{"negative rowCol", func(st *instanceState) { st.RowCol[0] = -1 }, ""},
		{"eta chain past the mask width", func(st *instanceState) {
			st.EtaRow = make([]int32, maxEtaChain+1)
			st.EtaPiv = make([]float64, maxEtaChain+1)
			for e := range st.EtaPiv {
				st.EtaPiv[e] = 1
			}
			st.EtaPtr = make([]int32, maxEtaChain+2)
			st.EtaIdx, st.EtaVal = nil, nil
		}, "eta chain has 65 entries"},
		{"eta pivot below tolerance", func(st *instanceState) { st.EtaPiv[0] = etaPivTol / 4 }, "eta piv[0]"},
		{"zero eta pivot", func(st *instanceState) { st.EtaPiv[0] = 0 }, "eta piv[0]"},
		{"NaN eta pivot", func(st *instanceState) { st.EtaPiv[0] = math.NaN() }, "eta piv[0]"},
		{"infinite eta pivot", func(st *instanceState) { st.EtaPiv[len(st.EtaPiv)-1] = math.Inf(-1) }, "eta piv["},
		{"zero LU diagonal", func(st *instanceState) { st.LuDiag[2] = 0 }, "lu diag[2]"},
		{"NaN LU diagonal", func(st *instanceState) { st.LuDiag[0] = math.NaN() }, "lu diag[0]"},
		{"infinite LU diagonal", func(st *instanceState) { st.LuDiag[1] = math.Inf(1) }, "lu diag[1]"},
		{"NaN L value", func(st *instanceState) {
			// Give step 0 one more multiplier, a NaN.
			st.LuLIdx = append([]int32{1}, st.LuLIdx...)
			st.LuLVal = append([]float64{math.NaN()}, st.LuLVal...)
			for k := 1; k < len(st.LuLPtr); k++ {
				st.LuLPtr[k]++
			}
		}, "lu lVal[0]"},
		{"infinite U value", func(st *instanceState) { st.LuUVal[0] = math.Inf(1) }, "lu uVal[0]"},
		{"NaN eta value", func(st *instanceState) { st.EtaVal[0] = math.NaN() }, "eta val[0]"},
	} {
		err := new(Instance).GobDecode(encode(c.mutate))
		if err == nil {
			t.Errorf("%s: corrupt payload should fail to decode", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not name %q", c.name, err, c.want)
		}
	}
}

// randomProblem builds a small random feasible-ish LP (bounded variables,
// mixed senses) for round-trip trials.
func randomStateProblem(rng *rand.Rand) Problem {
	n := 3 + rng.IntN(5)
	m := 2 + rng.IntN(4)
	p := Problem{
		NumVars:   n,
		Objective: make([]float64, n),
		Upper:     make([]float64, n),
	}
	for j := 0; j < n; j++ {
		p.Objective[j] = rng.Float64()*4 - 2
		p.Upper[j] = 1 + rng.Float64()*9
	}
	for i := 0; i < m; i++ {
		c := Constraint{Sense: LE, RHS: 2 + rng.Float64()*10}
		if rng.IntN(3) == 0 {
			c.Sense = GE
			c.RHS = rng.Float64()
		}
		for j := 0; j < n; j++ {
			if rng.IntN(2) == 0 {
				c.Idx = append(c.Idx, int32(j))
				c.Val = append(c.Val, rng.Float64()*3)
			}
		}
		p.Constraints = append(p.Constraints, c)
	}
	return p
}
