package lp

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
)

// Instance state serialization for crash recovery of long-lived schedulers.
//
// A warm-started solve's pivot path — and therefore which of several
// alternate optimal vertices it returns — depends on the exact numeric
// state the previous solve left behind: the basis, the nonbasic variable
// statuses, the basis factorization, and the incrementally maintained
// reduced costs. Snapshotting a daemon mid-run therefore has to round-trip
// all of it bit-exactly, or a restored process replans onto different
// (equally optimal, but different) vertices than the uninterrupted one
// would. Gob encodes float64 by bit pattern, so the round trip is exact,
// infinities included.
//
// Compatibility: Mode names the basis representation a payload carries,
// and GobEncode writes only modeSparseLU, whose full LU and eta chain
// round-trip bit-exactly. Payloads written before the sparse LU kernel carry
// no Mode field, which gob decodes as the zero value (modeLegacy), plus a
// dense inverse this decoder no longer reads (gob skips stream fields the
// struct lacks). They restore by refactorizing the saved basis into a
// sparse LU, or onto the all-slack crash basis when the saved basis is
// singular: the restored instance re-solves to the same objectives, though
// not necessarily along the writer's pivot path.

const (
	modeLegacy   int8 = 0 // pre-sparse payload: basis only, refactorized on decode
	modeSparseLU int8 = 1
)

// instanceState mirrors every Instance field that outlives a solve. The
// scratch arrays (see allocScratch) are overwritten before every use and are
// reallocated empty on decode.
type instanceState struct {
	M, NStruct int
	Maximize   bool

	Cmin, B        []float64
	Senses         []Sense
	BaseLo, BaseHi []float64

	ColPtr, ColRow []int32
	ColVal         []float64
	RowPtr, RowCol []int32
	RowVal         []float64

	Lo, Hi []float64
	Basis  []int32
	Vstat  []int8
	XB     []float64
	Ready  bool
	D      []float64
	DExact bool

	Pivots    int64
	Refactors int64

	// Mode tags the basis representation (see the compatibility note);
	// the fields after it are mode 1's LU factorization and eta chain.
	Mode               int8
	LuPivRow, LuPivCol []int32
	LuLPtr, LuLIdx     []int32
	LuLVal             []float64
	LuUPtr, LuUIdx     []int32
	LuUVal             []float64
	LuDiag             []float64
	LuTrivial          bool
	EtaRow             []int32
	EtaPiv             []float64
	EtaPtr, EtaIdx     []int32
	EtaVal             []float64
}

// GobEncode serializes the compiled problem and the warm solver state.
func (in *Instance) GobEncode() ([]byte, error) {
	st := instanceState{
		M: in.m, NStruct: in.nStruct, Maximize: in.maximize,
		Cmin: in.cmin, B: in.b, Senses: in.senses,
		BaseLo: in.baseLo, BaseHi: in.baseHi,
		ColPtr: in.colPtr, ColRow: in.colRow, ColVal: in.colVal,
		RowPtr: in.rowPtr, RowCol: in.rowCol, RowVal: in.rowVal,
		Lo: in.lo, Hi: in.hi,
		Basis: in.basis, Vstat: in.vstat,
		XB: in.xB, Ready: in.ready,
		D: in.d, DExact: in.dExact,
		Pivots: in.pivots, Refactors: in.refactors,
		Mode: modeSparseLU,
	}
	f := in.fac
	st.LuPivRow, st.LuPivCol = f.pivRow, f.pivCol
	st.LuLPtr, st.LuLIdx, st.LuLVal = f.lPtr, f.lIdx, f.lVal
	st.LuUPtr, st.LuUIdx, st.LuUVal = f.uPtr, f.uIdx, f.uVal
	st.LuDiag, st.LuTrivial = f.diag, f.trivial
	st.EtaRow, st.EtaPiv = f.etaRow, f.etaPiv
	st.EtaPtr, st.EtaIdx, st.EtaVal = f.etaPtr, f.etaIdx, f.etaVal
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("lp: encoding instance: %w", err)
	}
	return buf.Bytes(), nil
}

// GobDecode restores an instance serialized by GobEncode. The decoded
// instance solves exactly as the original would have: same warm basis,
// same factorization, same reduced costs, hence the same pivot path. A
// pre-sparse payload restores onto a fresh factorization of its basis (see
// the compatibility note above). Every index the solver will dereference is
// range-checked first, so a corrupt payload fails here rather than panicking
// in a later solve.
func (in *Instance) GobDecode(b []byte) error {
	var st instanceState
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&st); err != nil {
		return fmt.Errorf("lp: decoding instance: %w", err)
	}
	m, ns := st.M, st.NStruct
	n := ns + m
	if m < 0 || ns <= 0 {
		return fmt.Errorf("lp: decoded instance has %d rows, %d vars", m, ns)
	}
	if st.Mode != modeLegacy && st.Mode != modeSparseLU {
		return fmt.Errorf("lp: decoded instance has unknown basis mode %d", st.Mode)
	}
	if err := checkLens([]lenCheck{
		{"cmin", len(st.Cmin), n}, {"b", len(st.B), m}, {"senses", len(st.Senses), m},
		{"baseLo", len(st.BaseLo), n}, {"baseHi", len(st.BaseHi), n},
		{"colPtr", len(st.ColPtr), ns + 1}, {"rowPtr", len(st.RowPtr), m + 1},
		{"colVal", len(st.ColVal), len(st.ColRow)}, {"rowVal", len(st.RowVal), len(st.RowCol)},
		{"lo", len(st.Lo), n}, {"hi", len(st.Hi), n},
		{"basis", len(st.Basis), m}, {"vstat", len(st.Vstat), n},
		{"xB", len(st.XB), m}, {"d", len(st.D), n},
	}); err != nil {
		return err
	}
	for i, s := range st.Senses {
		if s != LE && s != GE && s != EQ {
			return fmt.Errorf("lp: decoded instance row %d has unknown sense %d", i, int(s))
		}
	}
	if err := checkSparse("columns", st.ColPtr, st.ColRow, m); err != nil {
		return err
	}
	if err := checkSparse("rows", st.RowPtr, st.RowCol, ns); err != nil {
		return err
	}
	if err := checkBasis(&st, n); err != nil {
		return err
	}
	*in = Instance{
		m: m, nStruct: ns, n: n, maximize: st.Maximize,
		cmin: st.Cmin, b: st.B, senses: st.Senses,
		baseLo: st.BaseLo, baseHi: st.BaseHi,
		colPtr: st.ColPtr, colRow: st.ColRow, colVal: st.ColVal,
		rowPtr: st.RowPtr, rowCol: st.RowCol, rowVal: st.RowVal,
		lo: st.Lo, hi: st.Hi,
		basis: st.Basis, vstat: st.Vstat,
		xB: st.XB, ready: st.Ready,
		d: st.D, dExact: st.DExact,
		pivots: st.Pivots, refactors: st.Refactors,
	}
	in.allocScratch()
	if st.Mode == modeSparseLU {
		fac, err := decodeLU(&st, m)
		if err != nil {
			return err
		}
		in.fac = fac
		return nil
	}
	in.fac = newSparseLU(m)
	if in.ready && !in.refactorize() {
		in.crash()
	}
	return nil
}

// lenCheck is one expected slice length of a decoded payload.
type lenCheck struct {
	name      string
	got, want int
}

func checkLens(cs []lenCheck) error {
	for _, c := range cs {
		if c.got != c.want {
			return fmt.Errorf("lp: decoded instance %s has %d entries, want %d", c.name, c.got, c.want)
		}
	}
	return nil
}

// checkSparse validates a compressed sparse index: ptr starts at zero, never
// decreases, and ends at len(idx), and every index lies in [0, bound).
func checkSparse(name string, ptr, idx []int32, bound int) error {
	if ptr[0] != 0 {
		return fmt.Errorf("lp: decoded instance %s pointers start at %d, want 0", name, ptr[0])
	}
	for k := 1; k < len(ptr); k++ {
		if ptr[k] < ptr[k-1] {
			return fmt.Errorf("lp: decoded instance %s pointer %d decreases (%d after %d)", name, k, ptr[k], ptr[k-1])
		}
	}
	if last := ptr[len(ptr)-1]; int(last) != len(idx) {
		return fmt.Errorf("lp: decoded instance %s pointers end at %d, index array has %d entries", name, last, len(idx))
	}
	return checkIdx(name, idx, bound)
}

func checkIdx(name string, idx []int32, bound int) error {
	for _, r := range idx {
		if r < 0 || int(r) >= bound {
			return fmt.Errorf("lp: decoded instance %s index %d out of range [0,%d)", name, r, bound)
		}
	}
	return nil
}

// checkBasis validates the basis and variable statuses. Every basis entry
// must name a variable; once the instance has solved (Ready), the entries
// must also be distinct and be exactly the variables marked basic. A
// never-solved instance keeps its zeroed basis until the first solve
// installs the crash basis, so repeats are allowed there.
func checkBasis(st *instanceState, n int) error {
	if err := checkIdx("basis", st.Basis, n); err != nil {
		return err
	}
	nBasic := 0
	for j, v := range st.Vstat {
		if v < vsLower || v > vsBasic {
			return fmt.Errorf("lp: decoded instance variable %d has unknown status %d", j, v)
		}
		if v == vsBasic {
			nBasic++
		}
	}
	if !st.Ready {
		return nil
	}
	seen := make([]bool, n)
	for i, j := range st.Basis {
		if seen[j] {
			return fmt.Errorf("lp: decoded instance basis repeats variable %d (row %d)", j, i)
		}
		seen[j] = true
		if st.Vstat[j] != vsBasic {
			return fmt.Errorf("lp: decoded instance basis variable %d (row %d) has nonbasic status %d", j, i, st.Vstat[j])
		}
	}
	if nBasic != len(st.Basis) {
		return fmt.Errorf("lp: decoded instance marks %d variables basic, basis has %d", nBasic, len(st.Basis))
	}
	return nil
}

// decodeLU validates and rebuilds a mode-1 factorization. Gob omits empty
// slices, so canonical empty forms (ptr arrays with a leading zero) are
// re-normalized here before validation — a freshly decoded factor must
// re-encode to the same bytes. Beyond shapes and indices it refuses what
// would break the next solve numerically: a chain longer than the eta
// masks can track, an eta pivot update would have refused, a zero LU
// diagonal, and any non-finite value.
func decodeLU(st *instanceState, m int) (*sparseLU, error) {
	if len(st.LuLPtr) == 0 {
		st.LuLPtr = []int32{0}
	}
	if len(st.LuUPtr) == 0 {
		st.LuUPtr = []int32{0}
	}
	if len(st.EtaPtr) == 0 {
		st.EtaPtr = []int32{0}
	}
	ne := len(st.EtaRow)
	if ne > maxEtaChain {
		return nil, fmt.Errorf("lp: decoded instance eta chain has %d entries, limit %d", ne, maxEtaChain)
	}
	if err := checkLens([]lenCheck{
		{"lu pivRow", len(st.LuPivRow), m}, {"lu pivCol", len(st.LuPivCol), m},
		{"lu diag", len(st.LuDiag), m},
		{"lu lPtr", len(st.LuLPtr), m + 1}, {"lu uPtr", len(st.LuUPtr), m + 1},
		{"lu lVal", len(st.LuLVal), len(st.LuLIdx)}, {"lu uVal", len(st.LuUVal), len(st.LuUIdx)},
		{"eta piv", len(st.EtaPiv), ne}, {"eta ptr", len(st.EtaPtr), ne + 1},
		{"eta val", len(st.EtaVal), len(st.EtaIdx)},
	}); err != nil {
		return nil, err
	}
	for _, c := range []struct {
		name     string
		ptr, idx []int32
	}{
		{"lu L", st.LuLPtr, st.LuLIdx}, {"lu U", st.LuUPtr, st.LuUIdx}, {"eta", st.EtaPtr, st.EtaIdx},
	} {
		if err := checkSparse(c.name, c.ptr, c.idx, m); err != nil {
			return nil, err
		}
	}
	for _, c := range []struct {
		name string
		idx  []int32
	}{
		{"lu pivRow", st.LuPivRow}, {"lu pivCol", st.LuPivCol}, {"eta row", st.EtaRow},
	} {
		if err := checkIdx(c.name, c.idx, m); err != nil {
			return nil, err
		}
	}
	for k, v := range st.LuDiag {
		if v == 0 || !finite(v) {
			return nil, fmt.Errorf("lp: decoded instance lu diag[%d] = %v, want finite nonzero", k, v)
		}
	}
	for e, v := range st.EtaPiv {
		if !finite(v) || math.Abs(v) < etaPivTol {
			return nil, fmt.Errorf("lp: decoded instance eta piv[%d] = %v, want finite with magnitude at least %g", e, v, etaPivTol)
		}
	}
	for _, c := range []struct {
		name string
		vals []float64
	}{
		{"lu lVal", st.LuLVal}, {"lu uVal", st.LuUVal}, {"eta val", st.EtaVal},
	} {
		for k, v := range c.vals {
			if !finite(v) {
				return nil, fmt.Errorf("lp: decoded instance %s[%d] = %v, want finite", c.name, k, v)
			}
		}
	}
	f := &sparseLU{
		m:      m,
		pivRow: st.LuPivRow, pivCol: st.LuPivCol,
		lPtr: st.LuLPtr, lIdx: st.LuLIdx, lVal: nonNilF(st.LuLVal),
		uPtr: st.LuUPtr, uIdx: st.LuUIdx, uVal: nonNilF(st.LuUVal),
		diag: st.LuDiag, trivial: st.LuTrivial,
		etaRow: nonNilI(st.EtaRow), etaPiv: nonNilF(st.EtaPiv),
		etaPtr: st.EtaPtr, etaIdx: nonNilI(st.EtaIdx), etaVal: nonNilF(st.EtaVal),
		work: make([]float64, m),
	}
	f.allocEtaMasks(m)
	for e := range f.etaRow {
		f.markEta(e)
	}
	return f, nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func nonNilF(s []float64) []float64 {
	if s == nil {
		return []float64{}
	}
	return s
}

func nonNilI(s []int32) []int32 {
	if s == nil {
		return []int32{}
	}
	return s
}
