package lp

import (
	"math"
	"math/bits"
)

// sparseLU is the revised simplex's basis representation: a sparse LU
// factorization of the basis with Markowitz-style pivot selection, updated
// in place by product-form eta transforms (the Forrest–Tomlin update
// family) on each simplex pivot. FTRAN/BTRAN apply the LU triangles and then
// the eta chain, so their cost is O(nnz(L)+nnz(U)+nnz(etas)) instead of an
// explicit inverse's O(m²) — the difference between the paper's 3-site toy
// and a 200-site fleet, where m runs to thousands and the basis stays
// extremely sparse.
//
// The per-pivot kernels are hypersparse, after Hall and McKinnon's
// hyper-sparse revised simplex: BTRAN and the column FTRAN track which
// entries may hold nonzeros in bitsets of positions and of elimination
// steps, and visit only the etas, LU steps and entries those patterns
// reach. Every nonzero they produce comes from the same operations in the
// same order as the full pass, so only the sign of a zero can differ. The
// full ftran stays for computeXB, whose output becomes plan values.
//
// The eta chain is bounded three ways: chain length (etaChainCap), stored
// nonzeros (a multiple of m), and pivot magnitude (etaPivTol). When update
// refuses, the simplex refactorizes from the current basis — and the
// trust-but-verify residual gate in SolveCurrent still guards every exit.
//
// All vectors are dense []float64 of length m. "Row space" indexes
// constraint rows; "position space" indexes basis positions (w[i] pairs
// with basis[i] and xB[i]); "steps" index the factorization's elimination
// steps. A bitset over m of them is ceil(m/64) words, index i at bit i&63
// of word i>>6.
const (
	// etaPivTol is the smallest |w_r| an eta update will absorb; anything
	// smaller forces a refactorization instead of amplifying roundoff.
	etaPivTol = 1e-8
	// markowitzTau is the threshold-pivoting stability factor: a pivot must
	// be at least this fraction of the largest magnitude in its column.
	markowitzTau = 0.05
	// luPivotTol is the smallest acceptable pivot magnitude during
	// refactorization; below it the basis is declared singular.
	luPivotTol = 1e-10
)

// maxEtaChain is the longest eta chain a factorization can hold; the
// per-eta support bitsets are carved for this many etas.
const maxEtaChain = 64

// etaChainCap bounds the eta-file length between refactorizations, at most
// maxEtaChain. It is a variable (not a const) so stress tests can shrink it
// to force frequent refactorization on the same pivot sequences.
var etaChainCap = maxEtaChain

type sparseLU struct {
	m     int
	words int // ceil(m/64), the length of every bitset

	// LU of the basis as of the last refactorization, in pivot order: step
	// k eliminated basis position pivCol[k] using constraint row pivRow[k]
	// with pivot value diag[k]. L stores the per-step row-elimination
	// multipliers (constraint-row indexed); U rows store the pivot row's
	// surviving entries over positions pivoted at later steps.
	pivRow, pivCol []int32
	lPtr, lIdx     []int32
	lVal           []float64
	uPtr, uIdx     []int32
	uVal           []float64
	diag           []float64
	trivial        bool // the LU is exactly the identity (all-slack crash)

	// The LU's pattern, indexed for the hypersparse kernels: rowStep[r]
	// and posStep[p] are the steps that pivoted row r and position p;
	// lSteps lists, ascending, the steps with a nonempty L column; and
	// utIdx[utPtr[k]:utPtr[k+1]] are the steps whose U row holds an entry
	// at position pivCol[k] (U's pattern transposed). refactor builds them.
	rowStep, posStep []int32
	lSteps           []int32
	utPtr, utIdx     []int32

	// Eta chain: product-form updates appended since the last refactor.
	// Eta e pivots on basis position etaRow[e] with pivot value etaPiv[e];
	// etaIdx/etaVal[etaPtr[e]:etaPtr[e+1]] hold the off-pivot entries of
	// the FTRAN column that entered the basis, in ascending position.
	etaRow []int32
	etaPiv []float64
	etaPtr []int32
	etaIdx []int32
	etaVal []float64
	// etaSet[e*words:(e+1)*words] is the bitset of eta e's stored
	// positions, and etaPre at the same offsets counts its entries in the
	// words before each word, so the entry at position p sits at
	// etaPtr[e] + etaPre[e*words+p>>6] + (set bits below p in p's word).
	etaSet []uint64
	etaPre []int32

	// Kernel scratch: vecSet marks positions that may hold a nonzero and
	// stepSet the elimination steps a pass still has to visit. Both are
	// all zero between kernel calls.
	vecSet, stepSet []uint64

	work []float64 // m, FTRAN/BTRAN scratch

	// i32buf/f64buf/u64buf/boolbuf back most of the slices above: reset
	// carves them into capacity-capped views (three-index slices, so an
	// append overflowing its region reallocates instead of bleeding into a
	// neighbor). A fresh factorization is a few large allocations instead
	// of ~25 small ones, which keeps the allocs/op gates tight.
	i32buf  []int32
	f64buf  []float64
	u64buf  []uint64
	boolbuf []bool

	// Refactorization workspace, kept across calls so steady-state
	// refactorizations allocate (almost) nothing. Rows of the active matrix
	// live in arena-backed slices with elbow room; a row that outgrows its
	// slot falls back to an ordinary append reallocation.
	rowIdx    [][]int32
	rowVal    [][]float64
	colRows   [][]int32
	arenaIdx  []int32
	arenaVal  []float64
	arenaCols []int32
	colCount  []int32
	rowLive   []bool
	colLive   []bool
	acc       []float64
	accMark   []int32
	accStamp  int32
	// selHeap is a lazy min-heap over packed (count<<32 | col) keys used to
	// select the pivot column. A fresh key is pushed whenever a column's
	// count changes; stale keys are discarded on pop. Pop order is identical
	// to a full scan — lowest count, then lowest column index — without the
	// O(m) sweep per pivot.
	selHeap []int64
}

// resize returns s with length n, leaving its entries as they are. It
// reuses s's storage when the capacity suffices and otherwise allocates at
// least twice the old capacity, so an instance reloaded with ever larger
// problems reallocates each array a logarithmic number of times.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, max(n, 2*cap(s)))
	}
	return s[:n]
}

// zeroed is resize with every entry of the result zero.
func zeroed[T any](s []T, n int) []T {
	s = resize(s, n)
	clear(s)
	return s
}

// reset installs the exact identity factorization (all-slack crash basis)
// for an m-row instance.
func (f *sparseLU) reset(m int) {
	f.m = m
	W := (m + 63) >> 6
	f.words = W
	cc := etaChainCap
	luCap := 6*m + 64 // L/U index/value headroom before spilling
	// update accepts an eta while the file holds at most 16m+1024 entries,
	// and one eta adds at most m-1, so the file never outgrows 17m+1024.
	etaCap := 17*m + 1024

	ni := 2*m + 2*(m+1) + 2*luCap + (cc + 1) + cc + etaCap + 2*m +
		3*m + (m + 1) + luCap + maxEtaChain*W
	f.i32buf = resize(f.i32buf, ni)
	ib, io := f.i32buf[:cap(f.i32buf)], 0
	grabI := func(length, capacity int) []int32 {
		s := ib[io : io+length : io+capacity]
		io += capacity
		return s
	}
	f.pivRow = grabI(m, m)
	f.pivCol = grabI(m, m)
	f.lPtr = grabI(m+1, m+1)
	f.uPtr = grabI(m+1, m+1)
	f.lIdx = grabI(0, luCap)
	f.uIdx = grabI(0, luCap)
	f.etaPtr = grabI(0, cc+1)
	f.etaRow = grabI(0, cc)
	f.etaIdx = grabI(0, etaCap)
	f.colCount = grabI(m, m)
	f.accMark = grabI(m, m)
	f.rowStep = grabI(m, m)
	f.posStep = grabI(m, m)
	f.lSteps = grabI(0, m)
	f.utPtr = grabI(m+1, m+1)
	f.utIdx = grabI(0, luCap)
	f.etaPre = grabI(maxEtaChain*W, maxEtaChain*W)

	nf := 3*m + 2*luCap + cc + etaCap
	f.f64buf = resize(f.f64buf, nf)
	fb, fo := f.f64buf[:cap(f.f64buf)], 0
	grabF := func(length, capacity int) []float64 {
		s := fb[fo : fo+length : fo+capacity]
		fo += capacity
		return s
	}
	f.diag = grabF(m, m)
	f.work = grabF(m, m)
	f.lVal = grabF(0, luCap)
	f.uVal = grabF(0, luCap)
	f.etaPiv = grabF(0, cc)
	f.etaVal = grabF(0, etaCap)
	f.acc = grabF(m, m)

	f.boolbuf = resize(f.boolbuf, 2*m)
	f.rowLive = f.boolbuf[0:m:m]
	f.colLive = f.boolbuf[m : 2*m : 2*m]

	nu := maxEtaChain*W + 2*W
	f.u64buf = zeroed(f.u64buf, nu)
	ub := f.u64buf[:nu:nu]
	f.etaSet = ub[: maxEtaChain*W : maxEtaChain*W]
	f.vecSet = ub[maxEtaChain*W : maxEtaChain*W+W : maxEtaChain*W+W]
	f.stepSet = ub[maxEtaChain*W+W:]

	for i := 0; i < m; i++ {
		f.pivRow[i], f.pivCol[i] = int32(i), int32(i)
		f.diag[i] = 1
	}
	clear(f.lPtr)
	clear(f.uPtr)
	clear(f.accMark)
	f.accStamp = 0
	f.trivial = true
	f.clearEtas()
}

func (f *sparseLU) clearEtas() {
	f.etaRow = f.etaRow[:0]
	f.etaPiv = f.etaPiv[:0]
	f.etaIdx = f.etaIdx[:0]
	f.etaVal = f.etaVal[:0]
	f.etaPtr = append(f.etaPtr[:0], 0)
}

// etaLen reports the length of the update chain since the last
// refactorization.
func (f *sparseLU) etaLen() int { return len(f.etaRow) }

// mark sets bit i of bitset s.
func mark(s []uint64, i int32) { s[i>>6] |= 1 << uint(i&63) }

// update appends one eta transform for the pivot on basis position r with
// FTRAN column w, whose nonzeros lie at the ascending positions pat. It
// refuses — forcing a refactorization — when the pivot is too small to
// absorb stably or the chain has outgrown its budget.
func (f *sparseLU) update(r int, w []float64, pat []int32) bool {
	piv := w[r]
	if piv < etaPivTol && piv > -etaPivTol {
		return false
	}
	e := len(f.etaRow)
	if e >= etaChainCap || e >= maxEtaChain || len(f.etaIdx) > 16*f.m+1024 {
		return false
	}
	W := f.words
	set, pre := f.etaSet[e*W:(e+1)*W], f.etaPre[e*W:(e+1)*W]
	clear(set)
	for _, i := range pat {
		if wi := w[i]; wi != 0 && int(i) != r {
			f.etaIdx = append(f.etaIdx, i)
			f.etaVal = append(f.etaVal, wi)
			mark(set, i)
		}
	}
	n := int32(0)
	for k, s := range set {
		pre[k] = n
		n += int32(bits.OnesCount64(s))
	}
	f.etaRow = append(f.etaRow, int32(r))
	f.etaPiv = append(f.etaPiv, piv)
	f.etaPtr = append(f.etaPtr, int32(len(f.etaIdx)))
	return true
}

// ftran solves B·out = x in place: an L pass and U back-substitution over
// the factorized basis, then the eta chain in application order. On entry x
// is row-space; on exit it is position-space.
func (f *sparseLU) ftran(x []float64) {
	m := f.m
	if !f.trivial {
		for k := 0; k < m; k++ {
			v := x[f.pivRow[k]]
			if v != 0 {
				for t := f.lPtr[k]; t < f.lPtr[k+1]; t++ {
					x[f.lIdx[t]] -= f.lVal[t] * v
				}
			}
		}
		for k := m - 1; k >= 0; k-- {
			s := x[f.pivRow[k]]
			for t := f.uPtr[k]; t < f.uPtr[k+1]; t++ {
				s -= f.uVal[t] * f.work[f.uIdx[t]]
			}
			f.work[f.pivCol[k]] = s / f.diag[k]
		}
		copy(x, f.work[:m])
	}
	for e := 0; e < len(f.etaRow); e++ {
		r := f.etaRow[e]
		t := x[r]
		if t == 0 {
			continue
		}
		t /= f.etaPiv[e]
		for q := f.etaPtr[e]; q < f.etaPtr[e+1]; q++ {
			x[f.etaIdx[q]] -= f.etaVal[q] * t
		}
		x[r] = t
	}
}

// btran solves Bᵀ·out = y in place: the transposed eta chain in reverse
// order, then a Uᵀ forward pass and Lᵀ backward pass. On entry y is
// position-space; on exit it is row-space.
//
// It visits only what y's nonzero pattern reaches. vecSet marks the
// positions that may hold a nonzero. An eta has work when its pivot
// position holds a nonzero or its support meets vecSet, and its dot
// product visits just the hits, in ascending position: the order the eta
// stores its entries. The Uᵀ pass walks a step bitset upward, seeded
// through posStep and grown by each step its fill-in reaches, and the Lᵀ
// pass visits only the steps with a nonempty L column. Every nonzero of
// the result comes from the same operations in the same order as the full
// pass; a skipped term only adds a zero, so only the sign of a zero may
// differ, and BTRAN output feeds pricing alone, where zeros never win.
func (f *sparseLU) btran(y []float64) {
	for p, v := range y {
		if v != 0 {
			mark(f.vecSet, int32(p))
		}
	}
	f.btranMarked(y)
}

// btranMarked is btran for a y whose nonzero positions are already marked
// in vecSet.
func (f *sparseLU) btranMarked(y []float64) {
	ys := f.vecSet
	W := f.words
	for e := len(f.etaRow) - 1; e >= 0; e-- {
		r := f.etaRow[e]
		s := y[r]
		live := s != 0
		set, pre := f.etaSet[e*W:(e+1)*W], f.etaPre[e*W:(e+1)*W]
		base := f.etaPtr[e]
		for k, sw := range set {
			hits := sw & ys[k]
			if hits == 0 {
				continue
			}
			live = true
			for hits != 0 {
				b := bits.TrailingZeros64(hits)
				hits &= hits - 1
				q := base + pre[k] + int32(bits.OnesCount64(sw&(1<<uint(b)-1)))
				s -= f.etaVal[q] * y[k<<6|b]
			}
		}
		if !live {
			continue
		}
		y[r] = s / f.etaPiv[e]
		if s != 0 {
			mark(ys, r)
		}
	}
	if f.trivial {
		clear(ys)
		return
	}
	steps := f.stepSet
	for k, word := range ys {
		ys[k] = 0
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			mark(steps, f.posStep[k<<6|b])
		}
	}
	work := f.work
	clear(work)
	for k := range steps {
		for steps[k] != 0 {
			step := k<<6 | bits.TrailingZeros64(steps[k])
			steps[k] &= steps[k] - 1
			v := y[f.pivCol[step]]
			if v == 0 {
				continue
			}
			t := v / f.diag[step]
			work[f.pivRow[step]] = t
			if t != 0 {
				for q := f.uPtr[step]; q < f.uPtr[step+1]; q++ {
					p := f.uIdx[q]
					y[p] -= f.uVal[q] * t
					mark(steps, f.posStep[p])
				}
			}
		}
	}
	for i := len(f.lSteps) - 1; i >= 0; i-- {
		step := f.lSteps[i]
		s := work[f.pivRow[step]]
		for q := f.lPtr[step]; q < f.lPtr[step+1]; q++ {
			s -= f.lVal[q] * work[f.lIdx[q]]
		}
		work[f.pivRow[step]] = s
	}
	copy(y, work)
}

// ftranCol computes w = B⁻¹·A_q for entering column q, visiting only what
// the column's nonzeros reach, and returns pat with the positions of w
// that may hold a nonzero appended in ascending order; every other entry
// of w is zero.
//
// The L pass visits only the steps with a nonempty L column and marks, in
// stepSet, the step of every row it fills. The U back-substitution then
// walks stepSet downward, and each step whose result is nonzero marks the
// earlier steps whose U rows read it (utIdx). Every nonzero of w comes
// from the same operations in the same order as ftran; a skipped step
// leaves +0 where ftran can write -0. No consumer of w can see that sign:
// the ratio test skips |w_i| < pivotTol, the xB update and the eta file
// take only nonzeros, and updateD reads the pivot w_r, which is nonzero.
// computeXB keeps the full ftran, because its right-hand side can hold -0
// and its output becomes plan values.
func (f *sparseLU) ftranCol(in *Instance, q int, w []float64, pat []int32) []int32 {
	clear(w)
	out, steps := f.vecSet, f.stepSet
	// A nonzero in row r seeds r's step, or with an identity LU the
	// output position r itself.
	seed := func(r int32) {
		if f.trivial {
			mark(out, r)
		} else {
			mark(steps, f.rowStep[r])
		}
	}
	if q >= in.nStruct {
		r := int32(q - in.nStruct)
		w[r] = 1
		seed(r)
	} else {
		for k := in.colPtr[q]; k < in.colPtr[q+1]; k++ {
			w[in.colRow[k]] = in.colVal[k]
			seed(in.colRow[k])
		}
	}
	if !f.trivial {
		for _, step := range f.lSteps {
			v := w[f.pivRow[step]]
			if v == 0 {
				continue
			}
			for t := f.lPtr[step]; t < f.lPtr[step+1]; t++ {
				r := f.lIdx[t]
				w[r] -= f.lVal[t] * v
				mark(steps, f.rowStep[r])
			}
		}
		work := f.work
		clear(work)
		for k := len(steps) - 1; k >= 0; k-- {
			for steps[k] != 0 {
				b := 63 - bits.LeadingZeros64(steps[k])
				steps[k] &^= 1 << uint(b)
				step := k<<6 | b
				s := w[f.pivRow[step]]
				for t := f.uPtr[step]; t < f.uPtr[step+1]; t++ {
					s -= f.uVal[t] * work[f.uIdx[t]]
				}
				if s == 0 {
					continue
				}
				p := f.pivCol[step]
				work[p] = s / f.diag[step]
				mark(out, p)
				for t := f.utPtr[step]; t < f.utPtr[step+1]; t++ {
					mark(steps, f.utIdx[t])
				}
			}
		}
		copy(w, work)
	}
	W := f.words
	for e, r := range f.etaRow {
		t := w[r]
		if t == 0 {
			continue
		}
		t /= f.etaPiv[e]
		for q := f.etaPtr[e]; q < f.etaPtr[e+1]; q++ {
			w[f.etaIdx[q]] -= f.etaVal[q] * t
		}
		w[r] = t
		for k, sw := range f.etaSet[e*W : (e+1)*W] {
			out[k] |= sw
		}
	}
	for k, word := range out {
		out[k] = 0
		for word != 0 {
			pat = append(pat, int32(k<<6|bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return pat
}

// rowOfInverse writes row r of B⁻¹ (a row-space vector) into dst.
func (f *sparseLU) rowOfInverse(r int, dst []float64) {
	clear(dst)
	dst[r] = 1
	mark(f.vecSet, int32(r))
	f.btranMarked(dst)
}

// refactor rebuilds the LU from the instance's current basis columns by
// right-looking sparse Gaussian elimination. Pivot selection is
// Markowitz-style: the sparsest live column first, then within it the
// sparsest live row whose entry passes a threshold test against the
// column's largest magnitude. Every tie breaks on the lowest index, so the
// factorization is a deterministic function of the basis. It returns false
// when the basis is numerically singular; the factorization is then
// undefined until reset or a successful refactor.
func (f *sparseLU) refactor(in *Instance) bool {
	m := in.m
	f.m = m
	f.work = resize(f.work, m)
	f.clearEtas()
	f.lPtr = append(f.lPtr[:0], 0)
	f.uPtr = append(f.uPtr[:0], 0)
	f.lIdx, f.lVal = f.lIdx[:0], f.lVal[:0]
	f.uIdx, f.uVal = f.uIdx[:0], f.uVal[:0]
	f.pivRow = f.pivRow[:0]
	f.pivCol = f.pivCol[:0]
	f.diag = f.diag[:0]
	f.trivial = false
	if m == 0 {
		return true
	}

	f.rowIdx = resize(f.rowIdx, m)
	f.rowVal = resize(f.rowVal, m)
	f.colRows = resize(f.colRows, m)
	f.colCount = resize(f.colCount, m)
	f.rowLive = resize(f.rowLive, m)
	f.colLive = resize(f.colLive, m)
	f.acc = resize(f.acc, m)
	if cap(f.accMark) < m {
		f.accMark = make([]int32, m)
		f.accStamp = 0
	}
	f.accMark = f.accMark[:m]

	// Exact initial row and column counts, then arena-backed row slices
	// with elbow room for fill-in (overflowing rows reallocate on append).
	rcnt := f.colCount // reuse as row-count scratch before colCount is set
	clear(rcnt)
	for i, bj := range in.basis {
		j := int(bj)
		if j >= in.nStruct {
			rcnt[j-in.nStruct]++
		} else {
			for k := in.colPtr[j]; k < in.colPtr[j+1]; k++ {
				rcnt[in.colRow[k]]++
			}
		}
		_ = i
	}
	total := 0
	for r := 0; r < m; r++ {
		total += int(rcnt[r])*2 + 8
	}
	if cap(f.arenaIdx) < total || cap(f.arenaCols) < total {
		c := max(total, 2*cap(f.arenaIdx))
		both := make([]int32, 2*c)
		f.arenaIdx = both[0:total:c]
		f.arenaCols = both[c : c+total : 2*c]
	} else {
		f.arenaIdx = f.arenaIdx[:total]
		f.arenaCols = f.arenaCols[:total]
	}
	f.arenaVal = resize(f.arenaVal, total)
	off := 0
	for r := 0; r < m; r++ {
		c := int(rcnt[r])*2 + 8
		f.rowIdx[r] = f.arenaIdx[off : off : off+c]
		f.rowVal[r] = f.arenaVal[off : off : off+c]
		off += c
		f.rowLive[r] = true
		f.colLive[r] = true
	}
	for i, bj := range in.basis {
		j := int(bj)
		if j >= in.nStruct {
			r := j - in.nStruct
			f.rowIdx[r] = append(f.rowIdx[r], int32(i))
			f.rowVal[r] = append(f.rowVal[r], 1)
		} else {
			for k := in.colPtr[j]; k < in.colPtr[j+1]; k++ {
				r := in.colRow[k]
				f.rowIdx[r] = append(f.rowIdx[r], int32(i))
				f.rowVal[r] = append(f.rowVal[r], in.colVal[k])
			}
		}
	}
	clear(f.colCount)
	for r := 0; r < m; r++ {
		for _, p := range f.rowIdx[r] {
			f.colCount[p]++
		}
	}
	off = 0
	for p := 0; p < m; p++ {
		c := int(f.colCount[p])*2 + 8
		if off+c > len(f.arenaCols) {
			f.colRows[p] = make([]int32, 0, c)
		} else {
			f.colRows[p] = f.arenaCols[off : off : off+c]
			off += c
		}
	}
	for r := 0; r < m; r++ {
		for _, p := range f.rowIdx[r] {
			f.colRows[p] = append(f.colRows[p], int32(r))
		}
	}
	if cap(f.selHeap) < 4*m+64 {
		f.selHeap = make([]int64, 0, 4*m+64)
	}
	f.selHeap = f.selHeap[:0]
	for p := 0; p < m; p++ {
		f.heapPush(f.colCount[p], int32(p))
	}

	for step := 0; step < m; step++ {
		// Sparsest live column, lowest index on ties.
		bestCol, bestCount := -1, int32(0)
		if c, cnt, ok := f.heapPopValid(); ok {
			bestCol, bestCount = int(c), cnt
		}
		if bestCol < 0 || bestCount <= 0 {
			return false
		}
		// Threshold test against the column max, then sparsest row (lowest
		// row index on ties).
		amax := 0.0
		for _, r32 := range f.colRows[bestCol] {
			r := int(r32)
			if !f.rowLive[r] {
				continue
			}
			if v, ok := rowEntry(f.rowIdx[r], f.rowVal[r], int32(bestCol)); ok {
				if a := math.Abs(v); a > amax {
					amax = a
				}
			}
		}
		if amax < luPivotTol {
			return false
		}
		thresh := markowitzTau * amax
		pr, prNnz := -1, int32(math.MaxInt32)
		prVal := 0.0
		for _, r32 := range f.colRows[bestCol] {
			r := int(r32)
			if !f.rowLive[r] {
				continue
			}
			v, ok := rowEntry(f.rowIdx[r], f.rowVal[r], int32(bestCol))
			if !ok || math.Abs(v) < thresh {
				continue
			}
			nnz := int32(len(f.rowIdx[r]))
			if nnz < prNnz || (nnz == prNnz && r < pr) {
				pr, prNnz, prVal = r, nnz, v
			}
		}
		if pr < 0 {
			return false
		}

		f.pivRow = append(f.pivRow, int32(pr))
		f.pivCol = append(f.pivCol, int32(bestCol))
		f.diag = append(f.diag, prVal)
		prIdx, prVals := f.rowIdx[pr], f.rowVal[pr]
		for t, p := range prIdx {
			if int(p) != bestCol {
				f.uIdx = append(f.uIdx, p)
				f.uVal = append(f.uVal, prVals[t])
			}
		}
		f.uPtr = append(f.uPtr, int32(len(f.uIdx)))

		for _, r32 := range f.colRows[bestCol] {
			r := int(r32)
			if r == pr || !f.rowLive[r] {
				continue
			}
			v, ok := rowEntry(f.rowIdx[r], f.rowVal[r], int32(bestCol))
			if !ok {
				continue
			}
			mult := v / prVal
			f.lIdx = append(f.lIdx, int32(r))
			f.lVal = append(f.lVal, mult)
			f.eliminate(r, int32(bestCol), mult, prIdx, prVals)
		}
		f.lPtr = append(f.lPtr, int32(len(f.lIdx)))

		f.rowLive[pr] = false
		f.colLive[bestCol] = false
		for _, p := range prIdx {
			if int(p) != bestCol {
				f.colCount[p]--
				f.heapPush(f.colCount[p], p)
			}
		}
	}
	f.indexPattern()
	return true
}

// indexPattern builds the step maps, the nonempty-L list and U's
// transposed pattern from a finished factorization.
func (f *sparseLU) indexPattern() {
	m := f.m
	f.rowStep = resize(f.rowStep, m)
	f.posStep = resize(f.posStep, m)
	f.lSteps = f.lSteps[:0]
	for k := 0; k < m; k++ {
		f.rowStep[f.pivRow[k]] = int32(k)
		f.posStep[f.pivCol[k]] = int32(k)
		if f.lPtr[k+1] > f.lPtr[k] {
			f.lSteps = append(f.lSteps, int32(k))
		}
	}
	// Count U entries per referenced step, then place each U row's step at
	// the steps it references; colCount is free scratch once elimination
	// is done.
	f.utPtr = resize(f.utPtr, m+1)
	clear(f.utPtr)
	for _, p := range f.uIdx {
		f.utPtr[f.posStep[p]+1]++
	}
	for k := 0; k < m; k++ {
		f.utPtr[k+1] += f.utPtr[k]
	}
	fill := f.colCount
	copy(fill, f.utPtr[:m])
	f.utIdx = resize(f.utIdx, len(f.uIdx))
	for k := 0; k < m; k++ {
		for t := f.uPtr[k]; t < f.uPtr[k+1]; t++ {
			s := f.posStep[f.uIdx[t]]
			f.utIdx[fill[s]] = int32(k)
			fill[s]++
		}
	}
}

// eliminate subtracts mult times the pivot row from row r, removing the
// pivot column's entry exactly and merging fill-in. Entry order within the
// rebuilt row is deterministic: surviving old entries first (original
// order), then fill-in in pivot-row order.
func (f *sparseLU) eliminate(r int, pcol int32, mult float64, prIdx []int32, prVals []float64) {
	if f.accStamp >= math.MaxInt32-1 {
		clear(f.accMark)
		f.accStamp = 0
	}
	f.accStamp++
	stamp := f.accStamp
	for t, p := range prIdx {
		if p != pcol {
			f.acc[p] = prVals[t]
			f.accMark[p] = stamp
		}
	}
	idx, vals := f.rowIdx[r], f.rowVal[r]
	out := 0
	for t, p := range idx {
		v := vals[t]
		if p == pcol {
			continue // eliminated exactly
		}
		if f.accMark[p] == stamp {
			v -= mult * f.acc[p]
			f.accMark[p] = -stamp // consumed
			if v == 0 {
				f.colCount[p]-- // exact cancellation: drop the entry
				f.heapPush(f.colCount[p], p)
				continue
			}
		}
		idx[out], vals[out] = p, v
		out++
	}
	idx, vals = idx[:out], vals[:out]
	for t, p := range prIdx {
		if p != pcol && f.accMark[p] == stamp {
			if v := -mult * prVals[t]; v != 0 {
				idx = append(idx, p)
				vals = append(vals, v)
				f.colRows[p] = append(f.colRows[p], int32(r))
				f.colCount[p]++
				f.heapPush(f.colCount[p], p)
			}
		}
	}
	f.rowIdx[r], f.rowVal[r] = idx, vals
}

// heapPush records column col at count in the selection heap.
func (f *sparseLU) heapPush(count, col int32) {
	k := int64(count)<<32 | int64(col)
	h := append(f.selHeap, k)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p] <= k {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = k
	f.selHeap = h
}

// heapPopValid pops keys until one matches a live column's current count.
// ok is false when the heap runs dry (no live columns remain).
func (f *sparseLU) heapPopValid() (col, count int32, ok bool) {
	h := f.selHeap
	for len(h) > 0 {
		k := h[0]
		last := h[len(h)-1]
		h = h[:len(h)-1]
		if len(h) > 0 {
			i := 0
			for {
				l := 2*i + 1
				if l >= len(h) {
					break
				}
				if r := l + 1; r < len(h) && h[r] < h[l] {
					l = r
				}
				if h[l] >= last {
					break
				}
				h[i] = h[l]
				i = l
			}
			h[i] = last
		}
		c := int32(k)
		cnt := int32(k >> 32)
		if f.colLive[c] && f.colCount[c] == cnt {
			f.selHeap = h
			return c, cnt, true
		}
	}
	f.selHeap = h
	return 0, 0, false
}

// rowEntry scans a sparse row for position p.
func rowEntry(idx []int32, vals []float64, p int32) (float64, bool) {
	for t, q := range idx {
		if q == p {
			return vals[t], true
		}
	}
	return 0, false
}
