package lp

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// byteSource hands out a fuzz input one byte at a time, then zeros.
type byteSource []byte

func (s *byteSource) next() byte {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return b
}

// quarter reads a quarter-integer in [-8, 8].
func (s *byteSource) quarter() float64 { return float64(int(s.next()%65)-32) / 4 }

// decodeLP builds a valid LP from fuzz bytes. The first byte picks the
// shape: a small LP, or a placement-shaped LP of 65 to 140 rows whose
// bitsets span two or three words.
func decodeLP(data []byte) Problem {
	s := byteSource(data)
	head := s.next()
	if head&1 == 1 {
		return decodePlacementLP(&s)
	}
	n, m := 1+int(s.next()%10), 1+int(s.next()%10)
	p := Problem{NumVars: n, Objective: make([]float64, n), Maximize: head&2 != 0}
	for j := range p.Objective {
		p.Objective[j] = s.quarter()
	}
	for i := 0; i < m; i++ {
		c := Constraint{Sense: Sense(s.next() % 3)}
		for j := 0; j < n; j++ {
			if s.next()%3 == 0 {
				continue
			}
			if v := s.quarter(); v != 0 {
				c.Idx, c.Val = append(c.Idx, int32(j)), append(c.Val, v)
			}
		}
		if len(c.Idx) == 0 {
			c.Idx, c.Val = []int32{int32(int(s.next()) % n)}, []float64{1}
		}
		c.RHS = s.quarter() * 2
		p.Constraints = append(p.Constraints, c)
	}
	if head&4 == 0 {
		return p
	}
	// randomProblem's bound menu: default, boxed, upper only, free.
	p.Lower, p.Upper = make([]float64, n), make([]float64, n)
	for j := 0; j < n; j++ {
		switch s.next() % 4 {
		case 0:
			p.Upper[j] = math.Inf(1)
		case 1:
			p.Lower[j] = s.quarter()
			p.Upper[j] = p.Lower[j] + float64(s.next()%9)/2
		case 2:
			p.Lower[j], p.Upper[j] = math.Inf(-1), s.quarter()
		default:
			p.Lower[j], p.Upper[j] = math.Inf(-1), math.Inf(1)
		}
	}
	return p
}

// decodePlacementLP picks placementLP's sites, peak rows and seed from the
// bytes, and a horizon that puts the row count in [65, 140].
func decodePlacementLP(s *byteSource) Problem {
	k := 1 + int(s.next()%3)
	peak := s.next()&1 == 1
	perStep := 1 + 3*k // rows = perStep·H - k + 1
	if peak {
		perStep += 2
	}
	lo := (65 + k - 1 + perStep - 1) / perStep
	hi := (140 + k - 1) / perStep
	H := lo + int(s.next())%(hi-lo+1)
	var seed [8]byte
	for i := range seed {
		seed[i] = s.next()
	}
	rng := rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(seed[:]))))
	return placementLP(rng, k, H, peak)
}

// FuzzSolveMatchesReference decodes an LP from the fuzz input and holds
// the revised simplex to the dense reference: the same status, the
// objective within 1e-6·(1+|obj|), and a feasible answer. It also solves
// under kernelCheck, which holds every kernel call to its reference bit
// for bit, and then re-solves warm after bound tightenings the remaining
// bytes pick.
func FuzzSolveMatchesReference(f *testing.F) {
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 12; i++ {
		b := make([]byte, 16+rng.Intn(112))
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeLP(data)
		if err := p.Validate(); err != nil {
			t.Fatalf("decoded an invalid LP: %v", err)
		}
		checkAgainstReference(t, p, 0)
		in, err := NewInstance(p)
		if err != nil {
			t.Fatal(err)
		}
		twin, err := NewInstance(p)
		if err != nil {
			t.Fatal(err)
		}
		checkedSolve(t, "cold", in, twin)
		s := byteSource(data[min(len(data), 48):])
		for round := 0; round < 2; round++ {
			j := int(s.next()) % p.NumVars
			lo, _ := in.Bounds(j)
			if math.IsInf(lo, -1) {
				lo = -5
			}
			hi := lo + float64(s.next()%3)
			in.SetBound(j, lo, hi)
			twin.SetBound(j, lo, hi)
			checkedSolve(t, "warm", in, twin)
		}
	})
}
