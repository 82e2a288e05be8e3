package cluster

import (
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/vbcloud/vb/internal/workload"
)

// fuzzBytes hands out fuzz input one byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// fuzzFrac decodes a power fraction: 0 to 1.27 in steps of 1/200 (above 1
// clamps), with 255 for NaN.
func fuzzFrac(b int) float64 {
	if b == 255 {
		return math.NaN()
	}
	return float64(b) / 200
}

// FuzzSiteMatchesOracle decodes a small site (1 to 130 servers) and a
// sequence of operations from the bytes: Step with arrivals and a power
// fraction, Admit, Remove, SetPowerEvict, and a State→NewFromState round
// trip with every server's list reversed. It drives the Site, its restored
// copy and the linear-scan oracle refSite through the sequence. Every
// operation must return the same result on all three and leave the same
// view (power, allocation, cursor, the server of every VM and the pending
// queue in order), and the Site's index and pending queue must stay
// consistent. VMs come in a few shapes, so refusals end shapes and the
// queue builds; some repeat an ID, have a non-positive size or ended
// before they arrive.
func FuzzSiteMatchesOracle(f *testing.F) {
	rng := rand.New(rand.NewPCG(20, 1))
	for range 8 {
		seed := make([]byte, 512+rng.IntN(3584))
		for i := range seed {
			seed[i] = byte(rng.Uint32())
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		cfg := Config{
			Servers:           1 + in.next()%130,
			CoresPerServer:    1 + in.next()%48,
			MemPerServerGB:    1 + in.next()%128,
			TargetUtilization: float64(1+in.next()%100) / 100,
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := NewFromState(s.State())
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefSite(cfg)
		shapes := make([][2]int, 1+in.next()%4)
		for i := range shapes {
			shapes[i] = [2]int{1 + in.next()%(cfg.CoresPerServer+1), 1 + in.next()%(cfg.MemPerServerGB+1)}
		}
		lifetimes := []time.Duration{0, 15 * time.Minute, 30 * time.Minute, time.Hour, 3 * time.Hour}
		var ids []int // every ID issued so far
		now := t0
		newVM := func() workload.VM {
			b := in.next()
			shape := shapes[b%len(shapes)]
			id := len(ids) + 1
			switch b >> 5 {
			case 0:
				if len(ids) > 0 {
					id = ids[in.next()%len(ids)] // often running or queued
				}
			case 1:
				shape[b>>4&1] = -(b >> 3 & 1) // zero or negative cores or memory
			}
			ids = append(ids, id)
			life := in.next()
			vm := workload.VM{ID: id, Cores: shape[0], MemoryGB: shape[1], Arrival: now, Lifetime: lifetimes[life%len(lifetimes)]}
			if life >= 224 {
				vm.Arrival = now.Add(-time.Hour) // may have ended before it arrives
			}
			return vm
		}
		for op := 0; len(in) > 0 && op < 200; op++ {
			var got, gotCopy, want any
			switch k := in.next(); k % 8 {
			case 0, 1, 2, 3:
				arr := make([]workload.VM, in.next()%33)
				for i := range arr {
					arr[i] = newVM()
				}
				frac := fuzzFrac(in.next())
				now = now.Add(time.Duration(1+k/8%4) * 15 * time.Minute)
				got, gotCopy, want = s.Step(now, frac, arr), cp.Step(now, frac, arr), ref.step(now, frac, arr)
			case 4:
				vm := newVM()
				oracle := ref.linearBestFit(vm)
				ok := s.Admit(vm)
				got, gotCopy, want = ok, cp.Admit(vm), ref.place(vm)
				if ok && s.where[vm.ID] != oracle {
					t.Fatalf("op %d: VM %d placed on server %d, linear scan picks %d", op, vm.ID, s.where[vm.ID], oracle)
				}
			case 5:
				id := 0
				if len(ids) > 0 {
					id = ids[in.next()%len(ids)]
				}
				got, gotCopy, want = s.Remove(id), cp.Remove(id), ref.remove(id)
			case 6:
				frac := fuzzFrac(in.next())
				got, gotCopy, want = s.SetPowerEvict(frac), cp.SetPowerEvict(frac), ref.setPowerEvict(frac)
			case 7:
				st := s.State()
				for _, vms := range st.Servers {
					slices.Reverse(vms)
				}
				if cp, err = NewFromState(st); err != nil {
					t.Fatalf("op %d: restoring state: %v", op, err)
				}
			}
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotCopy, want) {
				t.Fatalf("op %d: site %+v, restored copy %+v, oracle %+v", op, got, gotCopy, want)
			}
			if v := viewOf(s); !reflect.DeepEqual(v, ref.view()) || !reflect.DeepEqual(viewOf(cp), v) {
				t.Fatalf("op %d: site, restored copy and oracle states diverge", op)
			}
			checkIndex(t, s)
			checkIndex(t, cp)
			checkQueue(t, s)
			checkQueue(t, cp)
		}
	})
}

// checkQueue verifies the pending queue's bookkeeping: every entry sits in
// its shape's FIFO, each FIFO is in sequence order with only gone entries
// before its head and a live entry at it, the live counts add up, and the
// expiry heap is a heap holding the key of every live entry that ends.
func checkQueue(t *testing.T, s *Site) {
	t.Helper()
	p := &s.pending
	keys := map[uint64]expiry{}
	for i, x := range p.expiry {
		if i > 0 && x.less(p.expiry[(i-1)/2]) {
			t.Fatalf("expiry heap out of order at %d", i)
		}
		keys[x.seq] = x
	}
	if len(p.byShape) != len(p.shapes) {
		t.Fatalf("%d shape keys for %d FIFOs", len(p.byShape), len(p.shapes))
	}
	n := 0
	for key, si := range p.byShape {
		f := &p.shapes[si]
		live := 0
		for i, e := range f.q {
			if e.vm.Cores != key.cores || e.vm.MemoryGB != key.memGB {
				t.Fatalf("shape %v holds a %d-core %d GB VM", key, e.vm.Cores, e.vm.MemoryGB)
			}
			if i > 0 && f.q[i-1].seq >= e.seq || e.seq > p.seq {
				t.Fatalf("shape %v: sequence %d out of order at %d", key, e.seq, i)
			}
			if e.gone {
				continue
			}
			if i < f.head {
				t.Fatalf("shape %v: live entry %d before head %d", key, i, f.head)
			}
			live++
			if end := e.vm.End(); !end.IsZero() {
				want := expiryAt(end)
				want.shape, want.seq = int32(si), e.seq
				if keys[e.seq] != want {
					t.Fatalf("shape %v: VM %d has expiry key %+v, want %+v", key, e.vm.ID, keys[e.seq], want)
				}
			}
		}
		if live != f.live || live > 0 && f.q[f.head].gone {
			t.Fatalf("shape %v: %d live entries, counted %d, head %d", key, live, f.live, f.head)
		}
		n += live
	}
	if n != p.n || n != s.Pending() {
		t.Fatalf("%d live entries, queue counts %d", n, p.n)
	}
}
