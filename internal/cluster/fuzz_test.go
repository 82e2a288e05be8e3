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
// sequence of operations from the bytes: step with arrivals and a power
// fraction, Admit, Remove, SetPowerEvict, and a State→NewFromState round
// trip with every server's list reversed. It drives the Site, its restored
// copy and the linear-scan oracle refSite through the sequence. State
// leaves the queue out, so the round trip replaces the copy only when the
// queue is empty; otherwise the copy steps on in lockstep. Every operation
// must return the same result on all three and leave the same view (power,
// allocation, cursor, the server of every VM and the pending queue in
// order), and the Site's index and pending queue must stay consistent. VMs
// come in a few shapes, so refusals end shapes and the queue builds. Step
// arrivals have fresh IDs and positive sizes, as Run gives them, and some
// ended before they arrive; an Admitted VM may also repeat an ID or have a
// non-positive size. Besides random inputs, the seeds hold three written
// sequences, so that plain go test unlinks queued VMs from the middle, the
// head and the tail of a shape's list, and ends a shape's turn mid-pass on
// a refusal by admission control and on one by best fit, each followed by
// a launch of another shape.
func FuzzSiteMatchesOracle(f *testing.F) {
	rng := rand.New(rand.NewPCG(20, 1))
	for range 8 {
		seed := make([]byte, 512+rng.IntN(3584))
		for i := range seed {
			seed[i] = byte(rng.Uint32())
		}
		f.Add(seed)
	}
	// Each written site below is its server count, cores, memory (128 GB)
	// and target (1) bytes, then its shapes: a count byte and each shape's
	// cores and memory bytes. Each step is k=0 (15 minutes on), its arrival
	// count, each arrival's kind byte (64 plus its shape) and lifetime byte
	// (0 none, 1 fifteen minutes), then the power fraction byte (0 off, 150
	// three quarters, 200 full).
	for _, seed := range []string{
		// One server of one core, one shape of one core. Unpowered, VMs 1,
		// 2 and 3 queue, and VM 2 ended as it arrived, so it expires from
		// between the other two at the next step. At full power VM 1
		// launches from the head and VM 3's refusal ends the pass; VM 1 is
		// removed, and VM 3 then launches as the list's only VM.
		"\x00\x00\x7f\x63\x00\x00\x00" + "\x00\x03\x40\x00\x40\x01\x40\x00\x00" + "\x00\x00\x00" +
			"\x00\x00\xc8" + "\x05\x00" + "\x00\x00\xc8",
		// One server of four cores; shape A has two cores, B one. Unpowered,
		// A1, A2, B, A3 and A4 queue, and A4 ended as it arrived, so it
		// expires from the tail behind A3 at the next step. At three
		// quarters of the power (limit 3 cores) A1 launches, admission
		// control refuses A2, which ends A's turn before A3, and B
		// launches behind it.
		"\x00\x03\x7f\x63\x01\x01\x00\x00\x00" + "\x00\x05\x40\x00\x40\x00\x41\x00\x40\x00\x40\x01\x00" +
			"\x00\x00\x96",
		// Three servers of four cores; shape A has three cores, B one.
		// Unpowered, A1 to A4, B and A5 queue. At full power (limit 12
		// cores) A1 to A3 launch, one per server; A4 passes admission
		// control but no server fits it, which ends A's turn before A5,
		// and B launches behind it.
		"\x02\x03\x7f\x63\x01\x02\x00\x00\x00" +
			"\x00\x06\x40\x00\x40\x00\x40\x00\x40\x00\x41\x00\x40\x00\x00" + "\x00\x00\xc8",
	} {
		f.Add([]byte(seed))
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
		// newVM decodes a VM of one of the shapes with a fresh ID or, if
		// bad, one that may repeat an ID or have a non-positive size.
		newVM := func(bad bool) workload.VM {
			b := in.next()
			shape := shapes[b%len(shapes)]
			id := len(ids) + 1
			switch {
			case !bad:
			case b>>5 == 0:
				if len(ids) > 0 {
					id = ids[in.next()%len(ids)] // often running or queued
				}
			case b>>5 == 1:
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
					arr[i] = newVM(false)
				}
				frac := fuzzFrac(in.next())
				now = now.Add(time.Duration(1+k/8%4) * 15 * time.Minute)
				got, gotCopy, want = s.step(now, frac, arr), cp.step(now, frac, arr), ref.step(now, frac, arr)
			case 4:
				vm := newVM(true)
				oracle := ref.linearBestFit(vm)
				ok := s.Admit(vm)
				got, gotCopy, want = ok, cp.Admit(vm), ref.admit(vm)
				if at := whereOf(s)[vm.ID]; ok && at != oracle {
					t.Fatalf("op %d: VM %d placed on server %d, linear scan picks %d", op, vm.ID, at, oracle)
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
				if s.pending.n > 0 {
					break
				}
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

// checkQueue verifies the pending queue's bookkeeping: every queued slot
// is linked once, in the list of its own shape; along each list the
// sequence numbers rise strictly and stay at or below the last one issued,
// every slot's prev names the slot before it and the tail names the last;
// the lists hold as many slots as the queue counts; a slot that is not
// queued has no links and no sequence number; and every slot that has
// queued names the list of its own shape.
func checkQueue(t *testing.T, s *Site) {
	t.Helper()
	p, tb := &s.pending, &s.slots
	if len(p.byShape) != len(p.shapes) {
		t.Fatalf("%d shape keys for %d lists", len(p.byShape), len(p.shapes))
	}
	keys := make([]shapeKey, len(p.shapes))
	linked := make([]bool, tb.n)
	n := 0
	for key, si := range p.byShape {
		keys[si] = key
		l := p.shapes[si]
		prev, seq := int32(-1), uint64(0)
		for i := l.head; i >= 0; i = tb.at(i).next {
			if i >= tb.n || linked[i] {
				t.Fatalf("shape %v links slot %d twice or outside the table's %d", key, i, tb.n)
			}
			linked[i] = true
			sl := tb.at(i)
			if sl.server != queuedSlot || sl.shape != int32(si) {
				t.Fatalf("shape %v links slot %d, on server %d in list %d", key, i, sl.server, sl.shape)
			}
			if sl.prev != prev {
				t.Fatalf("shape %v: slot %d follows slot %d but links back to %d", key, i, prev, sl.prev)
			}
			if sl.seq <= seq || sl.seq > p.seq {
				t.Fatalf("shape %v: sequence %d follows %d (last issued %d)", key, sl.seq, seq, p.seq)
			}
			prev, seq = i, sl.seq
			n++
		}
		if l.tail != prev {
			t.Fatalf("shape %v: tail %d, but the list ends at %d", key, l.tail, prev)
		}
	}
	if n != p.n {
		t.Fatalf("%d linked slots, queue counts %d", n, p.n)
	}
	for i := int32(0); i < tb.n; i++ {
		sl := tb.at(i)
		if queued := sl.server == queuedSlot; queued != linked[i] {
			t.Fatalf("slot %d (VM %d) on server %d is linked %v", i, sl.vm.ID, sl.server, linked[i])
		} else if !queued && (sl.prev != -1 || sl.next != -1 || sl.seq != 0) {
			t.Fatalf("slot %d on server %d keeps links %d, %d and sequence %d", i, sl.server, sl.prev, sl.next, sl.seq)
		}
		if sl.server == freeSlot || sl.shape < 0 {
			continue
		}
		if k := keys[sl.shape]; sl.vm.Cores != k.cores || sl.vm.MemoryGB != k.memGB {
			t.Fatalf("slot %d holds a %d-core %d GB VM in list %v", i, sl.vm.Cores, sl.vm.MemoryGB, k)
		}
	}
}

// decodeSiteState decodes a small SiteState for FuzzNewFromState: a config
// that is small, at the free-core index bound or just past it; a power
// level and eviction cursor that may fall outside their ranges; and server
// lists, sometimes one too few, holding up to 15 VMs that may repeat IDs,
// have non-positive sizes, absurd core counts or negative lifetimes, or
// overfill their server.
func decodeSiteState(in *fuzzBytes) SiteState {
	var st SiteState
	switch in.next() % 8 {
	case 0: // at the bound: (cores+1) × servers = maxIndexBits
		st.Config = Config{Servers: 64, CoresPerServer: maxIndexBits/64 - 1, MemPerServerGB: 64, TargetUtilization: 0.7}
	case 1: // just past it
		st.Config = Config{Servers: 64, CoresPerServer: maxIndexBits / 64, MemPerServerGB: 64, TargetUtilization: 0.7}
	default:
		st.Config = Config{
			Servers:           1 + in.next()%8,
			CoresPerServer:    1 + in.next()%16,
			MemPerServerGB:    1 + in.next()%64,
			TargetUtilization: float64(1+in.next()%100) / 100,
		}
	}
	cfg := st.Config
	if b := in.next(); b == 255 {
		st.Powered = -1
	} else {
		st.Powered = cfg.Servers * cfg.CoresPerServer * b / 250 // past every core above 250
	}
	st.EvictCursor = in.next() % (cfg.Servers + 1)
	lifetimes := []time.Duration{0, -time.Hour, 15 * time.Minute, time.Hour, 3 * time.Hour}
	var ids []int // every ID issued so far
	vm := func() workload.VM {
		b := in.next()
		id := len(ids) + 1
		if b%8 == 0 && len(ids) > 0 {
			id = ids[in.next()%len(ids)]
		}
		ids = append(ids, id)
		cores := in.next()%18 - 1
		if cores == 16 {
			cores = math.MaxInt/2 + 1 // two of them overflow a sum
		}
		return workload.VM{
			ID:       id,
			Cores:    cores,
			MemoryGB: in.next()%66 - 1,
			Arrival:  t0.Add(time.Duration(in.next()) * time.Minute),
			Lifetime: lifetimes[b/8%len(lifetimes)],
		}
	}
	st.Servers = make([][]workload.VM, cfg.Servers-in.next()%16/15)
	for range in.next() % 16 {
		if len(st.Servers) > 0 {
			i := in.next() % len(st.Servers)
			st.Servers[i] = append(st.Servers[i], vm())
		}
	}
	return st
}

// FuzzNewFromState decodes a site state (decodeSiteState) and requires
// NewFromState either to refuse it or to return a site that passes
// checkIndex and checkQueue, holds exactly the running VMs the state names
// and an empty queue, and whose own State() restores to the same view. One
// step on both sites must then agree and keep both consistent. The seeds are
// random inputs chosen so that most of them restore, one of them at the
// index bound.
func FuzzNewFromState(f *testing.F) {
	rng := rand.New(rand.NewPCG(21, 1))
	for _, want := range []struct {
		mode     byte
		restores bool
		n        int
	}{{0, true, 1}, {1, false, 1}, {2, true, 6}, {2, false, 2}} {
		for n := 0; n < want.n; {
			seed := make([]byte, 16+rng.IntN(240))
			for i := range seed {
				seed[i] = byte(rng.Uint32())
			}
			seed[0] = want.mode
			in := fuzzBytes(seed)
			if _, err := NewFromState(decodeSiteState(&in)); (err == nil) == want.restores {
				f.Add(seed)
				n++
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		st := decodeSiteState(&in)
		s, err := NewFromState(st)
		if err != nil {
			return
		}
		checkIndex(t, s)
		checkQueue(t, s)
		want := siteView{st.Powered, 0, st.EvictCursor, map[int]int{}, []int{}}
		for i, vms := range st.Servers {
			for _, vm := range vms {
				want.where[vm.ID] = i
				want.alloc += vm.Cores
			}
		}
		if v := viewOf(s); !reflect.DeepEqual(v, want) {
			t.Fatalf("restored view %+v, state names %+v", v, want)
		}
		cp, err := NewFromState(s.State())
		if err != nil {
			t.Fatalf("a restored site's own state does not restore: %v", err)
		}
		checkIndex(t, cp)
		checkQueue(t, cp)
		if !reflect.DeepEqual(viewOf(cp), want) || !reflect.DeepEqual(cp.State(), s.State()) {
			t.Fatalf("restoring a restored site's state changes it")
		}
		now, frac := t0.Add(time.Duration(in.next())*time.Minute), fuzzFrac(in.next())
		if got, again := s.step(now, frac, nil), cp.step(now, frac, nil); got != again {
			t.Fatalf("step after restore: %+v, then %+v from the round trip", got, again)
		}
		checkIndex(t, s)
		checkQueue(t, s)
		if !reflect.DeepEqual(viewOf(cp), viewOf(s)) {
			t.Fatalf("a step after restore leaves the two sites apart")
		}
	})
}
