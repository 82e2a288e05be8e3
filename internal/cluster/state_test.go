package cluster

import (
	"math/rand/v2"
	"reflect"
	"testing"
	"time"

	"github.com/vbcloud/vb/internal/workload"
)

// TestSiteStateRoundTrip drives a site through a churny history of the
// calls a snapshotted site sees (a multi-site engine's Admit, Remove and
// SetPowerEvict), snapshots it, rebuilds from the snapshot, and then plays
// the same future on both copies: every result and view must match, which
// only happens if server placement and the eviction cursor both survived.
func TestSiteStateRoundTrip(t *testing.T) {
	cfg := Config{Servers: 12, CoresPerServer: 40, MemPerServerGB: 512, TargetUtilization: 0.7}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(5, 17))
	nextID, evicted := 1, 0
	// call makes one random engine call on every site and returns their
	// results.
	call := func(sites ...*Site) []any {
		var out []any
		switch k := rng.IntN(10); {
		case k < 6:
			vm := workload.VM{
				ID: nextID, Cores: 1 + rng.IntN(12), MemoryGB: 4 + rng.IntN(60),
				Arrival: t0, Lifetime: time.Duration(rng.IntN(5)) * time.Hour,
			}
			nextID++
			for _, site := range sites {
				out = append(out, site.Admit(vm))
			}
		case k < 8:
			id := 1 + rng.IntN(nextID)
			for _, site := range sites {
				out = append(out, site.Remove(id))
			}
		default:
			frac := rng.Float64()
			for _, site := range sites {
				ev := site.SetPowerEvict(frac)
				evicted += len(ev)
				out = append(out, ev)
			}
		}
		return out
	}
	for range 300 {
		call(s)
	}
	if s.Running() == 0 || evicted == 0 {
		t.Fatalf("history left %d VMs running after %d evictions", s.Running(), evicted)
	}

	restored, err := NewFromState(s.State())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restored.State(), s.State()) || !reflect.DeepEqual(viewOf(restored), viewOf(s)) ||
		restored.Running() != s.Running() {
		t.Fatalf("restored site differs: running %d/%d", restored.Running(), s.Running())
	}

	// Identical futures must produce identical results and views.
	for i := range 300 {
		got := call(s, restored)
		if !reflect.DeepEqual(got[0], got[1]) {
			t.Fatalf("future call %d diverges: %+v vs %+v", i, got[0], got[1])
		}
		if !reflect.DeepEqual(viewOf(restored), viewOf(s)) {
			t.Fatalf("future call %d leaves the two sites apart", i)
		}
	}
}

// TestNewFromStateRejectsCorrupt ensures malformed snapshots fail loudly.
func TestNewFromStateRejectsCorrupt(t *testing.T) {
	cfg := Config{Servers: 2, CoresPerServer: 8, MemPerServerGB: 64, TargetUtilization: 0.7}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.step(t0, 1.0, []workload.VM{mkVM(1, 4, 16), mkVM(2, 4, 16)})
	good := s.State()

	cases := []struct {
		name   string
		mutate func(st *SiteState)
	}{
		{"server count", func(st *SiteState) { st.Servers = st.Servers[:1] }},
		{"powered range", func(st *SiteState) { st.Powered = cfg.TotalCores() + 1 }},
		{"cursor range", func(st *SiteState) { st.EvictCursor = 2 }},
		{"duplicate vm", func(st *SiteState) {
			st.Servers[1] = append(st.Servers[1], st.Servers[0][0])
		}},
		{"over capacity", func(st *SiteState) {
			st.Servers[0] = append(st.Servers[0], mkVM(9, 8, 16))
		}},
		// Past the free-core index bound: sizing the index from this
		// config would exhaust memory.
		{"absurd cores", func(st *SiteState) { st.Config.CoresPerServer = 1 << 31 }},
	}
	for _, c := range cases {
		st := good
		st.Servers = append([][]workload.VM(nil), good.Servers...)
		c.mutate(&st)
		if _, err := NewFromState(st); err == nil {
			t.Errorf("%s: corrupt snapshot accepted", c.name)
		}
	}
	if _, err := NewFromState(good); err != nil {
		t.Errorf("good snapshot rejected: %v", err)
	}
}
